"""The matching kernels: one backtracking search and one frontier-profile DP.

Every tiling is a perfect matching of the region's dual graph, so every
exhaustive route here -- counting and enumerating tilings, listing the
matchings of a weighted graph, summing their weights -- runs the one bitmask
search in :func:`_matchings`, whose docstring states what its outcome table
may hold.  Each route picks the labels the search sums with ``+``: a tiling
mask, a tuple of vertex pairs, an integer key, or, for a count, none.  The
bijections never call it: they read paths with :meth:`Tiling.walk` and replay
them with :meth:`Tiling.from_paths`.  The weighted sum, :func:`matching_genfun`,
folds integer keys only, counted per key, and never packs a value, so the
search shares no arithmetic with the DP.  The DP is the fast path; it must
agree with the search exactly, and the test suite holds it to bit-identical
polynomial equality.

The DP has one core, :func:`_genfun_dp`, which sweeps vertices in the order
given.  :func:`tiling_genfun_dp` sweeps cells in
:func:`~aztecgf.regions.sweep_key` order: squares by antidiagonal (x + y,
then y), triangles by slanted column (x - y, one more for a down-triangle,
then row, then kind).  Every tile joins two nearby diagonals, so the
frontier of pending cells stays about one diagonal wide: n + 1 bits on an
order-n Aztec diamond and at most a bits on an a-row semihexagon.  A
bounding-box column sweep would be correct too, but its profile is as wide
as the region is tall (24 bits at order 12), out of reach for an exact DP
whose every state holds a polynomial.  :func:`graph_genfun_dp` sweeps a
graph in its own vertex order, which needs at most 12 bits on the rewrite
pipeline's 6 x 12 graphs.  States are keyed by frontier slot, not by
position: a vertex that may defer holds the lowest free slot while it can
still match, so keys stay small integers however large the graph.  The sweep
order fixes the slots, and their number is the frontier width, so a graph
wider than ``MAX_FRONTIER`` bits is refused before any state is swept.
Weighted sweeps keep each state's polynomial Kronecker-packed
(:class:`~aztecgf.poly.PackedPoly`): a monomial weight only updates the
value's pending shift, and two states that merge cost one shift and one
integer add per power of t.  Both sweeps update a layer in place instead of
rebuilding the dict at all but a few cells, through a ``flip`` mask that
every stored key is XORed with (:func:`_sweep`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm, prod

from .errors import BijectionViolation, InvalidTiling, InvalidWeight, RegionTooWide
from .poly import FracWeight, LaurentPoly2, PackedPoly, packed_weight, slot_bits
from .regions import Region, WeightedGraph, check_rows, edge_weight, sweep_key

MAX_FRONTIER = 24  # bits; 2^24 states of packed polynomials is out of reach
_ONE = LaurentPoly2.one()


class Tiling:
    """A perfect tiling of a region, stored as a bitmask over its domino pool.

    The mask keeps flip-graph search and hashing cheap; ``dominoes`` decodes it to sorted cell pairs on demand,
    and ``mate``, cell -> the other cell of its tile, is decoded once or kept from the replay of :meth:`from_paths`.
    """

    __slots__ = ("region", "mask", "_dominoes", "_mate")

    def __init__(self, region: Region, mask: int):
        self.region = region
        self.mask = mask
        self._dominoes = None
        self._mate = None

    @classmethod
    def from_dominoes(cls, region: Region, dominoes) -> "Tiling":
        index = region.domino_index
        mask = 0
        for d in check_rows("dominoes", dominoes, InvalidTiling):
            try:
                mask |= 1 << index[tuple(sorted(d))]
            except (KeyError, TypeError):  # not a tile, or cells that cannot be sorted or hashed
                raise InvalidTiling(f"{d} is not a tile of region {region.key}") from None
        return cls(region, mask)

    @property
    def dominoes(self) -> frozenset:
        if self._dominoes is None:
            pool, mask, out = self.region.all_dominoes, self.mask, []
            if mask >> len(pool):  # negative, or a bit past the pool
                raise BijectionViolation(f"mask {mask} names no set of tiles of {self.region.key}")
            while mask:
                low = mask & -mask
                out.append(pool[low.bit_length() - 1])
                mask ^= low
            self._dominoes = frozenset(out)
        return self._dominoes

    @property
    def mate(self) -> dict:
        """Cell -> the other cell of its tile."""
        if self._mate is None:
            self._mate = dict(self.dominoes)
            self._mate.update((c2, c1) for c1, c2 in self.dominoes)
        return self._mate

    def is_valid(self) -> bool:
        """True when the mask names only tiles of the pool and they cover every cell of the region exactly once."""
        return (self.mask >> len(self.region.all_dominoes) == 0  # not negative, no bit past the pool: decodable
                and len(self.mate) == 2 * self.mask.bit_count() and self.mate.keys() == self.region.cells)

    def require_valid(self) -> None:
        """Raise BijectionViolation unless :meth:`is_valid`: the path readers' one refusal of a non-tiling."""
        if not self.is_valid():
            raise BijectionViolation(f"not a tiling of {self.region.key}: a cell is uncovered or covered twice")

    def walk(self, x: int, y: int, cell, steps: dict):
        """Follow the path entering ``cell(x, y)`` to the region's edge by the step table
        ``steps``, kind -> (mate offset, move): each cell's mate offset names the step,
        whose move gives the next cell.  Returns the ``(kind, x, y)`` steps and the exit
        point; raises BijectionViolation at an uncovered cell or a tile no step crosses.
        It stops at the first cell with no mate, and asks only there whether that cell is in the region."""
        by_mate = {offset: kind for kind, (offset, _) in steps.items()}
        mate = self.mate
        out = []
        while (other := mate.get(c := cell(x, y))) is not None:
            kind = by_mate.get((other.x - x, other.y - y))
            if kind is None:
                raise BijectionViolation(f"no step crosses the tile {(c, other)}")
            out.append((kind, x, y))
            dx, dy = steps[kind][1]
            x, y = x + dx, y + dy
        if c in self.region.cells:
            raise BijectionViolation(f"path reached the uncovered cell {c}")
        return out, (x, y)

    @classmethod
    def from_paths(cls, region: Region, paths, cell, partner, steps: dict):
        """Replay ``paths``, each ``(x, y, kinds)`` entering ``cell(x, y)``: a step
        of the table ``steps`` (as in :meth:`walk`) places the tile of its cell and
        ``partner`` at its mate offset, then moves.  Every uncovered cell of ``cell``'s
        kind is then paired with ``partner(x + 1, y)``.  Returns the tiling with the mates
        placed as its ``mate``; raises BijectionViolation for a tile outside the region or
        over a placed one, so the cells placed are the cells covered, and for a cell left over."""
        index = region.domino_index
        mate = {}
        mask = 0

        def place(c1, c2):
            nonlocal mask
            i = index.get((c1, c2) if c1 < c2 else (c2, c1))
            if i is None or c1 in mate or c2 in mate:
                raise BijectionViolation(f"cannot place the tile {(c1, c2)}")
            mate[c1], mate[c2] = c2, c1
            mask |= 1 << i

        for x, y, kinds in paths:
            for kind in kinds:
                (mx, my), (dx, dy) = steps[kind]
                place(cell(x, y), partner(x + mx, y + my))
                x, y = x + dx, y + dy
        kind = cell(0, 0).kind
        for c in region.sorted_cells:  # sorted by x: a cell's left neighbour is paired first
            if c.kind == kind and c not in mate:
                place(c, partner(c.x + 1, c.y))
        if len(mate) != len(region.cells):
            raise BijectionViolation("the placed tiles leave a cell of the region uncovered")
        (tiling := cls(region, mask))._mate = mate
        return tiling

    def __eq__(self, other):
        return (
            isinstance(other, Tiling)
            and self.mask == other.mask
            and self.region.key == other.region.key
        )

    def __hash__(self):
        return hash((self.region.key, self.mask))

    def __repr__(self):
        return f"Tiling({self.region.key}, {len(self.dominoes)} tiles)"


# ---------------------------------------------------------------------------
# the backtracking oracle


def _matchings(adj, unit):
    """Yield the ``+``-sum of the edge labels of every perfect matching.

    ``adj[i]`` lists ``(j, label)`` with partners ascending.  The search
    branches on the lowest free vertex of a bitmask and tries its partners
    in ascending order, so ``adj`` alone fixes the stream.  A vertex with
    one free partner takes it: a forced run, whose end depends on its
    starting free set alone.  Before the first yield, a stack fills ``runs``
    children first, mapping each run's free set to None when no perfect
    matching follows, else to its entry: one flat tuple of the run's label
    sum, then a child entry and the branch edge's label for each partner a
    matching follows, ascending; a leaf has no partners.  A branch with one
    such partner is spliced into its run, so the search never enters a dead
    end.  The walk follows the links on a stack of (entry, index, sum) and
    hashes no free set.  Sums start from ``unit``, the labels' zero (0 or
    ()); on tiling masks ``+`` is ``|``.  With ``unit`` None the number of
    perfect matchings is yielded once, at the end: an entry is then the
    tuple of its children, a leaf is 1 and a last branch, whose children
    are all leaves, is its leaf count.  No count or sum over a deeper
    subtree is stored, so every perfect matching is still reached once, in
    the same order, and the search does not become a second DP.
    """
    fold = unit is not None
    if len(adj) % 2:
        if not fold:
            yield 0
        return
    nbr = [sum(1 << j for j, _ in row) for row in adj]
    label = [{1 << j: lab for j, lab in row} for row in adj] if fold else None
    full = (1 << len(adj)) - 1
    runs = {}
    todo = [full]
    while todo:
        start = todo.pop()
        if start.__class__ is tuple:  # a branch whose partners' runs are all filled
            start, free, opts, i, total = start
            links = []
            while opts:
                b = opts & -opts
                opts ^= b
                if (child := runs[free ^ b]) is not None:
                    links += (child, label[i][b]) if fold else (child,)
            if not links:
                runs[start] = None
            elif not fold:  # a lone child is spliced in, and a last branch is its leaf count
                runs[start] = len(links) if links.count(1) == len(links) else tuple(links) if links[1:] else links[0]
            elif len(links) == 2:  # one live partner: splice its run into this one
                runs[start] = (total + links[1] + links[0][0], *links[0][1:])
            else:
                runs[start] = (total, *links)
        elif start not in runs:
            free, total = start, unit
            while free:
                low = free & -free
                free ^= low
                i = low.bit_length() - 1
                opts = nbr[i] & free
                if opts & (opts - 1) or not opts:  # a branch or a dead end ends the run
                    break
                free ^= opts
                if fold:
                    total += label[i][opts]
            if free and opts:  # a branch, resolved once its partners' runs are filled
                todo.append((start, free, opts, i, total))
                while opts:
                    b = opts & -opts
                    opts ^= b
                    if free ^ b not in runs:
                        todo.append(free ^ b)
            else:
                runs[start] = None if free else (total,) if fold else 1
    root = runs[full]
    if not fold:
        leaves, stack = 0, [root] if root else []
        while stack:  # in any order: a count only adds
            entry = stack.pop()
            if entry.__class__ is int:
                leaves += entry
            else:
                stack += entry
        yield leaves
        return
    stack = [(root, 1, root[0])] if root else []
    while stack:
        links, k, acc = stack.pop()
        while k < len(links):  # take the lowest partner, stack the others
            if k + 2 < len(links):
                stack.append((links, k + 2, acc))
            child = links[k]
            acc += links[k + 1] + child[0]
            links, k = child, 1
        yield acc


def enumerate_tilings(region: Region):
    """Yield every tiling exactly once, in deterministic order.

    The image of :func:`enumerate_matchings` on the dual graph under the
    tiles-to-edges bijection, which the tests check; the first tiling waits
    for the search's outcome table over every free set (:func:`_matchings`).
    """
    for mask in _matchings(region.adjacency, 0):
        yield Tiling(region, mask)


def count_tilings(region: Region) -> int:
    """Exact tiling count by exhaustive search (no closed forms, no DP)."""
    return next(_matchings(region.adjacency, None))


def enumerate_matchings(graph: WeightedGraph):
    """Yield each perfect matching of ``graph`` exactly once.

    A matching is a frozenset of vertex-label pairs, each pair ordered by
    vertex index.  The search is the one :func:`enumerate_tilings` runs, so
    the stream is deterministic.
    """
    verts = graph.vertices
    adj = [[(j, ((verts[i], verts[j]),)) for j, _ in row]
           for i, row in enumerate(graph.adjacency_indexed())]
    for pairs in _matchings(adj, ()):
        yield frozenset(pairs)


def matching_genfun(graph: WeightedGraph):
    """Sum over perfect matchings of the product of edge weights, exact.

    The graph's weights arrive canonical, as ``LaurentPoly2``s or true
    :class:`~aztecgf.poly.FracWeight` quotients, with negative coefficients
    and exponents.  A polynomial weight is keyed by itself and a quotient by
    its (numerator, denominator) pair, so two equal quotients over different
    denominators only give two contents.  Every weight is written over one
    common denominator L * D, where L is the lcm of the coefficient
    denominators and D the product of the distinct ``FracWeight``
    denominators.  Each distinct integer numerator splits into a shift
    q^a t^b, its least exponents, and a content of ``(e_q, e_t, int)`` terms
    whose least exponents are 0.  An edge's label is one int with three
    kinds of bit field: its q and t shifts above the least ones, and a 1 in
    the count field of its content.  A perfect matching has n / 2 edges, and
    the fields are sized from n / 2 so that no sum carries into the next
    field.  :func:`_matchings` sums the labels, so it still visits every
    perfect matching, and the leaves are counted per key.  Each distinct key
    adds its count times the product of its contents' powers, each power
    built once per call, shifted by its summed shifts, and the total is
    divided by (L * D)^(n / 2) once at the end; the result is a
    ``LaurentPoly2`` unless it is a true quotient.  Values are never packed:
    this oracle shares no arithmetic with the DP it checks.
    """
    rows = [[(j, (w.num, w.den) if isinstance(w, FracWeight) else w) for j, w in row]
            for row in graph.adjacency_indexed()]
    parts = {w: w if isinstance(w, tuple) else (w, _ONE) for row in rows for _, w in row}
    common = prod(dict.fromkeys(den for _, den in parts.values() if den != _ONE), start=_ONE)
    numerators = {w: num if den == common else num * common.exact_div(den) for w, (num, den) in parts.items()}
    scale = lcm(*(c.denominator for num in numerators.values() for _, c in num.sorted_terms()))
    contents, shifts = {}, {}
    for w, num in numerators.items():
        terms = [(eq, et, c.numerator * (scale // c.denominator)) for (eq, et), c in num.sorted_terms()]
        a, b = min(eq for eq, _, _ in terms), min(et for _, et, _ in terms)
        content = tuple((eq - a, et - b, c) for eq, et, c in terms)
        shifts[w] = a, b, contents.setdefault(content, len(contents))
    half = len(rows) // 2
    qs, ts, _ = zip(*shifts.values()) if shifts else ((0,), (0,), ())
    q0, t0 = min(qs), min(ts)
    qbits = (half * (max(qs) - q0)).bit_length()
    tbits = (half * (max(ts) - t0)).bit_length()
    cbits = half.bit_length()
    labels = {w: (a - q0) | (b - t0) << qbits | 1 << (qbits + tbits + i * cbits)
              for w, (a, b, i) in shifts.items()}
    adj = [[(j, labels[w]) for j, w in row] for row in rows]
    powers = [[{(0, 0): 1}, {(eq, et): c for eq, et, c in content}] for content in contents]
    total, base = {}, scale ** half
    for key, count in Counter(_matchings(adj, 0)).items():
        acc = {(half * q0 + (key & (1 << qbits) - 1), half * t0 + (key >> qbits & (1 << tbits) - 1)): count}
        key >>= qbits + tbits
        for power in powers:  # power[k] is its content to the k-th, built once from the (k - 1)-th
            while len(power) <= (k := key & (1 << cbits) - 1):
                power.append(_times(power[-1], power[1]))
            acc = _times(acc, power[k]) if k else acc
            key >>= cbits
        for e, c in acc.items():
            total[e] = total.get(e, 0) + c
    result = LaurentPoly2({e: Fraction(c, base) for e, c in total.items()})
    return result if common == _ONE else FracWeight(result, common ** half)


def _times(acc, other):
    """The product of two term dicts, (e_q, e_t) -> int, as a new dict."""
    out = {}
    for (aq, at), ac in acc.items():
        for (bq, bt), bc in other.items():
            e = (aq + bq, at + bt)
            if e in out:
                out[e] += ac * bc
            else:
                out[e] = ac * bc
    return out


def count_matchings(graph: WeightedGraph) -> int:
    return next(_matchings(graph.adjacency_indexed(), None))


# ---------------------------------------------------------------------------
# frontier-profile dynamic programming


def tiling_genfun_dp(region: Region, weight=None):
    """Generating function of all tilings with per-tile weights, by DP.

    ``weight`` maps a tile (an ordered cell pair from the region's pool) to
    an int, a ``Fraction`` or a ``LaurentPoly2`` with non-negative
    coefficients; ``None`` counts tilings with integer arithmetic.  Cells are
    swept in :func:`~aztecgf.regions.sweep_key` order on either lattice;
    cells outside the region never enter the sweep, which is how ragged
    boundaries are handled.  Errors are those of :func:`_genfun_dp`.  The
    result is exactly ``matching_genfun(dual_graph(region, weight))``.
    """
    return _genfun_dp(sorted(region.cells, key=sweep_key), region.all_dominoes, weight)


def graph_genfun_dp(graph: WeightedGraph):
    """:func:`matching_genfun` by the frontier DP, far past the backtracker's
    reach.  Vertices are swept in the graph's order, which also fixes the
    backtracker's stream.  Errors are those of :func:`_genfun_dp`."""
    return _genfun_dp(graph.vertices, tuple(graph.edge_dict()), lambda e: graph.weight(*e))


def _genfun_dp(vertices, edges, weight):
    """The frontier DP over ``vertices`` in the order given.

    ``edges`` lists vertex pairs and ``weight(edge)`` their weights; ``None``
    counts perfect matchings in integers.  Raises :class:`RegionTooWide`
    before sweeping when the profile could exceed ``MAX_FRONTIER`` bits, and
    :class:`InvalidWeight` naming the first edge with a negative coefficient.

    Each distinct weight is checked, scaled by the common denominator L,
    valued at q = t = 1 and packed once.  A first, integer sweep at q = t = 1
    bounds every coefficient of the result and so picks the slot width, or is
    the result when every weight is a constant; the second sweeps
    :class:`~aztecgf.poly.PackedPoly` values.  Every perfect matching has
    len(vertices) / 2 edges, so either total is divided by L^(len(vertices) / 2).
    """
    n = len(vertices)
    if n % 2:
        return 0 if weight is None else LaurentPoly2.zero()
    pos = {v: k for k, v in enumerate(vertices)}

    nbr_earlier = [[] for _ in range(n)]  # (earlier position, edge index)
    max_nbr = [-1] * n
    for i, (u, v) in enumerate(edges):
        p, k = pos[u], pos[v]
        if p > k:
            p, k = k, p
        if k > max_nbr[p]:
            max_nbr[p] = k
        nbr_earlier[k].append((p, i))

    bit, last_mask, width = _frontier_slots(max_nbr)
    if width > MAX_FRONTIER:
        raise RegionTooWide(f"DP frontier would be {width} bits wide, over {MAX_FRONTIER}")
    nbr_earlier = [[(bit[p], i) for p, i in sorted(row)] for row in nbr_earlier]

    def sweep(weights, one):
        return _sweep(nbr_earlier, last_mask, bit, weights, one)

    if weight is None:
        return sweep([1] * len(edges), 1) or 0

    distinct, index = {}, []  # weight -> its place among the distinct ones; each edge's place
    for edge in edges:
        w = edge_weight(edge, weight(edge))
        if (k := distinct.get(w)) is None:
            if any(c.numerator < 0 for _, c in w.sorted_terms()):
                raise InvalidWeight(f"weight of {edge} has a negative coefficient")
            k = distinct[w] = len(distinct)
        index.append(k)
    den = lcm(*(c.denominator for w in distinct for _, c in w.sorted_terms()))
    ones = [sum(c.numerator * den // c.denominator for _, c in w.sorted_terms()) for w in distinct]
    if not (total := sweep([ones[k] for k in index], 1)):
        return LaurentPoly2.zero()
    if all(w == LaurentPoly2.const(w.coefficient()) for w in distinct):  # constants: the integer sweep is the answer
        return LaurentPoly2.const(Fraction(total, den ** (n // 2)))
    bits = slot_bits(total)
    packed = [packed_weight(w, bits, den) for w in distinct]
    return sweep([packed[k] for k in index], PackedPoly.one()).decode(bits, den ** (n // 2))


def _frontier_slots(max_nbr):
    """Give every vertex that can defer a frontier slot: (bit, last_mask, width).

    Vertex p may wait for a partner over [p, max_nbr[p]).  In sweep order it
    takes the lowest free slot, ``bit[p]`` (0 if it never defers), and frees
    it at ``max_nbr[p]``: ``last_mask[k]`` holds the slots freed at k, whose
    vertices must match vertex k.  This greedy colouring of intervals uses
    as many slots as the most intervals that overlap, so ``width`` is the
    frontier width in bits.
    """
    bit, last_mask = [0] * len(max_nbr), [0] * len(max_nbr)
    busy = 0
    for p, last in enumerate(max_nbr):
        busy &= ~last_mask[p]
        if last > p:
            bit[p] = b = (busy + 1) & ~busy  # lowest free slot
            busy |= b
            last_mask[last] |= b
    return bit, last_mask, max(bit, default=0).bit_length()


def _sweep(nbr_earlier, last_mask, bit, weights, one):
    """The frontier sweep itself; ``weights[i]`` multiplies edge ``i``.

    A state is a mask of frontier slots (:func:`_frontier_slots`), so every
    key is under ``MAX_FRONTIER`` bits.  ``nbr_earlier[k]`` lists (slot bit,
    edge index) for vertex k's earlier neighbours.  Returns the value of the
    empty final profile, or None when no matching reaches it.

    Each state is stored at its mask XOR ``flip``.  Vertex k takes slot r =
    ``bit[k]`` and frees ``last_mask[k]``, whose vertices must meet it.  Where
    r is set, k frees at most one slot o besides r, and each freed slot's edge
    weighs the unit (the int 1, or ``((0, 1, 0),)`` packed), k updates the
    layer in place.  Toggling r in ``flip`` moves each state without r to its
    mask with r, k's wait at weight 1, and each state with r (a freed r) to its
    mask without r, k's match with r's vertex at the unit; no state holds a
    fresh r.  The states with o are then popped: one without r moves on to its
    mask without o, one with r is dead.  A state with neither that holds the
    slot p of another neighbour also meets p's vertex: its value times that
    edge's weight is added in place at its mask without p.  No target of a
    move is the source of another, so each list of sources is taken once.
    Every other vertex first stores each state at its mask (``flip`` = 0) and
    rebuilds the dict.  So the keys of a layer taken mid-sweep are relative to
    ``flip``: a generator of layers must XOR them with ``flip`` first.
    """
    unit = 1 if type(one) is int else ((0, 1, 0),)
    states, flip = {0: one}, 0
    for k, nbrs in enumerate(nbr_earlier):
        if not states:
            break
        nbrs = [(pb, weights[i]) for pb, i in nbrs]
        r, lm = bit[k], last_mask[k]
        if r and not (o := lm & ~r) & (o - 1) and (r & ~lm or (r, unit) in nbrs) and (not o or (o, unit) in nbrs):
            get = states.get
            for pb, w in nbrs:
                if not pb & lm:  # a mask with pb and without r or o, stored at u, moves to u ^ pb ^ r
                    need, move = lm | r | pb, r | pb
                    want = (flip & need) ^ pb
                    sources = [u for u in states if u & need == want]  # no target lacks r, so none is a source
                    if w == 1:  # one loop multiplying by w made an order-16 count 12-21% slower
                        for u in sources:
                            t = u ^ move
                            states[t] = get(t, 0) + states[u]
                    else:
                        for u in sources:
                            cur, val = get(t := u ^ move), states[u] * w
                            states[t] = val if cur is None else cur + val
            for u in [u for u in states if u & o != flip & o] if o else ():  # o's vertex must meet k
                val = states.pop(u)
                if u & r == flip & r:  # without r it moves to u ^ o ^ r; with r it is dead
                    cur = get(t := u ^ o ^ r)
                    states[t] = val if cur is None else cur + val
            flip ^= r
            continue
        if flip:
            states, flip = {u ^ flip: val for u, val in states.items()}, 0
        nxt = {}
        get = nxt.get
        for s, val in states.items():
            req = s & lm
            if req:
                if req & (req - 1):
                    continue  # two pending vertices both need k: dead branch
                for pb, w in nbrs:
                    if pb == req:
                        cur = get(key := s ^ req)
                        nxt[key] = val * w if cur is None else cur + val * w
                        break
            else:
                for pb, w in nbrs:
                    if s & pb:
                        cur = get(key := s ^ pb)
                        nxt[key] = val * w if cur is None else cur + val * w
                if r:
                    cur = get(key := s | r)
                    nxt[key] = val if cur is None else cur + val
        states = nxt
    return states.get(0)  # the last vertex takes no slot, so it stored every state at its mask
