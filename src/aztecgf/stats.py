"""Tiling statistics: minimal tiling, flips, rank, and Schröder paths.

Conventions (all pinned by the acceptance suite, none adjustable):

* Regions are Aztec rectangles (diamonds included) in the block coordinates of
  :mod:`aztecgf.regions`; the bottom cell row of the region is y = 0.

* Every tiling corresponds to a family of m non-intersecting partial
  Schröder paths.  Path i enters through the midpoint of the left edge of
  southwest-side cell (1-i, i-1) and leaves through the right edge of
  southeast-side cell (s_i, s_i - 1).  A path crosses one domino per step
  (``STEPS``, a plain dict, gives each kind's mate offset and move; it is one
  of three step tables, with the two of :mod:`aztecgf.lozenge`, that the one
  walker ``Tiling.walk`` reads and the one replayer ``Tiling.from_paths`` replays):

  - a horizontal domino whose left cell is black: level step (2, 0);
  - a vertical domino entered at its bottom cell: up step (1, 1);
  - a vertical domino entered at its top cell: down step (1, -1);
  - horizontal dominoes with white left cells are never entered.

  A path is a tuple of ``STEPS`` kinds; no height is stored.  Heights are
  measured by the cell row y of the edge being crossed, so the baseline
  (height 0) is the row of path 1's endpoints: path i starts at height i - 1,
  and each step adds the y of its move.  Black is the even x+y parity class
  (the northwest side is white).  The path-flow parity argument forces
  up-crossed verticals to have black bottom cells and down-crossed ones white
  bottom cells, and the suite asserts it.  A ``SchroderPathFamily`` checks its
  positions and these rules when it is built (else BijectionViolation).

* Domino weights (local, used by the DP), by
  :func:`~aztecgf.regions.domino_class`: a ``"level"`` domino in row y
  weighs t*q^(2y); a ``"down"`` one with bottom row y weighs q^(2y+1);
  everything else weighs 1.  Equivalently, on paths: a level step at height
  h contributes t*q^(2h), a down step ending at height h contributes
  q^(2h+1), up steps contribute nothing.  :func:`vstat` and
  :func:`tiling_to_paths` test colours on their own, so the brute-force and
  path-rank oracles share no code with the weights.

* The vertical statistic of a tiling is its number of down steps, i.e. the
  number of white-bottomed vertical dominoes.  For an Aztec diamond this is
  half the number of vertical dominoes; for a rectangle with holes the
  minimal tiling already carries sum(s_i - i) forced up-type verticals, so
  the count is (verticals - sum(s_i - i)) / 2.  Both computations are done
  and compared; disagreement (or a non-integer) raises OddVerticalCount.

* The minimal tiling is the tiling of the one path family with no down
  steps.  The rank of a tiling is its flip distance from it, where a
  flip rotates a 2x2 block of two parallel dominoes.  It is computed twice:
  by breadth-first search over the flip graph, and as beta(paths(T)) -
  beta(paths(minimal)); the two must agree everywhere.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from math import comb

from .engine import MAX_FRONTIER, Tiling, _matchings, tiling_genfun_dp
from .engine import enumerate_tilings  # perfbench's self-test looks it up here
from .errors import (BijectionViolation, InvalidHoles, NegativeRank, OddVerticalCount, RegionTooWide, TooManyTilings,
                     Unreachable)
from .formulas import displacement, shifted_content_exponent
from .poly import LaurentPoly2, falling_ratio
from .regions import (MAX_CELLS, Record, Region, aztec_rectangle_with_holes, check_positions, check_rows,
                      domino_class, is_white, region_size, sq)


# kind -> (offset of the entry cell sq(x, y)'s mate, move from (x, y))
STEPS = {
    "level": ((1, 0), (2, 0)),
    "up": ((0, 1), (1, 1)),
    "down": ((0, -1), (1, -1)),
}


class SchroderPathFamily(Record):
    """m non-intersecting partial Schröder paths, innermost first, checked when built.

    Path i runs from height i-1 to height s_i - 1 and satisfies
    up - down = s_i - i and down + level = i.
    """

    FIELDS = ("m", "n", "s", "paths")  # paths: a tuple of tuples of STEPS kinds

    def _checked(self, m: int, n: int, s: tuple, paths: tuple) -> tuple:
        s = check_positions(m, n, s, BijectionViolation)
        paths = check_rows("paths", paths, BijectionViolation)
        if len(paths) != len(s):
            raise BijectionViolation(f"number of paths {len(paths)} != len(s) = {len(s)}")
        for i, path in enumerate(paths, start=1):
            h = i - 1
            for kind in path:
                if type(kind) is not str or kind not in STEPS:
                    raise BijectionViolation(f"path {i} has the unknown step {kind!r}")
                h += STEPS[kind][1][1]
                if h < 0:
                    raise BijectionViolation(f"path {i} went below the baseline")
            if h != s[i - 1] - 1:  # it started at i - 1
                raise BijectionViolation(f"path {i}: up - down != s_i - i")
            if len(path) - path.count("up") != i:
                raise BijectionViolation(f"path {i}: down + level != i")
        return m, n, s, paths


class PathStats(Record):
    FIELDS = ("up", "down", "level", "area", "beta")  # see path_stats

    @property
    def level_total(self) -> int:
        return sum(self.level)


def path_stats(family: SchroderPathFamily) -> PathStats:
    """Per-path step counts plus the area and q-exponent statistics.

    beta adds 2h for every level step at height h and 2h+1 for every down
    step ending at height h (up steps are free); it equals the q-exponent of
    the product of the local domino weights.  The area under a path is exact
    and may be a half-integer for shifted partial paths.
    """
    beta = area2 = 0  # area2: twice the area
    for i, path in enumerate(family.paths, start=1):
        h = i - 1
        for kind in path:
            dx, dy = STEPS[kind][1]
            area2 += dx * (2 * h + dy)  # the trapezoid under the step
            if kind != "up":
                beta += 2 * h + dy
            h += dy
    counts = [tuple(path.count(kind) for path in family.paths) for kind in ("up", "down", "level")]
    return PathStats(*counts, Fraction(area2, 2), beta)


# ---------------------------------------------------------------------------
# vertical statistic and flips


def vstat(tiling: Tiling) -> int:
    """Number of down-type (white-bottomed) vertical dominoes; BijectionViolation if the mask is no tiling.

    Cross-checked against (verticals - sum(s_i - i)) / 2 by :func:`_downs`; on
    Aztec diamonds it is exactly half the vertical dominoes.
    """
    tiling.require_valid()
    vertical, down, offset = _vertical_masks(tiling.region)
    return _downs((tiling.mask & vertical).bit_count(), offset, (tiling.mask & down).bit_count())


def _downs(verticals: int, offset: int, downs: int) -> int:
    """``downs``, once it equals (verticals - offset) / 2; else OddVerticalCount."""
    if verticals - offset != 2 * downs:
        raise OddVerticalCount(f"verticals={verticals}, offset={offset}, down-type={downs}")
    return downs


@lru_cache(maxsize=16)
def _vertical_masks(region: Region):
    """(vertical dominoes, white-bottomed ones) as pool masks, and sum(s_i - i)."""
    verticals = downs = 0
    for i, (c1, c2) in enumerate(region.all_dominoes):
        if c1.x == c2.x:
            verticals |= 1 << i
            if is_white(c1 if c1.y < c2.y else c2):
                downs |= 1 << i
    return verticals, downs, displacement(region.rect_params[2])


@lru_cache(maxsize=16)
def _flip_blocks(region: Region):
    """Each 2x2 block as (bit, rising pair, falling pair), and by bit its flip: (both pairs, the bits outside its
    near blocks, its near blocks), those that share a domino with it, itself included.  Flipping the rising pair
    raises the rank by 1, the falling pair lowers it (Thurston's height moves by 4 at the block's centre), and
    the horizontal pair rises where the block's south-west cell is black, the vertical pair where it is white."""
    right, up = {}, {}  # by (x, y): the bit of the domino to the right of that cell, and of the one above it
    for i, (c1, c2) in enumerate(region.all_dominoes if region.lattice == "square" else ()):  # lozenges: none
        (right if c1.y == c2.y else up)[c1.x, c1.y] = 1 << i
    at = {}  # each block by its south-west (x, y), in cell order
    for (x, y), bottom in right.items():
        if (x, y) in up and (x + 1, y) in up:
            h, v = bottom | right[x, y + 1], up[x, y] | up[x + 1, y]
            at[x, y] = (1 << len(at), v, h) if is_white(sq(x, y)) else (1 << len(at), h, v)
    near = {(x, y): tuple(at[c] for c in ((x, y), (x - 1, y), (x + 1, y), (x, y - 1), (x, y + 1)) if c in at)
            for x, y in at}
    return tuple(at.values()), {bit: (rise | fall, ~sum(b for b, _, _ in near[c]), near[c])
                                for c, (bit, rise, fall) in at.items()}


def elementary_moves(tiling: Tiling):
    """All tilings one flip away (rotating a 2x2 block of parallel dominoes), rising and falling, sorted by mask;
    raises BijectionViolation if the mask is no tiling."""
    tiling.require_valid()
    mask, blocks = tiling.mask, _flip_blocks(tiling.region)[0]
    moves = sorted(mask ^ rise ^ fall for _, rise, fall in blocks if mask & rise == rise or mask & fall == fall)
    return [Tiling(tiling.region, m) for m in moves]


@lru_cache(maxsize=4)  # each holds every tiling mask of its region
def rank_distances(region: Region) -> dict:
    """BFS distances in the flip graph from the minimal tiling, by mask.

    A layer at a time, each state carrying as bits its blocks that can rise: a flip of block k re-tests only
    k's near blocks.  A falling flip leads back a layer (``_flip_blocks``), to a tiling already in ``dist``, so
    only rising flips are tested.  Raises TooManyTilings, before searching, past brute force's limits.
    """
    if reason := _refusal("brute force", region.key):
        raise TooManyTilings(reason)
    root = minimal_tiling(region).mask
    blocks, flips = _flip_blocks(region)
    dist, d, states, lives, nears = {root: 0}, 0, [root], [0], [blocks]  # lives: bits known to rise, nears: to re-test
    while states:
        d, last = d + 1, zip(states, lives, nears)
        states, lives, nears = [], [], []  # three lists: a tuple per state held more memory
        for cur, live, near in last:
            for b, rise, _ in near:  # inline: a call per state ran 15-25% slower
                if cur & rise == rise:
                    live |= b
            rest = live
            while rest:
                rest ^= (bit := rest & -rest)  # the lowest first, so the flips come in block order
                pair, keep, near = flips[bit]
                if (nxt := cur ^ pair) not in dist:
                    dist[nxt] = d
                    states.append(nxt)
                    lives.append(live & keep)
                    nears.append(near)
    return dist


def rank_bfs(tiling: Tiling) -> int:
    """Flip distance from the minimal tiling of the tiling's own region;
    Unreachable if disconnected."""
    region = tiling.region
    try:
        return rank_distances(region)[tiling.mask]
    except KeyError:
        raise Unreachable(f"tiling not connected to the minimal tiling in {region.key}") from None


# ---------------------------------------------------------------------------
# the domino <-> Schröder path bijection


def tiling_to_paths(tiling: Tiling) -> SchroderPathFamily:
    """Extract the path family of a tiling with :meth:`Tiling.walk`.

    Raises BijectionViolation if the mask is no tiling, a walk meets a tile
    no step crosses, a vertical is left uncrossed, a horizontal's crossing
    disagrees with its colour, or the family refuses the paths; its rules fix
    each exit, and every entry cell has even x + y, so nothing else can break.
    """
    tiling.require_valid()
    m, n, s = tiling.region.rect_params
    crossed = set()  # the entry cells of crossed dominoes
    paths = []
    for i in range(1, m + 1):
        steps, _ = tiling.walk(1 - i, i - 1, sq, STEPS)
        crossed.update(sq(x, y) for _, x, y in steps)
        paths.append(tuple(kind for kind, _, _ in steps))

    for c1, c2 in tiling.dominoes:
        hit = c1 in crossed or c2 in crossed
        if c1.x == c2.x and not hit:
            raise BijectionViolation(f"vertical domino {(c1, c2)} never crossed")
        if c1.y == c2.y and is_white(c1) == hit:
            raise BijectionViolation(f"horizontal {(c1, c2)} crossing disagrees with its color")

    return SchroderPathFamily(m, n, s, tuple(paths))


def paths_to_tiling(family: SchroderPathFamily, region: Region) -> Tiling:
    """Inverse of :func:`tiling_to_paths`: :meth:`Tiling.from_paths` replays
    the walks, then pairs every cell off them with the cell to its right."""
    m, n, s = region.rect_params
    if (m, n, tuple(s)) != (family.m, family.n, tuple(family.s)):
        raise BijectionViolation("path family does not belong to this region")
    walks = [(1 - i, i - 1, path) for i, path in enumerate(family.paths, start=1)]
    # no exit check: a built family has up - down = s_i - i, down + level = i, so path i ends at (s_i + 1, s_i - 1)
    return Tiling.from_paths(region, walks, sq, sq, STEPS)


def minimal_path_family(m: int, n: int, s) -> SchroderPathFamily:
    """The family of the minimal tiling: path j places its i-th level step at
    height s_i + j - i - 1 and climbs between them; no down steps at all.
    Each path climbs s_i - s_(i-1) - 1 steps (s_0 = 0) to its i-th level step
    whatever its start, so path j is the first j blocks of one sequence."""
    s = check_positions(m, n, s, InvalidHoles)
    steps, paths = [], []
    for prev, cur in zip((0,) + s, s):
        steps += ["up"] * (cur - prev - 1) + ["level"]
        paths.append(tuple(steps))
    return SchroderPathFamily(m, n, s, tuple(paths))


def minimal_tiling(region: Region) -> Tiling:
    """The rank-0 tiling of an Aztec rectangle or diamond, from
    :func:`minimal_path_family`: a strip of m - (h_i - i) up-type verticals
    beside the i-th hole h_i, horizontals elsewhere."""
    return paths_to_tiling(minimal_path_family(*region.rect_params), region)


def rank_via_paths(tiling: Tiling) -> int:
    """beta(paths(T)) - beta(paths(minimal)); must equal the BFS rank."""
    m, n, s = tiling.region.rect_params
    beta = path_stats(tiling_to_paths(tiling)).beta
    base = shifted_content_exponent(m, s)
    if beta < base:
        raise NegativeRank(f"beta={beta} below minimal beta={base}")
    return beta - base


# ---------------------------------------------------------------------------
# generating functions


MAX_BRUTE_TILINGS = 2**18  # brute F(q, t) at the limit, AR(4, 15; 7, 11, 13, 15): 1.1 s, Xeon, Python 3.11
MAX_BRUTE_CELLS = 4096  # each search step costs time linear in the cell count
# route -> the most its predicted cost (see _refusal) may be: each lies above the largest size timed under a minute
# and below the next size timed, on a 2-core x86_64 with Python 3.11.7 (README has the table)
CAPS = {"count DP": 750_000_000_000, "weighted DP": 1 << 45, "closed product": 2_150_000_000}
# command -> method -> the route it runs (render --tiling INDEX walks the enumeration)
ROUTES = {"count": {"enumerate": "brute force", "dp": "count DP"}, "render": {"enumerate": "brute force"},
          "genfun": {"brute": "brute force", "dp": "weighted DP", "closed": "closed product"}}


def admit(command: str, method: str, key: tuple) -> None:
    """Refuse ``command --method method`` on the region ``key`` (a :attr:`Region.key`) when it is predicted, from
    the parameters alone, to run past a minute, naming another method that admits the input, or saying none does."""
    routes = ROUTES[command]
    if reason := _refusal(routes[method], key):
        other = next((m for m, route in routes.items() if m != method and not _refusal(route, key)), None)
        remedy = f"the {other} method has no such limit" if other else "no other method admits it"
        raise (TooManyTilings if routes[method] == "brute force" else RegionTooWide)(f"{reason}; {remedy}")


def tiling_count(key: tuple) -> int:
    """The tiling count of the region ``key``: falling_ratio(s), times 2^(m(m+1)/2) on AR(m, n; s)."""
    _, s = region_size(key)
    m = key[1]
    ratio = 1 if s is None or s == tuple(range(1, m + 1)) else int(falling_ratio(s))  # 1 on a diamond's s
    return ratio if key[0] == "semihexagon" else ratio << m * (m + 1) // 2


def _refusal(route: str, key: tuple) -> str:
    """Why ``route`` is predicted to run past a minute on the region ``key``; false if it is not."""
    cells, s = region_size(key)
    m, brute, builds = key[1], route == "brute force", route != "closed product"
    if builds and cells > MAX_CELLS:  # first: the count of a region too big to build is never taken
        return f"a region of {cells} cells, over the region size limit of {MAX_CELLS} cells"
    width = m - 1 if key[0] == "semihexagon" else m + 1  # SH(a, b; s): a - 1 or a
    if brute and cells > MAX_BRUTE_CELLS:  # before the count: with many rows, falling_ratio takes seconds
        return f"a region of {cells} cells, over the brute-force limit of {MAX_BRUTE_CELLS} cells"
    if brute:
        return (tilings := tiling_count(key)) > MAX_BRUTE_TILINGS and (
            f"a {tilings.bit_length()}-bit tiling count, over the brute-force limit of {MAX_BRUTE_TILINGS} tilings")
    if builds and width > MAX_FRONTIER:  # _genfun_dp holds SH(a, b; s) to its exact width once it is built
        return f"DP frontier would be at least {width} bits wide, over {MAX_FRONTIER}"
    # a DP: cells x largest layer C(w, w // 2) x value bits (the count's, or packed F's: t-rows x q-slots x slot bits).
    # The closed product pays packed F with the q-ratio product's slots four times: it multiplies every row by them.
    diamond, qratio = m * (m + 1) * (2 * m + 1) // 6 + 1, 2 * sum(
        (x - i) * (2 * i - m - 1) for i, x in enumerate(s or (), 1))
    layer = cells * comb(width, width // 2)

    def over(bits):  # the cost at a count of ``bits`` bits, if it is over the cap; it grows with ``bits``
        per_q = (m * (m + 1) // 2 + 1) * -(-bits // 8) * 8
        cost = {"count DP": layer * bits, "weighted DP": layer * per_q * (diamond + qratio),
                "closed product": per_q * (diamond + 4 * qratio)}[route]
        return cost > CAPS[route] and f"a predicted {route} cost of {cost}, over its limit of {CAPS[route]}"
    # a count on AR(m, n; s) has at least the diamond's m(m + 1)/2 + 1 bits (its ratio is >= 1), so a cost refused
    # at that many is refused before the count is taken: with many holes, falling_ratio takes seconds
    return over(1 if key[0] == "semihexagon" else m * (m + 1) // 2 + 1) or over(tiling_count(key).bit_length())


def genfun_bruteforce(m: int, n: int, s) -> LaurentPoly2:
    """F(q, t) by full enumeration, BFS rank, and the vertical statistic: the search's tiling
    masks are counted by (rank, verticals, downs), and :func:`vstat`'s cross-check runs once a key.

    Raises what :func:`rank_distances` raises, before enumerating, and Unreachable,
    after counting, unless the flip BFS reached exactly the enumerated tilings.
    """
    region = aztec_rectangle_with_holes(m, n, s)
    dist = rank_distances(region)
    vertical, down, offset = _vertical_masks(region)
    counts = Counter((dist.get(mask), (mask & vertical).bit_count(), (mask & down).bit_count())
                     for mask in _matchings(region.adjacency, 0))
    terms = {(rank, _downs(v, offset, d)): c for (rank, v, d), c in counts.items()}
    if (tilings := sum(terms.values())) != len(dist) or any(rank is None for rank, _ in terms):
        raise Unreachable(f"flip BFS of {region.key} reached {len(dist)} masks, not exactly its {tilings} tilings")
    return LaurentPoly2(terms)


_DOMINO_WEIGHTS = {}  # (kind, row) -> one shared weight, which the DP's weight table finds by identity


def domino_weight(dom) -> LaurentPoly2:
    """Local weight of one domino under the path-step weighting; the first 4,096 classes share theirs."""
    if (w := _DOMINO_WEIGHTS.get(key := domino_class(dom))) is None:
        kind, row = key
        w = (LaurentPoly2.term(1, q=2 * row, t=1) if kind == "level" else
             LaurentPoly2.term(1, q=2 * row + 1) if kind == "down" else LaurentPoly2.one())
        if len(_DOMINO_WEIGHTS) < 4096:
            _DOMINO_WEIGHTS[key] = w
    return w


def genfun_via_weights(m: int, n: int, s) -> LaurentPoly2:
    """F(q, t) through the weighted DP route.

    Computes the weighted tiling sum M(t, q) with the local domino weights,
    substitutes t -> 1/t, and multiplies by q^(-beta_minimal) * t^(m(m+1)/2);
    the result must be a polynomial.
    """
    region = aztec_rectangle_with_holes(m, n, s)
    weighted = tiling_genfun_dp(region, domino_weight)
    beta_minimal = shifted_content_exponent(m, region.rect_params[2])
    return weighted.invert_t().shift(dq=-beta_minimal, dt=m * (m + 1) // 2).require_polynomial()


def _ensure_calibrated():
    """A no-op that ``perfbench/worker.py`` still calls; ``verify``'s main
    suite pins the colour convention by comparing this route with brute force."""
