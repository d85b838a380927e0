"""Regions (Aztec diamonds, Aztec rectangles with holes, dented semihexagons)
and their dual graphs.

Coordinate conventions
----------------------

Square lattice: the cell ``(x, y)`` is the unit square [x, x+1] x [y, y+1].

An Aztec rectangle with m squares on the southwest side and n on the
northwest side is built from m*n overlapping 2x2 blocks: block (i, j), with
i = 1..m counted bottom-up and j = 1..n left-right, has its lower-left cell
at ``(j - i, i + j - 2)``.  This pins the otherwise-drawing-dependent region
to explicit integers; every boundary identification below is derived from it:

* southeast side: position h holds cell ``(h, h-1)`` for h = 1..n (the
  bottom row of the dual graph once the picture is rotated 45 degrees
  clockwise, which the row reduction glues its gadget to);
* southwest side: cell ``(1-i, i-1)`` for i = 1..m;
* northwest side: cell ``(j-m, m+j-1)`` for j = 1..n.

Keeping the squares at southeast positions ``s_1 < ... < s_m`` and removing
the rest ("holes") gives the tileable region with 2mn + m + n - (n - m)
cells.  The Aztec diamond of order n is AR(n, n; 1, ..., n), in these same
coordinates.  Each domino is one side of one block ("face"), named by
:func:`domino_class`; the weighted rectangle graphs are :func:`dual_graph`
with weights read off that side.

Triangular lattice: the cell ``(x, y)`` with kind ``up``/``dw`` is the x-th
up/down-pointing unit triangle of row y (rows counted 1..a top to bottom, so
the base row is y = a).  Row y holds b+y up-triangles and b+y-1
down-triangles, each row shifted half a unit left of the one above.  The
resulting adjacency is::

    up(y, x) ~ dw(y, x)      (shared right edge of the up-triangle)
    up(y, x) ~ dw(y, x-1)    (shared left edge)
    up(y, x) ~ dw(y+1, x)    (shared bottom edge)

A dented semihexagon removes ``a`` up-triangles from the base row at
positions ``s_1 < ... < s_a``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from itertools import chain

from .errors import (InvalidDents, InvalidGraph, InvalidHoles, InvalidOrder,
                     InvalidRegionFile, InvalidWeight, WrongRegionKind)
from .poly import FracWeight, LaurentPoly2, as_poly

SQUARE = "sq"
TRI_UP = "up"
TRI_DOWN = "dw"


Cell = namedtuple("Cell", "x y kind", defaults=(SQUARE,))


def sq(x: int, y: int) -> Cell:
    return Cell(x, y, SQUARE)


def up(x: int, y: int) -> Cell:
    return Cell(x, y, TRI_UP)


def dw(x: int, y: int) -> Cell:
    return Cell(x, y, TRI_DOWN)


class Record:
    """A frozen record, as a frozen dataclass would be, built from one value per
    name in ``FIELDS``: :meth:`_checked`, where a subclass's invariants live, checks
    them and returns them in canonical form to be stored once in ``vars``.  It equals
    a record of its own type with equal fields, hashes and shows them in that order,
    and refuses assignment."""

    FIELDS = ()

    def __init__(self, *values):
        vars(self).update(zip(self.FIELDS, self._checked(*values)))

    def _checked(self, *values) -> tuple:
        if len(values) != len(self.FIELDS):
            raise TypeError(f"{type(self).__name__} takes {len(self.FIELDS)} values, got {len(values)}")
        return values

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.FIELDS)

    def __eq__(self, other):
        return self._values() == other._values() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return f"{type(self).__name__}({', '.join(f'{name}={getattr(self, name)!r}' for name in self.FIELDS)})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a {type(self).__name__} is frozen: cannot assign to or delete {name!r}")

    __delattr__ = __setattr__


class Region(Record):
    """A finite cell set plus the key of its construction.

    ``key`` identifies the construction (used as a cache key and for cheap
    hashing of tilings); each boundary cell follows from the block
    coordinates by a formula (see the module docstring).
    """

    FIELDS = ("lattice", "key", "cells")

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        return isinstance(other, Region) and self.key == other.key

    @cached_property
    def sorted_cells(self) -> tuple:
        return tuple(sorted(self.cells))

    # -- accessors for Aztec-rectangle metadata ---------------------------

    @property
    def rect_params(self):
        """(m, n, s) of an Aztec rectangle with holes; (n, n, (1, ..., n)) of a diamond."""
        if self.key[0] == "aztec_rectangle":
            return self.key[1], self.key[2], self.key[3]
        if self.key[0] == "aztec_diamond":
            n = self.key[1]
            return n, n, tuple(range(1, n + 1))
        raise WrongRegionKind(f"not an Aztec rectangle: {self.key}")

    @property
    def semihex_params(self):
        """(a, b, s) of a dented semihexagon."""
        if self.key[0] != "semihexagon":
            raise WrongRegionKind(f"not a semihexagon: {self.key}")
        return self.key[1], self.key[2], self.key[3]

    @cached_property
    def all_dominoes(self) -> tuple:
        """Every side-adjacent cell pair inside the region, canonically ordered.

        This is the domino pool: a tiling is a subset of it, and the fast
        enumeration kernels address dominoes by their index here.
        """
        cells = self.cells
        out = []
        for c in self.sorted_cells:
            for d in cell_neighbors(c):
                if d in cells and c < d:
                    out.append((c, d))
        return tuple(sorted(out))

    @cached_property
    def domino_index(self) -> dict:
        return {d: i for i, d in enumerate(self.all_dominoes)}

    @cached_property
    def adjacency(self) -> list:
        """For each cell index, the ascending list of (neighbor index, domino
        bit ``1 << domino index``): the dual graph as the oracle searches it."""
        cindex = {c: i for i, c in enumerate(self.sorted_cells)}
        adj = [[] for _ in self.sorted_cells]
        for di, (c1, c2) in enumerate(self.all_dominoes):
            i, j = cindex[c1], cindex[c2]
            adj[i].append((j, 1 << di))
            adj[j].append((i, 1 << di))
        for row in adj:
            row.sort()
        return adj

    def to_json_obj(self) -> dict:
        return {
            "kind": self.key[0],
            "params": [list(p) if isinstance(p, tuple) else p for p in self.key[1:]],
            "lattice": self.lattice,
            "cells": [{"x": c.x, "y": c.y, "cell": c.kind} for c in self.sorted_cells],
        }


def region_from_json(obj) -> Region:
    """Rebuild a region from :meth:`Region.to_json_obj` output (only ``kind``
    and ``params`` are read); a malformed object raises InvalidRegionFile."""
    if not isinstance(obj, dict) or "kind" not in obj or not isinstance(obj.get("params"), list):
        raise InvalidRegionFile("a region file must hold a JSON object with 'kind' and a 'params' list")
    builders = {
        "aztec_diamond": aztec_diamond,
        "aztec_rectangle": aztec_rectangle_with_holes,
        "semihexagon": semihexagon_with_dents,
    }
    kind, params = obj["kind"], [tuple(p) if isinstance(p, list) else p for p in obj["params"]]
    if not isinstance(kind, str) or kind not in builders:
        raise InvalidRegionFile(f"unknown region kind {kind!r}")
    try:
        return builders[kind](*params)
    except TypeError as exc:  # wrong number or type of parameters
        raise InvalidRegionFile(f"bad parameters {obj['params']!r} for region kind {kind!r}: {exc}") from None


def cell_neighbors(c: Cell):
    """All potential side-sharing neighbors of a cell (lattice geometry only)."""
    if c.kind == SQUARE:
        return (sq(c.x - 1, c.y), sq(c.x + 1, c.y), sq(c.x, c.y - 1), sq(c.x, c.y + 1))
    if c.kind == TRI_UP:
        return (dw(c.x - 1, c.y), dw(c.x, c.y), dw(c.x, c.y + 1))
    return (up(c.x, c.y), up(c.x + 1, c.y), up(c.x, c.y - 1))


def sweep_key(c: Cell):
    """Sort key of the frontier DP's sweep: square cells by antidiagonal,
    triangles by slanted column, so each cell's neighbors sort close to it.
    A down-triangle joins the next column, where its last neighbour is."""
    if c.kind == SQUARE:
        return (c.x + c.y, c.y)
    return (c.x - c.y + (c.kind == TRI_DOWN), c.y, c.kind)


NO_BOUND = float("inf")  # check_positions' n for no upper bound, matched by identity: a caller's inf is refused


def check_positions(m: int, n, s, error) -> tuple:
    """``s`` as a tuple, after checking that m, n and each position are ints
    (not bools), 1 <= m <= n and 1 <= s_1 < ... < s_m <= n (``n=NO_BOUND``
    sets no upper bound).  Raises ``error``, an :class:`AztecError` subclass,
    otherwise.
    """
    if type(m) is not int or (type(n) is not int and n is not NO_BOUND):
        raise error(f"sizes must be integers, got m={m!r}, n={n!r}")
    try:
        s = tuple(s)
    except TypeError:
        raise error(f"positions must be a sequence, got {s!r}") from None
    if any(type(x) is not int for x in s):
        raise error(f"positions must be integers, got {s}")
    n = max((m, *s)) if n is NO_BOUND else n
    if not 1 <= m <= n:
        raise error(f"need 1 <= m <= n, got m={m}, n={n}")
    if len(s) != m or any(x >= y for x, y in zip(s, s[1:])) or not all(1 <= x <= n for x in s):
        raise error(f"s must be strictly increasing in [1, {n}] with {m} entries, got {s}")
    return s


def check_rows(name: str, rows, error) -> tuple:
    """``rows``, called ``name``, as a tuple of tuples; raises ``error`` unless it and each row are iterable."""
    try:
        return tuple(tuple(row) for row in rows)
    except TypeError:
        raise error(f"{name} must be a sequence of sequences, got {rows!r}") from None


def check_size(name: str, k, error) -> None:
    """Raise ``error`` unless the size ``k``, called ``name``, is an int (not a bool) and k >= 1."""
    if type(k) is not int:
        raise error(f"{name} must be an integer, got {k!r}")
    if k < 1:
        raise error(f"{name} must be >= 1, got {k}")


MAX_CELLS = 1 << 18  # cells a region builder builds at most; at the bound the count DP takes seconds


def _check_cells(cells: int, error) -> None:
    """Refuse with ``error`` a region of more than MAX_CELLS cells, counted before it is built."""
    if cells > MAX_CELLS:
        raise error(f"a region of {cells} cells, over the region size limit of {MAX_CELLS} cells")


def aztec_diamond(n: int) -> Region:
    """The Aztec diamond of order n: AR(n, n; 1, ..., n), every southeast square kept.

    It has the rectangle's cells, 2n(n+1) in all, under its own key
    ``("aztec_diamond", n)``.
    """
    check_size("order", n, InvalidOrder)
    _check_cells(2 * n * (n + 1), InvalidOrder)
    return Region("square", ("aztec_diamond", n), _ar_region(n, n, tuple(range(1, n + 1))).cells)


def aztec_rectangle_with_holes(m: int, n: int, s) -> Region:
    """Aztec rectangle AR_{m,n} keeping only the southeast squares at positions s.

    The full rectangle has 2mn + m + n cells; each of the n - m removed
    southeast squares ("holes") drops one, leaving 2mn + 2m, at most MAX_CELLS.
    """
    s = check_positions(m, n, s, InvalidHoles)
    _check_cells(2 * m * n + 2 * m, InvalidHoles)
    return _ar_region(m, n, s)


def _ar_region(m: int, n: int, kept: tuple) -> Region:
    """AR_{m,n} keeping the southeast squares at positions ``kept``, unchecked:
    the full weighted rectangle keeps all n of them, and may have m > n."""
    cells = {cell for quad in ar_face_cells(m, n).values() for cell in quad}
    cells.difference_update(sq(h, h - 1) for h in set(range(1, n + 1)).difference(kept))
    return Region("square", ("aztec_rectangle", m, n, kept), frozenset(cells))


def semihexagon_with_dents(a: int, b: int, s) -> Region:
    """Upper half of the a,b,b,a,b,b semi-regular hexagon with dents at s.

    Row y (1 = top) has b+y up-triangles and b+y-1 down-triangles; the a
    up-triangles at base positions s are removed.  The remaining cell count,
    2ab + a^2 - a, is always even and at most MAX_CELLS.
    """
    if type(a) is not int or type(b) is not int:
        raise InvalidDents(f"sizes must be integers, got a={a!r}, b={b!r}")
    if a < 1 or b < 0:
        raise InvalidDents(f"need a >= 1 and b >= 0, got a={a}, b={b}")
    s = check_positions(a, a + b, s, InvalidDents)
    _check_cells(2 * a * b + a * a - a, InvalidDents)
    cells = set()
    for y in range(1, a + 1):
        for x in range(1, b + y + 1):
            cells.add(up(x, y))
        for x in range(1, b + y):
            cells.add(dw(x, y))
    for x in s:
        cells.remove(up(x, a))
    return Region("triangular", ("semihexagon", a, b, s), frozenset(cells))


# ---------------------------------------------------------------------------
# weighted graphs


class WeightedGraph:
    """Undirected graph with nonzero edge weights.

    Vertex labels are arbitrary hashable values; the vertex tuple order fixes
    the "lowest-indexed vertex" rule that makes matching enumeration
    deterministic.  ``edges`` maps each (u, v) to its weight, or lists the
    ((u, v), w) pairs.  A ``FracWeight`` is stored as it is, every other
    weight as :func:`edge_weight` reads it.  Instances are treated as
    immutable: every transformation builds a new graph, usually by :meth:`derive`.
    """

    __slots__ = ("vertices", "index", "_adj")

    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.index = {v: i for i, v in enumerate(self.vertices)}
        if len(self.index) != len(self.vertices):
            raise InvalidGraph("duplicate vertex labels")
        self._adj = adj = {v: {} for v in self.vertices}
        for (u, v), w in edges.items() if isinstance(edges, dict) else edges:
            au, av = adj.get(u), adj.get(v)
            if au is None or av is None:
                raise InvalidGraph(f"edge endpoint not a vertex: {(u, v)!r}")
            if u == v:
                raise InvalidGraph(f"self-loop at {u!r}")
            if v in au:
                raise InvalidGraph(f"duplicate edge {(u, v)!r}, parallel to one given before")
            if not isinstance(w, FracWeight):
                w = edge_weight((u, v), w)
            if not w:
                raise InvalidWeight(f"weight of {(u, v)!r} is zero")
            au[v] = w
            av[u] = w

    @property
    def n(self):
        return len(self.vertices)

    def neighbors(self, v):
        return self._adj[v]

    def degree(self, v):
        return len(self._adj[v])

    def weight(self, u, v):
        return self._adj[u][v]

    def has_edge(self, u, v):
        return u in self._adj and v in self._adj[u]

    def edge_items(self):
        """Each undirected edge once, as ((u, v), w), deterministic order."""
        index = self.index
        for u, iu in index.items():
            for v, w in self._adj[u].items():
                if index[v] > iu:
                    yield (u, v), w

    def edge_count(self):
        return sum(len(d) for d in self._adj.values()) // 2

    def edge_dict(self):
        return {(u, v): w for (u, v), w in self.edge_items()}

    def adjacency_indexed(self):
        """Adjacency as index lists: for each vertex i, sorted [(j, w), ...]."""
        out = []
        for u in self.vertices:
            row = sorted((self.index[v], w) for v, w in self._adj[u].items())
            out.append(row)
        return out

    def derive(self, drop=(), vertices=(), edges=()):
        """A new graph: this one without the vertices in ``drop`` and their
        edges, with ``vertices`` appended and the ``((u, v), w)`` pairs in
        ``edges`` added.  An added edge that already exists raises InvalidGraph."""
        drop = set(drop)
        kept = (((u, v), w) for (u, v), w in self.edge_items() if u not in drop and v not in drop)
        return WeightedGraph([v for v in self.vertices if v not in drop] + list(vertices), chain(kept, edges))

    def __eq__(self, other):
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        return self._adj == other._adj  # the same vertices, and each edge in both directions with its weight

    def __repr__(self):
        return f"WeightedGraph({self.n} vertices, {self.edge_count()} edges)"


def dual_graph(region: Region, weight=None) -> WeightedGraph:
    """One vertex per cell, in sorted order; one edge per domino, weighing
    ``weight(domino)`` or 1."""
    edges = {d: 1 if weight is None else weight(d) for d in region.all_dominoes}
    return WeightedGraph(region.sorted_cells, edges)


def edge_weight(edge, w) -> LaurentPoly2:
    """The one type rule for weights: ``w``, an int, ``Fraction`` or
    ``LaurentPoly2``, as a LaurentPoly2; anything else raises InvalidWeight
    naming ``edge``.  Each caller adds its own value rule."""
    try:
        return as_poly(w)
    except TypeError:
        raise InvalidWeight(f"weight of {edge} is {w!r}, not an int, Fraction or Laurent polynomial") from None


def ar_face_cells(m: int, n: int):
    """The diamond faces of AR_{m,n}: (i, j) -> (W, S, E, N) cells.

    Face (i, j) is the 2x2 block with lower-left cell (j-i, i+j-2); after the
    45-degree clockwise rotation its lower-left/lower-right/upper-right/
    upper-left cells sit west/south/east/north, in that order.
    """
    faces = {}
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            x0, y0 = j - i, i + j - 2
            faces[(i, j)] = (sq(x0, y0), sq(x0 + 1, y0), sq(x0 + 1, y0 + 1), sq(x0, y0 + 1))
    return faces


def face_weights(a, b, c, d) -> tuple:
    """The face weights of the weighted rectangle graph as nonzero LaurentPoly2s
    under :func:`edge_weight`'s rule; a zero one raises InvalidWeight naming it."""
    out = tuple(edge_weight(f"face {name}", w) for name, w in zip("abcd", (a, b, c, d)))
    for name, w in zip("abcd", out):
        if not w:
            raise InvalidWeight(f"weight of face {name} is zero")
    return out


def full_weighted_rectangle(m: int, n: int, a, b, c, d) -> WeightedGraph:
    """The m-row, n-column weighted rectangle graph, no vertices removed.

    The diamond face in row i, column j carries edge weights a (northwest
    edge), b (northeast), d*q^(i+j-2) (southeast), c*q^(i+j-2) (southwest),
    with q symbolic; the parameters are any weights :func:`face_weights` reads.
    Its bottom row is the southeast side, ``sq(h, h-1)`` for h = 1..n.
    (Unlike the region builder this allows m > n, which the row reduction's
    right-hand side needs; each size must be an int >= 1 and the graph hold
    at most MAX_CELLS vertices, else InvalidHoles.)
    """
    check_size("m", m, InvalidHoles)
    check_size("n", n, InvalidHoles)
    _check_cells(2 * m * n + m + n, InvalidHoles)
    return dual_graph(_ar_region(m, n, tuple(range(1, n + 1))), _face_weight(*face_weights(a, b, c, d)))


def weighted_ar_graph(m: int, n: int, s, a, b, c, d) -> WeightedGraph:
    """Dual graph of AR_{m,n} with the four-parameter face weights, holes removed.

    The face weights are those of :func:`full_weighted_rectangle`, under the same
    rule; of the southeast side only the kept cells ``sq(h, h-1)``, h in s, are vertices.
    """
    return dual_graph(aztec_rectangle_with_holes(m, n, s), _face_weight(*face_weights(a, b, c, d)))


def _face_weight(a, b, c, d):
    """Domino -> a, b, c*q^row or d*q^row by its :func:`domino_class`."""
    by_class = {"up": (a, False), "plain": (b, False), "level": (c, True), "down": (d, True)}

    def weight(dom):
        kind, row = domino_class(dom)
        w, rises = by_class[kind]
        return w.shift(dq=row) if rises else w

    return weight


def domino_class(dom) -> tuple:
    """(kind, row) of a square-lattice domino.  The kind is ``"level"``
    (horizontal, black left cell), ``"plain"`` (horizontal, white left cell),
    ``"up"`` (vertical, black bottom cell) or ``"down"`` (vertical, white
    bottom cell).  On AR_{m,n} these are the southwest, northeast, northwest
    and southeast sides of one face (i, j), and row = i + j - 2.
    """
    c1, c2 = sorted(dom)  # the left or the bottom cell first
    black = not is_white(c1)
    if c1.y == c2.y:
        return ("level", c1.y) if black else ("plain", c1.y - 1)
    return ("up" if black else "down"), c1.y


def checkerboard_coloring(region: Region) -> dict:
    """Cell -> "black"/"white" so neighbors differ and the NW side is white.

    White is the odd x + y class (:func:`is_white`), and in the block
    coordinates every northwest-side cell ``(j-m, m+j-1)`` has x + y = 2j - 1,
    which is odd whatever m and j are.
    """
    if region.lattice != "square":
        raise WrongRegionKind("checkerboard coloring applies to square-lattice regions")
    return {c: ("white" if is_white(c) else "black") for c in region.sorted_cells}


def is_white(cell: Cell) -> bool:
    """White cells are the odd-parity class (northwest side is white)."""
    return (cell.x + cell.y) % 2 == 1
