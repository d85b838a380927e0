"""Matching-preserving graph rewrites and the rectangle-to-semihexagon pipeline.

Every rewrite applies a whole batch of local moves and builds one fresh
graph; renewal also returns one delta per site, so a chain of rewrites
accumulates an ordinary product:

* ``vertex_split(g, {v: half})``: M(result) = M(g)   (v' keeps ``half``, v'' the other neighbours)
* ``star_scale(g, factors)``:     M(result) = (product of factors) * M(g)
* ``spider_replace(g, sites)``:   M(g) = (product of the per-site deltas) * M(result)   (urban renewal)
* ``remove_forced(g)``:           M(g) = M(result)

A renewal site is its inner 4-cycle; the graph tells each inner vertex's plug.
``connected_sum`` glues two graphs along named vertex pairs.

The pipeline at the bottom peels a weighted Aztec rectangle graph one
diamond row at a time, each round one call per step: split every face
corner, renew every face, trim the forced boundary chains, then rescale the
surviving column vertices back to canonical weights.  Renewal divides
weights by delta = x*z + y*t, which for rows past the first is a genuine
binomial in q, so mid-round weights live in :class:`FracWeight` (a true
quotient of Laurent polynomials); the round's star rescalings clear every
denominator, each quotient that divides out becomes its polynomial, and the
round checks that no quotient survives before the next one.  Each star
factor is q times the renewal delta of its own face, so the round's deltas
and star factors cancel down to the last column's deltas over a power of
q, and the factor is a plain product with no division.

This module returns only what it computes.  :mod:`aztecgf.verify` compares
the factor with :func:`~aztecgf.formulas.peel_target_factor`,
q^((m-1)m(m+1)/3) * prod_k Delta_k^(m-k+1) with Delta_k = a*d*q^(k-1) + b*c,
and the final graph with the weighted dented semihexagon; it also checks
the one-row reduction that the peeling generalises.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .errors import InexactDivision, InvalidGraph, InvalidHoles, InvalidPartition, PatternMismatch, ZeroDelta
from .formulas import peel_target_factor  # unused here: perfbench/jobs.py reads it as rewrite.peel_target_factor
from .poly import FracWeight, LaurentPoly2
from .regions import WeightedGraph, ar_face_cells, check_positions, edge_weight, face_weights, full_weighted_rectangle, sq


_ONE = LaurentPoly2.one()


# ---------------------------------------------------------------------------
# elementary rewrites


def vertex_split(graph: WeightedGraph, splits) -> WeightedGraph:
    """Split every v in ``splits`` (v -> half) at once; M is unchanged.

    Each v becomes v' (keeping its edges to ``half``), v'' (its edges to the
    rest of its neighbours) and a middle vertex x adjacent to both by
    weight-1 edges.  Neighbours are named by their labels in ``graph``;
    ``half`` must be a set of neighbours of v, and when it holds them all
    v'' dangles from x.  The v'' and x vertices are appended in the
    iteration order of ``splits``.
    """
    halves = {v: set(half) for v, half in splits.items()}
    for v, half in halves.items():
        if not half <= graph.neighbors(v).keys():
            raise InvalidPartition(f"{half!r} is not a set of neighbours of {v!r}")

    def end(v, other):  # the label of v's copy that keeps the edge to ``other``
        return v if v not in halves else ("vh" if other in halves[v] else "vk", v)

    verts = [("vh", u) if u in halves else u for u in graph.vertices]
    edges = {(end(a_, b_), end(b_, a_)): w for (a_, b_), w in graph.edge_items()}
    for v in halves:
        verts += [("vk", v), ("x", v)]
        edges[(("vh", v), ("x", v))] = LaurentPoly2.one()
        edges[(("vk", v), ("x", v))] = LaurentPoly2.one()
    return WeightedGraph(verts, edges)


def star_scale(graph: WeightedGraph, factors) -> WeightedGraph:
    """Multiply every edge at each v in ``factors`` (v -> factor) by its
    factor; M(result) = (product of the factors) * M(graph).

    A factor may be any nonzero weight :func:`~aztecgf.regions.edge_weight`
    reads (the underlying identity holds for any invertible weight); an edge
    between two scaled vertices takes both factors.
    """
    factors = {v: edge_weight(f"the factor at {v!r}", f) for v, f in factors.items()}
    edges = {}
    for (a_, b_), w in graph.edge_items():
        for v in (a_, b_):
            if v in factors:
                w = w * factors[v]
        edges[(a_, b_)] = w
    return WeightedGraph(graph.vertices, edges)


def spider_replace(graph: WeightedGraph, sites):
    """Urban renewal at every site in ``sites`` at once.

    A site is an inner 4-cycle (i0, i1, i2, i3) of ``graph``.  Each inner
    vertex must have exactly one neighbour off the cycle, its outer plug,
    hanging by a weight-1 leg; the four plugs and four inner vertices must
    be distinct.  With cycle weights x = w(i0,i1), y = w(i1,i2),
    z = w(i2,i3), t = w(i3,i0), the inner vertices disappear and the plug
    cycle gains edges z/delta, t/delta, x/delta, y/delta (each new edge takes
    the opposite old weight), where delta = x*z + y*t.  Sites may share
    plugs but no inner vertex, and no two may add the same edge.  Returns
    (new graph, deltas), one delta per site in order;
    M(old) = (product of the deltas) * M(new).
    """
    new_edges = {}
    deltas = []
    plugs = set()
    for inner in sites:
        if len(inner) != 4 or not all(graph.has_edge(inner[k - 1], i) for k, i in enumerate(inner)):
            raise PatternMismatch(f"{inner!r} is not a 4-cycle of the graph")
        outer = []
        for k, i in enumerate(inner):
            off = graph.neighbors(i).keys() - {inner[k - 1], inner[(k + 1) % 4]}
            if len(off) != 1:
                raise PatternMismatch(f"inner vertex {i!r} has {len(off)} neighbours off its cycle, not 1")
            o, = off
            if graph.weight(o, i) != _ONE:
                raise PatternMismatch(f"the leg {o!r} - {i!r} does not weigh 1")
            outer.append(o)
        if len(set(outer) | set(inner)) != 8:
            raise PatternMismatch("need 8 distinct vertices")
        plugs.update(outer)
        x, y, z, t = (graph.weight(inner[k], inner[(k + 1) % 4]) for k in range(4))
        delta = x * z + y * t
        if not delta:
            raise ZeroDelta("x*z + y*t = 0")
        for k, w in enumerate((z, t, x, y)):
            u, v = outer[k], outer[(k + 1) % 4]
            if graph.has_edge(u, v):
                raise PatternMismatch(f"replacement edge {u!r} - {v!r} already exists")
            if (u, v) in new_edges or (v, u) in new_edges:
                raise PatternMismatch(f"two sites add the edge {u!r} - {v!r}")
            new_edges[(u, v)] = FracWeight(w, delta)
        deltas.append(delta)
    inner_all = [i for inner in sites for i in inner]
    if len(set(inner_all)) != len(inner_all) or plugs.intersection(inner_all):
        raise PatternMismatch("an inner vertex belongs to more than one site")
    return graph.derive(drop=inner_all, edges=new_edges.items()), deltas


def remove_forced(graph: WeightedGraph) -> WeightedGraph:
    """Strip forced weight-1 edges (weight-1 edges at degree-1 vertices) with
    their endpoints, until none is left; M(graph) = M(result).

    Isolated vertices are left in place so that the reduced graph honestly
    reports M = 0, and a weighted forced edge stays, so no factor arises.
    """
    adj = {v: dict(graph.neighbors(v)) for v in graph.vertices}
    removed = set()
    changed = True
    while changed:
        changed = False
        for v in graph.vertices:
            if v in removed or len(adj[v]) != 1:
                continue
            (u, w), = adj[v].items()
            if w != _ONE:
                continue
            for dead in (v, u):
                removed.add(dead)
                for nb in adj[dead]:
                    if nb not in removed:
                        adj[nb].pop(dead, None)
                adj[dead] = {}
            changed = True
    return graph.derive(drop=removed)


def connected_sum(g1: WeightedGraph, g2: WeightedGraph, pairs) -> WeightedGraph:
    """Glue g2 onto g1 by identifying each (v1, v2) in ``pairs``.

    Other labels of g2 must be disjoint from g1's; the identified vertices
    keep their g1 labels.  Arity or collision problems raise InvalidGraph.
    """
    ident = {}
    for v1, v2 in pairs:
        if v1 not in g1.index or v2 not in g2.index:
            raise InvalidGraph(f"identification {(v1, v2)!r} names missing vertices")
        ident[v2] = v1
    if len(set(ident.values())) != len(ident):
        raise InvalidGraph("identifications collapse distinct vertices of the first summand")
    extra = [v for v in g2.vertices if v not in ident]
    if any(v in g1.index for v in extra):
        raise InvalidGraph("label collision between summands")
    return g1.derive(vertices=extra, edges=(((ident.get(u, u), ident.get(v, v)), w) for (u, v), w in g2.edge_items()))


# ---------------------------------------------------------------------------
# peeling a holey rectangle down to a dented semihexagon


@dataclass
class PipelineResult:
    factor: LaurentPoly2   # M(start) = factor * M(graph): per round, the last column's deltas over q^(scales)
    graph: WeightedGraph   # final graph, polynomial weights
    spider_count: int


def reduce_rectangle_to_semihexagon(m: int, n: int, s, a, b, c, d) -> PipelineResult:
    """Run the full m-round peeling pipeline on the holey rectangle graph.

    Starts from the full weighted rectangle with a weight-1 pendant edge at
    every hole position (equivalent, through forced edges, to deleting the
    hole vertices).  Each round splits the face corners, renews every face,
    trims forced weight-1 chains, and star-rescales the surviving column
    vertices with q times the delta of their own face, so the round's factor
    is the last column's deltas over q^(number of scales).  The accumulated
    factor satisfies M(start) = factor * M(final graph) by construction;
    ``verify`` checks it against the closed-form target and the final graph
    against the weighted semihexagon.
    """
    s = check_positions(m, n, s, InvalidHoles)
    a, b, c, d = face_weights(a, b, c, d)
    holes = [h for h in range(1, n + 1) if h not in s]
    g = full_weighted_rectangle(m, n, a, b, c, d).derive(
        vertices=[("hole", h) for h in holes], edges=[((sq(h, h - 1), ("hole", h)), _ONE) for h in holes])

    faces = ar_face_cells(m, n)
    factor = _ONE
    spiders = 0
    for r in range(1, m + 1):
        mu, nu = m - r + 1, n - r + 1
        # corner -> (face, corner index) in the first sorted face holding it: the reversed sweep lets it win
        first_face = {v: (key, ci) for key in sorted(faces, reverse=True) for ci, v in enumerate(faces[key])}
        # v' keeps v's two neighbours on that face
        g = vertex_split(g, {v: {faces[key][(ci + 1) % 4], faces[key][ci - 1]}
                             for v in g.vertices if v in first_face for key, ci in [first_face[v]]})
        sites = [tuple(("vh" if first_face[v] == (key, ci) else "vk", v) for ci, v in enumerate(quad))
                 for key, quad in sorted(faces.items())]
        g, deltas = spider_replace(g, sites)
        delta = dict(zip(sorted(faces), deltas))  # face -> its renewal delta
        spiders += len(sites)
        g = remove_forced(g)
        # q * (a face's own delta) at its east corner clears every quotient; the last column's deltas stay behind
        scales = {("x", faces[(i, j)][2]): delta[(i, j)].shift(dq=1) for i in range(1, mu + 1) for j in range(1, nu)}
        g = star_scale(g, scales)
        factor = prod((delta[(i, nu)] for i in range(1, mu + 1)), start=factor).shift(dq=-len(scales))
        if any(isinstance(w, FracWeight) for _, w in g.edge_items()):
            raise InexactDivision(f"round {r} left a quotient edge weight")
        faces = {
            (bi, bj): (
                ("x", faces[(bi, bj)][3]),      # west  <- x of the north corner
                ("x", faces[(bi, bj)][2]),      # south <- x of the east corner
                ("x", faces[(bi, bj + 1)][3]),  # east  <- x of the next north corner
                ("x", faces[(bi + 1, bj)][2]),  # north <- x of the upper east corner
            )
            for bi in range(1, mu)
            for bj in range(1, nu)
        }
    return PipelineResult(factor, g, spiders)
