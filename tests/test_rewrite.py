"""Graph rewrites: local identities, the row reduction, and the peeling pipeline."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aztecgf.engine import graph_genfun_dp, matching_genfun
from aztecgf.errors import InvalidHoles, InvalidPartition, InvalidWeight, PatternMismatch, ZeroDelta
from aztecgf.formulas import peel_target_factor, weighted_rectangle_matching_genfun
from aztecgf.lozenge import weighted_sh_genfun
from aztecgf.poly import LaurentPoly2
from aztecgf.regions import (
    WeightedGraph,
    full_weighted_rectangle,
    semihexagon_with_dents,
    sq,
    weighted_ar_graph,
)
from aztecgf.rewrite import (
    FracWeight,
    connected_sum,
    reduce_rectangle_to_semihexagon,
    remove_forced,
    spider_replace,
    star_scale,
    vertex_split,
)
from aztecgf.verify import _random_graph, _random_weight, row_reduction_sides

ONE = LaurentPoly2.one()


def spider_host(x, y, z, t):
    verts = ["A", "B", "C", "D", "A2", "B2", "C2", "D2", "ia", "ib", "ic", "id"]
    edges = {
        ("A", "A2"): LaurentPoly2.const(2),
        ("B", "B2"): LaurentPoly2.const(3),
        ("C", "C2"): ONE,
        ("D", "D2"): ONE,
        ("A", "ia"): ONE,
        ("B", "ib"): ONE,
        ("C", "ic"): ONE,
        ("D", "id"): ONE,
        ("ia", "ib"): LaurentPoly2.const(x),
        ("ib", "ic"): LaurentPoly2.const(y),
        ("ic", "id"): LaurentPoly2.const(z),
        ("id", "ia"): LaurentPoly2.const(t),
    }
    return WeightedGraph(verts, edges), ("ia", "ib", "ic", "id")


def test_vertex_split_single_edge():
    g = WeightedGraph([0, 1], {(0, 1): LaurentPoly2.const(7)})
    split = vertex_split(g, {0: {1}})
    assert matching_genfun(split) == matching_genfun(g)
    # a half holding every neighbour leaves v'' dangling from x
    assert split.degree(("vk", 0)) == 1


def test_vertex_split_bad_partition():
    g = WeightedGraph([0, 1, 2], {(0, 1): ONE, (0, 2): ONE})
    # the half must be among the neighbours: 3 is no vertex, 2 is no neighbour of 1
    with pytest.raises(InvalidPartition):
        vertex_split(g, {0: {1, 3}})
    with pytest.raises(InvalidPartition):
        vertex_split(g, {1: {2}})


def test_star_scale():
    g = WeightedGraph([0, 1], {(0, 1): LaurentPoly2.const(5)})
    assert matching_genfun(star_scale(g, {0: 1})) == matching_genfun(g)
    assert matching_genfun(star_scale(g, {0: 3})) == LaurentPoly2.const(15)
    scaled = star_scale(g, {1: LaurentPoly2.term(1, q=2)})
    assert matching_genfun(scaled) == LaurentPoly2.term(5, q=2)
    # factors follow the edge weight rule, and an exact quotient is its polynomial
    exact = FracWeight(LaurentPoly2.term(2, q=2), LaurentPoly2.term(1, q=1))
    assert star_scale(g, {0: exact}).weight(0, 1) == LaurentPoly2.term(10, q=1)
    for bad in (0.5, "x", 0, LaurentPoly2.zero()):
        with pytest.raises(InvalidWeight):
            star_scale(g, {0: bad})


def test_spider_delta_values():
    g, pattern = spider_host(1, 1, 1, 1)
    replaced, (delta,) = spider_replace(g, [pattern])
    assert delta == LaurentPoly2.const(2)
    assert matching_genfun(g) == delta * matching_genfun(replaced)
    g, pattern = spider_host(1, 2, 3, 4)
    replaced, (delta,) = spider_replace(g, [pattern])
    assert delta == LaurentPoly2.const(11)
    assert matching_genfun(g) == delta * matching_genfun(replaced)
    # each new edge takes the opposite old weight over delta
    assert replaced.weight("A", "B") == LaurentPoly2.const(Fraction(3, 11))
    assert replaced.weight("D", "A") == LaurentPoly2.const(Fraction(2, 11))


def test_spider_zero_delta_and_mismatch():
    g, pattern = spider_host(1, 1, -1, 1)
    with pytest.raises(ZeroDelta):
        spider_replace(g, [pattern])
    g, pattern = spider_host(1, 1, 1, 1)
    # a cycle with a foreign vertex
    with pytest.raises(PatternMismatch, match="not a 4-cycle"):
        spider_replace(g, [("ia", "ib", "ic", "A2")])
    for extra, message in ((("ia", "C2"), "has 2 neighbours off its cycle"), (("A", "B"), "already exists")):
        edges = g.edge_dict()
        edges[extra] = ONE
        with pytest.raises(PatternMismatch, match=message):
            spider_replace(WeightedGraph(g.vertices, edges), [pattern])


def test_spider_site_plugs_come_from_the_graph():
    g, site = spider_host(1, 2, 3, 4)
    replaced, (delta,) = spider_replace(g, [site])
    # the plugs A..D are the inner vertices' neighbours off the cycle, and
    # the same cycle read from another vertex is the same site
    assert [replaced.has_edge(u, v) for u, v in ("AB", "BC", "CD", "DA")] == [True] * 4
    assert spider_replace(g, [site[1:] + site[:1]]) == (replaced, [delta])

    def edited(drop=(), add=None):
        edges = {e: w for e, w in g.edge_dict().items() if e not in drop}
        return WeightedGraph(g.vertices, {**edges, **(add or {})})

    for host, sites, message in (
        (g, [site[:3]], "not a 4-cycle"),
        (edited(drop=[("A", "ia")]), [site], "ia' has 0 neighbours off its cycle"),
        (edited(add={("ia", "C2"): ONE}), [site], "ia' has 2 neighbours off its cycle"),
        (edited(add={("A", "ia"): LaurentPoly2.const(2)}), [site], "does not weigh 1"),
        (edited(drop=[("B", "ib")], add={("A", "ib"): ONE}), [site], "8 distinct"),  # two legs from A
        (edited(add={("A", "B"): ONE}), [site], "already exists"),
        (g, [site, site], "two sites add"),
    ):
        with pytest.raises(PatternMismatch, match=message):
            spider_replace(host, sites)


def test_remove_forced():
    # a weight-1 pendant chain collapses; M is unchanged
    chain = WeightedGraph([0, 1, 2, 3], {(0, 1): ONE, (1, 2): LaurentPoly2.const(4), (2, 3): ONE})
    reduced = remove_forced(chain)
    assert reduced.n == 0 and matching_genfun(reduced) == matching_genfun(chain) == ONE
    # isolated vertices survive so that M = 0 is reported honestly
    iso = WeightedGraph([0, 1, 2], {(1, 2): ONE})
    reduced = remove_forced(iso)
    assert 0 in reduced.vertices
    assert matching_genfun(reduced) == LaurentPoly2.zero()


def test_remove_forced_weight_one_only():
    chain = WeightedGraph([0, 1, 2, 3], {(0, 1): LaurentPoly2.const(4), (1, 2): ONE, (2, 3): LaurentPoly2.const(5)})
    reduced = remove_forced(chain)
    # weighted pendant edges are left alone, so no factor arises
    assert reduced == chain and matching_genfun(reduced) == matching_genfun(chain)


def test_connected_sum():
    g1 = WeightedGraph([0, 1], {(0, 1): ONE})
    g2 = WeightedGraph(["a", "b"], {("a", "b"): LaurentPoly2.const(2)})
    glued = connected_sum(g1, g2, [(1, "a")])
    assert glued.n == 3 and glued.has_edge(1, "b")
    with pytest.raises(ValueError, match="missing"):
        connected_sum(g1, g2, [(5, "a")])
    with pytest.raises(ValueError, match="collapse"):
        connected_sum(g1, g2, [(1, "a"), (1, "b")])
    for pairs in ([(0, "a"), (1, "a")], [(0, "a"), (1, "b"), (1, "a")]):  # one vertex of g2 glued to both 0 and 1
        with pytest.raises(ValueError, match="collapse distinct vertices of the first summand"):
            connected_sum(g1, g2, pairs)
    assert connected_sum(g1, g2, [(1, "a"), (1, "a")]) == glued  # a pair given twice is one identification
    with pytest.raises(ValueError, match="collision"):
        connected_sum(g1, WeightedGraph([1, "b"], {(1, "b"): ONE}), [(0, "b")])
    with pytest.raises(ValueError, match="parallel"):
        connected_sum(g1, g2, [(0, "a"), (1, "b")])


def test_fracweight_arithmetic():
    q = LaurentPoly2.term(1, q=1)
    w = FracWeight(q + 1, q)
    assert type(w) is LaurentPoly2  # q divides q + 1 in the Laurent ring
    assert (w * q) == q + 1
    assert (w * w) == FracWeight((q + 1) ** 2, q * q)


def test_full_weighted_rectangle_transpose_allowed():
    g = full_weighted_rectangle(2, 1, 1, 1, 1, 1)
    assert g.n == 2 * 2 * 1 + 2 + 1
    assert sq(1, 0) in g.index and g.degree(sq(1, 0)) == 2  # the one southeast cell


def test_row_reduction():
    rng = random.Random(99)
    for m, n in ((1, 2), (1, 3), (2, 2), (2, 3)):
        for _ in range(2):
            a, b, c, d = (Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(4))
            lhs, rhs = row_reduction_sides(m, n, a, b, c, d)
            assert lhs == rhs, (m, n, a, b, c, d)
    lhs, rhs = row_reduction_sides(1, 2, 1, 1, 1, 1)
    assert lhs.evaluate(1, 1) == rhs.evaluate(1, 1)


def test_pipeline_detailed():
    m, n, s = 2, 3, (1, 3)
    a, b, c, d = Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5)
    res = reduce_rectangle_to_semihexagon(m, n, s, a, b, c, d)
    target = peel_target_factor(m, a, b, c, d)
    assert res.factor == target
    assert res.spider_count == m * n + (m - 1) * (n - 1)
    start = matching_genfun(weighted_ar_graph(m, n, s, a, b, c, d))
    final = matching_genfun(res.graph)
    assert start == res.factor * final
    sh = semihexagon_with_dents(m, n - m, s)
    m_tilde = weighted_sh_genfun(sh, lambda k: LaurentPoly2.term(a, q=k + 1), LaurentPoly2.const(b))
    assert final == m_tilde
    assert start == target * m_tilde


def test_pipeline_builds_one_graph_per_rewrite_step(monkeypatch):
    # the start graph and its hole pegs, then per round one split, one
    # renewal, one trim and one rescale
    built = []
    init = WeightedGraph.__init__

    def counted(self, vertices, edges):
        built.append(self)
        init(self, vertices, edges)

    monkeypatch.setattr(WeightedGraph, "__init__", counted)
    for m in range(1, 5):
        built.clear()
        reduce_rectangle_to_semihexagon(m, 2 * m, range(2, 2 * m + 1, 2), 2, 3, 1, 5)
        assert len(built) == 2 + 4 * m


_TERMS = st.builds(lambda c, eq, et: LaurentPoly2.term(c, q=eq, t=et),
                   st.builds(Fraction, st.integers(1, 9), st.integers(1, 4)), st.integers(0, 2), st.integers(0, 1))
_FACE_WEIGHTS = st.lists(_TERMS, min_size=1, max_size=2).map(sum)


@st.composite
def _rectangles(draw):
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 5))
    s = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=m, max_size=m))))
    return m, n, s


_Q, _T = LaurentPoly2.term(1, q=1), LaurentPoly2.term(1, t=1)


@settings(max_examples=30, deadline=None)
@given(_rectangles(), st.tuples(*[_FACE_WEIGHTS] * 4))
# three rows of three-term faces, beyond what the strategy draws
@example((3, 5, (1, 3, 5)), (_Q * _Q + 2 * _Q + 3, _T + _Q + 1, 2 * _Q * _T + _Q + Fraction(1, 2), 3 * _Q + _T + 2))
def test_polynomial_face_weights_agree_on_every_route(rect, weights):
    # the identities hold for any commuting weights: polynomial faces must
    # agree on the oracle, the closed form, the DP, the peeling and the row reduction
    m, n, s = rect
    graph = weighted_ar_graph(m, n, s, *weights)
    start = matching_genfun(graph)
    assert start == weighted_rectangle_matching_genfun(m, n, s, *weights) == graph_genfun_dp(graph)
    res = reduce_rectangle_to_semihexagon(m, n, s, *weights)
    assert res.factor == peel_target_factor(m, *weights)
    assert start == res.factor * matching_genfun(res.graph) == res.factor * graph_genfun_dp(res.graph)
    if m <= 2 <= n:
        lhs, rhs = row_reduction_sides(m, n, *weights)
        assert lhs == rhs


def test_pipeline_diamond_degenerates_to_empty_graph():
    res = reduce_rectangle_to_semihexagon(1, 1, (1,), 1, 1, 1, 1)
    assert res.factor == LaurentPoly2.const(2)
    assert matching_genfun(res.graph) == LaurentPoly2.one()


def test_pipeline_checks_positions():
    for m, n, s in ((2, 3, (1, 5)), (3, 2, (1, 2, 3)), (2, 3, (3, 1))):
        with pytest.raises(InvalidHoles):
            reduce_rectangle_to_semihexagon(m, n, s, 1, 1, 1, 1)


def _original(label):
    """The vertex of the input graph behind a split copy ("vh"/"vk", v)."""
    return label[1] if isinstance(label, tuple) else label


def _spider_sites(rng, count):
    """A random graph with ``count`` renewal sites whose plug rings share no edge."""
    base = _random_graph(rng, 8)
    verts, edges, patterns, rings = list(base.vertices), base.edge_dict(), [], set()
    while len(patterns) < count:
        outer = rng.sample(base.vertices, 4)
        ring = [(outer[k], outer[(k + 1) % 4]) for k in range(4)]
        if rings & {frozenset(e) for e in ring}:
            continue
        rings |= {frozenset(e) for e in ring}
        inner = [("inner", len(patterns), k) for k in range(4)]
        verts += inner
        for u, v in ring:
            edges.pop((u, v), None)
            edges.pop((v, u), None)
        for k in range(4):
            edges[(outer[k], inner[k])] = ONE
            edges[(inner[k], inner[(k + 1) % 4])] = _random_weight(rng)
        patterns.append(tuple(inner))
    return WeightedGraph(verts, edges), patterns


def test_batched_rewrites_equal_one_at_a_time():
    rng = random.Random(2718281)
    for _ in range(6):
        g = _random_graph(rng, rng.randrange(6, 11, 2))
        splits = {}
        for v in rng.sample(g.vertices, rng.randint(2, 4)):
            splits[v] = {u for u in g.neighbors(v) if rng.random() < 0.5}
        one_by_one = g
        for v, half in splits.items():
            cur = {u for u in one_by_one.neighbors(v) if _original(u) in half}
            one_by_one = vertex_split(one_by_one, {v: cur})
        batched = vertex_split(g, splits)
        assert batched == one_by_one and batched.vertices == one_by_one.vertices
        assert matching_genfun(batched) == matching_genfun(one_by_one) == matching_genfun(g)

        factors = {v: _random_weight(rng) for v in rng.sample(g.vertices, rng.randint(2, 4))}
        one_by_one = g
        for v, factor in factors.items():
            one_by_one = star_scale(one_by_one, {v: factor})
        batched = star_scale(g, factors)
        assert batched == one_by_one
        assert matching_genfun(batched) == matching_genfun(one_by_one)

        host, patterns = _spider_sites(rng, rng.randint(2, 4))
        one_by_one, deltas = host, []
        for pattern in patterns:
            one_by_one, (delta,) = spider_replace(one_by_one, [pattern])
            deltas.append(delta)
        batched, batched_deltas = spider_replace(host, patterns)
        assert batched == one_by_one and batched_deltas == deltas
        assert matching_genfun(batched) == matching_genfun(one_by_one)
        assert matching_genfun(host) == prod(deltas) * matching_genfun(batched)


def test_spider_patterns_must_not_interfere():
    g, first = spider_host(1, 2, 3, 4)
    # a second site on the same plugs would add the edges A-B, ..., D-A again
    verts = list(g.vertices) + ["ja", "jb", "jc", "jd"]
    edges = g.edge_dict()
    for o, i in zip("ABCD", ("ja", "jb", "jc", "jd")):
        edges[(o, i)] = ONE
    for k, (u, v) in enumerate((("ja", "jb"), ("jb", "jc"), ("jc", "jd"), ("jd", "ja"))):
        edges[(u, v)] = LaurentPoly2.const(k + 1)
    twin = ("ja", "jb", "jc", "jd")
    doubled = WeightedGraph(verts, edges)
    for pattern in (first, twin):
        spider_replace(doubled, [pattern])
    with pytest.raises(PatternMismatch, match="two sites add the edge"):
        spider_replace(doubled, [first, twin])
    # a site whose plug "ia" is the first site's inner vertex and whose inner
    # ring runs through the first site's plug "A"
    verts = list(g.vertices) + ["p", "r", "s", "P", "R", "S"]
    edges = g.edge_dict()
    del edges[("A", "A2")]
    verts.remove("A2")
    edges.update({("A", "p"): ONE, ("p", "r"): ONE, ("r", "s"): ONE, ("s", "A"): ONE,
                  ("p", "P"): ONE, ("r", "R"): ONE, ("s", "S"): ONE})
    nested = ("A", "p", "r", "s")  # its plugs are ia, P, R and S
    crossed = WeightedGraph(verts, edges)
    for pattern in (first, nested):
        spider_replace(crossed, [pattern])
    with pytest.raises(PatternMismatch, match="more than one site"):
        spider_replace(crossed, [first, nested])
