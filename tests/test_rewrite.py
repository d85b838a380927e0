"""Graph rewrites: local identities, the row reduction, and the peeling pipeline."""

import random
from fractions import Fraction

import pytest

from aztecgf.engine import matching_genfun
from aztecgf.errors import InvalidPartition, PatternMismatch, ZeroDelta
from aztecgf.lozenge import weighted_sh_genfun
from aztecgf.poly import LaurentPoly2
from aztecgf.regions import (
    WeightedGraph,
    full_weighted_rectangle,
    semihexagon_with_dents,
    weighted_ar_graph,
)
from aztecgf.rewrite import (
    FracWeight,
    SpiderPattern,
    connected_sum,
    reduce_rectangle_to_semihexagon,
    remove_forced,
    row_reduction_check,
    spider_replace,
    star_scale,
    vertex_split,
)

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
    pattern = SpiderPattern(("A", "B", "C", "D"), ("ia", "ib", "ic", "id"))
    return WeightedGraph(verts, edges), pattern


def test_vertex_split_single_edge():
    g = WeightedGraph([0, 1], {(0, 1): LaurentPoly2.const(7)})
    split = vertex_split(g, 0, {1}, set())
    assert matching_genfun(split) == matching_genfun(g)
    # empty "rest" side leaves v'' dangling from x
    assert split.degree(("vk", 0)) == 1


def test_vertex_split_bad_partition():
    g = WeightedGraph([0, 1, 2], {(0, 1): ONE, (0, 2): ONE})
    with pytest.raises(InvalidPartition):
        vertex_split(g, 0, {1}, set())
    with pytest.raises(InvalidPartition):
        vertex_split(g, 0, {1, 2}, {2})


def test_star_scale():
    g = WeightedGraph([0, 1], {(0, 1): LaurentPoly2.const(5)})
    assert matching_genfun(star_scale(g, 0, 1)) == matching_genfun(g)
    assert matching_genfun(star_scale(g, 0, 3)) == LaurentPoly2.const(15)
    scaled = star_scale(g, 1, LaurentPoly2.term(1, q=2))
    assert matching_genfun(scaled) == LaurentPoly2.term(5, q=2)


def test_spider_delta_values():
    g, pattern = spider_host(1, 1, 1, 1)
    replaced, delta = spider_replace(g, pattern)
    assert delta == LaurentPoly2.const(2)
    assert matching_genfun(g) == delta * matching_genfun(replaced)
    g, pattern = spider_host(1, 2, 3, 4)
    replaced, delta = spider_replace(g, pattern)
    assert delta == LaurentPoly2.const(11)
    assert matching_genfun(g) == delta * matching_genfun(replaced)
    # each new edge takes the opposite old weight over delta
    assert replaced.weight("A", "B") == LaurentPoly2.const(Fraction(3, 11))
    assert replaced.weight("D", "A") == LaurentPoly2.const(Fraction(2, 11))


def test_spider_zero_delta_and_mismatch():
    g, pattern = spider_host(1, 1, -1, 1)
    with pytest.raises(ZeroDelta):
        spider_replace(g, pattern)
    g, pattern = spider_host(1, 1, 1, 1)
    bad = SpiderPattern(("A", "B", "C", "D"), ("ia", "ib", "ic", "A2"))
    with pytest.raises(PatternMismatch):
        spider_replace(g, bad)


def test_remove_forced():
    g = WeightedGraph([0, 1], {(0, 1): LaurentPoly2.const(9)})
    reduced, factor = remove_forced(g)
    assert reduced.n == 0 and factor == LaurentPoly2.const(9)
    # a pendant chain collapses completely; the factor is its unique matching
    chain = WeightedGraph([0, 1, 2, 3], {(0, 1): LaurentPoly2.const(4), (1, 2): ONE, (2, 3): LaurentPoly2.const(5)})
    reduced, factor = remove_forced(chain)
    assert reduced.n == 0 and factor == LaurentPoly2.const(20)
    assert matching_genfun(chain) == LaurentPoly2.const(20)
    # isolated vertices survive so that M = 0 is reported honestly
    iso = WeightedGraph([0, 1, 2], {(1, 2): ONE})
    reduced, factor = remove_forced(iso)
    assert 0 in reduced.vertices
    assert matching_genfun(reduced) == LaurentPoly2.zero()


def test_remove_forced_weight_one_only():
    chain = WeightedGraph([0, 1, 2, 3], {(0, 1): LaurentPoly2.const(4), (1, 2): ONE, (2, 3): LaurentPoly2.const(5)})
    reduced, factor = remove_forced(chain, weight_one_only=True)
    # weighted pendant edges are left alone under the restricted sweep
    assert factor == ONE and reduced.n == 4
    reduced, factor = remove_forced(chain)
    assert factor == LaurentPoly2.const(20) and reduced.n == 0


def test_connected_sum():
    g1 = WeightedGraph([0, 1], {(0, 1): ONE}, marked=(1,))
    g2 = WeightedGraph(["a", "b"], {("a", "b"): LaurentPoly2.const(2)})
    glued = connected_sum(g1, g2, [(1, "a")])
    assert glued.n == 3 and glued.has_edge(1, "b")
    with pytest.raises(ValueError):
        connected_sum(g1, g2, [(5, "a")])


def test_fracweight_arithmetic():
    q = LaurentPoly2.term(1, q=1)
    w = FracWeight(q + 1, q)
    assert (w * q) == q + 1
    assert (w * w) == FracWeight((q + 1) ** 2, q * q)
    assert (FracWeight(q * q + q) / FracWeight(q)) == q + 1
    assert w + w == FracWeight(2 * (q + 1), q)
    assert FracWeight(q ** 2 - 1, q - 1).to_poly() == q + 1


def test_full_weighted_rectangle_transpose_allowed():
    g = full_weighted_rectangle(2, 1, 1, 1, 1, 1)
    assert g.n == 2 * 2 * 1 + 2 + 1
    assert len(g.marked) == 1


def test_row_reduction():
    rng = random.Random(99)
    for m, n in ((1, 2), (1, 3), (2, 2), (2, 3)):
        for _ in range(2):
            a, b, c, d = (Fraction(rng.randint(1, 8), rng.randint(1, 4)) for _ in range(4))
            rr = row_reduction_check(m, n, a, b, c, d)
            assert rr.holds(), (m, n, a, b, c, d)
    rr = row_reduction_check(1, 2, 1, 1, 1, 1)
    assert rr.lhs.evaluate(1, 1) == rr.rhs.evaluate(1, 1)


def test_pipeline_detailed():
    m, n, s = 2, 3, (1, 3)
    a, b, c, d = Fraction(2), Fraction(3), Fraction(1, 2), Fraction(5)
    res = reduce_rectangle_to_semihexagon(m, n, s, a, b, c, d)
    assert res.factor_matches()
    assert res.spider_count == m * n + (m - 1) * (n - 1)
    start = matching_genfun(weighted_ar_graph(m, n, s, a, b, c, d))
    final = matching_genfun(res.graph)
    assert start == res.factor * final
    sh = semihexagon_with_dents(m, n - m, s)
    m_tilde = weighted_sh_genfun(
        sh, lambda k: LaurentPoly2.term(a, q=k + 1), LaurentPoly2.const(b), ONE
    )
    assert final == m_tilde
    assert start == res.target_factor * m_tilde


def test_pipeline_diamond_degenerates_to_empty_graph():
    res = reduce_rectangle_to_semihexagon(1, 1, (1,), 1, 1, 1, 1)
    assert res.factor == LaurentPoly2.const(2)
    assert matching_genfun(res.graph) == LaurentPoly2.one()
