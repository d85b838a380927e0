"""Region constructions, dual graphs, weights, and the coloring."""

import re
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aztecgf.engine import matching_genfun
from aztecgf.errors import InvalidDents, InvalidHoles, InvalidOrder, InvalidRegionFile, InvalidWeight, WrongRegionKind
from aztecgf.formulas import peel_target_factor, weighted_rectangle_matching_genfun
from aztecgf.poly import FracWeight, LaurentPoly2
from aztecgf.lozenge import ColumnStrictPlanePartition, cspp_to_tiling, tiling_to_cspp
from aztecgf.regions import (
    Cell,
    Region,
    WeightedGraph,
    aztec_diamond,
    aztec_rectangle_with_holes,
    checkerboard_coloring,
    domino_class,
    dual_graph,
    full_weighted_rectangle,
    is_white,
    region_from_json,
    semihexagon_with_dents,
    sq,
    up,
    weighted_ar_graph,
)
from aztecgf.rewrite import PipelineResult, reduce_rectangle_to_semihexagon
from aztecgf.stats import PathStats, SchroderPathFamily, minimal_tiling, path_stats, tiling_to_paths
from aztecgf.verify import row_reduction_sides


def translate(cells):
    x0 = min(c.x for c in cells)
    y0 = min(c.y for c in cells)
    return {(c.x - x0, c.y - y0) for c in cells}


def test_aztec_diamond_cell_counts():
    assert len(aztec_diamond(1).cells) == 4
    assert translate(aztec_diamond(1).cells) == {(0, 0), (1, 0), (0, 1), (1, 1)}
    for n in range(1, 7):
        assert len(aztec_diamond(n).cells) == 2 * n * (n + 1)


def test_rectangle_cell_counts_and_holes():
    for m in range(1, 6):
        for n in range(m, 7):
            full = aztec_rectangle_with_holes(m, n, tuple(range(1, n + 1))) if m == n else None
            s = tuple(range(1, m + 1))
            region = aztec_rectangle_with_holes(m, n, s)
            assert len(region.cells) == 2 * m * n + m + n - (n - m)
            if full is not None:
                assert len(full.cells) == 2 * m * n + m + n
    assert len(aztec_rectangle_with_holes(3, 6, (1, 4, 6)).cells) == 42


def test_rectangle_equals_diamond_up_to_translation():
    # the translation is zero: the diamond is built in the rectangle's coordinates
    for n in range(1, 7):
        ar = aztec_rectangle_with_holes(n, n, tuple(range(1, n + 1)))
        ad = aztec_diamond(n)
        assert ad.cells == ar.cells
        assert {sq(h, h - 1) for h in range(1, n + 1)} <= ad.cells  # the whole southeast side
        assert {sq(j - n, n + j - 1) for j in range(1, n + 1)} <= ad.cells  # and the northwest side
        assert ad.rect_params == ar.rect_params and ad.key == ("aztec_diamond", n)


def test_invalid_holes():
    with pytest.raises(InvalidHoles):
        aztec_rectangle_with_holes(2, 4, (3, 1))
    with pytest.raises(InvalidHoles):
        aztec_rectangle_with_holes(2, 4, (1, 5))
    with pytest.raises(InvalidHoles):
        aztec_rectangle_with_holes(3, 2, (1, 2))
    for s in ((1.5, 2), (True, 3), (1, 2.0)):  # positions are ints, and a bool is not one
        with pytest.raises(InvalidHoles, match="integers"):
            aztec_rectangle_with_holes(2, 3, s)
    # so are the sizes, checked before any comparison
    for m, n in ((2.0, 3), (True, 2), (1, 2.0), (1, True)):
        with pytest.raises(InvalidHoles, match="sizes must be integers"):
            aztec_rectangle_with_holes(m, n, (1,))
    for n in (True, 1.5, 2.0):
        with pytest.raises(InvalidOrder, match="order must be an integer"):
            aztec_diamond(n)


def test_semihexagon_counts():
    region = semihexagon_with_dents(3, 2, (2, 3, 5))
    assert len(region.cells) == 18
    assert len(semihexagon_with_dents(1, 0, (1,)).cells) == 0
    assert len(semihexagon_with_dents(2, 1, (1, 3)).cells) == 6
    for a in range(1, 5):
        for b in range(0, 4):
            s = tuple(range(1, a + 1))
            assert len(semihexagon_with_dents(a, b, s).cells) % 2 == 0
    with pytest.raises(InvalidDents):
        semihexagon_with_dents(2, 1, (1, 4))
    for s in ((1.5, 3), (True, 3)):
        with pytest.raises(InvalidDents, match="integers"):
            semihexagon_with_dents(2, 1, s)
    for a, b in ((1, True), (True, 1), (2.0, 1), (2, 1.0)):
        with pytest.raises(InvalidDents, match="sizes must be integers"):
            semihexagon_with_dents(a, b, (1,))


def test_dual_graph_counts():
    from aztecgf.regions import full_weighted_rectangle

    g = dual_graph(aztec_diamond(1))
    assert g.n == 4 and g.edge_count() == 4  # a 4-cycle
    g_full = dual_graph(aztec_rectangle_with_holes(5, 5, (1, 2, 3, 4, 5)))
    assert g_full.n == 2 * 25 + 10 and g_full.edge_count() == 4 * 25
    # the full 3x5 rectangle graph: 2mn+m+n vertices, 4mn edges
    g35 = full_weighted_rectangle(3, 5, 1, 1, 1, 1)
    assert g35.n == 38 and g35.edge_count() == 60
    # hole removal always leaves an even vertex count
    for s in ((1, 2, 3), (1, 3, 5), (2, 4, 5)):
        assert dual_graph(aztec_rectangle_with_holes(3, 5, s)).n % 2 == 0


def test_dual_graph_marks_southeast_side():
    region = aztec_rectangle_with_holes(3, 6, (1, 4, 6))
    g = dual_graph(region)
    # the kept southeast cells sq(h, h - 1) are vertices, the holes are not
    assert [h for h in range(1, 7) if sq(h, h - 1) in g.index] == [1, 4, 6]
    assert set(g.edge_dict().values()) == {LaurentPoly2.one()}
    weighted = dual_graph(region, lambda dom: dom[0].y + 1)
    assert weighted.vertices == g.vertices == region.sorted_cells
    assert weighted.edge_dict() == {d: LaurentPoly2.const(d[0].y + 1) for d in region.all_dominoes}


@st.composite
def pool_regions(draw):
    # holey rectangles (m <= 5, n <= 9), dented semihexagons (a <= 5, a + b <= 10) and diamonds (order <= 8)
    kind = draw(st.sampled_from(("rectangle", "semihexagon", "diamond")))
    if kind == "diamond":
        return aztec_diamond(draw(st.integers(1, 8)))
    if kind == "rectangle":
        m = draw(st.integers(1, 5))
        n = draw(st.integers(m, 9))
        return aztec_rectangle_with_holes(m, n, sorted(draw(st.sets(st.integers(1, n), min_size=m, max_size=m))))
    a = draw(st.integers(1, 5))
    b = draw(st.integers(0, 10 - a))
    return semihexagon_with_dents(a, b, sorted(draw(st.sets(st.integers(1, a + b), min_size=a, max_size=a))))


def shares_a_side(c, d) -> bool:
    """The module docstring's adjacency rules: squares one unit apart, and
    up(x, y) beside dw(x, y), dw(x - 1, y) and dw(x, y + 1)."""
    if c.kind == d.kind == "sq":
        return abs(c.x - d.x) + abs(c.y - d.y) == 1
    if {c.kind, d.kind} != {"up", "dw"}:
        return False
    u, w = (c, d) if c.kind == "up" else (d, c)
    return (w.x, w.y) in ((u.x, u.y), (u.x - 1, u.y), (u.x, u.y + 1))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pool_regions())
def test_the_pool_and_adjacency_read_every_side_sharing_pair_in_sorted_order(region):
    # the pool's order fixes every tiling mask: it must be every side-sharing pair (c, d), c < d, sorted
    pool = region.all_dominoes
    assert pool == tuple((c, d) for c, d in combinations(region.sorted_cells, 2) if shares_a_side(c, d))
    index = {c: i for i, c in enumerate(region.sorted_cells)}
    for cell, row in zip(region.sorted_cells, region.adjacency):
        assert row == sorted((index[d if c == cell else c], 1 << k) for k, (c, d) in enumerate(pool) if cell in (c, d))


def test_a_cell_of_no_lattice_kind_is_refused_by_name():
    # a hand-built region's cells must be "sq", "up" or "dw": a "tri" cell is no down-triangle
    # that pairs with up-triangles, and a "square" one is no square with an empty pool
    for bad, other in ((Cell(1, 1, "tri"), up(1, 1)), (Cell(0, 0, "square"), Cell(0, 1, "square"))):
        region = Region("square", ("hand-built", bad), frozenset({bad, other}))
        with pytest.raises(WrongRegionKind, match=re.escape(f"cell {bad!r}")):
            region.all_dominoes


def sorted_domino_class(dom) -> tuple:
    """domino_class as it read a domino through sorted() and the cells' named fields."""
    c1, c2 = sorted(dom)
    black = not is_white(c1)
    if c1.y == c2.y:
        return ("level", c1.y) if black else ("plain", c1.y - 1)
    return ("up" if black else "down"), c1.y


def test_domino_class_reads_either_cell_order_as_the_sorted_pair():
    regions = [aztec_rectangle_with_holes(m, n, s) for m in range(1, 5) for n in range(m, 8)
               for s in combinations(range(1, n + 1), m)]
    for region in regions + [aztec_diamond(n) for n in range(1, 7)]:
        for dom in region.all_dominoes:
            assert domino_class(dom) == domino_class(dom[::-1]) == sorted_domino_class(dom)


def test_semihexagon_dual_matchings():
    g = dual_graph(semihexagon_with_dents(3, 2, (2, 3, 5)))
    assert matching_genfun(g).evaluate(1, 1) == 3


def test_weighted_graph_single_diamond():
    a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    g = weighted_ar_graph(1, 1, (1,), a, b, c, d)
    assert matching_genfun(g) == LaurentPoly2.const(a * d + b * c)
    with pytest.raises(InvalidWeight):
        weighted_ar_graph(1, 1, (1,), 0, b, c, d)


# every public route that reads the four face weights, called with a varied
FACE_WEIGHT_ROUTES = {
    "weighted_ar_graph": lambda a: weighted_ar_graph(2, 3, (1, 3), a, 3, 5, 7),
    "full_weighted_rectangle": lambda a: full_weighted_rectangle(2, 3, a, 3, 5, 7),
    "reduce_rectangle_to_semihexagon": lambda a: reduce_rectangle_to_semihexagon(2, 3, (1, 3), a, 3, 5, 7),
    "row_reduction_sides": lambda a: row_reduction_sides(2, 3, a, 3, 5, 7),
    "peel_target_factor": lambda a: peel_target_factor(2, a, 3, 5, 7),
    "weighted_rectangle_matching_genfun": lambda a: weighted_rectangle_matching_genfun(2, 3, (1, 3), a, 3, 5, 7),
}


@pytest.mark.parametrize("route", sorted(FACE_WEIGHT_ROUTES))
def test_face_weights_follow_one_rule(route):
    call = FACE_WEIGHT_ROUTES[route]
    for bad in (0, 0.5, "x", FracWeight(1, LaurentPoly2.term(1, q=1) + 1)):
        with pytest.raises(InvalidWeight, match="face a"):
            call(bad)
    # a Laurent polynomial face weight is read as it is, a constant one as its value
    exact = FracWeight(LaurentPoly2.term(2, q=1), LaurentPoly2.term(1, q=1))  # an exact quotient is its polynomial
    assert call(LaurentPoly2.const(2)) == call(2) == call(Fraction(2)) == call(exact)
    call(LaurentPoly2.term(2, q=1) + Fraction(1, 3))


def test_weighted_graph_canonicalises_and_refuses_weights():
    quotient = FracWeight(1, LaurentPoly2.term(1, q=1) + 1)
    exact = FracWeight(LaurentPoly2.term(3, q=2), LaurentPoly2.term(1, q=1))
    g = WeightedGraph([0, 1, 2, 3], {(0, 1): exact, (1, 2): 2, (2, 3): quotient})
    assert type(g.weight(0, 1)) is LaurentPoly2 and g.weight(0, 1) == LaurentPoly2.term(3, q=1)
    assert type(g.weight(1, 2)) is LaurentPoly2 and g.weight(1, 2) == 2
    assert g.weight(2, 3) is quotient
    for bad in (0.5, 0, Fraction(0), LaurentPoly2.zero(), FracWeight(0, 3), "x"):
        with pytest.raises(InvalidWeight, match=r"weight of \(0, 1\)"):
            WeightedGraph([0, 1], {(0, 1): bad})
    with pytest.raises(ValueError, match="duplicate vertex"):
        WeightedGraph([0, 1, 0], {})
    with pytest.raises(ValueError, match="not a vertex"):
        WeightedGraph([0, 1], {(0, 2): 1})
    with pytest.raises(ValueError, match="self-loop"):
        WeightedGraph([0, 1], {(1, 1): 1})
    with pytest.raises(ValueError, match="duplicate edge"):
        WeightedGraph([0, 1], {(0, 1): 1, (1, 0): 2})


def test_derive_drops_appends_and_adds_in_one_graph():
    g = WeightedGraph([0, 1, 2], {(0, 1): 2, (1, 2): 3})
    h = g.derive(drop=[2], vertices=["x"], edges=[((1, "x"), 5)])
    assert h.vertices == (0, 1, "x") and h.edge_dict() == {(0, 1): 2, (1, "x"): 5}
    # an added edge that already exists is refused, in either orientation
    for u, v in ((0, 1), (1, 0)):
        with pytest.raises(ValueError, match="duplicate edge"):
            g.derive(edges=[((u, v), 7)])
    with pytest.raises(ValueError, match="not a vertex"):
        g.derive(drop=[2], edges=[((1, 2), 1)])


_Q = LaurentPoly2.term(1, q=1)
_WEIGHTS = st.sampled_from([LaurentPoly2.term(2, q=1), 1 + _Q, LaurentPoly2.const(Fraction(3, 4)),
                            FracWeight(_Q, 1 + _Q), FracWeight(1, 2 + _Q * _Q)])


@st.composite
def _derivations(draw):
    """A graph on at most 10 vertices, the vertices to drop, the labels to append and the edges to add."""
    n = draw(st.integers(1, 10))
    pairs = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), unique=True)) if n > 1 else []
    g = WeightedGraph(range(n), [(e, draw(_WEIGHTS)) for e in pairs])
    drop = draw(st.sets(st.integers(0, n - 1)))
    appended = [("new", i) for i in range(draw(st.integers(0, 3)))]
    after = [v for v in g.vertices if v not in drop] + appended
    free = [(u, v) for u, v in combinations(after, 2) if not g.has_edge(u, v)]
    added = [((u, v) if draw(st.booleans()) else (v, u), draw(_WEIGHTS))
             for u, v in (draw(st.lists(st.sampled_from(free), unique=True)) if free else [])]
    return g, drop, appended, added


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_derivations())
def test_derive_equals_building_the_kept_and_added_edges_afresh(case):
    g, drop, appended, added = case
    before = WeightedGraph(g.vertices, g.edge_items())
    kept = [v for v in g.vertices if v not in drop]
    kept_edges = [((u, v), w) for (u, v), w in g.edge_items() if u not in drop and v not in drop]
    h = g.derive(drop, appended, added)
    want = WeightedGraph(kept + appended, kept_edges + added)
    assert h == want and h.vertices == want.vertices
    assert g == before and g.vertices == before.vertices
    assert all(h._adj[v] is not g._adj[v] for v in kept)
    for (u, v), w in kept_edges[:1]:  # an added edge parallel to a kept one, in either orientation
        for edge in ((u, v), (v, u)):
            with pytest.raises(ValueError, match="duplicate edge"):
                g.derive(drop, appended, [*added, (edge, w)])
    for gone in sorted(drop)[:1]:
        with pytest.raises(ValueError, match="not a vertex"):
            g.derive(drop, appended, [*added, (((kept + appended + [gone])[0], gone), 1)])
    for v in kept[:1]:
        with pytest.raises(ValueError, match="duplicate vertex labels"):
            g.derive(drop, [*appended, v], added)


def test_weighted_graph_all_ones_pure_q():
    g = weighted_ar_graph(3, 4, (1, 2, 4), 1, 1, 1, 1)
    for _, w in g.edge_items():
        ((eq, et), coeff), = w.sorted_terms()
        assert et == 0 and coeff == 1 and eq >= 0


def test_weighted_graph_face_layout():
    # face (i, j) carries d*q^(i+j-2) on its southeast edge; spot-check (2, 3)
    g = weighted_ar_graph(3, 4, (1, 2, 3), 1, 1, 1, Fraction(11))
    i, j = 2, 3
    s_cell, e_cell = sq(j - i + 1, i + j - 2), sq(j - i + 1, i + j - 1)
    assert g.weight(s_cell, e_cell) == LaurentPoly2.term(11, q=i + j - 2)


def test_full_weighted_rectangle_face_sides():
    # face (i, j) has lower-left cell (j - i, i + j - 2) and carries a on its
    # northwest side, b northeast, c*q^(i+j-2) southwest, d*q^(i+j-2)
    # southeast; the 4mn sides are all the edges, m > n included
    from aztecgf.regions import full_weighted_rectangle

    a, b, c, d = Fraction(2), Fraction(3), Fraction(5), Fraction(7)
    for m in range(1, 5):
        for n in range(1, 7):
            g = full_weighted_rectangle(m, n, a, b, c, d)
            assert g.edge_count() == 4 * m * n
            assert all(g.degree(sq(h, h - 1)) == 2 for h in range(1, n + 1))  # the southeast side
            for i in range(1, m + 1):
                for j in range(1, n + 1):
                    x, y = j - i, i + j - 2
                    west, south, east, north = sq(x, y), sq(x + 1, y), sq(x + 1, y + 1), sq(x, y + 1)
                    assert g.weight(west, north) == LaurentPoly2.const(a)
                    assert g.weight(north, east) == LaurentPoly2.const(b)
                    assert g.weight(west, south) == LaurentPoly2.term(c, q=y)
                    assert g.weight(south, east) == LaurentPoly2.term(d, q=y)


def test_checkerboard_coloring():
    for region in (*(aztec_diamond(n) for n in range(1, 7)), aztec_rectangle_with_holes(3, 6, (1, 4, 6))):
        colors = checkerboard_coloring(region)
        m, n, _ = region.rect_params
        for j in range(1, n + 1):
            assert colors[sq(j - m, m + j - 1)] == "white"
        for c in region.sorted_cells:
            for d in region.sorted_cells:
                if abs(c.x - d.x) + abs(c.y - d.y) == 1:
                    assert colors[c] != colors[d]
    assert is_white(sq(0, 1)) and not is_white(sq(0, 0))


def test_region_json_roundtrip():
    for region in (
        aztec_diamond(2),
        aztec_rectangle_with_holes(2, 4, (1, 3)),
        semihexagon_with_dents(2, 1, (1, 3)),
    ):
        assert region_from_json(region.to_json_obj()) == region
    with pytest.raises(InvalidRegionFile):
        region_from_json({"kind": "blob", "params": []})


def test_records_keep_their_value_semantics_and_reprs():
    # Region, SchroderPathFamily, ColumnStrictPlanePartition, PathStats and
    # PipelineResult compare, hash and print as frozen dataclasses do (all were
    # dataclasses; PipelineResult was not frozen), and none equals a tuple
    cell = frozenset({sq(0, 0)})
    family = SchroderPathFamily(1, 1, (1,), (("level",),))
    pi = ColumnStrictPlanePartition((2, 1), ((3, 2), (1,)), 3)
    factor = LaurentPoly2.term(2, q=1)
    cases = {  # record: (an equal one built apart, one with a field changed, its repr)
        Region("square", ("one",), cell): (
            Region("square", ("one",), frozenset(cell)), Region("square", ("two",), cell),
            "Region(lattice='square', key=('one',), cells=frozenset({Cell(x=0, y=0, kind='sq')}))"),
        family: (
            SchroderPathFamily(1, 1, [1], [["level"]]), SchroderPathFamily(1, 2, (1,), (("level",),)),
            "SchroderPathFamily(m=1, n=1, s=(1,), paths=(('level',),))"),
        pi: (
            ColumnStrictPlanePartition((2, 1), [[3, 2], [1]], 3),
            ColumnStrictPlanePartition((2, 1), ((3, 2), (1,)), 4),
            "ColumnStrictPlanePartition(shape=(2, 1), rows=((3, 2), (1,)), max_entry=3)"),
        path_stats(family): (
            PathStats((0,), (0,), (1,), Fraction(0), 0), PathStats((0,), (0,), (1,), Fraction(0), 1),
            "PathStats(up=(0,), down=(0,), level=(1,), area=Fraction(0, 1), beta=0)"),
        PipelineResult(factor, None, 3): (
            PipelineResult(LaurentPoly2.term(2, q=1), None, 3), PipelineResult(factor, None, 4),
            "PipelineResult(factor=LaurentPoly2(2*q), graph=None, spider_count=3)"),
    }
    for record, (equal, other, text) in cases.items():
        assert record == equal and hash(record) == hash(equal) and not record != equal
        assert record != other and not record == other
        assert repr(record) == text
        assert record != record._values()  # not a tuple
        with pytest.raises(AttributeError):  # frozen
            setattr(record, record.FIELDS[0], None)
    assert family != pi and Region("square", ("one",), cell) != ("one",)
    assert Region("square", ("one",), cell).sorted_cells == (sq(0, 0),)  # a cached_property of a frozen record
    assert path_stats(tiling_to_paths(minimal_tiling(aztec_rectangle_with_holes(2, 4, (1, 3))))).level_total == 3

    # a family or partition built from lists equals the one read back from its tiling
    tiling = minimal_tiling(aztec_rectangle_with_holes(1, 1, (1,)))
    assert SchroderPathFamily(1, 1, [1], [["level"]]) == tiling_to_paths(tiling)
    region = semihexagon_with_dents(2, 1, (1, 3))
    listed = ColumnStrictPlanePartition((1, 0), [[2], []], 2)
    assert tiling_to_cspp(cspp_to_tiling(listed, region)) == listed


def test_records_take_one_value_per_field():
    # every record is built by Record.__init__, which stores one value per field and
    # nothing else; too few or too many values is a TypeError, as a dataclass's would be
    records = {
        Region: ("square", ("one",), frozenset()),
        SchroderPathFamily: (1, 1, (1,), (("level",),)),
        ColumnStrictPlanePartition: ((1,), ((1,),), 1),
        PathStats: ((0,), (0,), (1,), Fraction(0), 0),
        PipelineResult: (LaurentPoly2.one(), None, 0),
    }
    for cls, values in records.items():
        assert vars(cls(*values)).keys() == set(cls.FIELDS)
        for wrong in (values[:-1], (*values, None)):
            with pytest.raises(TypeError):
                cls(*wrong)
