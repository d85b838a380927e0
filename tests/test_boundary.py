"""The library's argument boundary: a bad argument gets its typed error.

Every function that ``aztecgf`` exports, plus ``peel_target_factor`` and
``full_weighted_rectangle``, has at least one row in ``TABLE``: the call with
one argument slot left open, and the :class:`AztecError` subclass a bad value
in that slot must raise (two, where a weight of -1 makes a renewal's
x*z + y*t vanish).  A function that takes a region, tiling or graph
gets the drawn value in the size, position, weight or label its argument is
built from.  The property draws small ints, bools, floats, ``None`` and short
strings into the slot; each call must return or raise that row's error,
nothing else, and no bare ``TypeError`` or ``ValueError``.
"""

import inspect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import aztecgf as az
from aztecgf.errors import (BijectionViolation, InvalidDents, InvalidGraph, InvalidHoles, InvalidOrder,
                            InvalidPartition, InvalidTiling, InvalidWeight, PatternMismatch, WrongRegionKind,
                            ZeroDelta)
from aztecgf.formulas import peel_target_factor
from aztecgf.lozenge import ColumnStrictPlanePartition, semihex_q_genfun
from aztecgf.poly import LaurentPoly2
from aztecgf.regions import edge_weight, face_weights, full_weighted_rectangle, sq
from aztecgf.stats import SchroderPathFamily

VALUES = st.one_of(st.integers(-3, 7), st.booleans(), st.floats(), st.none(), st.text(max_size=3))

AR = az.aztec_rectangle_with_holes(2, 3, (1, 3))
SH = az.semihexagon_with_dents(2, 1, (1, 3))
EDGE = az.WeightedGraph([0, 1], {(0, 1): 1})
SQUARE = az.dual_graph(az.aztec_diamond(1))


def edge(w):
    """One edge weighing ``w``."""
    return az.WeightedGraph([0, 1], {(0, 1): w})


def rect(m, n, s):
    return az.minimal_tiling(az.aztec_rectangle_with_holes(m, n, s))


# (the function and its open slot, the call with x in that slot, the error a bad x raises)
TABLE = [
    ("count_matchings weight", lambda x: az.count_matchings(edge(x)), InvalidWeight),
    ("count_tilings n", lambda x: az.count_tilings(az.aztec_rectangle_with_holes(1, x, (1,))), InvalidHoles),
    ("enumerate_matchings label", lambda x: list(az.enumerate_matchings(az.WeightedGraph([0, x], {(0, x): 1}))),
     InvalidGraph),
    ("enumerate_tilings b", lambda x: list(az.enumerate_tilings(az.semihexagon_with_dents(1, x, (1,)))),
     InvalidDents),
    ("graph_genfun_dp weight", lambda x: az.graph_genfun_dp(edge(x)), InvalidWeight),
    ("matching_genfun weight", lambda x: az.matching_genfun(edge(x)), InvalidWeight),
    ("tiling_genfun_dp weight", lambda x: az.tiling_genfun_dp(AR, lambda d: x), InvalidWeight),
    ("aztec_diamond_genfun order", lambda x: az.aztec_diamond_genfun(x), InvalidOrder),
    ("cspp_genfun_product position", lambda x: az.cspp_genfun_product((1, x), 2), InvalidDents),
    ("cspp_genfun_product m", lambda x: az.cspp_genfun_product((1, 3), x), InvalidDents),
    ("count_product m", lambda x: az.count_product(x, (1, 2)), InvalidHoles),
    ("prefactor_exponent position", lambda x: az.prefactor_exponent(2, (x, 4)), InvalidHoles),
    ("rectangle_genfun n", lambda x: az.rectangle_genfun(2, x, (1, 2)), InvalidHoles),
    ("rectangle_genfun m", lambda x: az.rectangle_genfun(x, 3, (1, 2)), InvalidHoles),
    ("shifted_content_exponent position", lambda x: az.shifted_content_exponent(2, (1, x)), InvalidHoles),
    ("weighted_rectangle_matching_genfun n",
     lambda x: az.weighted_rectangle_matching_genfun(2, x, (1, 2), 1, 1, 1, 1), InvalidHoles),
    ("weighted_rectangle_matching_genfun weight",
     lambda x: az.weighted_rectangle_matching_genfun(2, 3, (1, 3), x, 1, 1, 1), InvalidWeight),
    ("peel_target_factor m", lambda x: peel_target_factor(x, 1, 1, 1, 1), InvalidHoles),
    ("peel_target_factor weight", lambda x: peel_target_factor(2, 1, x, 1, 1), InvalidWeight),
    ("cspp_to_tiling entry",
     lambda x: az.cspp_to_tiling(ColumnStrictPlanePartition((1, 0), ((x,), ()), 2), SH), BijectionViolation),
    ("enumerate_cspp max_entry", lambda x: list(az.enumerate_cspp((1, 0), x)), InvalidDents),
    ("enumerate_lozenge_tilings b",
     lambda x: list(az.enumerate_lozenge_tilings(az.semihexagon_with_dents(2, x, (1, 3)))), InvalidDents),
    ("tiling_to_cspp position",
     lambda x: az.tiling_to_cspp(next(az.enumerate_tilings(az.semihexagon_with_dents(2, 1, (1, x))))),
     InvalidDents),
    ("weighted_sh_genfun right weight", lambda x: az.weighted_sh_genfun(SH, lambda k: 1, x), InvalidWeight),
    ("weighted_sh_genfun left weight", lambda x: az.weighted_sh_genfun(SH, lambda k: x, 1), InvalidWeight),
    ("q_ratio_product position", lambda x: az.q_ratio_product((1, x)), InvalidDents),
    ("WeightedGraph endpoint", lambda x: az.WeightedGraph([0, 1], {(0, x): 1}), InvalidGraph),
    ("aztec_diamond order", lambda x: az.aztec_diamond(x), InvalidOrder),
    ("aztec_rectangle_with_holes n", lambda x: az.aztec_rectangle_with_holes(2, x, (1, 2)), InvalidHoles),
    ("aztec_rectangle_with_holes m", lambda x: az.aztec_rectangle_with_holes(x, 3, (1, 2)), InvalidHoles),
    ("aztec_rectangle_with_holes position", lambda x: az.aztec_rectangle_with_holes(2, 3, (1, x)), InvalidHoles),
    ("checkerboard_coloring n", lambda x: az.checkerboard_coloring(az.aztec_rectangle_with_holes(1, x, (1,))),
     InvalidHoles),
    ("dual_graph weight", lambda x: az.dual_graph(AR, lambda d: x), InvalidWeight),
    ("semihexagon_with_dents b", lambda x: az.semihexagon_with_dents(2, x, (1, 3)), InvalidDents),
    ("semihexagon_with_dents position", lambda x: az.semihexagon_with_dents(2, 1, (1, x)), InvalidDents),
    ("weighted_ar_graph n", lambda x: az.weighted_ar_graph(2, x, (1, 2), 1, 1, 1, 1), InvalidHoles),
    ("weighted_ar_graph weight", lambda x: az.weighted_ar_graph(2, 3, (1, 3), 1, 1, x, 1), InvalidWeight),
    ("full_weighted_rectangle m", lambda x: full_weighted_rectangle(x, 2, 1, 1, 1, 1), InvalidHoles),
    ("full_weighted_rectangle n", lambda x: full_weighted_rectangle(2, x, 1, 1, 1, 1), InvalidHoles),
    ("full_weighted_rectangle weight", lambda x: full_weighted_rectangle(2, 2, 1, 1, 1, x), InvalidWeight),
    ("connected_sum label", lambda x: az.connected_sum(EDGE, az.WeightedGraph(["a", "b"], {("a", "b"): 1}),
                                                       [(x, "a")]), InvalidGraph),
    ("reduce_rectangle_to_semihexagon n",
     lambda x: az.reduce_rectangle_to_semihexagon(2, x, (1, 2), 1, 1, 1, 1), InvalidHoles),
    ("reduce_rectangle_to_semihexagon weight",
     lambda x: az.reduce_rectangle_to_semihexagon(2, 3, (1, 3), 1, 1, 1, x), (InvalidWeight, ZeroDelta)),
    ("remove_forced weight", lambda x: az.remove_forced(edge(x)), InvalidWeight),
    ("spider_replace site", lambda x: az.spider_replace(SQUARE, [(x, x, x, x)]), PatternMismatch),
    ("star_scale factor", lambda x: az.star_scale(EDGE, {0: x}), InvalidWeight),
    ("vertex_split half", lambda x: az.vertex_split(EDGE, {0: {x}}), InvalidPartition),
    ("elementary_moves n", lambda x: az.elementary_moves(rect(2, x, (1, 2))), InvalidHoles),
    ("genfun_bruteforce n", lambda x: az.genfun_bruteforce(2, x, (1, 2)), InvalidHoles),
    ("genfun_via_weights n", lambda x: az.genfun_via_weights(2, x, (1, 2)), InvalidHoles),
    ("minimal_tiling m", lambda x: az.minimal_tiling(az.aztec_rectangle_with_holes(x, 3, (1, 2))), InvalidHoles),
    ("path_stats position", lambda x: az.path_stats(az.tiling_to_paths(rect(2, 3, (x, 3)))), InvalidHoles),
    ("paths_to_tiling step",
     lambda x: az.paths_to_tiling(SchroderPathFamily(1, 1, (1,), ((x,),)), az.aztec_diamond(1)), BijectionViolation),
    ("rank_bfs n", lambda x: az.rank_bfs(rect(1, x, (1,))), InvalidHoles),
    ("rank_via_paths position", lambda x: az.rank_via_paths(rect(2, 4, (1, x))), InvalidHoles),
    ("tiling_to_paths m", lambda x: az.tiling_to_paths(rect(x, 2, (1, 2))), InvalidHoles),
    ("vstat n", lambda x: az.vstat(rect(2, x, (1, 2))), InvalidHoles),
    ("Tiling.from_dominoes cell", lambda x: az.Tiling.from_dominoes(AR, [(sq(x, 0), sq(x, 1))]), InvalidTiling),
]


def test_the_table_covers_every_exported_function():
    exported = {name for name, obj in vars(az).items() if inspect.isfunction(obj)}
    assert exported <= {label.split()[0] for label, _, _ in TABLE}


@pytest.mark.parametrize("call, error", [row[1:] for row in TABLE], ids=[row[0].replace(" ", "-") for row in TABLE])
@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(x=VALUES)
def test_a_bad_argument_raises_its_typed_error(call, error, x):
    try:
        call(x)
    except error:
        pass


# inputs that returned a value or raised a bare error; the property above would accept a returned value
LEAKS = [
    # n=None meant "no upper bound" inside the validator; only the closed forms without an n ask for that now
    ("rectangle_genfun n=None", lambda: az.rectangle_genfun(2, None, (1, 2)), InvalidHoles),
    *((f"peel_target_factor m={m!r}", lambda m=m: peel_target_factor(m, 1, 1, 1, 1), InvalidHoles)
      for m in (0, -1, False, True)),
    *((f"full_weighted_rectangle m={m!r}", lambda m=m: full_weighted_rectangle(m, 2, 1, 1, 1, 1), InvalidHoles)
      for m in (0, -1, False, True)),
    # the vertex count is bounded before building; at the bound the build took about a minute
    ("full_weighted_rectangle n=87382", lambda: full_weighted_rectangle(1, 87382, 1, 1, 1, 1), InvalidHoles),
    ("tiling_genfun_dp weight=True", lambda: az.tiling_genfun_dp(az.aztec_diamond(2), lambda d: True), InvalidWeight),
    ("edge_weight True", lambda: edge_weight("e", True), InvalidWeight),
    ("face_weights a=True", lambda: face_weights(True, 1, 1, 1), InvalidWeight),
    ("enumerate_cspp max_entry=0", lambda: list(az.enumerate_cspp((1,), 0)), InvalidDents),
    ("enumerate_cspp max_entry=True", lambda: list(az.enumerate_cspp((1, 0), True)), InvalidDents),
    ("LaurentPoly2.term q=1.5", lambda: LaurentPoly2.term(1, q=1.5), TypeError),
    # a family or partition is checked when it is built, so no reader meets a malformed one
    ("SchroderPathFamily m=5 with one position", lambda: SchroderPathFamily(5, 5, (1,), (("level",),)),
     BijectionViolation),
    ("SchroderPathFamily n=0", lambda: SchroderPathFamily(1, 0, (1,), (("level",),)), BijectionViolation),
    ("SchroderPathFamily s=(True,)", lambda: SchroderPathFamily(1, 1, (True,), (("level",),)), BijectionViolation),
    ("path_stats step 'x'", lambda: az.path_stats(SchroderPathFamily(1, 1, (1,), (("x",),))), BijectionViolation),
    ("ColumnStrictPlanePartition max_entry=True", lambda: ColumnStrictPlanePartition((1,), ((1,),), True),
     BijectionViolation),
    ("ColumnStrictPlanePartition max_entry=0", lambda: ColumnStrictPlanePartition((), (), 0), BijectionViolation),
    ("minimal_tiling semihexagon", lambda: az.minimal_tiling(az.semihexagon_with_dents(2, 1, (1, 2))),
     WrongRegionKind),
    ("semihex_q_genfun diamond", lambda: semihex_q_genfun(az.aztec_diamond(1)), WrongRegionKind),
    ("enumerate_lozenge_tilings diamond", lambda: az.enumerate_lozenge_tilings(az.aztec_diamond(1)), WrongRegionKind),
    ("checkerboard_coloring semihexagon",
     lambda: az.checkerboard_coloring(az.semihexagon_with_dents(2, 1, (1, 2))), WrongRegionKind),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in LEAKS], ids=[row[0].replace(" ", "-") for row in LEAKS])
def test_each_named_input_gets_its_typed_error(call, error):
    with pytest.raises(error):
        call()
