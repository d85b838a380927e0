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
from aztecgf.lozenge import ColumnStrictPlanePartition, semihex_q_genfun, top_bottom_paths
from aztecgf.poly import LaurentPoly2
from aztecgf.render import render_svg
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
    # the export list, not vars(az): the namespace holds a name only once it is first looked up
    exported = {name for name in az.__all__ if inspect.isfunction(getattr(az, name))}
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
    # a vertex the graph does not have: star_scale returned M(g) where it promised 2 * M(g), and
    # vertex_split raised a bare KeyError
    ("star_scale absent vertex", lambda: az.star_scale(EDGE, {"ghost": 2}), InvalidGraph),
    ("vertex_split absent vertex", lambda: az.vertex_split(EDGE, {"ghost": set()}), InvalidPartition),
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
    # structure: a path or row that is not a sequence, a step kind that cannot be hashed (bare TypeErrors)
    ("SchroderPathFamily path 5", lambda: SchroderPathFamily(1, 1, (1,), (5,)), BijectionViolation),
    ("SchroderPathFamily step []", lambda: SchroderPathFamily(1, 1, (1,), (([],),)), BijectionViolation),
    ("SchroderPathFamily paths 5", lambda: SchroderPathFamily(1, 1, (1,), 5), BijectionViolation),
    ("SchroderPathFamily s=5", lambda: SchroderPathFamily(1, 1, 5, (("level",),)), BijectionViolation),
    ("ColumnStrictPlanePartition row 5", lambda: ColumnStrictPlanePartition((1,), (5,), 2), BijectionViolation),
    ("ColumnStrictPlanePartition entry 'a'", lambda: ColumnStrictPlanePartition((2,), (("a", 1),), 2),
     BijectionViolation),
    ("rectangle_genfun s=5", lambda: az.rectangle_genfun(2, 3, 5), InvalidHoles),
    # every tile of the pool at once covers cells twice, and elementary_moves listed its flips
    ("elementary_moves every tile", lambda: az.elementary_moves(az.Tiling(AR, (1 << len(AR.all_dominoes)) - 1)),
     BijectionViolation),
    ("minimal_tiling semihexagon", lambda: az.minimal_tiling(az.semihexagon_with_dents(2, 1, (1, 2))),
     WrongRegionKind),
    # Schröder paths are read before the lattice dispatch: the lozenge branch drew none without a word
    ("render_svg paths of a lozenge tiling",
     lambda: render_svg(SH, next(az.enumerate_lozenge_tilings(SH)), paths=True), WrongRegionKind),
    ("semihex_q_genfun diamond", lambda: semihex_q_genfun(az.aztec_diamond(1)), WrongRegionKind),
    ("enumerate_lozenge_tilings diamond", lambda: az.enumerate_lozenge_tilings(az.aztec_diamond(1)), WrongRegionKind),
    ("checkerboard_coloring semihexagon",
     lambda: az.checkerboard_coloring(az.semihexagon_with_dents(2, 1, (1, 2))), WrongRegionKind),
    # a container that is no sequence, or holds no ints or cells (bare TypeErrors); the generator refuses at the call
    *((f"q_ratio_product s={s!r}", lambda s=s: az.q_ratio_product(s), InvalidDents) for s in (5, None)),
    *((f"enumerate_cspp shape={shape!r}", lambda shape=shape: az.enumerate_cspp(shape, 1), InvalidDents)
      for shape in (5, ((1,),), ("ab",), (True,))),
    *((f"Tiling.from_dominoes {dominoes!r}", lambda dominoes=dominoes: az.Tiling.from_dominoes(AR, dominoes),
       InvalidTiling) for dominoes in (5, [1.0], [(sq(0, 0), 5)], [([1], [2])])),
    # a mask that is negative or names a bit past the domino pool is no tiling: is_valid says so before it
    # decodes the mask, where each reader raised a bare IndexError from the decoding
    *((f"{reader.__name__} mask={name}",
       lambda reader=reader, region=region, mask=mask: reader(az.Tiling(region, mask)), BijectionViolation)
      for region, readers in ((AR, (az.Tiling.require_valid, az.vstat, az.tiling_to_paths, az.elementary_moves)),
                              (SH, (az.tiling_to_cspp, top_bottom_paths)))
      for reader in readers
      for name, mask in (("-1", -1), ("past-the-pool", 1 << (len(region.all_dominoes) + 3)))),
    # the mask decoders themselves, which raised that bare IndexError
    *((f"Tiling.{name} mask={label}", lambda read=read, mask=mask: read(az.Tiling(AR, mask)), BijectionViolation)
      for name, read in (("dominoes", lambda t: t.dominoes), ("mate", lambda t: t.mate), ("repr", repr))
      for label, mask in (("-1", -1), ("past-the-pool", 1 << (len(AR.all_dominoes) + 3)))),
    # the minimal tiling with its lowest tile swapped for a bit past the pool keeps its tile count;
    # vstat counted it and returned the minimal tiling's 0
    ("vstat past-the-pool at the right tile count",
     lambda: az.vstat(az.Tiling(AR, (m := az.minimal_tiling(AR).mask) & (m - 1)
                                | 1 << (len(AR.all_dominoes) + 3))),
     BijectionViolation),
]


@pytest.mark.parametrize("call, error", [row[1:] for row in LEAKS], ids=[row[0].replace(" ", "-") for row in LEAKS])
def test_each_named_input_gets_its_typed_error(call, error):
    with pytest.raises(error):
        call()
