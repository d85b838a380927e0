"""Route independence: the two sides of every cross-check share no route code.

Each name that the ``verify`` suites check an equality under, as declared in
``verify.CHECKS``, is either a pairing of routes in ``PAIRS`` or a
self-check in ``SELF_CHECKS``, with its reason.  Each pair is run here side
by side under ``sys.setprofile``, on AR(3, 5; 1, 3, 4) and SH(3, 2; 1, 3, 5).
Each side collects the functions of ``engine``, ``formulas``, ``lozenge``,
``rewrite`` and ``stats`` that it calls; ``regions``, ``poly`` and ``errors``
(the region builders, the exact arithmetic and the error types, which every
route stands on) are left out.  The functions both sides call must be
exactly that pair's allowlist, each entry with the reason it does not let
one route check the other.  A merge that routes one side through the other
adds a shared function and fails here.
"""

import importlib.util
import random
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from aztecgf import engine, formulas, lozenge, rewrite, stats, verify
from aztecgf.poly import LaurentPoly2, falling_ratio, q_ratio_product
from aztecgf.regions import (aztec_diamond, aztec_rectangle_with_holes, dual_graph, semihexagon_with_dents,
                             weighted_ar_graph)

AR = (3, 5, (1, 3, 4))  # m, n and the kept positions
SH = (3, 2, (1, 3, 5))  # a, b and the dents
DRAW = (Fraction(2, 3), Fraction(5, 4), Fraction(3, 7), Fraction(1, 2))  # face weights a, b, c, d
MODULES = (engine, formulas, lozenge, rewrite, stats)


def _names():
    """Code object -> ``module.qualname`` for every function and method that
    ``MODULES`` define at their top level.  Nested helpers run only inside
    one of these, so leaving them out loses no pairing."""
    names = {}
    for module in MODULES:
        short = module.__name__.rsplit(".", 1)[1]
        for obj in vars(module).values():
            for member in vars(obj).values() if isinstance(obj, type) else (obj,):
                for fn in (member, getattr(member, "fget", None), getattr(member, "__func__", None),
                           getattr(member, "__wrapped__", None)):
                    if hasattr(fn, "__code__") and fn.__module__ == module.__name__:
                        names[fn.__code__] = f"{short}.{fn.__qualname__}"
    return names


NAMES = _names()


def ar():
    return aztec_rectangle_with_holes(*AR)


def sh():
    return semihexagon_with_dents(*SH)


@pytest.fixture(scope="module")
def inputs():
    """Inputs that a side takes ready-made, built outside the profile."""
    return {"tiling": next(islice(engine.enumerate_tilings(ar()), 100, None)),
            "final": rewrite.reduce_rectangle_to_semihexagon(*AR, *DRAW).graph}


def calls(side, inputs):
    """The named functions that ``side(inputs)`` calls, run with cold caches."""
    for module in MODULES:
        for obj in vars(module).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()
    seen = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in NAMES:
            seen.add(NAMES[frame.f_code])

    sys.setprofile(profile)
    try:
        side(inputs)
    finally:
        sys.setprofile(None)
    return seen


def cspp_sum(inputs):
    m, _, s = SH
    total = LaurentPoly2.zero()
    for pi in lozenge.enumerate_cspp(lozenge.cspp_shape(m, s), m):
        total = total + pi.q_weight()
    return total


def sh_left_weight(level):
    return LaurentPoly2.term(DRAW[0], q=level + 1)


def kernel_sums():
    """The sums ``verify.kernel_cases`` asks of both kernels: the plain count, the domino
    weights and seeded random weights, on a diamond and on AR."""
    rng = random.Random(424243)
    for region in (aztec_diamond(2), ar()):
        rand_w = {d: LaurentPoly2.term(Fraction(rng.randint(1, 9)), q=rng.randint(0, 2), t=rng.randint(0, 1))
                  for d in region.all_dominoes}
        yield from ((region, w) for w in (None, stats.domino_weight, rand_w.__getitem__))


def target_times_sh(inputs):
    return formulas.peel_target_factor(AR[0], *DRAW) * lozenge.weighted_sh_genfun(sh(), sh_left_weight, DRAW[1])


# name -> (one side, the other side, {function both call: why that is harmless})
PAIRS = {
    "brute F vs closed F": (
        lambda x: stats.genfun_bruteforce(*AR), lambda x: formulas.rectangle_genfun(*AR), {}),
    "weighted-DP F vs closed F": (
        lambda x: stats.genfun_via_weights(*AR), lambda x: formulas.rectangle_genfun(*AR), {}),
    "brute F vs weighted-DP F": (
        lambda x: stats.genfun_bruteforce(*AR), lambda x: stats.genfun_via_weights(*AR), {}),
    "weighted-DP F vs diamond product": (
        lambda x: stats.genfun_via_weights(3, 3, (1, 2, 3)), lambda x: formulas.aztec_diamond_genfun(3), {}),
    "closed F at q = t = 1 vs count_product": (
        lambda x: formulas.rectangle_genfun(*AR).evaluate(1, 1), lambda x: formulas.count_product(AR[0], AR[2]), {
            "formulas.count_product": "the closed F reads it only for its slot width; too small a count garbles F",
        }),
    "search count vs DP count, AR": (
        lambda x: engine.count_tilings(ar()), lambda x: engine.tiling_genfun_dp(ar()), {}),
    "search count vs DP count, SH": (
        lambda x: engine.count_tilings(sh()), lambda x: engine.tiling_genfun_dp(sh()), {}),
    "search count vs count_product": (
        lambda x: engine.count_tilings(ar()), lambda x: formulas.count_product(AR[0], AR[2]), {}),
    "DP count vs diamond count": (
        lambda x: engine.tiling_genfun_dp(aztec_diamond(3)), lambda x: 2 ** (3 * 4 // 2), {}),
    "search count vs q-ratio product": (
        lambda x: len(list(lozenge.enumerate_lozenge_tilings(sh()))),
        lambda x: (falling_ratio(SH[2]), q_ratio_product(SH[2]).evaluate(1, 1)), {}),
    "semihexagon DP vs cspp product": (
        lambda x: lozenge.semihex_q_genfun(sh()), lambda x: formulas.cspp_genfun_product(SH[2], SH[0]), {}),
    "cspp enumeration vs cspp product": (
        cspp_sum, lambda x: formulas.cspp_genfun_product(SH[2], SH[0]), {}),
    "cspp enumeration vs search count": (
        lambda x: len(list(lozenge.enumerate_cspp(lozenge.cspp_shape(SH[0], SH[2]), SH[0]))),
        lambda x: len(list(lozenge.enumerate_lozenge_tilings(sh()))), {}),
    "oracle vs region DP, AR": (
        lambda x: [engine.matching_genfun(dual_graph(region, w)) for region, w in kernel_sums()],
        lambda x: [engine.tiling_genfun_dp(region, w) for region, w in kernel_sums()], {
            "stats.domino_weight": "the weight both sides are asked to sum, not a route",
        }),
    "oracle vs region DP, SH": (
        lambda x: engine.matching_genfun(dual_graph(sh())), lambda x: engine.tiling_genfun_dp(sh()), {}),
    "oracle vs graph DP": (
        lambda x: engine.matching_genfun(weighted_ar_graph(*AR, *DRAW)),
        lambda x: engine.graph_genfun_dp(weighted_ar_graph(*AR, *DRAW)), {}),
    "weighted closed form vs oracle": (
        lambda x: formulas.weighted_rectangle_matching_genfun(*AR, *DRAW),
        lambda x: engine.matching_genfun(weighted_ar_graph(*AR, *DRAW)), {}),
    "weighted closed form vs graph DP": (
        lambda x: formulas.weighted_rectangle_matching_genfun(*AR, *DRAW),
        lambda x: engine.graph_genfun_dp(weighted_ar_graph(*AR, *DRAW)), {}),
    "rank BFS vs rank via paths": (
        lambda x: stats.rank_bfs(x["tiling"]), lambda x: stats.rank_via_paths(x["tiling"]), {
            "stats.SchroderPathFamily._checked": "each family is validated where it is built: the BFS starts "
                                                 "from the minimal path family, the path rank from the tiling's "
                                                 "own paths",
        }),
    "pipeline factor vs target": (
        lambda x: rewrite.reduce_rectangle_to_semihexagon(*AR, *DRAW).factor,
        lambda x: formulas.peel_target_factor(AR[0], *DRAW), {}),
    "pipeline endpoint vs weighted semihexagon": (
        lambda x: engine.matching_genfun(x["final"]),
        lambda x: lozenge.weighted_sh_genfun(sh(), sh_left_weight, DRAW[1]), {}),
    "pipeline start vs target times weighted semihexagon": (
        lambda x: engine.matching_genfun(weighted_ar_graph(*AR, *DRAW)), target_times_sh, {}),
}

REWRITE = "one oracle before and after a rewrite, since the rewrite is what it tests"
BY_THE_DP = ("the weighted semihexagon is summed by the region DP, so with the graph DP both sides run "
             "engine._genfun_dp; the backtracker's pipeline lines make the same comparison as a pair")
# name -> why it compares one route with itself on purpose
SELF_CHECKS = {
    "path statistic identities": "identities among the statistics of the one path family tiling_to_paths reads",
    "path bijection round trip": "tiling_to_paths then paths_to_tiling: the bijection is what it tests",
    "minimal tiling identities": "the minimal tiling's rank and area against every other tiling's, by the same "
                                 "routes; the rank routes meet as a pair in 'rank BFS vs rank via paths'",
    "cspp bijection round trip": "tiling_to_cspp then cspp_to_tiling: the bijection is what it tests",
    "cspp bijection weight": "a tiling's left lozenges against the size of the partition the bijection maps it to",
    "cspp bijection onto": "the bijection's image against every partition of its shape; the two counts meet as a "
                           "pair in 'cspp enumeration vs search count'",
    "lozenge path identities": "the path decomposition of a tiling against the region's own dents and sizes",
    "domino vs lozenge search count": "the search counts both lattices that the relation joins; each side meets a "
                                      "product as a pair",
    "vertex split identity": REWRITE,
    "star scaling identity": REWRITE,
    "renewal identity": REWRITE,
    "row reduction identity": REWRITE,
    "pipeline start vs factor times endpoint": REWRITE + ": the whole peeling chain",
    "pipeline endpoint vs weighted semihexagon, both by the DP": BY_THE_DP,
    "pipeline start vs target times weighted semihexagon, both by the DP": BY_THE_DP,
}


@pytest.mark.parametrize("name", PAIRS)
def test_routes_share_only_allowlisted_functions(name, inputs):
    left, right, allowed = PAIRS[name]
    assert calls(left, inputs) & calls(right, inputs) == set(allowed)


def test_a_merged_route_is_caught(monkeypatch, inputs):
    # a search count computed by the DP it is checked against
    assert {"engine.count_tilings", "engine._matchings"} <= calls(PAIRS["search count vs DP count, AR"][0], inputs)
    monkeypatch.setattr(engine, "count_tilings", engine.tiling_genfun_dp)
    left, right, _ = PAIRS["search count vs DP count, AR"]
    assert {"engine.tiling_genfun_dp", "engine._genfun_dp"} <= calls(left, inputs) & calls(right, inputs)


def test_every_verify_check_is_a_pair_or_a_self_check():
    assert len(set(verify.CHECKS)) == len(verify.CHECKS)
    assert set(verify.CHECKS) <= set(PAIRS) | set(SELF_CHECKS)
    assert not set(PAIRS) & set(SELF_CHECKS)


def test_the_at_scale_rows_are_the_golden_lines_and_declare_their_names():
    # the script's table, read without running a check: its labels in order are the golden file's lines, and each
    # name it uses is a verify check, or a byte pin, with its reason, on a row that compares a digest
    spec = importlib.util.spec_from_file_location("at_scale", Path(__file__).with_name("at_scale.py"))
    spec.loader.exec_module(at_scale := importlib.util.module_from_spec(spec))
    golden = Path(__file__).with_name("data").joinpath("at_scale.txt").read_text().splitlines()
    assert [f"PASS  {label}" for label in at_scale.LABELS] == golden
    pinned = {name for names, _, _, other in at_scale.ROWS if other.startswith("sha256 ") for name in names}
    paired = {name for names, _, _, other in at_scale.ROWS if not other.startswith("sha256 ") for name in names}
    assert pinned == set(at_scale.PINS) and all(at_scale.PINS.values())
    assert paired <= set(verify.CHECKS) and not pinned & set(verify.CHECKS)


def test_the_graph_dp_pipeline_self_checks_share_the_dp(inputs):
    # measured, so the reason BY_THE_DP stays true: a split of the two DPs would make these pairs
    endpoint = calls(lambda x: engine.graph_genfun_dp(x["final"]), inputs)
    start = calls(lambda x: engine.graph_genfun_dp(weighted_ar_graph(*AR, *DRAW)), inputs)
    semihexagon = calls(target_times_sh, inputs)
    assert {"engine._genfun_dp", "engine._sweep"} <= endpoint & semihexagon & start


def test_a_wrong_closed_f_fails_exactly_its_three_pairs(monkeypatch):
    closed = formulas.rectangle_genfun
    monkeypatch.setattr(formulas, "rectangle_genfun", lambda m, n, s: closed(m, n, s) + LaurentPoly2.one())
    assert [failed for _, failed in islice(verify.main_formula_cases(), 4)] == 4 * [(
        "brute F vs closed F", "weighted-DP F vs closed F", "closed F at q = t = 1 vs count_product")]


def test_a_check_under_an_undeclared_name_fails_its_case(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", tuple(c for c in verify.CHECKS if c != "weighted-DP F vs closed F"))
    assert next(verify.main_formula_cases()) == ("main F(q,t) m=1 n=1 s=(1,)", ("weighted-DP F vs closed F",))
