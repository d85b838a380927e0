"""Route independence: the two sides of every cross-check share no route code.

Each pairing of routes that the ``verify`` suites compare is run here side
by side under ``sys.setprofile``, on AR(3, 5; 1, 3, 4) and SH(3, 2; 1, 3, 5).
Each side collects the functions of ``engine``, ``formulas``, ``lozenge``,
``rewrite`` and ``stats`` that it calls; ``regions``, ``poly`` and ``errors``
(the region builders, the exact arithmetic and the error types, which every
route stands on) are left out.  The functions both sides call must be
exactly that pair's allowlist, each entry with the reason it does not let
one route check the other.  A merge that routes one side through the other
adds a shared function and fails here.

Checks that compare one route with itself on purpose are not pairs: the
relation suite counts both of its sides by the search, and the rewrite
identities (vertex split, star scaling, renewal, row reduction) run one
oracle before and after a rewrite, since the rewrite is what they test.
"""

import sys
from fractions import Fraction
from itertools import islice

import pytest

from aztecgf import engine, formulas, lozenge, rewrite, stats
from aztecgf.poly import LaurentPoly2, falling_ratio, q_ratio_product
from aztecgf.regions import aztec_rectangle_with_holes, dual_graph, semihexagon_with_dents, weighted_ar_graph

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


# name -> (one side, the other side, {function both call: why that is harmless})
PAIRS = {
    "brute F vs closed F": (
        lambda x: stats.genfun_bruteforce(*AR), lambda x: formulas.rectangle_genfun(*AR), {
            "formulas.count_product": "the brute side reads it only to refuse a region too big to enumerate",
        }),
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
    "search count vs q-ratio product": (
        lambda x: engine.count_tilings(sh()),
        lambda x: (falling_ratio(SH[2]), q_ratio_product(SH[2]).evaluate(1, 1)), {}),
    "semihexagon DP vs cspp product": (
        lambda x: lozenge.semihex_q_genfun(sh()), lambda x: formulas.cspp_genfun_product(SH[2], SH[0]), {}),
    "cspp enumeration vs cspp product": (
        cspp_sum, lambda x: formulas.cspp_genfun_product(SH[2], SH[0]), {}),
    "oracle vs region DP, AR": (
        lambda x: engine.matching_genfun(dual_graph(ar(), stats.domino_weight)),
        lambda x: engine.tiling_genfun_dp(ar(), stats.domino_weight), {
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
