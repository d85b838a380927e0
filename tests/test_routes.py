"""Route independence: the two sides of every cross-check share no route code.

Each name in ``verify.CHECKS`` is a pairing of routes in ``PAIRS`` or a self-check in ``SELF_CHECKS``, with its
reason.  ``verify`` checks a pair as ``_pair(name, left, right)``, each side a zero-argument callable; here
``_pair`` also runs both sides under ``sys.setprofile`` while ``WALKS`` walks each suite to its named cases,
AR(3, 5; 1, 3, 4), SH(3, 2; 1, 3, 5) or the nearest.  A side collects the functions of ``MODULES`` it calls:
``regions``, ``poly`` and ``errors``, the builders, arithmetic and error types every route stands on, are left out.
The functions both sides of a name's pairs call must be its allowlist, each entry with why it does not let one route
check the other, so a merge of one side into the other fails here.  ``TIER1_PAIRS`` holds the pairs no ``verify``
check makes, each with the tier-1 test that compares them.
"""

import ast
import importlib.util
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path

import pytest

from aztecgf import engine, formulas, lozenge, rewrite, stats, verify
from aztecgf.poly import LaurentPoly2
from aztecgf.regions import aztec_rectangle_with_holes, dual_graph, semihexagon_with_dents, weighted_ar_graph

MODULES = (engine, formulas, lozenge, rewrite, stats)
LABELS = [line.removeprefix("PASS  ") for line in
          Path(__file__).with_name("data").joinpath("verify_all.txt").read_text().splitlines()]


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


def calls(side):
    """The named functions that ``side()`` calls, run with cold caches: the modules', and those of ``side`` and of
    the values it closes over, which hold what several checks of a case compute once."""
    closure = [cell.cell_contents for cell in getattr(side, "__closure__", None) or ()]
    for obj in (side, *closure, *(value for module in MODULES for value in vars(module).values())):
        if hasattr(obj, "cache_clear"):
            obj.cache_clear()
    seen = set()

    def hook(frame, event, arg):
        if event == "call" and frame.f_code in NAMES:
            seen.add(NAMES[frame.f_code])

    sys.setprofile(hook)
    try:
        side()
    finally:
        sys.setprofile(None)
    return seen


def profile(cases, *labels):
    """Name -> the functions that both sides of its pairs call in the cases ``labels`` of ``cases()``.  Each pair is
    profiled while its case runs: a side that a loop builds reads the loop's values, which move on once it yields."""
    shared, before, on = {}, {LABELS[LABELS.index(label) - 1] for label in labels}, False
    check = verify._pair

    def pair(name, left, right):
        if on:
            shared.setdefault(name, set()).update(calls(left) & calls(right))
        return check(name, left, right)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(verify, "_pair", pair)
        for label, _ in cases():
            if label == labels[-1]:
                return shared
            on = label in before


# the verify cases whose pairs are profiled, after the function that yields them
WALKS = (
    (verify.main_formula_cases, "main F(q,t) m=3 n=5 s=(1, 3, 4)"),
    (verify.suite_rank, "rank m=2 n=3 s=(1, 3)"),  # with cold caches each tiling's rank takes a whole BFS
    (verify.diamond_genfun_cases, "diamond genfun order 3"),
    (verify.diamond_count_cases, "diamond count order 3"),
    (verify.kernel_cases, "kernel ('aztec_rectangle', 3, 5, (1, 3, 4))"),
    (verify.suite_weighted, "weighted m=3 n=5 s=(1, 3, 4)", "weighted dp m=3 n=5 s=(1, 2, 3)"),
    (verify.suite_lozenge, "lozenge m=3 n=5 s=(1, 3, 5)"),
    (verify.suite_relation, "relation m=3 n=5 s=(1, 3, 4)"),
    (verify.suite_pipeline, "rewrite pipeline m=2 n=3 s=(1, 3)", "rewrite pipeline dp m=3 n=5 s=(2, 4, 5)"),
)

# name -> {function both sides call: why that is harmless}
PAIRS = dict.fromkeys((
    "brute F vs closed F", "weighted-DP F vs closed F", "brute F vs weighted-DP F", "weighted-DP F vs diamond product",
    "search count vs count_product", "DP count vs diamond count", "search count vs q-ratio product",
    "semihexagon DP vs cspp product", "cspp enumeration vs cspp product", "cspp enumeration vs search count",
    "weighted closed form vs oracle", "weighted closed form vs graph DP", "pipeline factor vs target",
    "pipeline endpoint vs weighted semihexagon", "pipeline start vs target times weighted semihexagon"), {}) | {
    "closed F at q = t = 1 vs count_product": {
        "formulas.count_product": "the closed F reads it only for its slot width; too small a count garbles F"},
    "oracle vs region DP, AR": {"stats.domino_weight": "the weight both sides are asked to sum, not a route"},
    "rank BFS vs rank via paths": {
        "stats.SchroderPathFamily._checked": "each family is validated where it is built: the BFS starts from the "
                                             "minimal path family, the path rank from the tiling's own paths"},
}

AR, SH = aztec_rectangle_with_holes(3, 5, (1, 3, 4)), semihexagon_with_dents(3, 2, (1, 3, 5))
GRAPH = weighted_ar_graph(3, 5, (1, 3, 4), Fraction(2, 3), Fraction(5, 4), Fraction(3, 7), Fraction(1, 2))
# name -> (the tier-1 test that compares its two routes, one side, the other side): pairs that no verify check makes,
# each with no function shared
TIER1_PAIRS = {
    "search count vs DP count, AR": ("test_engine.py::test_backtracker_equals_dp_on_random_ragged_regions",
                                     lambda: engine.count_tilings(AR), lambda: engine.tiling_genfun_dp(AR)),
    "search count vs DP count, SH": ("test_lozenge.py::test_semihexagon_count_equals_ratio_product_on_random_dents",
                                     lambda: engine.count_tilings(SH), lambda: engine.tiling_genfun_dp(SH)),
    "oracle vs region DP, SH": ("test_engine.py::test_dp_equals_oracle_with_weights",
                                lambda: engine.matching_genfun(dual_graph(SH)), lambda: engine.tiling_genfun_dp(SH)),
    "oracle vs graph DP": ("test_engine.py::test_graph_dp_equals_oracle_on_random_graphs",
                           lambda: engine.matching_genfun(GRAPH), lambda: engine.graph_genfun_dp(GRAPH)),
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
    **dict.fromkeys(("vertex split identity", "star scaling identity", "renewal identity", "row reduction identity"),
                    REWRITE),
    "pipeline start vs factor times endpoint": REWRITE + ": the whole peeling chain",
    "pipeline endpoint vs weighted semihexagon, both by the DP": BY_THE_DP,
    "pipeline start vs target times weighted semihexagon, both by the DP": BY_THE_DP,
}


@pytest.fixture(scope="module")
def shared():
    """Name -> the functions that both sides of its pairs call, in every case of ``WALKS`` and ``TIER1_PAIRS``."""
    shared = {name: calls(left) & calls(right) for name, (_, left, right) in TIER1_PAIRS.items()}
    for walk in WALKS:
        for name, functions in profile(*walk).items():
            shared.setdefault(name, set()).update(functions)
    return shared


@pytest.mark.parametrize("name", [*PAIRS, *TIER1_PAIRS])
def test_routes_share_only_allowlisted_functions(name, shared):
    assert shared[name] == set(PAIRS.get(name, {}))


def test_a_merged_route_is_caught(monkeypatch):
    # the closed F computed by the weighted DP it is checked against
    monkeypatch.setattr(formulas, "rectangle_genfun", stats.genfun_via_weights)
    shared = profile(verify.main_formula_cases, "main F(q,t) m=1 n=2 s=(2,)")
    assert {"stats.genfun_via_weights", "engine._genfun_dp"} <= shared["weighted-DP F vs closed F"]


def test_a_merge_on_the_lozenge_search_or_a_kernel_side_is_caught(monkeypatch):
    # the q-ratio product counted by the lozenge search that verify's own search side runs, not count_tilings
    monkeypatch.setattr(verify, "falling_ratio", lambda s: len(list(lozenge.enumerate_lozenge_tilings(SH))))
    shared = profile(verify.suite_lozenge, "lozenge m=1 n=2 s=(2,)")
    assert "lozenge.enumerate_lozenge_tilings" in shared["search count vs q-ratio product"]
    # the DP side of the plain count, then of the random weights, summed by the oracle: each side is profiled, not
    # only the domino weights'
    dp = engine.tiling_genfun_dp
    for merged in (lambda w: w is None, lambda w: w not in (None, stats.domino_weight)):
        monkeypatch.setattr(verify, "tiling_genfun_dp", lambda region, w=None: (
            engine.matching_genfun(dual_graph(region, w)) if merged(w) else dp(region, w)))
        shared = profile(verify.kernel_cases, "kernel ('aztec_diamond', 2)")
        assert "engine.matching_genfun" in shared["oracle vs region DP, AR"]


def test_the_graph_dp_pipeline_self_checks_share_the_dp(shared):
    # measured, so the reason BY_THE_DP stays true: a split of the two DPs would make these pairs
    for name in (name for name, why in SELF_CHECKS.items() if why == BY_THE_DP):
        assert {"engine._genfun_dp", "engine._sweep"} <= shared[name]


def test_every_verify_check_is_a_pair_or_a_self_check():
    assert len(set(verify.CHECKS)) == len(verify.CHECKS)
    assert set(verify.CHECKS) == set(PAIRS) | set(SELF_CHECKS)
    assert not set(PAIRS) & set(SELF_CHECKS) and not set(TIER1_PAIRS) & set(verify.CHECKS)
    for path, name in (test.split("::") for test, _, _ in TIER1_PAIRS.values()):  # each names a tier-1 test
        tree = ast.parse(Path(__file__).with_name(path).read_text())
        assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


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


def test_a_wrong_closed_f_fails_exactly_its_three_pairs(monkeypatch):
    closed = formulas.rectangle_genfun
    monkeypatch.setattr(formulas, "rectangle_genfun", lambda m, n, s: closed(m, n, s) + LaurentPoly2.one())
    assert [failed for _, failed in islice(verify.main_formula_cases(), 4)] == 4 * [(
        "brute F vs closed F", "weighted-DP F vs closed F", "closed F at q = t = 1 vs count_product")]


def test_a_check_under_an_undeclared_name_fails_its_case(monkeypatch):
    monkeypatch.setattr(verify, "CHECKS", tuple(c for c in verify.CHECKS if c != "weighted-DP F vs closed F"))
    assert next(verify.main_formula_cases()) == ("main F(q,t) m=1 n=1 s=(1,)", ("weighted-DP F vs closed F",))
