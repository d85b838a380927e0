"""Named verification suites: every closed form against its independent oracle.

Each suite is a generator of (label, failed) pairs with deterministic labels
and ordering, so `verify --suite all` output is byte-stable across runs;
``failed`` names the case's equalities that did not hold, and is empty on a
pass.  Every equality of a case runs, under a name declared in :data:`CHECKS` (an undeclared name fails
its case).  An equality of two routes is ``_pair(name, left, right)``, whose sides ``tests/test_routes.py``
profiles to hold the name to two routes that share no code; any other is a self-check, with its reason there.
The suites are exactly the acceptance checks; the CLI and the tests run them here.

Corpus bounds (exact equality everywhere, no tolerances):

* main:     F(q,t) brute force == closed product, all 1<=m<=n<=5, all kept
            sets; the q=t=1 count against 2^(m(m+1)/2) * prod ratio; then
            both rank computations and the path-statistic identities on
            every tiling, m<=3, n<=5, all kept sets; bijection round trips.
* diamond:  the weighted-DP route against the diamond product for n<=6,
            DP counts 2^(n(n+1)/2) for n<=12, and DP == matching oracle on
            every corpus region (kernel equivalence).
* weighted: weighted closed form == matching generating function, m<=3,
            n<=5, all kept sets, three seeded rational draws each; and by
            the graph DP, one seeded kept set and draw for m<=6, m<=n<=12.
* lozenge:  semihexagon counts, the plane-partition bijection (round trip,
            weight preservation, bijectivity), the q-product, and the
            path-decomposition counts, m<=4, n<=8.
* relation: domino count == 2^(m(m+1)/2) * lozenge count, m<=4, n<=7.
* rewrite:  the three local rewrites against brute force on 50 seeded random
            graphs each; the row-reduction identity, whose two sides
            :func:`row_reduction_sides` builds here; the full peeling
            pipeline's factor against the closed-form target, its endpoint
            and the closed form, by the backtracker for m<=2, n<=3 and by
            the graph DP for m<=6, m<=n<=2m.

The library routes return only what they compute; every comparison between
two routes is made here, or at larger sizes by ``tests/at_scale.py``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache
from itertools import combinations

from . import formulas, lozenge, rewrite, stats
from .engine import count_tilings, enumerate_tilings, graph_genfun_dp, matching_genfun, tiling_genfun_dp
from .errors import AztecError
from .poly import LaurentPoly2, falling_ratio, q_ratio_product
from .regions import (
    WeightedGraph,
    aztec_diamond,
    aztec_rectangle_with_holes,
    dual_graph,
    face_weights,
    full_weighted_rectangle,
    semihexagon_with_dents,
    sq,
    weighted_ar_graph,
)


# every name an equality is checked under, in suite order
CHECKS = (
    "brute F vs closed F", "weighted-DP F vs closed F", "closed F at q = t = 1 vs count_product",
    "rank BFS vs rank via paths", "path statistic identities", "path bijection round trip",
    "minimal tiling identities", "weighted-DP F vs diamond product", "brute F vs weighted-DP F",
    "DP count vs diamond count", "oracle vs region DP, AR", "weighted closed form vs oracle",
    "weighted closed form vs graph DP", "search count vs q-ratio product", "cspp bijection round trip",
    "cspp bijection weight", "lozenge path identities", "cspp enumeration vs search count", "cspp bijection onto",
    "cspp enumeration vs cspp product", "semihexagon DP vs cspp product", "domino vs lozenge search count",
    "search count vs count_product", "vertex split identity", "star scaling identity", "renewal identity",
    "row reduction identity", "pipeline factor vs target", "pipeline start vs factor times endpoint",
    "pipeline endpoint vs weighted semihexagon", "pipeline start vs target times weighted semihexagon",
    "pipeline endpoint vs weighted semihexagon, both by the DP",
    "pipeline start vs target times weighted semihexagon, both by the DP",
)


def _pair(name, left, right):
    """The check ``name`` of two routes, each a zero-argument callable: (name, left() == right())."""
    return name, left() == right()


def _failed(checks):
    """The names of the (name, equal) ``checks`` that do not hold, each once, in order of first failure.
    A name missing from :data:`CHECKS` never holds."""
    return tuple(dict.fromkeys(name for name, equal in checks if not equal or name not in CHECKS))


def _ar_corpus(max_m, max_n):
    """Every (m, n, s) with m <= max_m, m <= n <= max_n and s a kept set, in lexicographic order."""
    for m in range(1, max_m + 1):
        for n in range(m, max_n + 1):
            for s in combinations(range(1, n + 1), m):
                yield m, n, s


# ---------------------------------------------------------------------------


def suite_main():
    yield from main_formula_cases()
    yield from suite_rank()


def main_formula_cases():
    """All three F(q,t) routes agree, plus the count specialization."""
    for m, n, s in _ar_corpus(5, 5):
        closed = cache(lambda: formulas.rectangle_genfun(m, n, s))
        yield f"main F(q,t) m={m} n={n} s={s}", _failed([
            _pair("brute F vs closed F", lambda: stats.genfun_bruteforce(m, n, s), closed),
            _pair("weighted-DP F vs closed F", lambda: stats.genfun_via_weights(m, n, s), closed),
            _pair("closed F at q = t = 1 vs count_product", lambda: closed().evaluate(1, 1),
                  lambda: formulas.count_product(m, s))])


def suite_rank():
    """Rank equivalence and path identities on every tiling, m<=3, n<=5."""
    for m, n, s in _ar_corpus(3, 5):
        region = aztec_rectangle_with_holes(m, n, s)
        checks, ranks, areas = [], [], []
        for tiling in enumerate_tilings(region):
            family = stats.tiling_to_paths(tiling)
            st = stats.path_stats(family)
            ranks.append(stats.rank_bfs(tiling))
            areas.append(st.area)
            checks += [
                _pair("rank BFS vs rank via paths", lambda: stats.rank_bfs(tiling),
                      lambda: stats.rank_via_paths(tiling)),
                ("path statistic identities", stats.vstat(tiling) + st.level_total == m * (m + 1) // 2),
                ("path statistic identities", all(st.up[i] - st.down[i] == s[i] - (i + 1) for i in range(m))),
                ("path statistic identities", all(st.down[i] + st.level[i] == i + 1 for i in range(m))),
                ("path bijection round trip", stats.paths_to_tiling(family, region) == tiling),
            ]
        t0 = stats.minimal_tiling(region)
        t0_area = stats.path_stats(stats.tiling_to_paths(t0)).area
        # the minimal tiling has rank 0 and the least area, and no other tiling has rank 0
        checks.append(("minimal tiling identities",
                       (stats.rank_bfs(t0), ranks.count(0), t0_area) == (0, 1, min(areas))))
        yield f"rank m={m} n={n} s={s}", _failed(checks)


def suite_diamond():
    """The weighted-DP route, plain DP counts, and kernel equivalence."""
    yield from diamond_genfun_cases()
    yield from diamond_count_cases()
    yield from kernel_cases()


def diamond_genfun_cases():
    for n in range(1, 7):
        s = tuple(range(1, n + 1))
        via = cache(lambda: stats.genfun_via_weights(n, n, s))
        checks = [_pair("weighted-DP F vs diamond product", via, lambda: formulas.aztec_diamond_genfun(n))]
        if n <= 4:
            checks.append(_pair("brute F vs weighted-DP F", lambda: stats.genfun_bruteforce(n, n, s), via))
        yield f"diamond genfun order {n}", _failed(checks)


def diamond_count_cases():
    for n in range(1, 13):
        yield f"diamond count order {n}", _failed([_pair(
            "DP count vs diamond count", lambda: tiling_genfun_dp(aztec_diamond(n)), lambda: 2 ** (n * (n + 1) // 2))])


def kernel_cases():
    """tiling_genfun_dp == matching_genfun(dual graph) on every corpus region."""
    rng = random.Random(424243)
    regions = [aztec_diamond(n) for n in range(1, 5)]
    regions += [aztec_rectangle_with_holes(m, n, s) for m, n, s in _ar_corpus(3, 5)]
    for region in regions:
        checks = [_pair("oracle vs region DP, AR", lambda: matching_genfun(dual_graph(region)).evaluate(1, 1),
                        lambda: tiling_genfun_dp(region))]
        rand_w = {d: LaurentPoly2.term(Fraction(rng.randint(1, 9)), q=rng.randint(0, 2), t=rng.randint(0, 1))
                  for d in region.all_dominoes}
        checks += [_pair("oracle vs region DP, AR", lambda: matching_genfun(dual_graph(region, w)),
                         lambda: tiling_genfun_dp(region, w)) for w in (stats.domino_weight, rand_w.__getitem__)]
        yield f"kernel {region.key}", _failed(checks)


def suite_weighted():
    """Closed weighted product == matching generating function, seeded draws:
    by the backtracker, then by the graph DP."""
    rng = random.Random(57721566)
    for m, n, s in _ar_corpus(3, 5):
        draws = [[Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(4)] for _ in range(3)]
        yield f"weighted m={m} n={n} s={s}", _failed([_pair(
            "weighted closed form vs oracle", lambda: formulas.weighted_rectangle_matching_genfun(m, n, s, *draw),
            lambda: matching_genfun(weighted_ar_graph(m, n, s, *draw))) for draw in draws])
    rng = random.Random(14142135)
    for m in range(1, 7):
        for n in range(m, 13):
            s = tuple(sorted(rng.sample(range(1, n + 1), m)))
            weights = tuple(Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(4))
            yield f"weighted dp m={m} n={n} s={s}", _failed([_pair(
                "weighted closed form vs graph DP", lambda: graph_genfun_dp(weighted_ar_graph(m, n, s, *weights)),
                lambda: formulas.weighted_rectangle_matching_genfun(m, n, s, *weights))])


def suite_lozenge():
    """Counts, bijection round trips, weight preservation, and the q-product."""
    for m, n, s in _ar_corpus(4, 8):
        region = semihexagon_with_dents(m, n - m, s)
        tilings = cache(lambda: list(lozenge.enumerate_lozenge_tilings(region)))
        checks = [_pair("search count vs q-ratio product", lambda: len(tilings()), ratio)
                  for ratio in (lambda: falling_ratio(s), lambda: q_ratio_product(s).evaluate(1, 1))]
        holes = [h for h in range(1, n + 1) if h not in set(s)]
        seen_pis = set()
        for tiling in tilings():
            pi = lozenge.tiling_to_cspp(tiling)
            seen_pis.add(pi.rows)
            left_weight = sum(level + 1 for kind, level in (lozenge.classify_lozenge(p, m) for p in tiling.dominoes)
                              if kind == lozenge.LEFT)
            decomp = lozenge.top_bottom_paths(tiling)
            checks += [
                ("cspp bijection round trip", lozenge.cspp_to_tiling(pi, region) == tiling),
                ("cspp bijection weight", left_weight == pi.size),
                ("lozenge path identities", [e for _, _, e in decomp] == holes),
                ("lozenge path identities", all(
                    lefts == m - (holes[j] - (j + 1)) and rights == holes[j] - (j + 1)
                    for j, (lefts, rights, _) in enumerate(decomp))),
            ]
        all_pis = cache(lambda: list(lozenge.enumerate_cspp(lozenge.cspp_shape(m, s), m)))
        product = cache(lambda: formulas.cspp_genfun_product(s, m))
        checks += [
            _pair("cspp enumeration vs search count", lambda: len(all_pis()), lambda: len(tilings())),
            ("cspp bijection onto", {pi.rows for pi in all_pis()} == seen_pis),
            _pair("cspp enumeration vs cspp product",
                  lambda: sum((pi.q_weight() for pi in all_pis()), LaurentPoly2.zero()), product),
            _pair("semihexagon DP vs cspp product", lambda: lozenge.semihex_q_genfun(region), product),
        ]
        yield f"lozenge m={m} n={n} s={s}", _failed(checks)


def suite_relation():
    """Domino count == 2^(m(m+1)/2) * lozenge count, both sides brute forced."""
    for m, n, s in _ar_corpus(4, 7):
        lhs = cache(lambda: count_tilings(aztec_rectangle_with_holes(m, n, s)))
        rhs = count_tilings(semihexagon_with_dents(m, n - m, s))
        yield f"relation m={m} n={n} s={s}", _failed([
            ("domino vs lozenge search count", lhs() == 2 ** (m * (m + 1) // 2) * rhs),
            _pair("search count vs count_product", lhs, lambda: formulas.count_product(m, s))])


# ---------------------------------------------------------------------------
# rewrites


def _random_weight(rng):
    return LaurentPoly2.term(Fraction(rng.randint(1, 12), rng.randint(1, 6)), q=rng.randint(0, 2))


def _random_graph(rng, nverts):
    """Random weighted graph with a guaranteed perfect matching skeleton."""
    edges = {(k, k + 1): _random_weight(rng) for k in range(0, nverts, 2)}
    for u, v in combinations(range(nverts), 2):
        if (u, v) not in edges and rng.random() < 0.35:
            edges[(u, v)] = _random_weight(rng)
    return WeightedGraph(range(nverts), edges)


def suite_rewrite():
    rng = random.Random(16180339)
    for case in range(50):
        g = _random_graph(rng, rng.randrange(6, 13, 2))
        v = rng.choice(g.vertices)
        half = {u for u in sorted(g.neighbors(v)) if rng.random() < 0.5}
        split = rewrite.vertex_split(g, {v: half})
        yield f"rewrite vertex_split case {case:02d}", _failed([
            ("vertex split identity", matching_genfun(split) == matching_genfun(g))])
    for case in range(50):
        g = _random_graph(rng, rng.randrange(6, 13, 2))
        v = rng.choice(g.vertices)
        factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = rewrite.star_scale(g, {v: factor})
        yield f"rewrite star_scale case {case:02d}", _failed([
            ("star scaling identity", matching_genfun(scaled) == matching_genfun(g) * factor)])
    for case in range(50):
        g, site = _random_spider_host(rng)
        replaced, (delta,) = rewrite.spider_replace(g, [site])
        yield f"rewrite spider case {case:02d}", _failed([
            ("renewal identity", matching_genfun(g) == delta * matching_genfun(replaced))])
    for m, n in ((1, 2), (1, 3), (2, 2), (2, 3)):
        draws = [[Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(4)] for _ in range(2)]
        sides = [row_reduction_sides(m, n, *draw) for draw in draws]
        yield f"rewrite row_reduction m={m} n={n}", _failed(("row reduction identity", x == y) for x, y in sides)
    yield from suite_pipeline()


def _path_gadget(count: int, parity_pad: bool) -> WeightedGraph:
    length = count + (1 if parity_pad else 0)
    verts = [("gadget", k) for k in range(1, length + 1)]
    edges = {(("gadget", k), ("gadget", k + 1)): LaurentPoly2.one() for k in range(1, length)}
    return WeightedGraph(verts, edges)


def row_reduction_sides(m: int, n: int, a, b, c, d):
    """Both sides of one row-elimination step, each by brute force.

    lhs is M of the full weighted rectangle graph glued along its southeast
    side ``sq(h, h-1)``, h = 1..n, to a path-graph gadget; rhs is
    (ad+bc)^m * q^(m(m-1)/2) times M of the one-row-shorter graph (a
    replaced by a*q) with its southeast side removed and pendant vertical
    edges, glued to the same gadget.  The gadget is padded by one
    vertex when m + n is odd so that both sides actually have matchings.
    """
    a, b, c, d = face_weights(a, b, c, d)
    left = full_weighted_rectangle(m, n, a, b, c, d)
    gadget = _path_gadget(n, (m + n) % 2 == 1)
    pairs = [(sq(k + 1, k), ("gadget", k + 1)) for k in range(n)]
    lhs = matching_genfun(rewrite.connected_sum(left, gadget, pairs))

    pegs = [("peg", k) for k in range(1, n + 1)]
    right = full_weighted_rectangle(m, n - 1, a.shift(dq=1), b, c, d).derive(
        drop=[sq(h, h - 1) for h in range(1, n)], vertices=pegs,
        edges=[((sq(k - 1, k - 1), peg), LaurentPoly2.one()) for k, peg in enumerate(pegs, 1)])
    pairs = [(peg, ("gadget", k)) for k, peg in enumerate(pegs, 1)]
    rhs_m = matching_genfun(rewrite.connected_sum(right, gadget, pairs))
    return lhs, ((a * d + b * c) ** m).shift(dq=m * (m - 1) // 2) * rhs_m


def _random_spider_host(rng):
    """A random graph with a renewal site glued onto four of its vertices, and the site's 4-cycle.

    The site, weight-1 legs from four plugs to a random 4-cycle, is glued on by
    :func:`~aztecgf.rewrite.connected_sum` after the host drops its edges between
    cyclically consecutive plugs, so the replacement never collides with an existing edge.
    """
    base = _random_graph(rng, rng.randrange(6, 11, 2))
    outer = rng.sample(base.vertices, 4)
    inner = [("inner", k) for k in range(4)]
    ring = [{outer[k - 1], outer[k]} for k in range(4)]
    host = WeightedGraph(base.vertices, [(e, w) for e, w in base.edge_items() if set(e) not in ring])
    site = WeightedGraph(outer + inner, {**dict.fromkeys(zip(outer, inner), LaurentPoly2.one()),
                                         **{(inner[k], inner[(k + 1) % 4]): _random_weight(rng) for k in range(4)}})
    return rewrite.connected_sum(host, site, zip(outer, outer)), tuple(inner)


def suite_pipeline():
    """The peeling chain, by the backtracker and then by the graph DP."""
    rng = random.Random(31415926)
    names = ("pipeline endpoint vs weighted semihexagon", "pipeline start vs target times weighted semihexagon",
             "weighted closed form vs oracle")
    for m, n, s in _ar_corpus(2, 3):
        draws = [(Fraction(1),) * 4, tuple(Fraction(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(4))]
        checks = [check for draw in draws for check in _chain(m, n, s, *draw, matching_genfun, names)]
        yield f"rewrite pipeline m={m} n={n} s={s}", _failed(checks)
    rng = random.Random(27182818)
    # the weighted semihexagon is summed by the region DP, so with the graph DP it checks the DP against itself
    names = ("pipeline endpoint vs weighted semihexagon, both by the DP",
             "pipeline start vs target times weighted semihexagon, both by the DP", "weighted closed form vs graph DP")
    for m in range(1, 7):
        for n in range(m, 2 * m + 1):
            s = tuple(sorted(rng.sample(range(1, n + 1), m)))
            draw = tuple(Fraction(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(4))
            yield f"rewrite pipeline dp m={m} n={n} s={s}", _failed(_chain(m, n, s, *draw, graph_genfun_dp, names))


def _chain(m, n, s, a, b, c, d, matchings, names):
    """The chain's equalities, each matching sum M computed by ``matchings``; ``names`` names the last three,
    which compare M with the weighted semihexagon's sum M~ and with the closed form."""
    res = cache(lambda: rewrite.reduce_rectangle_to_semihexagon(m, n, s, a, b, c, d))
    target = cache(lambda: formulas.peel_target_factor(m, a, b, c, d))
    start = cache(lambda: matchings(weighted_ar_graph(m, n, s, a, b, c, d)))
    final = cache(lambda: matchings(res().graph))
    m_tilde = cache(lambda: lozenge.weighted_sh_genfun(semihexagon_with_dents(m, n - m, s),
                                                       lambda k: LaurentPoly2.term(a, q=k + 1), b))
    return [_pair("pipeline factor vs target", lambda: res().factor, target),
            ("pipeline start vs factor times endpoint", start() == res().factor * final()),
            *map(_pair, names, (final, start, start), (m_tilde, lambda: target() * m_tilde(),
                 lambda: formulas.weighted_rectangle_matching_genfun(m, n, s, a, b, c, d)))]


SUITES = {"main": suite_main, "diamond": suite_diamond, "weighted": suite_weighted, "lozenge": suite_lozenge,
          "relation": suite_relation, "rewrite": suite_rewrite}


def run_suite(name, out):
    """Print one PASS/FAIL line per case of suite ``name``, or of every suite
    in order for "all", a FAIL line naming the checks that failed, and one FAIL
    line for a suite that raises an AztecError, whose later cases do not run;
    return the number of failures."""
    failures = 0
    for key in SUITES if name == "all" else (name,):
        try:
            for label, failed in SUITES[key]():
                out.write(f"FAIL  {label}  ({', '.join(failed)})\n" if failed else f"PASS  {label}\n")
                failures += bool(failed)
        except AztecError as exc:
            out.write(f"FAIL  {key}: {type(exc).__name__}: {exc}; the rest of suite {key} did not run\n")
            failures += 1
    return failures
