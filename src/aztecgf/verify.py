"""Named verification suites: every closed form against its independent oracle.

Each suite is a generator of (label, ok) pairs with deterministic labels and
ordering, so `verify --suite all` output is byte-stable across runs.  The
suites are exactly the acceptance checks; the CLI and the test suite both
run them from here.

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
two routes is made here.
"""

from __future__ import annotations

import random
from fractions import Fraction
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
        brute = stats.genfun_bruteforce(m, n, s)
        closed = formulas.rectangle_genfun(m, n, s)
        via = stats.genfun_via_weights(m, n, s)
        ok = (
            brute == closed
            and via == closed
            and closed.evaluate(1, 1) == formulas.count_product(m, s)
        )
        yield f"main F(q,t) m={m} n={n} s={s}", ok


def suite_rank():
    """Rank equivalence and path identities on every tiling, m<=3, n<=5."""
    for m, n, s in _ar_corpus(3, 5):
        region = aztec_rectangle_with_holes(m, n, s)
        t0 = stats.minimal_tiling(region)
        ok = stats.rank_bfs(t0) == 0
        min_area = None
        zero_rank = 0
        for tiling in enumerate_tilings(region):
            family = stats.tiling_to_paths(tiling)
            st = stats.path_stats(family)
            r_bfs = stats.rank_bfs(tiling)
            r_paths = stats.rank_via_paths(tiling)
            if r_bfs == 0:
                zero_rank += 1
            ok = ok and r_bfs == r_paths
            ok = ok and stats.vstat(tiling) + st.level_total == m * (m + 1) // 2
            ok = ok and all(
                st.up[i] - st.down[i] == s[i] - (i + 1) for i in range(m)
            )
            ok = ok and all(st.down[i] + st.level[i] == i + 1 for i in range(m))
            ok = ok and stats.paths_to_tiling(family, region) == tiling
            if min_area is None or st.area < min_area:
                min_area = st.area
        t0_area = stats.path_stats(stats.tiling_to_paths(t0)).area
        ok = ok and zero_rank == 1 and t0_area == min_area
        yield f"rank m={m} n={n} s={s}", ok


def suite_diamond():
    """The weighted-DP route, plain DP counts, and kernel equivalence."""
    yield from diamond_genfun_cases()
    yield from diamond_count_cases()
    yield from kernel_cases()


def diamond_genfun_cases():
    for n in range(1, 7):
        s = tuple(range(1, n + 1))
        via = stats.genfun_via_weights(n, n, s)
        ok = via == formulas.aztec_diamond_genfun(n)
        if n <= 4:
            ok = ok and via == stats.genfun_bruteforce(n, n, s)
        yield f"diamond genfun order {n}", ok


def diamond_count_cases():
    for n in range(1, 13):
        count = tiling_genfun_dp(aztec_diamond(n))
        yield f"diamond count order {n}", count == 2 ** (n * (n + 1) // 2)


def kernel_cases():
    """tiling_genfun_dp == matching_genfun(dual graph) on every corpus region."""
    rng = random.Random(424243)
    regions = [aztec_diamond(n) for n in range(1, 5)]
    regions += [
        aztec_rectangle_with_holes(m, n, s) for m, n, s in _ar_corpus(3, 5)
    ]
    for region in regions:
        ok = tiling_genfun_dp(region) == matching_genfun(dual_graph(region)).evaluate(1, 1)
        rand_w = {
            d: LaurentPoly2.term(Fraction(rng.randint(1, 9)), q=rng.randint(0, 2), t=rng.randint(0, 1))
            for d in region.all_dominoes
        }
        for weight in (stats.domino_weight, rand_w.__getitem__):
            ok = ok and tiling_genfun_dp(region, weight) == matching_genfun(dual_graph(region, weight))
        yield f"kernel {region.key}", ok


def suite_weighted():
    """Closed weighted product == matching generating function, seeded draws:
    by the backtracker, then by the graph DP."""
    rng = random.Random(57721566)
    for m, n, s in _ar_corpus(3, 5):
        ok = True
        for _ in range(3):
            a, b, c, d = (
                Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(4)
            )
            closed = formulas.weighted_rectangle_matching_genfun(m, n, s, a, b, c, d)
            direct = matching_genfun(weighted_ar_graph(m, n, s, a, b, c, d))
            ok = ok and closed == direct
        yield f"weighted m={m} n={n} s={s}", ok
    rng = random.Random(14142135)
    for m in range(1, 7):
        for n in range(m, 13):
            s = tuple(sorted(rng.sample(range(1, n + 1), m)))
            weights = tuple(Fraction(rng.randint(1, 20), rng.randint(1, 20)) for _ in range(4))
            ok = (graph_genfun_dp(weighted_ar_graph(m, n, s, *weights))
                  == formulas.weighted_rectangle_matching_genfun(m, n, s, *weights))
            yield f"weighted dp m={m} n={n} s={s}", ok


def suite_lozenge():
    """Counts, bijection round trips, weight preservation, and the q-product."""
    for m, n, s in _ar_corpus(4, 8):
        region = semihexagon_with_dents(m, n - m, s)
        tilings = list(lozenge.enumerate_lozenge_tilings(region))
        ratio = falling_ratio(s)
        ok = len(tilings) == ratio == q_ratio_product(s).evaluate(1, 1)
        holes = [h for h in range(1, n + 1) if h not in set(s)]
        seen_pis = set()
        for tiling in tilings:
            pi = lozenge.tiling_to_cspp(tiling)
            seen_pis.add(pi.rows)
            ok = ok and lozenge.cspp_to_tiling(pi, region) == tiling
            left_weight = sum(
                level + 1
                for pair in tiling.dominoes
                for kind, level in (lozenge.classify_lozenge(pair, m),)
                if kind == lozenge.LEFT
            )
            ok = ok and left_weight == pi.size
            decomp = lozenge.top_bottom_paths(tiling)
            ok = ok and [e for _, _, e in decomp] == holes
            ok = ok and all(
                lefts == m - (holes[j] - (j + 1)) and rights == holes[j] - (j + 1)
                for j, (lefts, rights, _) in enumerate(decomp)
            )
        shape = lozenge.cspp_shape(m, s)
        all_pis = list(lozenge.enumerate_cspp(shape, m))
        ok = ok and len(all_pis) == len(tilings)
        ok = ok and {pi.rows for pi in all_pis} == seen_pis
        q_sum = LaurentPoly2.zero()
        for pi in all_pis:
            q_sum = q_sum + pi.q_weight()
        product = formulas.cspp_genfun_product(s, m)
        ok = ok and q_sum == product
        ok = ok and lozenge.semihex_q_genfun(region) == product
        yield f"lozenge m={m} n={n} s={s}", ok


def suite_relation():
    """Domino count == 2^(m(m+1)/2) * lozenge count, both sides brute forced."""
    for m, n, s in _ar_corpus(4, 7):
        lhs = count_tilings(aztec_rectangle_with_holes(m, n, s))
        rhs = count_tilings(semihexagon_with_dents(m, n - m, s))
        ok = lhs == 2 ** (m * (m + 1) // 2) * rhs == formulas.count_product(m, s)
        yield f"relation m={m} n={n} s={s}", ok


# ---------------------------------------------------------------------------
# rewrites


def _random_weight(rng):
    return LaurentPoly2.term(
        Fraction(rng.randint(1, 12), rng.randint(1, 6)), q=rng.randint(0, 2)
    )


def _random_graph(rng, nverts):
    """Random weighted graph with a guaranteed perfect matching skeleton."""
    verts = list(range(nverts))
    edges = {}
    for k in range(0, nverts, 2):
        edges[(k, k + 1)] = _random_weight(rng)
    for u in range(nverts):
        for v in range(u + 1, nverts):
            if (u, v) not in edges and rng.random() < 0.35:
                edges[(u, v)] = _random_weight(rng)
    return WeightedGraph(verts, edges)


def suite_rewrite():
    rng = random.Random(16180339)
    for case in range(50):
        g = _random_graph(rng, rng.randrange(6, 13, 2))
        v = rng.choice(g.vertices)
        nbrs = sorted(g.neighbors(v))
        half = {u for u in nbrs if rng.random() < 0.5}
        split = rewrite.vertex_split(g, {v: half})
        yield f"rewrite vertex_split case {case:02d}", matching_genfun(split) == matching_genfun(g)
    for case in range(50):
        g = _random_graph(rng, rng.randrange(6, 13, 2))
        v = rng.choice(g.vertices)
        factor = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = rewrite.star_scale(g, {v: factor})
        yield (
            f"rewrite star_scale case {case:02d}",
            matching_genfun(scaled) == matching_genfun(g) * factor,
        )
    for case in range(50):
        g, site = _random_spider_host(rng)
        replaced, (delta,) = rewrite.spider_replace(g, [site])
        yield (
            f"rewrite spider case {case:02d}",
            matching_genfun(g) == delta * matching_genfun(replaced),
        )
    for m, n in ((1, 2), (1, 3), (2, 2), (2, 3)):
        ok = True
        for _ in range(2):
            a, b, c, d = (Fraction(rng.randint(1, 9), rng.randint(1, 5)) for _ in range(4))
            lhs, rhs = row_reduction_sides(m, n, a, b, c, d)
            ok = ok and lhs == rhs
        yield f"rewrite row_reduction m={m} n={n}", ok
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

    Edges between cyclically consecutive plugs are dropped so the replacement
    never collides with an existing edge.
    """
    base = _random_graph(rng, rng.randrange(6, 11, 2))
    outer = rng.sample(base.vertices, 4)
    inner = [("inner", k) for k in range(4)]
    verts = list(base.vertices) + inner
    edges = base.edge_dict()
    for k in range(4):
        u, v = outer[k], outer[(k + 1) % 4]
        edges.pop((u, v), None)
        edges.pop((v, u), None)
    for o, i in zip(outer, inner):
        edges[(o, i)] = LaurentPoly2.one()
    for k in range(4):
        edges[(inner[k], inner[(k + 1) % 4])] = _random_weight(rng)
    return WeightedGraph(verts, edges), tuple(inner)


def suite_pipeline():
    """The peeling chain, by the backtracker and then by the graph DP."""
    rng = random.Random(31415926)
    for m, n, s in _ar_corpus(2, 3):
        draws = [(Fraction(1), Fraction(1), Fraction(1), Fraction(1))]
        draws.append(tuple(Fraction(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(4)))
        ok = all(_chain_ok(m, n, s, *draw, matching_genfun) for draw in draws)
        yield f"rewrite pipeline m={m} n={n} s={s}", ok
    rng = random.Random(27182818)
    for m in range(1, 7):
        for n in range(m, 2 * m + 1):
            s = tuple(sorted(rng.sample(range(1, n + 1), m)))
            draw = tuple(Fraction(rng.randint(1, 7), rng.randint(1, 4)) for _ in range(4))
            yield f"rewrite pipeline dp m={m} n={n} s={s}", _chain_ok(m, n, s, *draw, graph_genfun_dp)


def _chain_ok(m, n, s, a, b, c, d, matchings):
    """The chain's equalities, each matching sum M computed by ``matchings``."""
    res = rewrite.reduce_rectangle_to_semihexagon(m, n, s, a, b, c, d)
    target = formulas.peel_target_factor(m, a, b, c, d)
    start = matchings(weighted_ar_graph(m, n, s, a, b, c, d))
    final = matchings(res.graph)
    m_tilde = lozenge.weighted_sh_genfun(semihexagon_with_dents(m, n - m, s),
                                         lambda k: LaurentPoly2.term(a, q=k + 1), b)
    return (
        res.factor == target
        and start == res.factor * final
        and final == m_tilde
        and start == target * m_tilde
        and start == formulas.weighted_rectangle_matching_genfun(m, n, s, a, b, c, d)
    )


SUITES = {
    "main": suite_main,
    "diamond": suite_diamond,
    "weighted": suite_weighted,
    "lozenge": suite_lozenge,
    "relation": suite_relation,
    "rewrite": suite_rewrite,
}


def run_suite(name, out):
    """Print one PASS/FAIL line per case of suite ``name``, or of every suite
    in order for "all", and one FAIL line for a suite that raises an AztecError,
    whose later cases do not run; return the number of failures."""
    failures = 0
    for key in SUITES if name == "all" else (name,):
        try:
            for label, ok in SUITES[key]():
                out.write(f"{'PASS' if ok else 'FAIL'}  {label}\n")
                failures += not ok
        except AztecError as exc:
            out.write(f"FAIL  {key}: {type(exc).__name__}: {exc}; the rest of suite {key} did not run\n")
            failures += 1
    return failures
