"""The matching kernels -- one search, one DP -- and their exact agreement."""

import os
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations, islice
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aztecgf import engine, poly, rewrite, verify
from aztecgf.engine import (
    Tiling,
    _frontier_slots,
    count_matchings,
    count_tilings,
    enumerate_matchings,
    enumerate_tilings,
    graph_genfun_dp,
    matching_genfun,
    tiling_genfun_dp,
)
from aztecgf.errors import BijectionViolation, InvalidTiling, InvalidWeight, RegionTooWide
from aztecgf.formulas import count_product, weighted_rectangle_matching_genfun
from aztecgf.lozenge import DENT_STEPS, LEFT, RIGHT, TOP_STEPS, VERTICAL
from aztecgf.poly import FracWeight, LaurentPoly2, falling_ratio
from aztecgf.regions import (
    Region,
    WeightedGraph,
    aztec_diamond,
    aztec_rectangle_with_holes,
    dual_graph,
    dw,
    semihexagon_with_dents,
    sq,
    sweep_key,
    up,
    weighted_ar_graph,
)
from aztecgf.stats import STEPS


def four_cycle(weights=(1, 1, 1, 1)):
    a, b, c, d = (LaurentPoly2.const(w) for w in weights)
    return WeightedGraph(
        [0, 1, 2, 3], {(0, 1): a, (1, 2): b, (2, 3): c, (3, 0): d}
    )


def test_enumerate_matchings_four_cycle():
    assert sum(1 for _ in enumerate_matchings(four_cycle())) == 2


def test_matching_genfun_basics():
    single = WeightedGraph([0, 1], {(0, 1): LaurentPoly2.term(3, q=2)})
    assert matching_genfun(single) == LaurentPoly2.term(3, q=2)
    # weights a, b, d, c clockwise from northwest, as on the one-face graph
    g = four_cycle((2, 3, 5, 7))
    assert matching_genfun(g) == LaurentPoly2.const(2 * 5 + 3 * 7)
    no_matching = WeightedGraph([0, 1, 2], {(0, 1): LaurentPoly2.one()})
    assert matching_genfun(no_matching) == LaurentPoly2.zero()


def test_matching_genfun_cancels_and_handles_empty_and_unmatchable_graphs():
    # the two matchings of the 4-cycle weigh 1 * 1 and 1 * -1
    assert matching_genfun(four_cycle((1, 1, 1, -1))) == LaurentPoly2.zero()
    # the empty graph has one (empty) perfect matching
    assert matching_genfun(WeightedGraph([], {})) == LaurentPoly2.one()
    one = LaurentPoly2.one()
    odd = WeightedGraph([0, 1, 2], {(0, 1): one, (1, 2): one, (0, 2): one})
    assert matching_genfun(odd) == LaurentPoly2.zero()
    star = WeightedGraph([0, 1, 2, 3], {(0, 1): one, (0, 2): one, (0, 3): one})
    assert matching_genfun(star) == LaurentPoly2.zero()


def weight_products(graph):
    """Sum over enumerate_matchings of the product of edge weights, multiplied
    one by one: a route that shares no arithmetic with matching_genfun.  The
    products are summed over one common denominator: the (n / 2)-th power of
    the product of the distinct edge denominators, which every quotient
    product's denominator divides.  Adding the quotients themselves would
    multiply their denominators together at each add."""
    dens = dict.fromkeys(w.den for _, w in graph.edge_items() if isinstance(w, FracWeight))
    common = prod(dens, start=LaurentPoly2.one()) ** (graph.n // 2)
    total = LaurentPoly2.zero()
    for matching in enumerate_matchings(graph):
        w = LaurentPoly2.one()
        for u, v in matching:
            w = w * graph.weight(u, v)
        total = total + (w.num * common.exact_div(w.den) if isinstance(w, FracWeight) else w * common)
    return FracWeight(total, common)


def random_matchable_graph(rng, weight, most, fewest=2):
    n = rng.randrange(fewest, most + 1, 2)
    verts = list(range(n))
    edges = {(u, v): weight() for u, v in combinations(verts, 2) if rng.random() < 0.4}
    skeleton = sorted(verts, key=lambda v: rng.random())
    for u, v in zip(skeleton[::2], skeleton[1::2]):
        if (u, v) not in edges and (v, u) not in edges:
            edges[(u, v)] = weight()
    return WeightedGraph(verts, edges)


def test_matching_genfun_with_multi_term_rational_laurent_weights():
    rng = random.Random(4096)

    def weight():
        # one to three terms, signed rational coefficients, negative exponents
        return LaurentPoly2({
            (rng.randint(-3, 2), rng.randint(-2, 1)): Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                                             rng.randint(1, 6))
            for _ in range(rng.randint(1, 3))
        }) or LaurentPoly2.const(Fraction(-3, 4))

    for case in range(60):
        g = random_matchable_graph(rng, weight, 12)
        assert matching_genfun(g) == weight_products(g), case


def test_matching_genfun_with_quotient_weights():
    # weights that are quotients of Laurent polynomials, as urban renewal
    # leaves them, mixed with plain polynomials and rationals
    rng = random.Random(8192)
    q = LaurentPoly2.term(1, q=1)
    dens = (q + 1, 2 * q - 3, q * q + Fraction(1, 2), q + 1)

    def weight():
        num = LaurentPoly2.term(Fraction(rng.randint(-5, 5) or 1, rng.randint(1, 3)), q=rng.randint(-1, 2))
        kind = rng.random()
        if kind < 0.5:
            return FracWeight(num + LaurentPoly2.term(rng.randint(1, 3), q=3), rng.choice(dens))
        return num if kind < 0.8 else Fraction(rng.randint(1, 7), rng.randint(1, 5))

    quotients = 0
    # 40 graphs of up to 8 vertices, then 8 of 12 vertices, whose hundreds of
    # quotient products a reference adding FracWeights one by one, each add
    # multiplying the denominators, could not afford
    for case in range(48):
        g = random_matchable_graph(rng, weight, 8) if case < 40 else random_matchable_graph(rng, weight, 12, 12)
        expected = weight_products(g)
        got = matching_genfun(g)
        assert got == expected and expected == got, case
        quotients += isinstance(got, FracWeight)
    assert quotients >= 26  # most sums keep a denominator


def test_matching_genfun_with_one_quotient_written_two_ways():
    # q / (3q - 2) and 2q / (6q - 4) are one quotient over two denominators:
    # the oracle keeps them apart as two weights, and the sum is unchanged
    q = LaurentPoly2.term(1, q=1)
    one_way, other_way = FracWeight(q, 3 * q - 2), FracWeight(2 * q, 6 * q - 4)
    assert one_way == other_way and one_way.den != other_way.den
    pool = (one_way, other_way, 1 + q, LaurentPoly2.term(Fraction(1, 2), t=1))
    edges = {e: pool[k % 4] for k, e in enumerate(combinations(range(6), 2))}
    mixed = WeightedGraph(range(6), edges)
    single = WeightedGraph(range(6), {e: one_way if w == one_way else w for e, w in edges.items()})
    got = matching_genfun(mixed)
    assert got == weight_products(mixed) == matching_genfun(single)
    assert isinstance(got, FracWeight)


@st.composite
def spread_weighted_graphs(draw):
    # up to 10 vertices with a perfect matching; each weight is q^a t^b,
    # a in -40..40 and b in -10..10, times a signed multi-term content, and
    # one content is shared by several edges under different shifts
    n = 2 * draw(st.integers(1, 5))
    coefficients = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.integers(1, 6))
    contents = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 2)), coefficients,
                               min_size=1, max_size=3).map(LaurentPoly2)
    shared = draw(contents)
    extra = draw(st.lists(st.sampled_from(list(combinations(range(n), 2))), max_size=16))
    edges = {}
    for e in dict.fromkeys([(v, v + 1) for v in range(0, n, 2)] + extra):
        a, b = draw(st.integers(-40, 40)), draw(st.integers(-10, 10))
        edges[e] = LaurentPoly2.term(1, q=a, t=b) * (shared if draw(st.booleans()) else draw(contents))
    return WeightedGraph(range(n), edges)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(spread_weighted_graphs())
def test_matching_genfun_equals_weight_products_on_wide_spreads(graph):
    assert matching_genfun(graph) == weight_products(graph)


def test_matching_genfun_fills_every_key_field():
    # on a 2k-cycle one perfect matching takes one content k times at the
    # highest shifts, the other another content k times at the lowest.  At
    # k = 3 the q shifts sum to 3 * 85 = 255, the t shifts to 3 * 21 = 63 and
    # each count to 3: every field is all ones.  At k = 4 they sum to 64, 16
    # and 4: each needs its top bit, one past the all-ones value below it.
    q, t = LaurentPoly2.term(1, q=1), LaurentPoly2.term(1, t=1)
    high_content, low_content = 1 - 2 * q + Fraction(3, 2) * t * t, -2 - q * t
    for k, (a, b), (a0, b0) in ((3, (40, 10), (-45, -11)), (4, (40, 10), (24, 6))):
        high = LaurentPoly2.term(1, q=a, t=b) * high_content
        low = LaurentPoly2.term(1, q=a0, t=b0) * low_content
        ring = WeightedGraph(range(2 * k), {(v, (v + 1) % (2 * k)): low if v % 2 else high
                                            for v in range(2 * k)})
        assert matching_genfun(ring) == prod([high] * k) + prod([low] * k), k


def test_matching_genfun_reuses_powers_of_multi_term_and_quotient_contents():
    # one perfect matching of the 8-cycle takes 1 + q three times, the other
    # takes it twice and the quotient (1 + 2q) / (2 + q) twice, so the oracle
    # multiplies by the square and the cube of multi-term contents; the chords
    # add matchings that take others.  The DP reads no quotient, so it sums a
    # twin graph whose every weight is multiplied by 2 + q, and each
    # matching's product by (2 + q)^4
    q = LaurentPoly2.term(1, q=1)
    den = 2 + q
    plain, quotient = 1 + q, FracWeight(1 + 2 * q, den)
    weights = {(0, 1): plain, (1, 2): quotient, (2, 3): plain, (3, 4): quotient, (4, 5): plain, (5, 6): plain,
               (6, 7): quotient, (7, 0): plain, (0, 5): q * q, (2, 7): LaurentPoly2.term(3, t=-1)}
    twin = {e: w.num if isinstance(w, FracWeight) else w * den for e, w in weights.items()}
    got = matching_genfun(WeightedGraph(range(8), weights))
    assert isinstance(got, FracWeight)
    assert got == FracWeight(graph_genfun_dp(WeightedGraph(range(8), twin)), den ** 4)


def test_matching_genfun_shares_no_packed_arithmetic(monkeypatch):
    # with the DP's packed polynomials patched to raise, the DP fails and the
    # oracle still equals the closed form
    a, b, c, d = Fraction(3, 2), Fraction(2, 5), Fraction(7, 3), Fraction(5, 4)
    graph = weighted_ar_graph(3, 5, (1, 3, 5), a, b, c, d)
    expected = weighted_rectangle_matching_genfun(3, 5, (1, 3, 5), a, b, c, d)

    def packed(*args):
        raise AssertionError("packed arithmetic")

    for module in (engine, poly):
        for name in ("PackedPoly", "packed_weight", "slot_bits"):
            monkeypatch.setattr(module, name, packed)
    with pytest.raises(AssertionError, match="packed arithmetic"):
        graph_genfun_dp(graph)
    assert matching_genfun(graph) == expected


def test_tiling_counts():
    assert sum(1 for _ in enumerate_tilings(aztec_diamond(2))) == 8
    assert count_tilings(aztec_rectangle_with_holes(3, 6, (1, 4, 6))) == 960
    assert count_tilings(semihexagon_with_dents(3, 2, (2, 3, 5))) == 3
    # an untileable region: the full rectangle with m < n has no matchings
    full_cells_odd = aztec_rectangle_with_holes(2, 3, (1, 2))
    assert count_tilings(full_cells_odd) == 8  # sanity: holes restore tileability


def test_count_tilings_equals_enumeration_on_small_holey_regions():
    # the count and the enumeration are two uses of the one search, which adds a last
    # branch's leaves at once only when counting; the DP and the closed forms share no code with it
    cases = [(aztec_rectangle_with_holes(m, n, s), count_product(m, s))
             for m in range(1, 4) for n in range(m, 6) for s in combinations(range(1, n + 1), m)]
    cases += [(semihexagon_with_dents(a, b, s), falling_ratio(s))
              for a in range(1, 4) for b in range(7 - a) for s in combinations(range(1, a + b + 1), a)]
    cases += [(aztec_diamond(k), 2 ** (k * (k + 1) // 2)) for k in range(1, 5)]
    for region, closed in cases:
        count = count_tilings(region)
        assert count == sum(1 for _ in enumerate_tilings(region)) == closed, region.key
        assert count == tiling_genfun_dp(region), region.key


def test_count_matchings_equals_enumeration_on_random_graphs():
    rng = random.Random(1729)
    one = LaurentPoly2.one()
    graphs = [
        WeightedGraph([], {}),
        WeightedGraph([0, 1, 2], {(0, 1): one, (1, 2): one, (0, 2): one}),  # odd
        WeightedGraph([0, 1, 2, 3], {(0, 1): one, (0, 2): one}),  # isolated vertex 3
        WeightedGraph(list(range(6)), {(0, 1): one, (2, 3): one, (3, 4): one, (4, 5): one, (2, 5): one}),
    ]
    for _ in range(300):
        # odd, isolated, disconnected and skeleton-carrying graphs all occur
        n = rng.randint(0, 14)
        density = rng.choice((0.1, 0.25, 0.4, 0.6))
        edges = {(u, v): one for u, v in combinations(range(n), 2) if rng.random() < density}
        if rng.random() < 0.6:
            skeleton = sorted(range(n), key=lambda v: rng.random())
            for u, v in zip(skeleton[::2], skeleton[1::2]):
                edges.setdefault((min(u, v), max(u, v)), one)
        graphs.append(WeightedGraph(list(range(n)), edges))
    counts = [count_matchings(g) for g in graphs]
    assert counts[:4] == [1, 0, 0, 2]
    assert sum(c > 0 for c in counts) >= 100  # most draws are matchable
    for g, c in zip(graphs, counts):
        assert c == len(list(enumerate_matchings(g))), g.vertices
        assert graph_genfun_dp(g) == LaurentPoly2.const(c), g.vertices  # shares no code with the search


def search_branches(n, edges):
    """(live, partners, leaves) at each branch the search meets on vertices 0..n-1, by plain
    recursion over sets: a branch is a lowest free vertex with two or more free partners,
    ``live`` counts those a perfect matching follows and ``leaves`` those exactly one follows."""
    nbr = [set() for _ in range(n)]
    for u, v in edges:
        nbr[u].add(v)
        nbr[v].add(u)

    @lru_cache(maxsize=None)
    def count(free):
        v = min(free, default=None)
        return 1 if v is None else sum(count(free - {u, v}) for u in nbr[v] & free)

    out, todo = [], [frozenset(range(n))]
    while todo:
        if free := todo.pop():
            v = min(free)
            after = {u: count(free - {u, v}) for u in nbr[v] & free}
            if len(after) >= 2:
                out.append((sum(c > 0 for c in after.values()), len(after), sum(c == 1 for c in after.values())))
            todo += [free - {u, v} for u, c in after.items() if c]
    return out


def test_count_adds_last_branches_at_once_on_random_graphs():
    # a count adds one leaf per live partner of a last branch (every live partner's run ends at a
    # leaf) at once; the draws hold last branches with dead partners, last branches with three or
    # more live partners, and branches where a partner's run ends at a further branch
    rng = random.Random(41)
    one = LaurentPoly2.one()
    seen = Counter()
    for _ in range(120):
        n = rng.choice((4, 6, 8, 10))
        density = rng.choice((0.3, 0.5, 0.8))
        edges = {(u, v) for u, v in combinations(range(n), 2) if rng.random() < density}
        skeleton = sorted(range(n), key=lambda v: rng.random())
        edges |= {(min(u, v), max(u, v)) for u, v in zip(skeleton[::2], skeleton[1::2])}
        graph = WeightedGraph(list(range(n)), dict.fromkeys(edges, one))
        assert count_matchings(graph) == sum(1 for _ in enumerate_matchings(graph)), sorted(edges)
        for live, partners, leaves in search_branches(n, edges):
            seen["dead partner"] += live == leaves >= 2 and live < partners
            seen["three live"] += live == leaves >= 3
            seen["further branch"] += 2 <= live and leaves < live
    assert min(seen.values()) >= 100 and len(seen) == 3, seen


def test_count_tilings_runs_a_long_strip_without_recursion():
    # 6,002 cells: a recursive search would pass Python's recursion limit
    assert count_tilings(aztec_rectangle_with_holes(1, 3000, (1500,))) == count_product(1, (1500,))


# K four-cycles, then a K_{1,3} star last in vertex order: 2^K partial matchings
# all end at the star, which no perfect matching covers
DEAD_AFTER_CYCLES = """
import time
from aztecgf import WeightedGraph, count_matchings, enumerate_matchings, matching_genfun
k = 200
edges = {(4 * c + i, 4 * c + (i + 1) % 4): 1 for c in range(k) for i in range(4)}
edges.update({(4 * k, 4 * k + i): 1 for i in (1, 2, 3)})
graph = WeightedGraph(range(4 * k + 4), edges)
start = time.perf_counter()
print(count_matchings(graph), list(enumerate_matchings(graph)), matching_genfun(graph).sorted_terms())
print(time.perf_counter() - start)
"""


def test_a_dead_component_after_many_cycles_is_refused_at_once():
    # a search that re-entered the dead star once per partial matching would double
    # its time with every cycle; a fresh process, so a hang fails at the timeout
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(engine.__file__)))
    run = subprocess.run([sys.executable, "-c", DEAD_AFTER_CYCLES], capture_output=True, text=True, env=env,
                         timeout=30)
    assert run.returncode == 0, run.stderr
    found, seconds = run.stdout.splitlines()
    assert found == "0 [] []"
    assert float(seconds) < 1.0


def test_full_rectangle_without_holes_has_no_matchings():
    from aztecgf.regions import full_weighted_rectangle

    # the full rectangle with m < n is untileable before holes are cut
    g = full_weighted_rectangle(3, 6, 1, 1, 1, 1)
    assert count_matchings(g) == 0
    assert sum(1 for _ in enumerate_matchings(g)) == 0


def test_enumeration_is_deterministic_and_matches_dual_graph():
    region = aztec_rectangle_with_holes(2, 4, (2, 4))
    first = [t.mask for t in enumerate_tilings(region)]
    second = [t.mask for t in enumerate_tilings(region)]
    assert first == second
    by_masks = [t.dominoes for t in enumerate_tilings(region)]
    by_graph = [
        frozenset(tuple(sorted(e)) for e in matching)
        for matching in enumerate_matchings(dual_graph(region))
    ]
    assert by_masks == by_graph  # same tilings in the same order


def test_dp_equals_oracle_with_weights():
    # the DP packs its weights into big ints; matching_genfun never does
    rng = random.Random(2024)

    def monomial():
        return LaurentPoly2.term(Fraction(rng.randint(1, 5)), q=rng.randint(0, 2), t=rng.randint(0, 1))

    def polynomial():
        # one to three terms, non-integer rational coefficients, negative exponents
        return LaurentPoly2({
            (rng.randint(-3, 2), rng.randint(-1, 1)): Fraction(rng.randint(1, 9), rng.randint(1, 4))
            for _ in range(rng.randint(1, 3))
        })

    for region in (
        aztec_diamond(2),
        aztec_rectangle_with_holes(2, 4, (1, 3)),
        aztec_rectangle_with_holes(3, 4, (1, 2, 4)),
        semihexagon_with_dents(3, 2, (2, 3, 5)),
    ):
        for draw in (monomial, polynomial):
            weights = {d: draw() for d in region.all_dominoes}
            dp = tiling_genfun_dp(region, lambda dom: weights[dom])
            weighted = dual_graph(region, lambda dom: weights[dom])
            assert dp == matching_genfun(weighted) == graph_genfun_dp(weighted)


def test_dp_weights_constants_and_negative_coefficients():
    region = aztec_diamond(2)  # 8 tilings of 6 tiles each
    assert tiling_genfun_dp(region, lambda dom: Fraction(3, 2)) == LaurentPoly2.const(8 * Fraction(3, 2) ** 6)
    assert tiling_genfun_dp(region, lambda dom: 0) == LaurentPoly2.zero()
    # the packing cannot represent a negative coefficient, so it is refused
    for bad in (-1, LaurentPoly2.term(1, q=1) - 1):
        with pytest.raises(InvalidWeight):
            tiling_genfun_dp(region, lambda dom: bad)


def test_a_repeated_negative_weight_names_its_first_edge():
    # each distinct weight is checked once, where it first appears, so the
    # error names the first bad edge in edge order whether the bad weights are
    # one shared value or equal copies
    region = aztec_diamond(2)
    edges = region.all_dominoes
    good, bad = LaurentPoly2.term(2, q=1), LaurentPoly2.term(1, q=1) - 1
    for first in (0, 3, len(edges) - 1):
        for copy in (False, True):
            weights = {d: (bad * 1 if copy else bad) if i >= first and i % 2 == first % 2 else good
                       for i, d in enumerate(edges)}
            with pytest.raises(InvalidWeight, match=f"weight of {re.escape(str(edges[first]))} has"):
                tiling_genfun_dp(region, weights.__getitem__)
    other = LaurentPoly2.const(-1)  # two bad weights: `other` at edges 2 and 6, `bad` at 4 and 5
    weights = {d: other if i in (2, 6) else bad if i in (4, 5) else good for i, d in enumerate(edges)}
    with pytest.raises(InvalidWeight, match=f"weight of {re.escape(str(edges[2]))} has"):
        tiling_genfun_dp(region, weights.__getitem__)


def test_one_in_every_type_gives_the_plain_count():
    # 1, Fraction(1) and LaurentPoly2.one() are one weight to the DP's table
    ones = (1, Fraction(1), LaurentPoly2.one())
    for region in (aztec_diamond(3), aztec_rectangle_with_holes(3, 5, (1, 3, 4)),
                   semihexagon_with_dents(3, 2, (1, 3, 5))):
        weights = {d: ones[i % 3] for i, d in enumerate(region.all_dominoes)}
        got = tiling_genfun_dp(region, weights.__getitem__)
        assert type(got) is LaurentPoly2
        assert got == LaurentPoly2.const(tiling_genfun_dp(region)) == count_tilings(region)


def test_one_constant_on_every_edge_scales_the_count():
    # the integer pre-sweep is the answer when every weight is a constant
    for m in range(1, 4):
        for n in range(m, 6):
            for s in combinations(range(1, n + 1), m):
                region = aztec_rectangle_with_holes(m, n, s)
                for c in (2, Fraction(3, 2), Fraction(1, 7)):
                    want = c ** (len(region.cells) // 2) * count_tilings(region)
                    assert tiling_genfun_dp(region, lambda dom: c) == LaurentPoly2.const(want), (m, n, s, c)


def test_seeded_rational_constants_match_the_search():
    rng = random.Random(38)
    for region in (aztec_diamond(3), aztec_rectangle_with_holes(3, 5, (1, 3, 4)),
                   semihexagon_with_dents(3, 2, (1, 3, 5))):
        weights = {d: Fraction(rng.randint(1, 9), rng.randint(1, 6)) for d in region.all_dominoes}
        want = matching_genfun(dual_graph(region, weights.__getitem__))
        assert tiling_genfun_dp(region, weights.__getitem__) == want, region.key
        assert graph_genfun_dp(dual_graph(region, weights.__getitem__)) == want, region.key


def test_constant_weights_never_pack(monkeypatch):
    def no_packing(*args):
        raise AssertionError("packed_weight called")

    monkeypatch.setattr(engine, "packed_weight", no_packing)
    region = aztec_rectangle_with_holes(3, 5, (1, 3, 4))
    weights = {d: Fraction(i % 5 + 1, i % 3 + 2) for i, d in enumerate(region.all_dominoes)}
    assert tiling_genfun_dp(region, weights.__getitem__) == matching_genfun(dual_graph(region, weights.__getitem__))
    with pytest.raises(AssertionError, match="packed_weight called"):  # a weight in q still packs
        tiling_genfun_dp(region, lambda dom: LaurentPoly2.term(1, q=1))


def test_dp_counts_diamonds():
    # Elkies-Kuperberg-Larsen-Propp: an order-n diamond has 2^(n(n+1)/2) tilings
    for n in range(1, 15):
        assert tiling_genfun_dp(aztec_diamond(n)) == 2 ** (n * (n + 1) // 2)


def test_dp_frontier_bound():
    # the sweep order fixes the frontier width (n + 1 bits on an order-n
    # diamond, at most a on an a-row semihexagon), so a region that is too
    # wide is refused before any state is swept
    with pytest.raises(RegionTooWide):
        tiling_genfun_dp(aztec_diamond(24))
    with pytest.raises(RegionTooWide):
        tiling_genfun_dp(semihexagon_with_dents(25, 25, tuple(range(1, 50, 2))))
    dents = tuple(range(2, 26))
    assert tiling_genfun_dp(semihexagon_with_dents(24, 1, dents)) == falling_ratio(dents)
    dents = tuple(x for x in range(1, 25) if x != 12)
    assert tiling_genfun_dp(semihexagon_with_dents(23, 1, dents)) == falling_ratio(dents)


def test_graph_dp_equals_oracle_on_random_graphs():
    # odd, unmatchable and disconnected graphs included, but most even ones
    # get a perfect-matching skeleton; vertex labels are shuffled strings, so
    # the sweep follows the graph's order, not a sort
    rng = random.Random(6174)

    def weight():
        return LaurentPoly2.term(Fraction(rng.randint(1, 9), rng.randint(1, 4)), q=rng.randint(-1, 3))

    for case in range(300):
        n = rng.randint(2, 14)
        verts = [f"v{k}" for k in range(n)]
        rng.shuffle(verts)
        density = rng.choice((0.2, 0.35, 0.5))
        edges = {(u, v): weight() for u, v in combinations(verts, 2) if rng.random() < density}
        if rng.random() < 0.7:
            skeleton = sorted(verts, key=lambda v: rng.random())
            for u, v in zip(skeleton[::2], skeleton[1::2]):
                if (u, v) not in edges and (v, u) not in edges:
                    edges[(u, v)] = weight()
        g = WeightedGraph(verts, edges)
        assert graph_genfun_dp(g) == matching_genfun(g), case


def test_graph_dp_equals_region_dp_in_another_order():
    # the dual graph lists cells in sorted order, the region DP sweeps them
    # in sweep_key order: the two sweeps share the core but not the slots
    rng = random.Random(1729)
    regions = [aztec_rectangle_with_holes(m, n, s)
               for m in range(1, 4) for n in range(m, 6) for s in combinations(range(1, n + 1), m)]
    regions += [semihexagon_with_dents(m, n - m, s)
                for m in range(1, 4) for n in range(m, 7) for s in combinations(range(1, n + 1), m)]
    for region in regions:
        weights = {d: LaurentPoly2.term(Fraction(rng.randint(1, 9), rng.randint(1, 3)),
                                        q=rng.randint(0, 3), t=rng.randint(0, 1))
                   for d in region.all_dominoes}
        weight = weights.__getitem__
        assert graph_genfun_dp(dual_graph(region, weight)) == tiling_genfun_dp(region, weight), region.key


def test_weights_the_sums_cannot_read_raise_invalid_weight():
    # the second spider host's replacement keeps quotient edge weights
    rng = random.Random(16180339)
    for _ in range(2):
        host, pattern = verify._random_spider_host(rng)
    replaced, _ = rewrite.spider_replace(host, [pattern])
    assert any(isinstance(w, FracWeight) for _, w in replaced.edge_items())
    with pytest.raises(InvalidWeight, match="weight of"):
        graph_genfun_dp(replaced)
    with pytest.raises(InvalidWeight, match="weight of"):
        tiling_genfun_dp(aztec_diamond(2), lambda d: 0.5)
    with pytest.raises(InvalidWeight, match="weight of"):
        matching_genfun(dual_graph(aztec_diamond(2), lambda d: 0.5))
    # an exact quotient is its polynomial
    exact = FracWeight(LaurentPoly2.term(3, q=2), LaurentPoly2.term(1, q=1))
    assert tiling_genfun_dp(aztec_diamond(1), lambda d: exact) == 2 * LaurentPoly2.term(9, q=2)


def test_graph_dp_edge_cases(monkeypatch):
    assert graph_genfun_dp(WeightedGraph([], {})) == LaurentPoly2.one()
    odd = WeightedGraph([0, 1, 2], {(0, 1): LaurentPoly2.one(), (1, 2): LaurentPoly2.one()})
    assert graph_genfun_dp(odd) == LaurentPoly2.zero()
    with pytest.raises(InvalidWeight):
        graph_genfun_dp(four_cycle((1, -2, 1, 1)))

    def no_sweep(*args):
        raise AssertionError("swept a graph that is too wide")

    # the diamond's cells in sorted (column) order need 26 frontier bits
    monkeypatch.setattr(engine, "_sweep", no_sweep)
    with pytest.raises(RegionTooWide):
        graph_genfun_dp(dual_graph(aztec_diamond(13)))


def last_neighbours(order, edges):
    # max_nbr[p]: the sweep position of vertex p's last neighbour (-1 if none)
    pos = {v: k for k, v in enumerate(order)}
    max_nbr = [-1] * len(pos)
    for a, b in edges:
        p, k = sorted((pos[a], pos[b]))
        max_nbr[p] = max(max_nbr[p], k)
    return max_nbr


def check_frontier_slots(region):
    max_nbr = last_neighbours(sorted(region.cells, key=sweep_key), region.all_dominoes)
    bit, last_mask, width = _frontier_slots(max_nbr)
    # reference width: the most intervals [p, max_nbr[p]) open at once
    opened = [0] * len(max_nbr)
    for p, last in enumerate(max_nbr):
        if last > p:
            opened[p] += 1
            opened[last] -= 1
    assert width == max(accumulate(opened), default=0)
    for p, last in enumerate(max_nbr):
        if last <= p:
            assert bit[p] == 0
            continue
        assert bit[p] & (bit[p] - 1) == 0 and 0 < bit[p] < 1 << width
        assert last_mask[last] & bit[p]
        # the cells swept while p waits hold intervals that overlap p's
        assert all(bit[r] != bit[p] for r in range(p + 1, last))
    assert sum(m.bit_count() for m in last_mask) == sum(1 for b in bit if b)


def vertex_kinds(order, edges):
    """What each vertex of the sweep over ``order`` does to the frontier slots."""
    bit, last_mask, _ = _frontier_slots(last_neighbours(order, edges))
    kinds = Counter()
    for freed, taken in zip(last_mask, bit):
        if freed and freed == taken:
            kinds["frees one slot and takes it back"] += 1
        elif freed & (freed - 1):
            kinds["frees two slots"] += 1
        elif freed:
            kinds["frees one slot and takes another" if taken else "frees one slot and takes none"] += 1
        else:
            kinds["takes a slot" if taken else "frees and takes none"] += 1
    return kinds


def test_relabelled_sweep_equals_the_search_in_any_order():
    # the integer sweep updates a layer in place where a vertex frees one slot and
    # takes it back; shuffled and reversed orders mix such vertices with every other kind
    rng = random.Random(2718)
    kinds, relabelled = Counter(), 0
    cases = []
    for _ in range(200):
        n = rng.randrange(2, 15, 2)
        density = rng.choice((0.2, 0.35, 0.5))
        edges = {(u, v): 1 for u, v in combinations(range(n), 2) if rng.random() < density}
        skeleton = rng.sample(range(n), n)
        for u, v in zip(skeleton[::2], skeleton[1::2]):
            edges.setdefault((min(u, v), max(u, v)), 1)
        cases.append((rng.sample(range(n), n), WeightedGraph(list(range(n)), edges)))
    regions = [aztec_rectangle_with_holes(m, n, s)
               for m in range(1, 4) for n in range(m, 6) for s in combinations(range(1, n + 1), m)]
    regions += [semihexagon_with_dents(m, n - m, s)
                for m in range(1, 4) for n in range(m, 7) for s in combinations(range(1, n + 1), m)]
    for region in regions:
        graph = dual_graph(region)
        swept = sorted(region.cells, key=sweep_key)
        cases += [(swept[::-1], graph), (rng.sample(swept, len(swept)), graph)]
    for order, graph in cases:
        edges = tuple(graph.edge_dict())
        count = count_matchings(graph)  # shares no code with the sweep
        assert engine._genfun_dp(order, edges, None) == count, (graph.vertices, order)
        case_kinds = vertex_kinds(order, edges)
        kinds += case_kinds
        relabelled += count > 0 and case_kinds["frees one slot and takes it back"] > 0
    assert len(kinds) == 6 and min(kinds.values()) >= 100, kinds
    assert relabelled >= 300


Q, T = LaurentPoly2.term(1, q=1), LaurentPoly2.term(1, t=1)
# graphs swept in vertex order 0, 1, ...: their edges, the step kinds they hold as (slots freed, slot taken,
# earlier neighbours) of a vertex, slot bits as _frontier_slots gives them, and the edges to the freed slots
STEP_KIND_GRAPHS = (
    # vertices 0, 1 and 2 take a fresh slot with 0, 1 and 2 earlier neighbours
    (((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5)), {(0, 1, 0), (0, 2, 1), (0, 4, 2)}, ()),
    # vertex 3 frees the slots of 0 and 1, takes 0's back and meets 2, which waits on; 4 takes 1's slot afresh
    (((0, 1), (0, 3), (1, 2), (1, 3), (2, 3), (2, 5), (3, 5), (4, 5), (4, 6), (4, 7), (5, 7), (6, 7)),
     {(3, 1, 3), (0, 2, 0)}, ((0, 3), (1, 3))),
    # vertex 4 frees 2's slot, takes the lower slot 3 freed, and meets 0, which waits on
    (((0, 4), (0, 5), (1, 2), (1, 3), (2, 3), (2, 4), (4, 5), (4, 6), (5, 6), (5, 7), (6, 7)), {(4, 2, 2)},
     ((2, 4),)),
)


def step_kinds(order, edges):
    pos = {v: k for k, v in enumerate(order)}
    earlier = Counter(max(pos[a], pos[b]) for a, b in edges)
    bit, last_mask, _ = _frontier_slots(last_neighbours(order, edges))
    return {(freed, taken, earlier[k]) for k, (freed, taken) in enumerate(zip(last_mask, bit))}


def test_each_in_place_step_kind_equals_the_oracle():
    # every weight at 1, a weight 2 on one edge to a freed slot (the rebuild's case), and polynomial weights
    # (the packed sweep, whose unit edges still update in place) on each graph that holds the kind
    for edges, kinds, freed in STEP_KIND_GRAPHS:
        n = 1 + max(map(max, edges))
        assert kinds <= step_kinds(range(n), edges)
        for weights in ({}, *({e: 2} for e in freed), {edges[-1]: Q, edges[-2]: 1 + Q, edges[-3]: T}):
            graph = WeightedGraph(range(n), {e: weights.get(e, 1) for e in edges})
            assert graph_genfun_dp(graph) == matching_genfun(graph) != 0, (edges, weights)


@st.composite
def weighted_small_graphs(draw):
    # a small graph whose vertices are swept in a random order, with int weights 1-3 or polynomial ones
    labels, edges = draw(small_graphs())
    pool = (1, 2, 3) if draw(st.booleans()) else (1, Q, 1 + Q, T)
    weights = {(labels[u], labels[v]): draw(st.sampled_from(pool)) for u, v in edges}
    return WeightedGraph(draw(st.permutations(labels)), weights)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(weighted_small_graphs())
def test_graph_dp_equals_the_oracle_on_small_weighted_graphs(graph):
    # the sweep takes every step kind, in place or by the rebuild, on the int and the packed values
    assert graph_genfun_dp(graph) == matching_genfun(graph)


def test_frontier_slots_match_the_width_count():
    for n in range(1, 17):
        check_frontier_slots(aztec_diamond(n))
    for m in range(1, 5):
        for n in range(m, 8):
            for s in combinations(range(1, n + 1), m):
                check_frontier_slots(aztec_rectangle_with_holes(m, n, s))
    for m in range(1, 5):
        for n in range(m, 9):
            for s in combinations(range(1, n + 1), m):
                check_frontier_slots(semihexagon_with_dents(m, n - m, s))


def test_tiling_object_roundtrip():
    region = aztec_diamond(1)
    t = next(iter(enumerate_tilings(region)))
    again = Tiling.from_dominoes(region, t.dominoes)
    assert again == t and again.is_valid()
    # a pair outside the domino pool: cells not adjacent, or not in the region
    for pair in ((sq(0, 0), sq(1, 1)), (sq(1, 0), sq(2, 0))):
        with pytest.raises(InvalidTiling) as exc:
            Tiling.from_dominoes(region, [pair])
        assert str(pair) in str(exc.value)


def test_mate_is_an_involution_on_the_region():
    for region in (aztec_rectangle_with_holes(3, 6, (1, 4, 6)), semihexagon_with_dents(3, 2, (2, 3, 5))):
        for tiling in islice(enumerate_tilings(region), 3):
            mate = tiling.mate
            assert mate.keys() == region.cells
            assert all(mate[mate[c]] == c != mate[c] for c in mate)
            assert {tuple(sorted((c, d))) for c, d in mate.items()} == tiling.dominoes


def test_is_valid_rejects_overlaps_and_gaps():
    region = aztec_diamond(1)  # the four cells of a 2x2 block
    covering = [(sq(0, 0), sq(1, 0)), (sq(0, 0), sq(0, 1)), (sq(0, 1), sq(1, 1))]
    overlapping = Tiling.from_dominoes(region, covering)
    assert overlapping.mate.keys() == region.cells and not overlapping.is_valid()
    incomplete = Tiling.from_dominoes(region, [(sq(0, 0), sq(1, 0))])
    assert not incomplete.is_valid()
    assert not Tiling(region, 0).is_valid()
    # a negative mask, or one past the pool, is refused before the mask is decoded (it would raise IndexError)
    pool = len(region.all_dominoes)
    for mask in (-1, -(1 << pool), 1 << pool, (1 << pool + 3) | 0b1001):
        assert not Tiling(region, mask).is_valid()


def semihexagon_tilings():
    # a = 2, b = 1, dents (1, 3): T1 has the left lozenge in row 1, T2 in row 2
    region = semihexagon_with_dents(2, 1, (1, 3))
    t1 = Tiling.from_dominoes(region, [(up(1, 1), dw(1, 1)), (up(2, 1), dw(2, 2)), (up(2, 2), dw(1, 2))])
    t2 = Tiling.from_dominoes(region, [(up(1, 1), dw(1, 2)), (up(2, 1), dw(1, 1)), (up(2, 2), dw(2, 2))])
    return region, t1, t2


def test_walk_reads_hand_written_paths():
    diamond = aztec_diamond(1)
    flat = Tiling.from_dominoes(diamond, [(sq(0, 0), sq(1, 0)), (sq(0, 1), sq(1, 1))])
    tall = Tiling.from_dominoes(diamond, [(sq(0, 0), sq(0, 1)), (sq(1, 0), sq(1, 1))])
    assert flat.walk(0, 0, sq, STEPS) == ([("level", 0, 0)], (2, 0))
    assert tall.walk(0, 0, sq, STEPS) == ([("up", 0, 0), ("down", 1, 1)], (2, 0))

    rect = aztec_rectangle_with_holes(1, 2, (2,))  # sq(1, 0) is the hole
    corner = (sq(0, 0), sq(0, 1))
    flat = Tiling.from_dominoes(rect, [corner, (sq(1, 1), sq(2, 1)), (sq(1, 2), sq(2, 2))])
    tall = Tiling.from_dominoes(rect, [corner, (sq(1, 1), sq(1, 2)), (sq(2, 1), sq(2, 2))])
    assert flat.walk(0, 0, sq, STEPS) == ([("up", 0, 0), ("level", 1, 1)], (3, 1))
    assert tall.walk(0, 0, sq, STEPS) == ([("up", 0, 0), ("up", 1, 1), ("down", 2, 2)], (3, 1))

    _, t1, t2 = semihexagon_tilings()
    assert t1.walk(1, 1, dw, TOP_STEPS) == ([(LEFT, 1, 1), (RIGHT, 1, 2)], (2, 3))
    assert t2.walk(1, 1, dw, TOP_STEPS) == ([(RIGHT, 1, 1), (LEFT, 2, 2)], (2, 3))
    assert t1.walk(2, 2, dw, DENT_STEPS) == ([(VERTICAL, 2, 2), (LEFT, 1, 1)], (0, 1))
    assert t2.walk(2, 2, dw, DENT_STEPS) == ([(LEFT, 2, 2), (VERTICAL, 1, 2)], (0, 1))
    assert t1.walk(0, 2, dw, DENT_STEPS) == ([], (0, 2))  # the dent at 1 has an empty path


def test_every_step_table_can_be_inverted():
    # walk names a step by its mate offset, so no two kinds of one table may share an offset
    for steps in (STEPS, TOP_STEPS, DENT_STEPS):
        offsets = {offset for offset, _ in steps.values()}
        assert len(offsets) == len(steps), steps


def test_walk_rejects_uncovered_cells_and_uncrossed_tiles():
    diamond = aztec_diamond(1)
    region, t1, _ = semihexagon_tilings()
    # uncovered where the path enters, and after a step: the walk stops at a cell with no mate,
    # and only there tells the region's edge from an uncovered cell
    up_only = Tiling.from_dominoes(diamond, [(sq(0, 0), sq(0, 1))])  # "up" steps to sq(1, 1)
    left_only = Tiling.from_dominoes(region, [(up(1, 1), dw(1, 1))])  # a left step leads to dw(1, 2)
    for tiling, start, cell in ((Tiling(diamond, 0), (0, 0, sq, STEPS), sq(0, 0)),
                                (Tiling(region, 0), (1, 1, dw, TOP_STEPS), dw(1, 1)),
                                (up_only, (0, 0, sq, STEPS), sq(1, 1)),
                                (left_only, (1, 1, dw, TOP_STEPS), dw(1, 2))):
        with pytest.raises(BijectionViolation, match=re.escape(f"path reached the uncovered cell {cell}")):
            tiling.walk(*start)
    flat = Tiling.from_dominoes(diamond, [(sq(0, 0), sq(1, 0)), (sq(0, 1), sq(1, 1))])
    with pytest.raises(BijectionViolation, match="no step"):
        flat.walk(1, 0, sq, STEPS)  # a level step enters a horizontal at its left cell
    with pytest.raises(BijectionViolation, match="no step"):
        t1.walk(2, 2, dw, TOP_STEPS)  # a top-to-bottom path never crosses a vertical


def test_from_paths_replays_and_rejects_bad_paths():
    diamond = aztec_diamond(1)
    tall = Tiling.from_paths(diamond, [(0, 0, ["up", "down"])], sq, sq, STEPS)
    assert tall == Tiling.from_dominoes(diamond, [(sq(0, 0), sq(0, 1)), (sq(1, 0), sq(1, 1))])
    region, t1, t2 = semihexagon_tilings()
    dents = [(2, 2, [VERTICAL, LEFT]), (0, 2, [])]
    assert Tiling.from_paths(region, dents, dw, up, DENT_STEPS) == t1
    assert Tiling.from_paths(region, [(2, 2, [LEFT, VERTICAL])], dw, up, DENT_STEPS) == t2
    for paths in (
        [(0, 0, ["down"])],  # the step's tile leaves the region
        [(0, 0, ["up"]), (0, 1, ["level"])],  # the second tile overlaps the first
        [(0, 0, ["up"])],  # sq(1, 0) is left over: sq(2, 0) is outside
    ):
        with pytest.raises(BijectionViolation, match="cannot place"):
            Tiling.from_paths(diamond, paths, sq, sq, STEPS)
    # one up-triangle more than down-triangles: the fill leaves it over
    lopsided = Region("triangular", ("lopsided",), frozenset({up(1, 1), dw(1, 1), up(2, 1)}))
    with pytest.raises(BijectionViolation, match="uncovered"):
        Tiling.from_paths(lopsided, [], dw, up, DENT_STEPS)


def test_dp_equals_oracle_on_random_ragged_regions():
    # the DP makes no shape assumptions beyond the lattice; throw random
    # subsets of a 4x4 box at it (holes, dents, disconnections included)
    rng = random.Random(8128)
    for case in range(40):
        cells = frozenset(
            sq(x, y) for x in range(4) for y in range(4) if rng.random() < 0.7
        )
        region = Region("square", ("ragged", case), cells)
        dp = tiling_genfun_dp(region)
        oracle = sum(1 for _ in enumerate_tilings(region))
        assert dp == oracle


@st.composite
def ragged_regions(draw):
    # a box of up to 5x6 squares, or a patch of up to 5 triangle rows, with
    # up to 8 cells cut out: odd, untileable and disconnected regions included
    if draw(st.booleans()):
        w, h = draw(st.integers(1, 5)), draw(st.integers(1, 6))
        box = [sq(x, y) for x in range(w) for y in range(h)]
        lattice = "square"
    else:
        w, h = draw(st.integers(1, 4)), draw(st.integers(1, 5))
        box = [up(x, y) for y in range(1, h + 1) for x in range(1, w + y + 1)]
        box += [dw(x, y) for y in range(1, h + 1) for x in range(1, w + y)]
        lattice = "triangular"
    cut = draw(st.sets(st.sampled_from(box), max_size=8))
    cells = frozenset(c for c in box if c not in cut)
    return Region(lattice, ("ragged", cells), cells)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ragged_regions())
def test_backtracker_equals_dp_on_random_ragged_regions(region):
    # the DP shares no code with the backtracking search
    assert count_tilings(region) == tiling_genfun_dp(region)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ragged_regions())
def test_counter_equals_enumeration_on_random_ragged_regions(region):
    count = count_tilings(region)
    assert count == sum(1 for _ in enumerate_tilings(region))
    assert count == tiling_genfun_dp(region)  # shares no code with the search


def reference_matchings(n, edges):
    """Each perfect matching of vertices 0..n-1 as the list of its indices
    into ``edges``, by plain recursion over sets: the lowest uncovered vertex
    takes each uncovered partner in ascending order."""
    partners = [[] for _ in range(n)]
    for e, (u, v) in enumerate(edges):
        partners[u].append((v, e))
        partners[v].append((u, e))
    out = []

    def extend(uncovered, chosen):
        if not uncovered:
            out.append(chosen)
            return
        v = min(uncovered)
        for u, e in sorted(partners[v]):
            if u in uncovered:
                extend(uncovered - {u, v}, chosen + [e])

    extend(frozenset(range(n)), [])
    return out


@st.composite
def small_graphs(draw):
    # up to 12 vertices whose labels are a permutation of their positions
    n = draw(st.integers(0, 12))
    pairs = list(combinations(range(n), 2))
    edges = sorted(draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set())))
    labels = draw(st.permutations(range(n)))
    return labels, edges


# the empty graph has one empty matching, an odd order (a triangle) none, and
# taking 0-1 leaves vertex 2 no partner: a dead end
SMALL_GRAPH_EDGE_CASES = [([], []), ([2, 0, 1], [(0, 1), (0, 2), (1, 2)]), ([0, 1, 2, 3], [(0, 1), (0, 2), (1, 3)])]


def on_small_graphs(test):
    for case in SMALL_GRAPH_EDGE_CASES:
        test = example(case)(test)
    return settings(max_examples=300, deadline=None, derandomize=True, database=None)(given(small_graphs())(test))


@on_small_graphs
def test_enumerate_matchings_stream_equals_the_reference(case):
    # the stream order is the contract render --tiling INDEX depends on; the
    # reference keeps no outcome table, so the stream is not held to its layout
    labels, edges = case
    graph = WeightedGraph(labels, {(labels[u], labels[v]): LaurentPoly2.one() for u, v in edges})
    expected = [frozenset((labels[edges[e][0]], labels[edges[e][1]]) for e in chosen)
                for chosen in reference_matchings(len(labels), edges)]
    assert list(enumerate_matchings(graph)) == expected


@on_small_graphs
def test_count_matchings_equals_the_reference(case):
    # the count path keeps its own leaf tally; the reference shares no code with it
    labels, edges = case
    graph = WeightedGraph(labels, {(labels[u], labels[v]): LaurentPoly2.one() for u, v in edges})
    assert count_matchings(graph) == len(reference_matchings(len(labels), edges))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ragged_regions())
def test_enumerate_tilings_stream_equals_the_reference(region):
    index = {c: i for i, c in enumerate(region.sorted_cells)}
    edges = [(index[c1], index[c2]) for c1, c2 in region.all_dominoes]
    expected = [sum(1 << e for e in chosen) for chosen in reference_matchings(len(index), edges)]
    assert [t.mask for t in enumerate_tilings(region)] == expected


def test_tiling_streams_equal_the_reference_where_forced_runs_recur():
    # regions big enough that the search meets the same free set many times
    regions = [aztec_rectangle_with_holes(m, n, s) for m in range(1, 4) for n in range(m, 6)
               for s in combinations(range(1, n + 1), m)]
    regions += [aztec_diamond(k) for k in range(1, 5)]
    regions.append(Region("square", ("strip", 2, 12), frozenset(sq(x, y) for x in range(12) for y in range(2))))
    for region in regions:
        index = {c: i for i, c in enumerate(region.sorted_cells)}
        edges = [(index[c1], index[c2]) for c1, c2 in region.all_dominoes]
        expected = [sum(1 << e for e in chosen) for chosen in reference_matchings(len(index), edges)]
        assert [t.mask for t in enumerate_tilings(region)] == expected, region.key
        assert count_tilings(region) == len(expected), region.key
    assert len(expected) == 233  # the 2 x 12 strip: a Fibonacci number


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(ragged_regions())
def test_frontier_slots_on_random_ragged_regions(region):
    check_frontier_slots(region)


@st.composite
def weighted_rectangles(draw):
    # a holey Aztec rectangle and four nonzero rational face weights, signs free
    m = draw(st.integers(1, 3))
    n = draw(st.integers(m, 6))
    s = tuple(sorted(draw(st.sets(st.integers(1, n), min_size=m, max_size=m))))
    weight = st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool)
    return (m, n, s, *(draw(weight) for _ in range(4)))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(weighted_rectangles())
def test_matching_genfun_equals_the_weighted_closed_form(case):
    m, n, s, a, b, c, d = case
    assert matching_genfun(weighted_ar_graph(m, n, s, a, b, c, d)) == weighted_rectangle_matching_genfun(
        m, n, s, a, b, c, d)
