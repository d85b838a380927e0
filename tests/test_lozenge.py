"""Lozenge tilings, the plane-partition bijection, and the q-weighting."""

import random
import re
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from aztecgf import engine
from aztecgf.engine import Tiling, count_tilings, tiling_genfun_dp
from aztecgf.errors import BijectionViolation, InvalidDents, InvalidWeight
from aztecgf.formulas import cspp_genfun_product
from aztecgf.lozenge import (
    LEFT,
    RIGHT,
    VERTICAL,
    ColumnStrictPlanePartition,
    classify_lozenge,
    cspp_shape,
    cspp_to_tiling,
    enumerate_cspp,
    enumerate_lozenge_tilings,
    semihex_q_genfun,
    tiling_to_cspp,
    top_bottom_paths,
    weighted_sh_genfun,
)
from aztecgf.poly import LaurentPoly2, falling_ratio
from aztecgf.regions import semihexagon_with_dents


def test_counts():
    assert count_tilings(semihexagon_with_dents(3, 2, (2, 3, 5))) == 3
    for a in range(1, 4):
        assert count_tilings(semihexagon_with_dents(a, 0, tuple(range(1, a + 1)))) == 1
    assert count_tilings(semihexagon_with_dents(2, 1, (1, 3))) == 2


def test_counts_match_ratio_product():
    for m, n, s in ((2, 5, (2, 4)), (3, 6, (1, 4, 6)), (4, 6, (1, 2, 5, 6))):
        region = semihexagon_with_dents(m, n - m, s)
        assert count_tilings(region) == falling_ratio(s)


@st.composite
def dents(draw, max_a=4, max_b=3):
    a = draw(st.integers(1, max_a))
    b = draw(st.integers(0, max_b))
    s = draw(st.lists(st.integers(1, a + b), min_size=a, max_size=a, unique=True))
    return a, b, tuple(sorted(s))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(dents())
def test_semihexagon_count_equals_ratio_product_on_random_dents(case):
    a, b, s = case
    region = semihexagon_with_dents(a, b, s)
    assert count_tilings(region) == falling_ratio(s)
    assert tiling_genfun_dp(region) == falling_ratio(s)


def test_enumerate_cspp_small():
    pis = list(enumerate_cspp((1,), 2))
    assert sorted(pi.rows for pi in pis) == [((1,),), ((2,),)]
    assert len(list(enumerate_cspp((0, 0), 5))) == 1
    with pytest.raises(ValueError):
        list(enumerate_cspp((1, 2), 3))


def test_cspp_sum_matches_product():
    # (2, 4) has shape (2, 1) with entries at most 2
    assert cspp_shape(2, (2, 4)) == (2, 1)
    for s, m in (((1, 3), 2), ((2,), 1), ((2, 4), 2), ((2, 3, 5), 3), ((1, 4, 6), 3)):
        total = LaurentPoly2.zero()
        for pi in enumerate_cspp(cspp_shape(m, s), m):
            total = total + pi.q_weight()
        assert total == cspp_genfun_product(s, m)


def per_cell_stream(shape, max_entry):
    """The plain oracle: fill cell by cell in reading order, each entry from its largest allowed value down."""
    cells = [(i, j) for i, length in enumerate(shape) for j in range(length)]

    def rec(k, rows):
        if k == len(cells):
            yield tuple(map(tuple, rows))
            return
        i, j = cells[k]
        hi = min(max_entry, rows[i][j - 1] if j else max_entry, rows[i - 1][j] - 1 if i else max_entry)
        for v in range(hi, 0, -1):
            rows[i].append(v)
            yield from rec(k + 1, rows)
            rows[i].pop()

    return list(rec(0, [[] for _ in shape]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=4).map(lambda parts: sorted(parts, reverse=True)),
       st.integers(1, 5))
@example([1, 1, 1], 2)  # a column of 3 cells with entries at most 2: the stream is empty
@example([0, 0], 3)  # no cells: one empty partition
@example([4, 1], 4)  # a short row under a long one
def test_enumerate_cspp_streams_the_per_cell_recursion(shape, max_entry):
    # each row from combinations_with_replacement, kept when it sits below the one above, in the same order
    assert [pi.rows for pi in enumerate_cspp(shape, max_entry)] == per_cell_stream(shape, max_entry)


def test_enumerate_cspp_recursion_depth_is_the_number_of_rows():
    # SH(2, 1200; 1, 1202) has shape (1200, 0): a row of 1,200 entries is no deeper than a row of one
    assert len(list(enumerate_cspp(cspp_shape(2, (1, 1202)), 2))) == 1201


def test_enumerate_cspp_walks_no_dead_branch_down_a_tall_column():
    # SH(40, 1; 2, ..., 41) has shape (1,) * 40 and one partition: each entry's lower bound, the rows below it,
    # leaves one value per row, where an unbounded walk doubles its dead branches with each row
    (pi,) = enumerate_cspp(cspp_shape(40, range(2, 42)), 40)
    assert pi.rows == tuple((e,) for e in range(40, 0, -1))


def test_a_1200_entry_partition_round_trips_through_its_tiling():
    region = semihexagon_with_dents(1, 1200, (1201,))
    (pi,) = enumerate_cspp(cspp_shape(1, (1201,)), 1)
    assert tiling_to_cspp(cspp_to_tiling(pi, region)) == pi


def test_dent_complete_region_has_empty_partition():
    region = semihexagon_with_dents(3, 2, (1, 2, 3))
    (tiling,) = list(enumerate_lozenge_tilings(region))
    pi = tiling_to_cspp(tiling)
    assert pi.shape == (0, 0, 0) and pi.size == 0
    assert cspp_to_tiling(pi, region) == tiling


def left_level_sum(tiling, a):
    """The exponent of q in the tiling's weight: level + 1 per left lozenge."""
    kinds = (classify_lozenge(pair, a) for pair in tiling.dominoes)
    return sum(level + 1 for kind, level in kinds if kind == LEFT)


def test_bijection_roundtrip_exhaustive():
    for m, b, s in ((3, 2, (2, 3, 5)), (3, 3, (1, 4, 6)), (2, 1, (1, 3)), (4, 2, (2, 3, 5, 6))):
        region = semihexagon_with_dents(m, b, s)
        seen = set()
        for tiling in enumerate_lozenge_tilings(region):
            pi = tiling_to_cspp(tiling)
            seen.add(pi.rows)
            assert cspp_to_tiling(pi, region) == tiling
            # the weight is preserved: q^|pi| = product of left-lozenge weights
            assert left_level_sum(tiling, m) == pi.size
        assert len(seen) == count_tilings(region)
        assert len(seen) == falling_ratio(s)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(dents(max_a=6, max_b=4), st.integers(0, 2**32))
def test_bijection_roundtrip_on_sampled_tilings_and_partitions(case, seed):
    # past verify's m <= 4, n <= 8: up to 8 tilings and 8 partitions picked
    # from the two independent enumerations, round-tripped both ways
    a, b, s = case
    region = semihexagon_with_dents(a, b, s)
    count = int(falling_ratio(s))
    picks = set(random.Random(seed).sample(range(count), min(8, count)))
    stop = max(picks) + 1
    tilings = [t for k, t in enumerate(islice(enumerate_lozenge_tilings(region), stop)) if k in picks]
    pis = [pi for k, pi in enumerate(islice(enumerate_cspp(cspp_shape(a, s), a), stop)) if k in picks]
    assert len(tilings) == len(pis) == len(picks)
    for tiling in tilings:
        pi = tiling_to_cspp(tiling)
        assert cspp_to_tiling(pi, region) == tiling
        assert left_level_sum(tiling, a) == pi.size
    for pi in pis:
        tiling = cspp_to_tiling(pi, region)
        # the replay hands its mate to the tiling: it must be the one the mask decodes to
        assert tiling.mate == Tiling(region, tiling.mask).mate and tiling.is_valid()
        assert tiling_to_cspp(tiling) == pi
        assert left_level_sum(tiling, a) == pi.size


def test_cspp_to_tiling_runs_no_search(monkeypatch):
    # the inverse is a direct construction, so it works with the oracle gone
    cases = []
    for a, b, s in ((3, 2, (2, 3, 5)), (4, 2, (2, 3, 5, 6)), (5, 2, (1, 3, 4, 6, 7))):
        region = semihexagon_with_dents(a, b, s)
        cases.append((region, list(enumerate_lozenge_tilings(region))))

    def no_search(*args):
        raise AssertionError("the backtracking oracle was called")

    monkeypatch.setattr(engine, "_matchings", no_search)
    for region, tilings in cases:
        for tiling in tilings:
            assert cspp_to_tiling(tiling_to_cspp(tiling), region) == tiling


def test_cspp_shape_and_enumeration_reject_mismatched_dents():
    with pytest.raises(InvalidDents):
        cspp_shape(2, (1,))
    for shape in ((1, 2), (0, -1), ()):
        with pytest.raises(InvalidDents):
            list(enumerate_cspp(shape, 2))
        with pytest.raises(InvalidDents):
            enumerate_cspp(shape, 2)  # at the call, before any partition is asked for


def test_shape_of_large_instance():
    region = semihexagon_with_dents(6, 4, (1, 3, 6, 7, 8, 10))
    assert cspp_shape(6, (1, 3, 6, 7, 8, 10)) == (4, 3, 3, 3, 1, 0)
    tiling = next(iter(enumerate_lozenge_tilings(region)))
    pi = tiling_to_cspp(tiling)
    assert pi.shape == (4, 3, 3, 3, 1, 0)
    assert pi.max_entry == 6
    assert cspp_to_tiling(pi, region) == tiling


def test_weighted_genfun():
    region = semihexagon_with_dents(2, 1, (1, 3))
    assert weighted_sh_genfun(region, lambda k: 1, 1) == LaurentPoly2.const(2)
    assert semihex_q_genfun(region) == cspp_genfun_product((1, 3), 2)
    # a/b-weighted: each tiling has sum(s_i - i) left lozenges in total
    a, b = Fraction(3), Fraction(5)
    weighted = weighted_sh_genfun(region, lambda k: LaurentPoly2.const(a), LaurentPoly2.const(b))
    assert weighted == LaurentPoly2.const(2 * a * b)  # one left, one right per tiling


def test_weighted_genfun_reads_each_level_once_and_names_the_first_bad_lozenge():
    # each (kind, level) is read and checked once per call and shared by its lozenges; the sum is
    # that of a fresh weight per lozenge, and a bad weight is named at its first lozenge in pool order
    a, s = 4, (1, 3, 6, 8)
    region = semihexagon_with_dents(a, 4, s)
    levels = []

    def left(k):
        levels.append(k)
        return LaurentPoly2.term(2, q=k + 1)

    def fresh(pair):
        kind, level = classify_lozenge(pair, a)
        return LaurentPoly2.term(2, q=level + 1) if kind == LEFT else LaurentPoly2.const(3) if kind == RIGHT else 1

    expected = tiling_genfun_dp(region, fresh)
    for _ in range(2):
        levels.clear()
        assert weighted_sh_genfun(region, left, 3) == expected
        assert sorted(levels) == [0, 1, 2, 3]
    assert weighted_sh_genfun(region, lambda k: LaurentPoly2.term(1, q=k + 1), 1) == cspp_genfun_product(s, a)
    pool = [(pair, *classify_lozenge(pair, a)) for pair in region.all_dominoes]
    first_right = next(pair for pair, kind, _ in pool if kind == RIGHT)
    first_left_at_2 = next(pair for pair, kind, level in pool if kind == LEFT and level == 2)
    for bad, reason in (("3", "is '3', not an int"), (LaurentPoly2.const(-1), "has a negative coefficient")):
        with pytest.raises(InvalidWeight, match=re.escape(f"weight of {first_right} {reason}")):
            weighted_sh_genfun(region, left, bad)
        with pytest.raises(InvalidWeight, match=re.escape(f"weight of {first_left_at_2} {reason}")):
            weighted_sh_genfun(region, lambda k: bad if k == 2 else 1, 1)


def test_top_bottom_path_counts():
    m, n, s = 3, 6, (1, 4, 6)
    region = semihexagon_with_dents(m, n - m, s)
    holes = [h for h in range(1, n + 1) if h not in set(s)]
    for tiling in enumerate_lozenge_tilings(region):
        decomp = top_bottom_paths(tiling)
        assert [exit for _, _, exit in decomp] == holes
        for j, (lefts, rights, _) in enumerate(decomp, start=1):
            assert rights == holes[j - 1] - j
            assert lefts == m - (holes[j - 1] - j)
        assert sum(l for l, _, _ in decomp) == sum(x - i for i, x in enumerate(s, start=1))


def test_classify():
    from aztecgf.regions import dw, up

    assert classify_lozenge((dw(2, 3), up(2, 3)), 4) == (LEFT, 1)
    assert classify_lozenge((dw(1, 3), up(2, 3)), 4) == (RIGHT, 1)
    assert classify_lozenge((dw(2, 4), up(2, 3)), 4) == (VERTICAL, 1)


def test_cspp_validation():
    with pytest.raises(BijectionViolation):
        ColumnStrictPlanePartition((2, 1), ((1, 2), (1,)), 3)
    with pytest.raises(BijectionViolation):
        ColumnStrictPlanePartition((1, 1), ((1,), (1,)), 3)
    with pytest.raises(BijectionViolation, match="do not match"):
        ColumnStrictPlanePartition((2, 1), ((3,), (1,)), 3)
    with pytest.raises(BijectionViolation, match=r"shape \(1, 2\) is not"):
        ColumnStrictPlanePartition((1, 2), ((3,), (2, 1)), 3)
    for rows in (((4, 2), (1,)), ((3, 0), (1,))):
        with pytest.raises(BijectionViolation, match="out of range"):
            ColumnStrictPlanePartition((2, 1), rows, 3)
    pi = ColumnStrictPlanePartition((2, 1), ((3, 2), (1,)), 3)
    assert pi.size == 6
    # rows may arrive as lists; the partition keeps them as tuples, so it hashes
    listed = ColumnStrictPlanePartition((2, 1), [[3, 2], [1]], 3)
    assert listed == pi and hash(listed) == hash(pi) and listed.rows == ((3, 2), (1,))
