"""Closed product formulas against small independent computations."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import aztecgf
from aztecgf.engine import count_tilings, matching_genfun
from aztecgf.errors import InvalidDents, InvalidHoles, InvalidOrder, NegativeExponent
from aztecgf.formulas import (
    aztec_diamond_genfun,
    count_product,
    cspp_genfun_product,
    prefactor_exponent,
    rectangle_genfun,
    shifted_content_exponent,
    weighted_rectangle_matching_genfun,
)
from aztecgf.poly import LaurentPoly2
from aztecgf.regions import aztec_diamond, aztec_rectangle_with_holes, semihexagon_with_dents, weighted_ar_graph
from aztecgf.stats import genfun_bruteforce

TQ = LaurentPoly2.term(1, q=1, t=1)
TQ3 = LaurentPoly2.term(1, q=3, t=1)


def test_diamond_product():
    assert aztec_diamond_genfun(1) == 1 + TQ
    assert aztec_diamond_genfun(2) == (1 + TQ) ** 2 * (1 + TQ3)
    for n in range(1, 7):
        assert aztec_diamond_genfun(n).evaluate(1, 1) == 2 ** (n * (n + 1) // 2)
    for n in (0, -2):
        with pytest.raises(InvalidOrder, match="order must be >= 1"):
            aztec_diamond_genfun(n)
    # the closed product and the region builder share one order check
    for n in (True, 1.5, 2.0, "2", None):
        for build in (aztec_diamond_genfun, aztec_diamond):
            with pytest.raises(InvalidOrder, match="order must be an integer"):
                build(n)


def test_count_product_rejects_bad_positions():
    assert count_product(2, (1, 3)) == 16
    assert count_product(2, iter((1, 3))) == 16  # the bound is read off the positions once
    # out of order, repeated, non-positive, or not m of them
    for m, s in ((2, (3, 1)), (2, (2, 2)), (2, (0, 2)), (2, (1,)), (0, ())):
        with pytest.raises(InvalidHoles):
            count_product(m, s)


def test_rectangle_genfun_examples():
    assert rectangle_genfun(1, 1, (1,)) == 1 + TQ
    for m in range(1, 5):
        assert rectangle_genfun(m, m, tuple(range(1, m + 1))) == aztec_diamond_genfun(m)
    assert rectangle_genfun(3, 6, (1, 4, 6)).evaluate(1, 1) == 960


def test_rectangle_genfun_is_polynomial_and_matches_bruteforce():
    for m, n, s in ((1, 3, (2,)), (2, 3, (1, 3)), (2, 4, (2, 4)), (3, 4, (1, 3, 4))):
        closed = rectangle_genfun(m, n, s)
        assert closed.is_polynomial()
        assert closed == genfun_bruteforce(m, n, s)
        assert closed.coefficient(0, 0) == 1  # the minimal tiling alone has rank 0


def test_prefactor_exponent():
    assert prefactor_exponent(1, (1,)) == 0
    for m in range(1, 5):
        assert prefactor_exponent(m, tuple(range(1, m + 1))) == 0
    assert prefactor_exponent(2, (1, 3)) <= 0
    assert shifted_content_exponent(3, (1, 4, 6)) == 30


def test_exponents_reject_mismatched_positions():
    with pytest.raises(InvalidHoles):
        shifted_content_exponent(3, (1, 2))
    with pytest.raises(InvalidHoles):
        prefactor_exponent(2, (1,))
    # sizes and positions are ints, checked before any arithmetic
    for m, s in ((1.5, (1, 2)), (True, (1,)), (2, (1.0, 2))):
        with pytest.raises(InvalidHoles, match="integers"):
            prefactor_exponent(m, s)


def test_weighted_product_examples():
    a, b, c, d = Fraction(2), Fraction(1), Fraction(3), Fraction(5)
    assert weighted_rectangle_matching_genfun(1, 1, (1,), a, b, c, d) == LaurentPoly2.const(
        a * d + b * c
    )
    assert weighted_rectangle_matching_genfun(2, 3, (1, 3), a, b, c, d) == matching_genfun(
        weighted_ar_graph(2, 3, (1, 3), a, b, c, d)
    )
    # all-ones specialization at q = 1 gives the remark count
    for m, n, s in ((2, 4, (1, 3)), (3, 5, (2, 3, 5))):
        p = weighted_rectangle_matching_genfun(m, n, s, 1, 1, 1, 1)
        assert p.evaluate(1, 1) == count_product(m, s)
    # no such region: a position past n, m > n, positions out of order
    for m, n, s in ((2, 3, (1, 5)), (3, 2, (1, 2, 3)), (2, 3, (3, 1))):
        with pytest.raises(InvalidHoles):
            weighted_rectangle_matching_genfun(m, n, s, a, b, c, d)


def test_cspp_product_examples():
    for m in range(1, 4):
        assert cspp_genfun_product(tuple(range(1, m + 1)), m) == LaurentPoly2.one()
    q = LaurentPoly2.term(1, q=1)
    assert cspp_genfun_product((1, 3), 2) == q + q * q
    assert cspp_genfun_product((2,), 1) == q
    with pytest.raises(InvalidDents):
        cspp_genfun_product((1, 2), 3)
    with pytest.raises(InvalidDents):
        cspp_genfun_product((2, 1), 2)
    with pytest.raises(InvalidDents):
        cspp_genfun_product((0, 1), 2)


def test_relation_examples():
    # dominoes(AR) = 2^(m(m+1)/2) * lozenges(SH), both sides counted by the search: 960 = 64 * 15
    for m, n, s, dominoes, lozenges in ((3, 6, (1, 4, 6), 960, 15), (1, 1, (1,), 2, 1), (2, 4, (1, 3), 16, 2)):
        assert count_tilings(aztec_rectangle_with_holes(m, n, s)) == dominoes
        assert count_tilings(semihexagon_with_dents(m, n - m, s)) == lozenges
        assert dominoes == 2 ** (m * (m + 1) // 2) * lozenges


def test_negative_exponent_guard():
    with pytest.raises(NegativeExponent):
        LaurentPoly2.term(1, q=-1).require_polynomial()


def test_count_product_checks_its_value_under_python_O():
    # a raise, not an assert: under -O a fractional value must not be truncated by int()
    code = ("from fractions import Fraction; import aztecgf.formulas as f; "
            "f.falling_ratio = lambda s: Fraction(1, 3); print(f.count_product(1, (1,)))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(aztecgf.__file__)))
    run = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert run.returncode == 1 and not run.stdout
    assert "InexactDivision: the tiling count 2/3 is not an integer" in run.stderr
