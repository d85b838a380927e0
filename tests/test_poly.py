"""Exact polynomial arithmetic: ring axioms, division, the q-ratio product."""

import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aztecgf.errors import InexactDivision, InvalidDents, PoleAtZero
from aztecgf.poly import (
    FracWeight,
    LaurentPoly2,
    PackedPoly,
    falling_ratio,
    packed_weight,
    q_ratio_packed,
    q_ratio_product,
    slot_bits,
)


def q_power(k):
    return LaurentPoly2.term(1, q=k)


Q = q_power(1)
TQ = LaurentPoly2.term(1, q=1, t=1)


def rand_poly(rng, terms=4, allow_negative=True):
    lo = -3 if allow_negative else 0
    return LaurentPoly2(
        {
            (rng.randint(lo, 4), rng.randint(lo, 4)): Fraction(
                rng.randint(-6, 6), rng.randint(1, 4)
            )
            for _ in range(terms)
        }
    )


def test_additive_identity_and_inverse():
    p = 1 + TQ
    assert p + LaurentPoly2.zero() == p
    assert p + (-p) == LaurentPoly2.zero()
    assert (p + TQ) == LaurentPoly2({(0, 0): 1, (1, 1): 2})


def test_multiplicative_identity_and_binomial_square():
    p = 1 + TQ
    assert p * LaurentPoly2.one() == p
    assert p * p == LaurentPoly2({(0, 0): 1, (1, 1): 2, (2, 2): 1})


def test_product_expansion_matches_term_convolution():
    # independent oracle: convolve term lists by hand
    p = (1 + TQ) ** 2
    r = 1 + LaurentPoly2.term(1, q=3, t=1)
    expected = {}
    for (aq, at), ac in p.sorted_terms():
        for (bq, bt), bc in r.sorted_terms():
            key = (aq + bq, at + bt)
            expected[key] = expected.get(key, 0) + ac * bc
    assert p * r == LaurentPoly2(expected)
    assert (p * r).to_text() == "1 + 2*t*q + t^2*q^2 + t*q^3 + 2*t^2*q^4 + t^3*q^5"


def test_ring_axioms_randomized():
    rng = random.Random(1234)
    for _ in range(60):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c


def test_exact_div_examples():
    assert (q_power(3) - Q).exact_div(q_power(2) - Q) == Q + 1
    p = (1 + TQ) ** 3
    assert p.exact_div(p) == LaurentPoly2.one()
    with pytest.raises(InexactDivision):
        (q_power(2) - 1).exact_div(Q + 2)


def test_exact_div_roundtrip_randomized():
    rng = random.Random(77)
    for _ in range(60):
        p = rand_poly(rng)
        d = rand_poly(rng, terms=3)
        if not d:
            continue
        assert (p * d).exact_div(d) == p


def test_eval():
    assert (1 + TQ).evaluate(1, 1) == 2
    assert ((1 + TQ) ** 2 * (1 + LaurentPoly2.term(1, q=3, t=1))).evaluate(1, 1) == 8
    assert LaurentPoly2.term(1, q=-1).evaluate(2, 1) == Fraction(1, 2)
    with pytest.raises(PoleAtZero):
        LaurentPoly2.term(1, q=-1).evaluate(0, 1)


def q_ratio(s, alpha):
    """The q-ratio product in q^alpha: ``q_ratio_product`` at alpha = 1, and
    otherwise the packed weight that ``rectangle_genfun`` multiplies by."""
    if alpha == 1:
        return q_ratio_product(s)
    bits = slot_bits(int(falling_ratio(s)))  # the coefficients do not depend on alpha
    return (PackedPoly.one() * q_ratio_packed(s, alpha, bits)).decode(bits)


def test_q_ratio_product():
    for m in range(1, 5):
        s = tuple(range(1, m + 1))
        assert q_ratio(s, 2) == q_ratio_product(s) == LaurentPoly2.one()
    assert q_ratio_product((1, 3)) == Q + 1
    assert q_ratio((1, 3), 2) == Q * Q + 1
    assert q_ratio((1, 4, 6), 2).evaluate(1, 1) == 15


def test_q_ratio_product_always_divides_with_integer_coefficients():
    for length in range(1, 5):
        for s in combinations(range(1, 9), length):
            for alpha in (1, 2):
                p = q_ratio(s, alpha)  # raises InexactDivision on failure
                assert p.is_polynomial()
                assert all(
                    c.denominator == 1 and c.numerator >= 0 for _, c in p.sorted_terms()
                )
                assert p.evaluate(1, 1) == falling_ratio(s)
                # the packed quotient times the sparse denominator is the
                # sparse numerator
                num = den = LaurentPoly2.one()
                for i, j in combinations(range(length), 2):
                    num = num * (q_power(alpha * s[j]) - q_power(alpha * s[i]))
                    den = den * (q_power(alpha * (j + 1)) - q_power(alpha * (i + 1)))
                assert p * den == num


def test_q_ratio_product_rejects_bad_input():
    with pytest.raises(ValueError):
        q_ratio_product((2, 1))
    with pytest.raises(ValueError):
        q_ratio_product((1, 2, 2))
    for s in ((2, 1), (1, 2, 2), (0, 1), (1.5, 3), (True, 3)):  # positions are ints, and a bool is not one
        with pytest.raises(InvalidDents):
            q_ratio_product(s)


def test_laurent_flags_and_shifts():
    p = LaurentPoly2.term(1, q=-2, t=1)
    assert not p.is_polynomial()
    assert p.shift(dq=2).is_polynomial()
    assert (1 + TQ).invert_t() == 1 + LaurentPoly2.term(1, q=1, t=-1)


def test_serialization():
    p = LaurentPoly2({(0, 0): 1, (3, 1): Fraction(1, 2), (1, 1): -2})
    assert p.to_text() == "1 - 2*t*q + 1/2*t*q^3"
    obj = p.to_json_obj()
    assert obj == {
        "terms": [
            {"q": 0, "t": 0, "coeff": "1"},
            {"q": 1, "t": 1, "coeff": "-2"},
            {"q": 3, "t": 1, "coeff": "1/2"},
        ]
    }
    assert LaurentPoly2.from_json_obj(obj) == p
    assert LaurentPoly2.zero().to_text() == "0"


def reference_text(terms):
    """``to_text`` spelled out from its docstring, for a {(e_q, e_t): c} map.

    Terms in (q-exponent, t-exponent) order; each is its coefficient's
    magnitude (left out when it is 1, except on the constant term), then
    t^e_t, then q^e_q (exponent 1 unwritten), joined by "*".  The first
    term carries a bare "-" when negative; the others are joined by " + "
    or " - ".  The zero polynomial prints as "0".
    """
    out = []
    for (eq, et), c in sorted((e, Fraction(c)) for e, c in terms.items() if c != 0):
        factors = [] if abs(c) == 1 and (eq, et) != (0, 0) else [str(abs(c))]
        factors += [v if e == 1 else f"{v}^{e}" for v, e in (("t", et), ("q", eq)) if e != 0]
        body = "*".join(factors)
        if not out:
            out.append("-" + body if c < 0 else body)
        else:
            out.append((" - " if c < 0 else " + ") + body)
    return "".join(out) or "0"


@st.composite
def text_cases(draw):
    # int and Fraction coefficients, +-1, zeros, negative exponents, and an
    # optional constant term; the empty map is the zero polynomial
    coeff = st.one_of(st.sampled_from([1, -1, 0]), st.integers(-10**30, 10**30),
                      st.fractions(max_denominator=10**6))
    terms = draw(st.dictionaries(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), coeff,
                                 max_size=8))
    if draw(st.booleans()):
        terms[(0, 0)] = draw(coeff)
    return terms


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text_cases())
def test_to_text_follows_its_rules(terms):
    assert LaurentPoly2(terms).to_text() == reference_text(terms)


def test_coefficients_always_reduced_fractions():
    p = LaurentPoly2({(0, 0): Fraction(2, 4)})
    ((e, c),) = p.sorted_terms()
    assert c == Fraction(1, 2) and c.denominator == 2


def test_slot_bits():
    assert [slot_bits(b) for b in (0, 1, 255, 256, 2**16 - 1, 2**16)] == [8, 8, 8, 16, 16, 24]


@st.composite
def nonnegative_laurent(draw):
    # non-negative integer coefficients of any size, negative exponents allowed
    terms = draw(st.dictionaries(
        st.tuples(st.integers(-5, 6), st.integers(-3, 4)),
        st.integers(1, 2**40),
        max_size=7,
    ))
    return LaurentPoly2(terms)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(nonnegative_laurent(), nonnegative_laurent())
def test_packed_product_decodes_to_sparse_product(a, b):
    bits = slot_bits(int((a.evaluate(1, 1) + 1) * (b.evaluate(1, 1) + 1)))  # inputs and product
    packed = PackedPoly.one() * packed_weight(a, bits)
    assert (packed * packed_weight(b, bits)).decode(bits) == a * b


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(nonnegative_laurent(), nonnegative_laurent(), st.integers(1, 6))
def test_packed_weight_product_and_sum(a, weight, den):
    # a scaled weight times a packed value, + on the rows, and / den
    bits = slot_bits(int((a.evaluate(1, 1) + 1) * (weight.evaluate(1, 1) + 1)))
    packed = PackedPoly.one() * packed_weight(a, bits)
    out = packed * packed_weight(weight / den, bits, den) + packed
    assert out.decode(bits, den) == (a * weight + a) / den


def test_packed_weight_rejects_what_cannot_pack():
    for poly, scale in ((LaurentPoly2.term(-1), 1), (LaurentPoly2.term(Fraction(1, 2)), 1),
                        (LaurentPoly2.term(Fraction(1, 6)), 2)):
        with pytest.raises(ValueError):
            packed_weight(poly, 8, scale)
    poly = LaurentPoly2.term(Fraction(1, 6), q=-2, t=3) + Fraction(1, 2)
    assert packed_weight(poly, 8, 12) == ((3, 2, -16), (0, 6, 0))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(nonnegative_laurent(), nonnegative_laurent())
def test_an_exact_quotient_is_its_polynomial(p, d):
    assume(d)
    got = FracWeight(p * d, d)
    assert got == p and type(got) is LaurentPoly2
    zero = FracWeight(0, d)
    assert zero == 0 and type(zero) is LaurentPoly2


def test_a_true_quotient_never_equals_a_polynomial():
    d = 1 + Q
    w = FracWeight(Q, d)
    assert isinstance(w, FracWeight) and w.num == Q and w.den == d
    for p in (0, 1, Fraction(1, 2), Q, d, w * d * d):  # w * d * d is the polynomial Q * d
        assert w != p and p != w and not w == p
    assert w == FracWeight(Q * Q, Q * d)
    with pytest.raises(ZeroDivisionError):
        FracWeight(1, 0)


def test_quotients_are_only_multiplied_and_compared():
    w = FracWeight(1, 1 + Q)
    assert w * (1 + Q) == 1 and w * w == FracWeight(1, (1 + Q) ** 2) and bool(w)
    assert 2 * w == w * Fraction(2) == FracWeight(2, 1 + Q) != w
    with pytest.raises(TypeError):
        hash(w)
    with pytest.raises(TypeError):
        w + w
    # a polynomial divides by a scalar with /, by a polynomial with exact_div
    assert (2 * Q + 2) / 2 == (2 * Q + 2) / Fraction(2) == 1 + Q
    with pytest.raises(TypeError):
        (1 + Q) / (1 + Q)
    with pytest.raises(ZeroDivisionError):
        (1 + Q) / 0


def test_operands_are_read_by_one_rule():
    # an int that is not a bool, a Fraction or a LaurentPoly2; a bool is refused like any other type
    one, frac = LaurentPoly2.one(), FracWeight(1, Q + 1)
    for call in (lambda: one * True, lambda: True * one, lambda: one / True, lambda: one + True,
                 lambda: one - True, lambda: True - one, lambda: frac * True, lambda: True * frac):
        with pytest.raises(TypeError):
            call()
    assert (one == True) is False and (frac == True) is False
    # the reflected operators keep working on what the rule admits
    assert one == 1 and 3 - Q == -(Q - 3) and Q * frac == FracWeight(Q, Q + 1)
    with pytest.raises(ValueError, match="exponent must be a non-negative integer"):
        LaurentPoly2.term(5, q=1) ** True
    with pytest.raises(ZeroDivisionError, match="^division by zero$"):
        Q / 0


def test_exponents_are_read_by_the_constructors_rule():
    with pytest.raises(TypeError, match="exponents must be integers"):
        LaurentPoly2.from_json_obj({"terms": [{"q": 1.5, "t": "2", "coeff": "1"}]})
    with pytest.raises(TypeError, match="exponents must be integers"):
        LaurentPoly2.term(5, q=1).coefficient(True, False)
    assert LaurentPoly2.term(5, q=1).coefficient(1, 0) == 5
