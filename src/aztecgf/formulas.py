"""Closed-form product formulas, returned as exact polynomials.

Each function here has an independent computational counterpart elsewhere in
the package (brute-force enumeration, the weighted DP, the plane-partition
enumerator or the peeling pipeline); the suites in :mod:`aztecgf.verify`
assert exact equality between the two routes at desk scale.  Nothing in this
module enumerates anything, and it imports nothing from the matching engine.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InexactDivision, InvalidDents, InvalidHoles, InvalidOrder
from .poly import (
    LaurentPoly2,
    PackedPoly,
    falling_ratio,
    packed_weight,
    q_ratio_packed,
    q_ratio_product,
    slot_bits,
)
from .regions import NO_BOUND, check_positions, check_size, face_weights


def shifted_content_exponent(m: int, s) -> int:
    """sum over 1 <= i <= j <= m of 2*(s_i + j - i - 1).

    This is the q-exponent of the weight of the minimal tiling's path family;
    the rank statistic measures the distance above it.
    """
    s = check_positions(m, NO_BOUND, s, InvalidHoles)
    return sum(2 * (s[i - 1] + j - i - 1) for j in range(1, m + 1) for i in range(1, j + 1))


def displacement(s) -> int:
    """sum of (s_i - i), the total shift of the kept positions."""
    return sum(x - i for i, x in enumerate(tuple(s), start=1))


def prefactor_exponent(m: int, s) -> int:
    """q-exponent of the monomial prefactor in the rectangle generating function.

    Equals 2(m-1)m(m+1)/3 + 2*sum(s_i - i) - shifted_content_exponent(m, s);
    the cubic term is an integer because (m-1)m(m+1) is divisible by 3.
    Always <= 0, and exactly cancelled by the lowest term of the q-ratio
    product so the assembled generating function is a genuine polynomial.
    """
    s = check_positions(m, NO_BOUND, s, InvalidHoles)
    return 2 * (m - 1) * m * (m + 1) // 3 + 2 * displacement(s) - shifted_content_exponent(m, s)


def aztec_diamond_genfun(n: int) -> LaurentPoly2:
    """prod_{k=0}^{n-1} (1 + t*q^(2k+1))^(n-k), the order-n diamond's F(q, t).

    At q = t = 1 this is 2^(n(n+1)/2), the plain tiling count, which bounds
    every coefficient and so fixes the packed slot width.
    """
    check_size("order", n, InvalidOrder)
    bits = slot_bits(2 ** (n * (n + 1) // 2))
    return _diamond_product(n, bits).decode(bits)


def _diamond_product(n: int, bits: int) -> PackedPoly:
    """prod_{k=0}^{n-1} (1 + t*q^(2k+1))^(n-k), packed at ``bits``.

    Each factor is one weight ``1 + t*q^(2k+1)``: the product so far plus
    its rows moved up one power of t and shifted by 2k+1 slots.
    """
    out = PackedPoly.one()
    for k in range(n):
        factor = packed_weight(1 + LaurentPoly2.term(1, q=2 * k + 1, t=1), bits)
        for _ in range(n - k):
            out = out * factor
    return out


def rectangle_genfun(m: int, n: int, s) -> LaurentPoly2:
    """Closed form of F(q, t) = sum over tilings of q^rank * t^vstat.

    Assembled as the packed diamond-style product times two one-monomial
    weights, the alpha=2 q-ratio product and the prefactor, all at the slot
    width of the tiling count (the value at q = t = 1, which bounds every
    coefficient): one big-int product per power of t, then one decode.
    Checked to be a polynomial (a negative exponent surviving would mean a
    transcription bug, and raises).
    """
    s = check_positions(m, n, s, InvalidHoles)
    bits = slot_bits(count_product(m, s))
    prefactor = packed_weight(LaurentPoly2.term(1, q=prefactor_exponent(m, s)), bits)
    out = _diamond_product(m, bits) * q_ratio_packed(s, 2, bits) * prefactor
    return out.decode(bits).require_polynomial()


def peel_target_factor(m: int, a, b, c, d) -> LaurentPoly2:
    """q^((m-1)m(m+1)/3) * prod_k Delta_k^(m-k+1): the factor the peeling
    pipeline must accumulate on an m-row rectangle, where
    Delta_k = a*d*q^(k-1) + b*c is the renewal weight of the k-th peeled row;
    m must be an int >= 1, else InvalidHoles."""
    check_size("m", m, InvalidHoles)
    a, b, c, d = face_weights(a, b, c, d)
    out = LaurentPoly2.term(1, q=(m - 1) * m * (m + 1) // 3)
    for k in range(1, m + 1):
        out = out * ((a * d).shift(dq=k - 1) + b * c) ** (m - k + 1)
    return out


def weighted_rectangle_matching_genfun(m: int, n: int, s, a, b, c, d) -> LaurentPoly2:
    """Closed form of the matching generating function of the weighted
    rectangle graph with holes removed, q symbolic and a, b, c, d read by
    :func:`~aztecgf.regions.face_weights`.

    peel_target_factor(m, a, b, c, d) * q^D * a^D * b^(m(n-m) - D)
    * prod_{i<j} (q^s_j - q^s_i)/(q^j - q^i),   with D = sum(s_i - i).
    """
    s = check_positions(m, n, s, InvalidHoles)
    a, b, c, d = face_weights(a, b, c, d)
    dsp = displacement(s)
    out = peel_target_factor(m, a, b, c, d) * (a**dsp * b ** (m * (n - m) - dsp)).shift(dq=dsp)
    return (out * q_ratio_product(s)).require_polynomial()


def cspp_genfun_product(s, m: int) -> LaurentPoly2:
    """Closed form of sum over column-strict plane partitions of q^|pi|.

    The partitions range over shape (s_m - m, ..., s_1 - 1) with positive
    entries at most m; the product form is q^D * prod (q^s_j - q^s_i)/(q^j -
    q^i) with D = sum(s_i - i).
    """
    s = check_positions(m, NO_BOUND, s, InvalidDents)  # the positions have no upper bound
    return (LaurentPoly2.term(1, q=displacement(s)) * q_ratio_product(s)).require_polynomial()


def count_product(m: int, s) -> int:
    """2^(m(m+1)/2) * prod (s_j - s_i)/(j - i): the rectangle tiling count."""
    s = check_positions(m, NO_BOUND, s, InvalidHoles)  # n plays no part in the count
    val = Fraction(2) ** (m * (m + 1) // 2) * falling_ratio(s)
    if val.denominator != 1:
        raise InexactDivision(f"the tiling count {val} is not an integer")
    return int(val)

