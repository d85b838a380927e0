"""Exact polynomials in q and t: the sparse boundary type and its packed core.

A ``LaurentPoly2`` is a finite map from exponent pairs ``(e_q, e_t)`` to
nonzero ``Fraction`` coefficients.  It is the value type every generating
function in this package returns: ``q`` tracks the rank-like statistic and
``t`` the vertical-domino-like statistic, and weighted-graph computations keep
``q`` symbolic while soaking any other parameters into the coefficient field.
Exponents may be negative (Laurent), which intermediate prefactor assembly
needs, but user-facing generating functions are checked to be genuine
polynomials via :meth:`LaurentPoly2.require_polynomial`.  Its coefficients
are ``fractions.Fraction`` (lowest terms, positive denominator).

The hot paths -- the weighted frontier DP, the diamond product and the
q-ratio product -- run on :class:`PackedPoly` instead: polynomials with
non-negative integer coefficients, one big int per power of ``t`` holding the
``q``-coefficients in fixed-width bit slots (Kronecker substitution,
``q = 2**bits``).  Each result leaves through one :meth:`PackedPoly.decode`
into a ``LaurentPoly2``.

A :class:`FracWeight` is a true quotient of two ``LaurentPoly2`` values: the
edge weight that graph rewrites leave behind when a renewal divides by a
binomial.  An exact quotient is never one: building it returns the
``LaurentPoly2`` itself.  Quotients are only multiplied and compared (by
cross-multiplication); they have no sum and no hash.
:func:`~aztecgf.engine.matching_genfun`, the one place that sums them,
writes them over one common denominator first.

``LaurentPoly2`` values are immutable and hashable; they can be shared freely
across threads.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import prod
from operator import add

from .errors import InexactDivision, InvalidDents, NegativeExponent, PoleAtZero


def _coeff(x) -> Fraction:
    """The one type rule for coefficients: an int (not a bool) or a Fraction."""
    if isinstance(x, Fraction):
        return x
    if type(x) is int:
        return Fraction(x)
    raise TypeError(f"coefficient must be an integer or Fraction, got {type(x).__name__}")


def _exponents(eq, et) -> tuple:
    """The one type rule for an exponent pair: two ints (not bools)."""
    if type(eq) is not int or type(et) is not int:
        raise TypeError(f"exponents must be integers, got {(eq, et)!r}")
    return eq, et


def _operand(x):
    """The other operand of ``==`` or arithmetic by :func:`as_poly`'s one rule, else NotImplemented."""
    try:
        return as_poly(x)
    except TypeError:
        return NotImplemented


class LaurentPoly2:
    """Sparse Laurent polynomial in q and t with exact rational coefficients.

    Terms live in an internal dict ``{(e_q, e_t): Fraction}`` that never
    stores a zero coefficient, so two polynomials are equal iff their term
    maps are equal.
    """

    __slots__ = ("_terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for (eq, et), c in terms.items():
                c = _coeff(c)
                if c:
                    clean[_exponents(eq, et)] = c
        self._terms = clean
        self._hash = None

    # -- constructors ------------------------------------------------------

    @classmethod
    def _of(cls, terms) -> "LaurentPoly2":
        """Wrap a clean ``{(e_q, e_t): Fraction}`` dict without copying or checking it."""
        res = cls()
        res._terms = terms
        return res

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def const(cls, c) -> "LaurentPoly2":
        return cls({(0, 0): c})

    @classmethod
    def term(cls, c, q: int = 0, t: int = 0) -> "LaurentPoly2":
        """The monomial c * q**q * t**t."""
        return cls({(q, t): c})

    # -- basic queries -----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def sorted_terms(self):
        """Terms as ((e_q, e_t), coeff), ordered lexicographically ascending.

        This is the canonical serialization order; all text/JSON output is
        derived from it, which is what makes CLI output bit-stable.
        """
        return sorted(self._terms.items())

    def coefficient(self, q: int = 0, t: int = 0) -> Fraction:
        return self._terms.get(_exponents(q, t), Fraction(0))

    def is_polynomial(self) -> bool:
        """True when every exponent is non-negative in both variables."""
        return all(eq >= 0 and et >= 0 for eq, et in self._terms)

    def require_polynomial(self) -> "LaurentPoly2":
        if not self.is_polynomial():
            bad = min(self._terms)
            raise NegativeExponent(f"negative exponent in final result, e.g. term {bad}")
        return self

    # -- arithmetic ---------------------------------------------------------

    def __eq__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __neg__(self):
        return LaurentPoly2({e: -c for e, c in self._terms.items()})

    def __add__(self, other):
        if (other := _operand(other)) is NotImplemented:
            return other
        out = dict(self._terms)
        for e, c in other._terms.items():
            s = out.get(e, 0) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return LaurentPoly2._of(out)

    __radd__ = __add__

    def __sub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else self + (-other)

    def __rsub__(self, other):
        other = _operand(other)
        return other if other is NotImplemented else other + (-self)

    def __mul__(self, other):
        if (other := _operand(other)) is NotImplemented:
            return other
        out = {}
        for (aq, at), ac in self._terms.items():
            for (bq, bt), bc in other._terms.items():
                e = (aq + bq, at + bt)
                s = out.get(e, 0) + ac * bc
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        return LaurentPoly2._of(out)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if type(k) is not int or k < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = LaurentPoly2.one()
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    def exact_div(self, d: "LaurentPoly2") -> "LaurentPoly2":
        """Return u with u * d == self, or raise :class:`InexactDivision`.

        Division runs in the Laurent ring: quotient exponents are allowed to
        be negative.  Candidate quotient exponents are confined to the box
        implied by degree arithmetic (the q- and t-degree spans of self minus
        those of d), so a failed division is detected, not looped on.
        """
        if not d:
            raise ZeroDivisionError("division by the zero polynomial")
        if not self:
            return LaurentPoly2.zero()

        def spans(p):
            qs = [eq for eq, _ in p._terms]
            ts = [et for _, et in p._terms]
            return min(qs), max(qs), min(ts), max(ts)

        nq0, nq1, nt0, nt1 = spans(self)
        dq0, dq1, dt0, dt1 = spans(d)
        # exponent box any true quotient must live in
        uq0, uq1 = nq0 - dq0, nq1 - dq1
        ut0, ut1 = nt0 - dt0, nt1 - dt1
        if uq0 > uq1 or ut0 > ut1:
            raise InexactDivision("degree spans rule out any quotient")

        lead_d = max(d._terms)
        lead_dc = d._terms[lead_d]
        rem = dict(self._terms)
        quot = {}
        while rem:
            lead_r = max(rem)
            eq = lead_r[0] - lead_d[0]
            et = lead_r[1] - lead_d[1]
            if not (uq0 <= eq <= uq1 and ut0 <= et <= ut1):
                raise InexactDivision("remainder is not divisible")
            c = rem[lead_r] / lead_dc
            quot[(eq, et)] = c
            for (bq, bt), bc in d._terms.items():
                e = (eq + bq, et + bt)
                s = rem.get(e, 0) - c * bc
                if s:
                    rem[e] = s
                else:
                    rem.pop(e, None)
        return LaurentPoly2._of(quot)

    def __truediv__(self, other):
        """Division by a coefficient (see :func:`_coeff`); :meth:`exact_div` divides by a polynomial."""
        if isinstance(other, LaurentPoly2) or _operand(other) is NotImplemented:
            return NotImplemented
        if not other:
            raise ZeroDivisionError("division by zero")
        return self * Fraction(1, other)

    # -- substitutions -------------------------------------------------------

    def evaluate(self, q0, t0) -> Fraction:
        """Exact value at q=q0, t=t0; raises :class:`PoleAtZero` on 0**negative."""
        q0 = _coeff(q0)
        t0 = _coeff(t0)
        total = Fraction(0)
        for (eq, et), c in self._terms.items():
            if (eq < 0 and q0 == 0) or (et < 0 and t0 == 0):
                raise PoleAtZero(f"substituting 0 into exponent pair ({eq}, {et})")
            total += c * q0**eq * t0**et
        return total

    def invert_t(self) -> "LaurentPoly2":
        """Substitute t -> 1/t, i.e. negate every t-exponent."""
        return LaurentPoly2({(eq, -et): c for (eq, et), c in self._terms.items()})

    def shift(self, dq: int = 0, dt: int = 0) -> "LaurentPoly2":
        """Multiply by the monomial q**dq * t**dt."""
        return LaurentPoly2({(eq + dq, et + dt): c for (eq, et), c in self._terms.items()})

    # -- serialization -------------------------------------------------------

    def to_text(self) -> str:
        """Human-readable sorted term list, e.g. ``1 + 2*t*q + t^2*q^2``.

        Terms are ordered by (q-exponent, t-exponent); within a term the
        coefficient comes first (omitted when 1), then the t part, then the
        q part, joined by ``*``.
        """
        if not self:
            return "0"
        pieces = []
        for (eq, et), c in self.sorted_terms():
            num, den = c.numerator, c.denominator
            mag = -num if num < 0 else num
            coeff = str(mag) if den == 1 else f"{mag}/{den}"
            parts = [] if coeff == "1" and (eq or et) else [coeff]
            if et:
                parts.append("t" if et == 1 else f"t^{et}")
            if eq:
                parts.append("q" if eq == 1 else f"q^{eq}")
            pieces.append((" - " if num < 0 else " + ") + "*".join(parts))
        text = "".join(pieces)  # the first term's separator becomes its sign
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def to_json_obj(self) -> dict:
        """JSON form: {"terms": [{"q": .., "t": .., "coeff": ".."}, ...]}."""
        return {
            "terms": [
                {"q": eq, "t": et, "coeff": str(c)}
                for (eq, et), c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_json_obj(cls, obj) -> "LaurentPoly2":
        return cls({(item["q"], item["t"]): Fraction(item["coeff"]) for item in obj["terms"]})

    def __str__(self):
        return self.to_text()

    def __repr__(self):
        return f"LaurentPoly2({self.to_text()})"


def as_poly(x) -> LaurentPoly2:
    """Coerce an int (not a bool), Fraction or LaurentPoly2 into a LaurentPoly2, else raise TypeError."""
    return x if isinstance(x, LaurentPoly2) else LaurentPoly2.const(x)


class FracWeight:
    """A true quotient of two Laurent polynomials.

    ``FracWeight(num, den)`` returns ``num.exact_div(den)``, a
    ``LaurentPoly2``, whenever ``den`` divides ``num`` (zero included), so a
    ``FracWeight`` is never a polynomial and never zero.
    """

    __slots__ = ("num", "den")

    def __new__(cls, num, den):
        num, den = as_poly(num), as_poly(den)
        try:
            return num.exact_div(den)
        except InexactDivision:
            self = super().__new__(cls)
            self.num, self.den = num, den
            return self

    def __mul__(self, other):
        if isinstance(other, FracWeight):
            return FracWeight(self.num * other.num, self.den * other.den)
        other = _operand(other)
        return other if other is NotImplemented else FracWeight(self.num * other, self.den)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, FracWeight):
            return self.num * other.den == other.num * self.den
        return NotImplemented if _operand(other) is NotImplemented else False  # never a polynomial

    def __repr__(self):
        return f"FracWeight(({self.num}) / ({self.den}))"


def slot_bits(bound: int) -> int:
    """The narrowest whole-byte slot width, in bits, that holds 0..bound."""
    return 8 * max(1, -(-bound.bit_length() // 8))


class PackedPoly:
    """A polynomial in q and t with non-negative integer coefficients, packed.

    ``rows`` maps each t-exponent to that row's value at q = 2**bits, so the
    coefficient of q^k t^e sits in bits [k*bits, (k+1)*bits) of a row
    (Kronecker substitution).  The whole value is
    t^dt * 2**shift * sum(t^e * rows[e]): a monomial factor is kept in
    ``shift`` and ``dt`` and only applied to the rows when two values with
    different factors are added, so multiplying by a monomial weight costs
    nothing per row.  Only differences of shifts are ever applied, so
    negative exponents need no offset: ``shift`` and ``dt`` may be negative.
    Adding is one shift and one int add per row, multiplying two rows one
    big-int product.  These are ring operations on the values, so they stay
    exact whatever the slots hold on the way; only :meth:`decode` needs
    every coefficient of the final polynomial below 2**bits.  ``bits`` is
    therefore not stored: the caller picks it once from a bound on those
    coefficients (for non-negative ones, the value at q = t = 1) with
    :func:`slot_bits`.

    The right operand of ``*`` is a weight built by :func:`packed_weight` or
    :func:`q_ratio_packed`.  A value enters as ``PackedPoly.one() * weight``
    and leaves through :meth:`decode`.  Rows dicts may be shared between
    values and are never mutated.
    """

    __slots__ = ("rows", "shift", "dt")

    def __init__(self, rows, shift: int = 0, dt: int = 0):
        self.rows = rows
        self.shift = shift
        self.dt = dt

    @classmethod
    def one(cls) -> "PackedPoly":
        return cls({0: 1})

    def decode(self, bits: int, den: int = 1) -> LaurentPoly2:
        """This polynomial divided by ``den``, as a LaurentPoly2."""
        width = bits // 8
        low = self.shift // bits
        terms = {}
        for et, x in self.rows.items():
            raw = x.to_bytes((x.bit_length() + 7) // 8, "little")
            for k in range(0, len(raw), width):
                c = int.from_bytes(raw[k:k + width], "little")
                if c:
                    terms[(k // width + low, et + self.dt)] = Fraction(c) if den == 1 else Fraction(c, den)
        return LaurentPoly2._of(terms)

    def __add__(self, other: "PackedPoly") -> "PackedPoly":
        lo, hi = (self, other) if self.shift <= other.shift else (other, self)
        shift, dt = hi.shift - lo.shift, hi.dt - lo.dt
        rows = lo.rows.copy()
        for et, x in hi.rows.items():
            et += dt
            x <<= shift
            rows[et] = rows[et] + x if et in rows else x
        return PackedPoly(rows, lo.shift, lo.dt)

    def __mul__(self, weight) -> "PackedPoly":
        terms = [
            PackedPoly(self.rows if c == 1 else {et: x * c for et, x in self.rows.items()},
                       self.shift + shift, self.dt + dt)
            for dt, c, shift in weight
        ]
        return reduce(add, terms) if terms else PackedPoly({})


def packed_weight(poly: LaurentPoly2, bits: int, scale: int = 1) -> tuple:
    """``scale * poly`` as a right operand of ``PackedPoly * ...`` at ``bits``.

    The result is a tuple of ``(dt, c, shift)`` monomials, each
    c * t^dt * q^(shift/bits).  ``scale * poly`` must have non-negative
    integer coefficients; its exponents may be negative.
    """
    out = []
    for (eq, et), c in poly.sorted_terms():
        c, rem = divmod(c.numerator * scale, c.denominator)
        if rem or c < 0:
            raise ValueError(f"cannot pack {scale} * {poly} into integer slots")
        out.append((et, c, eq * bits))
    return tuple(out)


def q_ratio_product(s) -> LaurentPoly2:
    """prod_{i<j} (q^s_j - q^s_i) / (q^j - q^i).

    ``s`` must be strictly increasing and positive, so s_i >= i (else
    InvalidDents); the quotient is then a polynomial in q with non-negative
    integer coefficients (a q-analogue of prod (s_j - s_i)/(j - i)), whose
    value at q = 1 is :func:`falling_ratio`.
    That value bounds every coefficient, so one slot width suffices and the
    quotient is a single big-int division (see :func:`q_ratio_packed`).
    """
    s = tuple(s)
    if any(type(x) is not int or x <= 0 for x in s) or any(a >= b for a, b in zip(s, s[1:])):
        raise InvalidDents("s must be a strictly increasing sequence of positive integers")
    bits = slot_bits(int(falling_ratio(s)))
    return (PackedPoly.one() * q_ratio_packed(s, 1, bits)).decode(bits)


def q_ratio_packed(s, alpha: int, bits: int) -> tuple:
    """prod_{i<j} (q^(alpha*s_j) - q^(alpha*s_i)) / (q^(alpha*j) - q^(alpha*i))
    for a valid ``s`` (see :func:`q_ratio_product`), as the one-monomial
    right operand of ``PackedPoly * ...`` at ``bits``, which must exceed
    every coefficient.

    Each factor q^(alpha*b) - q^(alpha*a) is q^(alpha*a) (q^(alpha*(b-a)) - 1):
    the powers of q collect into the monomial's shift and the rest is
    evaluated at q = 2**bits, where the polynomial quotient is the exact
    integer quotient.
    """
    m = len(s)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    low = alpha * sum(s[i] - (i + 1) for i, _ in pairs)
    num = prod((1 << bits * alpha * (s[j] - s[i])) - 1 for i, j in pairs)
    den = prod((1 << bits * alpha * (j - i)) - 1 for i, j in pairs)
    value, rem = divmod(num, den)
    if rem:
        raise InexactDivision("q-ratio numerator is not divisible by its denominator")
    return ((0, value, low * bits),)


def falling_ratio(s) -> Fraction:
    """prod_{i<j} (s_j - s_i)/(j - i) as an exact rational.

    Independent of :func:`q_ratio_product`; used to cross-check its value at
    q = 1 and as the closed-form tiling count of dented semihexagons.
    """
    s = tuple(s)
    m = len(s)
    num = prod(s[j] - s[i] for i in range(m) for j in range(i + 1, m))
    den = prod(j - i for i in range(m) for j in range(i + 1, m))
    return Fraction(num, den if den else 1)
