"""Exception types shared across the package.

Every error here signals a violated precondition or a broken internal
convention, never a numerical tolerance: all arithmetic in this package is
exact, so any mismatch is a hard bug.
"""


class AztecError(Exception):
    """Base class for all package-specific errors."""


class InexactDivision(AztecError):
    """Polynomial division left a remainder where an exact quotient was required."""


class PoleAtZero(AztecError):
    """Evaluation substituted 0 into a negative exponent."""


class NegativeExponent(AztecError):
    """A generating function that must be a genuine polynomial has a negative exponent."""


class InvalidOrder(AztecError):
    """An Aztec diamond order below 1."""


class InvalidHoles(AztecError):
    """Hole positions violate 1 <= s_1 < ... < s_m <= n."""


class InvalidDents(AztecError, ValueError):
    """Dent positions violate 1 <= s_1 < ... < s_a <= a + b."""


class InvalidWeight(AztecError, ValueError):
    """A face or graph edge weight is zero, a DP tile weight has a negative
    coefficient, or a weight is none of int, Fraction and Laurent polynomial
    (a graph edge may also be a FracWeight, a true quotient)."""


class InvalidTiling(AztecError, ValueError):
    """A tile given for a tiling is not a domino or lozenge of its region."""


class InvalidRegionFile(AztecError, ValueError):
    """A serialized region cannot be read, is not JSON, or names an unknown kind."""


class WrongRegionKind(AztecError, ValueError):
    """A region of another lattice or kind than the function reads."""


class InvalidGraph(AztecError, ValueError):
    """A graph or connected sum has duplicate or missing vertices, a self-loop or a parallel edge."""


class RegionTooWide(AztecError):
    """A DP frontier is wider than its bound, or a DP's or the closed product's predicted cost is over its cap."""


class TooManyTilings(AztecError):
    """A region has more tilings, or more cells, than brute-force enumeration is allowed to visit."""


class OddVerticalCount(AztecError):
    """The vertical-domino statistic is not an integer for this tiling."""


class Unreachable(AztecError):
    """A tiling is not connected to the minimal tiling in the flip graph."""


class BijectionViolation(AztecError):
    """A tiling/path or tiling/plane-partition conversion broke its invariants."""


class NegativeRank(AztecError):
    """A path-computed rank came out negative, signalling a convention error."""


class InvalidPartition(AztecError):
    """A vertex split was given sets that do not partition the neighborhood."""


class PatternMismatch(AztecError):
    """The graph does not contain the requested rewrite pattern."""


class ZeroDelta(AztecError):
    """An urban-renewal step has xz + yt = 0 and cannot be applied."""
