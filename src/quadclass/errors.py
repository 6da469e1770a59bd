"""Exception types shared across the package.

Input problems are ValueError subclasses so callers that do not care about
the fine distinction can catch ValueError.  InternalError is different: it
marks an arithmetic identity that failed where the theory says it cannot,
i.e. a bug, and is deliberately not a ValueError.
"""


class InvalidModulusError(ValueError):
    """Modulus outside the usable range (need N > 1, or N > 4 for characters)."""


class NotCoprimeError(ValueError):
    """Argument shares a factor with the modulus where coprimality is required."""


class NotFundamentalError(ValueError):
    """Integer is not a fundamental discriminant of an imaginary quadratic field."""


class ExcludedDiscriminantError(ValueError):
    """D is -3 or -4, where extra units make the class number formulas differ."""


class ModulusTooLargeError(ValueError):
    """N = |D| above discriminant.MAX_N, a period above expansion.MAX_PERIOD,
    or a base above discriminant.MAX_BASE."""


class WrongParityError(ValueError):
    """Operation requires the other parity of discriminant (odd vs even N)."""


class DivisibleByThreeError(ValueError):
    """Operation requires 3 not to divide the discriminant."""


class NormalizationUndefinedError(ValueError):
    """Cycle normalization needs chi(B) = -1; this cycle has chi(B) = +1."""


class InvalidFactorizationError(ValueError):
    """B1 does not give a factorization B = B1 * B2 with 2 <= B1 <= B."""


class InternalError(RuntimeError):
    """An exact identity failed (non-divisible sum, non-positive h): a bug."""
