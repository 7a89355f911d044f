"""Exception types shared across the package."""


class DesignError(Exception):
    """Base class for all errors raised by this package."""


class NotPrimeError(DesignError):
    """A field order was not a prime power."""


class FieldOverflowError(DesignError):
    """Requested field order, or an array, is too large to enumerate."""


class StrengthError(DesignError):
    """A strength parameter was outside the supported range."""


class NotDivisorError(DesignError):
    """Requested coarse level count does not divide the design's levels."""


class NoNontrivialPlanError(DesignError):
    """No nontrivial nested plan exists for the requested (n, d)."""


class UnbalancedColumnError(DesignError):
    """A column does not hold each level equally often."""


class DimensionMismatchError(DesignError):
    """Point set and integrand dimensions disagree."""


class FormatError(DesignError):
    """A design or points file failed to parse."""


class InternalInvariantError(DesignError):
    """An internal invariant failed, such as a built design's strength checks (a bug)."""


class ConstructionError(DesignError):
    """A benchmark design kind could not be constructed for (n, d)."""
