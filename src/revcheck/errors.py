"""Exception types shared across the package.

Every error raised on a bad input or an impossible computation derives from
RevcheckError so callers can catch the package's failures with one clause.
"""


class RevcheckError(Exception):
    """Base class for all revcheck errors."""


class EmptyData(RevcheckError):
    """A data container was given zero rows."""


class NonFiniteInput(RevcheckError):
    """An input array contains NaN or infinity."""


class MismatchedInputs(RevcheckError):
    """Two inputs that must align (lengths, sources) do not."""


class UnknownColumn(RevcheckError):
    """A referenced column name is not present in the dataset."""


class UnknownOrdering(RevcheckError):
    """A referenced ordering name is not declared on the dataset."""


class RankDeficient(RevcheckError):
    """The design matrix is numerically rank deficient."""


class Underdetermined(RevcheckError):
    """Fewer usable observations than parameters to estimate."""


class InvalidDegreesOfFreedom(RevcheckError):
    """A degrees-of-freedom argument is below 1."""


class SingularRegressorCovariance(RevcheckError):
    """The regressor covariance block is singular."""


class ZeroRegressorVariance(RevcheckError):
    """A regressor has zero variance where positive variance is required."""


class NonPositiveVariance(RevcheckError):
    """A variance that must be positive is zero or negative."""


class OutOfRangeCorrelation(RevcheckError):
    """A correlation argument lies outside [-1, 1]."""


class GroupTooSmall(RevcheckError):
    """A per-group computation has too few rows in some group."""


class TooFewResiduals(RevcheckError):
    """A residual diagnostic needs more observations than were supplied."""


class InvalidCounts(RevcheckError):
    """Contingency counts are negative, non-integral, or inconsistent."""


class DegeneratePool(RevcheckError):
    """A pooled proportion is exactly 0 or 1, so no test statistic exists."""


class TooFewStrata(RevcheckError):
    """A homogeneity test needs at least two strata."""


class InvalidSpec(RevcheckError):
    """A model or simulation specification is malformed."""


class GenerationFailed(RevcheckError):
    """A constrained generator exhausted its retry budget."""


class DegenerateData(RevcheckError):
    """Input data are degenerate (for example an exact linear relation)."""
