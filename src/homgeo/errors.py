"""Exception hierarchy.

ValidationError subclasses signal bad input (CLI exit code 1).
ConsistencyError signals a failed internal cross-check, i.e. two
independent routes to the same quantity disagreed (CLI exit code 2).
Each residual check raises the error class of its row in
config.CHECKS.
"""


class HomgeoError(Exception):
    """Base class for all package errors."""


class ValidationError(HomgeoError):
    """Input data violates a documented precondition."""


class IndexOutOfRange(ValidationError):
    pass


class JacobiViolation(ValidationError):
    """Structure constants fail the Jacobi identity beyond tolerance."""


class NotADerivation(ValidationError):
    pass


class NotReductive(ValidationError):
    """[k,k] is not contained in k, or [k,m] is not contained in m."""


class InvalidMetric(ValidationError):
    """Metric is not symmetric positive definite, or not ad_k-invariant."""


class SlotSymmetryViolation(ValidationError):
    """Tensor components lack the required slot (anti)symmetry."""


class UnimodularInput(ValidationError):
    """Operation needs a nonzero canonical trace form but got c = 0."""


class NotCyclic(ValidationError):
    """Operation is only defined for cyclic homogeneous structures."""


class DegeneratePlane(ValidationError):
    """Sectional curvature requested for a degenerate 2-plane."""


class DegenerateKillingForm(ValidationError):
    pass


class NotOrder3(ValidationError):
    """Linear map is not an order-three map distinct from the identity."""


class NotAutomorphism(ValidationError):
    pass


class NoWitness(ValidationError):
    """No commuting eigenvector pair exists (eigenvalue sum is zero)."""


class UnknownEntry(ValidationError):
    pass


class ParamOutOfRange(ValidationError):
    pass


class ParseError(ValidationError):
    """Malformed input file; `location` points at the offending field."""

    def __init__(self, message, location=None):
        self.location = location
        if location:
            message = f"{location}: {message}"
        super().__init__(message)


class ConsistencyError(HomgeoError):
    """Two independent computations of the same quantity disagreed."""

