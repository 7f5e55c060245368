"""Exception hierarchy shared by all dualsvd modules."""


class DualLinAlgError(Exception):
    """Base class for all errors raised by dualsvd."""


class DimensionMismatch(DualLinAlgError):
    """Operands do not have conforming dimensions."""


class NotSquare(DualLinAlgError):
    """A square matrix was required."""


class NotSymmetric(DualLinAlgError):
    """Input is not symmetric within the requested tolerance."""


class NotSkewSymmetric(DualLinAlgError):
    """Input is not skew-symmetric within the requested tolerance."""


class NotHermitian(DualLinAlgError):
    """Input is not Hermitian within the requested tolerance."""


class NotInvertible(DualLinAlgError):
    """Inversion was requested for a zero divisor or singular matrix."""


class NoSquareRoot(DualLinAlgError):
    """The dual number has no square root (standard part not positive)."""


class DegenerateInput(DualLinAlgError):
    """Vectors are linearly dependent (standard parts numerically dependent)."""


class PoleAt(DualLinAlgError):
    """A Laguerre transformation was evaluated at a pole of its denominator."""


class VerificationError(DualLinAlgError):
    """An internal self-check (e.g. Penrose identities) failed unexpectedly."""


class NonFiniteInput(DualLinAlgError):
    """An input matrix has a NaN or infinite entry."""
