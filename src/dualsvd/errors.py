"""Exception hierarchy shared by all dualsvd modules."""


class DualLinAlgError(Exception):
    """Base class for all errors raised by dualsvd."""


class PreconditionViolation(DualLinAlgError):
    """An input does not meet a precondition of the operation (CLI exit 3)."""


class DimensionMismatch(PreconditionViolation):
    """Operands do not have conforming dimensions."""


class NotSquare(PreconditionViolation):
    """A square matrix was required."""


class NotSymmetric(PreconditionViolation):
    """Input is not symmetric within ORTHONORMAL_TOL times its norm."""


class NotHermitian(PreconditionViolation):
    """Input is not Hermitian within ORTHONORMAL_TOL times its norm."""


class NotInvertible(PreconditionViolation):
    """Inversion was requested for a zero divisor or singular matrix."""


class NoSquareRoot(DualLinAlgError):
    """The dual number has no square root (standard part not positive)."""


class DegenerateInput(PreconditionViolation):
    """Vectors are linearly dependent (standard parts numerically dependent)."""


class PoleAt(DualLinAlgError):
    """A Laguerre transformation was evaluated at a pole of its denominator."""


class VerificationError(DualLinAlgError):
    """A result failed its own self-check: ``pinv_t``'s Penrose identities.
    Well-posed but ill-conditioned inputs raise it too (ROADMAP.md item 22)."""


class NonFiniteInput(PreconditionViolation):
    """An input matrix has a NaN or infinite entry."""


class OutOfRange(PreconditionViolation):
    """float64 cannot hold the input's scale or a result at it: 0 < ||M|| is
    below the smallest normal number, or a pseudoinverse, a middle factor
    scaled back, or a product of factors in a residual overflows."""
