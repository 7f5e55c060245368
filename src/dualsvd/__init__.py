"""Numerical linear algebra over the dual numbers.

Spectral decompositions, two flavors of singular value decomposition, polar
decomposition and the Moore-Penrose pseudoinverse for square dual matrices,
plus Yaglom's classification of 2x2 Laguerre transformations.
"""

from .dual import EPS, ONE, ZERO, Dual, poly_eval
from .errors import (
    DegenerateInput,
    DimensionMismatch,
    DualLinAlgError,
    NoSquareRoot,
    NonFiniteInput,
    NotHermitian,
    NotInvertible,
    NotSquare,
    NotSymmetric,
    OutOfRange,
    PoleAt,
    PreconditionViolation,
    VerificationError,
)
from .laguerre import (
    LaguerreClassification,
    LaguerreTransform,
    apply_transform,
    classify_transform,
)
from .linalg import (
    FLAVOR_STAR,
    FLAVOR_T,
    DualMatrix,
    Flavor,
    adjoint,
    extend_orthonormal,
    form,
    gram_schmidt,
    star_form,
    structure_residual,
    t_form,
)
from .spectral import (
    SpectralBlock,
    SpectralDecomposition,
    eigenvalue_multiset,
    star_spectral,
    t_spectral,
)
from .svd import (
    PolarResult,
    SubspaceSplit,
    SvdResult,
    factors_of,
    invariants,
    penrose,
    pinv_t,
    split_subspaces,
    svd,
    svd_invertible,
    t_polar,
)

__version__ = "0.1.0"

__all__ = [
    "Dual", "poly_eval", "EPS", "ONE", "ZERO",
    "DualMatrix", "adjoint", "form", "t_form", "star_form",
    "structure_residual", "gram_schmidt",
    "extend_orthonormal", "Flavor", "FLAVOR_T", "FLAVOR_STAR",
    "SpectralBlock", "SpectralDecomposition", "star_spectral", "t_spectral",
    "eigenvalue_multiset",
    "SvdResult", "SubspaceSplit", "PolarResult",
    "svd", "svd_invertible", "split_subspaces", "t_polar", "pinv_t", "penrose",
    "invariants", "factors_of",
    "LaguerreTransform", "LaguerreClassification", "apply_transform",
    "classify_transform",
    "DualLinAlgError", "PreconditionViolation", "DimensionMismatch", "NotSquare", "NotSymmetric",
    "NotHermitian", "NotInvertible", "NoSquareRoot",
    "DegenerateInput", "NonFiniteInput", "OutOfRange", "PoleAt", "VerificationError",
]
