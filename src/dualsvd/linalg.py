"""Matrices over the dual numbers, bilinear forms, and Gram-Schmidt as a
dual QR: one LAPACK QR of the standard parts plus its first-order correction.

A dual matrix A + eps*B is stored as the pair of real ndarrays (std, inf).
It is the one representation of dual arrays: a dual vector is an n x 1
matrix, and a set of k vectors is the n x k matrix of their columns.
Two flavors of geometry run through the whole library: ``Flavor.T``, with
the bilinear form (u, v) = u^T v, and ``Flavor.STAR``, with the sesquilinear
form <u, v> = u^T conj(v).  They differ only in the sign of the adjoint's
infinitesimal part, (A^T, sign*B^T), mapped once at each public entry.
"""

from __future__ import annotations

import math
import sys
from enum import Enum

import numpy as np

from .dual import Dual
from .errors import DegenerateInput, DimensionMismatch, NonFiniteInput, NotSquare, OutOfRange
from .realspec import signed_qr


class Flavor(str, Enum):
    """A flavor: its adjoint's ``sign`` and its ``isometry`` and ``self_adjoint``
    structure kinds.  A member equals, prints and serializes as its string."""

    T = ("T", 1.0, "t_orthogonal", "symmetric")
    STAR = ("star", -1.0, "unitary", "hermitian")

    def __new__(cls, value, sign, isometry, self_adjoint):
        member = str.__new__(cls, value)
        member._value_ = value
        member.sign, member.isometry, member.self_adjoint = sign, isometry, self_adjoint
        return member

    __str__ = str.__str__
    __format__ = str.__format__


FLAVOR_T = Flavor.T
FLAVOR_STAR = Flavor.STAR
_FLAVOR_OF_KIND = {kind: f for f in Flavor for kind in (f.isometry, f.self_adjoint)}

# Relative threshold below which a diagonal entry of R0 counts as dependent.
INDEPENDENCE_TOL = 1e-10
# Largest ||P^adj P - I|| of an orthonormal set: the CLI check's isometry limit.
ORTHONORMAL_TOL = 1e-8
# Relative threshold at or below which a singular value is the split's 0.
DEFAULT_SPLIT_TOL = 1e-8
# Relative gap at or below which neighbouring values form one cluster.
DEFAULT_CLUSTER_TOL = 1e-8
# Relative rotation parameter at or below which a star cluster has no 2x2 block.
ROTATION_TOL = 1e-9
# Relative size at or below which a delta of the SVD's zero block is 0.
ZERO_BLOCK_TOL = 1e-12


def require_square(m, what: str):
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"{what} needs a square matrix, got {m.shape}")


class DualMatrix:
    """An n x m matrix over the dual numbers."""

    __slots__ = ("std", "inf")

    def __init__(self, std, inf=None):
        self.std = np.asarray(std, dtype=float)
        self.inf = np.zeros_like(self.std) if inf is None else np.asarray(inf, dtype=float)
        if self.std.ndim != 2:
            raise DimensionMismatch(f"parts must be 2-D arrays, got shape {self.std.shape}")
        if self.std.shape != self.inf.shape:
            raise DimensionMismatch("std and inf parts differ in shape")

    @classmethod
    def _of(cls, std, inf) -> "DualMatrix":
        """Wrap two same-shape 2-D float64 arrays as they are, unchecked."""
        m = object.__new__(cls)
        m.std, m.inf = std, inf
        return m

    # -- shape and access --------------------------------------------------

    @property
    def shape(self):
        return self.std.shape

    def entry(self, i: int, j: int) -> Dual:
        return Dual(self.std[i, j], self.inf[i, j])

    def copy(self) -> "DualMatrix":
        return DualMatrix(self.std.copy(), self.inf.copy())

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "DualMatrix") -> "DualMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"add: {self.shape} vs {other.shape}")
        return DualMatrix._of(self.std + other.std, self.inf + other.inf)

    def __sub__(self, other: "DualMatrix") -> "DualMatrix":
        if self.shape != other.shape:
            raise DimensionMismatch(f"sub: {self.shape} vs {other.shape}")
        return DualMatrix._of(self.std - other.std, self.inf - other.inf)

    def __neg__(self) -> "DualMatrix":
        return DualMatrix._of(-self.std, -self.inf)

    def __matmul__(self, other: "DualMatrix") -> "DualMatrix":
        if self.shape[1] != other.shape[0]:
            raise DimensionMismatch(f"mul: {self.shape} vs {other.shape}")
        # (A + eps B)(C + eps D) = AC + eps(AD + BC)
        return DualMatrix._of(
            self.std @ other.std, self.std @ other.inf + self.inf @ other.std
        )

    @property
    def T(self) -> "DualMatrix":
        return DualMatrix._of(self.std.T, self.inf.T)

    def conj(self) -> "DualMatrix":
        return DualMatrix._of(self.std, -self.inf)

    def star(self) -> "DualMatrix":
        """M* = conj(M)^T."""
        return DualMatrix._of(self.std.T, -self.inf.T)

    # -- norms -------------------------------------------------------------

    def norm(self) -> float:
        """Max over both real parts of the entrywise-max norm; NaN if either
        part holds a NaN."""
        return np.abs((self.std, self.inf)).max(initial=0.0)

    def __repr__(self):
        return f"DualMatrix(std=\n{self.std},\ninf=\n{self.inf})"


def _finite_norm(m: DualMatrix) -> float:
    """||M||; NonFiniteInput if M has a NaN or infinite entry."""
    nrm = float(m.norm())
    if not math.isfinite(nrm):
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    return nrm


def unit_scale(m: DualMatrix):
    """(M / c, c, ||M / c||) for the power of two c with ||M / c|| in [1, 2);
    (M, 1, 0) for the zero matrix; OutOfRange if 0 < ||M|| is below the
    smallest normal number, where results scaled back by c lose precision.

    Dividing by c is exact, so an entry point that decomposes M / c and
    scales its results back by c is scale-equivariant for powers of two.
    """
    nrm = _finite_norm(m)
    if not nrm:
        return m, 1.0, 0.0
    if nrm < sys.float_info.min:
        raise OutOfRange(f"||M|| = {nrm:.3e} is below the smallest normal float64")
    c = math.ldexp(1.0, math.frexp(nrm)[1] - 1)
    return DualMatrix._of(m.std / c, m.inf / c), c, nrm / c


def scale_back(c: float, *parts: np.ndarray) -> tuple:
    """c times each same-shape part; OutOfRange, tested before multiplying so
    that numpy emits no warning, if a product would overflow float64."""
    if np.abs(parts).max(initial=0.0) > sys.float_info.max / c:
        raise OutOfRange(f"a factor scaled back by c = {c:.3e} overflows float64")
    return tuple(c * p for p in parts)


def adjoint(m: DualMatrix, flavor: str) -> DualMatrix:
    """The flavor-matched adjoint (A^T, sign*B^T): transpose for T, star for star."""
    return DualMatrix._of(m.std.T, Flavor(flavor).sign * m.inf.T)


# -- forms ------------------------------------------------------------------


def t_form(u: DualMatrix, v: DualMatrix) -> DualMatrix:
    """The symmetric bilinear form (u, v) = u^T v between the columns of u
    and of v: the k x l matrix of pairwise values, the Gram matrix if u = v."""
    return u.T @ v


def star_form(u: DualMatrix, v: DualMatrix) -> DualMatrix:
    """The sesquilinear form <u, v> = u^T conj(v) between the columns of u
    and of v, as ``t_form``."""
    return u.T @ v.conj()


def form(u: DualMatrix, v: DualMatrix, flavor: str) -> DualMatrix:
    """The flavor's form between the columns of u and of v: u^T times v with
    its infinitesimal part times the flavor's sign."""
    return u.T @ DualMatrix._of(v.std, Flavor(flavor).sign * v.inf)


# -- structural predicates ---------------------------------------------------


def structure_residual(m: DualMatrix, kind: str) -> float:
    """Residual of a structural identity, as an entrywise-max norm."""
    require_square(m, "structure check")
    flavor = _FLAVOR_OF_KIND.get(kind)
    if flavor is None:
        raise ValueError(f"unknown structure kind {kind!r}")
    if kind == flavor.self_adjoint:
        return np.abs((m.std - m.std.T, m.inf - flavor.sign * m.inf.T)).max(initial=0.0)
    adj = adjoint(m, flavor)
    # M^adj M and M M^adj = (M^adj)^adj M^adj.
    return np.maximum(_gram_defect(m, flavor), _gram_defect(adj, flavor))


def _gram_defect(p: DualMatrix, flavor: str) -> float:
    """||P^adj P - I||: how far the columns of P are from orthonormal."""
    g = adjoint(p, flavor) @ p
    # The product is fresh, so I comes off its diagonal in place.
    g.std.flat[:: p.shape[1] + 1] -= 1.0
    return g.norm()


# -- Gram-Schmidt by dual QR --------------------------------------------------


def _dual_qr(a0: np.ndarray, a1: np.ndarray, flavor: Flavor, floor: float):
    """Q with A = Q R, Q orthonormal under the form, R upper triangular with
    diag(R0) > 0 and (star) diag(R) real.  With A0 = Q0 R0, C = Q0^T A1 R0^-1
    and L its strict lower triangle, Q1 = Q0 X + (I - Q0 Q0^T) A1 R0^-1, where
    X = L - sign*L^T, plus diag(C) for star.  DegenerateInput if there
    are more columns than rows or an entry of diag(R0) is not above ``floor``."""
    q0, r0 = signed_qr(a0)
    if r0.shape[0] < r0.shape[1] or not np.diag(r0).min() > floor:
        raise DegenerateInput("inputs are linearly dependent: diag(R0) vanished")
    a1r = np.linalg.solve(r0.T, a1.T).T  # A1 R0^-1
    c = q0.T @ a1r
    low = np.tril(c, -1)
    x = low - flavor.sign * low.T
    if flavor is FLAVOR_STAR:
        x += np.diag(np.diag(c))
    return DualMatrix._of(q0, q0 @ (x - c) + a1r)


def gram_schmidt(a: DualMatrix, flavor: str) -> DualMatrix:
    """Orthonormalize the columns of ``a`` under the chosen form, as
    Gram-Schmidt does, by one dual QR.  Raises DegenerateInput when a
    diagonal entry of R0 collapses: the columns are then not linearly
    independent over the duals.
    """
    flavor = Flavor(flavor)
    nrm = _finite_norm(a)
    if not a.shape[1]:
        return a.copy()
    return _dual_qr(a.std, a.inf, flavor, INDEPENDENCE_TOL * nrm)


def extend_orthonormal(p: DualMatrix, flavor: str) -> DualMatrix:
    """Extend the orthonormal columns of the n x k matrix P, kept as they
    are, to an n x n isometry; DegenerateInput if ||P^adj P - I|| exceeds
    ``ORTHONORMAL_TOL``.  The new columns are W0 + eps*W1: W0 the trailing
    columns of a complete ``signed_qr`` of P0, and W1 = -sign*P0 (P1^T W0), so
    that they are orthonormal and orthogonal to P."""
    flavor = Flavor(flavor)
    _finite_norm(p)
    if not _gram_defect(p, flavor) <= ORTHONORMAL_TOL:
        raise DegenerateInput("partial basis is not orthonormal under the form")
    w0 = signed_qr(p.std, mode="complete")[0][:, p.shape[1] :]
    w1 = -flavor.sign * (p.std @ (p.inf.T @ w0))
    return DualMatrix._of(np.hstack([p.std, w0]), np.hstack([p.inf, w1]))
