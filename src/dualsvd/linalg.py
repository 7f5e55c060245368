"""Vectors and matrices over the dual numbers, bilinear forms, and
Gram-Schmidt as a dual QR: one LAPACK QR of the standard parts plus its
first-order correction.

A dual matrix A + eps*B is stored as the pair of real ndarrays (std, inf).
Two flavors of geometry run through the whole library:

* flavor "T": the symmetric bilinear form (u, v) = u^T v,
* flavor "star": the sesquilinear form <u, v> = u^T conj(v).
"""

from __future__ import annotations

import math

import numpy as np

from .dual import Dual
from .errors import DegenerateInput, DimensionMismatch, NonFiniteInput, NotSquare
from .realspec import signed_qr

FLAVOR_T = "T"
FLAVOR_STAR = "star"

# Structure kinds of each flavor's isometries and self-adjoint matrices.
ISOMETRY = {FLAVOR_T: "t_orthogonal", FLAVOR_STAR: "unitary"}
SELF_ADJOINT = {FLAVOR_T: "symmetric", FLAVOR_STAR: "hermitian"}
_KIND_FLAVOR = {kind: f for table in (ISOMETRY, SELF_ADJOINT) for f, kind in table.items()}

# Relative threshold below which a diagonal entry of R0 counts as dependent.
INDEPENDENCE_TOL = 1e-10


def _check_flavor(flavor):
    if flavor not in (FLAVOR_T, FLAVOR_STAR):
        raise ValueError(f"unknown flavor {flavor!r}")


def require_square(m, what: str):
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"{what} needs a square matrix, got {m.shape}")


class DualVector:
    """A vector of dual numbers, stored as standard/infinitesimal real parts."""

    __slots__ = ("std", "inf")

    def __init__(self, std, inf=None):
        self.std = np.asarray(std, dtype=float).reshape(-1)
        if inf is None:
            self.inf = np.zeros_like(self.std)
        else:
            self.inf = np.asarray(inf, dtype=float).reshape(-1)
        if self.std.shape != self.inf.shape:
            raise DimensionMismatch("std and inf parts differ in length")

    def __len__(self):
        return self.std.shape[0]

    @classmethod
    def basis(cls, n: int, j: int) -> "DualVector":
        e = np.zeros(n)
        e[j] = 1.0
        return cls(e)

    def entry(self, i: int) -> Dual:
        return Dual(self.std[i], self.inf[i])

    def __add__(self, other: "DualVector") -> "DualVector":
        return DualVector(self.std + other.std, self.inf + other.inf)

    def __sub__(self, other: "DualVector") -> "DualVector":
        return DualVector(self.std - other.std, self.inf - other.inf)

    def __neg__(self) -> "DualVector":
        return DualVector(-self.std, -self.inf)

    def scale(self, s) -> "DualVector":
        s = s if isinstance(s, Dual) else Dual(float(s))
        return DualVector(
            s.std * self.std, s.std * self.inf + s.inf * self.std
        )

    def conj(self) -> "DualVector":
        return DualVector(self.std, -self.inf)

    def norm(self) -> float:
        """Entrywise max-abs over both components; NaN if either holds one."""
        if len(self) == 0:
            return 0.0
        return np.maximum(np.abs(self.std).max(), np.abs(self.inf).max())

    def copy(self) -> "DualVector":
        return DualVector(self.std.copy(), self.inf.copy())

    def __repr__(self):
        return f"DualVector(std={self.std!r}, inf={self.inf!r})"


class DualMatrix:
    """An n x m matrix over the dual numbers."""

    __slots__ = ("std", "inf")

    def __init__(self, std, inf=None):
        self.std = np.atleast_2d(np.asarray(std, dtype=float))
        if inf is None:
            self.inf = np.zeros_like(self.std)
        else:
            self.inf = np.atleast_2d(np.asarray(inf, dtype=float))
        if self.std.shape != self.inf.shape:
            raise DimensionMismatch("std and inf parts differ in shape")

    @classmethod
    def _of(cls, std, inf) -> "DualMatrix":
        """Wrap two same-shape 2-D float64 arrays as they are, unchecked."""
        m = object.__new__(cls)
        m.std, m.inf = std, inf
        return m

    # -- constructors ------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "DualMatrix":
        return cls(np.eye(n))

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "DualMatrix":
        return cls._of(np.zeros((rows, cols)), np.zeros((rows, cols)))

    @classmethod
    def from_columns(cls, columns, rows: int | None = None) -> "DualMatrix":
        if not columns:
            return cls(np.zeros((rows or 0, 0)))
        std = np.column_stack([v.std for v in columns])
        inf = np.column_stack([v.inf for v in columns])
        return cls(std, inf)

    @classmethod
    def diagonal(cls, entries) -> "DualMatrix":
        entries = list(entries)
        return cls(
            np.diag([d.std for d in entries]), np.diag([d.inf for d in entries])
        )

    @staticmethod
    def block_diag(mats) -> "DualMatrix":
        mats = list(mats)
        n = sum(m.shape[0] for m in mats)
        c = sum(m.shape[1] for m in mats)
        out = DualMatrix(np.zeros((n, c)))
        i = j = 0
        for m in mats:
            r, s = m.shape
            out.std[i : i + r, j : j + s] = m.std
            out.inf[i : i + r, j : j + s] = m.inf
            i += r
            j += s
        return out

    # -- shape and access --------------------------------------------------

    @property
    def shape(self):
        return self.std.shape

    def entry(self, i: int, j: int) -> Dual:
        return Dual(self.std[i, j], self.inf[i, j])

    def column(self, j: int) -> DualVector:
        return DualVector(self.std[:, j], self.inf[:, j])

    def columns(self):
        return [self.column(j) for j in range(self.shape[1])]

    def submatrix(self, rows, cols) -> "DualMatrix":
        return DualMatrix(self.std[np.ix_(rows, cols)], self.inf[np.ix_(rows, cols)])

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

    def scale(self, s) -> "DualMatrix":
        s = s if isinstance(s, Dual) else Dual(float(s))
        return DualMatrix._of(s.std * self.std, s.std * self.inf + s.inf * self.std)

    @property
    def T(self) -> "DualMatrix":
        return DualMatrix._of(self.std.T, self.inf.T)

    def conj(self) -> "DualMatrix":
        return DualMatrix._of(self.std, -self.inf)

    def star(self) -> "DualMatrix":
        """M* = conj(M)^T."""
        return DualMatrix._of(self.std.T, -self.inf.T)

    def apply(self, v: DualVector) -> DualVector:
        if self.shape[1] != len(v):
            raise DimensionMismatch(f"apply: {self.shape} vs {len(v)}")
        return DualVector(
            self.std @ v.std, self.std @ v.inf + self.inf @ v.std
        )

    # -- norms -------------------------------------------------------------

    def norm(self) -> float:
        """Max over both real parts of the entrywise-max norm; NaN if either
        part holds a NaN."""
        if self.std.size == 0:
            return 0.0
        return np.maximum(np.abs(self.std).max(), np.abs(self.inf).max())

    def __repr__(self):
        return f"DualMatrix(std=\n{self.std},\ninf=\n{self.inf})"


def unit_scale(m: DualMatrix):
    """(M / c, c, ||M / c||) for the power of two c with ||M / c|| in [1, 2);
    (M, 1, 0) for the zero matrix.

    Dividing by c is exact, so an entry point that decomposes M / c and
    scales its results back by c is scale-equivariant for powers of two.
    """
    nrm = float(m.norm())
    if not math.isfinite(nrm):
        raise NonFiniteInput("matrix has a NaN or infinite entry")
    if not nrm:
        return m, 1.0, 0.0
    c = math.ldexp(1.0, math.frexp(nrm)[1] - 1)
    if c == 1.0:
        return m, c, nrm
    return DualMatrix._of(m.std / c, m.inf / c), c, nrm / c


def adjoint(m: DualMatrix, flavor: str) -> DualMatrix:
    """The flavor-matched adjoint: transpose for T, star for star."""
    _check_flavor(flavor)
    return m.T if flavor == FLAVOR_T else m.star()


# -- forms ------------------------------------------------------------------


def t_form(u: DualVector, v: DualVector) -> Dual:
    """The symmetric bilinear form (u, v) = u^T v."""
    if len(u) != len(v):
        raise DimensionMismatch(f"t_form: {len(u)} vs {len(v)}")
    std = float(u.std @ v.std)
    inf = float(u.std @ v.inf + u.inf @ v.std)
    return Dual(std, inf)


def star_form(u: DualVector, v: DualVector) -> Dual:
    """The sesquilinear form <u, v> = u^T conj(v)."""
    if len(u) != len(v):
        raise DimensionMismatch(f"star_form: {len(u)} vs {len(v)}")
    std = float(u.std @ v.std)
    inf = float(-u.std @ v.inf + u.inf @ v.std)
    return Dual(std, inf)


def form(u: DualVector, v: DualVector, flavor: str) -> Dual:
    _check_flavor(flavor)
    return t_form(u, v) if flavor == FLAVOR_T else star_form(u, v)


# -- structural predicates ---------------------------------------------------


def structure_residual(m: DualMatrix, kind: str) -> float:
    """Residual of a structural identity, as an entrywise-max norm."""
    require_square(m, "structure check")
    if kind not in _KIND_FLAVOR:
        raise ValueError(f"unknown structure kind {kind!r}")
    adj = adjoint(m, _KIND_FLAVOR[kind])
    if kind in SELF_ADJOINT.values():
        return (m - adj).norm()
    n = m.shape[0]
    g, h = adj @ m, m @ adj
    # Both products are fresh, so I comes off their diagonals in place.
    g.std.flat[:: n + 1] -= 1.0
    h.std.flat[:: n + 1] -= 1.0
    return np.maximum(g.norm(), h.norm())


def structure_check(m: DualMatrix, kind: str, tol: float) -> bool:
    return structure_residual(m, kind) <= tol * max(1.0, m.norm())


# -- Gram-Schmidt by dual QR --------------------------------------------------


def _columns(vectors, n: int) -> DualMatrix:
    """Dual vectors in D^n as the columns of a matrix; DimensionMismatch or
    NonFiniteInput if one has another length or a NaN or inf entry."""
    if any(len(v) != n for v in vectors):
        raise DimensionMismatch(f"vectors of lengths {[len(v) for v in vectors]} in D^{n}")
    m = DualMatrix.from_columns(vectors, n)
    if not math.isfinite(m.norm()):
        raise NonFiniteInput("vector has a NaN or infinite entry")
    return m


def _dual_qr(a0: np.ndarray, a1: np.ndarray, flavor: str, floor: float):
    """Q with A = Q R, Q orthonormal under the form, R upper triangular with
    diag(R0) > 0 and (star) diag(R) real.  With A0 = Q0 R0, C = Q0^T A1 R0^-1
    and L its strict lower triangle, Q1 = Q0 X + (I - Q0 Q0^T) A1 R0^-1, where
    X = L - L^T (T) or L + L^T + diag(C) (star).  DegenerateInput if there
    are more columns than rows or an entry of diag(R0) is below ``floor``."""
    q0, r0 = signed_qr(a0)
    if r0.shape[0] < r0.shape[1] or not np.diag(r0).min() >= floor:
        raise DegenerateInput("inputs are linearly dependent: diag(R0) vanished")
    a1r = np.linalg.solve(r0.T, a1.T).T  # A1 R0^-1
    c = q0.T @ a1r
    low = np.tril(c, -1)
    x = low - low.T if flavor == FLAVOR_T else low + low.T + np.diag(np.diag(c))
    return DualMatrix._of(q0, q0 @ (x - c) + a1r)


def gram_schmidt(vectors, flavor: str):
    """Orthonormalize dual vectors under the chosen form, as Gram-Schmidt
    does, by one dual QR.  Raises DegenerateInput when a diagonal entry of R0
    collapses: the inputs are then not linearly independent over the duals.
    """
    _check_flavor(flavor)
    vectors = list(vectors)
    if not vectors:
        return []
    a = _columns(vectors, len(vectors[0]))
    return _dual_qr(a.std, a.inf, flavor, INDEPENDENCE_TOL * max(a.norm(), 1.0)).columns()


def extend_orthonormal(partial, n: int, flavor: str):
    """Extend an orthonormal set P, kept as it is, to an orthonormal basis of
    D^n.  The new columns are W0 + eps*W1: W0 the trailing columns of a
    complete ``signed_qr`` of P0, and W1 = -P0 (P1^T W0) for T, +P0 (P1^T W0)
    for star, so that they are orthonormal and orthogonal to P."""
    _check_flavor(flavor)
    partial = list(partial)
    if len(partial) > n:
        raise DimensionMismatch(f"partial basis of {len(partial)} vectors in D^{n}")
    p = _columns(partial, n)
    if partial and np.linalg.svd(p.std, compute_uv=False).min() < INDEPENDENCE_TOL:
        raise DegenerateInput("partial basis standard parts are dependent")
    w0 = signed_qr(p.std, mode="complete")[0][:, len(partial) :]
    w1 = p.std @ (p.inf.T @ w0)
    return partial + DualMatrix._of(w0, -w1 if flavor == FLAVOR_T else w1).columns()
