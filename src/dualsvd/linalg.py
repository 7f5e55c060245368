"""Vectors and matrices over the dual numbers, bilinear forms and Gram-Schmidt.

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

FLAVOR_T = "T"
FLAVOR_STAR = "star"

# Structure kinds of each flavor's isometries and self-adjoint matrices.
ISOMETRY = {FLAVOR_T: "t_orthogonal", FLAVOR_STAR: "unitary"}
SELF_ADJOINT = {FLAVOR_T: "symmetric", FLAVOR_STAR: "hermitian"}
_KIND_FLAVOR = {kind: f for table in (ISOMETRY, SELF_ADJOINT) for f, kind in table.items()}

# Relative threshold below which a Gram-Schmidt residual counts as dependent.
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


# -- Gram-Schmidt -----------------------------------------------------------


def _normalize(v: DualVector, flavor: str) -> DualVector:
    if flavor == FLAVOR_STAR:
        # <v, v> = ||st(v)||**2 exactly, so dividing by |st(v)| is a unit vector.
        return v.scale(1.0 / float(np.linalg.norm(v.std)))
    # For T the self-form is dual-valued; divide by its dual square root.
    return v.scale(t_form(v, v).sqrt().inv())


def _project_out(v: DualVector, basis, flavor: str) -> DualVector:
    # Coefficient form(v, e_i) makes the residual exactly orthogonal to each
    # e_i under the first-argument-linear form.
    r = v
    for e in basis:
        r = r - e.scale(form(r, e, flavor))
    return r


def gram_schmidt(vectors, flavor: str):
    """Orthonormalize dual vectors under the chosen form.

    Raises DegenerateInput when a residual's standard part collapses, which
    certifies that the inputs were not linearly independent over the duals.
    """
    _check_flavor(flavor)
    vectors = list(vectors)
    if not vectors:
        return []
    scale = max(max(v.norm() for v in vectors), 1.0)
    out = []
    for v in vectors:
        r = _project_out(v, out, flavor)
        r = _project_out(r, out, flavor)  # reorthogonalization pass
        if float(np.linalg.norm(r.std)) < INDEPENDENCE_TOL * scale:
            raise DegenerateInput(
                "residual standard part vanished: inputs are linearly dependent"
            )
        out.append(_normalize(r, flavor))
    return out


def extend_orthonormal(partial, n: int, flavor: str):
    """Extend an orthonormal set to a full orthonormal basis of D^n.

    Candidate standard basis vectors are orthogonalized in turn; the ones that
    are dependent on the running set are skipped.
    """
    _check_flavor(flavor)
    partial = list(partial)
    if len(partial) > n:
        raise DimensionMismatch(f"partial basis of {len(partial)} vectors in D^{n}")
    if partial:
        stds = np.column_stack([v.std for v in partial])
        smin = np.linalg.svd(stds, compute_uv=False).min() if stds.size else 0.0
        if smin < INDEPENDENCE_TOL:
            raise DegenerateInput("partial basis standard parts are dependent")
    out = list(partial)
    for j in range(n):
        if len(out) == n:
            break
        v = DualVector.basis(n, j)
        r = _project_out(v, out, flavor)
        r = _project_out(r, out, flavor)
        if float(np.linalg.norm(r.std)) < INDEPENDENCE_TOL:
            continue
        out.append(_normalize(r, flavor))
    if len(out) != n:
        raise DegenerateInput("could not complete an orthonormal basis")
    return out
