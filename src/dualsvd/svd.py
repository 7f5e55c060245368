"""T-SVD and *-SVD of arbitrary square dual matrices, polar decomposition and
the Moore-Penrose pseudoinverse.

For M = A + eps*B, one real SVD A = U0 S V0^T fixes the standard parts.
Inputs are first scaled by a power of two to unit norm.  The split is the
one appreciability rule, read by every consumer: a singular value counts iff
it exceeds tol*||M||; the rest become zero.  The appreciable values are
clustered on S^2.  In B~ = U0^T B V0, the appreciable clusters go through
the spectral decompositions' one cluster pass, ``resolve_clusters``, which
yields their blocks of the middle factor Sigma (all of size 1 for T); when
k < n, a real SVD resolves the zero cluster's block.  The rest of B~ is
absorbed by a first-order corrector: U = U0 (I + eps*Omega_U) and
V = V0 (I + eps*Omega_V), with Omega skew (T) or symmetric (star), are exact
isometries because eps**2 = 0.  A result's reconstruction residual is
computed when it is read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible, VerificationError
from .linalg import FLAVOR_STAR, FLAVOR_T, DualMatrix, adjoint, require_square, unit_scale
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    SpectralBlock,
    _clusters,
    block_matrix,
    dual_diagonal,
    resolve_clusters,
)

DEFAULT_SPLIT_TOL = 1e-8

# The SVD middle factor has the same blocks as a spectral Sigma.
SigmaBlock = SpectralBlock


@dataclass
class SvdResult:
    u: DualMatrix
    sigma: DualMatrix
    v: DualMatrix
    flavor: str
    blocks: list  # SigmaBlock list; sigma is block_matrix(blocks)
    m: DualMatrix  # the decomposed matrix

    @property
    def diag(self) -> list | None:
        return dual_diagonal(self.flavor, self.blocks)

    @property
    def residual(self) -> float:
        """Reconstruction residual ||U Sigma V^adj - M||."""
        return (self.reconstruct() - self.m).norm()

    def reconstruct(self) -> DualMatrix:
        return self.u @ self.sigma @ adjoint(self.v, self.flavor)


@dataclass
class SubspaceSplit:
    """Orthonormal basis of right singular vectors, split by whether the
    operator sends the vector to an appreciable (vl) or infinitesimal (vr)
    image."""

    vl_basis: list
    vr_basis: list


@dataclass
class PolarResult:
    u: DualMatrix
    p: DualMatrix


def _svd(m: DualMatrix, flavor: str, tol: float, cluster_tol: float):
    """The SVD of ``m`` and its number k of appreciable singular values."""
    require_square(m, "svd")
    m0 = m
    m, c, scale = unit_scale(m)
    n = m.shape[0]
    u0, s, v0t = np.linalg.svd(m.std)
    v0 = v0t.T
    k = int(np.count_nonzero(s > tol * scale))
    s[k:] = 0.0
    bt = u0.T @ m.inf @ v0
    # Each appreciable cluster's values become their mean: S = s I on it.
    gid = np.full(n, -1)
    gid[:k] = _clusters(s[:k] ** 2, cluster_tol)
    blocks = resolve_clusters(s[:k], gid[:k], bt, flavor, scale, c, u0, v0)
    # The zero cluster's block is an infinitesimal map; a real SVD resolves it.
    if k < n:
        tail = slice(k, n)
        p, delta, qt = np.linalg.svd(bt[tail, tail])
        u0[:, tail] = u0[:, tail] @ p
        v0[:, tail] = v0[:, tail] @ qt.T
        bt[tail, :] = p.T @ bt[tail, :]
        bt[:, tail] = bt[:, tail] @ qt.T
        delta[delta <= 1e-12 * scale] = 0.0
        blocks += [SpectralBlock(0.0, e, 1) for e in (c * delta).tolist()]

    # B~ = Omega_U S + D - S Omega_V.  Across clusters D = 0 and the pair
    # (i, j), (j, i) is a 2x2 system with determinant s_j^2 - s_i^2.  Inside
    # an appreciable cluster S = s I, and Omega_U takes the part of B~ that
    # D cannot hold; inside the zero cluster S = 0 and D takes all of it.
    f = 1.0 if flavor == FLAVOR_STAR else -1.0
    same = gid[:, None] == gid[None, :]
    den = np.subtract.outer(s**2, s**2).T
    om_u = np.zeros((n, n))
    om_v = np.zeros((n, n))
    np.divide(bt * s - f * s[:, None] * bt.T, den, out=om_u, where=~same)
    np.divide(s[:, None] * bt - f * bt.T * s, den, out=om_v, where=~same)
    np.divide(0.5 * (bt + f * bt.T), s[:, None], out=om_u, where=same & (s[:, None] > 0))

    u = DualMatrix._of(u0, u0 @ om_u)
    v = DualMatrix._of(v0, v0 @ om_v)
    return SvdResult(u, block_matrix(blocks), v, flavor, blocks, m0), k


def svd_invertible(m: DualMatrix, flavor: str) -> SvdResult:
    """SVD of a dual matrix whose standard part is invertible: the general
    SVD, with every singular value appreciable."""
    r, k = _svd(m, flavor, DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL)
    if k < m.shape[0]:
        raise NotInvertible("standard part is numerically singular")
    return r


def split_subspaces(m: DualMatrix, flavor: str) -> SubspaceSplit:
    """Split the right singular vectors by image appreciability: the first
    k columns of the SVD's V, for the k appreciable singular values, and the
    rest."""
    r, k = _svd(m, flavor, DEFAULT_SPLIT_TOL, DEFAULT_CLUSTER_TOL)
    cols = r.v.columns()
    return SubspaceSplit(cols[:k], cols[k:])


def svd(
    m: DualMatrix,
    flavor: str,
    tol: float = DEFAULT_SPLIT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> SvdResult:
    """T-SVD or *-SVD of an arbitrary square dual matrix."""
    return _svd(m, flavor, tol, cluster_tol)[0]


def t_polar(m: DualMatrix) -> PolarResult:
    """M = U P with U^T U = I and P symmetric, via the T-SVD."""
    r = svd(m, FLAVOR_T)
    u = r.u @ r.v.T
    p = r.v @ r.sigma @ r.v.T
    return PolarResult(u, p)


def penrose_residuals(m: DualMatrix, x: DualMatrix) -> dict:
    """Residuals of the four Penrose identities with the T-transpose."""
    mx = m @ x
    xm = x @ m
    return {
        "mxm": (mx @ m - m).norm(),
        "xmx": (xm @ x - x).norm(),
        "mx_symmetric": (mx - mx.T).norm(),
        "xm_symmetric": (xm - xm.T).norm(),
    }


def pinv_t(m: DualMatrix, tol: float = DEFAULT_SPLIT_TOL):
    """Moore-Penrose pseudoinverse via the T-SVD, or None when none exists.

    The k appreciable singular values are inverted and the rest are zero; a
    nonzero infinitesimal part among the rest certifies nonexistence.  The
    work, the Penrose self-check included, is done on M scaled to unit norm.
    """
    m, c, scale = unit_scale(m)
    r, k = _svd(m, FLAVOR_T, tol, DEFAULT_CLUSTER_TOL)
    a, b = np.diag(r.sigma.std), np.diag(r.sigma.inf)
    if (np.abs(b[k:]) > tol * scale).any():
        return None
    # 1/a - eps*b/a^2, as Dual.inv computes it; zeros stay zero.
    x_std, x_inf = np.zeros_like(a), np.zeros_like(a)
    x_std[:k] = 1.0 / a[:k]
    x_inf[:k] = -b[:k] / (a[:k] * a[:k])
    x = r.v @ DualMatrix._of(np.diag(x_std), np.diag(x_inf)) @ r.u.T
    worst = np.max(list(penrose_residuals(m, x).values()))
    if not worst <= 1e-8 * scale:
        raise VerificationError(
            f"Penrose identities failed at {worst:.3e} (scale {scale:.3e})"
        )
    return x if c == 1.0 else DualMatrix._of(x.std / c, x.inf / c)
