"""T-SVD and *-SVD of arbitrary square dual matrices, polar decomposition and
the Moore-Penrose pseudoinverse.

For M = A + eps*B, one real SVD A = U0 S V0^T fixes the standard parts.
Inputs are first scaled by a power of two to unit norm.  The split is the
one appreciability rule, read by every consumer: a singular value counts iff
it exceeds tol*||M||; the rest become zero.  The appreciable values are
clustered on s by the spectral decompositions' rule, as runs of neighbours
at most cluster_tol*||M|| apart.  In B~ = U0^T B V0, the one cluster pass,
``resolve_clusters``, resolves the runs and gives the middle factor as
per-index arrays; when k < n, a real SVD resolves the zero cluster's block.
The rest of B~ is absorbed by U = U0 (I + eps*Omega_U) and V = V0 (I +
eps*Omega_V), with Omega skew (T) or symmetric (star): exact isometries as
eps**2 = 0.  Across clusters Omega = H/(s_j - s_i) +- K/(s_j + s_i), the SVD
Jacobian of Papadopoulo & Lourakis (ECCV 2000), for the parts H = (B~ +
sign*B~^T)/2 and K = B~ - H.  Sigma, blocks and residual are built when read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible, OutOfRange, VerificationError
from .linalg import FLAVOR_T, DualMatrix, Flavor, adjoint, require_square, scale_back, unit_scale
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    HeldMiddle,
    _cluster_runs,
    _divide_across,
    middle_matrix,
    resolve_clusters,
)

DEFAULT_SPLIT_TOL = 1e-8


@dataclass
class SvdResult(HeldMiddle):
    u: DualMatrix
    v: DualMatrix
    flavor: Flavor
    middle: tuple
    m: DualMatrix  # the decomposed matrix

    @property
    def sigma(self) -> DualMatrix:
        return middle_matrix(*self.middle)

    @property
    def residual(self) -> float:
        """Reconstruction residual ||U Sigma V^adj - M||."""
        return (self.reconstruct() - self.m).norm()

    def reconstruct(self) -> DualMatrix:
        return self.u @ self.sigma @ adjoint(self.v, self.flavor)


@dataclass
class SubspaceSplit:
    """The right singular vectors, split by whether the operator sends the
    vector to an appreciable (vl) or infinitesimal (vr) image: the n x k and
    n x (n - k) column blocks of the SVD's V."""

    vl_basis: DualMatrix
    vr_basis: DualMatrix


@dataclass
class PolarResult:
    u: DualMatrix
    p: DualMatrix


def _svd(m: DualMatrix, flavor: str, tol: float, cluster_tol: float, scaled=None):
    """The SVD of ``m`` and its number k of appreciable singular values;
    ``scaled`` is ``unit_scale(m)`` if the caller has it."""
    flavor = Flavor(flavor)
    require_square(m, "svd")
    ms, c, scale = scaled or unit_scale(m)
    n = m.shape[0]
    u0, s, v0t = np.linalg.svd(ms.std)
    v0 = v0t.T
    k = int(np.count_nonzero(s > tol * scale))
    s[k:] = 0.0
    bt = u0.T @ ms.inf @ v0
    # Each appreciable cluster's values become their mean: S = s I on it.
    runs = _cluster_runs(s[:k], cluster_tol * scale)
    sp, size = resolve_clusters(s[:k], runs, bt, flavor, scale, u0, v0)
    # The zero cluster's block is an infinitesimal map; a real SVD resolves it.
    if k < n:
        tail = slice(k, n)
        p, delta, qt = np.linalg.svd(bt[tail, tail])
        u0[:, tail] = u0[:, tail] @ p
        v0[:, tail] = v0[:, tail] @ qt.T
        bt[tail, :] = p.T @ bt[tail, :]
        bt[:, tail] = bt[:, tail] @ qt.T
        delta[delta <= 1e-12 * scale] = 0.0
        sp[tail] = delta

    # B~ = Omega_U S + D - S Omega_V with Omega^T = -sign*Omega.  Across
    # clusters D = 0, H = (Omega_U + Omega_V)(s_j - s_i)/2 and K = (Omega_U -
    # Omega_V)(s_j + s_i)/2.  Inside an appreciable cluster S = s I, Omega_V = 0
    # and Omega_U = K/s; inside the zero cluster S = 0 and D takes all of B~.
    h_part = 0.5 * (bt + flavor.sign * bt.T)
    k_part = bt - h_part
    same = [*runs, (k, n)]
    om_h, om_k = _divide_across(h_part, s, same), _divide_across(k_part, s, same, np.add)
    om_u, om_v = om_h + om_k, om_h - om_k
    om_u.flat[: k * (n + 1) : n + 1] = k_part.diagonal()[:k] / s[:k]
    for i, j in runs:
        om_u[i:j, i:j] = k_part[i:j, i:j] / s[i:j, None]

    u = DualMatrix._of(u0, u0 @ om_u)
    v = DualMatrix._of(v0, v0 @ om_v)
    return SvdResult(u, v, flavor, (*scale_back(c, s, sp), size), m), k


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
    v = r.v
    return SubspaceSplit(
        DualMatrix._of(v.std[:, :k], v.inf[:, :k]), DualMatrix._of(v.std[:, k:], v.inf[:, k:])
    )


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
    (s, sp), v0, v1 = r.middle[:2], r.v.std, r.v.inf
    # V Sigma as column scalings, for Sigma = diag(s) + eps*diag(sp).  Each part
    # is C-ordered as V @ Sigma's is (the eps part through v1): BLAS rounds
    # P's products by their operands' layout.
    p = DualMatrix._of(np.multiply(v0, s, order="C"), v0 * sp + v1 * s) @ r.v.T
    return PolarResult(r.u @ r.v.T, p)


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


def penrose_limits(m: DualMatrix, x: DualMatrix, tol: float) -> dict:
    """Each Penrose identity's limit: ``tol`` times the scale of its
    residual.  MXM - M scales like M and XMX - X like X; MX and XM are
    dimensionless, so their symmetry defects get ``tol`` itself."""
    lims = {"mxm": tol * m.norm(), "xmx": tol * x.norm()}
    return lims | {"mx_symmetric": tol, "xm_symmetric": tol}


def pinv_t(m: DualMatrix, tol: float = DEFAULT_SPLIT_TOL):
    """Moore-Penrose pseudoinverse via the T-SVD, or None when none exists.

    The k appreciable singular values are inverted and the rest are zero; a
    nonzero infinitesimal part among the rest certifies nonexistence.  The
    work, the Penrose self-check at ``penrose_limits(M, X, 1e-8)`` included,
    is done on M scaled to unit norm.
    """
    m, c, scale = unit_scale(m)
    r, k = _svd(m, FLAVOR_T, tol, DEFAULT_CLUSTER_TOL, (m, 1.0, scale))
    a, b = r.middle[:2]
    if (np.abs(b[k:]) > tol * scale).any():
        return None
    # 1/a - eps*b/a^2, as Dual.inv computes it; zeros stay zero.
    x_std, x_inf = np.zeros_like(a), np.zeros_like(a)
    x_std[:k] = 1.0 / a[:k]
    x_inf[:k] = -b[:k] / (a[:k] * a[:k])
    v0, v1 = r.v.std, r.v.inf
    x = DualMatrix._of(np.multiply(v0, x_std, order="C"), v0 * x_inf + v1 * x_std) @ r.u.T
    residuals = penrose_residuals(m, x)
    for name, limit in penrose_limits(m, x, 1e-8).items():
        if not residuals[name] <= limit:
            raise VerificationError(f"Penrose {name}: {residuals[name]:.3e} > limit {limit:.3e}")
    if x.norm() > c * sys.float_info.max:  # X / c would overflow
        raise OutOfRange(f"the pseudoinverse overflows float64 at ||M|| = {c * scale:.3e}")
    return x if c == 1.0 else DualMatrix._of(x.std / c, x.inf / c)
