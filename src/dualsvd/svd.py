"""T-SVD and *-SVD of arbitrary square dual matrices, polar decomposition and
the Moore-Penrose pseudoinverse.

For M = A + eps*B, one real SVD A = U0 S V0^T fixes the standard parts.
Inputs are first scaled by a power of two to unit norm.  The split is the
one appreciability rule, read by every consumer: a singular value counts iff
it exceeds tol*||M||; the rest become zero.  This front end, ``_front``,
forms B~ = U0^T B V0, and ``_zero_block`` resolves its zero cluster's block
by a real SVD.  The polar factors and the pseudoinverse are read off B~ in
closed form.  The SVD alone clusters the appreciable values, as runs of
neighbours at most cluster_tol*||M|| apart; its one cluster pass,
``resolve_clusters``, resolves them and gives the middle factor as per-index
arrays.  The rest of B~ is absorbed by U = U0 (I + eps*Omega_U) and V = V0
(I + eps*Omega_V), Omega skew (T) or symmetric (star): exact isometries as
eps**2 = 0.  Across clusters Omega = H/(s_j - s_i) +- K/(s_j + s_i), the SVD
Jacobian of Papadopoulo & Lourakis (ECCV 2000), for H = (B~ + sign*B~^T)/2
and K = B~ - H.  Sigma, blocks and residual are built when read.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible, OutOfRange, VerificationError
from .linalg import DualMatrix, Flavor, adjoint, require_square, scale_back, unit_scale
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


def _front(m: DualMatrix, tol: float):
    """(M/c, c, ||M/c||, U0, s, V0, B~, k) for M/c = A + eps*B, A = U0 S V0^T:
    the k singular values above tol*||M/c|| are appreciable, the rest 0."""
    require_square(m, "svd")
    ms, c, scale = unit_scale(m)
    u0, s, v0t = np.linalg.svd(ms.std)
    v0 = v0t.T
    k = int(np.count_nonzero(s > tol * scale))
    s[k:] = 0.0
    return ms, c, scale, u0, s, v0, u0.T @ ms.inf @ v0, k


def _zero_block(u0, v0, bt, k: int, scale: float) -> np.ndarray:
    """Resolve the zero block of B~ by a real SVD P diag(delta) Q^T, turning U0,
    V0 and B~ in place; return delta (empty if k = n), 0 below 1e-12*||M/c||."""
    if k == len(bt):
        return np.zeros(0)
    tail = slice(k, None)
    p, delta, qt = np.linalg.svd(bt[tail, tail])
    u0[:, tail] = u0[:, tail] @ p
    v0[:, tail] = v0[:, tail] @ qt.T
    bt[tail, :] = p.T @ bt[tail, :]
    bt[:, tail] = bt[:, tail] @ qt.T
    delta[delta <= 1e-12 * scale] = 0.0
    return delta


def _svd(m: DualMatrix, flavor: str, tol: float, cluster_tol: float):
    """The SVD of ``m`` and its number k of appreciable singular values."""
    flavor = Flavor(flavor)
    _, c, scale, u0, s, v0, bt, k = _front(m, tol)
    n = m.shape[0]
    # Each appreciable cluster's values become their mean: S = s I on it.
    # The pass turns B~'s cross blocks before the zero block turns them.
    runs = _cluster_runs(s[:k], cluster_tol * scale)
    sp, size = resolve_clusters(s[:k], runs, bt, flavor, scale, u0, v0)
    sp[k:] = _zero_block(u0, v0, bt, k, scale)

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
    """M = U P, U = U0 (I + eps*W) V0^T T-orthogonal and P = V0 (S + eps*Y) V0^T
    positive semidefinite: Y + W S = B~ for W = 2K/(s_i + s_j) skew and Y = H +
    K (s_i - s_j)/(s_i + s_j) symmetric, where Y solves P0 P1 + P1 P0 = (M^T M)_1
    (Higham, Functions of Matrices, 2008, ch. 8).  On the zero block Y = diag(delta)."""
    _, c, scale, u0, s, v0, bt, k = _front(m, DEFAULT_SPLIT_TOL)
    delta = _zero_block(u0, v0, bt, k, scale)
    den = s + s[:, None]
    den[k:, k:] = np.inf  # W = 0 on the zero block
    w = (bt - bt.T) / den  # 2K/D, exactly skew
    # (B~ + B~^T + W (s_i - s_j))/2 is exactly symmetric, as W is exactly skew.
    y = 0.5 * (bt + bt.T + w * (s[:, None] - s))
    y[k:, k:] = np.diag(delta)
    p = scale_back(c, np.multiply(v0, s, order="C") @ v0.T, v0 @ y @ v0.T)
    return PolarResult(DualMatrix._of(u0 @ v0.T, u0 @ w @ v0.T), DualMatrix._of(*p))


def penrose_residuals(m: DualMatrix, x: DualMatrix) -> dict:
    """Residuals of the four Penrose identities with the T-transpose."""
    mx, xm = m @ x, x @ m
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
    """Moore-Penrose pseudoinverse, or None when a delta of the zero block is
    above tol*||M||: X = V0 (S^+ + eps*X~) U0^T, X~ = [[-B~11_ij/(s_i s_j), S^-2
    B~21^T], [B~12^T S^-2, 0]] (Golub & Pereyra, SIAM J. Numer. Anal. 1973).
    All of it, the Penrose self-check at ``penrose_limits(M, X, 1e-8)`` too, runs on M/c."""
    m, c, scale, u0, s, v0, bt, k = _front(m, tol)
    if (_zero_block(u0, v0, bt, k, scale) > tol * scale).any():
        return None
    x_std = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)  # s[k:] = 0
    sk = s[:k]
    # By s_i*s_j, so that a diagonal M gets Dual.inv's -b/(a*a) bit for bit.
    x_inf = np.zeros_like(bt)
    x_inf[:k, :k] = -bt[:k, :k] / (sk[:, None] * sk)
    x_inf[:k, k:] = bt[k:, :k].T / (sk * sk)[:, None]
    x_inf[k:, :k] = bt[:k, k:].T / (sk * sk)
    x = DualMatrix._of(np.multiply(v0, x_std, order="C") @ u0.T, v0 @ x_inf @ u0.T)
    residuals = penrose_residuals(m, x)
    for name, limit in penrose_limits(m, x, 1e-8).items():
        if not residuals[name] <= limit:
            raise VerificationError(f"Penrose {name}: {residuals[name]:.3e} > limit {limit:.3e}")
    if x.norm() > c * sys.float_info.max:  # X / c would overflow
        raise OutOfRange(f"the pseudoinverse overflows float64 at ||M|| = {c * scale:.3e}")
    return x if c == 1.0 else DualMatrix._of(x.std / c, x.inf / c)
