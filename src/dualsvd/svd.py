"""T-SVD and *-SVD of arbitrary square dual matrices, polar decomposition and
the Moore-Penrose pseudoinverse.

General inputs are reduced to the invertible case by splitting the spectral
basis of M^adj M into the directions mapped to appreciable vectors (V^L) and
the ones mapped to infinitesimal vectors (V^R).  The restriction to V^R is an
infinitesimal map eps*T', which only sees the standard part of T'.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import Dual
from .errors import NotInvertible, VerificationError
from .linalg import (
    FLAVOR_STAR,
    FLAVOR_T,
    ISOMETRY,
    DualMatrix,
    adjoint,
    extend_orthonormal,
    gram_schmidt,
    require_square,
    structure_residual,
)
from .spectral import (
    DEFAULT_CLUSTER_TOL,
    SpectralBlock,
    block_matrix,
    star_spectral,
    t_spectral,
)

DEFAULT_SPLIT_TOL = 1e-8

# The SVD middle factor has the same blocks as a star-spectral Sigma.
SigmaBlock = SpectralBlock


@dataclass
class SvdResult:
    u: DualMatrix
    sigma: DualMatrix
    v: DualMatrix
    flavor: str
    residual: float
    diag: list | None = None  # T flavor: list of Dual diagonal entries
    blocks: list | None = None  # star flavor: list of SigmaBlock

    def reconstruct(self) -> DualMatrix:
        return self.u @ self.sigma @ adjoint(self.v, self.flavor)


@dataclass
class SubspaceSplit:
    """Orthonormal spectral basis split by whether the operator sends the
    vector to an appreciable (vl) or infinitesimal (vr) image."""

    vl_basis: list
    vr_basis: list


@dataclass
class PolarResult:
    u: DualMatrix
    p: DualMatrix


def _empty_result(flavor: str) -> SvdResult:
    e = DualMatrix(np.zeros((0, 0)))
    return SvdResult(
        e, e, e, flavor, 0.0, diag=[] if flavor == FLAVOR_T else None,
        blocks=[] if flavor == FLAVOR_STAR else None,
    )


def _residual(res_u, res_s, res_v, m, flavor) -> float:
    return (res_u @ res_s @ adjoint(res_v, flavor) - m).norm()


def _polish_isometry(u: DualMatrix, flavor: str) -> DualMatrix:
    """Re-orthonormalize a computed isometry when rounding (amplified by the
    conditioning of the input) has degraded it.  Columns are processed in
    their existing descending-sigma order, so the dominant directions move
    the least."""
    if structure_residual(u, ISOMETRY[flavor]) <= 1e-12 * max(1.0, u.norm()):
        return u
    cols = gram_schmidt(u.columns(), flavor)
    return DualMatrix.from_columns(cols, rows=u.shape[0])


def _gram_spectral(m: DualMatrix, flavor: str, cluster_tol: float):
    """Spectral decomposition of W = M^adj M."""
    w = adjoint(m, flavor) @ m
    spectral = t_spectral if flavor == FLAVOR_T else star_spectral
    return spectral(w, cluster_tol=cluster_tol)


def _map_blocks(blocks, f) -> list:
    """Apply a dual function to each block.  A rotation block is
    sigma + eps*sigma_prime*J with J commuting with it, so its square root
    and inverse have the closed forms of the dual scalar."""
    out = []
    for b in blocks:
        z = f(Dual(b.sigma, b.sigma_prime))
        out.append(SpectralBlock(z.std, z.inf, b.size))
    return out


def svd_invertible(
    m: DualMatrix, flavor: str, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> SvdResult:
    """SVD of a dual matrix whose standard part is invertible.

    Follows the square-root construction: W = M^adj M is decomposed
    spectrally, sqrt(W) = V sqrt(Sigma) V^adj, and U = M (sqrt W)^-1 absorbs
    the remaining isometry.
    """
    require_square(m, "svd")
    n = m.shape[0]
    if n == 0:
        return _empty_result(flavor)
    sv = np.linalg.svd(m.std, compute_uv=False)
    if sv.min() <= 1e-10 * sv.max():
        raise NotInvertible("standard part is numerically singular")

    dec = _gram_spectral(m, flavor, cluster_tol)
    blocks = dec.all_blocks()
    if any(b.sigma <= 0 for b in blocks):
        raise NotInvertible("spectral value of M^adj M not positive")
    roots = _map_blocks(blocks, Dual.sqrt)
    sigma = block_matrix(roots)
    u = _polish_isometry(m @ dec.v @ block_matrix(_map_blocks(roots, Dual.inv)), flavor)
    res = _residual(u, sigma, dec.v, m, flavor)
    if flavor == FLAVOR_T:
        diag = [Dual(b.sigma, b.sigma_prime) for b in roots]
        return SvdResult(u, sigma, dec.v, flavor, res, diag=diag)
    return SvdResult(u, sigma, dec.v, flavor, res, blocks=roots)


def split_subspaces(
    m: DualMatrix,
    flavor: str,
    tol: float = DEFAULT_SPLIT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> SubspaceSplit:
    """Split the spectral basis of M^adj M by image appreciability."""
    require_square(m, "split_subspaces")
    n = m.shape[0]
    if n == 0:
        return SubspaceSplit([], [])
    dec = _gram_spectral(m, flavor, cluster_tol)
    thr = tol * max(1.0, float(np.abs(m.std).max()) if m.std.size else 0.0)
    vl, vr = [], []
    for b in dec.v.columns():
        img = m.apply(b)
        if float(np.linalg.norm(img.std)) > thr:
            vl.append(b)
        else:
            vr.append(b)
    return SubspaceSplit(vl, vr)


def svd(
    m: DualMatrix,
    flavor: str,
    tol: float = DEFAULT_SPLIT_TOL,
    cluster_tol: float = DEFAULT_CLUSTER_TOL,
) -> SvdResult:
    """T-SVD or *-SVD of an arbitrary square dual matrix."""
    require_square(m, "svd")
    n = m.shape[0]
    if n == 0:
        return _empty_result(flavor)

    split = split_subspaces(m, flavor, tol, cluster_tol)
    vl, vr = split.vl_basis, split.vr_basis
    k = len(vl)
    bvecs = vl + vr
    bmat = DualMatrix.from_columns(bvecs, rows=n)

    # Orthonormal basis of the image of V^L, extended to the whole space.
    cs = gram_schmidt([m.apply(b) for b in vl], flavor) if k else []
    cfull = extend_orthonormal(cs, n, flavor)
    cmat = DualMatrix.from_columns(cfull, rows=n)

    # U0 maps the image basis back onto V^L; N = U0 M fixes V^L and sends
    # V^R into infinitesimal vectors.
    u0 = bmat @ adjoint(cmat, flavor)
    x = adjoint(bmat, flavor) @ (u0 @ m) @ bmat

    li = list(range(k))
    ri = list(range(k, n))
    if k:
        inner = svd_invertible(x.submatrix(li, li), flavor, cluster_tol)
    else:
        inner = _empty_result(flavor)

    # The V^R restriction is eps*T'; only the standard part of T' matters.
    tprime = x.inf[np.ix_(ri, ri)]
    if tprime.size:
        ur, s_inf, vrt = np.linalg.svd(tprime)
    else:
        ur = np.zeros((0, 0))
        s_inf = np.zeros(0)
        vrt = np.zeros((0, 0))

    inf_scale = max(1.0, m.norm())
    eps_entries = [0.0 if s <= 1e-12 * inf_scale else float(s) for s in s_inf]
    tail = [SpectralBlock(0.0, e, 1) for e in eps_entries]

    u_coord = DualMatrix.block_diag([inner.u, DualMatrix(ur)])
    v_coord = DualMatrix.block_diag([inner.v, DualMatrix(vrt.T)])
    sigma = DualMatrix.block_diag([inner.sigma, block_matrix(tail)])

    u = cmat @ u_coord
    v = bmat @ v_coord
    res = _residual(u, sigma, v, m, flavor)

    if flavor == FLAVOR_T:
        diag = list(inner.diag) + [Dual(0.0, e) for e in eps_entries]
        return SvdResult(u, sigma, v, flavor, res, diag=diag)
    return SvdResult(u, sigma, v, flavor, res, blocks=list(inner.blocks) + tail)


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

    Appreciable singular values are inverted; exact zeros are zeroed; a
    pure-infinitesimal nonzero singular value certifies nonexistence.
    """
    r = svd(m, FLAVOR_T, tol)
    scale = max(1.0, m.norm())
    inv_entries = []
    for d in r.diag:
        if abs(d.std) > tol * scale:
            inv_entries.append(d.inv())
        elif abs(d.inf) <= tol * scale:
            inv_entries.append(Dual(0.0))
        else:
            return None
    x = r.v @ DualMatrix.diagonal(inv_entries) @ r.u.T
    resid = penrose_residuals(m, x)
    worst = max(resid.values())
    if worst > 1e-8 * scale:
        raise VerificationError(
            f"Penrose identities failed at {worst:.3e} (scale {scale:.3e})"
        )
    return x
