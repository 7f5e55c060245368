"""T-SVD and *-SVD of arbitrary square dual matrices, polar decomposition and
the Moore-Penrose pseudoinverse.

For M = A + eps*B, one real SVD A = U0 S V0^T fixes the standard parts.
Inputs are first scaled by a power of two to unit norm.  The split is the
one appreciability rule, read by every consumer: a singular value counts iff
it exceeds DEFAULT_SPLIT_TOL*||M||; the rest become zero.  This front end,
``_front``, forms B~ = U0^T B V0 and resolves its zero cluster's block by a
real SVD.  The SVD, the polar factors and the pseudoinverse each make one
call to it and read the rest off B~ in closed form.  The SVD alone clusters
the appreciable values, as runs of neighbours at most
DEFAULT_CLUSTER_TOL*||M|| apart; its one cluster pass, ``resolve_clusters``,
resolves them and gives the middle factor as per-index arrays.  The rest of
B~ is absorbed by U = U0 (I + eps*Omega_U) and V = V0 (I + eps*Omega_V),
Omega skew (T) or symmetric (star): exact isometries as eps**2 = 0.  For H =
(B~ + sign*B~^T)/2 and K = B~ - H, Omega_U - Omega_V = 2K/(s_i + s_j) is the
polar factor's W, and Omega_U + Omega_V = 2H/(s_j - s_i) across clusters and
0 inside one: the SVD Jacobian of Papadopoulo & Lourakis (ECCV 2000), split
evenly between U and V.  Sigma and blocks are built when read.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotInvertible, VerificationError
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    DEFAULT_SPLIT_TOL,
    FLAVOR_STAR,
    FLAVOR_T,
    ORTHONORMAL_TOL,
    ZERO_BLOCK_TOL,
    DualMatrix,
    Flavor,
    adjoint,
    require_square,
    scale_back,
    structure_residual,
    unit_scale,
)
from .spectral import (
    HeldMiddle,
    SpectralDecomposition,
    _cluster_runs,
    _divide_across,
    middle_matrix,
    resolve_clusters,
)


@dataclass
class SvdResult(HeldMiddle):
    u: DualMatrix
    v: DualMatrix
    flavor: Flavor
    middle: tuple

    @property
    def sigma(self) -> DualMatrix:
        return middle_matrix(*self.middle)

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


def _front(m: DualMatrix):
    """(M/c, c, ||M/c||, U0, s, V0, B~, k, delta) for M/c = A + eps*B, A = U0 S
    V0^T, whose k values above DEFAULT_SPLIT_TOL*||M/c|| are appreciable, the
    rest 0.  A real SVD P diag(delta) Q^T of the zero block of B~ = U0^T B V0
    turns U0, V0 and B~; delta (empty if k = n) is 0 up to ZERO_BLOCK_TOL*||M/c||."""
    require_square(m, "svd")
    ms, c, scale = unit_scale(m)
    u0, s, v0t = np.linalg.svd(ms.std)
    v0 = v0t.T
    k = int(np.count_nonzero(s > DEFAULT_SPLIT_TOL * scale))
    s[k:] = 0.0
    bt = u0.T @ ms.inf @ v0
    delta = np.zeros(0)
    if k < len(s):
        tail = slice(k, None)
        p, delta, qt = np.linalg.svd(bt[tail, tail])
        u0[:, tail] = u0[:, tail] @ p
        v0[:, tail] = v0[:, tail] @ qt.T
        bt[tail, :] = p.T @ bt[tail, :]
        bt[:, tail] = bt[:, tail] @ qt.T
        delta[delta <= ZERO_BLOCK_TOL * scale] = 0.0
    return ms, c, scale, u0, s, v0, bt, k, delta


def svd(m: DualMatrix, flavor: str) -> SvdResult:
    """T-SVD or *-SVD of an arbitrary square dual matrix."""
    flavor = Flavor(flavor)
    _, c, scale, u0, s, v0, bt, k, delta = _front(m)
    # Each appreciable cluster's values become their mean: S = s I on it.
    runs = _cluster_runs(s[:k], DEFAULT_CLUSTER_TOL * scale)
    sp, size = resolve_clusters(s[:k], runs, bt, flavor, scale, u0, v0)
    sp[k:] = delta

    # B~ = Omega_U S + D - S Omega_V, Omega^T = -sign*Omega, D = Sigma's eps part:
    # H = (Omega_U + Omega_V)(s_j - s_i)/2, K = (Omega_U - Omega_V)(s_j + s_i)/2.
    # Only the difference is fixed inside a cluster, so the sum is 0 there.
    h_part = 0.5 * (bt + flavor.sign * bt.T)
    den = s + s[:, None]
    den[k:, k:] = np.inf  # W = 0 on the zero block
    half_w = (bt - h_part) / den
    half_sum = _divide_across(h_part, s, [*runs, (k, len(s))])
    u = DualMatrix._of(u0, u0 @ (half_sum + half_w))
    v = DualMatrix._of(v0, v0 @ (half_sum - half_w))
    return SvdResult(u, v, flavor, (*scale_back(c, s, sp), size))


def svd_invertible(m: DualMatrix, flavor: str) -> SvdResult:
    """SVD of a dual matrix whose standard part is invertible: the general
    SVD, with every singular value appreciable, so none is the split's 0."""
    r = svd(m, flavor)
    if np.count_nonzero(r.middle[0]) < m.shape[0]:
        raise NotInvertible("standard part is numerically singular")
    return r


def split_subspaces(m: DualMatrix, flavor: str) -> SubspaceSplit:
    """Split the right singular vectors by image appreciability: the first
    k columns of the SVD's V, for the k appreciable (nonzero) singular values,
    and the rest."""
    r = svd(m, flavor)
    v, k = r.v, np.count_nonzero(r.middle[0])
    return SubspaceSplit(
        DualMatrix._of(v.std[:, :k], v.inf[:, :k]), DualMatrix._of(v.std[:, k:], v.inf[:, k:])
    )


def t_polar(m: DualMatrix) -> PolarResult:
    """M = U P, U = U0 (I + eps*W) V0^T T-orthogonal and P = V0 (S + eps*Y) V0^T
    positive semidefinite: Y + W S = B~ for W = 2K/(s_i + s_j) skew and Y = H +
    K (s_i - s_j)/(s_i + s_j) symmetric, where Y solves P0 P1 + P1 P0 = (M^T M)_1
    (Higham, Functions of Matrices, 2008, ch. 8).  On the zero block Y = diag(delta)."""
    _, c, scale, u0, s, v0, bt, k, delta = _front(m)
    den = s + s[:, None]
    den[k:, k:] = np.inf  # W = 0 on the zero block
    w = (bt - bt.T) / den  # 2K/D, exactly skew
    # (B~ + B~^T + W (s_i - s_j))/2 is exactly symmetric, as W is exactly skew.
    y = 0.5 * (bt + bt.T + w * (s[:, None] - s))
    y[k:, k:] = np.diag(delta)
    p = scale_back(c, np.multiply(v0, s, order="C") @ v0.T, v0 @ y @ v0.T)
    return PolarResult(DualMatrix._of(u0 @ v0.T, u0 @ w @ v0.T), DualMatrix._of(*p))


def penrose(m: DualMatrix, x: DualMatrix):
    """Yield (name, residual, limit) for each of the four Penrose identities
    with the T-transpose.  Each limit is ``ORTHONORMAL_TOL`` times the scale of
    its residual: MXM - M scales like M and XMX - X like X; MX and XM are
    dimensionless, so their symmetry defects get ``ORTHONORMAL_TOL`` itself.
    An overflowing product is an inf or NaN residual, formed without a warning."""
    t = ORTHONORMAL_TOL
    with np.errstate(over="ignore", invalid="ignore"):
        mx, xm = m @ x, x @ m
        found = [("mxm", (mx @ m - m).norm(), t * m.norm()),
                 ("xmx", (xm @ x - x).norm(), t * x.norm()),
                 ("mx_symmetric", (mx - mx.T).norm(), t),
                 ("xm_symmetric", (xm - xm.T).norm(), t)]
    yield from found


def invariants(m: DualMatrix, flavor: str, factors: dict, middle=None):
    """Yield (name, residual, limit) for every invariant of a result of M, as
    ``factors_of`` gives it; ``middle`` is unpacked after the isometry
    residuals.  Each limit is ``ORTHONORMAL_TOL`` times the scale of its
    residual: 1 for an isometry, the scales that ``penrose`` yields for the
    Penrose identities, and ||M|| for every other residual.  A reconstruction
    that overflows is an inf or NaN residual, formed without numpy's warning."""
    flavor, f = Flavor(flavor), factors
    lim = ORTHONORMAL_TOL * m.norm()
    for name in sorted(f.keys() & {"u", "v"}):
        yield f"{name}_structure", structure_residual(f[name], flavor.isometry), ORTHONORMAL_TOL
    if "p" in f:
        yield "p_symmetry", structure_residual(f["p"], "symmetric"), lim
        # A polar factor is positive semidefinite, as (-U, -P) factors M too:
        # P0 >= 0, and P1 >= 0 on the null space of P0.  The library's zero
        # eigenvalues of P0 sit near eps*||M||, its kept ones above its split
        # DEFAULT_SPLIT_TOL*||M||; half of that parts the two.
        lam, q = np.linalg.eigh(f["p"].std)
        null = q[:, lam <= 0.5 * DEFAULT_SPLIT_TOL * m.norm()]
        low = np.linalg.eigvalsh(null.T @ f["p"].inf @ null).min(initial=np.inf)
        yield "p_definite", max(0.0, -min(lam.min(initial=np.inf), low)), lim
        with np.errstate(over="ignore", invalid="ignore"):
            recon = (f["u"] @ f["p"] - m).norm()
        yield "reconstruction", recon, lim
    elif "sigma" in f:
        sigma = f["sigma"]
        pattern = (sigma - middle_matrix(*middle)).norm()
        if flavor is FLAVOR_STAR:
            if "u" not in f:
                yield "sigma_hermitian", structure_residual(sigma, "hermitian"), lim
            yield "sigma_block_form", pattern, lim
        else:
            yield "sigma_diagonal", pattern, lim
        # U Sigma V^adj, or V Sigma V^adj for a spectral result.
        with np.errstate(over="ignore", invalid="ignore"):
            recon = (f.get("u", f["v"]) @ sigma @ adjoint(f["v"], flavor) - m).norm()
        yield "reconstruction", recon, lim
    elif "pinv" in f:
        for name, val, limit in penrose(m, f["pinv"]):
            yield f"penrose_{name}", val, limit


def factors_of(r) -> tuple:
    """(flavor, factors, middle), the arguments of ``invariants`` after M, for
    an SVD, spectral or polar result, a pseudoinverse or None: the factors by
    the names a result document gives them, and the per-index middle."""
    if isinstance(r, SvdResult):
        return r.flavor, {"u": r.u, "sigma": r.sigma, "v": r.v}, r.middle
    if isinstance(r, SpectralDecomposition):
        return r.flavor, {"v": r.v, "sigma": r.sigma_matrix()}, r.middle
    if isinstance(r, PolarResult):
        return FLAVOR_T, {"u": r.u, "p": r.p}, None
    return FLAVOR_T, {} if r is None else {"pinv": r}, None


def pinv_t(m: DualMatrix):
    """Moore-Penrose pseudoinverse, or None if a delta of the zero block exceeds
    DEFAULT_SPLIT_TOL*||M||: X = V0 (S^+ + eps*X~) U0^T for X~ = [[-B~11_ij /
    (s_i s_j), S^-2 B~21^T], [B~12^T S^-2, 0]] (Golub & Pereyra, SIAM J. Numer.
    Anal. 1973).  It all runs on M/c, the self-check too: one pass over
    ``penrose(M, X)`` raises VerificationError on the first identity above
    its limit."""
    m, c, scale, u0, s, v0, bt, k, delta = _front(m)
    if (delta > DEFAULT_SPLIT_TOL * scale).any():
        return None
    x_std = np.divide(1.0, s, out=np.zeros_like(s), where=s > 0.0)  # s[k:] = 0
    sk = s[:k]
    # By s_i*s_j, so that a diagonal M gets Dual.inv's -b/(a*a) bit for bit.
    x_inf = np.zeros_like(bt)
    x_inf[:k, :k] = -bt[:k, :k] / (sk[:, None] * sk)
    x_inf[:k, k:] = bt[k:, :k].T / (sk * sk)[:, None]
    x_inf[k:, :k] = bt[:k, k:].T / (sk * sk)
    x = DualMatrix._of(np.multiply(v0, x_std, order="C") @ u0.T, v0 @ x_inf @ u0.T)
    for name, residual, limit in penrose(m, x):
        if not residual <= limit:
            raise VerificationError(f"Penrose {name}: {residual:.3e} > limit {limit:.3e}")
    return DualMatrix._of(*scale_back(1.0 / c, x.std, x.inf))
