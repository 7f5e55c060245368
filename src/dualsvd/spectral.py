"""Spectral decompositions of Hermitian / symmetric dual matrices.

For M = A + eps*B, one real eigendecomposition A = Q0 D Q0^T fixes the
standard parts and B~ = Q0^T B Q0.  Each cluster of two or more near-equal
eigenvalues takes their mean and has its block of B~ resolved by a real
rotation (which decides the canonical middle factor).  The rest of B~ is absorbed by V = Q0 (I + eps*Omega) with
Omega_ab = B~_ab / (d_b - d_a) across clusters; Omega is skew (T) or
symmetric (star), so V is an exact isometry because eps**2 = 0.  Inputs are
first scaled by a power of two to unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import Dual
from .errors import NotHermitian, NotSymmetric
from .linalg import (
    FLAVOR_STAR,
    FLAVOR_T,
    ISOMETRY,
    SELF_ADJOINT,
    DualMatrix,
    gram_schmidt,
    require_square,
    structure_residual,
    unit_scale,
)
from .realspec import skew_block_diag, sym_eig

DEFAULT_CLUSTER_TOL = 1e-8


@dataclass
class SpectralBlock:
    """One diagonal block of a star-flavor middle factor (spectral or SVD).

    size 1: the scalar block sigma + eps*sigma_prime; sigma_prime is 0 in a
    spectral Sigma and sigma is 0 for an infinitesimal singular value.
    size 2: the rotation-like block
    [[sigma, -eps*sigma_prime], [eps*sigma_prime, sigma]] with sigma_prime > 0.
    """

    sigma: float
    sigma_prime: float
    size: int


def block_matrix(blocks) -> DualMatrix:
    """Assemble the block-diagonal matrix of a list of blocks."""
    n = sum(b.size for b in blocks)
    out = DualMatrix.zeros(n, n)
    p = 0
    for b in blocks:
        if b.size == 1:
            out.std[p, p] = b.sigma
            out.inf[p, p] = b.sigma_prime
        else:
            out.std[p, p] = out.std[p + 1, p + 1] = b.sigma
            out.inf[p, p + 1] = -b.sigma_prime
            out.inf[p + 1, p] = b.sigma_prime
        p += b.size
    return out


@dataclass
class SpectralDecomposition:
    """M = v Sigma v*  (star flavor)  or  M = v D v^T  (T flavor)."""

    v: DualMatrix
    flavor: str
    blocks: list | None = None  # star flavor
    diag: list | None = None  # T flavor

    @property
    def n(self) -> int:
        return self.v.shape[0]

    def all_blocks(self) -> list:
        """The middle factor's blocks; a T diagonal entry z is the size-1
        block z.std + eps*z.inf."""
        if self.flavor == FLAVOR_T:
            return [SpectralBlock(z.std, z.inf, 1) for z in self.diag]
        return self.blocks

    def sigma_matrix(self) -> DualMatrix:
        """Assemble the canonical middle factor."""
        return block_matrix(self.all_blocks())


def eigenvalue_multiset(d: SpectralDecomposition):
    """The invariant eigenvalue multiset, as a sorted list of (sigma, signed
    sigma_prime) pairs.  A star 2x2 block contributes the conjugate pair."""
    pairs = []
    for b in d.all_blocks():
        pairs.append((b.sigma, b.sigma_prime))
        if b.size == 2:
            pairs.append((b.sigma, -b.sigma_prime))
    return sorted(pairs)


def _clusters(d: np.ndarray, cluster_tol: float):
    """Group indices of a descending real sequence into near-equal clusters."""
    n = len(d)
    scale = max(1.0, float(np.abs(d).max())) if n else 1.0
    groups = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and abs(d[j] - d[j + 1]) <= cluster_tol * scale:
            j += 1
        groups.append(list(range(i, j + 1)))
        i = j + 1
    return groups


def resolve_cluster(bt: np.ndarray, idx: slice, flavor: str, scale: float, *isos):
    """Resolve one cluster's infinitesimal block bt[idx, idx] with a real
    rotation q, and turn bt and the columns ``idx`` of each isometry in
    ``isos`` by it, in place.

    This decides the canonical middle factor.  Returns (values, zeros):
    q^T sym(b) q = diag(values), descending, for T; for star,
    q^T skew(b) q is 2x2 rotation blocks with parameters ``values`` followed
    by ``zeros`` zero entries.
    """
    b = bt[idx, idx]
    if flavor == FLAVOR_T:
        es = sym_eig(0.5 * (b + b.T))
        q, values, zeros = es.q, es.eigenvalues, 0
    else:
        b = 0.5 * (b - b.T)
        # Rotation parameters below 1e-9 of the matrix scale collapse to
        # scalar blocks; keeping them would emit near-boundary 2x2 blocks.
        mu_floor = 1e-9 * scale / max(1.0, float(np.abs(b).max()))
        sb = skew_block_diag(b, tol=mu_floor)
        q, values, zeros = sb.q, sb.mus, sb.zero_count
    for iso in isos:
        iso[:, idx] = iso[:, idx] @ q
    bt[idx, :] = q.T @ bt[idx, :]
    bt[:, idx] = bt[:, idx] @ q
    return values, zeros


def _decompose(m: DualMatrix, flavor: str, tol: float, cluster_tol: float):
    require_square(m, "spectral decomposition")
    unit = unit_scale(m)
    if unit != 1.0:
        m = DualMatrix(m.std / unit, m.inf / unit)
    n = m.shape[0]
    scale = max(1.0, m.norm())
    if structure_residual(m, SELF_ADJOINT[flavor]) > tol * scale:
        error = NotHermitian if flavor == FLAVOR_STAR else NotSymmetric
        raise error(f"matrix is not {SELF_ADJOINT[flavor]} within tolerance")

    spec = sym_eig(0.5 * (m.std + m.std.T))
    q0, d = spec.q, spec.eigenvalues
    # B~ is symmetric (T) or skew (star), so that Omega below is exactly
    # skew or symmetric.
    bt = q0.T @ m.inf @ q0
    bt = 0.5 * (bt + bt.T if flavor == FLAVOR_T else bt - bt.T)
    groups = _clusters(d, cluster_tol)

    # Resolve each cluster's block with a real rotation; a size-1 cluster's
    # value is its diagonal entry of B~ (0 for star).  The cluster's values
    # become their mean, so that D = d I on it, before Omega divides by them.
    blocks = []
    diag = []
    for g in groups:
        idx = slice(g[0], g[-1] + 1)
        if len(g) > 1:
            d[idx] = d[idx].mean()
            vals, zeros = resolve_cluster(bt, idx, flavor, scale, q0)
        elif flavor == FLAVOR_T:
            vals, zeros = [bt[g[0], g[0]]], 0
        else:
            vals, zeros = [], 1
        lam = unit * d[g[0]]
        if flavor == FLAVOR_STAR:
            blocks += [SpectralBlock(lam, unit * mu, 2) for mu in vals]
            blocks += [SpectralBlock(lam, 0.0, 1) for _ in range(zeros)]
        else:
            diag += [Dual(lam, unit * y) for y in vals]

    # M = V Sigma V^adj with V = Q0 (I + eps*Omega): across clusters
    # B~_ab = Omega_ab (d_b - d_a).
    gid = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    omega = np.zeros((n, n))
    np.divide(bt, np.subtract.outer(d, d).T, out=omega, where=gid[:, None] != gid[None, :])
    v = DualMatrix(q0, q0 @ omega)

    if flavor == FLAVOR_STAR:
        dec = SpectralDecomposition(v, flavor, blocks=blocks)
    else:
        dec = SpectralDecomposition(v, flavor, diag=diag)

    if structure_residual(v, ISOMETRY[flavor]) > 1e-11 * max(1.0, v.norm()):
        cols = gram_schmidt(v.columns(), flavor)
        dec.v = DualMatrix.from_columns(cols, rows=n)
    return dec


def star_spectral(
    m: DualMatrix, tol: float = 1e-8, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> SpectralDecomposition:
    """Decompose a Hermitian dual matrix as M = V Sigma V* with unitary V."""
    return _decompose(m, FLAVOR_STAR, tol, cluster_tol)


def t_spectral(
    m: DualMatrix, tol: float = 1e-8, cluster_tol: float = DEFAULT_CLUSTER_TOL
) -> SpectralDecomposition:
    """Decompose a symmetric dual matrix as M = V D V^T with T-orthogonal V."""
    return _decompose(m, FLAVOR_T, tol, cluster_tol)
