"""Spectral decompositions of Hermitian / symmetric dual matrices.

The constructive pipeline: diagonalize the standard part, kill cross-cluster
infinitesimal couplings with a first-order corrector P = I + eps*C (which is
exactly unitary / T-orthogonal because eps**2 = 0), then resolve each cluster's
residual infinitesimal block with the appropriate real spectral backend.
Inputs are first scaled by a power of two to unit norm.
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
    adjoint,
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


def resolve_cluster(b: np.ndarray, flavor: str, scale: float):
    """Resolve one cluster's infinitesimal block b with a real rotation.

    This decides the canonical middle factor.  Returns (q, values, zeros):
    q^T sym(b) q = diag(values), descending, for T; for star,
    q^T skew(b) q is 2x2 rotation blocks with parameters ``values`` followed
    by ``zeros`` zero entries.
    """
    if flavor == FLAVOR_T:
        es = sym_eig(0.5 * (b + b.T))
        return es.q, es.eigenvalues, 0
    b = 0.5 * (b - b.T)
    # Rotation parameters below 1e-9 of the matrix scale collapse to
    # scalar blocks; keeping them would emit near-boundary 2x2 blocks.
    mu_floor = 1e-9 * scale / max(1.0, float(np.abs(b).max()))
    sb = skew_block_diag(b, tol=mu_floor)
    return sb.q, sb.mus, sb.zero_count


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

    a0 = 0.5 * (m.std + m.std.T)
    spec = sym_eig(a0)
    s = spec.q.T  # s a0 s^T is diagonal, eigenvalues descending
    sd = DualMatrix(s)
    mp = sd @ m @ sd.T
    d = np.diag(mp.std).copy()
    groups = _clusters(d, cluster_tol)

    # First-order corrector: C_ab = inf(M')_ab / (d_a - d_b) across clusters.
    # C is symmetric for the star flavor (inf part skew) and skew for T
    # (inf part symmetric), which makes P = I + eps*C exactly an isometry.
    group_of = np.repeat(np.arange(len(groups)), [len(g) for g in groups])
    cross = group_of[:, None] != group_of[None, :]
    c = np.zeros((n, n))
    c[cross] = mp.inf[cross] / np.subtract.outer(d, d)[cross]
    p = DualMatrix(np.eye(n), c)
    mpp = p @ mp @ adjoint(p, flavor)

    # Resolve each cluster's infinitesimal block with a real backend.
    qs = []
    blocks = []
    diag = []
    for g in groups:
        idx = np.array(g)
        q, vals, _ = resolve_cluster(mpp.inf[np.ix_(idx, idx)], flavor, scale)
        q_i = q.T
        qs.append(q_i)
        lam = np.diag(q_i @ np.diag(d[idx]) @ q_i.T)
        if flavor == FLAVOR_STAR:
            for i, mu in enumerate(vals):
                sigma = unit * 0.5 * (lam[2 * i] + lam[2 * i + 1])
                blocks.append(SpectralBlock(sigma, unit * mu, 2))
            blocks += [SpectralBlock(unit * x, 0.0, 1) for x in lam[2 * len(vals) :]]
        else:
            diag += [Dual(unit * x, unit * y) for x, y in zip(lam, vals)]

    gd = DualMatrix.block_diag(DualMatrix(q_i) for q_i in qs)

    # w = G P S is an isometry; M = w^adj Sigma w, so v = w^adj.
    v = adjoint(gd @ p @ sd, flavor)

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
