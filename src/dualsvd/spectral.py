"""Spectral decompositions of Hermitian / symmetric dual matrices.

For M = A + eps*B, one real eigendecomposition A = Q0 D Q0^T fixes the
standard parts and B~ = Q0^T B Q0.  ``_clusters`` groups near-equal values by
one rule, for the eigenvalues d here and the singular values s of the SVD:
neighbours at most cluster_tol*||M|| apart are one cluster.
``resolve_clusters`` is the one pass over clusters: a cluster of two or more
takes the mean of its values and has its block of B~ resolved by a real
rotation, and every cluster yields its blocks of the canonical middle factor
(size 1 for T; 2x2 rotation blocks and scalar blocks for star).  The rest of
B~ is absorbed by V = Q0 (I + eps*Omega) with Omega_ab = B~_ab / (d_b - d_a)
across clusters; Omega is skew (T) or symmetric (star), so V is an exact
isometry because eps**2 = 0.  Inputs are first scaled by a power of two to
unit norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import Dual
from .errors import NotHermitian, NotSymmetric
from .linalg import (
    FLAVOR_STAR,
    FLAVOR_T,
    SELF_ADJOINT,
    DualMatrix,
    require_square,
    structure_residual,
    unit_scale,
)
from .realspec import skew_block_diag, sym_eig

DEFAULT_CLUSTER_TOL = 1e-8


@dataclass
class SpectralBlock:
    """One diagonal block of a middle factor (spectral or SVD, both flavors).

    size 1: the scalar block sigma + eps*sigma_prime, the only size in a T
    middle factor; sigma_prime is 0 in a star spectral Sigma.
    size 2: the star rotation-like block
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


def dual_diagonal(flavor: str, blocks) -> list | None:
    """A T middle factor's diagonal as Dual entries; None for star."""
    return [Dual(b.sigma, b.sigma_prime) for b in blocks] if flavor == FLAVOR_T else None


@dataclass
class SpectralDecomposition:
    """M = v Sigma v*  (star flavor)  or  M = v D v^T  (T flavor)."""

    v: DualMatrix
    flavor: str
    blocks: list

    @property
    def diag(self) -> list | None:
        return dual_diagonal(self.flavor, self.blocks)

    def sigma_matrix(self) -> DualMatrix:
        """Assemble the canonical middle factor."""
        return block_matrix(self.blocks)


def eigenvalue_multiset(d: SpectralDecomposition):
    """The invariant eigenvalue multiset, as a sorted list of (sigma, signed
    sigma_prime) pairs.  A star 2x2 block contributes the conjugate pair."""
    pairs = []
    for b in d.blocks:
        pairs.append((b.sigma, b.sigma_prime))
        if b.size == 2:
            pairs.append((b.sigma, -b.sigma_prime))
    return sorted(pairs)


def _clusters(vals: np.ndarray, limit: float) -> np.ndarray:
    """Label each index of a descending real sequence with its cluster: a run
    of neighbours that differ by at most the absolute ``limit``."""
    gid = np.zeros(len(vals), dtype=int)
    np.add.accumulate(~(np.abs(vals[1:] - vals[:-1]) <= limit), out=gid[1:], dtype=int)
    return gid


def resolve_clusters(vals, gid, bt, flavor: str, scale: float, c: float, *isos) -> list:
    """The one pass over clusters: it decides the canonical middle factor.

    A cluster (one label in ``gid``) of two or more values takes their mean,
    in place in ``vals``; a real rotation q resolves its block b = bt[idx, idx]
    (T: q^T sym(b) q diagonal; star: q^T skew(b) q in 2x2 rotation blocks and
    zeros) and turns bt and the columns ``idx`` of each isometry in ``isos``.
    A singleton's T value is its diagonal entry of bt.  Returns the blocks,
    scaled by c.
    """
    star = flavor == FLAVOR_STAR
    # Per index: size (0 inside a 2x2 block) and parameter of the block there.
    size = [1] * len(vals)
    sp = np.zeros(len(vals)) if star else bt.diagonal()[: len(vals)].copy()
    edges = [0, *((gid[1:] != gid[:-1]).nonzero()[0] + 1).tolist(), len(vals)]
    for i, j in zip(edges, edges[1:]):
        if j - i < 2:
            continue
        idx = slice(i, j)
        vals[idx] = vals[idx].mean()
        b = bt[idx, idx]
        if star:
            b = 0.5 * (b - b.T)
            # Rotation parameters below 1e-9 of the matrix scale collapse to
            # scalar blocks, not near-boundary 2x2 blocks: skew_block_diag's
            # cutoff is tol*max|b| (the bound keeps a zero block's tol finite).
            mu_floor = 1e-9 * scale / max(float(np.abs(b).max()), 1e-300)
            sb = skew_block_diag(b, tol=mu_floor)
            q, p = sb.q, len(sb.mus)
            sp[i : i + 2 * p : 2] = sb.mus
            size[i : i + 2 * p] = [2, 0] * p
        else:
            es = sym_eig(0.5 * (b + b.T))
            q, sp[idx] = es.q, es.eigenvalues
        for iso in isos:
            iso[:, idx] = iso[:, idx] @ q
        bt[idx, :] = q.T @ bt[idx, :]
        bt[:, idx] = bt[:, idx] @ q
    blocks = zip((c * vals).tolist(), (c * sp).tolist(), size)
    return [SpectralBlock(*blk) for blk in blocks if blk[2]]


def _decompose(m: DualMatrix, flavor: str, tol: float, cluster_tol: float):
    require_square(m, "spectral decomposition")
    m, c, scale = unit_scale(m)
    n = m.shape[0]
    if structure_residual(m, SELF_ADJOINT[flavor]) > tol * scale:
        error = NotHermitian if flavor == FLAVOR_STAR else NotSymmetric
        raise error(f"matrix is not {SELF_ADJOINT[flavor]} within tolerance")

    spec = sym_eig(0.5 * (m.std + m.std.T))
    q0, d = spec.q, spec.eigenvalues
    # B~ is symmetric (T) or skew (star), so that Omega below is exactly
    # skew or symmetric.
    bt = q0.T @ m.inf @ q0
    bt = 0.5 * (bt + bt.T if flavor == FLAVOR_T else bt - bt.T)
    # Clusters take their mean value (D = d I on each) before Omega divides.
    gid = _clusters(d, cluster_tol * scale)
    blocks = resolve_clusters(d, gid, bt, flavor, scale, c, q0)

    # M = V Sigma V^adj with V = Q0 (I + eps*Omega): across clusters
    # B~_ab = Omega_ab (d_b - d_a).
    omega = np.zeros((n, n))
    np.divide(bt, np.subtract.outer(d, d).T, out=omega, where=gid[:, None] != gid[None, :])
    return SpectralDecomposition(DualMatrix._of(q0, q0 @ omega), flavor, blocks)


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
