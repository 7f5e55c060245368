"""Spectral decompositions of Hermitian / symmetric dual matrices.

For M = A + eps*B, one real eigendecomposition A = Q0 D Q0^T fixes the
standard parts and B~ = (C + sign*C^T)/2 for C = Q0^T B Q0.  ``_cluster_runs``
groups near-equal values by one rule, for the eigenvalues d here and the
singular values s of the SVD: neighbours at most DEFAULT_CLUSTER_TOL*||M||
apart form one (start, stop) run.  ``resolve_clusters``, the one pass over
clusters, gives each run the mean of its values and resolves its block of
B~ by a real rotation; it returns the canonical middle factor as the
per-index arrays (sigma, sigma', size) that a result holds, and from which
its blocks (size 1 for T; 2x2 rotation and scalar blocks for star) and its
matrix are built when read.
The rest of B~ is absorbed by V = Q0 (I + eps*Omega): Omega_ab = B~_ab /
(d_b - d_a) across clusters and 0 inside one (``_divide_across``, shared with
the SVD).  Omega is skew (T) or symmetric (star), so V is an exact isometry
as eps**2 = 0.  Inputs are first scaled by a power of two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotSymmetric
from .linalg import (
    DEFAULT_CLUSTER_TOL,
    FLAVOR_STAR,
    FLAVOR_T,
    ORTHONORMAL_TOL,
    ROTATION_TOL,
    DualMatrix,
    Flavor,
    require_square,
    scale_back,
    structure_residual,
    unit_scale,
)
from .realspec import skew_block_diag, sym_eig


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


def middle_matrix(sig, sp, size) -> DualMatrix:
    """Assemble a middle factor from its per-index arrays: the diagonal
    sig + eps*sp, except that each index of size 2 starts a 2x2 block."""
    inf = np.diag(sp)
    if not size.all():  # size 0 marks the second index of a 2x2 block
        at = (size == 2).nonzero()[0]
        inf[at, at] = 0.0
        inf[at, at + 1] = -sp[at]
        inf[at + 1, at] = sp[at]
    return DualMatrix._of(np.diag(sig), inf)


class HeldMiddle:
    """The views of a result's middle factor, which it holds as per-index
    arrays ``middle`` = (sigma, sigma_prime, size), size 0 inside a 2x2 block."""

    @property
    def blocks(self) -> list:
        rows = zip(*(a.tolist() for a in self.middle))
        return [SpectralBlock(*row) for row in rows if row[2]]


@dataclass
class SpectralDecomposition(HeldMiddle):
    """M = v Sigma v*  (star flavor)  or  M = v D v^T  (T flavor)."""

    v: DualMatrix
    flavor: Flavor
    middle: tuple

    def sigma_matrix(self) -> DualMatrix:
        """Assemble the canonical middle factor."""
        return middle_matrix(*self.middle)


def eigenvalue_multiset(d: SpectralDecomposition):
    """The invariant eigenvalue multiset, as a sorted list of (sigma, signed
    sigma_prime) pairs.  A star 2x2 block contributes the conjugate pair."""
    pairs = [(b.sigma, p) for b in d.blocks for p in (b.sigma_prime, -b.sigma_prime)[: b.size]]
    return sorted(pairs)


def _cluster_runs(vals: np.ndarray, limit: float) -> list:
    """The (start, stop) runs of two or more neighbours of a descending real
    sequence that differ by at most the absolute ``limit``: its clusters."""
    v = vals.tolist()
    runs, start = [], 0
    for i in range(1, len(v) + 1):
        if i == len(v) or not v[i - 1] - v[i] <= limit:
            if i - start > 1:
                runs.append((start, i))
            start = i
    return runs


def _divide_across(x: np.ndarray, vals: np.ndarray, runs) -> np.ndarray:
    """x_ij / (v_j - v_i) across clusters; 0 on the diagonal and in runs."""
    den = vals - vals[:, None]
    den.flat[:: len(vals) + 1] = np.inf  # x / inf = 0 there and in runs
    for i, j in runs:
        den[i:j, i:j] = np.inf
    return x / den + 0.0  # x / inf is -0.0 for x < 0


def resolve_clusters(vals, runs, bt, flavor: Flavor, scale: float, *isos):
    """The one pass over clusters: it decides the canonical middle factor.

    Each run (i, j) of ``_cluster_runs`` takes the mean of vals[i:j], in
    place; a real rotation q resolves the part b = (B + sign*B^T)/2 of its
    block B = bt[i:j, i:j] (T: q^T b q diagonal; star: q^T b q in 2x2
    rotation blocks and zeros) and turns bt and the columns i:j of each
    isometry in ``isos``.  Per index of bt, returns the block parameter sp
    and size (0 inside a 2x2 block): a singleton's T parameter is its
    diagonal entry of bt, its star one 0.
    """
    star = flavor is FLAVOR_STAR
    size = np.ones(len(bt), dtype=int)
    sp = np.zeros(len(bt)) if star else bt.diagonal().copy()
    for i, j in runs:
        idx = slice(i, j)
        vals[idx] = vals[idx].sum() / (j - i)
        b = 0.5 * (bt[idx, idx] + flavor.sign * bt[idx, idx].T)
        if star:
            # Rotation parameters at or below ROTATION_TOL*||M|| collapse to
            # scalar blocks, not near-boundary 2x2 blocks.
            q, mus = skew_block_diag(b, ROTATION_TOL * scale)
            p = len(mus)
            sp[i : i + 2 * p : 2] = mus
            size[i : i + 2 * p] = [2, 0] * p
        else:
            q, sp[idx] = sym_eig(b)
        for iso in isos:
            iso[:, idx] = iso[:, idx] @ q
        bt[idx, :] = q.T @ bt[idx, :]
        bt[:, idx] = bt[:, idx] @ q
    return sp, size


def _decompose(m: DualMatrix, flavor: Flavor, error):
    require_square(m, "spectral decomposition")
    m, c, scale = unit_scale(m)
    if structure_residual(m, flavor.self_adjoint) > ORTHONORMAL_TOL * scale:
        raise error(f"matrix is not {flavor.self_adjoint} within tolerance")

    q0, d = sym_eig(0.5 * (m.std + m.std.T))
    # B~ is symmetric (T) or skew (star), so that Omega below is exactly
    # skew or symmetric.
    bt = q0.T @ m.inf @ q0
    bt = 0.5 * (bt + flavor.sign * bt.T)
    # Clusters take their mean value (D = d I on each) before Omega divides.
    runs = _cluster_runs(d, DEFAULT_CLUSTER_TOL * scale)
    sp, size = resolve_clusters(d, runs, bt, flavor, scale, q0)

    # M = V Sigma V^adj with V = Q0 (I + eps*Omega): across clusters
    # B~_ab = Omega_ab (d_b - d_a), and inside a cluster Omega_ab = 0.
    v = DualMatrix._of(q0, q0 @ _divide_across(bt, d, runs))
    return SpectralDecomposition(v, flavor, (*scale_back(c, d, sp), size))


def star_spectral(m: DualMatrix) -> SpectralDecomposition:
    """Decompose a Hermitian dual matrix as M = V Sigma V* with unitary V."""
    return _decompose(m, FLAVOR_STAR, NotHermitian)


def t_spectral(m: DualMatrix) -> SpectralDecomposition:
    """Decompose a symmetric dual matrix as M = V D V^T with T-orthogonal V."""
    return _decompose(m, FLAVOR_T, NotSymmetric)
