"""Spectral decompositions of Hermitian / symmetric dual matrices.

For M = A + eps*B, one real eigendecomposition A = Q0 D Q0^T fixes the
standard parts and B~ = Q0^T B Q0.  ``_cluster_runs`` groups near-equal
values by one rule, for the eigenvalues d here and the singular values s of
the SVD: neighbours at most cluster_tol*||M|| apart form one (start, stop)
run.  ``resolve_clusters``, the one pass over clusters, gives each run the
mean of its values and resolves its block of B~ by a real rotation; it
returns the canonical middle factor as the per-index arrays (sigma, sigma',
size) that a result holds, and from which its blocks (size 1 for T; 2x2
rotation and scalar blocks for star) and its matrix are built when read.
The rest of B~ is absorbed by V = Q0 (I + eps*Omega), Omega_ab = B~_ab /
(d_b - d_a) across clusters, by one division with 1 in the denominator
inside clusters; Omega is skew (T) or symmetric (star), so V is an exact
isometry as eps**2 = 0.  Inputs are first scaled by a power of two.
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


def block_matrix(blocks) -> DualMatrix:
    """Assemble the block-diagonal matrix of a list of blocks, by index."""
    rows = [((b.sigma, b.sigma_prime, b.size), (b.sigma, 0.0, 0))[: b.size] for b in blocks]
    per = np.array([r for pair in rows for r in pair], dtype=float).reshape(-1, 3)
    return middle_matrix(*per.T)


class HeldMiddle:
    """The views of a result's middle factor, which it holds as per-index
    arrays ``middle`` = (sigma, sigma_prime, size), size 0 inside a 2x2 block."""

    @property
    def blocks(self) -> list:
        rows = zip(*(a.tolist() for a in self.middle))
        return [SpectralBlock(*row) for row in rows if row[2]]

    @property
    def diag(self) -> list | None:
        """A T middle factor's diagonal as Dual entries; None for star."""
        if self.flavor != FLAVOR_T:
            return None
        return [Dual(*d) for d in zip(self.middle[0].tolist(), self.middle[1].tolist())]


@dataclass
class SpectralDecomposition(HeldMiddle):
    """M = v Sigma v*  (star flavor)  or  M = v D v^T  (T flavor)."""

    v: DualMatrix
    flavor: str
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
    close = vals[:-1] - vals[1:] <= limit
    if not close.any():
        return []
    edges = np.flatnonzero(np.diff(np.concatenate(([0], close, [0])))).tolist()
    return [(i, j + 1) for i, j in zip(edges[::2], edges[1::2])]


def _fill_clusters(a: np.ndarray, runs, value: float):
    """Write ``value`` on the diagonal of ``a`` and over each run's block."""
    a.flat[:: a.shape[0] + 1] = value
    for i, j in runs:
        a[i:j, i:j] = value


def resolve_clusters(vals, runs, bt, flavor: str, scale: float, *isos):
    """The one pass over clusters: it decides the canonical middle factor.

    Each run (i, j) of ``_cluster_runs`` takes the mean of vals[i:j], in
    place; a real rotation q resolves its block b = bt[i:j, i:j] (T: q^T sym(b)
    q diagonal; star: q^T skew(b) q in 2x2 rotation blocks and zeros) and turns
    bt and the columns i:j of each isometry in ``isos``.  Per index of bt,
    returns the block parameter sp and size (0 inside a 2x2 block): a
    singleton's T parameter is its diagonal entry of bt, its star one 0.
    """
    star = flavor == FLAVOR_STAR
    size = np.ones(len(bt), dtype=int)
    sp = np.zeros(len(bt)) if star else bt.diagonal().copy()
    for i, j in runs:
        idx = slice(i, j)
        vals[idx] = vals[idx].mean()
        b = bt[idx, idx]
        if star:
            b = 0.5 * (b - b.T)
            # Rotation parameters below 1e-9 of the matrix scale collapse to
            # scalar blocks, not near-boundary 2x2 blocks: skew_block_diag's
            # cutoff is tol*max|b| (the bound keeps a zero block's tol finite).
            mu_floor = 1e-9 * scale / max(float(np.abs(b).max()), 1e-300)
            sb = skew_block_diag(b, tol=mu_floor, check=False)
            q, p = sb.q, len(sb.mus)
            sp[i : i + 2 * p : 2] = sb.mus
            size[i : i + 2 * p] = [2, 0] * p
        else:
            es = sym_eig(0.5 * (b + b.T), check=False)
            q, sp[idx] = es.q, es.eigenvalues
        for iso in isos:
            iso[:, idx] = iso[:, idx] @ q
        bt[idx, :] = q.T @ bt[idx, :]
        bt[:, idx] = bt[:, idx] @ q
    return sp, size


def _decompose(m: DualMatrix, flavor: str, tol: float, cluster_tol: float):
    require_square(m, "spectral decomposition")
    m, c, scale = unit_scale(m)
    if structure_residual(m, SELF_ADJOINT[flavor]) > tol * scale:
        error = NotHermitian if flavor == FLAVOR_STAR else NotSymmetric
        raise error(f"matrix is not {SELF_ADJOINT[flavor]} within tolerance")

    spec = sym_eig(0.5 * (m.std + m.std.T), check=False)
    q0, d = spec.q, spec.eigenvalues
    # B~ is symmetric (T) or skew (star), so that Omega below is exactly
    # skew or symmetric.
    bt = q0.T @ m.inf @ q0
    bt = 0.5 * (bt + bt.T if flavor == FLAVOR_T else bt - bt.T)
    # Clusters take their mean value (D = d I on each) before Omega divides.
    runs = _cluster_runs(d, cluster_tol * scale)
    sp, size = resolve_clusters(d, runs, bt, flavor, scale, q0)

    # M = V Sigma V^adj with V = Q0 (I + eps*Omega): across clusters
    # B~_ab = Omega_ab (d_b - d_a), and inside a cluster Omega_ab = 0.
    den = d - d[:, None]
    _fill_clusters(den, runs, 1.0)
    omega = bt / den
    _fill_clusters(omega, runs, 0.0)
    return SpectralDecomposition(DualMatrix._of(q0, q0 @ omega), flavor, (c * d, c * sp, size))


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
