"""Real spectral backends: symmetric eigendecomposition and skew-symmetric
block-diagonalization, both by orthogonal transforms from LAPACK ``eigh``.

The skew solver diagonalizes the Hermitian matrix iA: an eigenvector
z = v + i w with eigenvalue mu > 0 has A v = mu w and A w = -mu v, so the
real pair (v, w) spans a 2x2 rotation block, with no squaring into -A^2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotSkewSymmetric, NotSymmetric


@dataclass
class RealSpectral:
    """A = q diag(eigenvalues) q^T with orthogonal q, eigenvalues descending."""

    q: np.ndarray
    eigenvalues: np.ndarray


@dataclass
class SkewBlockForm:
    """A = q S q^T where S is block-diagonal with 2x2 blocks [[0,-mu],[mu,0]]
    (mu > 0, descending) followed by ``zero_count`` scalar zero blocks."""

    q: np.ndarray
    mus: list = field(default_factory=list)
    zero_count: int = 0

    def assemble(self) -> np.ndarray:
        n = 2 * len(self.mus) + self.zero_count
        s = np.zeros((n, n))
        for i, mu in enumerate(self.mus):
            p = 2 * i
            s[p, p + 1] = -mu
            s[p + 1, p] = mu
        return s


def _maxabs(a: np.ndarray) -> float:
    return float(np.abs(a).max()) if a.size else 0.0


def _first_sizeable(q: np.ndarray) -> np.ndarray:
    """Each column's first component of meaningful size."""
    if not q.size:
        return np.zeros(q.shape[1], q.dtype)
    cols = np.arange(q.shape[1])
    return q[np.argmax(np.abs(q) > 1e-12, axis=0), cols]


def _positive_signs(q: np.ndarray) -> np.ndarray:
    """Deterministic sign: first component of meaningful size is positive."""
    return q * np.where(_first_sizeable(q) < 0, -1.0, 1.0)


def signed_qr(a: np.ndarray, mode: str = "reduced"):
    """a = q r with diag(r) >= 0, for an n x k matrix a.  In complete mode,
    q's columns past the k-th (a basis of the complement of a's column
    space) are signed by ``_positive_signs``, so the completion is canonical."""
    q, r = np.linalg.qr(a, mode=mode)
    k = a.shape[1]
    signs = np.where(np.diag(r) < 0, -1.0, 1.0)
    q[:, :k] *= signs
    r[:k] *= signs[:, None]
    q[:, k:] = _positive_signs(q[:, k:])
    return q, r


def sym_eig(a, tol: float = 1e-9, check: bool = True) -> RealSpectral:
    """Orthogonally diagonalize a real symmetric matrix.  NotSymmetric if
    max|a - a^T| exceeds ``tol`` times max|a|.  ``check=False`` takes a float
    array that is symmetric by construction as it is."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    if a.shape[0] != a.shape[1]:
        raise NotSymmetric(f"matrix is not square: {a.shape}")
    if check and not _maxabs(a - a.T) <= tol * _maxabs(a) < math.inf:  # NaN, inf fail
        raise NotSymmetric("matrix is not symmetric within tolerance")
    eigenvalues, q = np.linalg.eigh(0.5 * (a + a.T) if check else a)
    order = np.argsort(-eigenvalues, kind="stable")
    return RealSpectral(_positive_signs(q[:, order]), eigenvalues[order])


def skew_block_diag(a, tol: float = 1e-9, check: bool = True) -> SkewBlockForm:
    """Orthogonally block-diagonalize a real skew-symmetric matrix.  Above
    ``tol`` times max|a|, max|a + a^T| raises NotSkewSymmetric; at or below it, mu is zero.
    ``check=False`` takes a float array that is skew by construction as it is."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise NotSkewSymmetric(f"matrix is not square: {a.shape}")
    limit = tol * _maxabs(a)
    if check and not _maxabs(a + a.T) <= limit < math.inf:  # NaN, inf fail
        raise NotSkewSymmetric("matrix is not skew-symmetric within tolerance")

    mus, z = np.linalg.eigh(1j * (0.5 * (a - a.T) if check else a))
    # The eigenvalues come in pairs +-mu; keep the positive ones, descending.
    p = min(int(np.count_nonzero(mus > limit)), n // 2)
    mus, z = mus[::-1][:p], z[:, ::-1][:, :p]
    # Turn each z so that its first sizeable component is real and positive.
    lead = _first_sizeable(z)
    z = z * (np.abs(lead) / lead)
    pairs = np.stack([z.real, z.imag], axis=2).reshape(n, 2 * p)
    # One QR makes the pairs exactly orthonormal (they are so to ~eps/mu)
    # and completes them with a basis of the kernel.
    q = signed_qr(pairs, mode="complete")[0]
    return SkewBlockForm(q, [float(mu) for mu in mus], n - 2 * p)
