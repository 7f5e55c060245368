"""Real spectral backends: symmetric eigendecomposition and skew-symmetric
block-diagonalization, both by orthogonal transforms from LAPACK ``eigh``.

Both take a square float ndarray that is symmetric or skew as built, as it
is: nothing is checked or symmetrized.  The skew solver diagonalizes the
Hermitian matrix iA: an eigenvector z = v + i w with eigenvalue mu > 0 has
A v = mu w and A w = -mu v, so the real pair (v, w) spans a 2x2 rotation
block, with no squaring into -A^2.
"""

from __future__ import annotations

import numpy as np


def _first_sizeable(q: np.ndarray) -> np.ndarray:
    """Each column's first component of meaningful size."""
    if not q.size:
        return np.zeros(q.shape[1], q.dtype)
    return q[(np.abs(q) > 1e-12).argmax(0), np.arange(q.shape[1])]


def _positive_signs(q: np.ndarray) -> np.ndarray:
    """Deterministic sign: first component of meaningful size is positive."""
    return q * np.where(_first_sizeable(q) < 0, -1.0, 1.0)


def signed_qr(a: np.ndarray, mode: str = "reduced"):
    """a = q r with diag(r) >= 0, for an n x k matrix a.  In complete mode,
    q's columns past the k-th (a basis of the complement of a's column
    space) are signed by ``_positive_signs``, so the completion is canonical."""
    q, r = np.linalg.qr(a, mode=mode)
    k = a.shape[1]
    signs = np.where(r.diagonal() < 0, -1.0, 1.0)
    q[:, :k] *= signs
    r[:k] *= signs[:, None]
    q[:, k:] = _positive_signs(q[:, k:])
    return q, r


def sym_eig(a: np.ndarray) -> tuple:
    """(q, d): a = q diag(d) q^T with orthogonal q and d descending, ties in
    ``eigh``'s order."""
    d, q = np.linalg.eigh(a)
    order = np.argsort(-d, kind="stable")
    return _positive_signs(q[:, order]), d[order]


def skew_block_diag(a: np.ndarray, cutoff: float) -> tuple:
    """(q, mus): a = q S q^T with orthogonal q, where S holds a 2x2 block
    [[0, -mu], [mu, 0]] for each mu above the absolute ``cutoff``, descending,
    and zeros after them."""
    n = len(a)
    mus, z = np.linalg.eigh(1j * a)
    # The eigenvalues come in pairs +-mu; keep the positive ones, descending.
    p = min(int(np.count_nonzero(mus > cutoff)), n // 2)
    mus, z = mus[::-1][:p], z[:, ::-1][:, :p]
    # Turn each z so that its first sizeable component is real and positive;
    # the product is C-contiguous, so its float view interleaves (Re z, Im z).
    lead = _first_sizeable(z)
    pairs = (z * (np.abs(lead) / lead)).view(float)
    # One QR makes the pairs exactly orthonormal (they are so to ~eps/mu)
    # and completes them with a basis of the kernel.
    q = signed_qr(pairs, mode="complete")[0]
    return q, mus
