"""Shared random generators for the test suite.

All randomness is seeded per test so failures reproduce exactly.
"""

import numpy as np
import pytest

from dualsvd import DualMatrix, FLAVOR_T


def random_dual_matrix(rng, n, regime="generic"):
    """Draw a square dual matrix from one of the four sampling regimes."""
    std = rng.standard_normal((n, n))
    inf = rng.standard_normal((n, n))
    if regime == "generic":
        return DualMatrix(std, inf)
    if regime == "rankdef":
        # Force a rank-deficient standard part via a low-rank product.
        r = rng.integers(0, n) if n > 1 else 0
        left = rng.standard_normal((n, r)) if r else np.zeros((n, 0))
        right = rng.standard_normal((r, n)) if r else np.zeros((0, n))
        return DualMatrix(left @ right, inf)
    if regime == "pure_inf":
        return DualMatrix(np.zeros((n, n)), inf)
    if regime == "zero_lines":
        m = DualMatrix(std.copy(), inf.copy())
        k = rng.integers(0, n + 1)
        rows = rng.choice(n, size=k, replace=False)
        for i in rows:
            if rng.random() < 0.5:
                m.std[i, :] = 0.0
                m.inf[i, :] = 0.0
            else:
                m.std[:, i] = 0.0
                m.inf[:, i] = 0.0
        return m
    raise ValueError(regime)


def random_symmetric(rng, n):
    std = rng.standard_normal((n, n))
    inf = rng.standard_normal((n, n))
    return DualMatrix(std + std.T, inf + inf.T)


def random_hermitian(rng, n):
    std = rng.standard_normal((n, n))
    inf = rng.standard_normal((n, n))
    return DualMatrix(std + std.T, inf - inf.T)


def random_degenerate_hermitian(rng, n):
    """Hermitian matrix whose standard part has a repeated eigenvalue, so the
    star decomposition must produce a genuine 2x2 rotation block."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.sort(rng.standard_normal(n))[::-1]
    if n >= 2:
        lam[1] = lam[0]
    inf = rng.standard_normal((n, n))
    return DualMatrix(q @ np.diag(lam) @ q.T, inf - inf.T)


def random_degenerate_symmetric(rng, n):
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.sort(rng.standard_normal(n))[::-1]
    if n >= 2:
        lam[1] = lam[0]
    inf = rng.standard_normal((n, n))
    return DualMatrix(q @ np.diag(lam) @ q.T, inf + inf.T)


def random_isometry(rng, n, flavor):
    """An exact isometry Q (I + eps C): Q real orthogonal, and C skew for the
    T form or symmetric for the star form, so the defect is exactly zero."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c = rng.standard_normal((n, n))
    c = (c - c.T) if flavor == FLAVOR_T else (c + c.T)
    return DualMatrix(q) @ DualMatrix(np.eye(n), c)


def random_vectors(rng, n, k):
    """k random dual vectors in D^n, as the columns of an n x k matrix; each
    vector draws its standard part, then its infinitesimal part."""
    parts = rng.standard_normal((k, 2, n))
    return DualMatrix(parts[:, 0].T, parts[:, 1].T)


def block_matrix_loop(blocks) -> DualMatrix:
    """The middle factor of a block list, entry by entry: the reference
    that the library's array assembly is compared against."""
    n = sum(b.size for b in blocks)
    out = DualMatrix.zeros(n, n)
    p = 0
    for b in blocks:
        out.std[p, p] = out.std[p + b.size - 1, p + b.size - 1] = b.sigma
        if b.size == 1:
            out.inf[p, p] = b.sigma_prime
        else:
            out.inf[p, p + 1] = -b.sigma_prime
            out.inf[p + 1, p] = b.sigma_prime
        p += b.size
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
