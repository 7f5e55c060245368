"""Conjugation equivariance: dual isometries P and Q change the factors of a
decomposition but not its invariants.

The SVD's (sigma, |sigma'|, block size) multiset is the same for M and for
P M Q^adj, and the eigenvalue multiset of a symmetric or Hermitian M is the
same for M and for P M P^adj.
"""

import numpy as np
import pytest

from dualsvd import adjoint, eigenvalue_multiset, svd
from conftest import FLAVORS, REGIMES, SPECTRAL, random_dual_matrix, random_isometry


def svd_invariants(m, flavor):
    """The SVD's block sizes and its sorted (sigma, |sigma'|) pairs."""
    blocks = sorted((b.size, b.sigma, abs(b.sigma_prime)) for b in svd(m, flavor).blocks)
    return [b[0] for b in blocks], [b[1:] for b in blocks]


def assert_pairs_close(got, want, limit):
    assert len(got) == len(want)
    assert np.abs(np.subtract(got, want)).max(initial=0.0) <= limit


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("regime", REGIMES)
def test_svd_invariants_under_conjugation(rng, flavor, regime):
    for n in range(2, 9):
        for _ in range(3):
            m = random_dual_matrix(rng, n, regime)
            p = random_isometry(rng, n, flavor)
            q = random_isometry(rng, n, flavor)
            sizes, pairs = svd_invariants(p @ m @ adjoint(q, flavor), flavor)
            want_sizes, want_pairs = svd_invariants(m, flavor)
            assert sizes == want_sizes
            assert_pairs_close(pairs, want_pairs, 1e-10 * m.norm())


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("regime", REGIMES)
def test_eigenvalue_multiset_under_conjugation(rng, flavor, regime):
    decompose = SPECTRAL[flavor]
    for n in range(2, 9):
        for _ in range(3):
            a = random_dual_matrix(rng, n, regime)
            m = a + adjoint(a, flavor)
            p = random_isometry(rng, n, flavor)
            moved = p @ m @ adjoint(p, flavor)
            assert_pairs_close(
                eigenvalue_multiset(decompose(moved)),
                eigenvalue_multiset(decompose(m)),
                1e-10 * m.norm(),
            )
