"""Sigma as an orbit invariant at n = 16..128: for dual isometries P and Q of
the flavor, Sigma(P M Q^adj) = Sigma(M) index by index, with the same block
sizes, and the eigenvalues of a symmetric or Hermitian M are those of
P M P^adj.  For the T flavor also Sigma(M^T) = Sigma(M), pinv(P M Q^T) =
Q pinv(M) P^T and t_polar(P M) = (P U, P_M).  No oracle is needed, so the
sizes go past the n <= 8 of the acceptance tests.

Each sigma and sigma' must agree to ``LIMIT`` = 0.01 * tol * ||M||, with tol
the default split tolerance 1e-8; the pseudoinverses to LIMIT * ||X||, P and
U P to LIMIT * ||M||, and U to LIMIT.  The worst drift seen over these draws
is about 4e-13 * ||M|| for Sigma under isometries and 1.5e-12 * ||M|| for
Sigma(M^T) (a T sigma' next to a small gap), 1.9e-13 * ||X|| for pinv and
1e-13 for polar, so the limits clear them by over 60x.  Other seeds give up
to 2e-11 * ||M|| for a sigma' whose neighbour is about 1e-6 away, and
4.5e-12 * ||X|| for pinv.
"""

import numpy as np
import pytest

from dualsvd import (
    FLAVOR_STAR,
    FLAVOR_T,
    DualMatrix,
    adjoint,
    pinv_t,
    star_spectral,
    svd,
    t_polar,
    t_spectral,
)
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


@pytest.mark.parametrize("regime", REGIMES)
def test_t_svd_sigma_of_the_transpose(rng, regime):
    # M^T = V Sigma U^T, as a T middle factor is diagonal.
    for n in SIZES:
        for _ in range(DRAWS):
            m = draw(rng, n, regime)
            assert_same_middle(svd(m.T, FLAVOR_T).middle, svd(m, FLAVOR_T).middle, m)


@pytest.mark.parametrize("regime", REGIMES)
def test_pinv_is_equivariant(rng, regime):
    # pinv(P M Q^T) = Q pinv(M) P^T, with the same existence answer.
    for n in SIZES:
        for _ in range(DRAWS):
            m = draw(rng, n, regime)
            p, q = random_isometry(rng, n, FLAVOR_T), random_isometry(rng, n, FLAVOR_T)
            x, moved = pinv_t(m), pinv_t(p @ m @ q.T)
            assert (moved is None) == (x is None)
            if x is not None:
                assert (moved - q @ x @ p.T).norm() <= LIMIT * x.norm()


@pytest.mark.parametrize("regime", REGIMES)
def test_polar_is_equivariant(rng, regime):
    # t_polar(P M) = (P U, P_M).  Below full rank U is free on the null
    # space, so only U P is compared there.
    for n in SIZES:
        for _ in range(DRAWS):
            m = draw(rng, n, regime)
            p = random_isometry(rng, n, FLAVOR_T)
            pr, moved = t_polar(m), t_polar(p @ m)
            assert (moved.p - pr.p).norm() <= LIMIT * m.norm()
            assert (moved.u @ moved.p - p @ pr.u @ pr.p).norm() <= LIMIT * m.norm()
            if regime == "generic":
                assert (moved.u - p @ pr.u).norm() <= LIMIT
