"""Spectral decompositions of Hermitian and symmetric dual matrices."""

import itertools

import numpy as np
import pytest

from dualsvd import (
    FLAVOR_STAR,
    FLAVOR_T,
    DualMatrix,
    NotHermitian,
    NotSymmetric,
    adjoint,
    eigenvalue_multiset,
    star_spectral,
    t_spectral,
)
from dualsvd.realspec import sym_eig
from dualsvd.spectral import DEFAULT_CLUSTER_TOL, _cluster_runs, middle_matrix
from conftest import (
    BACKEND_SCALES,
    SPECTRAL,
    assert_invariants,
    block_matrix_loop,
    check_result,
    cluster_runs_vectorized,
    middle_pairs,
    random_degenerate_self_adjoint,
    random_isometry,
    random_self_adjoint,
)


class TestStarSpectral:
    def test_canonical_infinitesimal_rotation(self):
        m = DualMatrix(np.zeros((2, 2)), [[0, -1], [1, 0]])
        dec = star_spectral(m)
        assert (dec.v - DualMatrix(np.eye(2))).norm() < 1e-12
        assert len(dec.blocks) == 1
        b = dec.blocks[0]
        assert (b.size, b.sigma, b.sigma_prime) == (2, 0.0, 1.0)

    @pytest.mark.parametrize("mu", [0.0, 1e-320, 1e-12, 1e-10, 1e-8])
    def test_rotation_cutoff_is_absolute_in_a_cluster(self, mu):
        # A cluster's rotation parameter counts iff it exceeds 1e-9 of the
        # matrix scale, however small the cluster's block of B~ is (zero or
        # subnormal included).
        m = DualMatrix(np.eye(2), [[0.0, -mu], [mu, 0.0]])
        sizes = [b.size for b in star_spectral(m).blocks]
        assert sizes == ([2] if mu > 1e-9 else [1, 1])

    def test_real_diagonal(self):
        dec = star_spectral(DualMatrix(np.diag([2.0, 1.0])))
        assert (dec.v - DualMatrix(np.eye(2))).norm() < 1e-12
        assert [(b.sigma, b.size) for b in dec.blocks] == [(2.0, 1), (1.0, 1)]

    def test_distinct_eigenvalues_scalar_blocks(self):
        m = DualMatrix([[1, 0], [0, 2]], [[0, 1], [-1, 0]])
        dec = star_spectral(m)
        assert [b.size for b in dec.blocks] == [1, 1]
        assert sorted(b.sigma for b in dec.blocks) == [1.0, 2.0]
        check_result(m, dec, 1e-4)

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            star_spectral(DualMatrix([[0, 1], [0, 0]]))

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_random_hermitian(self, rng, n):
        for _ in range(10):
            m = random_self_adjoint(rng, n, FLAVOR_STAR)
            check_result(m, star_spectral(m))

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_degenerate_std_produces_rotation_blocks(self, rng, n):
        hit = False
        for _ in range(10):
            m = random_degenerate_self_adjoint(rng, n, FLAVOR_STAR)
            dec = star_spectral(m)
            check_result(m, dec)
            for b in dec.blocks:
                if b.size == 2:
                    hit = True
                    assert abs(b.sigma_prime) > 1e-8 * max(1.0, m.norm())
        assert hit

    def test_pure_infinitesimal(self, rng):
        inf = rng.standard_normal((5, 5))
        m = DualMatrix(np.zeros((5, 5)), inf - inf.T)
        check_result(m, star_spectral(m))


class TestTSpectral:
    def test_one_by_one(self):
        dec = t_spectral(DualMatrix([[0.0]], [[1.0]]))
        assert middle_pairs(dec) == [(0.0, 1.0)]

    def test_infinitesimal_swap(self):
        m = DualMatrix(np.zeros((2, 2)), [[0, 1], [1, 0]])
        dec = t_spectral(m)
        # One cluster at 0 with inner block [[0,1],[1,0]]: eigenvalues +-1.
        got = sorted(middle_pairs(dec))
        assert np.allclose(got, [(0, -1), (0, 1)], atol=1e-12)
        check_result(m, dec, 1e-4)

    def test_already_diagonal(self):
        m = DualMatrix(np.diag([1.0, 1.0]), np.diag([2.0, -1.0]))
        dec = t_spectral(m)
        assert sorted(middle_pairs(dec)) == [(1, -1), (1, 2)]
        check_result(m, dec, 1e-4)

    def test_rejects_asymmetric(self):
        # An asymmetric B at any scale: the limit is relative to ||M||.
        for c in BACKEND_SCALES:
            with pytest.raises(NotSymmetric):
                t_spectral(DualMatrix(np.zeros((2, 2)), c * np.array([[0.0, 1.0], [0.0, 0.0]])))

    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_random_symmetric(self, rng, n):
        for _ in range(10):
            m = random_self_adjoint(rng, n, FLAVOR_T)
            check_result(m, t_spectral(m))

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_degenerate_std(self, rng, n):
        for _ in range(10):
            m = random_degenerate_self_adjoint(rng, n, FLAVOR_T)
            check_result(m, t_spectral(m))

    def test_classical_limit_matches_sym_eig(self, rng):
        a = rng.standard_normal((6, 6))
        a = a + a.T
        dec = t_spectral(DualMatrix(a))
        want = sym_eig(a)[1]
        got = np.sort(dec.middle[0])[::-1]
        assert np.allclose(got, want, atol=1e-9)
        assert np.abs(dec.middle[1]).max() < 1e-9


@pytest.mark.parametrize("decomp", [t_spectral, star_spectral])
def test_empty_matrix(decomp):
    dec = decomp(DualMatrix(np.zeros((0, 0))))
    assert dec.v.shape == (0, 0) and dec.blocks == []


@pytest.mark.parametrize("spread", [0.9e-8, 1.1e-8])
@pytest.mark.parametrize("flavor", [FLAVOR_T, FLAVOR_STAR])
def test_near_boundary_cluster_reconstructs(flavor, spread):
    # A pair `spread` apart (one cluster at or below
    # DEFAULT_CLUSTER_TOL*||M||, two above it; ||M|| = 1 + spread here) next
    # to a gap of 0.1, coupled to the far value by B.
    b = np.zeros((3, 3))
    b[0, 2] = b[1, 2] = 1.0
    b = b + b.T if flavor == FLAVOR_T else b - b.T
    m = DualMatrix(np.diag([1.0 + spread, 1.0, 0.9]), b)
    dec = SPECTRAL[flavor](m)
    assert_invariants(m, dec, 1.0)


@pytest.mark.parametrize("flavor", [FLAVOR_T, FLAVOR_STAR])
def test_inf_dominated_pair_is_one_cluster(rng, flavor):
    # Eigenvalues 1e-3*(1.5, 1.2, 1 + 1e-5, 1, 0.8) under a B with ||B|| = 1.9:
    # the pair's gap, 1e-8, is below DEFAULT_CLUSTER_TOL*||M||, so the pair
    # is one cluster and Omega stays bounded, however small the values are.
    d = 1e-3 * np.array([1.5, 1.2, 1.0 + 1e-5, 1.0, 0.8])
    for _ in range(10):
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        b = rng.standard_normal((5, 5))
        b = b + b.T if flavor == FLAVOR_T else b - b.T
        m = DualMatrix(q @ np.diag(d) @ q.T, 1.9 * b / np.abs(b).max())
        dec = SPECTRAL[flavor](m)
        assert_invariants(m, dec, 1.0)


class TestEigenvalueMultiset:
    def test_t_readoff(self):
        dec = t_spectral(DualMatrix(np.zeros((2, 2)), [[0, 1], [1, 0]]))
        got = eigenvalue_multiset(dec)
        assert np.allclose(got, [(0.0, -1.0), (0.0, 1.0)], atol=1e-12)

    def test_star_rotation_block_conjugate_pair(self):
        dec = star_spectral(DualMatrix(np.zeros((2, 2)), [[0, -1], [1, 0]]))
        assert eigenvalue_multiset(dec) == [(0.0, -1.0), (0.0, 1.0)]

    def test_star_scalar_blocks(self):
        dec = star_spectral(DualMatrix(np.diag([2.0, 1.0])))
        assert eigenvalue_multiset(dec) == [(1.0, 0.0), (2.0, 0.0)]

    @pytest.mark.parametrize("flavor", [FLAVOR_T, FLAVOR_STAR])
    def test_invariant_under_isometry_conjugation(self, rng, flavor):
        for n in (2, 3, 5):
            m = random_self_adjoint(rng, n, flavor)
            decomp = SPECTRAL[flavor]
            q = random_isometry(rng, n, flavor)
            conj = q @ m @ adjoint(q, flavor)
            a = eigenvalue_multiset(decomp(m))
            b = eigenvalue_multiset(decomp(conj))
            for (s1, p1), (s2, p2) in zip(a, b):
                assert abs(s1 - s2) < 1e-8 and abs(p1 - p2) < 1e-8


def every_cluster_kind(rng, n, flavor, exact):
    """Eigenvalues with a 2-value and a 3-value cluster, singletons and a
    zero cluster of two.  ``exact``: Q is a signed permutation, whose
    repeated eigenvalues LAPACK returns exactly, so that each cluster is a
    run of exact ties; otherwise Q is a random orthogonal matrix, whose
    rounding spreads them."""
    d = np.concatenate([[4.0], [3.0] * 2, [2.0] * 3, np.linspace(1.5, 0.5, n - 8), [0.0] * 2])
    if exact:
        q = np.eye(n)[rng.permutation(n)] * rng.choice([-1.0, 1.0], n)
    else:
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = rng.standard_normal((n, n))
    return DualMatrix(q @ np.diag(d) @ q.T, b + b.T if flavor == FLAVOR_T else b - b.T)


@pytest.mark.parametrize("flavor", [FLAVOR_T, FLAVOR_STAR])
@pytest.mark.parametrize("n", [8, 10, 12])
# Each id names the cluster limit that the case runs at.
@pytest.mark.parametrize("exact", [True, False], ids=lambda e: f"{e}-{DEFAULT_CLUSTER_TOL}")
def test_every_corrector_write(rng, flavor, n, exact):
    # One input reaches every write of the corrector: the division across
    # clusters and the blocks of a 2-, a 3-value and a zero cluster.
    m = every_cluster_kind(rng, n, flavor, exact)
    if flavor == FLAVOR_T:
        dec = t_spectral(m)
        check_result(m, dec)
        sigmas = [b.sigma for b in dec.blocks]
        assert sigmas[1] == sigmas[2] and sigmas[3] == sigmas[4] == sigmas[5]
        assert sigmas[-2] == sigmas[-1]
    else:
        dec = star_spectral(m)
        check_result(m, dec)
        # A generic B~ gives each cluster one rotation block.
        sizes = [b.size for b in dec.blocks]
        assert sizes[:4] == [1, 2, 2, 1] and sizes[-1] == 2
    want = dec.sigma_matrix()
    sigma = block_matrix_loop(dec.blocks)
    assert np.array_equal(sigma.std, want.std)
    assert np.array_equal(sigma.inf, want.inf)
    for b in dec.blocks:
        assert type(b.sigma) is float and type(b.sigma_prime) is float
        assert type(b.size) is int


@pytest.mark.parametrize("n", range(9))
@pytest.mark.parametrize("limit", [0.0, 0.25, 0.5])
def test_cluster_runs_match_the_vectorized_rule(n, limit):
    # Every arrangement of gaps 0 (exact ties), 0.5 (equal to the 0.5 limit,
    # so close) and 1 puts runs at the start, at the end, over the whole
    # sequence and nowhere.  Halves keep the gaps exact.
    for gaps in itertools.product([0.0, 0.5, 1.0], repeat=max(n - 1, 0)):
        vals = (4.0 - np.cumsum((0.0, *gaps)))[:n]
        assert _cluster_runs(vals, limit) == cluster_runs_vectorized(vals, limit)


def test_cluster_runs_on_rounded_gaps(rng):
    # Gaps that round in the subtraction are judged as the reference judges them.
    for _ in range(200):
        vals = np.sort(rng.standard_normal(8) * 1e8)[::-1]
        limit = float(np.quantile(vals[:-1] - vals[1:], 0.5))
        assert _cluster_runs(vals, limit) == cluster_runs_vectorized(vals, limit)


def planted_spectral(rng, n, flavor):
    """M = V Sigma V^adj with an exact isometry V and a canonical middle
    factor planted as its per-index arrays (d, dp, size), returned with M.
    T: distinct d descending in (-1, 1) and Gaussian dp.  Star: n // 2
    rotation blocks, each with its d repeated and dp in (0.1, 1), and, when
    n is odd, a scalar block with dp = 0 at a random place in the descending
    order of d."""
    if flavor == FLAVOR_T:
        d = np.sort(rng.uniform(-1.0, 1.0, n))[::-1]
        dp = rng.standard_normal(n)
        size = np.ones(n, dtype=int)
    else:
        sizes = np.full(n // 2 + n % 2, 2)
        sizes[rng.integers(len(sizes))] -= n % 2
        d = np.repeat(np.sort(rng.uniform(-1.0, 1.0, len(sizes)))[::-1], sizes)
        # Each block's size at its first index, 0 at the second index of a pair.
        size = np.concatenate([[z] + [0] * (z - 1) for z in sizes.tolist()])
        dp = np.where(size == 2, rng.uniform(0.1, 1.0, n), 0.0)
    v = random_isometry(rng, n, flavor)
    return v @ middle_matrix(d, dp, size) @ adjoint(v, flavor), (d, dp, size)


class TestPlantedTruth:
    """The spectral decompositions against a middle factor known before the
    call: the first reference for the star d'."""

    @pytest.mark.parametrize("flavor", [FLAVOR_T, FLAVOR_STAR])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64, 128])
    def test_recovers_the_planted_middle_factor(self, flavor, n):
        # The worst draw came to 1.5*n*eps*||M||.
        rng = np.random.default_rng(24)
        decomp = SPECTRAL[flavor]
        for _ in range(3):
            m, (d, dp, size) = planted_spectral(rng, n, flavor)
            got = decomp(m).middle
            assert np.array_equal(got[2], size)
            limit = 10 * n * np.finfo(float).eps * m.norm()
            assert np.abs(got[0] - d).max() <= limit
            assert np.abs(got[1] - dp).max() <= limit
