"""Real spectral backends: symmetric eigensolver and skew-symmetric
block-diagonalization.  Both are internal and take a square float ndarray
that is symmetric or skew as built."""

import numpy as np
import pytest

from dualsvd.realspec import skew_block_diag, sym_eig
from conftest import skew_block_matrix

# An absolute rotation cutoff far below the mus of these unit-scale inputs.
CUTOFF = 1e-9


def charpoly_eigen_oracle(a):
    """Independent eigenvalue oracle: Faddeev-LeVerrier characteristic
    polynomial coefficients, then polynomial roots."""
    n = a.shape[0]
    coeffs = np.zeros(n + 1)
    coeffs[0] = 1.0
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(a @ m) / k
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


class TestSymEig:
    def test_already_diagonal(self):
        q, d = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(q, np.eye(2))
        assert np.allclose(d, [3.0, 1.0])

    def test_swap_matrix(self):
        q, d = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(d, [1.0, -1.0])
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(q), r)
        # Sign canonicalization: first sizeable component positive.
        assert q[0, 0] > 0 and q[0, 1] > 0

    def test_zero_matrix(self):
        q, d = sym_eig(np.zeros((3, 3)))
        assert np.allclose(d, 0.0)
        assert np.allclose(q, np.eye(3))

    def test_empty(self):
        q, d = sym_eig(np.zeros((0, 0)))
        assert q.shape == (0, 0) and d.shape == (0,)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_charpoly_oracle(self, rng, n):
        for _ in range(20):
            a = rng.standard_normal((n, n))
            a = a + a.T
            want = charpoly_eigen_oracle(a)
            assert np.allclose(sym_eig(a)[1], want, atol=1e-8)

    @pytest.mark.parametrize("n", [1, 3, 6, 8])
    def test_reconstruction_and_orthogonality(self, rng, n):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            a = a + a.T
            q, lam = sym_eig(a)
            assert np.abs(q @ q.T - np.eye(n)).max() < 1e-13
            assert np.abs(q @ np.diag(lam) @ q.T - a).max() < 1e-12 * max(
                1.0, np.abs(a).max()
            )
            assert np.all(np.diff(lam) <= 1e-12)

    def test_graded_matrix_small_eigenvalue_accuracy(self):
        # Tiny eigenvalues of a graded matrix keep their accuracy instead of
        # being swamped by the large block.
        a = np.diag([1.0, 1e-8, 1e-14])
        a[0, 1] = a[1, 0] = 1e-11
        a[1, 2] = a[2, 1] = 1e-18
        lam = sym_eig(a)[1]
        assert abs(lam[1] - 1e-8) < 1e-12
        assert abs(lam[2] - 1e-14) < 1e-18

    def test_determinism(self, rng):
        a = rng.standard_normal((5, 5))
        a = a + a.T
        (q1, d1), (q2, d2) = sym_eig(a.copy()), sym_eig(a.copy())
        assert np.array_equal(q1, q2)
        assert np.array_equal(d1, d2)


class TestSkewBlockDiag:
    def test_already_in_form(self):
        a = np.array([[0.0, -2.0], [2.0, 0.0]])
        q, mus = skew_block_diag(a, CUTOFF)
        assert mus == pytest.approx([2.0])
        assert np.abs(q @ skew_block_matrix(q, mus) @ q.T - a).max() < 1e-13

    def test_zero_matrix(self):
        # Exact zeros are no rotation, even at a zero cutoff.
        q, mus = skew_block_diag(np.zeros((3, 3)), 0.0)
        assert q.shape == (3, 3) and len(mus) == 0

    def test_single_rotation_plus_kernel(self):
        a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        q, mus = skew_block_diag(a, CUTOFF)
        # Eigenvalues of a are +-i and 0: one block mu=1, one zero.
        assert mus == pytest.approx([1.0])
        assert np.abs(q @ skew_block_matrix(q, mus) @ q.T - a).max() < 1e-13

    def test_empty(self):
        q, mus = skew_block_diag(np.zeros((0, 0)), CUTOFF)
        assert q.shape == (0, 0) and len(mus) == 0

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8])
    def test_random_reconstruction(self, rng, n):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            a = a - a.T
            q, mus = skew_block_diag(a, CUTOFF)
            assert len(mus) == n // 2  # a generic skew a of odd n has one kernel vector
            assert all(m > 0 for m in mus)
            assert np.all(np.diff(mus) <= 1e-9)
            assert np.abs(q @ q.T - np.eye(n)).max() < 1e-12
            assert np.abs(q @ skew_block_matrix(q, mus) @ q.T - a).max() < 1e-10 * max(
                1.0, np.abs(a).max()
            )

    def test_mus_match_imaginary_eigenvalues(self, rng):
        a = rng.standard_normal((6, 6))
        a = a - a.T
        mus = skew_block_diag(a, CUTOFF)[1]
        want = np.sort(np.abs(np.linalg.eigvals(a).imag))[::-1][::2]
        assert np.allclose(sorted(mus, reverse=True), want, atol=1e-9)

    def test_repeated_mu_cluster(self, rng):
        # Two blocks with the same mu: pairing must still produce an
        # orthogonal q and exact reconstruction.
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        base = np.zeros((4, 4))
        base[:2, :2] = j
        base[2:, 2:] = j
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)))
        a = q @ base @ q.T
        a = 0.5 * (a - a.T)
        q, mus = skew_block_diag(a, CUTOFF)
        assert mus == pytest.approx([1.0, 1.0], abs=1e-10)
        assert np.abs(q @ skew_block_matrix(q, mus) @ q.T - a).max() < 1e-10

    @pytest.mark.parametrize("mu", [1e-4, 1e-6, 1e-7])
    def test_small_mu_relative_accuracy(self, rng, mu):
        # A small rotation parameter next to mu = 1 and a kernel vector keeps
        # its relative accuracy; squaring into -A^2 would lose half its digits.
        base = np.zeros((5, 5))
        base[0, 1], base[1, 0] = -1.0, 1.0
        base[2, 3], base[3, 2] = -mu, mu
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
            a = q @ base @ q.T
            a = 0.5 * (a - a.T)
            q, mus = skew_block_diag(a, 1e-12)
            assert len(mus) == 2
            assert abs(mus[0] - 1.0) < 1e-12
            assert abs(mus[1] - mu) < 1e-7 * mu
            assert np.abs(q @ q.T - np.eye(5)).max() < 1e-12
            assert np.abs(q @ skew_block_matrix(q, mus) @ q.T - a).max() < 1e-14


def same_bits(a, b) -> bool:
    """Equal as stored: shape, dtype and every bit, the sign of zero included."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("negated", [False, True])
def test_sym_eig_ties_keep_the_stable_descending_order(rng, negated):
    # Exact ties keep eigh's order among themselves, as the stable argsort
    # of -lambda does; reversing eigh's ascending order would turn them round.
    # Negating the matrix moves the largest tie from the top to the bottom.
    a = np.diag(rng.permutation([3.0, 3.0, 1.0, 1.0, 1.0, -2.0, 0.0, 3.0]))
    if negated:
        a = -a
    lam, q = np.linalg.eigh(a)
    order = np.argsort(-lam, kind="stable")
    q_sorted, lam_sorted = sym_eig(a)
    assert same_bits(lam_sorted, lam[order])
    assert np.array_equal(np.abs(q_sorted), np.abs(q[:, order]))
    assert not np.array_equal(np.abs(q_sorted), np.abs(q[:, ::-1]))
