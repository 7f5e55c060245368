"""Real spectral backends: symmetric eigensolver and skew-symmetric
block-diagonalization."""

import numpy as np
import pytest

from dualsvd import (
    NotSkewSymmetric,
    NotSymmetric,
    skew_block_diag,
    sym_eig,
)


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
        spec = sym_eig(np.diag([3.0, 1.0]))
        assert np.allclose(spec.q, np.eye(2))
        assert np.allclose(spec.eigenvalues, [3.0, 1.0])

    def test_swap_matrix(self):
        spec = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec.eigenvalues, [1.0, -1.0])
        r = 1.0 / np.sqrt(2.0)
        assert np.allclose(np.abs(spec.q), r)
        # Sign canonicalization: first sizeable component positive.
        assert spec.q[0, 0] > 0 and spec.q[0, 1] > 0

    def test_zero_matrix(self):
        spec = sym_eig(np.zeros((3, 3)))
        assert np.allclose(spec.eigenvalues, 0.0)
        assert np.allclose(spec.q, np.eye(3))

    def test_empty(self):
        spec = sym_eig(np.zeros((0, 0)))
        assert spec.q.shape == (0, 0) and spec.eigenvalues.shape == (0,)

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))
        with pytest.raises(NotSymmetric):
            sym_eig(np.zeros((2, 3)))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_charpoly_oracle(self, rng, n):
        for _ in range(20):
            a = rng.standard_normal((n, n))
            a = a + a.T
            spec = sym_eig(a)
            want = charpoly_eigen_oracle(a)
            assert np.allclose(spec.eigenvalues, want, atol=1e-8)

    @pytest.mark.parametrize("n", [1, 3, 6, 8])
    def test_reconstruction_and_orthogonality(self, rng, n):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            a = a + a.T
            spec = sym_eig(a)
            q, lam = spec.q, spec.eigenvalues
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
        spec = sym_eig(a)
        assert abs(spec.eigenvalues[1] - 1e-8) < 1e-12
        assert abs(spec.eigenvalues[2] - 1e-14) < 1e-18

    def test_determinism(self, rng):
        a = rng.standard_normal((5, 5))
        a = a + a.T
        s1 = sym_eig(a.copy())
        s2 = sym_eig(a.copy())
        assert np.array_equal(s1.q, s2.q)
        assert np.array_equal(s1.eigenvalues, s2.eigenvalues)


class TestSkewBlockDiag:
    def test_already_in_form(self):
        sb = skew_block_diag(np.array([[0.0, -2.0], [2.0, 0.0]]))
        assert sb.mus == pytest.approx([2.0])
        assert sb.zero_count == 0
        assert np.abs(sb.q @ sb.assemble() @ sb.q.T
                      - np.array([[0.0, -2.0], [2.0, 0.0]])).max() < 1e-13

    def test_zero_matrix(self):
        sb = skew_block_diag(np.zeros((3, 3)))
        assert sb.mus == []
        assert sb.zero_count == 3

    def test_single_rotation_plus_kernel(self):
        a = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        sb = skew_block_diag(a)
        # Eigenvalues of a are +-i and 0: one block mu=1, one zero.
        assert sb.mus == pytest.approx([1.0])
        assert sb.zero_count == 1
        assert np.abs(sb.q @ sb.assemble() @ sb.q.T - a).max() < 1e-13

    def test_empty(self):
        sb = skew_block_diag(np.zeros((0, 0)))
        assert sb.q.shape == (0, 0) and sb.mus == [] and sb.zero_count == 0

    def test_rejects_non_skew(self):
        with pytest.raises(NotSkewSymmetric):
            skew_block_diag(np.eye(2))

    @pytest.mark.parametrize("n", [2, 3, 5, 7, 8])
    def test_random_reconstruction(self, rng, n):
        for _ in range(10):
            a = rng.standard_normal((n, n))
            a = a - a.T
            sb = skew_block_diag(a)
            assert 2 * len(sb.mus) + sb.zero_count == n
            assert all(m > 0 for m in sb.mus)
            assert np.all(np.diff(sb.mus) <= 1e-9)
            assert np.abs(sb.q @ sb.q.T - np.eye(n)).max() < 1e-12
            assert np.abs(sb.q @ sb.assemble() @ sb.q.T - a).max() < 1e-10 * max(
                1.0, np.abs(a).max()
            )

    def test_mus_match_imaginary_eigenvalues(self, rng):
        a = rng.standard_normal((6, 6))
        a = a - a.T
        sb = skew_block_diag(a)
        want = np.sort(np.abs(np.linalg.eigvals(a).imag))[::-1][::2]
        assert np.allclose(sorted(sb.mus, reverse=True), want, atol=1e-9)

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
        sb = skew_block_diag(a)
        assert sb.mus == pytest.approx([1.0, 1.0], abs=1e-10)
        assert np.abs(sb.q @ sb.assemble() @ sb.q.T - a).max() < 1e-10

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
            sb = skew_block_diag(a, tol=1e-12)
            assert len(sb.mus) == 2 and sb.zero_count == 1
            assert abs(sb.mus[0] - 1.0) < 1e-12
            assert abs(sb.mus[1] - mu) < 1e-7 * mu
            assert np.abs(sb.q @ sb.q.T - np.eye(5)).max() < 1e-12
            assert np.abs(sb.q @ sb.assemble() @ sb.q.T - a).max() < 1e-14
