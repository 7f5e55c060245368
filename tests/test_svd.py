"""T-SVD and *-SVD, subspace splitting, polar decomposition and the
pseudoinverse."""

import numpy as np
import pytest

from dualsvd import (
    FLAVOR_STAR,
    FLAVOR_T,
    Dual,
    DualMatrix,
    DualVector,
    NotInvertible,
    SigmaBlock,
    VerificationError,
    adjoint,
    eigenvalue_multiset,
    form,
    penrose_residuals,
    pinv_t,
    split_subspaces,
    star_spectral,
    structure_residual,
    svd,
    svd_invertible,
    t_polar,
    t_spectral,
)
from conftest import random_dual_matrix

FLAVORS = (FLAVOR_T, FLAVOR_STAR)
REGIMES = ("generic", "rankdef", "pure_inf", "zero_lines")


def check_svd(m, r, tol=1e-9):
    scale = max(1.0, m.norm())
    struct = "t_orthogonal" if r.flavor == FLAVOR_T else "unitary"
    assert structure_residual(r.u, struct) <= tol * scale
    assert structure_residual(r.v, struct) <= tol * scale
    assert (r.reconstruct() - m).norm() <= tol * scale
    if r.flavor == FLAVOR_T:
        mask = ~np.eye(m.shape[0], dtype=bool)
        if mask.any():
            assert np.abs(r.sigma.std[mask]).max() <= tol * scale
            assert np.abs(r.sigma.inf[mask]).max() <= tol * scale
    else:
        total = sum(b.size for b in r.blocks)
        assert total == m.shape[0]


class TestSvdInvertible:
    def test_one_by_one(self):
        r = svd_invertible(DualMatrix([[1.0]], [[1.0]]), FLAVOR_T)
        assert r.diag == [Dual(1, 1)]
        assert (r.u - DualMatrix.identity(1)).norm() < 1e-14
        assert (r.v - DualMatrix.identity(1)).norm() < 1e-14

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_identity(self, flavor):
        r = svd_invertible(DualMatrix.identity(3), flavor)
        assert (r.u - DualMatrix.identity(3)).norm() < 1e-12
        assert (r.v - DualMatrix.identity(3)).norm() < 1e-12
        assert (r.sigma - DualMatrix.identity(3)).norm() < 1e-12

    def test_star_rotation_sigma(self):
        m = DualMatrix([[1, 0], [0, 1]], [[0, -1], [1, 0]])
        r = svd_invertible(m, FLAVOR_STAR)
        assert len(r.blocks) == 1
        b = r.blocks[0]
        assert (b.size, b.sigma) == (2, 1.0)
        assert abs(abs(b.sigma_prime) - 1.0) < 1e-12
        assert (r.v - DualMatrix.identity(2)).norm() < 1e-12
        check_svd(m, r, 1e-12)

    def test_rejects_singular_standard_part(self):
        with pytest.raises(NotInvertible):
            svd_invertible(DualMatrix([[0.0]], [[1.0]]), FLAVOR_T)

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_random_invertible(self, rng, flavor, n):
        for _ in range(8):
            m = random_dual_matrix(rng, n, "generic")
            r = svd_invertible(m, flavor)
            check_svd(m, r)
            if flavor == FLAVOR_T:
                assert all(d.std > 0 for d in r.diag)
            else:
                assert all(b.sigma > 0 for b in r.blocks)


class TestSplitSubspaces:
    def test_appreciable_and_infinitesimal_directions(self):
        m = DualMatrix([[1, 0], [0, 0]], [[0, 0], [0, 1]])
        s = split_subspaces(m, FLAVOR_T)
        assert len(s.vl_basis) == 1 and len(s.vr_basis) == 1
        assert abs(abs(s.vl_basis[0].std[0]) - 1.0) < 1e-12
        assert abs(abs(s.vr_basis[0].std[1]) - 1.0) < 1e-12

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_invertible_gives_empty_vr(self, rng, flavor):
        m = random_dual_matrix(rng, 4, "generic")
        s = split_subspaces(m, flavor)
        assert s.vr_basis == []
        assert len(s.vl_basis) == 4

    def test_zero_matrix(self):
        s = split_subspaces(DualMatrix.zeros(3, 3), FLAVOR_T)
        assert s.vl_basis == [] and len(s.vr_basis) == 3

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_injectivity_and_image_orthogonality(self, rng, flavor):
        # On span(vl) the map is injective: the images' standard parts have
        # full rank.  Images of vr are orthogonal to images of vl.
        for _ in range(10):
            m = random_dual_matrix(rng, 6, "rankdef")
            s = split_subspaces(m, flavor)
            if s.vl_basis:
                imgs = [m.apply(b) for b in s.vl_basis]
                g = np.column_stack([v.std for v in imgs])
                assert np.linalg.svd(g, compute_uv=False).min() > 1e-10
                for b in s.vr_basis:
                    w = m.apply(b)
                    for v in imgs:
                        assert form(w, v, flavor).abs_max() < 1e-9 * max(
                            1.0, m.norm()
                        )


class TestOneAppreciabilityRule:
    """Every consumer of the split reads the SVD's k, so the four verdicts
    below agree.  M = diag(1, s) + eps*diag(0, 1.9) has max|A| = 1 below
    ||M|| = 1.9, and s = 1.5e-8 lies between tol*max|A| and the split
    tol*||M||, so a rule taken relative to max|A| would disagree."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("s, k", [(0.5e-8, 1), (1.5e-8, 1), (4e-8, 2)])
    def test_consumers_agree_on_k(self, flavor, s, k):
        m = DualMatrix(np.diag([1.0, s]), [[0.0, 0.0], [0.0, 1.9]])
        r = svd(m, flavor)
        assert sum(b.size for b in r.blocks if b.sigma != 0) == k
        assert len(split_subspaces(m, flavor).vl_basis) == k
        if k < 2:
            with pytest.raises(NotInvertible):
                svd_invertible(m, flavor)
        else:
            svd_invertible(m, flavor)
        try:
            nonexistent = pinv_t(m) is None
        except VerificationError:
            # An inverse exists, but X ~ eps/s^2 fails the Penrose
            # self-check, whose limit does not grow with ||X||.
            nonexistent = False
        assert nonexistent == (k < 2)


class TestGeneralSvd:
    def test_pure_eps_scalar(self):
        r = svd(DualMatrix([[0.0]], [[1.0]]), FLAVOR_T)
        assert r.diag == [Dual(0, 1)]
        check_svd(DualMatrix([[0.0]], [[1.0]]), r, 1e-14)

    def test_nilpotent_with_tail(self):
        m = DualMatrix([[0, 1], [0, 0]], [[0, 0], [0, 1]])
        r = svd(m, FLAVOR_T)
        check_svd(m, r, 1e-12)
        vals = sorted(((d.std, abs(d.inf)) for d in r.diag), reverse=True)
        # Column 0 is exactly zero and column 1 is the unit-form vector
        # (1, eps), so the singular values are exactly 1 and 0: the eps
        # lives in U, not in Sigma.
        assert abs(vals[0][0] - 1.0) < 1e-12 and vals[0][1] < 1e-12
        assert vals[1] == (0.0, 0.0)

    def test_classical_limit_star(self, rng):
        a = rng.standard_normal((5, 5))
        r = svd(DualMatrix(a), FLAVOR_STAR)
        want = np.linalg.svd(a, compute_uv=False)
        got = sorted((b.sigma for b in r.blocks), reverse=True)
        assert np.allclose(got, want, atol=1e-9)

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("regime", REGIMES)
    def test_all_regimes(self, rng, flavor, regime):
        for n in (1, 2, 3, 5, 7):
            for _ in range(4):
                m = random_dual_matrix(rng, n, regime)
                check_svd(m, svd(m, flavor))

    def test_canonical_order(self, rng):
        m = random_dual_matrix(rng, 6, "rankdef")
        r = svd(m, FLAVOR_T)
        app = [d.std for d in r.diag if d.std > 0]
        assert app == sorted(app, reverse=True)

    def test_empty_matrix(self):
        r = svd(DualMatrix(np.zeros((0, 0))), FLAVOR_T)
        assert r.diag == []

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("rank", [2, 4])
    def test_residual_is_read_off_the_input(self, rng, flavor, scale, rank):
        """``residual`` is ||U Sigma V^adj - M|| for the M that was passed,
        with (rank 2) and without (rank 4) a zero cluster."""
        a = rng.standard_normal((4, rank)) @ rng.standard_normal((rank, 4))
        m = DualMatrix(scale * a, scale * rng.standard_normal((4, 4)))
        r = svd(m, flavor)
        assert sum(b.size for b in r.blocks if b.sigma) == rank
        assert r.residual == (r.reconstruct() - m).norm()
        assert r.residual <= 1e-9 * m.norm()


def squared_multiset(r):
    """Eigenvalue multiset of Sigma^adj Sigma: a block sigma + eps*sigma'
    squares to sigma^2 + eps*2*sigma*sigma'."""
    if r.flavor == FLAVOR_T:
        blocks = [SigmaBlock(d.std, d.inf, 1) for d in r.diag]
    else:
        blocks = r.blocks
    pairs = []
    for b in blocks:
        sq = Dual(b.sigma, b.sigma_prime) * Dual(b.sigma, b.sigma_prime)
        pairs += [(sq.std, sq.inf), (sq.std, -sq.inf)][: b.size]
    return sorted(pairs)


class TestAgainstSpectralRoute:
    """The SVD from one real SVD against the spectral decomposition of
    W = M^adj M, the construction it replaced."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_squared_middle_factor_matches_gram_spectrum(self, rng, flavor, n):
        spectral = t_spectral if flavor == FLAVOR_T else star_spectral
        for _ in range(4):
            m = random_dual_matrix(rng, n, "generic")
            w = adjoint(m, flavor) @ m
            got = squared_multiset(svd(m, flavor))
            want = eigenvalue_multiset(spectral(w))
            assert len(got) == len(want) == n
            for (s1, p1), (s2, p2) in zip(got, want):
                assert abs(s1 - s2) <= 1e-9 * w.norm()
                assert abs(p1 - p2) <= 1e-9 * w.norm()


def planted(rng, s, n):
    """Q1 diag(s) Q2^T + eps*B with random orthogonal Q1, Q2."""
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return DualMatrix(q1 @ np.diag(s) @ q2.T, rng.standard_normal((n, n)))


def planted_spectrum(n, case, gap):
    """Singular values from 4 down to 1, well apart, with one group of
    near-repeated values spaced by ``gap``; returns them and the group size."""
    s = np.linspace(4.0, 1.0, n)
    if case == "rank_half_pair":
        s[n // 2 :] = 0.0
    size = 4 if case == "quadruple" else 2
    s[:size] = s[0] - gap * np.arange(size)
    return s, size


class TestClusterStress:
    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize("case", ["pair", "quadruple", "rank_half_pair"])
    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
    def test_near_repeated_singular_values(self, rng, flavor, n, case, gap):
        s, size = planted_spectrum(n, case, gap)
        m = planted(rng, s, n)
        r = svd(m, flavor)
        struct = "t_orthogonal" if flavor == FLAVOR_T else "unitary"
        # Omega grows like 1/gap between unclustered near-equal values, so
        # these are the verifier's limits, not tighter ones.
        assert structure_residual(r.u, struct) <= 1e-8
        assert structure_residual(r.v, struct) <= 1e-8
        assert (r.reconstruct() - m).norm() <= 1e-8 * m.norm()
        if flavor == FLAVOR_STAR:
            # A gap of 1e-6 is above cluster_tol on s^2, so only the
            # smaller gaps form a cluster, with floor(size/2) rotations.
            want = size // 2 if gap <= 1e-9 else 0
            assert sum(b.size == 2 for b in r.blocks) == want


class TestPolar:
    def test_identity(self):
        pr = t_polar(DualMatrix.identity(3))
        assert (pr.u - DualMatrix.identity(3)).norm() < 1e-12
        assert (pr.p - DualMatrix.identity(3)).norm() < 1e-12

    def test_scalar_eps(self):
        pr = t_polar(DualMatrix([[0.0]], [[1.0]]))
        assert (pr.u - DualMatrix.identity(1)).norm() < 1e-12
        assert pr.p.entry(0, 0) == Dual(0, 1)

    def test_spd_factor_is_input(self, rng):
        # Symmetric with positive-definite standard part: u = I, p = M by
        # uniqueness of the positive square root.
        a = rng.standard_normal((4, 4))
        std = a @ a.T + 4.0 * np.eye(4)
        inf = rng.standard_normal((4, 4))
        m = DualMatrix(std, inf + inf.T)
        pr = t_polar(m)
        assert (pr.u - DualMatrix.identity(4)).norm() < 1e-9
        assert (pr.p - m).norm() < 1e-9 * m.norm()

    def test_random_invariants(self, rng):
        for _ in range(10):
            m = random_dual_matrix(rng, 5, "generic")
            pr = t_polar(m)
            scale = max(1.0, m.norm())
            assert structure_residual(pr.u, "t_orthogonal") < 1e-9 * scale
            assert structure_residual(pr.p, "symmetric") < 1e-9 * scale
            assert (pr.u @ pr.p - m).norm() < 1e-9 * scale


def pinv_exists_1x1(a, b):
    """Analytic existence oracle for m = [[a + b*eps]].

    Writing x = p + q*eps, the Penrose system reduces to a^2 p = a and
    2abp + a^2 q = b: solvable iff a != 0, or a = 0 and b = 0.
    """
    return a != 0.0 or b == 0.0


class TestPinv:
    def test_scalar_inverse(self):
        x = pinv_t(DualMatrix([[2.0]]))
        assert x.entry(0, 0) == Dual(0.5, 0)

    def test_dual_scalar_inverse(self):
        x = pinv_t(DualMatrix([[1.0]], [[1.0]]))
        assert (x - DualMatrix([[1.0]], [[-1.0]])).norm() < 1e-12

    def test_eps_has_none(self):
        assert pinv_t(DualMatrix([[0.0]], [[1.0]])) is None

    def test_diag_1_eps_has_none(self):
        assert pinv_t(DualMatrix.diagonal([Dual(1), Dual(0, 1)])) is None

    def test_diag_2_0(self):
        x = pinv_t(DualMatrix(np.diag([2.0, 0.0])))
        assert (x - DualMatrix(np.diag([0.5, 0.0]))).norm() < 1e-12

    def test_diagonal_matches_dual_inverse(self):
        # The appreciable entries are inverted as Dual.inv does it, bit for
        # bit; the exact zero stays zero.
        entries = [Dual(3.0, 0.7), Dual(-0.3, 1.9), Dual(0.0)]
        x = pinv_t(DualMatrix.diagonal(entries))
        want = DualMatrix.diagonal([entries[0].inv(), entries[1].inv(), Dual(0.0)])
        assert np.array_equal(x.std, want.std) and np.array_equal(x.inf, want.inf)

    def test_1x1_matches_analytic_oracle(self, rng):
        cases = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, -3.0), (0.0, -0.5)]
        cases += [tuple(rng.standard_normal(2)) for _ in range(20)]
        for a, b in cases:
            got = pinv_t(DualMatrix([[a]], [[b]]))
            if pinv_exists_1x1(a, b):
                assert got is not None
                worst = max(
                    penrose_residuals(DualMatrix([[a]], [[b]]), got).values()
                )
                assert worst < 1e-8 * max(1.0, abs(a), abs(b))
            else:
                assert got is None

    def test_2x2_nonexistence_witness_search(self):
        # For m = diag(1, eps) no X satisfies the Penrose system: a direct
        # least-squares search over all 8 real parameters of X stalls at a
        # residual bounded away from zero.
        from scipy.optimize import least_squares

        m = DualMatrix.diagonal([Dual(1), Dual(0, 1)])
        assert pinv_t(m) is None

        def resid(p):
            x = DualMatrix(p[:4].reshape(2, 2), p[4:].reshape(2, 2))
            r = penrose_residuals(m, x)
            mx = m @ x
            xm = x @ m
            out = []
            for d in (mx @ m - m, xm @ x - x, mx - mx.T, xm - xm.T):
                out.extend(d.std.ravel())
                out.extend(d.inf.ravel())
            return np.array(out)

        rng = np.random.default_rng(7)
        best = np.inf
        for _ in range(40):
            sol = least_squares(resid, rng.standard_normal(8), method="lm")
            best = min(best, float(np.linalg.norm(sol.fun)))
        assert best > 1e-3

    def test_penrose_identities_on_random_inputs(self, rng):
        for regime in REGIMES:
            for _ in range(10):
                m = random_dual_matrix(rng, 4, regime)
                x = pinv_t(m)
                if x is not None:
                    worst = max(penrose_residuals(m, x).values())
                    assert worst < 1e-8 * max(1.0, m.norm())
