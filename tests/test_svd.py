"""T-SVD and *-SVD, subspace splitting, polar decomposition and the
pseudoinverse."""

from pathlib import Path

import numpy as np
import pytest

from dualsvd import (
    FLAVOR_STAR,
    FLAVOR_T,
    Dual,
    DualMatrix,
    NotInvertible,
    VerificationError,
    adjoint,
    eigenvalue_multiset,
    factors_of,
    form,
    invariants,
    penrose,
    pinv_t,
    split_subspaces,
    star_spectral,
    svd,
    svd_invertible,
    t_polar,
    t_spectral,
)
from dualsvd.fileformat import parse_matrix
from dualsvd.spectral import DEFAULT_CLUSTER_TOL, middle_matrix
from conftest import (
    assert_invariants,
    block_matrix_loop,
    check_result,
    corrector_loop,
    middle_pairs,
    pinv_diag_reference,
    random_dual_matrix,
    random_isometry,
)

FLAVORS = (FLAVOR_T, FLAVOR_STAR)
REGIMES = ("generic", "rankdef", "pure_inf", "zero_lines")
DATA = Path(__file__).parent / "data"


class TestSvdInvertible:
    def test_one_by_one(self):
        r = svd_invertible(DualMatrix([[1.0]], [[1.0]]), FLAVOR_T)
        assert middle_pairs(r) == [(1.0, 1.0)]
        assert (r.u - DualMatrix(np.eye(1))).norm() < 1e-14
        assert (r.v - DualMatrix(np.eye(1))).norm() < 1e-14

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_identity(self, flavor):
        r = svd_invertible(DualMatrix(np.eye(3)), flavor)
        assert (r.u - DualMatrix(np.eye(3))).norm() < 1e-12
        assert (r.v - DualMatrix(np.eye(3))).norm() < 1e-12
        assert (r.sigma - DualMatrix(np.eye(3))).norm() < 1e-12

    def test_star_rotation_sigma(self):
        m = DualMatrix([[1, 0], [0, 1]], [[0, -1], [1, 0]])
        r = svd_invertible(m, FLAVOR_STAR)
        assert len(r.blocks) == 1
        b = r.blocks[0]
        assert (b.size, b.sigma) == (2, 1.0)
        assert abs(abs(b.sigma_prime) - 1.0) < 1e-12
        assert (r.v - DualMatrix(np.eye(2))).norm() < 1e-12
        check_result(m, r, 1e-4)

    def test_rejects_singular_standard_part(self):
        with pytest.raises(NotInvertible):
            svd_invertible(DualMatrix([[0.0]], [[1.0]]), FLAVOR_T)

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("n", [1, 2, 4, 6, 8])
    def test_random_invertible(self, rng, flavor, n):
        for _ in range(8):
            m = random_dual_matrix(rng, n, "generic")
            r = svd_invertible(m, flavor)
            check_result(m, r)
            if flavor == FLAVOR_T:
                assert (r.middle[0] > 0).all()
            else:
                assert all(b.sigma > 0 for b in r.blocks)


class TestSplitSubspaces:
    def test_appreciable_and_infinitesimal_directions(self):
        m = DualMatrix([[1, 0], [0, 0]], [[0, 0], [0, 1]])
        s = split_subspaces(m, FLAVOR_T)
        assert s.vl_basis.shape == (2, 1) and s.vr_basis.shape == (2, 1)
        assert abs(abs(s.vl_basis.std[0, 0]) - 1.0) < 1e-12
        assert abs(abs(s.vr_basis.std[1, 0]) - 1.0) < 1e-12

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_invertible_gives_empty_vr(self, rng, flavor):
        m = random_dual_matrix(rng, 4, "generic")
        s = split_subspaces(m, flavor)
        assert s.vr_basis.shape == (4, 0)
        assert s.vl_basis.shape == (4, 4)

    def test_zero_matrix(self):
        s = split_subspaces(DualMatrix(np.zeros((3, 3))), FLAVOR_T)
        assert s.vl_basis.shape == (3, 0) and s.vr_basis.shape == (3, 3)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_injectivity_and_image_orthogonality(self, rng, flavor):
        # On span(vl) the map is injective: the images' standard parts have
        # full rank.  Images of vr are orthogonal to images of vl.
        for _ in range(10):
            m = random_dual_matrix(rng, 6, "rankdef")
            s = split_subspaces(m, flavor)
            if s.vl_basis.shape[1]:
                imgs = m @ s.vl_basis
                assert np.linalg.svd(imgs.std, compute_uv=False).min() > 1e-10
                cross = form(m @ s.vr_basis, imgs, flavor)
                assert cross.norm() < 1e-9 * m.norm()


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
        assert split_subspaces(m, flavor).vl_basis.shape[1] == k
        if k < 2:
            with pytest.raises(NotInvertible):
                svd_invertible(m, flavor)
        else:
            svd_invertible(m, flavor)
        # At s = 4e-8, X ~ eps/s^2 is huge; XMX - X is judged against ||X||.
        assert (pinv_t(m) is None) == (k < 2)


class TestGeneralSvd:
    def test_pure_eps_scalar(self):
        r = svd(DualMatrix([[0.0]], [[1.0]]), FLAVOR_T)
        assert middle_pairs(r) == [(0.0, 1.0)]
        check_result(DualMatrix([[0.0]], [[1.0]]), r, 1e-6)

    def test_nilpotent_with_tail(self):
        m = DualMatrix([[0, 1], [0, 0]], [[0, 0], [0, 1]])
        r = svd(m, FLAVOR_T)
        check_result(m, r, 1e-4)
        vals = sorted(((s, abs(sp)) for s, sp in middle_pairs(r)), reverse=True)
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
                check_result(m, svd(m, flavor))

    def test_canonical_order(self, rng):
        m = random_dual_matrix(rng, 6, "rankdef")
        r = svd(m, FLAVOR_T)
        app = [s for s in r.middle[0].tolist() if s > 0]
        assert app == sorted(app, reverse=True)

    def test_empty_matrix(self):
        r = svd(DualMatrix(np.zeros((0, 0))), FLAVOR_T)
        assert middle_pairs(r) == []

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    @pytest.mark.parametrize("rank", [2, 4])
    def test_residual_is_read_off_the_input(self, rng, flavor, scale, rank):
        """The verdict's reconstruction residual is ||U Sigma V^adj - M|| for
        the M that was passed, with (rank 2) and without (rank 4) a zero
        cluster."""
        a = rng.standard_normal((4, rank)) @ rng.standard_normal((rank, 4))
        m = DualMatrix(scale * a, scale * rng.standard_normal((4, 4)))
        r = svd(m, flavor)
        assert sum(b.size for b in r.blocks if b.sigma) == rank
        checks = {name: (res, lim) for name, res, lim in invariants(m, *factors_of(r))}
        res, lim = checks["reconstruction"]
        assert res == (r.reconstruct() - m).norm()
        assert res <= 0.1 * lim


def squared_multiset(r):
    """Eigenvalue multiset of Sigma^adj Sigma: a block sigma + eps*sigma'
    squares to sigma^2 + eps*2*sigma*sigma'."""
    pairs = []
    for b in r.blocks:
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
    """At the verifier's limits (f = 1), not tighter ones: Omega grows like
    1/gap between unclustered near-equal values."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("n", [4, 8, 16, 32])
    @pytest.mark.parametrize("case", ["pair", "quadruple", "rank_half_pair"])
    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
    def test_near_repeated_singular_values(self, rng, flavor, n, case, gap):
        s, size = planted_spectrum(n, case, gap)
        m = planted(rng, s, n)
        r = svd(m, flavor)
        assert_invariants(m, r, 1.0)
        if flavor == FLAVOR_STAR:
            # DEFAULT_CLUSTER_TOL*||M|| lies between 1e-9 and 1e-6 here, so
            # only the smaller gaps form a cluster, with floor(size/2) rotations.
            want = size // 2 if gap <= 1e-9 else 0
            assert sum(b.size == 2 for b in r.blocks) == want

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize(
        "s",
        [
            (1.5, 1.2, 1.0, 0.8, 1e-3 + 1e-5, 1e-3),
            (1.0, 2e-4, 1e-4),
            (1.0, 2e-5, 1e-5),
            (1.0, 2e-6, 1e-6),
        ],
        ids=["pair_at_1e-3", "1_2s_s_at_1e-4", "1_2s_s_at_1e-5", "1_2s_s_at_1e-6"],
    )
    def test_small_distinct_values_stay_apart(self, rng, flavor, s):
        # Values whose gap is small next to s_1 but above
        # DEFAULT_CLUSTER_TOL*||M|| are two clusters: merging them would
        # average away the gap, and the standard part would miss A by about
        # the gap.
        for _ in range(10):
            m = planted(rng, np.array(s), len(s))
            assert_invariants(m, svd(m, flavor), 1.0)


def every_cluster_kind(rng, n, exact):
    """Singular values with a 2-value and a 3-value cluster, singletons and
    a zero tail of two.  ``exact``: A is a shuffled diagonal, whose repeated
    singular values LAPACK returns exactly, so that each cluster is a run of
    exact ties; otherwise A = Q1 diag(s) Q2^T, whose rounding spreads them."""
    s = np.concatenate([[4.0], [3.0] * 2, [2.0] * 3, np.linspace(1.5, 0.5, n - 8), [0.0] * 2])
    if not exact:
        return planted(rng, s, n)
    return DualMatrix(np.diag(rng.permutation(s)), rng.standard_normal((n, n)))


class TestEveryCorrectorWrite:
    """One input reaches every case of the first-order corrector: the
    divisions across clusters, the even split of W inside a 2- and a 3-value
    cluster and on the singletons' diagonal, and the zero cluster's block."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("n", [8, 10, 12])
    # Each id names the cluster limit that the case runs at.
    @pytest.mark.parametrize("exact", [True, False], ids=lambda e: f"{e}-{DEFAULT_CLUSTER_TOL}")
    def test_planted_clusters_and_tail(self, rng, flavor, n, exact):
        m = every_cluster_kind(rng, n, exact)
        r = svd(m, flavor)
        check_result(m, r)
        sigmas = [b.sigma for b in r.blocks]
        assert sigmas[-2:] == [0.0, 0.0]
        if flavor == FLAVOR_T:
            # Each cluster's values became their mean: exactly equal.
            assert sigmas[1] == sigmas[2] and sigmas[3] == sigmas[4] == sigmas[5]
        else:
            # A generic B~ gives each cluster one rotation block.
            assert [b.size for b in r.blocks][:4] == [1, 2, 2, 1]
        sigma = block_matrix_loop(r.blocks)
        assert np.array_equal(sigma.std, r.sigma.std)
        assert np.array_equal(sigma.inf, r.sigma.inf)
        for b in r.blocks:
            assert type(b.sigma) is float and type(b.sigma_prime) is float
            assert type(b.size) is int
        # U1 = U0 Omega_U and V1 = V0 Omega_V against the entry-by-entry
        # reference, with B~ = U0^T B V0 read back from the result.
        bt = r.u.std.T @ m.inf @ r.v.std
        om_u, om_v = corrector_loop(bt, r.middle[0], flavor)
        for iso, om in ((r.u, om_u), (r.v, om_v)):
            want = iso.std @ om
            assert np.abs(iso.inf - want).max() <= 1e-12 * np.abs(want).max()


class TestPolar:
    def test_identity(self):
        pr = t_polar(DualMatrix(np.eye(3)))
        assert (pr.u - DualMatrix(np.eye(3))).norm() < 1e-12
        assert (pr.p - DualMatrix(np.eye(3))).norm() < 1e-12

    def test_scalar_eps(self):
        pr = t_polar(DualMatrix([[0.0]], [[1.0]]))
        assert (pr.u - DualMatrix(np.eye(1))).norm() < 1e-12
        assert pr.p.entry(0, 0) == Dual(0, 1)

    def test_spd_factor_is_input(self, rng):
        # Symmetric with positive-definite standard part: u = I, p = M by
        # uniqueness of the positive square root.
        a = rng.standard_normal((4, 4))
        std = a @ a.T + 4.0 * np.eye(4)
        inf = rng.standard_normal((4, 4))
        m = DualMatrix(std, inf + inf.T)
        pr = t_polar(m)
        assert (pr.u - DualMatrix(np.eye(4))).norm() < 1e-9
        assert (pr.p - m).norm() < 1e-9 * m.norm()

    def test_random_invariants(self, rng):
        for _ in range(10):
            m = random_dual_matrix(rng, 5, "generic")
            assert_invariants(m, t_polar(m), 0.1)


def cross(t):
    """[t]x, the matrix of the cross product with t."""
    return np.array([[0.0, -t[2], t[1]], [t[2], 0.0, -t[0]], [-t[1], t[0], 0.0]])


class TestPolarAccuracy:
    """Inputs whose singular values sit in or near the SVD's cluster window,
    where a division by a gap rounds at eps*|B|/gap.  No such division
    enters U or P, so each residual stays at rounding level: within 1e-5 of
    its limit, 1e-13 at its scale."""

    @pytest.mark.parametrize("noise", [0.0, 1e-12, 1e-10, 1e-8, 3e-8, 1e-7, 1e-6])
    def test_noisy_rigid_motions(self, rng, noise):
        # M = Q + eps [t]x Q is a rigid motion, a T-orthogonal dual matrix:
        # its singular values are all 1, split by the noise.
        for _ in range(200):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            std = q + noise * rng.standard_normal((3, 3))
            inf = cross(rng.standard_normal(3)) @ q + noise * rng.standard_normal((3, 3))
            m = DualMatrix(std, inf)
            assert_invariants(m, t_polar(m), 1e-5)

    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_a_gap_just_above_the_cluster_limit(self, rng, n):
        # Four equal singular values and a fifth 5e-8 above them.
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        s = np.concatenate(([1.0, 1.0, 1.0, 1.0, 1.0 + 5e-8], rng.uniform(0.5, 2.0, n - 5)))
        m = DualMatrix(q1 @ np.diag(s) @ q2.T, rng.uniform(-1.0, 1.0, (n, n)))
        assert_invariants(m, t_polar(m), 1e-5)


# The largest difference between the two routes over n*eps*max|B|/gap was
# 2.1 in 3120 draws at n = 2..128 (n = 4, rank 1), so this leaves over 140x.
ROUTE_MULTIPLE = 300.0


def route_draw(rng, n, case):
    """A = Q1 diag(s) Q2^T with ||A|| = 1 and B with max|B| = 1: s uniform in
    [0.05, 1], with exact 2- and 3-value clusters and a zero tail as ``case``
    asks, or A a Gaussian matrix over its 2-norm."""
    if case == "gaussian":
        a = rng.standard_normal((n, n))
        m = DualMatrix(a / np.linalg.norm(a, 2), rng.standard_normal((n, n)))
    else:
        s = np.sort(rng.uniform(0.05, 1.0, n))[::-1]
        s[0] = 1.0
        if "clusters" in case and n >= 6:
            s[1:3], s[3:6] = s[1], s[3]
        if case.startswith("rankdef"):
            s[rng.integers(1, n) if n > 1 else 0 :] = 0.0
        m = planted(rng, s, n)
    return DualMatrix(m.std, m.inf / np.abs(m.inf).max())


class TestAgainstPolarRoute:
    """The T-SVD's factors against t_polar's closed form, a route with no
    cluster pass and no division by a gap.  From M = U Sigma V^T, U V^T is the
    polar factor U when A is invertible, and V Sigma V^T is always P; below
    full rank U is free on the null space, so U P is compared instead.  The
    SVD's Omega divides by the gap between distinct clusters, so the routes
    differ by up to n*eps*max|B|/gap; each limit is ``ROUTE_MULTIPLE`` times
    that."""

    @pytest.mark.parametrize("case", ["gaussian", "clusters", "rankdef", "rankdef_clusters"])
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 32, 64, 128])
    def test_polar_factors_from_the_svd(self, rng, n, case):
        for _ in range(10 if n <= 32 else 3):
            m = route_draw(rng, n, case)
            r, pr = svd(m, FLAVOR_T), t_polar(m)
            sig = r.middle[0]
            gaps = sig[:-1] - sig[1:]
            gap = gaps[gaps > 0.0].min(initial=1.0)
            limit = ROUTE_MULTIPLE * n * np.finfo(float).eps / gap
            assert (r.v @ r.sigma @ r.v.T - pr.p).norm() <= limit
            if case.startswith("rankdef"):
                assert (r.reconstruct() - pr.u @ pr.p).norm() <= limit
            else:
                assert (r.u @ r.v.T - pr.u).norm() <= limit


def pinv_exists_1x1(a, b):
    """Analytic existence oracle for m = [[a + b*eps]].

    Writing x = p + q*eps, the Penrose system reduces to a^2 p = a and
    2abp + a^2 q = b: solvable iff a != 0, or a = 0 and b = 0.
    """
    return a != 0.0 or b == 0.0


def within_penrose_limits(m, x):
    """Every Penrose residual within its limit at its own scale."""
    return all(r <= lim for _, r, lim in penrose(m, x))


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
        assert pinv_t(DualMatrix(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))) is None

    def test_diag_2_0(self):
        x = pinv_t(DualMatrix(np.diag([2.0, 0.0])))
        assert (x - DualMatrix(np.diag([0.5, 0.0]))).norm() < 1e-12

    def test_diagonal_matches_dual_inverse(self):
        # The appreciable entries are inverted as Dual.inv does it, bit for
        # bit; the exact zero stays zero.
        std, inf = [3.0, -0.3, 0.0], [0.7, 1.9, 0.0]
        x = pinv_t(DualMatrix(np.diag(std), np.diag(inf)))
        inverses = [Dual(a, b).inv() for a, b in zip(std[:2], inf[:2])] + [Dual(0.0)]
        want = DualMatrix(np.diag([d.std for d in inverses]), np.diag([d.inf for d in inverses]))
        assert np.array_equal(x.std, want.std) and np.array_equal(x.inf, want.inf)

    def test_1x1_matches_analytic_oracle(self, rng):
        cases = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, -3.0), (0.0, -0.5)]
        cases += [tuple(rng.standard_normal(2)) for _ in range(20)]
        for a, b in cases:
            m = DualMatrix([[a]], [[b]])
            got = pinv_t(m)
            if pinv_exists_1x1(a, b):
                assert got is not None
                assert within_penrose_limits(m, got)
            else:
                assert got is None

    def test_2x2_nonexistence_witness_search(self):
        # For m = diag(1, eps) no X satisfies the Penrose system: a direct
        # least-squares search over all 8 real parameters of X stalls at a
        # residual bounded away from zero.
        from scipy.optimize import least_squares

        m = DualMatrix(np.diag([1.0, 0.0]), np.diag([0.0, 1.0]))
        assert pinv_t(m) is None

        def resid(p):
            x = DualMatrix(p[:4].reshape(2, 2), p[4:].reshape(2, 2))
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
                    assert within_penrose_limits(m, x)

    def test_penrose_limits_scale_per_identity(self, rng):
        # MXM - M is judged against ||M||, XMX - X against ||X||, and the
        # dimensionless symmetry defects against 1, as bench/verify.py does.
        m = random_dual_matrix(rng, 3, "generic")
        x = pinv_t(m)
        assert [(name, lim) for name, _, lim in penrose(m, x)] == [
            ("mxm", 1e-8 * m.norm()),
            ("xmx", 1e-8 * x.norm()),
            ("mx_symmetric", 1e-8),
            ("xm_symmetric", 1e-8),
        ]
        for n in (0, 2):
            z = DualMatrix(np.zeros((n, n)))
            assert {name: lim for name, _, lim in penrose(z, z)}["xmx"] == 0.0
            assert np.array_equal(pinv_t(z).std, z.std)


def gaussian_draw(n, index):
    """Draw number ``index`` (from 0) of default_rng(0), each draw being an
    n x n standard part and then an n x n infinitesimal part."""
    rng = np.random.default_rng(0)
    for _ in range(index + 1):
        m = DualMatrix(rng.standard_normal((n, n)), rng.standard_normal((n, n)))
    return m


class TestPinvSelfCheck:
    """pinv_t raises on the first Penrose identity above its limit."""

    def test_ill_conditioned_3x3_fails_mx_symmetric(self):
        # cond(A) = 2.3e4: MX misses symmetry by 3.4 times its limit.
        m = parse_matrix((DATA / "pinv_ill_conditioned_3x3.json").read_text())
        want = gaussian_draw(3, 1103)
        assert np.array_equal(m.std, want.std) and np.array_equal(m.inf, want.inf)
        msg = "Penrose mx_symmetric: 3.427e-08 > limit 1.000e-08"
        with pytest.raises(VerificationError) as info:
            pinv_t(m)
        assert str(info.value) == msg

    def test_first_failing_identity_is_named(self):
        # At n = 8, MXM - M is the first identity over its limit.
        with pytest.raises(VerificationError, match=r"^Penrose mxm: "):
            pinv_t(gaussian_draw(8, 1166))


def closed_form_pinv(a, b):
    """The dual Moore-Penrose inverse of A + eps*B in closed form (Udwadia,
    Pennestri & de Falco, Mech. Mach. Theory 2020; H. Wang, Mech. Mach.
    Theory 2021): with P = I - A A+ and Q = I - A+ A it exists iff
    P B Q = 0, and then it is
    A+ - eps*(A+ B A+ - (A^T A)+ B^T P - Q B^T (A A^T)+).
    Returns (std, inf), or None when none exists."""
    n = a.shape[0]
    ap = np.linalg.pinv(a, rcond=1e-10)
    p = np.eye(n) - a @ ap
    q = np.eye(n) - ap @ a
    if np.abs(p @ b @ q).max() > 1e-8 * max(np.abs(a).max(), np.abs(b).max()):
        return None
    ata = np.linalg.pinv(a.T @ a, rcond=1e-10)
    aat = np.linalg.pinv(a @ a.T, rcond=1e-10)
    return ap, -(ap @ b @ ap - ata @ b.T @ p - q @ b.T @ aat)


# The largest difference over ||X|| from the diagonal-product reference on
# the inputs of the two tests below is 2.1e-15; the limit is 93 times that.
PINV_REFERENCE_TOL = 2e-13


def assert_same_pinv(m):
    """pinv_t(m) against the diagonal-product reference: the same existence
    answer, and X within PINV_REFERENCE_TOL of ||X||."""
    got, want = pinv_t(m), pinv_diag_reference(m)
    assert (got is None) == (want is None)
    if want is not None:
        assert (got - want).norm() <= PINV_REFERENCE_TOL * want.norm()
    return got


@pytest.mark.parametrize("n", [*range(7), 32])
@pytest.mark.parametrize("regime", ["generic", "rankdef", "pure_inf", "zero_lines"])
def test_pinv_column_scaling_matches_the_diagonal_product(rng, n, regime):
    # X0 = (V0 scaled by Sigma^+ column by column) U0^T and the closed-form X1
    # give the X of the product V @ diag(Sigma^+) @ U^T of the T-SVD's
    # factors, at unit norm, at powers of two and at decimal scales.
    for _ in range(3):
        m = random_dual_matrix(rng, n, regime)
        for scale in (1.0, 2.0**40, 2.0**-40, 1e9, 1e-9):
            assert_same_pinv(DualMatrix(scale * m.std, scale * m.inf))


@pytest.mark.parametrize("n", range(1, 7))
def test_pinv_column_scaling_matches_below_full_rank(rng, n):
    # B projected so that P B Q = 0: a pseudoinverse exists at every rank.
    for rank in range(n):
        q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
        q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
        a = q1[:, :rank] @ np.diag(rng.uniform(0.5, 2.0, rank)) @ q2[:, :rank].T
        ap = np.linalg.pinv(a, rcond=1e-10)
        b = rng.standard_normal((n, n))
        b = b - (np.eye(n) - a @ ap) @ b @ (np.eye(n) - ap @ a)
        assert assert_same_pinv(DualMatrix(a, b)) is not None


class TestPinvClosedForm:
    @pytest.mark.parametrize("n", range(2, 9))
    def test_verdict_and_x_match_the_closed_form(self, rng, n):
        """Every rank, with a generic B (P B Q != 0 below full rank, so no
        pseudoinverse) and with B projected so that P B Q = 0."""
        for rank in range(n + 1):
            for projected in (False, True):
                for _ in range(3):
                    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
                    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
                    s = np.zeros(n)
                    s[:rank] = rng.uniform(0.5, 2.0, rank)
                    a = q1 @ np.diag(s) @ q2.T
                    b = rng.standard_normal((n, n))
                    if projected:
                        ap = np.linalg.pinv(a, rcond=1e-10)
                        b = b - (np.eye(n) - a @ ap) @ b @ (np.eye(n) - ap @ a)
                    want = closed_form_pinv(a, b)
                    got = pinv_t(DualMatrix(a, b))
                    assert (got is None) == (want is None) == (rank < n and not projected)
                    if want is not None:
                        err = max(np.abs(g - w).max() for g, w in zip((got.std, got.inf), want))
                        assert err <= 1e-10 * max(np.abs(w).max() for w in want)


def planted_svd(rng, n, flavor):
    """M = U Sigma V^adj with exact isometries U, V and a canonical middle
    factor planted as its per-index arrays (sig, sp, size), returned with M.
    T: sig descending in (0.1, 1) and Gaussian sp.  Star: n // 2 rotation
    blocks, each with its sig repeated and sp in (0.1, 1), then a scalar
    block of 0.05 when n is odd."""
    if flavor == FLAVOR_T:
        sig = np.sort(rng.uniform(0.1, 1.0, n))[::-1]
        sp = rng.standard_normal(n)
        size = np.ones(n, dtype=int)
    else:
        h = n // 2
        sig = np.append(np.repeat(np.sort(rng.uniform(0.1, 1.0, h))[::-1], 2), [0.05] * (n % 2))
        sp = np.zeros(n)
        sp[: 2 * h : 2] = rng.uniform(0.1, 1.0, h)
        size = np.array([2, 0] * h + [1] * (n % 2))
    u, v = random_isometry(rng, n, flavor), random_isometry(rng, n, flavor)
    return u @ middle_matrix(sig, sp, size) @ adjoint(v, flavor), (sig, sp, size)


def planted_pinv(rng, n, r, exists):
    """M = U (S + eps*B~) V^T with exact T-isometries U, V and S = diag(s, 0),
    k = n - r values s descending in (0.1, 1), returned with its planted
    pseudoinverse.  B~ is Gaussian but for its r x r zero block B~22: 0 if
    ``exists``, and then X = V (S^+ + eps*X~) U^T with X~ from Golub & Pereyra
    (SIAM J. Numer. Anal. 1973); diag(U(0.1, 1)) otherwise, and then None."""
    k = n - r
    s = np.zeros(n)
    s[:k] = np.sort(rng.uniform(0.1, 1.0, k))[::-1]
    bt = rng.standard_normal((n, n))
    bt[k:, k:] = 0.0 if exists else np.diag(rng.uniform(0.1, 1.0, r))
    u, v = random_isometry(rng, n, FLAVOR_T), random_isometry(rng, n, FLAVOR_T)
    m = u @ DualMatrix(np.diag(s), bt) @ v.T
    if not exists:
        return m, None
    sk = s[:k]
    xt = np.zeros((n, n))
    xt[:k, :k] = -bt[:k, :k] / (sk[:, None] * sk)
    xt[:k, k:] = bt[k:, :k].T / (sk * sk)[:, None]
    xt[k:, :k] = bt[:k, k:].T / (sk * sk)
    s_plus = np.zeros(n)
    s_plus[:k] = 1.0 / sk
    return m, v @ DualMatrix(np.diag(s_plus), xt) @ u.T


def two_scale(lam):
    """ROADMAP item 8's input M = A + eps*lam*G, with A = Q1 diag(1, 0.5,
    1e-3) Q2^T invertible, returned with A's polar factor Q1 Q2^T."""
    rng = np.random.default_rng(0)
    q1, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    q2, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    a = q1 @ np.diag([1.0, 0.5, 1e-3]) @ q2.T
    return DualMatrix(a, lam * rng.standard_normal((3, 3))), q1 @ q2.T


ITEM_8 = (
    "ROADMAP.md item 8: every decision is judged at ||M|| = max(||A||, ||B||), "
    "so at ||B|| >> ||A|| "
)


class TestPlantedTruth:
    """The SVD against a middle factor known before the call: the first
    reference for the star sigma'."""

    @pytest.mark.parametrize("flavor", FLAVORS)
    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64, 128])
    def test_svd_recovers_the_planted_middle_factor(self, flavor, n):
        # The worst draw came to 2.6*n*eps*||M||.
        rng = np.random.default_rng(24)
        for _ in range(3):
            m, (sig, sp, size) = planted_svd(rng, n, flavor)
            got = svd(m, flavor).middle
            assert np.array_equal(got[2], size)
            limit = 10 * n * np.finfo(float).eps * m.norm()
            assert np.abs(got[0] - sig).max() <= limit
            assert np.abs(got[1] - sp).max() <= limit

    @pytest.mark.parametrize(
        "lam",
        [
            1.0,
            2.0**10,
            pytest.param(
                2.0**17,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason=ITEM_8 + "U0 can be a reflection of A's polar factor",
                ),
            ),
        ],
    )
    def test_t_polar_keeps_the_polar_factor_of_a(self, lam):
        # A is invertible, so U0 = Q1 Q2^T whatever B is.  At lam = 2^17,
        # det(U0) = -1: the split puts sigma_3 in the zero block, whose sign
        # B~ decides; the reconstruction still passes.
        m, polar = two_scale(lam)
        assert np.abs(t_polar(m).u.std - polar).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 8, 16, 64, 128])
    def test_pinv_t_recovers_the_planted_pseudoinverse(self, n):
        # r zero singular values; a pseudoinverse exists iff B~22 = 0.  The
        # worst draw came to 5.5*n*eps*||X||.
        rng = np.random.default_rng(5)
        for r in sorted({0, 1, n // 2, n - 1}):
            for exists in (True, False)[: 1 + (r > 0)]:
                for _ in range(3):
                    m, want = planted_pinv(rng, n, r, exists)
                    got = pinv_t(m)
                    assert (got is None) == (want is None)
                    if want is not None:
                        limit = 10 * n * np.finfo(float).eps * want.norm()
                        assert (got - want).norm() <= limit

    @pytest.mark.parametrize(
        "lam",
        [
            1.0,
            2.0**5,
            pytest.param(
                2.0**10,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=VerificationError,
                    reason=ITEM_8 + "the self-check finds MX 1.58e-8 from symmetric, "
                    "against its 1e-8 limit",
                ),
            ),
            pytest.param(
                2.0**17,
                marks=pytest.mark.xfail(
                    strict=True,
                    raises=AssertionError,
                    reason=ITEM_8 + "sigma_3 falls in the zero block and pinv_t "
                    "returns None",
                ),
            ),
        ],
    )
    def test_pinv_t_of_the_two_scale_input_exists(self, lam):
        # A is invertible, so X = A^-1 - eps*A^-1 B A^-1 at every lam.  Its
        # eps part has cond(A)^2 = 1e6 as condition number.
        m, _ = two_scale(lam)
        x = pinv_t(m)
        assert x is not None
        a_inv = np.linalg.inv(m.std)
        want = DualMatrix(a_inv, -a_inv @ m.inf @ a_inv)
        assert (x - want).norm() <= 1e6 * np.finfo(float).eps * want.norm()
