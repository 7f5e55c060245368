"""Dual Moebius transformations and the two-form classification of
invertible 2x2 dual matrices."""

import numpy as np
import pytest

from dualsvd import (
    FLAVOR_STAR,
    DimensionMismatch,
    Dual,
    DualMatrix,
    LaguerreTransform,
    NotInvertible,
    PoleAt,
    SpectralBlock,
    apply_transform,
    classify_transform,
    structure_residual,
    svd,
)
from conftest import block_matrix, dual_abs_max


def transform(std, inf=None):
    return LaguerreTransform(DualMatrix(std, inf))


class TestApply:
    def test_identity(self):
        t = transform(np.eye(2))
        z = Dual(3, -2)
        assert apply_transform(t, z) == z

    def test_translation(self):
        t = transform([[1, 1], [0, 1]])
        assert apply_transform(t, Dual(2, 1)) == Dual(3, 1)

    def test_inversion(self):
        t = transform([[0, 1], [1, 0]])
        # 1/(2+4e) = 0.5 - e
        assert apply_transform(t, Dual(2, 4)) == Dual(0.5, -1.0)

    def test_pole(self):
        t = transform([[0, 1], [1, 0]])
        with pytest.raises(PoleAt):
            apply_transform(t, Dual(0, 5))

    def test_composition_matches_matrix_product(self, rng):
        for _ in range(20):
            a = transform(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            b = transform(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
            z = Dual(*rng.standard_normal(2))
            try:
                inner = apply_transform(b, z)
                lhs = apply_transform(a, inner)
            except PoleAt:
                continue
            rhs = apply_transform(LaguerreTransform(a.m @ b.m), z)
            assert dual_abs_max(lhs - rhs) < 1e-9 * max(1.0, dual_abs_max(lhs))


class TestClassify:
    def test_real_diagonal_form1(self):
        c = classify_transform(transform(np.diag([2.0, 1.0])))
        assert c.form == 1
        assert sorted(c.sigma, reverse=True) == [2.0, 1.0]
        assert (c.reconstruct().std - np.diag([2.0, 1.0])).max() < 1e-12

    def test_rotation_form2(self):
        m = DualMatrix([[1, 0], [0, 1]], [[0, -1], [1, 0]])
        c = classify_transform(LaguerreTransform(m))
        assert c.form == 2
        assert c.sigma == pytest.approx(1.0)
        assert c.sigma_prime == pytest.approx(1.0)
        assert (c.u - DualMatrix(np.eye(2))).norm() < 1e-12
        assert (c.reconstruct() - m).norm() < 1e-12

    def test_identity_form1(self):
        c = classify_transform(transform(np.eye(2)))
        assert c.form == 1
        assert tuple(c.sigma) == (1.0, 1.0)

    def test_non_invertible_rejected(self):
        with pytest.raises(NotInvertible):
            classify_transform(
                LaguerreTransform(DualMatrix([[0, 0], [0, 1]], [[1, 0], [0, 0]]))
            )

    def test_not_2x2_rejected(self):
        with pytest.raises(DimensionMismatch, match="2x2"):
            LaguerreTransform(DualMatrix(np.eye(3)))

    def test_reconstruct_matches_the_block_list(self, rng):
        # The middle factor from its per-index arrays is, bit for bit, the one
        # assembled from the Form's SpectralBlock list.
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        for form in (1, 2):
            for _ in range(20):
                if form == 1:
                    m = DualMatrix(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
                else:
                    p, _ = np.linalg.qr(rng.standard_normal((2, 2)))
                    s, sp = rng.uniform(0.5, 3.0), rng.uniform(0.2, 2.0)
                    m = DualMatrix(s * p, s * sp * (p @ j))
                c = classify_transform(LaguerreTransform(m))
                assert c.form == form
                if form == 1:
                    blocks = [SpectralBlock(float(x), 0.0, 1) for x in c.sigma]
                    want = c.u @ block_matrix(blocks) @ c.v.star()
                else:
                    want = c.u @ block_matrix([SpectralBlock(c.sigma, c.sigma_prime, 2)])
                got = c.reconstruct()
                assert np.array_equal(got.std, want.std) and np.array_equal(got.inf, want.inf)

    def test_form1_factors_are_isometries(self, rng):
        for _ in range(50):
            m = DualMatrix(
                rng.standard_normal((2, 2)), rng.standard_normal((2, 2))
            )
            t = LaguerreTransform(m)
            if abs(np.linalg.det(m.std)) < 0.1:
                continue
            c = classify_transform(t)
            assert (c.reconstruct() - m).norm() < 1e-9 * m.norm()
            assert structure_residual(c.u, "unitary") < 1e-9
            if c.form == 1:
                assert structure_residual(c.v, "unitary") < 1e-9
                assert all(s > 0 for s in c.sigma)
            else:
                assert c.sigma > 0 and c.sigma_prime != 0

    def test_constructed_form2_cases(self, rng):
        # u (s I + eps sp J) with unitary u must classify as Form 2 and
        # recover (s, |sp|) up to the orientation of J.
        for _ in range(20):
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            cs = rng.standard_normal((2, 2))
            u = DualMatrix(q) @ DualMatrix(np.eye(2), cs + cs.T)
            s = float(rng.uniform(0.5, 3.0))
            sp = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
            mid = DualMatrix(s * np.eye(2), [[0.0, -sp], [sp, 0.0]])
            m = u @ mid
            c = classify_transform(LaguerreTransform(m))
            assert c.form == 2
            assert c.sigma == pytest.approx(s, abs=1e-9)
            assert abs(c.sigma_prime) == pytest.approx(abs(sp), abs=1e-9)
            assert (c.reconstruct() - m).norm() < 1e-9 * m.norm()

    def test_form1_u_is_unitary_for_small_singular_value(self, rng):
        # A singular value ratio of 1e-2..1e-3 must not cost the Form 1
        # factors their unitarity.
        for _ in range(50):
            x = rng.uniform(2.0, 3.0)
            p, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            m = DualMatrix(
                p @ np.diag([1.0, 10.0**-x]) @ q.T, rng.standard_normal((2, 2))
            )
            c = classify_transform(LaguerreTransform(m))
            assert c.form == 1
            assert structure_residual(c.u, "unitary") < 1e-11
            assert structure_residual(c.v, "unitary") < 1e-11
            assert (c.reconstruct() - m).norm() < 1e-9 * m.norm()

    def test_form_follows_star_svd_blocks(self, rng):
        # s P (I + eps*sp*J) around the *-SVD's rotation-parameter floor: the
        # Form is the block structure of svd(m, "star"), and either Form's u
        # is unitary to rounding.
        j = np.array([[0.0, -1.0], [1.0, 0.0]])
        for sp in (2e-10, 5e-10, 2e-9, 5e-9, 9e-9):
            for _ in range(20):
                p, _ = np.linalg.qr(rng.standard_normal((2, 2)))
                s = float(rng.uniform(0.5, 3.0))
                m = DualMatrix(s * p, s * sp * (p @ j))
                two_by_two = svd(m, FLAVOR_STAR).blocks[0].size == 2
                c = classify_transform(LaguerreTransform(m))
                assert (c.form == 2) == two_by_two
                assert structure_residual(c.u, "unitary") <= 1e-12
                assert (c.reconstruct() - m).norm() <= 1e-9 * m.norm()

    def test_small_singular_value_is_not_invertible(self, rng):
        # A singular value at or below the *-SVD's split tol*||M|| makes m
        # singular for the classification, as for svd_invertible.
        for _ in range(40):
            p, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
            inf = rng.standard_normal((2, 2))
            nrm = DualMatrix(p @ np.diag([1.0, 0.0]) @ q.T, inf).norm()
            s_min = 10.0 ** rng.uniform(-11.0, -8.01) * nrm
            m = DualMatrix(p @ np.diag([1.0, s_min]) @ q.T, inf)
            with pytest.raises(NotInvertible):
                classify_transform(LaguerreTransform(m))
