"""Dual vectors and matrices, the two forms, structure checks and
Gram-Schmidt."""

import numpy as np
import pytest

from dualsvd import (
    FLAVOR_STAR,
    FLAVOR_T,
    DegenerateInput,
    DimensionMismatch,
    Dual,
    DualMatrix,
    DualVector,
    NonFiniteInput,
    adjoint,
    extend_orthonormal,
    form,
    gram_schmidt,
    star_form,
    structure_check,
    structure_residual,
    t_form,
)
from conftest import random_vectors

FLAVORS = (FLAVOR_T, FLAVOR_STAR)


class TestMatrixOps:
    def test_mul_identity(self, rng):
        m = DualMatrix(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        assert ((m @ DualMatrix.identity(3)) - m).norm() == 0.0

    def test_eps_matrix_squares_to_zero(self):
        e = DualMatrix([[0.0]], [[1.0]])
        assert (e @ e).norm() == 0.0

    def test_star_fixed_point(self):
        m = DualMatrix([[0, 0], [0, 0]], [[0, -1], [1, 0]])
        assert (m.star() - m).norm() == 0.0

    def test_mul_matches_component_formula(self, rng):
        a = rng.standard_normal((4, 4))
        b = rng.standard_normal((4, 4))
        c = rng.standard_normal((4, 4))
        d = rng.standard_normal((4, 4))
        p = DualMatrix(a, b) @ DualMatrix(c, d)
        assert np.allclose(p.std, a @ c)
        assert np.allclose(p.inf, a @ d + b @ c)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            DualMatrix.zeros(2, 3) @ DualMatrix.zeros(2, 3)
        with pytest.raises(DimensionMismatch):
            DualMatrix.zeros(2, 2) + DualMatrix.zeros(3, 3)

    def test_scale_and_entry(self):
        m = DualMatrix([[2.0]], [[3.0]]).scale(Dual(0, 1))
        # (2+3e)*e = 2e
        assert m.entry(0, 0) == Dual(0, 2)

    def test_block_diag_and_submatrix(self, rng):
        a = DualMatrix(rng.standard_normal((2, 2)), rng.standard_normal((2, 2)))
        b = DualMatrix(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        big = DualMatrix.block_diag([a, b])
        assert (big.submatrix([0, 1], [0, 1]) - a).norm() == 0.0
        assert (big.submatrix([2, 3, 4], [2, 3, 4]) - b).norm() == 0.0
        assert np.abs(big.std[:2, 2:]).max() == 0.0

    def test_adjoint_flavors(self, rng):
        m = DualMatrix(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        assert (adjoint(m, FLAVOR_T) - m.T).norm() == 0.0
        assert (adjoint(m, FLAVOR_STAR) - m.star()).norm() == 0.0

    @pytest.mark.parametrize("part", ["std", "inf"])
    @pytest.mark.parametrize("std_max", [4.0, 0.25])
    def test_norm_propagates_nan(self, part, std_max):
        # Python's max(x, nan) is x: the NaN must win whichever part holds it
        # and whichever part's finite entries are larger.
        std = np.array([[std_max, 0.0], [0.0, 0.1]])
        inf = np.array([[1.0, 0.0], [0.0, 0.1]])
        (std if part == "std" else inf)[1, 1] = np.nan
        assert np.isnan(DualMatrix(std, inf).norm())
        assert np.isnan(DualVector(std.ravel(), inf.ravel()).norm())


class TestForms:
    def test_t_form_values(self):
        u = DualVector([1, 0], [1, 0])
        # (1+e)^2 = 1+2e
        assert t_form(u, u) == Dual(1, 2)
        assert t_form(DualVector.basis(2, 0), DualVector.basis(2, 1)) == Dual(0)
        e = DualVector([0.0], [1.0])
        assert t_form(e, e) == Dual(0)

    def test_star_form_values(self):
        u = DualVector([1, 0], [1, 0])
        # (1+e)(1-e) = 1
        assert star_form(u, u) == Dual(1, 0)
        e = DualVector([0.0], [1.0])
        assert star_form(e, e) == Dual(0)

    def test_star_form_conjugate_symmetry(self, rng):
        u, v = random_vectors(rng, 5, 2)
        assert star_form(u, v).conj() == star_form(v, u)

    def test_t_form_symmetry(self, rng):
        u, v = random_vectors(rng, 5, 2)
        assert t_form(u, v) == t_form(v, u)

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            t_form(DualVector([1.0]), DualVector([1.0, 2.0]))


class TestStructure:
    def test_identity_all_kinds(self):
        i = DualMatrix.identity(3)
        for kind in ("symmetric", "hermitian", "t_orthogonal", "unitary"):
            assert structure_check(i, kind, 0.0)

    def test_infinitesimal_rotation_is_hermitian(self):
        m = DualMatrix([[0, 0], [0, 0]], [[0, -1], [1, 0]])
        assert structure_residual(m, "hermitian") == 0.0
        assert structure_residual(m, "symmetric") == 2.0

    def test_shear_not_t_orthogonal(self):
        # M^T M = [[1, e], [e, 1]] != I
        m = DualMatrix([[1, 0], [0, 1]], [[0, 1], [0, 0]])
        assert not structure_check(m, "t_orthogonal", 1e-8)
        assert structure_residual(m, "t_orthogonal") == pytest.approx(1.0)

    def test_exact_isometries(self, rng):
        from conftest import random_isometry

        q = random_isometry(rng, 4, FLAVOR_T)
        assert structure_residual(q, "t_orthogonal") < 1e-14
        u = random_isometry(rng, 4, FLAVOR_STAR)
        assert structure_residual(u, "unitary") < 1e-14


class TestGramSchmidt:
    def test_classical_real_case(self):
        out = gram_schmidt([DualVector([1, 0]), DualVector([1, 1])], FLAVOR_T)
        assert np.allclose(out[0].std, [1, 0])
        assert np.allclose(out[1].std, [0, 1])

    def test_star_unit_vector_unchanged(self):
        v = DualVector([1, 0], [1, 0])
        out = gram_schmidt([v], FLAVOR_STAR)
        # <v, v> = 1 exactly, so v is already a unit vector.
        assert np.allclose(out[0].std, v.std)
        assert np.allclose(out[0].inf, v.inf)

    def test_t_unit_normalization(self):
        v = DualVector([1, 0], [1, 0])
        out = gram_schmidt([v], FLAVOR_T)
        # (v, v) = 1+2e, sqrt = 1+e, so v/(1+e) = (1, 0).
        assert np.allclose(out[0].std, [1, 0])
        assert np.allclose(out[0].inf, [0, 0])

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_gram_matrix_is_identity(self, rng, flavor):
        vs = random_vectors(rng, 6, 4)
        out = gram_schmidt(vs, flavor)
        for i, u in enumerate(out):
            for j, v in enumerate(out):
                g = form(u, v, flavor)
                want = Dual(1.0 if i == j else 0.0)
                assert (g - want).abs_max() < 1e-10

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_span_is_preserved(self, rng, flavor):
        # The output standard parts must span the same real subspace: the
        # change-of-basis solve has to reproduce the inputs' standard parts.
        vs = random_vectors(rng, 6, 4)
        out = gram_schmidt(vs, flavor)
        b_in = np.column_stack([v.std for v in vs])
        b_out = np.column_stack([v.std for v in out])
        coeff, *_ = np.linalg.lstsq(b_out, b_in, rcond=None)
        assert np.allclose(b_out @ coeff, b_in, atol=1e-9)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_dependent_inputs_raise(self, rng, flavor):
        vs = random_vectors(rng, 5, 3)
        vs.append(vs[0].copy())
        with pytest.raises(DegenerateInput):
            gram_schmidt(vs, flavor)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_eps_perturbed_dependent_raise(self, rng, flavor):
        # A dual-eps perturbation cannot rescue a dependent standard part.
        vs = random_vectors(rng, 5, 3)
        dup = vs[2].copy()
        dup.inf = dup.inf + rng.standard_normal(5)
        vs.append(dup)
        with pytest.raises(DegenerateInput):
            gram_schmidt(vs, flavor)

    def test_empty_input(self):
        assert gram_schmidt([], FLAVOR_T) == []

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_output_is_the_unique_dual_qr(self, rng, flavor):
        # With R_ij = form(v_j, q_i), the inputs are V = Q R.  Gram = I, R
        # upper triangular with std(R_jj) > 0, and (star) inf(R_jj) = 0 fix
        # Q uniquely, whatever algorithm computes it.
        for n in range(1, 9):
            for k in range(1, n + 1):
                vs = random_vectors(rng, n, k)
                out = gram_schmidt(vs, flavor)
                r = [[form(v, q, flavor) for v in vs] for q in out]
                for i in range(k):
                    for j in range(k):
                        g = form(out[j], out[i], flavor) - Dual(float(i == j))
                        assert g.abs_max() < 1e-10
                    for j in range(i):
                        assert r[i][j].abs_max() < 1e-10
                    assert r[i][i].std > 0
                    if flavor == FLAVOR_STAR:
                        assert abs(r[i][i].inf) < 1e-10 * max(1.0, r[i][i].std)

    def test_non_finite_input_raises(self):
        # np.linalg.qr passes NaN through silently.
        with pytest.raises(NonFiniteInput):
            gram_schmidt([DualVector([1, 0], [np.nan, 0])], FLAVOR_T)

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatch):
            gram_schmidt([DualVector([1.0, 0.0]), DualVector([0.0, 1.0, 0.0])], FLAVOR_T)
        with pytest.raises(DimensionMismatch):
            extend_orthonormal([DualVector([1.0, 0.0, 0.0])], 2, FLAVOR_T)


class TestExtend:
    def test_canonical_completion(self):
        for flavor in FLAVORS:
            out = extend_orthonormal([DualVector.basis(2, 0)], 2, flavor)
            assert len(out) == 2
            assert np.allclose(out[1].std, [0, 1])

    def test_empty_partial(self):
        out = extend_orthonormal([], 1, FLAVOR_T)
        assert np.allclose(out[0].std, [1.0])

    def test_star_extension_orthonormal(self):
        first = gram_schmidt([DualVector([1, 0], [1, 0])], FLAVOR_STAR)[0]
        out = extend_orthonormal([first], 2, FLAVOR_STAR)
        assert len(out) == 2
        w = out[1]
        assert star_form(w, first).abs_max() < 1e-12
        assert (star_form(w, w) - Dual(1)).abs_max() < 1e-12

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_partial_preserved_and_complete(self, rng, flavor):
        kind = "t_orthogonal" if flavor == FLAVOR_T else "unitary"
        for n in range(1, 9):
            for k in range(n + 1):
                vs = gram_schmidt(random_vectors(rng, n, k), flavor)
                out = extend_orthonormal(vs, n, flavor)
                assert len(out) == n
                for a, b in zip(vs, out):
                    assert (a - b).norm() == 0.0
                m = DualMatrix.from_columns(out, rows=n)
                assert structure_residual(m, kind) < 1e-10

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_empty_partial_gives_identity(self, flavor):
        out = extend_orthonormal([], 4, flavor)
        m = DualMatrix.from_columns(out, rows=4)
        assert (m - DualMatrix.identity(4)).norm() == 0.0

    def test_non_finite_partial_raises(self):
        with pytest.raises(NonFiniteInput):
            extend_orthonormal([DualVector([1, 0], [np.nan, 0])], 2, FLAVOR_T)

    def test_dependent_partial_raises(self, rng):
        v = DualVector(rng.standard_normal(4))
        with pytest.raises(DegenerateInput):
            extend_orthonormal([v, v], 4, FLAVOR_T)
