"""Dual matrices, the two forms, structure checks and Gram-Schmidt.  A set
of k dual vectors in D^n is the n x k matrix of their columns."""

import json

import numpy as np
import pytest

from dualsvd import (
    FLAVOR_STAR,
    FLAVOR_T,
    DegenerateInput,
    DimensionMismatch,
    Dual,
    DualMatrix,
    Flavor,
    NonFiniteInput,
    adjoint,
    extend_orthonormal,
    form,
    gram_schmidt,
    split_subspaces,
    star_form,
    structure_residual,
    svd,
    svd_invertible,
    t_form,
)
from conftest import FLAVORS, dual_abs_max, random_vectors


class TestMatrixOps:
    def test_mul_identity(self, rng):
        m = DualMatrix(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        assert ((m @ DualMatrix(np.eye(3))) - m).norm() == 0.0
        assert (m + (-m)).norm() == 0.0

    def test_eps_matrix_squares_to_zero(self):
        e = DualMatrix([[0.0]], [[1.0]])
        assert (e @ e).norm() == 0.0

    def test_star_fixed_point(self):
        m = DualMatrix([[0, 0], [0, 0]], [[0, -1], [1, 0]])
        assert (adjoint(m, FLAVOR_STAR) - m).norm() == 0.0

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
            DualMatrix(np.zeros((2, 3))) @ DualMatrix(np.zeros((2, 3)))
        with pytest.raises(DimensionMismatch):
            DualMatrix(np.zeros((2, 2))) + DualMatrix(np.zeros((3, 3)))
        with pytest.raises(DimensionMismatch):
            DualMatrix(np.zeros((2, 2))) - DualMatrix(np.zeros((3, 3)))

    def test_parts_must_be_2d(self):
        # A 1-D part is not read as a 1 x n row (nor as a column).
        for std, inf in (([3.0, 4.0], None), ([3.0, 4.0], [1.0, 0.0]), (5.0, None)):
            with pytest.raises(DimensionMismatch):
                DualMatrix(std, inf)
        with pytest.raises(DimensionMismatch):
            DualMatrix(np.eye(2), [1.0, 0.0])
        assert DualMatrix([[3.0], [4.0]], [[1.0], [0.0]]).shape == (2, 1)

    def test_scale_and_entry(self):
        m = DualMatrix([[2.0]], [[3.0]]) @ DualMatrix([[0.0]], [[1.0]])
        # (2+3e)*e = 2e
        assert m.entry(0, 0) == Dual(0, 2)

    def test_adjoint_flavors(self, rng):
        m = DualMatrix(rng.standard_normal((3, 3)), rng.standard_normal((3, 3)))
        assert (adjoint(m, FLAVOR_T) - m.T).norm() == 0.0
        assert (adjoint(m, FLAVOR_STAR) - DualMatrix(m.std.T, -m.inf.T)).norm() == 0.0

    @pytest.mark.parametrize("part", ["std", "inf"])
    @pytest.mark.parametrize("std_max", [4.0, 0.25])
    def test_norm_propagates_nan(self, part, std_max):
        # Python's max(x, nan) is x: the NaN must win whichever part holds it
        # and whichever part's finite entries are larger.
        std = np.array([[std_max, 0.0], [0.0, 0.1]])
        inf = np.array([[1.0, 0.0], [0.0, 0.1]])
        (std if part == "std" else inf)[1, 1] = np.nan
        assert np.isnan(DualMatrix(std, inf).norm())


class TestFlavor:
    def test_members_print_as_their_strings(self):
        assert str(FLAVOR_T) == "T" and f"{FLAVOR_STAR}" == "star"
        assert f"{FLAVOR_T:>3}" == "  T" and "%s" % FLAVOR_STAR == "star"
        assert json.dumps(FLAVOR_STAR) == '"star"'
        assert json.dumps({"flavor": FLAVOR_T}) == '{"flavor": "T"}'

    def test_lookup_by_string(self):
        assert Flavor("T") is FLAVOR_T and Flavor("star") is FLAVOR_STAR
        assert Flavor(FLAVOR_STAR) is FLAVOR_STAR
        assert FLAVOR_T == "T" and FLAVOR_STAR == "star"

    def test_members_carry_sign_and_kinds(self):
        assert (FLAVOR_T.sign, FLAVOR_T.isometry, FLAVOR_T.self_adjoint) == (
            1.0, "t_orthogonal", "symmetric")
        assert (FLAVOR_STAR.sign, FLAVOR_STAR.isometry, FLAVOR_STAR.self_adjoint) == (
            -1.0, "unitary", "hermitian")

    def test_result_flavor_is_the_member(self):
        r = svd(DualMatrix(np.eye(2)), "star")
        assert r.flavor == "star" and r.flavor is FLAVOR_STAR

    @pytest.mark.parametrize("flavor", ["Star", "t", "STAR", "", None])
    @pytest.mark.parametrize("entry", [
        svd, svd_invertible, split_subspaces, adjoint, gram_schmidt, extend_orthonormal,
        lambda m, flavor: form(m, m, flavor),
    ], ids=["svd", "svd_invertible", "split_subspaces", "adjoint", "gram_schmidt",
            "extend_orthonormal", "form"])
    def test_unknown_flavor_raises(self, entry, flavor):
        with pytest.raises(ValueError):
            entry(DualMatrix(np.eye(2)), flavor)


def vec(std, inf=None):
    """A dual vector as an n x 1 matrix."""
    std = np.asarray(std, dtype=float)[:, None]
    return DualMatrix(std, None if inf is None else np.asarray(inf, dtype=float)[:, None])


def with_column(a, std, inf):
    """``a`` with one more column appended."""
    return DualMatrix(np.column_stack([a.std, std]), np.column_stack([a.inf, inf]))


class TestForms:
    def test_t_form_values(self):
        u = vec([1, 0], [1, 0])
        # (1+e)^2 = 1+2e
        assert t_form(u, u).entry(0, 0) == Dual(1, 2)
        assert t_form(vec([1, 0]), vec([0, 1])).entry(0, 0) == Dual(0)
        e = vec([0.0], [1.0])
        assert t_form(e, e).entry(0, 0) == Dual(0)

    def test_star_form_values(self):
        u = vec([1, 0], [1, 0])
        # (1+e)(1-e) = 1
        assert star_form(u, u).entry(0, 0) == Dual(1, 0)
        e = vec([0.0], [1.0])
        assert star_form(e, e).entry(0, 0) == Dual(0)

    def test_pairwise_values(self, rng):
        # Entry (i, j) of the k x l result is the form of column i of u with
        # column j of v, as the per-vector formula gives it.
        u, v = random_vectors(rng, 5, 3), random_vectors(rng, 5, 2)
        for f, sign in ((FLAVOR_T, 1.0), (FLAVOR_STAR, -1.0)):
            g = form(u, v, f)
            assert g.shape == (3, 2)
            for i in range(3):
                for j in range(2):
                    std = u.std[:, i] @ v.std[:, j]
                    inf = sign * u.std[:, i] @ v.inf[:, j] + u.inf[:, i] @ v.std[:, j]
                    assert dual_abs_max(g.entry(i, j) - Dual(std, inf)) < 1e-13

    def test_star_form_conjugate_symmetry(self, rng):
        u, v = random_vectors(rng, 5, 3), random_vectors(rng, 5, 2)
        assert (adjoint(star_form(u, v), FLAVOR_STAR) - star_form(v, u)).norm() == 0.0

    def test_t_form_symmetry(self, rng):
        u, v = random_vectors(rng, 5, 3), random_vectors(rng, 5, 2)
        assert (t_form(u, v).T - t_form(v, u)).norm() == 0.0

    def test_length_mismatch(self):
        with pytest.raises(DimensionMismatch):
            t_form(vec([1.0]), vec([1.0, 2.0]))


class TestStructure:
    def test_identity_all_kinds(self):
        i = DualMatrix(np.eye(3))
        for kind in ("symmetric", "hermitian", "t_orthogonal", "unitary"):
            assert structure_residual(i, kind) == 0.0
        with pytest.raises(ValueError, match="unknown structure kind"):
            structure_residual(i, "orthogonal")

    def test_infinitesimal_rotation_is_hermitian(self):
        m = DualMatrix([[0, 0], [0, 0]], [[0, -1], [1, 0]])
        assert structure_residual(m, "hermitian") == 0.0
        assert structure_residual(m, "symmetric") == 2.0

    def test_shear_not_t_orthogonal(self):
        # M^T M = [[1, e], [e, 1]] != I
        m = DualMatrix([[1, 0], [0, 1]], [[0, 1], [0, 0]])
        assert structure_residual(m, "t_orthogonal") == pytest.approx(1.0)

    def test_exact_isometries(self, rng):
        from conftest import random_isometry

        q = random_isometry(rng, 4, FLAVOR_T)
        assert structure_residual(q, "t_orthogonal") < 1e-14
        u = random_isometry(rng, 4, FLAVOR_STAR)
        assert structure_residual(u, "unitary") < 1e-14


class TestGramSchmidt:
    def test_classical_real_case(self):
        out = gram_schmidt(DualMatrix([[1, 1], [0, 1]]), FLAVOR_T)
        assert np.allclose(out.std, np.eye(2))

    def test_star_unit_vector_unchanged(self):
        v = vec([1, 0], [1, 0])
        out = gram_schmidt(v, FLAVOR_STAR)
        # <v, v> = 1 exactly, so v is already a unit vector.
        assert np.allclose(out.std, v.std)
        assert np.allclose(out.inf, v.inf)

    def test_t_unit_normalization(self):
        out = gram_schmidt(vec([1, 0], [1, 0]), FLAVOR_T)
        # (v, v) = 1+2e, sqrt = 1+e, so v/(1+e) = (1, 0).
        assert np.allclose(out.std, [[1], [0]])
        assert np.allclose(out.inf, [[0], [0]])

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_gram_matrix_is_identity(self, rng, flavor):
        out = gram_schmidt(random_vectors(rng, 6, 4), flavor)
        assert (form(out, out, flavor) - DualMatrix(np.eye(4))).norm() < 1e-10

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_span_is_preserved(self, rng, flavor):
        # The output standard parts must span the same real subspace: the
        # change-of-basis solve has to reproduce the inputs' standard parts.
        vs = random_vectors(rng, 6, 4)
        b_in, b_out = vs.std, gram_schmidt(vs, flavor).std
        coeff, *_ = np.linalg.lstsq(b_out, b_in, rcond=None)
        assert np.allclose(b_out @ coeff, b_in, atol=1e-9)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_dependent_inputs_raise(self, rng, flavor):
        vs = random_vectors(rng, 5, 3)
        with pytest.raises(DegenerateInput):
            gram_schmidt(with_column(vs, vs.std[:, 0], vs.inf[:, 0]), flavor)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_eps_perturbed_dependent_raise(self, rng, flavor):
        # A dual-eps perturbation cannot rescue a dependent standard part.
        vs = random_vectors(rng, 5, 3)
        dup_inf = vs.inf[:, 2] + rng.standard_normal(5)
        with pytest.raises(DegenerateInput):
            gram_schmidt(with_column(vs, vs.std[:, 2], dup_inf), flavor)

    def test_more_vectors_than_dimensions_raise(self, rng):
        with pytest.raises(DegenerateInput):
            gram_schmidt(random_vectors(rng, 2, 3), FLAVOR_T)

    def test_empty_input(self):
        for flavor in FLAVORS:
            assert gram_schmidt(DualMatrix(np.zeros((3, 0))), flavor).shape == (3, 0)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_zero_vectors_raise(self, flavor):
        # The dependence floor is relative to ||A||, which is 0 here: a zero
        # diagonal of R0 must still fail it, not reach the triangular solve.
        for k in (1, 2):
            with pytest.raises(DegenerateInput):
                gram_schmidt(DualMatrix(np.zeros((3, k))), flavor)

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_output_is_the_unique_dual_qr(self, rng, flavor):
        # With R_ij = form(v_j, q_i), the inputs are V = Q R.  Gram = I, R
        # upper triangular with std(R_jj) > 0, and (star) inf(R_jj) = 0 fix
        # Q uniquely, whatever algorithm computes it.
        for n in range(1, 9):
            for k in range(1, n + 1):
                vs = random_vectors(rng, n, k)
                out = gram_schmidt(vs, flavor)
                g = form(out, out, flavor) - DualMatrix(np.eye(k))
                assert g.norm() < 1e-10
                r = form(vs, out, flavor).T
                low = np.tril_indices(k, -1)
                assert np.abs(r.std[low]).max(initial=0) < 1e-10
                assert np.abs(r.inf[low]).max(initial=0) < 1e-10
                r_std, r_inf = np.diag(r.std), np.diag(r.inf)
                assert (r_std > 0).all()
                if flavor == FLAVOR_STAR:
                    assert (np.abs(r_inf) < 1e-10 * np.maximum(1.0, r_std)).all()

    def test_non_finite_input_raises(self):
        # np.linalg.qr passes NaN through silently.
        with pytest.raises(NonFiniteInput):
            gram_schmidt(vec([1, 0], [np.nan, 0]), FLAVOR_T)


class TestExtend:
    def test_canonical_completion(self):
        for flavor in FLAVORS:
            out = extend_orthonormal(vec([1, 0]), flavor)
            assert out.shape == (2, 2)
            assert np.allclose(out.std[:, 1], [0, 1])

    def test_empty_partial(self):
        out = extend_orthonormal(DualMatrix(np.zeros((1, 0))), FLAVOR_T)
        assert np.allclose(out.std, [[1.0]])

    def test_star_extension_orthonormal(self):
        first = gram_schmidt(vec([1, 0], [1, 0]), FLAVOR_STAR)
        out = extend_orthonormal(first, FLAVOR_STAR)
        assert out.shape == (2, 2)
        w = DualMatrix(out.std[:, 1:], out.inf[:, 1:])
        assert star_form(w, first).norm() < 1e-12
        assert (star_form(w, w) - DualMatrix(np.eye(1))).norm() < 1e-12

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_partial_preserved_and_complete(self, rng, flavor):
        kind = "t_orthogonal" if flavor == FLAVOR_T else "unitary"
        for n in range(1, 9):
            for k in range(n + 1):
                vs = gram_schmidt(random_vectors(rng, n, k), flavor)
                out = extend_orthonormal(vs, flavor)
                assert out.shape == (n, n)
                assert (DualMatrix(out.std[:, :k], out.inf[:, :k]) - vs).norm() == 0.0
                assert structure_residual(out, kind) < 1e-10

    @pytest.mark.parametrize("flavor", FLAVORS)
    def test_empty_partial_gives_identity(self, flavor):
        out = extend_orthonormal(DualMatrix(np.zeros((4, 0))), flavor)
        assert (out - DualMatrix(np.eye(4))).norm() == 0.0

    def test_non_finite_partial_raises(self):
        with pytest.raises(NonFiniteInput):
            extend_orthonormal(vec([1, 0], [np.nan, 0]), FLAVOR_T)

    def test_dependent_partial_raises(self, rng):
        v = rng.standard_normal(4)
        with pytest.raises(DegenerateInput):
            extend_orthonormal(DualMatrix(np.column_stack([v, v])), FLAVOR_T)

    def test_non_orthonormal_partial_raises(self):
        # Independent but not orthonormal: completing it would return a
        # basis that is not an isometry.
        for p in (vec([2, 0]), DualMatrix(np.eye(3, 4))):
            for flavor in FLAVORS:
                with pytest.raises(DegenerateInput):
                    extend_orthonormal(p, flavor)

    def test_orthonormality_follows_the_form(self):
        # e1 + eps*e1 is star-orthonormal, <v, v> = 1, but (v, v) = 1 + 2eps.
        v = vec([1, 0], [1, 0])
        with pytest.raises(DegenerateInput):
            extend_orthonormal(v, FLAVOR_T)
        out = extend_orthonormal(v, FLAVOR_STAR)
        assert structure_residual(out, "unitary") < 1e-12
