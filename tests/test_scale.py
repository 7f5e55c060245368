"""Scale equivariance of the entry points, and typed rejection of
non-finite input and of scales that float64 cannot represent.

Each entry point decomposes M scaled by a power of two to unit norm and
scales the results back, so for c = 2^k the isometries and forms of cM are
bit-identical to those of M and the singular and spectral values are
exactly c times M's.  For other c the invariants hold relative to ||cM||.
"""

import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from dualsvd import (
    FLAVOR_STAR,
    FLAVOR_T,
    DualMatrix,
    LaguerreTransform,
    NonFiniteInput,
    NotInvertible,
    NotSymmetric,
    OutOfRange,
    classify_transform,
    gram_schmidt,
    pinv_t,
    split_subspaces,
    star_spectral,
    svd,
    svd_invertible,
    t_polar,
    t_spectral,
)
from dualsvd.fileformat import parse_matrix
from conftest import (
    BACKEND_SCALES,
    REGIMES,
    as_svd,
    assert_invariants,
    random_dual_matrix,
    random_self_adjoint,
)


def draws(rng, kind):
    """Four inputs of a kind: one per regime for the general kinds."""
    if kind == "t_spectral":
        return [random_self_adjoint(rng, 4, FLAVOR_T) for _ in REGIMES]
    if kind == "star_spectral":
        return [random_self_adjoint(rng, 4, FLAVOR_STAR) for _ in REGIMES]
    if kind == "classify":
        return [random_dual_matrix(rng, 2, "generic") for _ in REGIMES]
    return [random_dual_matrix(rng, 4, regime) for regime in REGIMES]


def run(kind, m):
    if kind == "svd-T":
        return svd(m, FLAVOR_T)
    if kind == "svd-star":
        return svd(m, FLAVOR_STAR)
    if kind == "pinv_t":
        return pinv_t(m)
    if kind == "t_spectral":
        return t_spectral(m)
    if kind == "star_spectral":
        return star_spectral(m)
    return classify_transform(LaguerreTransform(m))


def fixed_and_scaled(kind, r):
    """(arrays that do not change with the scale of M, arrays that scale
    like M, exponent of that scaling)."""
    if kind.startswith("svd"):
        values = [(b.sigma, b.sigma_prime) for b in r.blocks]
        return [r.u.std, r.u.inf, r.v.std, r.v.inf], [r.sigma.std, r.sigma.inf, values], 1
    if kind == "pinv_t":
        return [], ([] if r is None else [r.std, r.inf]), -1
    if kind.endswith("spectral"):
        sigma = r.sigma_matrix()
        return [r.v.std, r.v.inf], [sigma.std, sigma.inf], 1
    fixed = [r.u.std, r.u.inf, np.array([r.form])]
    if r.form == 1:
        return fixed + [r.v.std, r.v.inf], [r.sigma], 1
    return fixed, [r.sigma, r.sigma_prime], 1


KINDS = ("svd-T", "svd-star", "pinv_t", "t_spectral", "star_spectral", "classify")


@pytest.mark.parametrize("kind", KINDS)
def test_power_of_two_scaling_is_exact(rng, kind):
    for m in draws(rng, kind):
        fixed, scaled, p = fixed_and_scaled(kind, run(kind, m))
        # Down to -1000 (at -1021 the entries of M themselves go subnormal)
        # and up to 1021, where c*||M|| is near the top of the range.
        for k in [*range(-30, 31), -1000, -600, 600, 1000, 1020, 1021]:
            c = 2.0**k
            r = run(kind, DualMatrix(m.std * c, m.inf * c))
            fixed_c, scaled_c, _ = fixed_and_scaled(kind, r)
            assert len(fixed_c) == len(fixed) and len(scaled_c) == len(scaled)
            for a, b in zip(fixed_c, fixed):
                assert np.array_equal(a, b)
            for a, b in zip(scaled_c, scaled):
                assert np.array_equal(np.asarray(a), np.asarray(b) * c**p)


@pytest.mark.parametrize("kind", KINDS)
def test_decimal_scaling_keeps_invariants(rng, kind):
    for m in draws(rng, kind):
        unit = run(kind, m)
        for k in range(-12, 13):
            c = 10.0**k
            mc = DualMatrix(m.std * c, m.inf * c)
            r = run(kind, mc)
            if r is not None:
                assert_invariants(mc, as_svd(r) if kind == "classify" else r, 1.0)
            if kind == "pinv_t":
                assert (r is None) == (unit is None)
            if kind == "classify":
                assert r.form == unit.form


ENTRY_POINTS = {
    "svd-T": lambda m: svd(m, FLAVOR_T),
    "svd-star": lambda m: svd(m, FLAVOR_STAR),
    "svd_invertible": lambda m: svd_invertible(m, FLAVOR_T),
    "split_subspaces": lambda m: split_subspaces(m, FLAVOR_STAR),
    "pinv_t": pinv_t,
    "t_spectral": t_spectral,
    "star_spectral": star_spectral,
    "classify": lambda m: classify_transform(LaguerreTransform(m)),
}


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("part", ["std", "inf"])
def test_non_finite_input_is_typed(name, bad, part):
    std = np.eye(2)
    inf = np.zeros((2, 2))
    (std if part == "std" else inf)[0, 0] = bad
    with pytest.raises(NonFiniteInput):
        ENTRY_POINTS[name](DualMatrix(std, inf))


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("part", ["std", "inf"])
def test_subnormal_norm_is_out_of_range(name, part):
    # Below the smallest normal number, results scaled back by c would round
    # into subnormals and miss M by far more than tol*||M||.
    std, inf = np.zeros((2, 2)), np.zeros((2, 2))
    (std if part == "std" else inf)[0, 0] = 5e-324
    with pytest.raises(OutOfRange, match="smallest normal"):
        ENTRY_POINTS[name](DualMatrix(std, inf))


def test_smallest_normal_norm_is_in_range():
    m = DualMatrix(sys.float_info.min * np.diag([1.0, 0.5]))
    assert_invariants(m, svd(m, FLAVOR_T), 1.0)


def test_pinv_of_a_subnormal_gaussian_is_out_of_range(rng):
    m = DualMatrix(1e-309 * rng.standard_normal((3, 3)), 1e-309 * rng.standard_normal((3, 3)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange):
            pinv_t(m)


def test_pinv_overflow_is_out_of_range_without_a_warning():
    # ||M|| = 1e-302 is normal, but X = diag(1e302, 1e309) is not finite.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="overflows"):
            pinv_t(DualMatrix(1e-302 * np.diag([1.0, 1e-7])))
        x = pinv_t(DualMatrix(1e-300 * np.diag([1.0, 1e-7])))
    assert np.allclose(x.std, np.diag([1e300, 1e307]), rtol=1e-15) and not x.inf.any()


def test_t_polar_near_the_top_of_the_range_is_finite():
    # sigma = 8.6e307 and 6.3e307.  P is formed at unit scale and scaled
    # back, range-tested; U1 Sigma, which overflowed to +-inf, is not formed.
    m = parse_matrix((Path(__file__).parent / "data" / "product_overflow_2x2.json").read_text())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pr = t_polar(m)
        assert all(np.isfinite(a).all() for a in (pr.u.std, pr.u.inf, pr.p.std, pr.p.inf))
        assert (pr.u @ pr.p - m).norm() <= 1e-8 * m.norm()


def test_t_polar_overflow_is_out_of_range_without_a_warning():
    # A/c is below the split, so k = 0 and P1 = sqrt(2) * 1.7e308 * I.
    m = DualMatrix(1e300 * np.eye(2), 1.7e308 * np.array([[1.0, -1.0], [1.0, 1.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(OutOfRange, match="overflows"):
            t_polar(m)


@pytest.mark.parametrize("n", range(4))
def test_zero_matrix(n):
    """||M|| = 0 leaves nothing to scale by: identity isometries, zero middle
    factors, a zero pseudoinverse, and no Laguerre classification."""
    z = DualMatrix(np.zeros((n, n)))

    def identity(q):
        return np.array_equal(q.std, np.eye(n)) and not q.inf.any()

    def zero(a):
        return a.shape == (n, n) and not (a.std.any() or a.inf.any())

    for flavor in (FLAVOR_T, FLAVOR_STAR):
        r = svd(z, flavor)
        assert identity(r.u) and identity(r.v) and zero(r.sigma)
    for dec in (t_spectral(z), star_spectral(z)):
        assert identity(dec.v) and zero(dec.sigma_matrix())
    assert zero(pinv_t(z))
    polar = t_polar(z)
    assert identity(polar.u) and zero(polar.p)
    with pytest.raises(NotInvertible):
        classify_transform(LaguerreTransform(DualMatrix(np.zeros((2, 2)))))


@pytest.mark.parametrize("c", BACKEND_SCALES)
def test_sym_eig_rejects_a_small_asymmetric_matrix(c):
    # sym_eig takes its input as symmetric; t_spectral checks A before it
    # reaches sym_eig, against ||M||, so a tiny asymmetric A is still caught.
    with pytest.raises(NotSymmetric):
        t_spectral(DualMatrix(c * np.array([[1.0, 0.5], [0.0, 1.0]])))


@pytest.mark.parametrize("c", BACKEND_SCALES)
@pytest.mark.parametrize("flavor", (FLAVOR_T, FLAVOR_STAR))
def test_gram_schmidt_accepts_a_small_basis(c, flavor):
    q = gram_schmidt(DualMatrix(c * np.eye(2)), flavor)
    assert (q - DualMatrix(np.eye(2))).norm() < 1e-15


@pytest.mark.parametrize("k", [-30, 0, 30])
@pytest.mark.parametrize("mu, rotates", [(2e-9, True), (5e-10, False)])
def test_star_rotation_cutoff_is_relative_to_the_norm(k, mu, rotates):
    # M = 2^k (I + eps*mu*J) has ||M|| = 2^k.  A rotation parameter above
    # 1e-9*||M|| is one 2x2 block with sigma' = 2^k*mu; one below it leaves
    # two scalar blocks, at every k.
    c = 2.0**k
    m = DualMatrix(c * np.eye(2), c * mu * np.array([[0.0, -1.0], [1.0, 0.0]]))
    for r in (star_spectral(m), svd(m, FLAVOR_STAR)):
        if rotates:
            (b,) = r.blocks
            assert (b.sigma, b.size) == (c, 2)
            assert b.sigma_prime == pytest.approx(c * mu, rel=1e-12)
        else:
            assert [(b.sigma, b.sigma_prime, b.size) for b in r.blocks] == [(c, 0.0, 1)] * 2
