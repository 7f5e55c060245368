"""Scalar dual arithmetic: ring operations, inverse, square root and
polynomial evaluation."""

import math

import pytest
from hypothesis import given, strategies as st

from dualsvd import Dual, EPS, ONE, ZERO, NoSquareRoot, NotInvertible, poly_eval

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
duals = st.builds(Dual, finite, finite)


def close(x: Dual, y: Dual, tol=1e-12):
    return abs(x.std - y.std) <= tol and abs(x.inf - y.inf) <= tol


class TestRingOps:
    def test_mul_formula(self):
        # (1+2e)(3+4e) = 3 + (4+6)e
        assert Dual(1, 2) * Dual(3, 4) == Dual(3, 10)

    def test_additive_identity(self):
        x = Dual(2.5, -7.0)
        assert x + ZERO == x
        assert ZERO + x == x

    def test_conj_flips_inf(self):
        assert Dual(2, -5).conj() == Dual(2, 5)

    def test_eps_squares_to_zero(self):
        assert EPS * EPS == ZERO

    def test_float_coercion(self):
        assert Dual(1, 1) + 2 == Dual(3, 1)
        assert 2 - Dual(1, 1) == Dual(1, -1)
        assert 3 * Dual(1, 2) == Dual(3, 6)

    @given(duals, duals)
    def test_mul_commutes(self, x, y):
        assert x * y == y * x

    @given(duals, duals, duals)
    def test_mul_distributes(self, x, y, z):
        lhs = x * (y + z)
        rhs = x * y + x * z
        s = max(1.0, x.abs_max() * (y.abs_max() + z.abs_max()))
        assert close(lhs, rhs, 1e-9 * s)


class TestInverse:
    def test_formula(self):
        # 1/(2+6e) = 1/2 - 6e/4
        assert Dual(2, 6).inv() == Dual(0.5, -1.5)

    def test_identity(self):
        assert ONE.inv() == ONE

    def test_pure_infinitesimal_has_none(self):
        with pytest.raises(NotInvertible):
            EPS.inv()

    @given(st.builds(Dual, finite.filter(lambda a: abs(a) > 1e-3), finite))
    def test_inv_roundtrip(self, x):
        y = x * x.inv()
        assert close(y, ONE, 1e-12 * max(1.0, abs(x.inf / x.std)))


class TestSqrt:
    def test_exact_square(self):
        # (2+e)^2 = 4+4e
        assert Dual(4, 4).sqrt() == Dual(2, 1)

    def test_identity(self):
        assert ONE.sqrt() == ONE

    def test_pure_infinitesimal_has_none(self):
        with pytest.raises(NoSquareRoot):
            EPS.sqrt()
        with pytest.raises(NoSquareRoot):
            Dual(-1.0).sqrt()

    @given(
        st.builds(Dual, finite.filter(lambda a: a > 1e-6), finite)
    )
    def test_sqrt_squares_back(self, x):
        r = x.sqrt()
        assert r.std > 0
        tol = 1e-12 * max(1.0, x.abs_max()) * max(1.0, x.abs_max() / x.std)
        assert close(r * r, x, tol)


class TestPolyEval:
    def test_square(self):
        # F(X)=X^2 at 3+e: F(3)=9, F'(3)=6
        assert poly_eval([0, 0, 1], Dual(3, 1)) == Dual(9, 6)

    def test_constant(self):
        assert poly_eval([7.0], Dual(123, 456)) == Dual(7, 0)

    def test_cubic(self):
        # F(X)=X^3-2X at 2+3e: expand (2+3e)^3 - 2(2+3e) = 4 + 30e
        assert poly_eval([0, -2, 0, 1], Dual(2, 3)) == Dual(4, 30)

    def test_empty_is_zero(self):
        assert poly_eval([], Dual(5, 5)) == ZERO

    @given(
        st.lists(finite, max_size=6),
        st.builds(Dual, st.floats(-10, 10), st.floats(-10, 10)),
    )
    def test_matches_horner_oracle(self, coeffs, x):
        # Independent oracle: Horner on F and on the formal derivative.
        f = 0.0
        for c in reversed(coeffs):
            f = f * x.std + c
        fp = 0.0
        for k in range(len(coeffs) - 1, 0, -1):
            fp = fp * x.std + k * coeffs[k]
        got = poly_eval(coeffs, x)
        s = max(1.0, abs(f), abs(fp * x.inf))
        assert close(got, Dual(f, x.inf * fp), 1e-9 * s)


def test_repr_and_helpers():
    x = Dual(1.5, -2.0)
    assert x.is_appreciable()
    assert not EPS.is_appreciable()
    assert x.abs_max() == 2.0
    assert math.isclose((x / Dual(0.5)).std, 3.0)


@pytest.mark.parametrize("x", [Dual(1.0, math.nan), Dual(math.nan, 1.0)])
def test_abs_max_propagates_nan(x):
    # Python's max(1.0, nan) is 1.0: the NaN must win in either part.
    assert math.isnan(x.abs_max())
