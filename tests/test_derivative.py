"""The eps part of a smooth factor is a derivative: f(A + eps*B) = f(A) +
eps*Df(A)[B].  Each test compares the eps part of a factor with the central
difference (f(A + hB) - f(A - hB)) / 2h of the real factor f, built from
numpy's real SVD alone: a reference from a different construction.

A central difference misses Df(A)[B] by its truncation error, about
h^2 ||B||^3 / s_min^2 here, plus the rounding of f, about eps/h.  Every
limit is a stated multiple of that sum, ``difference_error``, with ||B|| =
max|B| = 1 and s_min the smallest appreciable singular value of A.  The
multiples leave at least 100 times the largest error seen on these draws.
"""

import numpy as np
import pytest

from dualsvd import DualMatrix, pinv_t, t_polar

H = 1e-5
SIZES = [3, 16, 64, 128]
# The largest error over difference_error in 20 draws per size (5 at n = 64
# and 128) was 1.7 for polar (n = 3) and 14 for the pseudoinverse, relative
# to max|X1| (n = 128).
POLAR_MULTIPLE = 200.0
PINV_MULTIPLE = 2000.0


def difference_error(s_min: float) -> float:
    return H**2 / s_min**2 + np.finfo(float).eps / H


def draw(rng, s):
    """A = Q1 diag(s) Q2^T for random orthogonal Q1, Q2, and B with max|B| = 1."""
    n = len(s)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    b = rng.standard_normal((n, n))
    return q1 @ np.diag(s) @ q2.T, b / np.abs(b).max()


def real_polar(a):
    """The polar factors U = W V^T and P = V S V^T of A = W S V^T."""
    w, s, vt = np.linalg.svd(a)
    return w @ vt, vt.T @ (s[:, None] * vt)


def truncated_pinv(a, k):
    """The pseudoinverse of A's best rank-k approximation."""
    w, s, vt = np.linalg.svd(a)
    return vt[:k].T @ (w[:, :k] / s[:k]).T


def central(f, a, b):
    """(f(A + hB) - f(A - hB)) / 2h, for each array that f returns."""
    plus, minus = f(a + H * b), f(a - H * b)
    return [(p - m) / (2 * H) for p, m in zip(plus, minus)]


@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_polar_eps_part_is_the_derivative(rng, n, clustered):
    # The polar factors of an invertible A are analytic in A, so an exact
    # triple cluster of singular values changes nothing.
    s = rng.uniform(0.5, 2.0, n)
    if clustered:
        s[:3] = 1.0
    a, b = draw(rng, s)
    pr = t_polar(DualMatrix(a, b))
    du, dp = central(real_polar, a, b)
    err = max(np.abs(pr.u.inf - du).max(), np.abs(pr.p.inf - dp).max())
    assert err <= POLAR_MULTIPLE * difference_error(s.min())


@pytest.mark.parametrize("n", SIZES)
def test_pinv_eps_part_is_the_derivative(rng, n):
    # Below full rank, B is projected so that (I - A A+) B (I - A+ A) = 0 and a
    # pseudoinverse exists.  A + tB can then gain rank at O(t^2), so the
    # reference is the pseudoinverse truncated to A's rank k.
    for k in sorted({n, n - 1, n // 2}, reverse=True):
        s = rng.uniform(0.5, 2.0, n)
        s[k:] = 0.0
        a, b = draw(rng, s)
        ap = np.linalg.pinv(a, rcond=1e-10)
        b -= (np.eye(n) - a @ ap) @ b @ (np.eye(n) - ap @ a)
        b /= np.abs(b).max()
        x = pinv_t(DualMatrix(a, b))
        (dx,) = central(lambda t: [truncated_pinv(t, k)], a, b)
        err = np.abs(x.inf - dx).max() / np.abs(dx).max()
        assert err <= PINV_MULTIPLE * difference_error(s[:k].min())
