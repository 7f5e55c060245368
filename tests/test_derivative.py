"""The eps part of a smooth factor is a derivative: f(A + eps*B) = f(A) +
eps*Df(A)[B].  Each test compares the eps part of a factor with the central
difference (f(A + hB) - f(A - hB)) / 2h of the real factor f, built from
numpy's real SVD alone: a reference from a different construction.

A central difference misses Df(A)[B] by its truncation error, about
h^2 ||B||^3 / s_min^2 here, plus the rounding of f, about eps/h.  Every
limit is a stated multiple of that sum, ``difference_error``, with ||B|| =
max|B| = 1 and s_min the smallest appreciable singular value of A.  The
multiples leave at least 100 times the largest error seen on these draws.

The eps parts of the T-SVD's singular values and ``t_spectral``'s
eigenvalues are compared with a one-sided Richardson difference instead,
2 D(h/2) - D(h) with D(t) = (f(A + tB) - f(A)) / t, of numpy's sorted real
values.  Inside a cluster of equal values the derivatives are the
eigenvalues of B compressed to the cluster, which only the sorted multiset
identifies, so each cluster is compared as one.
"""

import numpy as np
import pytest

from dualsvd import DualMatrix, pinv_t, svd, t_polar, t_spectral

H = 1e-5
SIZES = [3, 16, 64, 128]
# The largest error over difference_error in 20 draws per size (5 at n = 64
# and 128) was 1.7 for polar (n = 3) and 14 for the pseudoinverse, relative
# to max|X1| (n = 128).
POLAR_MULTIPLE = 200.0
PINV_MULTIPLE = 2000.0
# Richardson step, and limits on the largest error of sigma' and d'.  In 40
# draws per size and clustering (10 at n = 64 and 128) the largest errors were
# 1.3e-8 (sigma') and 5.2e-8 (d'), both at n = 128.  The values are evenly
# spaced: the difference's error grows as neighbouring values approach.
RICHARDSON_H = 1e-6
SIGMA_PRIME_LIMIT = 2e-6
D_PRIME_LIMIT = 2e-5


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


def planted(n, lo, hi, clustered):
    """n values evenly spaced from hi down to lo; clustered, the first three
    are equal, and so are the last four when n > 6."""
    s = np.linspace(hi, lo, n)
    if clustered:
        s[:3] = s[0]
        if n > 6:
            s[n - 4:] = s[n - 4]
    return s


def richardson(f, a, b):
    """f(A) and the Richardson difference 2 D(h/2) - D(h) of f at A along B."""
    f0 = f(a)

    def d(t):
        return (f(a + t * b) - f0) / t

    return f0, 2 * d(RICHARDSON_H / 2) - d(RICHARDSON_H)


def by_cluster(vals, ders, centres):
    """The derivatives grouped by the nearest planted value, each group sorted."""
    near = np.abs(vals[:, None] - centres[None, :]).argmin(axis=1)
    return np.concatenate([np.sort(ders[near == j]) for j in range(len(centres))])


@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_t_svd_sigma_prime_is_the_derivative(rng, n, clustered):
    s = planted(n, 0.5, 2.0, clustered)
    a, b = draw(rng, s)
    sig, sp, _ = svd(DualMatrix(a, b), "T").middle
    s0, ds = richardson(lambda t: np.linalg.svd(t, compute_uv=False), a, b)
    centres = np.unique(s)
    err = np.abs(by_cluster(sig, sp, centres) - by_cluster(s0, ds, centres)).max()
    assert err <= SIGMA_PRIME_LIMIT


@pytest.mark.parametrize("clustered", [False, True])
@pytest.mark.parametrize("n", SIZES)
def test_t_spectral_d_prime_is_the_derivative(rng, n, clustered):
    d = planted(n, -2.0, 2.0, clustered)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    g = rng.standard_normal((n, n))
    a, b = q @ np.diag(d) @ q.T, g + g.T
    a, b = (a + a.T) / 2, b / np.abs(b).max()
    dv, dp, _ = t_spectral(DualMatrix(a, b)).middle
    d0, dd = richardson(np.linalg.eigvalsh, a, b)
    centres = np.unique(d)
    err = np.abs(by_cluster(dv, dp, centres) - by_cluster(d0, dd, centres)).max()
    assert err <= D_PRIME_LIMIT
