"""Shared random generators for the test suite.

All randomness is seeded per test so failures reproduce exactly.
"""

import numpy as np
import pytest

from dualsvd import (
    FLAVOR_STAR,
    FLAVOR_T,
    DualMatrix,
    SvdResult,
    factors_of,
    invariants,
    star_spectral,
    t_spectral,
)
from dualsvd.cli import KIND_FACTORS
from dualsvd.linalg import unit_scale
from dualsvd.svd import DEFAULT_SPLIT_TOL, svd

# Gram-Schmidt and the spectral symmetry precondition judge a matrix against
# its own norm, so a tiny input is read as the same input at unit scale.
BACKEND_SCALES = [1.0, 1e-6, 1e-12]
FLAVORS = (FLAVOR_T, FLAVOR_STAR)
# The sampling regimes of ``random_dual_matrix``.
REGIMES = ("generic", "rankdef", "pure_inf", "zero_lines")
# The spectral decomposition of each flavor.
SPECTRAL = {FLAVOR_T: t_spectral, FLAVOR_STAR: star_spectral}


def random_dual_matrix(rng, n, regime="generic"):
    """Draw a square dual matrix from one of the four sampling regimes."""
    std = rng.standard_normal((n, n))
    inf = rng.standard_normal((n, n))
    if regime == "generic":
        return DualMatrix(std, inf)
    if regime == "rankdef":
        # Force a rank-deficient standard part via a low-rank product.
        r = rng.integers(0, n) if n > 1 else 0
        left = rng.standard_normal((n, r)) if r else np.zeros((n, 0))
        right = rng.standard_normal((r, n)) if r else np.zeros((0, n))
        return DualMatrix(left @ right, inf)
    if regime == "pure_inf":
        return DualMatrix(np.zeros((n, n)), inf)
    if regime == "zero_lines":
        m = DualMatrix(std.copy(), inf.copy())
        k = rng.integers(0, n + 1)
        rows = rng.choice(n, size=k, replace=False)
        for i in rows:
            if rng.random() < 0.5:
                m.std[i, :] = 0.0
                m.inf[i, :] = 0.0
            else:
                m.std[:, i] = 0.0
                m.inf[:, i] = 0.0
        return m
    raise ValueError(regime)


def random_self_adjoint(rng, n, flavor):
    """A symmetric (T) or Hermitian (star) dual matrix."""
    std = rng.standard_normal((n, n))
    inf = rng.standard_normal((n, n))
    return DualMatrix(std + std.T, inf + flavor.sign * inf.T)


def random_degenerate_self_adjoint(rng, n, flavor):
    """A symmetric (T) or Hermitian (star) dual matrix whose standard part
    has a repeated eigenvalue, so that the star decomposition must produce
    a genuine 2x2 rotation block."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    lam = np.sort(rng.standard_normal(n))[::-1]
    if n >= 2:
        lam[1] = lam[0]
    inf = rng.standard_normal((n, n))
    return DualMatrix(q @ np.diag(lam) @ q.T, inf + flavor.sign * inf.T)


def random_input(rng, n, kind, regime="generic"):
    """An n x n input that meets a CLI kind's precondition: for a spectral
    kind, a self-adjoint matrix of its flavor with a repeated eigenvalue (a
    star 2x2 block); for the others, a draw from ``regime``."""
    if kind.endswith("spectral"):
        return random_degenerate_self_adjoint(rng, n, KIND_FACTORS[kind][0])
    return random_dual_matrix(rng, n, regime)


def random_isometry(rng, n, flavor):
    """An exact isometry Q (I + eps C): Q real orthogonal, and C skew for the
    T form or symmetric for the star form, so the defect is exactly zero."""
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    c = rng.standard_normal((n, n))
    c = (c - c.T) if flavor == FLAVOR_T else (c + c.T)
    return DualMatrix(q) @ DualMatrix(np.eye(n), c)


def random_vectors(rng, n, k):
    """k random dual vectors in D^n, as the columns of an n x k matrix; each
    vector draws its standard part, then its infinitesimal part."""
    parts = rng.standard_normal((k, 2, n))
    return DualMatrix(parts[:, 0].T, parts[:, 1].T)


def block_matrix_loop(blocks) -> DualMatrix:
    """The middle factor of a block list, entry by entry: the reference
    that ``sigma``, ``sigma_matrix()`` and
    ``LaguerreClassification.reconstruct`` are compared against."""
    n = sum(b.size for b in blocks)
    out = DualMatrix(np.zeros((n, n)))
    p = 0
    for b in blocks:
        out.std[p, p] = out.std[p + b.size - 1, p + b.size - 1] = b.sigma
        if b.size == 1:
            out.inf[p, p] = b.sigma_prime
        else:
            out.inf[p, p + 1] = -b.sigma_prime
            out.inf[p + 1, p] = b.sigma_prime
        p += b.size
    return out


def middle_pairs(r) -> list:
    """The (sigma, sigma') of each index of a result's middle factor, read
    from ``middle``: for T, the diagonal of Sigma."""
    return list(zip(r.middle[0].tolist(), r.middle[1].tolist()))


def skew_block_matrix(q, mus) -> np.ndarray:
    """The block-diagonal S of ``skew_block_diag``'s (q, mus), A = q S q^T:
    2x2 blocks [[0, -mu], [mu, 0]], then zeros."""
    n = len(q)
    s = np.zeros((n, n))
    for i, mu in enumerate(mus):
        s[2 * i, 2 * i + 1] = -mu
        s[2 * i + 1, 2 * i] = mu
    return s


def pinv_diag_reference(m):
    """``pinv_t(m)`` without its Penrose self-check, built as the
    product V Sigma^+ U^T of the T-SVD's factors, with Sigma^+ the diagonal
    matrix 1/sigma - eps*sigma'/sigma^2: the route that ``pinv_t``'s closed
    form replaced, kept as its reference.  ``m`` is scaled to unit norm
    before the SVD, so the SVD's own scaling leaves it as it is."""
    ms, c, scale = unit_scale(m)
    r = svd(ms, FLAVOR_T)
    k = np.count_nonzero(r.middle[0])
    a, b = r.middle[:2]
    if (np.abs(b[k:]) > DEFAULT_SPLIT_TOL * scale).any():
        return None
    x_std, x_inf = np.zeros_like(a), np.zeros_like(a)
    x_std[:k] = 1.0 / a[:k]
    x_inf[:k] = -b[:k] / (a[:k] * a[:k])
    x = r.v @ DualMatrix(np.diag(x_std), np.diag(x_inf)) @ r.u.T
    return x if c == 1.0 else DualMatrix(x.std / c, x.inf / c)


def assert_invariants(m, r, f):
    """Every invariant of r within f times its limit.  A product, not a
    ratio: the zero matrix's limits are 0."""
    for name, res, lim in invariants(m, *factors_of(r)):
        assert res <= f * lim, f"{name}: {res:.3e} above {f} * {lim:.3e}"


def as_svd(c):
    """A classification as the *-SVD it states: Form 1 is u diag(sigmas) v*,
    Form 2 is u Sigma I* with Sigma one 2x2 block."""
    if c.form == 1:
        return SvdResult(c.u, c.v, FLAVOR_STAR, (np.array(c.sigma), np.zeros(2), np.ones(2, int)))
    mid = np.array([c.sigma, c.sigma]), np.array([c.sigma_prime, 0.0]), np.array([2, 0])
    return SvdResult(c.u, DualMatrix(np.eye(2)), FLAVOR_STAR, mid)


def check_result(m, r, f=0.1):
    """Every invariant of an SVD or spectral result within f times its limit
    (f = 0.1: 1e-9 for an isometry, 1e-9*||M|| for the rest), and the blocks
    that the flavor allows, which the verdict does not judge: size 1 only for
    T; for star, sizes 1 or 2 adding up to n, with sigma' != 0 on each 2x2
    block."""
    assert_invariants(m, r, f)
    if r.flavor == FLAVOR_T:
        assert [b.size for b in r.blocks] == [1] * m.shape[0]
    else:
        assert all(b.size == 1 or b.size == 2 and b.sigma_prime != 0.0 for b in r.blocks)
        assert sum(b.size for b in r.blocks) == m.shape[0]


def dual_abs_max(x) -> float:
    """max(|std|, |inf|) of a Dual."""
    return max(abs(x.std), abs(x.inf))


def cluster_runs_vectorized(vals, limit):
    """The (start, stop) runs of neighbours of a descending sequence at most
    ``limit`` apart, found by differencing a mask: the reference that the
    library's one-pass ``_cluster_runs`` is compared against."""
    close = vals[:-1] - vals[1:] <= limit
    if not close.any():
        return []
    edges = np.flatnonzero(np.diff(np.concatenate(([0], close, [0])))).tolist()
    return [(i, j + 1) for i, j in zip(edges[::2], edges[1::2])]


def corrector_loop(bt, s, flavor):
    """The SVD's first-order corrector (Omega_U, Omega_V), entry by entry:
    the reference that the library's kernel is compared against.  B~ = bt is
    resolved in its clusters, whose singular values s are exactly equal.
    Across clusters the pair (i, j), (j, i) is a 2x2 system with determinant
    s_j^2 - s_i^2 and numerators B~_ij s_j - f B~_ji s_i (Omega_U) and
    s_i B~_ij - f B~_ji s_j (Omega_V), f = -1 for T and +1 for star.  Inside
    an appreciable cluster only Omega_U - Omega_V = (B~_ij + f B~_ji) / (2 s_i)
    is fixed, and the two take half each: Omega_U = -Omega_V =
    (B~_ij + f B~_ji) / (4 s_i).  Inside the zero cluster both are 0."""
    f = 1.0 if flavor == "star" else -1.0
    n = len(s)
    om_u, om_v = np.zeros((n, n)), np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if s[i] != s[j]:
                det = s[j] ** 2 - s[i] ** 2
                om_u[i, j] = (bt[i, j] * s[j] - f * bt[j, i] * s[i]) / det
                om_v[i, j] = (s[i] * bt[i, j] - f * bt[j, i] * s[j]) / det
            elif s[i] > 0.0:
                om_u[i, j] = 0.25 * (bt[i, j] + f * bt[j, i]) / s[i]
                om_v[i, j] = -om_u[i, j]
    return om_u, om_v


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
