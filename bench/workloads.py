"""Seeded, fixed-size op lists for the three workloads.

Every list is built from the seed alone and has a fixed op count per cell
(kind x size x regime), so that ``ok_ratio`` and every per-op count repeat
exactly for a given seed and differ little between seeds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

import dualsvd
from dualsvd import DualMatrix
from verify import dnorm

REGIMES = ("generic", "rankdef", "pure_inf", "zero_lines")


def random_dual_matrix(rng, n, regime="generic", scale=1.0, rank=None, zeroed=None):
    """Draw a square dual matrix from one of the four sampling regimes.

    A copy of the test suite's generator, kept here so that editing the
    tests cannot change a workload.  ``rank`` (rankdef) and ``zeroed``
    (zero_lines) fix the regime's shape parameter instead of drawing it.
    """
    std = rng.standard_normal((n, n)) * scale
    inf = rng.standard_normal((n, n)) * scale
    if regime == "generic":
        return DualMatrix(std, inf)
    if regime == "rankdef":
        # Force a rank-deficient standard part via a low-rank product.
        r = rank if rank is not None else (rng.integers(0, n) if n > 1 else 0)
        left = rng.standard_normal((n, r)) if r else np.zeros((n, 0))
        right = rng.standard_normal((r, n)) if r else np.zeros((0, n))
        return DualMatrix(left @ right, inf)
    if regime == "pure_inf":
        return DualMatrix(np.zeros((n, n)), inf)
    if regime == "zero_lines":
        m = DualMatrix(std.copy(), inf.copy())
        k = zeroed if zeroed is not None else rng.integers(0, n + 1)
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


def symmetrize(m: DualMatrix, flavor: str) -> DualMatrix:
    """Symmetric (T) or Hermitian (star) part, times two."""
    sign = 1.0 if flavor == "T" else -1.0
    return DualMatrix(m.std + m.std.T, m.inf + sign * m.inf.T)


@dataclass
class Op:
    """One call into the library: ``kind`` names the entry point."""

    kind: str
    n: int
    regime: str
    m: DualMatrix
    norm: float


def _op(kind, n, regime, m) -> Op:
    return Op(kind, n, regime, m, dnorm((m.std, m.inf)))


def _strata(rng, count: int, lo: float, hi: float) -> np.ndarray:
    """``count`` values uniform on [lo, hi], one in each of ``count`` equal
    strata, in random order."""
    u = (rng.permutation(count) + rng.random(count)) / count
    return lo + (hi - lo) * u


# -- svd-sweep ---------------------------------------------------------------

# Ops per size.  Each size is split 1:3:1 over zero_lines, generic and
# rankdef, alternating the flavors.  A pass is short (about 3.7 s), so that
# a 30-second run has 8 passes to take each op's upper quartile from.  The
# percentiles sit well inside size classes, where the op costs are dense:
# the per-op median at the 11th of 16 ops at n=16 and the tail (p75 of 38)
# at the 4th-5th of 12 at n=32.  Op costs at n=32 spread from 0.7x to 1.2x
# of their median, so an edge of that class would move with the seed.
SWEEP_COUNTS = {8: 8, 16: 16, 32: 12, 64: 2}
SWEEP_MIX = ("zero_lines", "generic", "generic", "generic", "rankdef")


def svd_sweep(rng) -> list[Op]:
    ops = []
    for n, count in SWEEP_COUNTS.items():
        for j in range(count):
            regime = SWEEP_MIX[j % 5]
            flavor = ("T", "star")[j % 2]
            # Half rank and a quarter of the lines zeroed: with the drawn
            # parameter, a rank-0 or mostly-zero draw runs several times
            # faster than its neighbours, and the seed would move the timings.
            m = random_dual_matrix(rng, n, regime, rank=n // 2, zeroed=n // 4)
            ops.append(_op("svd-" + flavor, n, regime, m))
    return [ops[i] for i in rng.permutation(len(ops))]


# -- small-batch -------------------------------------------------------------

GENERAL_KINDS = ("svd-T", "svd-star", "t_polar", "pinv_t")
SPECTRAL_KINDS = {"t_spectral": "T", "star_spectral": "star"}
BATCH_SIZES = (2, 3, 4)
BATCH_PER_CELL = 16
SCALE_EXP = (-9.0, 9.0)


def _invertible_2x2(rng) -> DualMatrix:
    while True:
        m = random_dual_matrix(rng, 2, "generic")
        if np.linalg.cond(m.std) < 1e3:
            return m


def small_batch(rng) -> list[Op]:
    cells = []
    for n in BATCH_SIZES:
        for regime in REGIMES:
            cells += [(kind, n, regime) for kind in GENERAL_KINDS]
            cells += [(kind, n, regime) for kind in SPECTRAL_KINDS]
    # One classify cell per regime slot, so it weighs like one size of a kind.
    cells += [("classify", 2, "generic")] * len(REGIMES)
    ops = []
    for kind, n, regime in cells:
        for k in _strata(rng, BATCH_PER_CELL, *SCALE_EXP):
            if kind == "classify":
                m = _invertible_2x2(rng)
            else:
                m = random_dual_matrix(rng, n, regime)
                if kind in SPECTRAL_KINDS:
                    m = symmetrize(m, SPECTRAL_KINDS[kind])
            # Both parts are scaled, so each op is a unit-scale draw times
            # 10^k and only the library's scale-(in)variance is exercised.
            # (The generator's own ``scale`` leaves a rankdef standard part
            # unscaled.)
            c = 10.0 ** k
            ops.append(_op(kind, n, regime, DualMatrix(m.std * c, m.inf * c)))
    return [ops[i] for i in rng.permutation(len(ops))]


# -- cli-pipeline ------------------------------------------------------------

CLI_KINDS = GENERAL_KINDS + tuple(SPECTRAL_KINDS)
CLI_REGIMES = ("generic", "rankdef", "zero_lines")
# Ops per kind and size.  Interpreter start-up (~0.55 s of two processes)
# hides the step from n=8 to n=16, so both the per-op median and the tail
# are placed inside n=32, at least 8 ops from its edges.
CLI_COUNTS = {8: 1, 16: 1, 32: 5}


def cli_pipeline(rng) -> list[Op]:
    ops = []
    for n, count in CLI_COUNTS.items():
        for kind in CLI_KINDS:
            for j in range(count):
                regime = CLI_REGIMES[j % 3]
                m = random_dual_matrix(rng, n, regime)
                if kind in SPECTRAL_KINDS:
                    m = symmetrize(m, SPECTRAL_KINDS[kind])
                ops.append(_op(kind, n, regime, m))
    return [ops[i] for i in rng.permutation(len(ops))]


BUILDERS = {
    "svd-sweep": svd_sweep,
    "small-batch": small_batch,
    "cli-pipeline": cli_pipeline,
}


def make_ops(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](np.random.default_rng(seed))


# -- calling the library and reading its results ------------------------------


def call(kind: str, m: DualMatrix):
    """Run one op through the public API.  Names are looked up on the
    package at call time, so a traced run sees the wrapped functions."""
    if kind == "svd-T":
        return dualsvd.svd(m, "T")
    if kind == "svd-star":
        return dualsvd.svd(m, "star")
    if kind == "t_polar":
        return dualsvd.t_polar(m)
    if kind == "pinv_t":
        return dualsvd.pinv_t(m)
    if kind == "t_spectral":
        return dualsvd.t_spectral(m)
    if kind == "star_spectral":
        return dualsvd.star_spectral(m)
    if kind == "classify":
        return dualsvd.classify_transform(dualsvd.LaguerreTransform(m))
    raise ValueError(kind)


def _pair(m: DualMatrix):
    return m.std, m.inf


def factors(kind: str, r):
    """The result's factors as (std, inf) pairs, keyed as the verifier expects."""
    if kind in ("svd-T", "svd-star"):
        return {"u": _pair(r.u), "sigma": _pair(r.sigma), "v": _pair(r.v)}
    if kind == "t_polar":
        return {"u": _pair(r.u), "p": _pair(r.p)}
    if kind == "pinv_t":
        return None if r is None else {"pinv": _pair(r)}
    if kind in ("t_spectral", "star_spectral"):
        return {"v": _pair(r.v), "sigma": _pair(r.sigma_matrix())}
    if kind == "classify":
        if r.form == 1:
            sigma = (np.diag([float(s) for s in r.sigma]), np.zeros((2, 2)))
            return {"u": _pair(r.u), "sigma": sigma, "v": _pair(r.v)}
        sp = float(r.sigma_prime)
        sigma = (float(r.sigma) * np.eye(2), np.array([[0.0, -sp], [sp, 0.0]]))
        return {"u": _pair(r.u), "sigma": sigma, "v": (np.eye(2), np.zeros((2, 2)))}
    raise ValueError(kind)
