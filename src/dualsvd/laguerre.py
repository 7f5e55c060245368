"""Laguerre (dual Moebius) transformations z -> (az + b)/(cz + d) and the
two-form classification of invertible 2x2 dual matrices, both decided by
the *-SVD's split and blocks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import Dual
from .errors import DimensionMismatch, PoleAt
from .linalg import FLAVOR_STAR, DualMatrix
from .spectral import middle_matrix
from .svd import svd_invertible


@dataclass
class LaguerreTransform:
    m: DualMatrix

    def __post_init__(self):
        if self.m.shape != (2, 2):
            raise DimensionMismatch(f"Laguerre transform needs a 2x2 matrix: {self.m.shape}")


@dataclass
class LaguerreClassification:
    """Either Form 1: m = u diag(sigmas) v*, with real sigmas, or
    Form 2: m = u [[sigma, -eps*sp], [eps*sp, sigma]] with sp != 0."""

    form: int
    u: DualMatrix
    sigma: tuple | float
    v: DualMatrix | None = None
    sigma_prime: float | None = None

    def reconstruct(self) -> DualMatrix:
        if self.form == 1:
            return self.u @ middle_matrix(self.sigma, np.zeros(2), np.ones(2)) @ self.v.star()
        s, sp = self.sigma, self.sigma_prime
        return self.u @ middle_matrix([s, s], np.array([sp, 0.0]), np.array([2, 0]))


def apply_transform(t: LaguerreTransform, z: Dual) -> Dual:
    """Evaluate (az + b) / (cz + d); the denominator must be appreciable."""
    a, b = t.m.entry(0, 0), t.m.entry(0, 1)
    c, d = t.m.entry(1, 0), t.m.entry(1, 1)
    den = c * z + d
    if not den.is_appreciable():
        raise PoleAt(f"denominator {den!r} is infinitesimal")
    return (a * z + b) * den.inv()


def classify_transform(t: LaguerreTransform) -> LaguerreClassification:
    """Classify an invertible 2x2 dual matrix into Yaglom's two normal forms.

    The Form is read off the blocks of the *-SVD m = U Sigma V* that
    ``svd_invertible`` returns: two scalar blocks give Form 1 with u = U and
    v = V; one 2x2 rotation block gives Form 2 with u = U V*, since
    V Sigma V* = sigma I + eps*det(V0)*sigma'*J for the standard part V0 of V.
    """
    r = svd_invertible(t.m, FLAVOR_STAR)
    blk = r.blocks[0]
    if blk.size == 1:
        return LaguerreClassification(1, r.u, tuple(r.middle[0].tolist()), v=r.v)
    sp = blk.sigma_prime * float(np.sign(np.linalg.det(r.v.std)))
    return LaguerreClassification(2, r.u @ r.v.star(), blk.sigma, sigma_prime=sp)
