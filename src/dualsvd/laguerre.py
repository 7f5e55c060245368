"""Laguerre (dual Moebius) transformations z -> (az + b)/(cz + d) and the
two-form classification of invertible 2x2 dual matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import Dual
from .errors import DimensionMismatch, NotInvertible, PoleAt
from .linalg import FLAVOR_STAR, DualMatrix, unit_scale
from .spectral import SpectralBlock, block_matrix
from .svd import svd

# A 2x2 rotation parameter below this (relative) size collapses to Form 1.
FORM_BOUNDARY_TOL = 1e-8


@dataclass
class LaguerreTransform:
    m: DualMatrix

    def __post_init__(self):
        if self.m.shape != (2, 2):
            raise DimensionMismatch(f"Laguerre transform needs a 2x2 matrix: {self.m.shape}")

    def det(self) -> Dual:
        a, b = self.m.entry(0, 0), self.m.entry(0, 1)
        c, d = self.m.entry(1, 0), self.m.entry(1, 1)
        return a * d - b * c


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
            s = block_matrix([SpectralBlock(float(x), 0.0, 1) for x in self.sigma])
            return self.u @ s @ self.v.star()
        return self.u @ block_matrix([SpectralBlock(self.sigma, self.sigma_prime, 2)])


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

    The split is read off the *-SVD m = U Sigma V*: two scalar blocks give
    Form 1 with u = U and v = V; one genuine 2x2 rotation block gives Form 2
    with u = U V*, since V Sigma V* = sigma I + eps*det(V0)*sigma'*J for the
    standard part V0 of V.  The work is done on m scaled by a power of two to
    unit norm.
    """
    c = unit_scale(t.m)
    m = t.m if c == 1.0 else DualMatrix(t.m.std / c, t.m.inf / c)
    det = LaguerreTransform(m).det()
    scale = m.norm()
    if abs(det.std) <= 1e-12 * scale * scale:
        raise NotInvertible("determinant is not appreciable")

    # Split tolerance 0: every singular value of an invertible m counts.
    r = svd(m, FLAVOR_STAR, 0.0)
    blk = r.blocks[0]
    if blk.size == 1:
        sigmas = tuple(c * b.sigma for b in r.blocks)
        return LaguerreClassification(1, r.u, sigmas, v=r.v)
    if abs(blk.sigma_prime) > FORM_BOUNDARY_TOL * scale:
        sp = blk.sigma_prime * float(np.sign(np.linalg.det(r.v.std)))
        return LaguerreClassification(2, r.u @ r.v.star(), c * blk.sigma, sigma_prime=c * sp)
    # Boundary: treat the rotation parameter as zero.
    u = m @ r.v @ DualMatrix(np.eye(2) / blk.sigma)
    return LaguerreClassification(1, u, (c * blk.sigma, c * blk.sigma), v=r.v)
