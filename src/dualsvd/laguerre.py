"""Laguerre (dual Moebius) transformations z -> (az + b)/(cz + d) and the
two-form classification of invertible 2x2 dual matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dual import Dual
from .errors import DimensionMismatch, NotInvertible, PoleAt
from .linalg import DualMatrix, unit_scale
from .spectral import SpectralBlock, block_matrix, star_spectral

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

    The split is read off the *-spectral shape of m* m: two scalar blocks give
    Form 1, a genuine 2x2 rotation block gives Form 2 (with the right unitary
    factor absorbed through sqrt(m* m), which is already in rotation form).
    The work is done on m scaled by a power of two to unit norm.
    """
    c = unit_scale(t.m)
    m = t.m if c == 1.0 else DualMatrix(t.m.std / c, t.m.inf / c)
    det = LaguerreTransform(m).det()
    scale = max(1.0, m.norm())
    if abs(det.std) <= 1e-12 * scale * scale:
        raise NotInvertible("determinant is not appreciable")

    w = m.star() @ m
    dec = star_spectral(w)
    two_blocks = [b for b in dec.blocks if b.size == 2]
    if two_blocks:
        blk = two_blocks[0]
        root = Dual(blk.sigma, blk.sigma_prime).sqrt()
        s, sp = root.std, root.inf
        if abs(sp) > FORM_BOUNDARY_TOL * scale:
            # sqrt(w) = v sqrt(Sigma) v*; with a doubly-degenerate standard
            # eigenvalue it is itself s*I + eps*sp*J, the Form 2 middle factor.
            # J commutes with it, so its inverse is that of the dual scalar.
            sqrt_w = block_matrix([SpectralBlock(s, sp, 2)])
            inv = root.inv()
            inv_sqrt_w = block_matrix([SpectralBlock(inv.std, inv.inf, 2)])
            # Align the eps*J orientation with the actual sqrt(w).
            actual = dec.v @ sqrt_w @ dec.v.star()
            if abs((actual - sqrt_w).norm()) > abs((actual - sqrt_w.conj()).norm()):
                sp = -sp
                sqrt_w = sqrt_w.conj()
                inv_sqrt_w = inv_sqrt_w.conj()
            u = m @ inv_sqrt_w
            return LaguerreClassification(2, u, c * s, sigma_prime=c * sp)
        # Boundary: treat the rotation parameter as zero.
        sigmas = (c * s, c * s)
        inv_s = DualMatrix(np.diag([1.0 / s, 1.0 / s]))
        u = m @ dec.v @ inv_s
        return LaguerreClassification(1, u, sigmas, v=dec.v)

    if any(b.sigma <= 0 for b in dec.blocks):
        raise NotInvertible("m* m has a non-positive spectral value")
    sig = [float(np.sqrt(b.sigma)) for b in dec.blocks]
    inv_s = DualMatrix(np.diag([1.0 / x for x in sig]))
    u = m @ dec.v @ inv_s
    return LaguerreClassification(1, u, tuple(c * x for x in sig), v=dec.v)
