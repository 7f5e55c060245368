"""Scalar arithmetic over the dual numbers a + b*eps, where eps**2 = 0."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NoSquareRoot, NotInvertible


@dataclass(frozen=True)
class Dual:
    """A dual number with standard part ``std`` and infinitesimal part ``inf``."""

    std: float
    inf: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "std", float(self.std))
        object.__setattr__(self, "inf", float(self.inf))

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "Dual | float") -> "Dual":
        other = _coerce(other)
        return Dual(self.std + other.std, self.inf + other.inf)

    __radd__ = __add__

    def __sub__(self, other: "Dual | float") -> "Dual":
        other = _coerce(other)
        return Dual(self.std - other.std, self.inf - other.inf)

    def __rsub__(self, other: "Dual | float") -> "Dual":
        return _coerce(other) - self

    def __neg__(self) -> "Dual":
        return Dual(-self.std, -self.inf)

    def __mul__(self, other: "Dual | float") -> "Dual":
        other = _coerce(other)
        return Dual(self.std * other.std, self.std * other.inf + self.inf * other.std)

    __rmul__ = __mul__

    def __truediv__(self, other: "Dual | float") -> "Dual":
        return self * _coerce(other).inv()

    def conj(self) -> "Dual":
        """Conjugation a + b*eps -> a - b*eps."""
        return Dual(self.std, -self.inf)

    def inv(self) -> "Dual":
        """Multiplicative inverse 1/a - eps*b/a**2; only appreciable duals have one."""
        if self.std == 0.0:
            raise NotInvertible("zero divisor: standard part is 0")
        a = self.std
        return Dual(1.0 / a, -self.inf / (a * a))

    def sqrt(self) -> "Dual":
        """Square root with positive standard part; requires std > 0."""
        if self.std <= 0.0:
            raise NoSquareRoot(f"no square root: standard part {self.std} <= 0")
        r = math.sqrt(self.std)
        return Dual(r, self.inf / (2.0 * r))

    # -- predicates and helpers --------------------------------------------

    def is_appreciable(self) -> bool:
        return self.std != 0.0

    def abs_max(self) -> float:
        """max(|std|, |inf|); NaN if either part is NaN."""
        a, b = abs(self.std), abs(self.inf)
        return a if a >= b or math.isnan(a) else b

    def __repr__(self) -> str:
        return f"{self.std}{self.inf:+}ε"


def _coerce(x) -> Dual:
    if isinstance(x, Dual):
        return x
    return Dual(float(x))


ZERO = Dual(0.0)
ONE = Dual(1.0)
EPS = Dual(0.0, 1.0)


def poly_eval(coeffs, x: Dual) -> Dual:
    """Evaluate a real polynomial at a dual point.

    ``coeffs`` are real coefficients in ascending order (coeffs[k] multiplies
    X**k); the empty list is the zero polynomial.  Uses the closed form
    F(a + b*eps) = F(a) + eps*b*F'(a).
    """
    a, b = x.std, x.inf
    f = 0.0
    fprime = 0.0
    for c in reversed(list(coeffs)):
        fprime = fprime * a + f
        f = f * a + float(c)
    return Dual(f, b * fprime)
