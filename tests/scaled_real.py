"""Floats with an unbounded power-of-two exponent, and the scalar Kummer M in them.

A reference for the tests only: the library reads every Kummer sum as floats
at a power-of-two offset and never builds a ScaledReal.  ``kummer_m`` wraps
the parts of ``specfun._series_parts`` in one, so values of size exp(z) for
z up to ~1e6 compare and combine without overflow.
"""

import math
from dataclasses import dataclass

import numpy as np

from magsteklov import numerics, specfun


@dataclass(frozen=True)
class ScaledReal:
    """A real number stored as mantissa * 2**exponent.

    The sign lives on the mantissa and |mantissa| is kept in [1, 2) unless
    the value is exactly zero.  This makes sums of positive series whose
    magnitude reaches exp(1e6) representable without overflow while keeping
    full double-precision resolution on the mantissa.
    """

    mantissa: float
    exponent: int = 0

    def __post_init__(self):
        m = self.mantissa
        if not math.isfinite(m):
            raise numerics.DomainError("ScaledReal mantissa must be finite")
        if m == 0.0:
            object.__setattr__(self, "exponent", 0)
            return
        frac, e = math.frexp(m)  # |frac| in [0.5, 1)
        object.__setattr__(self, "mantissa", frac * 2.0)
        object.__setattr__(self, "exponent", self.exponent + e - 1)

    @classmethod
    def from_float(cls, x: float) -> "ScaledReal":
        return cls(x, 0)

    @classmethod
    def exp(cls, x: float) -> "ScaledReal":
        """exp(x) for any |x| <~ 1e9, without float overflow or underflow: a one-lane split."""
        mantissa, exponent = numerics._exp_split(np.array([x]))
        return cls(mantissa.item(), exponent.item())

    def to_float(self) -> float:
        try:
            return math.ldexp(self.mantissa, self.exponent)
        except OverflowError:
            return math.copysign(math.inf, self.mantissa)

    __float__ = to_float

    @property
    def sign(self) -> int:
        if self.mantissa > 0.0:
            return 1
        if self.mantissa < 0.0:
            return -1
        return 0

    def __add__(self, other: "ScaledReal") -> "ScaledReal":
        if self.mantissa == 0.0:
            return other
        if other.mantissa == 0.0:
            return self
        hi, lo = (self, other) if self.exponent >= other.exponent else (other, self)
        shift = lo.exponent - hi.exponent
        if shift < -1100:  # the small term is below one ulp of the large one
            return hi
        return ScaledReal(hi.mantissa + math.ldexp(lo.mantissa, shift), hi.exponent)

    def __sub__(self, other: "ScaledReal") -> "ScaledReal":
        return self + (-other)

    def __neg__(self) -> "ScaledReal":
        return ScaledReal(-self.mantissa, self.exponent)

    def __abs__(self) -> "ScaledReal":
        return ScaledReal(abs(self.mantissa), self.exponent)

    def __mul__(self, other: "ScaledReal") -> "ScaledReal":
        return ScaledReal(self.mantissa * other.mantissa, self.exponent + other.exponent)

    def __truediv__(self, other: "ScaledReal") -> "ScaledReal":
        if other.mantissa == 0.0:
            raise ZeroDivisionError("division by zero ScaledReal")
        return ScaledReal(self.mantissa / other.mantissa, self.exponent - other.exponent)


def kummer_m(a: float, c: float, z: float) -> ScaledReal:
    """M(a, c, z) for z >= 0 from the library's termwise series, at its power-of-two offset.

    No argument is checked: the series raises ConvergenceError when its term
    budget runs out.
    """
    pos, offset, neg, _ = specfun._series_parts(float(a), float(c), float(z))
    return ScaledReal(pos - neg, offset)
