"""Shared numeric substrate.

Scaled power-of-two floats for overflow-free series summation, adaptive
quadrature on the half line and a bracketing root finder.  REL_TOL is the
one relative accuracy the package asks of its iterative routines; both
kernels here read it, and no function takes an accuracy argument.
Everything here is a pure function of its inputs and safe to call
concurrently.
"""

import math
import sys
from collections.abc import Callable
from dataclasses import dataclass

from scipy import integrate, optimize

EPS = sys.float_info.epsilon

__all__ = [
    "EPS",
    "BracketError",
    "ConvergenceError",
    "DomainError",
    "QuadratureError",
    "REL_TOL",
    "ScaledReal",
    "brent_root",
    "integrate_semi_infinite",
]


class DomainError(ValueError):
    """An argument lies outside the supported domain."""


class BracketError(ValueError):
    """The supplied interval does not bracket a sign change."""


class ConvergenceError(ArithmeticError):
    """An iteration failed to converge within its budget."""


class QuadratureError(ArithmeticError):
    """Adaptive quadrature could not reach the requested accuracy."""


# Relative accuracy of quadrature and root finding, the one accuracy of the package.
REL_TOL = 1e-13

# Absolute error floor, Brent iteration budget and QUADPACK subinterval cap.
_ABS_TOL = 1e-300
_MAX_ITER = 200
_QUAD_PANELS_MAX = 4096

# Cody-Waite split of ln 2; the high part has 31 trailing zero bits so that
# k * _LN2_HI is exact for |k| < 2**31.
_LN2_HI = float.fromhex("0x1.62e42p-1")
_LN2_LO = 4.7493250390316726e-07
_LOG2E = 1.4426950408889634


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
            raise DomainError("ScaledReal mantissa must be finite")
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
        """exp(x) for any |x| <~ 1e9, without float overflow or underflow."""
        if x == 0.0:
            return cls(1.0, 0)
        k = round(x * _LOG2E)
        r = (x - k * _LN2_HI) - k * _LN2_LO
        return cls(math.exp(r), k)

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


def integrate_semi_infinite(f: Callable[[float], float], decay_scale: float = 0.0) -> float:
    """Integral of f over (0, infinity) for Gaussian- or exponentially-decaying f.

    ``f`` may carry an integrable endpoint singularity t**p with p > -1 and
    must decay at least like exp(-t) beyond ``decay_scale``, e.g. any
    integrand bounded by exp(b*t - t**2/2) * t**p with b <= decay_scale.

    The half line is truncated at decay_scale + 48 (the discarded tail is
    below 1e-20 relative for exp(-t) decay, far smaller for Gaussian decay)
    and the remaining finite integral is handled by adaptive Gauss-Kronrod
    panels with breakpoints seeded around the region that carries the mass,
    to the relative accuracy REL_TOL.
    """
    peak = max(decay_scale, 0.0)
    upper = peak + 48.0
    seeds = sorted({0.25, 1.0, peak + 1.0, peak + 8.0, upper / 2.0})
    seeds = [p for p in seeds if 0.0 < p < upper]
    try:
        out = integrate.quad(
            f,
            0.0,
            upper,
            points=seeds,
            limit=_QUAD_PANELS_MAX,
            epsabs=_ABS_TOL,
            epsrel=REL_TOL,
            full_output=True,
        )
    except ValueError as exc:  # requested tolerance tighter than QUADPACK allows
        raise QuadratureError(str(exc)) from exc
    value, abserr = out[0], out[1]
    if len(out) > 3:  # quadpack gave up; accept only if the estimate is still good
        if abserr > max(100.0 * REL_TOL * abs(value), _ABS_TOL):
            raise QuadratureError(out[3])
    return value


def brent_root(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Root of f on [lo, hi], which must bracket a sign change.

    The root is located to the relative accuracy REL_TOL, which lies above
    the 4 eps floor of scipy's brentq.  Raises BracketError when f(lo) and
    f(hi) have the same sign and ConvergenceError if the iteration budget
    is exhausted.
    """
    if not lo < hi:
        raise BracketError(f"need lo < hi, got [{lo}, {hi}]")
    try:
        root, result = optimize.brentq(
            f,
            lo,
            hi,
            xtol=_ABS_TOL,
            rtol=REL_TOL,
            maxiter=_MAX_ITER,
            full_output=True,
            disp=False,
        )
    except ValueError as exc:
        raise BracketError(str(exc)) from exc
    if not result.converged:
        raise ConvergenceError(f"no convergence in {_MAX_ITER} iterations")
    return root
