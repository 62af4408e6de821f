"""40-digit mpmath references for the quantities the benchmark checks.

Every function here is independent of magsteklov: it uses only mpmath
(``hyp1f1`` for Kummer M, ``pcfd`` for D_nu, ``findroot`` for the roots), so
an error in the library cannot hide in its own reference.  Inputs are the
floats the program read or wrote; each is taken exactly, as a binary float.
"""

import functools
import math

from mpmath import findroot, hyp1f1, mp, mpf, pcfd, sqrt

mp.dps = 40

HALF = mpf(1) / 2


def rel_err(value, ref) -> float:
    """|value - ref| / max(|ref|, 1); the floor keeps zeros of ref harmless."""
    if isinstance(value, float) and not math.isfinite(value):
        return math.inf
    return float(abs(mpf(value) - ref) / max(abs(ref), 1))


def kummer_m(a: float, c: float, z: float):
    return hyp1f1(mpf(a), mpf(c), mpf(z))


def lambda_n(n: int, b: float):
    """n - b + 2b M'(1/2, n+1, b) / M(1/2, n+1, b), with M' = (a/c) M(a+1, c+1, .)."""
    b = mpf(b)
    if b == 0:
        return mpf(n)
    c = n + 1
    ratio = HALF / c * hyp1f1(HALF + 1, c + 1, b) / hyp1f1(HALF, c, b)
    return n - b + 2 * b * ratio


def z_n(n: int, start: float):
    """Zero of M(-1/2, n+1, z), polished from the program's own root."""
    return findroot(lambda z: hyp1f1(-HALF, n + 1, z), mpf(start))


def crossing_sign(mode: int, b: float) -> int:
    """Sign of M(-1/2, mode+1, b): positive iff b < z_mode."""
    value = hyp1f1(-HALF, mode + 1, mpf(b))
    return (value > 0) - (value < 0)


def is_active_mode(mode: int, b: float) -> bool:
    """True iff z_{mode-1} <= b <= z_mode, i.e. mode attains lambda_DN(b)."""
    if crossing_sign(mode, b) < 0:
        return False
    return mode == 0 or crossing_sign(mode - 1, b) <= 0


def cylinder_d(nu: float, z: float):
    """(D_nu(z), D'_nu(z)), the derivative from D'_nu = nu D_{nu-1} - (z/2) D_nu."""
    nu, z = mpf(nu), mpf(z)
    value = pcfd(nu, z)
    return value, nu * pcfd(nu - 1, z) - z / 2 * value


@functools.cache
def alpha():
    """Positive zero of x -> D_{1/2}(-x)."""
    return findroot(lambda x: pcfd(HALF, -x), mpf("0.765"))


def envelope_asymptote(b: float):
    a = alpha()
    return a * sqrt(mpf(b)) - (a * a + 2) / 6


def halfplane_multiplier(xi: float):
    """f1(xi) = -2 D'_{-1/2}(-xi) / D_{-1/2}(-xi)."""
    value, derivative = cylinder_d(-0.5, -xi)
    return -2 * derivative / value
