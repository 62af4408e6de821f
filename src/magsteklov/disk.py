"""Magnetic Steklov spectrum of the unit disk at constant field.

With field strength 2b, the boundary map decomposes over Fourier modes and
the mode-n eigenvalue has the closed form

    lambda_n(b) = n - b + 2b M'(1/2, n+1, b) / M(1/2, n+1, b),   n >= 0,

while the full spectrum is {lambda_0(b)} together with the pairs
{lambda_n(b), lambda_n(-b)} for n >= 1.  The ground state energy is the
infimum over modes; it equals lambda_n exactly on the interval between the
consecutive crossing points z_{n-1} and z_n located by the intersect module.
The ratio M'/M comes from ``specfun.kummer_log_ratio`` on both branches,
which chooses between the Kummer series and the large-field expansion.
"""

import math
import operator
from dataclasses import dataclass

from .numerics import DomainError, ScaledReal
from .specfun import kummer_log_ratio, kummer_m, kummer_m_prime

__all__ = [
    "EigenCurvePoint",
    "EnvelopePoint",
    "active_mode",
    "curve_points",
    "envelope",
    "lambda_minus_n",
    "lambda_n",
    "lambda_n_prime",
    "lambda_n_prime_alt",
    "lambda_n_second_at_zprev",
    "radial_log_derivative",
    "radial_solution",
]


@dataclass(frozen=True)
class EigenCurvePoint:
    """One sample (mode, field parameter, eigenvalue) of a Steklov branch."""

    n: int
    b: float
    lam: float


@dataclass(frozen=True)
class EnvelopePoint:
    """Ground state energy at one field value, with the mode attaining it."""

    b: float
    active_mode: int
    lambda_dn: float


def _check_mode(n: int, minimum: int = 0) -> int:
    """The mode index as a plain int: any integer type except bool, at least ``minimum``."""
    try:
        index = operator.index(n)
    except TypeError:
        index = None
    if isinstance(n, bool) or index is None or index < minimum:
        raise DomainError(f"mode index must be an integer >= {minimum}, got {n!r}")
    return index


def lambda_n(n: int, b: float) -> float:
    """Branch eigenvalue lambda_n(b) for mode n >= 0, any real b with |b| <= 1e6."""
    n = _check_mode(n)
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got b={b!r}")
    if b == 0.0:
        return float(n)
    return n - b + 2.0 * b * kummer_log_ratio(0.5, n + 1.0, b)


def lambda_minus_n(n: int, b: float) -> float:
    """Eigenvalue of the reflected mode -n, which equals lambda_n(-b)."""
    return lambda_n(_check_mode(n, minimum=1), -b)


def radial_solution(n: int, b: float, r: float) -> float:
    """Bounded radial solution of the mode-n field equation on the disk.

    Proportional to exp(-b r^2/2) r^n L_{-1/2}^n(b r^2) and normalized so
    that v_n(r) ~ r^n at the center (divide the Laguerre factor by its
    value at 0, leaving exp(-b r^2/2) r^n M(1/2, n+1, b r^2)).  Assembled
    in ScaledReal so the Gaussian damping and the exp(b r^2)-sized Kummer
    factor cannot under- or overflow separately.
    """
    n = _check_mode(n)
    if not 0.0 < r <= 1.0:
        raise DomainError(f"radius must lie in (0, 1], got {r}")
    z = b * r * r
    kummer = kummer_m(0.5, n + 1.0, z).value
    return float(ScaledReal.exp(-0.5 * z) * ScaledReal.from_float(r**n) * kummer)


def radial_log_derivative(n: int, b: float) -> float:
    """v_n'(1) / v_n(1) from a one-sided second-order difference.

    A slow independent cross-check of lambda_n; it never feeds the fast
    path.  The stencil stays inside (0, 1] where the radial solution is
    defined.
    """
    h = 1e-6
    v0 = radial_solution(n, b, 1.0)
    v1 = radial_solution(n, b, 1.0 - h)
    v2 = radial_solution(n, b, 1.0 - 2.0 * h)
    if v0 == 0.0:
        raise DomainError("radial solution vanishes at the boundary")
    return (3.0 * v0 - 4.0 * v1 + v2) / (2.0 * h * v0)


def lambda_n_prime(n: int, z: float) -> float:
    """Closed-form derivative of lambda_n at z > 0, n >= 1.

    Product form: -2n M'(1/2, n+1, z) M(-1/2, n, z) / M(1/2, n+1, z)^2.
    Negative left of the crossing z_{n-1}, zero there, positive after.
    """
    n = _check_mode(n, minimum=1)
    if z <= 0.0:
        raise DomainError(f"need z > 0, got {z}")
    m = kummer_m(0.5, n + 1.0, z).value
    mp = kummer_m_prime(0.5, n + 1.0, z)
    mneg = kummer_m(-0.5, float(n), z).value
    return float(ScaledReal.from_float(-2.0 * n) * mp * mneg / (m * m))


def lambda_n_prime_alt(n: int, z: float) -> float:
    """Equivalent derivative formula, used as a cross-check on lambda_n_prime.

    Deficit form: M'(1/2,n+1,z) [M(1/2,n+1,z) - (2n+1) M(-1/2,n+1,z)] / M(1/2,n+1,z)^2.
    The two forms are linked by a contiguous relation of the Kummer family.
    """
    n = _check_mode(n, minimum=1)
    if z <= 0.0:
        raise DomainError(f"need z > 0, got {z}")
    m = kummer_m(0.5, n + 1.0, z).value
    mp = kummer_m_prime(0.5, n + 1.0, z)
    mneg = kummer_m(-0.5, n + 1.0, z).value
    bracket = m - ScaledReal.from_float(2.0 * n + 1.0) * mneg
    return float(mp * bracket / (m * m))


def lambda_n_second_at_zprev(n: int, z_prev: float | None = None) -> float:
    """Second derivative of lambda_n at its minimum z_{n-1}.

    Equals (z_{n-1} - n) / z_{n-1}, strictly positive.  When ``z_prev`` is
    not supplied, the crossing point is computed on demand.
    """
    n = _check_mode(n, minimum=1)
    if z_prev is None:
        from .intersect import find_zn  # deferred to avoid an import cycle

        z_prev = find_zn(n - 1).z_n
    return (z_prev - n) / z_prev


def _crossing_sign(mode: int, b: float) -> float:
    """Sign of M(-1/2, mode+1, b): positive iff b < z_mode."""
    return kummer_m(-0.5, mode + 1.0, b).value.sign


def active_mode(b: float, hint: int = 0) -> int:
    """Mode n whose branch realizes the ground state at field parameter b.

    That is the unique n with z_{n-1} <= b <= z_n (z_{-1} taken as 0, so
    mode 0 owns [0, z_0]).  Membership is decided by the sign of
    M(-1/2, n+1, b) alone, which flips exactly at z_n; starting from
    ``hint`` (or an asymptotic guess for large b) costs only a handful of
    sign evaluations.
    """
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got b={b!r}")
    if b < 0.0:
        raise DomainError(f"field parameter must be >= 0, got {b}")
    if b <= 1.0:  # z_0 ~ 1.58, mode 0 certainly active
        return 0
    guess = max(hint, int(b - 0.765 * math.sqrt(b)) - 1, 0)
    while guess > 0 and _crossing_sign(guess - 1, b) > 0.0:
        guess -= 1  # b < z_{guess-1}: guess sits above the active mode
    while _crossing_sign(guess, b) < 0.0:
        guess += 1  # b > z_guess: guess sits below the active mode
    return guess


def envelope(b_grid: list[float]) -> list[EnvelopePoint]:
    """Ground state energy along an ascending grid of field parameters.

    Output order matches the input grid.  Each point reports the active
    mode and lambda_dn = lambda_{active}(b); the active mode is
    non-decreasing along the grid and increases by exactly one at each
    crossing point.
    """
    points: list[EnvelopePoint] = []
    mode = 0
    prev_b = -math.inf
    for b in b_grid:
        if b < prev_b:
            raise DomainError("envelope grid must be sorted ascending")
        prev_b = b
        mode = active_mode(b, hint=mode)
        points.append(EnvelopePoint(b=b, active_mode=mode, lambda_dn=lambda_n(mode, b)))
    return points


def curve_points(n: int, b_values: list[float]) -> list[EigenCurvePoint]:
    """Samples of the branch lambda_n along a grid of field parameters."""
    return [EigenCurvePoint(n=n, b=b, lam=lambda_n(n, b)) for b in b_values]
