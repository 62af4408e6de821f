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
from .specfun import kummer_log_ratio, kummer_m

__all__ = [
    "EnvelopePoint",
    "active_mode",
    "envelope",
    "lambda_minus_n",
    "lambda_n",
]


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


def _crossing_m(mode: int, b: float) -> ScaledReal:
    """M(-1/2, mode+1, b): positive iff b < z_mode, zero at the crossing z_mode."""
    return kummer_m(-0.5, mode + 1.0, b).value


def active_mode(b: float, hint: int = 0) -> int:
    """Mode n whose branch realizes the ground state at field parameter b.

    That is the unique n with z_{n-1} <= b <= z_n (z_{-1} taken as 0, so
    mode 0 owns [0, z_0]).  Membership is decided by the sign of
    M(-1/2, n+1, b) alone, which flips exactly at z_n; starting from
    ``hint``, a mode index like ``n`` of lambda_n (or an asymptotic guess
    for large b), costs only a handful of sign evaluations.
    """
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got b={b!r}")
    if b < 0.0:
        raise DomainError(f"field parameter must be >= 0, got {b}")
    hint = _check_mode(hint)
    if b <= 1.0:  # z_0 ~ 1.58, mode 0 certainly active
        return 0
    guess = max(hint, int(b - 0.765 * math.sqrt(b)) - 1, 0)
    while guess > 0 and _crossing_m(guess - 1, b).sign > 0:
        guess -= 1  # b < z_{guess-1}: guess sits above the active mode
    while _crossing_m(guess, b).sign < 0:
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

