"""Magnetic Steklov spectrum of the unit disk at constant field.

With field strength 2b, the boundary map decomposes over Fourier modes and
the mode-n eigenvalue has the closed form

    lambda_n(b) = n - b + 2b R_n(b),   R_n = M'(1/2, n+1, b) / M(1/2, n+1, b),   n >= 0,

while the full spectrum is {lambda_0(b)} together with the pairs
{lambda_n(b), lambda_n(-b)} for n >= 1.  The ratio R_n comes from
``specfun.kummer_log_ratio`` on both branches, which chooses between the
Kummer series and the large-field expansion.

The ground state energy is the infimum over modes; it equals lambda_n
exactly on the interval between the consecutive crossing points z_{n-1}
and z_n located by the intersect module.  Which interval holds b is read
off the same ratio: DLMF 13.3.1 with a = 1/2 and z M' = a (M(a+1) - M(a))
(DLMF 13.3) give

    M(-1/2, n+1, b) / M(1/2, n+1, b) = (lambda_n(b) + n + 1 - b) / (2n + 1),

so b <= z_n iff n + 1/2 - b + b R_n >= 0.  The ratios of lower modes follow
from the down-step in c of the same section, with R(c) = M'/M(a, c, b),
a = 1/2 and R_n = R(n+1),

    R(c-1) = 1 - (c-1-a) / (c-1 + b R(c)),

which is the stable direction: M(a, c, b) is the minimal solution of its
recurrence as c grows.
"""

import math
import operator
from dataclasses import dataclass

from .numerics import DomainError
from .specfun import kummer_log_ratio

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


def _branch(n: int, b: float, ratio: float) -> float:
    """lambda_n(b) from the ratio R_n(b) = M'/M(1/2, n+1, b)."""
    return n - b + 2.0 * b * ratio


def lambda_n(n: int, b: float) -> float:
    """Branch eigenvalue lambda_n(b) for mode n >= 0, any real b with |b| <= 1e6."""
    n = _check_mode(n)
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got b={b!r}")
    if b == 0.0:
        return float(n)
    return _branch(n, b, kummer_log_ratio(0.5, n + 1.0, b))


def lambda_minus_n(n: int, b: float) -> float:
    """Eigenvalue of the reflected mode -n, which equals lambda_n(-b)."""
    return lambda_n(_check_mode(n, minimum=1), -b)


# alpha of z_n = n + alpha sqrt(n) + (alpha^2+2)/3 + O(n^{-1/2}), to the
# digits a starting guess needs; the search corrects any start
_ALPHA_GUESS = 0.765
_OFFSET_GUESS = (_ALPHA_GUESS * _ALPHA_GUESS + 2.0) / 3.0


def _start_mode(b: float) -> int:
    """Smallest n with n + alpha sqrt(n) + (alpha^2+2)/3 >= b, for b > 1."""
    x = 0.5 * (-_ALPHA_GUESS + math.sqrt(_ALPHA_GUESS * _ALPHA_GUESS + 4.0 * (b - _OFFSET_GUESS)))
    return math.ceil(x * x)


def _ground_state(b: float, hint: int) -> tuple[int, float]:
    """(active mode, lambda_DN) at field parameter b, searched from ``hint``.

    One ratio R is computed fresh at start = max(hint, guess).  If
    b <= z_start, lower modes are tested with ratios stepped down in c;
    otherwise the mode moves up with a fresh ratio at each step, since
    stepping R up in c is unstable.  lambda is the branch of the last fresh
    ratio when the search ends at that ratio's mode, and lambda_n of the
    mode otherwise: a stepped ratio loses digits to the cancellation in
    1 - (c-1-a)/(c-1 + b R).
    """
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got b={b!r}")
    if b < 0.0:
        raise DomainError(f"field parameter must be >= 0, got b={b}")
    hint = _check_mode(hint)
    if b <= 1.0:  # z_0 ~ 1.58, mode 0 certainly active
        return 0, lambda_n(0, b)
    mode = max(hint, _start_mode(b))
    ratio = kummer_log_ratio(0.5, mode + 1.0, b)
    if mode + 0.5 - b + b * ratio >= 0.0:  # b <= z_mode: the active mode is mode or below
        start = mode
        stepped = ratio
        while mode > 0:
            stepped = 1.0 - (mode - 0.5) / (mode + b * stepped)  # R_{mode-1} from R_mode
            if mode - 0.5 - b + b * stepped <= 0.0:  # b >= z_{mode-1}
                break
            mode -= 1
        if mode < start:
            return mode, lambda_n(mode, b)
    else:
        while True:  # b > z_mode: the active mode is above
            mode += 1
            ratio = kummer_log_ratio(0.5, mode + 1.0, b)
            if mode + 0.5 - b + b * ratio >= 0.0:
                break
    return mode, _branch(mode, b, ratio)


def active_mode(b: float, hint: int = 0) -> int:
    """Mode n whose branch realizes the ground state at field parameter b.

    That is the unique n with z_{n-1} <= b <= z_n (z_{-1} taken as 0, so
    mode 0 owns [0, z_0]).  Membership is decided by the sign of
    lambda_n(b) + n + 1 - b, which flips exactly at z_n (module docstring):
    one branch ratio is computed at max(hint, guess), where ``hint`` is a
    mode index such as that of a smaller b, and the signs of lower modes
    come from ratios stepped down in c (DLMF 13.3).
    """
    return _ground_state(b, hint)[0]


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
        mode, lambda_dn = _ground_state(b, mode)
        points.append(EnvelopePoint(b=b, active_mode=mode, lambda_dn=lambda_dn))
    return points
