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

``envelope`` takes each point's ratio at a start estimate of its mode from
one ``specfun.kummer_log_ratios`` call, the Kummer series quotient on every
lane.  The estimate is the mode or one above, which ``envelope`` certifies
at every point and never searches past.  Each start has c = n + 1 >= 1 and
b <= c + sqrt(c) + 1, where the scalar ``kummer_log_ratio`` refuses the
expansion and sums the same series, so each point's lambda_dn is bit for
bit lambda_n of its active mode.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .numerics import ConvergenceError, DomainError
from .specfun import _MAX_ABS_Z, kummer_log_ratio, kummer_log_ratios

__all__ = [
    "EnvelopePoint",
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


def _check_field(b: float, nonnegative: bool = False) -> None:
    """A DomainError naming b unless b is finite, |b| <= 1e6 and, if asked, b >= 0."""
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got b={b!r}")
    if nonnegative and b < 0.0:
        raise DomainError(f"field parameter must be >= 0, got b={b}")
    if abs(b) > _MAX_ABS_Z:
        raise DomainError(f"|b| <= {_MAX_ABS_Z:g} required, got b={b}")


def lambda_n(n: int, b: float) -> float:
    """Branch eigenvalue lambda_n(b) for mode n >= 0, any real b with |b| <= 1e6."""
    n = _check_mode(n)
    _check_field(b)
    return _branch(n, b, kummer_log_ratio(0.5, n + 1.0, b))


def lambda_minus_n(n: int, b: float) -> float:
    """Eigenvalue of the reflected mode -n, which equals lambda_n(-b)."""
    return lambda_n(_check_mode(n, minimum=1), -b)


# Must not exceed alpha = 0.76495... of z_n = n + alpha sqrt(n) + (alpha^2+2)/3
# + ~0.311/sqrt(n): then the estimate stays below every z_n, and its smallest n
# at or above b is the mode or one above (it stays above z_{n-1} while the
# ~5e-5 sqrt(n) it gives away is below 1, far past |b| <= 1e6).  ``envelope``
# certifies this at every point and never searches past it.  A literal above
# alpha, such as 0.765, passes z_n from n ~ 6e3 on.
_ALPHA_GUESS = 0.7649
_OFFSET_GUESS = (_ALPHA_GUESS * _ALPHA_GUESS + 2.0) / 3.0


def _start_mode(b: float) -> int:
    """Smallest n >= 0 with n + alpha sqrt(n) + (alpha^2+2)/3 >= b, for b >= 0."""
    if b <= _OFFSET_GUESS:
        return 0
    x = 0.5 * (-_ALPHA_GUESS + math.sqrt(_ALPHA_GUESS * _ALPHA_GUESS + 4.0 * (b - _OFFSET_GUESS)))
    return math.ceil(x * x)


def envelope(b_grid: list[float]) -> list[EnvelopePoint]:
    """Ground state energy along an ascending grid of field parameters.

    Output order matches the input grid.  Each point reports the active
    mode, the unique n with z_{n-1} <= b <= z_n (z_{-1} taken as 0), and
    lambda_dn = lambda_{active}(b); the active mode is non-decreasing along
    the grid and increases by exactly one at each crossing point.

    The whole grid is checked before any series is summed.  Every point is
    a lane of one ``kummer_log_ratios`` call at its start mode s; ratios
    stepped down in c decide between s and s - 1 and certify that it is
    one of them, or raise ConvergenceError.  lambda at s - 1 is ``lambda_n``,
    since a stepped ratio loses digits in 1 - (c-1-a)/(c-1 + b R).
    """
    grid = list(b_grid)
    prev_b = -math.inf
    for b in grid:
        if b < prev_b:
            raise DomainError("envelope grid must be sorted ascending")
        prev_b = b
        _check_field(b, nonnegative=True)
    s = np.array([_start_mode(b) for b in grid], dtype=float)
    field = np.array(grid, dtype=float)
    ratio = kummer_log_ratios(0.5, s + 1.0, field)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the unread lane s = b = 0
        r1 = 1.0 - (s - 0.5) / (s + field * ratio)  # R_{s-1}
        down = (s > 0.0) & (s - 0.5 - field + field * r1 > 0.0)  # b < z_{s-1}
        r2 = 1.0 - (s - 1.5) / (s - 1.0 + field * r1)  # R_{s-2}
    certified = (s + 0.5 - field + field * ratio >= 0.0) & (  # b <= z_s
        ~down | (s < 2.0) | (s - 1.5 - field + field * r2 <= 0.0)  # and b >= z_{s-2}
    )
    if not certified.all():
        i = int(np.argmin(certified))
        raise ConvergenceError(
            f"start mode {int(s[i])} is not the active mode or one above at b={grid[i]}"
        )
    modes = (s - down).astype(int).tolist()
    return [
        EnvelopePoint(b, n, lambda_n(n, b) if d else lam)
        for b, n, d, lam in zip(grid, modes, down.tolist(), _branch(s, field, ratio).tolist())
    ]
