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

so the crossing function

    g = n + 1/2 - b + b R_n = (n + 1/2) M(-1/2, n+1, b) / M(1/2, n+1, b)

is positive below z_n and negative above.  ``envelope`` reads the active
mode off its sign, and ``intersect`` finds each z_n as its root.  The
ratios of lower modes follow from the down-step in c of the same section,
with R(c) = M'/M(a, c, b), a = 1/2 and R_n = R(n+1),

    R(c-1) = 1 - (c-1-a) / (c-1 + b R(c)),

which is the stable direction: M(a, c, b) is the minimal solution of its
recurrence as c grows.

``envelope`` takes each point's ratio at a start estimate of its mode from
one ``specfun.kummer_log_ratios`` call, the Kummer series quotient on every
lane.  The start is the smallest n whose estimate of z_n, the first four
terms of its large-n expansion with each constant just below its value
(z_0 itself, rounded down, for n = 0), reaches b: one numpy expression over
the grid.  It is the mode or one above, which ``envelope`` certifies at
every point and never searches past; it is one above at a few points of a
grid (2 to 5 of the 4,001 of a sweep to b = 1e4), where lambda comes from
``lambda_n``.  Each start has
c = n + 1 >= 1 and b <= c + sqrt(c) + 1, where the scalar
``kummer_log_ratio`` refuses the expansion and sums the same series, so
each point's lambda_dn is bit for bit lambda_n of its active mode.
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


def _crossing_function(n: np.ndarray, b: np.ndarray, ratio: np.ndarray) -> np.ndarray:
    """g = n + 1/2 - b + b R_n(b), positive for b < z_n and negative above, from R_n(b)."""
    return n + 0.5 - b + b * ratio


def _check_field(b: float, nonnegative: bool = False) -> float:
    """b as a float; a DomainError naming b unless b is finite, |b| <= 1e6 and, if asked, b >= 0."""
    if not math.isfinite(b):
        raise DomainError(f"b must be finite, got b={b!r}")
    if nonnegative and b < 0.0:
        raise DomainError(f"field parameter must be >= 0, got b={b}")
    if abs(b) > _MAX_ABS_Z:
        raise DomainError(f"|b| <= {_MAX_ABS_Z:g} required, got b={b}")
    return float(b)


def lambda_n(n: int, b: float) -> float:
    """Branch eigenvalue lambda_n(b) for mode n >= 0, any real b with |b| <= 1e6."""
    n = _check_mode(n)
    b = _check_field(b)
    return _branch(n, b, kummer_log_ratio(0.5, n + 1.0, b))


def lambda_minus_n(n: int, b: float) -> float:
    """Eigenvalue of the reflected mode -n, which equals lambda_n(-b)."""
    return lambda_n(_check_mode(n, minimum=1), -b)


# The start estimate is z_n = n + alpha sqrt(n) + (alpha^2+2)/3 + ~0.31/sqrt(n)
# to four terms, each constant just below its value: est(n) = n + A sqrt(n) +
# (A^2+2)/3 + D/sqrt(n) for n >= 1, and est(0) = 1.5799, z_0 =
# 1.5799568426871355 rounded down.  A is alpha = 0.7649508673897595 rounded
# down at 8 digits.  D lies below sqrt(n) (z_n - n - alpha sqrt(n) -
# (alpha^2+2)/3), whose minimum is 0.27766 at n = 1 and which reads 0.3105 at
# n = 10, 0.3114 at 100, 0.3105 at 1,000 and 0.3101 at 10,000.  So est(n)
# stays below z_n and above z_{n-1}, about one lower, and the smallest n with
# est(n) >= b is the mode or one above (the signs of the crossing function at
# est(n) are tested on every mode to 2,000 and 200 more to the last below
# 1e6).  ``envelope`` certifies this at every point and never searches past
# it.  A literal above alpha, such as 0.765, passes z_n from n ~ 6e3 on.
_ALPHA_GUESS = 0.76495086
_OFFSET_GUESS = (_ALPHA_GUESS * _ALPHA_GUESS + 2.0) / 3.0
_INVERSE_GUESS = 0.27
_Z0_GUESS = 1.5799


def _zn_expansion(n: np.ndarray, alpha: float, inverse: float) -> np.ndarray:
    """n + A sqrt(n) + (A^2+2)/3 + D/sqrt(n) on lanes n >= 1, with A = alpha and D = inverse.

    The first four terms of the large-n expansion of z_n, each caller with
    its own constants: ``_estimates`` a lower bound, ``intersect`` a guess.
    """
    root = np.sqrt(n)
    return n + alpha * root + (alpha * alpha + 2.0) / 3.0 + inverse / root


def _estimates(n: np.ndarray) -> np.ndarray:
    """est(n), the expansion of z_n with the constants above, on lanes n >= 1."""
    return _zn_expansion(n, _ALPHA_GUESS, _INVERSE_GUESS)


def _start_modes(b: np.ndarray) -> np.ndarray:
    """Smallest n >= 0 with est(n) >= b on lanes b >= 0, as floats.

    Every b <= est(0) starts at 0.  Above it, the root of the first three
    terms gives the smallest n with n + A sqrt(n) + (A^2+2)/3 >= b, at least
    1 there; the last term, 0 < D/sqrt(n) < 1, moves that at most one mode
    down, and never to n = 0.
    """
    root = np.sqrt(_ALPHA_GUESS * _ALPHA_GUESS + 4.0 * np.maximum(b - _OFFSET_GUESS, 0.0))
    x = 0.5 * (root - _ALPHA_GUESS)
    n = np.ceil(x * x)
    below = np.maximum(n - 1.0, 1.0)
    return np.where(b <= _Z0_GUESS, 0.0, n - ((n >= 2.0) & (_estimates(below) >= b)))


def _checked_grid(b_grid) -> np.ndarray:
    """The grid as floats; the DomainError of its first point out of order or range, if any."""
    field = np.array(b_grid, dtype=float)
    bad = ~((field >= 0.0) & (field <= _MAX_ABS_Z))  # NaN fails both
    bad[1:] |= field[1:] < field[:-1]
    if bad.any():
        i = int(bad.argmax())
        if i and field[i] < field[i - 1]:
            raise DomainError("envelope grid must be sorted ascending")
        _check_field(b_grid[i], nonnegative=True)
    return field


def _ground_states(b_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """envelope on arrays: the checked grid, each point's active mode and lambda_dn."""
    field = _checked_grid(b_grid)
    s = _start_modes(field)
    ratio = kummer_log_ratios(0.5, s + 1.0, field)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0/0 on the unread lane s = b = 0
        r1 = 1.0 - (s - 0.5) / (s + field * ratio)  # R_{s-1}
        down = (s > 0.0) & (_crossing_function(s - 1.0, field, r1) > 0.0)  # b < z_{s-1}
        r2 = 1.0 - (s - 1.5) / (s - 1.0 + field * r1)  # R_{s-2}
    certified = (_crossing_function(s, field, ratio) >= 0.0) & (  # b <= z_s
        ~down | (s < 2.0) | (_crossing_function(s - 2.0, field, r2) <= 0.0)  # and b >= z_{s-2}
    )
    if not certified.all():
        i = int(np.argmin(certified))
        raise ConvergenceError(
            f"start mode {int(s[i])} is not the active mode or one above at b={float(field[i])}"
        )
    modes = (s - down).astype(int)
    lam = _branch(s, field, ratio)
    for i in np.flatnonzero(down).tolist():
        lam[i] = lambda_n(int(modes[i]), float(field[i]))
    return field, modes, lam


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
    field, modes, lam = _ground_states(b_grid)
    return list(map(EnvelopePoint, field.tolist(), modes.tolist(), lam.tolist()))
