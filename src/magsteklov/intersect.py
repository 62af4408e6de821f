"""Crossing points of consecutive eigenvalue branches.

The curves lambda_n and lambda_{n+1} meet at a single positive field value
z_n, characterized by M(-1/2, n+1, z_n) = 0 and equivalently by

    (z - n - 1/2) M(1/2, n+1, z) - z M'(1/2, n+1, z) = 0.

At the crossing the eigenvalue collapses to the exact value
lambda_n(z_n) = z_n - n - 1, and for large n

    z_n = n + alpha sqrt(n) + (alpha^2 + 2)/3 + O(n^{-1/2}),

with the rescaled offset beta_n = (z_n - n - 1/2)/sqrt(n) tending to alpha.
This module locates the z_n, records the residuals of their
characterizations, and extracts the expansion coefficients by least squares.

z_n is found by Newton's method on the branch ratio R = M'/M(1/2, n+1, z)
and the crossing function g(z) = n + 1/2 - z + z R of ``disk``, positive
below z_n and negative above.  Each mode starts from the expansion above
(``disk._zn_expansion``) with alpha fixed as a double, so the solve
resolves no model constant.
Kummer's equation (DLMF 13.2.1) gives
R' = (1/2 - (n+1-z) R)/z - R^2, so g' = -1 + R + z R' comes from the same
ratio.  One solve serves both entry points and takes each step on all its
modes at once, from one ``specfun.kummer_log_ratios`` call: ``crossings``
runs it on many modes, and ``find_zn`` on one, where ``specfun`` sums the
series in its scalar loop.  Every ratio is taken at c = n + 1 >= 1 and
0 <= z <= c + sqrt(c) + 1, or the solve raises: there the scalar
``kummer_log_ratio`` refuses the large-z expansion and sums the same
series, so each record's lambda_at_zn is bit for bit ``disk.lambda_n``.
Each root is certified by a sign change of g across z (1 -+ REL_TOL), and
the residuals |M(-1/2, n+1, z_n)| of all roots come from one
``specfun._kummer_values`` call.  The solve returns each field of the
records as one array over the modes, formed with the float operations of
the one-mode expressions; ``_columns`` turns them into lists, from which
``crossings`` and ``find_zn`` build their records and the ``intersections``
command writes its table without building a record.
"""

import functools
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from . import disk
from .numerics import REL_TOL, BracketError, ConvergenceError, DomainError, _require_lanes
from .specfun import _MAX_ABS_Z, _kummer_values, kummer_log_ratios

__all__ = [
    "AsymptoticFit",
    "IntersectionRecord",
    "crossings",
    "find_zn",
    "fit_asymptotics",
]

# Newton's method takes at most 4 steps from its start (every mode to 2,000
# and a sample to 1e6); a mode still moving after this many has gone wrong.
_MAX_STEPS = 8
# The starts z_n ~ n + alpha sqrt(n) + (alpha^2 + 2)/3 + 0.31/sqrt(n), 0.03
# off at n = 1 and closer above, are guesses: alpha enters as the double
# models.compute_alpha() returns, which a test pins, and is never resolved.
_START_ALPHA = 0.7649508673897595
_START_INVERSE = 0.31
# Start of mode 0, where the expansion of z_n has no sqrt(n); z_0 = 1.57996...
_Z0_GUESS = 1.58


@dataclass(frozen=True)
class IntersectionRecord:
    """One branch crossing with the residuals of its characterizations.

    z_n is the Newton root of g, certified by a sign change of g within
    REL_TOL z_n of it, and lambda_at_zn is lambda_n(z_n) from the ratio at
    the root.  ``beta_n`` is None for n = 0 (the rescaling divides by
    sqrt(n)).  residual_M is |M(-1/2, n+1, z_n)| from its own series, which
    the search never sums, on the natural O(1) scale of that series near its
    zero; residual_F is |lambda - (z_n - n - 1)|.  The residual of the
    first-order characterization is a cross-check and lives in ``verify``.
    """

    n: int
    z_n: float
    lambda_at_zn: float
    beta_n: float | None
    residual_M: float
    residual_F: float


@dataclass(frozen=True)
class AsymptoticFit:
    """Least-squares expansion of z_n - n in powers of n^{-1/2}."""

    coefficients: tuple[float, ...]  # against the basis sqrt(n), 1, n^{-1/2}, n^{-1}
    n_range: tuple[int, int]
    max_residual: float


def _ratio(n: np.ndarray, z: np.ndarray) -> np.ndarray:
    """R_n(z) from ``kummer_log_ratios``, where it sums the series the scalar ratio sums.

    An iterate inside the band but past |z| <= 1e6 raises a DomainError that
    names its mode: only the modes from 999,235 on, whose z_n lies past the
    bound too, reach one.
    """
    in_band = (z >= 0.0) & (z <= n + 2.0 + np.sqrt(n + 1.0))
    message = "mode {n:.0f}: iterate z = {z!r} left the series band"
    _require_lanes(in_band, ConvergenceError, message, n=n, z=z)
    message = (
        f"mode {{n:.0f}}: z_n lies past the field bound |z| <= {_MAX_ABS_Z:g} (iterate z = {{z!r}})"
    )
    _require_lanes(z <= _MAX_ABS_Z, DomainError, message, n=n, z=z)
    return kummer_log_ratios(0.5, n + 1.0, z)


def _newton_step(n: np.ndarray, z: np.ndarray, ratio: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The iterates after z, from R = R_n(z), and which of them are the last.

    g' = -1 + R + z R' = -1/2 - (n - z) R - z R^2.  A step below REL_TOL z
    leaves an error of order its square, so the iterate it gives is the root.
    """
    step = disk._crossing_function(n, z, ratio) / (-0.5 - (n - z) * ratio - z * ratio * ratio)
    return z - step, abs(step) <= REL_TOL * z


def _solve(modes: list[int]) -> tuple[np.ndarray, ...]:
    """The roots of ``modes`` and their lambda, beta, residual_M and residual_F columns.

    Newton steps run on all modes at once.  A mode leaves at the step below
    REL_TOL z, and its root is certified by the sign of g at
    lo = z (1 - REL_TOL) and hi = z (1 + REL_TOL), or BracketError names it:
    g carries ~2e-16 of absolute noise near its zero, which a window of a few
    ulp of z would not clear at small n.  Each column takes the one-mode
    float operations of its field on all lanes: lambda = n - z + 2 z R,
    beta = (z - n - 1/2)/sqrt(n), where np.sqrt rounds as math.sqrt does,
    and residual_F = |lambda - (z - n - 1)|.  A mode 0 lane's beta divides
    by 1 and is not read.
    """
    n = all_n = np.array(modes, dtype=float)
    clamped = np.maximum(n, 1.0)  # mode 0 starts at _Z0_GUESS
    z = np.where(n > 0.0, disk._zn_expansion(clamped, _START_ALPHA, _START_INVERSE), _Z0_GUESS)
    roots = np.empty(n.size)
    lane = np.arange(n.size)
    for _ in range(_MAX_STEPS):
        z, done = _newton_step(n, z, _ratio(n, z))
        roots[lane[done]] = z[done]
        lane, n, z = lane[~done], n[~done], z[~done]
        if not lane.size:
            break
    if lane.size:
        raise ConvergenceError(f"mode {n[0]:.0f}: Newton's method did not converge")
    lo, hi = roots * (1.0 - REL_TOL), roots * (1.0 + REL_TOL)
    points = np.concatenate([lo, roots, hi])  # one call: much of its cost is per term, not per lane
    ratio_lo, ratio, ratio_hi = np.split(_ratio(np.tile(all_n, 3), points), 3)
    g_lo = disk._crossing_function(all_n, lo, ratio_lo)
    g_hi = disk._crossing_function(all_n, hi, ratio_hi)
    _require_lanes(
        (g_lo > 0.0) & (g_hi < 0.0),
        BracketError,
        "no sign change for mode {n:.0f}: g({lo!r}) = {g_lo!r} and g({hi!r}) = {g_hi!r}",
        n=all_n, lo=lo, hi=hi, g_lo=g_lo, g_hi=g_hi,
    )
    lam = disk._branch(all_n, roots, ratio)  # lambda_n bit for bit: the ratio is the scalar's
    beta = (roots - all_n - 0.5) / np.sqrt(clamped)
    # |M(-1/2, n+1, z_n)| by its own series, a check independent of the ratio
    residual_m = np.abs(_kummer_values(-0.5, all_n + 1.0, roots))
    return roots, lam, beta, residual_m, np.abs(lam - (roots - all_n - 1.0))


def _columns(modes: list[int]) -> list[list]:
    """The IntersectionRecord fields over ``modes``, as lists in field order, from one solve."""
    roots, lam, beta, residual_m, residual_f = (column.tolist() for column in _solve(modes))
    beta = [value if n >= 1 else None for n, value in zip(modes, beta)]
    return [modes, roots, lam, beta, residual_m, residual_f]


@functools.cache
def _find_zn_cached(n: int) -> IntersectionRecord:
    return IntersectionRecord(*(column[0] for column in _columns([n])))


def find_zn(n: int) -> IntersectionRecord:
    """Crossing point of the branches lambda_n and lambda_{n+1}.

    Results are cached per process; the records are immutable.  Any
    integer type except bool is accepted as ``n``; it is checked before the
    cache, where True would otherwise hit the entry of 1.
    """
    return _find_zn_cached(disk._check_mode(n))


def crossings(modes: Iterable[int]) -> list[IntersectionRecord]:
    """``find_zn(n)`` for each n in ``modes``, in order, from one solve on all of them.

    Each step is one ``kummer_log_ratios`` call on the modes still moving,
    and the records are built from the solve's column arrays.  The solve is
    ``find_zn``'s, and each lane's ratio is its one-lane ratio, so each
    record is bit for bit ``find_zn``'s.  The records are not cached.
    """
    columns = _columns([disk._check_mode(m) for m in modes])
    return [IntersectionRecord(*fields) for fields in zip(*columns)]


def fit_asymptotics(records: list[IntersectionRecord]) -> AsymptoticFit:
    """Least-squares fit of z_n - n against {sqrt(n), 1, n^{-1/2}, n^{-1}}.

    Requires at least five records and n_hi/n_lo >= 4 so the four basis
    columns stay distinguishable; higher-order coefficients than n^{-1} are
    not resolvable in double precision and are out of scope.
    """
    if len(records) < 5:
        raise DomainError("need more records than fit terms")
    ns = np.array([float(r.n) for r in records])
    if ns.min() <= 0:
        raise DomainError("fit requires records with n >= 1")
    if ns.max() / ns.min() < 4.0:
        raise DomainError("n range too narrow for a stable fit (need n_hi/n_lo >= 4)")
    y = np.array([r.z_n - r.n for r in records])
    basis = np.column_stack([np.sqrt(ns), np.ones_like(ns), 1.0 / np.sqrt(ns), 1.0 / ns])
    coeffs, _, rank, _ = np.linalg.lstsq(basis, y, rcond=None)
    if rank < 4:
        raise DomainError("fit basis is numerically rank deficient on this n range")
    residuals = basis @ coeffs - y
    return AsymptoticFit(
        coefficients=tuple(float(c) for c in coeffs),
        n_range=(int(ns.min()), int(ns.max())),
        max_residual=float(np.max(np.abs(residuals))),
    )
