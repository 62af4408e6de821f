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
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import disk, models
from .numerics import BracketError, DomainError, brent_root
from .specfun import kummer_m

__all__ = [
    "AsymptoticFit",
    "IntersectionRecord",
    "find_zn",
    "fit_asymptotics",
    "gap_zn",
]


@dataclass(frozen=True)
class IntersectionRecord:
    """One branch crossing with the residuals of its characterizations.

    ``beta_n`` is None for n = 0 (the rescaling divides by sqrt(n)).
    residual_M is |M(-1/2, n+1, z_n)| on the natural O(1) scale of that
    series near its zero; residual_F is |lambda - (z_n - n - 1)|.  The
    residual of the first-order characterization is a cross-check and
    lives in ``verify``.
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


@functools.cache
def _find_zn_cached(n: int) -> IntersectionRecord:
    alpha = models._alpha_cached()
    sqrt_n = math.sqrt(n)
    lo = n + 1.0
    hi = n + alpha * sqrt_n + (alpha * alpha + 2.0) / 3.0 + 5.0 * math.sqrt(n + 1.0)
    # z -> M(-1/2, n+1, z), positive iff z < z_n.  Near z_n the positive-part
    # sum of the series is ~1, so the float value is itself the natural
    # residual scale.  On [lo, hi] the magnitude never exceeds ~e^17, so no
    # scaling is needed.
    def f(z: float) -> float:
        return kummer_m(-0.5, n + 1.0, z).value.to_float()

    try:
        z = brent_root(f, lo, hi)
    except BracketError as exc:
        # z_n is the unique zero past n+1, inside [lo, hi]: a failed bracket
        # means the evaluation broke, so abort rather than widen the search
        raise BracketError(f"no sign change for mode {n}: {exc}") from exc
    lam = disk.lambda_n(n, z)
    return IntersectionRecord(
        n=n,
        z_n=z,
        lambda_at_zn=lam,
        beta_n=(z - n - 0.5) / sqrt_n if n >= 1 else None,
        residual_M=abs(f(z)),
        residual_F=abs(lam - (z - n - 1.0)),
    )


def find_zn(n: int) -> IntersectionRecord:
    """Crossing point of the branches lambda_n and lambda_{n+1}.

    Results are cached per process; the records are immutable.  Any
    integer type except bool is accepted as ``n``; it is checked before the
    cache, where True would otherwise hit the entry of 1.
    """
    return _find_zn_cached(disk._check_mode(n))


def gap_zn(n: int) -> float:
    """Spacing z_n - z_{n-1}; approaches 1 + (alpha/2) n^{-1/2} for large n."""
    if n < 1:
        raise DomainError(f"gap_zn needs n >= 1, got {n}")
    return find_zn(n).z_n - find_zn(n - 1).z_n


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
