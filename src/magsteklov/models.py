"""Scalar model problems and the constants they pin down.

* alpha: the positive number such that -alpha is the unique negative zero of
  the parabolic cylinder function D_{1/2}.  It is the slope of the disk
  ground state energy against sqrt(field), and also the minimum value (and
  minimizer) of the half-plane boundary multiplier f1.
* f1(xi) = -2 D'_{-1/2}(-xi) / D_{-1/2}(-xi): symbol of the half-plane
  boundary map at unit field; the bottom of the half-plane spectrum scales
  as m(b) = sqrt(b) * m(1) with m(1) = alpha.
* xi0, theta0: the de Gennes pair.  xi0 solves
  f(xi) = xi D_{(xi^2-1)/2}(-sqrt(2) xi) + sqrt(2) D_{(xi^2+1)/2}(-sqrt(2) xi) = 0
  on (0.5, 1), and theta0 = xi0^2 is the bottom of the half-line Neumann
  model spectrum.
* Phi and Delta: the large-mode limits of the crossing-point fixed-point map
  and of its first correction, built from the four half-line moments

      A = int e^{beta s - s^2/2} s^{1/2} ds         B = same with (s - s^3/3) s^{1/2}
      C = int e^{beta s - s^2/2} s^{-1/2} ds        D = same with (s - s^3/3) s^{-1/2}

  as Phi = A/C (equivalently beta + D_{1/2}(-beta)/D_{-1/2}(-beta)) and
  Delta = (BC - AD)/C^2 = (D/C)'.  At beta = alpha, Delta equals
  (1 - 10 alpha^2)/12 exactly, which ``verify`` uses as a two-route check.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numerics import DomainError, _require_in, brent_root, integrate_semi_infinite
from .specfun import _MAX_CYLINDER_Z, cylinder_d, cylinder_ds

__all__ = [
    "ModelConstants",
    "comparison_bound",
    "compute_alpha",
    "compute_xi0",
    "constants",
    "degennes_f",
    "delta",
    "halfplane_bottom",
    "halfplane_multiplier",
    "moment_integrals",
    "phi",
]

_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class ModelConstants:
    """The resolved model constants and their derived combinations.

    Their invariants, such as alpha below its upper bound, belong to the
    ``constants`` checks of ``verify``: a violated one fails its named check.
    """

    alpha: float
    xi0: float
    theta0: float  # always xi0**2
    delta_alpha: float  # (1 - 10 alpha^2) / 12
    u0_sq_at_0: float  # squared boundary value of the normalized half-line ground state
    alpha_upper_bound: float  # sqrt(2) * theta0 / u0_sq_at_0


def compute_alpha() -> float:
    """Positive zero of x -> D_{1/2}(-x), bracketed in (0.5, 1.0)."""
    return brent_root(lambda x: cylinder_d(0.5, -x).value, 0.5, 1.0)


def halfplane_multiplier(xi: float | np.ndarray) -> float | np.ndarray:
    """Boundary-map symbol f1(xi) = -2 D'_{-1/2}(-xi) / D_{-1/2}(-xi), for |xi| <= 50.

    A float xi gives a float, and a 1-d array gives f1 on every lane, each
    the float of a scalar call: all lanes come from one ``cylinder_ds`` call
    at -xi.  The denominator never vanishes (negative-order cylinder
    functions are positive), so f1 is defined for every real xi.
    """
    xi = _require_in("xi", xi, -_MAX_CYLINDER_Z, _MAX_CYLINDER_Z)
    value, derivative = cylinder_ds(-0.5, -np.atleast_1d(xi))
    f1 = -2.0 * derivative / value
    return f1 if isinstance(xi, np.ndarray) else f1.item()


def halfplane_bottom(b: float) -> float:
    """Bottom of the half-plane boundary-map spectrum: sqrt(b) * alpha."""
    if not 0.0 < b < math.inf:
        raise DomainError(f"b must be positive and finite, got b={b!r}")
    return math.sqrt(b) * _alpha_cached()


def degennes_f(xi: float) -> float:
    """The scalar equation whose root on (0, 1) is xi0.

    f(xi) = xi D_{(xi^2-1)/2}(-sqrt(2) xi) + sqrt(2) D_{(xi^2+1)/2}(-sqrt(2) xi);
    it encodes the Neumann condition of the half-line model at the bottom of
    its band function.
    """
    xi = _require_in("xi", xi, 0.0, 1.5)
    arg = -_SQRT2 * xi
    lower = cylinder_d(0.5 * (xi * xi - 1.0), arg).value
    upper = cylinder_d(0.5 * (xi * xi + 1.0), arg).value
    return xi * lower + _SQRT2 * upper


def compute_xi0() -> float:
    """Root of degennes_f on (0.5, 1.0)."""
    return brent_root(degennes_f, 0.5, 1.0)


def moment_integrals(beta: float) -> tuple[float, float, float, float]:
    """The four half-line moments (A, B, C, D) at parameter beta.

    All integrands carry the weight exp(beta s - s^2/2); A and B use the
    power s^{1/2}, C and D the power s^{-1/2}, and B, D carry the extra
    polynomial factor (s - s^3/3).  They are the four rows of one
    quadrature, each returned at its own first agreeing level.  beta lies in
    [-37, 37]: the moments grow like exp(beta^2/2), so beta beyond ~37 would
    overflow the double range, and C ~ sqrt(pi/|beta|) as beta -> -inf is
    lost to the quadrature from about -1e16 on.
    """
    beta = _require_in("beta", beta, -37.0, 37.0)

    def rows(s: np.ndarray) -> np.ndarray:
        weight = np.exp(beta * s - 0.5 * s * s)
        half, minus_half = weight * s**0.5, weight * s**-0.5
        poly = s - s**3 / 3.0
        return np.stack((half, half * poly, minus_half, minus_half * poly))

    return tuple(integrate_semi_infinite(rows, decay_scale=beta).tolist())


def phi(beta: float) -> float:
    """Limit fixed-point map Phi(beta) = beta + D_{1/2}(-beta)/D_{-1/2}(-beta), for |beta| <= 50.

    Phi(alpha) = alpha and Phi'(alpha) = 1/2.
    """
    beta = _require_in("beta", beta, -_MAX_CYLINDER_Z, _MAX_CYLINDER_Z)
    half = cylinder_d(0.5, -beta)
    minus_half = cylinder_d(-0.5, -beta)
    return beta + half.value / minus_half.value


def delta(beta: float) -> float:
    """First correction Delta(beta) = (BC - AD)/C^2, by quadrature.

    Since B = D' and A = C' (derivatives in beta), this is also (D/C)'.
    The quadrature route is kept deliberately independent of the cylinder
    shortcut so that the exact value (1 - 10 alpha^2)/12 at beta = alpha is
    a genuine cross-check.
    """
    a, b_, c, d_ = moment_integrals(beta)
    return (b_ * c - a * d_) / (c * c)


def comparison_bound() -> tuple[float, float]:
    """Squared boundary value of the half-line ground state, and the bound.

    The normalized ground state of the half-line model at its optimal
    momentum has u0(0)^2 = D_nu(-sqrt(2) xi0)^2 / int_0^inf D_nu(sqrt(2)(t - xi0))^2 dt
    with nu = (xi0^2 - 1)/2.  Returns (u0_sq, sqrt(2) * theta0 / u0_sq); the
    second entry is an upper bound for alpha.
    """
    xi0 = _xi0_cached()
    nu = 0.5 * (xi0 * xi0 - 1.0)
    boundary = cylinder_d(nu, -_SQRT2 * xi0).value

    def density(t: np.ndarray) -> np.ndarray:
        # decays like exp(-(t - xi0)^2): below 1e-100 beyond t = 12
        near = t <= 12.0
        values = np.zeros(t.shape)
        values[near] = cylinder_ds(nu, _SQRT2 * (t[near] - xi0))[0] ** 2
        return values

    norm = integrate_semi_infinite(density, decay_scale=2.0 * xi0)
    u0_sq = boundary * boundary / norm
    bound = _SQRT2 * xi0 * xi0 / u0_sq
    return u0_sq, bound


# The package reads alpha and xi0 only through these caches.  compute_alpha
# and compute_xi0 are looked up at call time, so a wrapper installed on the
# module attribute sees the one call each makes.
@functools.cache
def _alpha_cached() -> float:
    return compute_alpha()


@functools.cache
def _xi0_cached() -> float:
    return compute_xi0()


@functools.cache
def constants() -> ModelConstants:
    """All model constants, resolved once per process."""
    alpha = _alpha_cached()
    xi0 = _xi0_cached()
    u0_sq, bound = comparison_bound()
    return ModelConstants(
        alpha=alpha,
        xi0=xi0,
        theta0=xi0 * xi0,
        delta_alpha=(1.0 - 10.0 * alpha * alpha) / 12.0,
        u0_sq_at_0=u0_sq,
        alpha_upper_bound=bound,
    )
