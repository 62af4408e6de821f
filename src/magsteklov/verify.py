"""Named runtime checks for every library invariant, and the routes they compare.

Each check re-derives one mathematical property as a residual formula,
registered once by ``_check`` with its module, name, limit and the fixed
points it is evaluated at.  It reports the worst residual over its points
against that limit, so a broken build fails loudly and by name, under one
name whether it passes, fails or raises.  The worst residual is taken
through ``_worst``, so a NaN residual fails its check.  The CLI ``verify``
command prints the table; the ``constants`` command reports the
``constants`` group as JSON; the test suite calls the same functions.

The independent routes that only cross-check the library live here, off
its fast path: central finite differences, the shift identity for M', the
closed-form derivatives of lambda_n, the first-order characterization of
z_n, Phi as a moment ratio, and the argmin of f1 found without its closed
form.  The Kummer routes read M(a, c, z) as one float, the series sum
scaled by its power-of-two offset, and combine those floats directly:
every M these checks read lies well inside the float range, where a
power-of-two scale commutes with rounding.
"""

import functools
import math
from collections.abc import Callable
from dataclasses import dataclass
from itertools import product

import numpy as np

from . import disk, intersect, models
from .numerics import EPS, REL_TOL, DomainError, brent_root, integrate_semi_infinite
from .specfun import _kummer_values, cylinder_d, cylinder_ds

__all__ = ["CheckResult", "MODULES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    module: str
    name: str
    passed: bool
    measured: float  # NaN, like limit, when the check raised
    limit: float
    detail: str


def _result(module, name, measured, limit, extra):
    note = f"max residual {measured:.3e} (limit {limit:.1e})"
    if extra:
        note += f"; {extra}"
    return CheckResult(module, name, measured <= limit, measured, limit, note)


# Every check of the suite, by module, in the order of definition.
MODULES: dict[str, list] = {}


def _check(module: str, name: str, limit: float, points=((),), note: str = ""):
    """Register the decorated residual as the check ``name`` of ``module``, passing at ``limit``.

    The residual takes the arguments of one point and returns one float;
    the check measures the worst residual over ``points`` (one point with
    no arguments by default) and appends ``note`` to its detail.  The
    points are built at import, so they hold no value that takes a
    computation, such as alpha: a residual reads that itself.
    ``run_suite`` reports a check that raises under the same ``name``, so
    a check has one name whether it passes, fails or raises.
    """
    points = list(points)

    def register(residual):
        @functools.wraps(residual)
        def check() -> CheckResult:
            measured = _worst(residual(*point) for point in points)
            return _result(module, name, measured, limit, note)

        check.name = name
        MODULES.setdefault(module, []).append(check)
        return check

    return register


def _worst(residuals) -> float:
    """The largest residual as a float, NaN if any residual is NaN, -inf if there is none.

    ``max`` keeps its current value when the next one is NaN, so every
    reduction of a check comes here, and a NaN residual fails its check.
    """
    worst = -math.inf
    for residual in residuals:
        residual = float(residual)
        if math.isnan(residual):
            return math.nan
        if residual > worst:
            worst = residual
    return worst


def _relative(terms) -> float:
    """Relative residual |sum t| / sum |t| of an identity sum t = 0."""
    scale = sum(abs(t) for t in terms)
    return abs(sum(terms)) / scale if scale else 0.0


# ----------------------------------------------------------------- numerics


def central_diff(f: Callable[[float], float], x: float, order: int = 1) -> float:
    """Central finite-difference derivative of order 1 or 2 at x.

    The step balances truncation against round-off: eps**(1/3) scaled by
    max(|x|, 1) for the first derivative, eps**(1/4) for the second.
    """
    if order == 1:
        h = max(abs(x), 1.0) * EPS ** (1.0 / 3.0)
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        h = max(abs(x), 1.0) * EPS**0.25
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise DomainError(f"order must be 1 or 2, got {order}")


@_check(
    "numerics", "quadrature-gamma-family", 5.0 * REL_TOL, product((-0.5, 0.0, 0.5, 1.0, 2.0))
)
def check_quadrature_gamma_family(k):
    value = integrate_semi_infinite(lambda t: t**k * np.exp(-t), 1.0)
    return abs(value - math.gamma(k + 1.0)) / math.gamma(k + 1.0)


@_check("numerics", "brent-bracket-invariance", 1e-12)
def check_brent_bracket_invariance():
    f = math.cos
    roots = [brent_root(f, lo, hi) for lo, hi in ((1.0, 2.0), (0.5, 3.0), (1.4, 1.8))]
    return _worst(abs(r - roots[0]) for r in roots)


# ------------------------------------------------------------------ specfun

# M(a, c, z) fits a float here, so each identity is summed in floats
_KUMMER_GRID = [(a, c, z) for a in (0.5, 1.5) for c in (2.0, 5.0, 11.0) for z in (0.1, 1.0, 10.0, 50.0)]


def _mval(a: float, c: float, z: float) -> float:
    """M(a, c, z) for z >= 0: its series' parts scaled by their power-of-two offset."""
    return _kummer_values(a, np.array([c]), np.array([z])).item()


def kummer_m_prime(a: float, c: float, z: float) -> float:
    """d/dz M(a, c, z), via the shift identity M' = (a/c) M(a+1, c+1, z)."""
    return a / c * _mval(a + 1.0, c + 1.0, z)


@_check("specfun", "kummer-contiguous-c-shift", 1e-10, _KUMMER_GRID)
def check_contiguous_c_shift(a, c, z):
    return _relative(
        [
            (c - 1.0) * _mval(a, c - 1.0, z),
            (a + 1.0 - c) * _mval(a, c, z),
            -a * _mval(a + 1.0, c, z),
        ]
    )


@_check("specfun", "kummer-contiguous-a-shift", 1e-10, _KUMMER_GRID)
def check_contiguous_a_shift(a, c, z):
    return _relative([c * _mval(a, c, z), -c * _mval(a - 1.0, c, z), -z * _mval(a, c + 1.0, z)])


@_check("specfun", "kummer-contiguous-derivative-a", 1e-10, _KUMMER_GRID)
def check_contiguous_derivative_a(a, c, z):
    return _relative(
        [a * _mval(a + 1.0, c, z), -a * _mval(a, c, z), -z * kummer_m_prime(a, c, z)]
    )


@_check("specfun", "kummer-contiguous-derivative-ac", 1e-10, _KUMMER_GRID)
def check_contiguous_derivative_ac(a, c, z):
    return _relative(
        [
            (c - a) * _mval(a - 1.0, c, z),
            (z + a - c) * _mval(a, c, z),
            -z * kummer_m_prime(a, c, z),
        ]
    )


# FD noise scales with exp(z) past z = 10; the shift identity is exact either way
@_check(
    "specfun", "kummer-derivative-vs-fd", 1e-6, [(a, c, z) for a, c, z in _KUMMER_GRID if z <= 10.0]
)
def check_kummer_derivative_fd(a, c, z):
    exact = kummer_m_prime(a, c, z)
    fd = central_diff(lambda x: _mval(a, c, x), z)
    return abs(fd - exact) / max(abs(exact), 1.0)


_CYL_GRID = [(nu, z) for nu in (-1.5, -0.5, 0.5) for z in (-2.0, -0.5, 0.0, 1.0, 3.0)]


@_check("specfun", "cylinder-recurrence-derivative-up", 1e-9, _CYL_GRID)
def check_cylinder_recurrence_derivative_up(nu, z):
    d = cylinder_d(nu, z)
    return _relative([d.derivative, -0.5 * z * d.value, cylinder_d(nu + 1.0, z).value])


@_check("specfun", "cylinder-recurrence-three-term", 1e-9, _CYL_GRID)
def check_cylinder_recurrence_three_term(nu, z):
    up = cylinder_d(nu + 1.0, z).value
    return _relative([up, -z * cylinder_d(nu, z).value, nu * cylinder_d(nu - 1.0, z).value])


@_check("specfun", "cylinder-recurrence-derivative-down", 1e-9, _CYL_GRID)
def check_cylinder_recurrence_derivative_down(nu, z):
    d = cylinder_d(nu, z)
    return _relative([d.derivative, 0.5 * z * d.value, -nu * cylinder_d(nu - 1.0, z).value])


@_check("specfun", "cylinder-ode-residual", 1e-5, product((-1.5, -0.5, 0.5), (0.7, 1.3, 2.6)))
def check_cylinder_ode(nu, z):
    second = central_diff(lambda x: cylinder_d(nu, x).value, z, order=2)
    expected = (0.25 * z * z - nu - 0.5) * cylinder_d(nu, z).value
    return abs(second - expected) / max(abs(expected), 1e-30)


@_check("specfun", "cylinder-large-z-asymptotic", 0.02, product((-1.5, -0.5)))
def check_cylinder_asymptotic(nu):
    z = 12.0
    return abs(cylinder_d(nu, z).value * math.exp(0.25 * z * z) * z ** (-nu) - 1.0)


@_check("specfun", "cylinder-negative-order-positivity", 0.0)
def check_cylinder_positivity():
    z = np.linspace(-10.0, 10.0, 41)
    # a NaN value counts as a failure
    bad = sum(np.count_nonzero(~(cylinder_ds(nu, z)[0] > 0.0)) for nu in (-3.5, -1.5, -0.5, -0.05))
    return float(bad)


# --------------------------------------------------------------------- disk


def lambda_n_prime(n: int, z: float) -> float:
    """Closed-form derivative of lambda_n at z > 0, n >= 1.

    Product form: -2n M'(1/2, n+1, z) M(-1/2, n, z) / M(1/2, n+1, z)^2.
    Negative left of the crossing z_{n-1}, zero there, positive after.
    """
    n = disk._check_mode(n, minimum=1)
    if z <= 0.0:
        raise DomainError(f"need z > 0, got {z}")
    m = _mval(0.5, n + 1.0, z)
    return -2.0 * n * kummer_m_prime(0.5, n + 1.0, z) * _mval(-0.5, float(n), z) / (m * m)


def lambda_n_prime_alt(n: int, z: float) -> float:
    """Equivalent derivative formula, used as a cross-check on lambda_n_prime.

    Deficit form: M'(1/2,n+1,z) [M(1/2,n+1,z) - (2n+1) M(-1/2,n+1,z)] / M(1/2,n+1,z)^2.
    The two forms are linked by a contiguous relation of the Kummer family.
    """
    n = disk._check_mode(n, minimum=1)
    if z <= 0.0:
        raise DomainError(f"need z > 0, got {z}")
    m = _mval(0.5, n + 1.0, z)
    bracket = m - (2.0 * n + 1.0) * _mval(-0.5, n + 1.0, z)
    return kummer_m_prime(0.5, n + 1.0, z) * bracket / (m * m)


_BRANCH_B = [0.5, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0]
_LAMBDA_PRIME_GRID = list(product((1, 3, 10), (1.0, 5.0, 20.0)))


@_check("disk", "branch-diamagnetic-inequality", 1e-12, product(range(1, 21), _BRANCH_B))
def check_branch_inequality(n, b):
    return disk.lambda_n(n, b) - disk.lambda_minus_n(n, b)


@_check("disk", "branch-positivity", 1e-12, product(range(0, 21), _BRANCH_B + [0.0]))
def check_branch_positivity(n, b):
    return -disk.lambda_n(n, b)


@_check("disk", "lambda-prime-vs-finite-difference", 1e-6, _LAMBDA_PRIME_GRID)
def check_lambda_prime_vs_fd(n, z):
    closed = lambda_n_prime(n, z)
    fd = central_diff(lambda x: disk.lambda_n(n, x), z)
    return abs(closed - fd) / max(abs(closed), 1.0)


@_check("disk", "lambda-prime-two-closed-forms", 1e-10, _LAMBDA_PRIME_GRID)
def check_lambda_prime_two_forms(n, z):
    a = lambda_n_prime(n, z)
    b = lambda_n_prime_alt(n, z)
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


@_check("disk", "envelope-strictly-increasing", -1e-15, note="10000-point grid")
def check_envelope_monotone():
    _, _, values = disk.envelope(np.linspace(0.01, 100.0, 10_000))
    return _worst(values[:-1] - values[1:])


@_check("disk", "envelope-mode-is-window-argmin", 1e-10, note="50-point grid")
def check_envelope_window_argmin():
    # the active mode's branch is the lowest of every branch in a window of
    # modes around b, found without the crossing-sign search
    def excess(b, lambda_dn):
        lo = max(0, int(b - 3.0 * math.sqrt(b)) - 2)
        best = -_worst(-disk.lambda_n(m, b) for m in range(lo, math.ceil(b) + 3))
        return (lambda_dn - best) / max(abs(best), 1.0)

    field, _, lam = disk.envelope(np.linspace(0.5, 100.0, 50))
    return _worst(map(excess, field.tolist(), lam.tolist()))


@_check("disk", "mode-switch-at-crossings", 0.0)
def check_mode_switch():
    failures = 0
    prev_mode = 0
    for n in range(4):
        z = intersect.find_zn(n).z_n
        below, above = disk.envelope([z - 1e-6, z + 1e-6])[1].tolist()
        if below != n or above != n + 1:
            failures += 1
        if below < prev_mode:
            failures += 1
        prev_mode = above
    return float(failures)


# ---------------------------------------------------------------- intersect


def characterization_residual(n: int, z: float) -> float:
    """Relative residual of the first-order characterization (z - n - 1/2) M - z M' at z."""
    left = (z - n - 0.5) * _mval(0.5, n + 1.0, z)
    right = z * kummer_m_prime(0.5, n + 1.0, z)
    return abs(left - right) / (abs(left) + abs(right))


def lambda_n_second_at_zprev(n: int, z_prev: float) -> float:
    """Second derivative of lambda_n at its minimum z_prev = z_{n-1}.

    Equals (z_{n-1} - n) / z_{n-1}, strictly positive.
    """
    n = disk._check_mode(n, minimum=1)
    return (z_prev - n) / z_prev


def max_crossing_residual(n_max: int) -> float:
    """Max over n <= n_max of |lambda_n(z_n) - (z_n - n - 1)|."""
    if n_max < 0:
        raise DomainError(f"n_max must be >= 0, got {n_max}")
    return _worst(r.residual_F for r in intersect.crossings(range(n_max + 1)))


@_check("intersect", "characterization-equivalence", 1e-9, product((0, 1, 5, 20, 100)))
def check_characterization_equivalence(n):
    return characterization_residual(n, intersect.find_zn(n).z_n)


@_check("intersect", "crossing-eigenvalue-formula", 1e-8)
def check_f_formula():
    return max_crossing_residual(50)


@_check("intersect", "crossing-ordering-and-lower-bound", 0.0)
def check_crossing_ordering():
    zs = [r.z_n for r in intersect.crossings(range(51))]
    gaps = [zs[i + 1] - zs[i] for i in range(len(zs) - 1)]
    lower = [zs[i] - (i + 1.0) for i in range(len(zs))]
    return _worst(-v for v in gaps + lower)


@_check("intersect", "stationarity-at-previous-crossing", 1e-6, product((1, 2, 5)))
def check_stationary_at_previous_crossing(n):
    z_prev = intersect.find_zn(n - 1).z_n
    slope = lambda_n_prime(n, z_prev)
    second_fd = central_diff(lambda z: lambda_n_prime(n, z), z_prev)
    second = lambda_n_second_at_zprev(n, z_prev)
    return _worst([abs(slope), abs(second_fd - second)])


@_check("intersect", "beta-second-order-trend", 5.0, product((100, 400, 1600, 6400)), "scaled by n")
def check_beta_trend(n):
    alpha = models._alpha_cached()
    correction = (2.0 * alpha * alpha + 1.0) / 6.0
    return abs(intersect.find_zn(n).beta_n - alpha - correction / math.sqrt(n)) * n


@_check("intersect", "envelope-sandwich-bounds", 1e-9, product((2, 5, 10)))
def check_envelope_sandwich(n):
    z_lo = intersect.find_zn(n - 1).z_n
    z_hi = intersect.find_zn(n).z_n
    lams = [disk.lambda_n(n, float(z)) for z in np.linspace(z_lo, z_hi, 5)]
    return _worst(r for lam in lams for r in ((z_lo - n) - lam, lam - (z_hi - n - 1.0)))


@_check(
    "intersect", "crossing-eigenvalue-asymptotic", 5.0, product((100, 10_000)), "scaled by sqrt(n)"
)
def check_crossing_eigenvalue_asymptotic(n):
    # lambda_n(z_n) = alpha sqrt(n) + (alpha^2 - 1)/3 + O(n^{-1/2})
    alpha = models._alpha_cached()
    predicted = alpha * math.sqrt(n) + (alpha * alpha - 1.0) / 3.0
    return abs(intersect.find_zn(n).lambda_at_zn - predicted) * math.sqrt(n)


# ------------------------------------------------------------------- models


def halfplane_argmin() -> float:
    """Minimizer of f1 on [0, 2], located without using its closed form.

    The finite-difference slope of f1 rises from -0.46 at 0 to +1.01 at 2,
    so one Brent search on [0, 2] finds its zero; finite-difference noise
    limits the argmin to ~1e-10.  Independent of the alpha computed from
    the cylinder-function root, so the two may be compared.
    """

    def slope(xi: float) -> float:
        return central_diff(models.halfplane_multiplier, xi)

    return brent_root(slope, 0.0, 2.0)


def phi_from_integrals(beta: float) -> float:
    """Phi computed as the raw moment ratio A/C, a cross-check route."""
    a, _, c, _ = models.moment_integrals(beta)
    return a / c


@_check("models", "halfplane-first-order-condition", 1e-8)
def check_first_order_condition():
    xi = halfplane_argmin()
    cd = cylinder_d(-0.5, -xi)
    return abs(0.5 * xi * cd.value + cd.derivative) / abs(cd.value)


@_check("models", "degennes-neumann-condition", 1e-7)
def check_neumann_condition():
    xi0 = models._xi0_cached()
    nu = 0.5 * (xi0 * xi0 - 1.0)
    return abs(cylinder_d(nu, -math.sqrt(2.0) * xi0).derivative)


@_check("models", "moment-ode-residual", 1e-5)
def check_moment_ode():
    def c_of(b):
        return models.moment_integrals(b)[2]

    def residual(beta):
        second = central_diff(c_of, beta, order=2)
        first = central_diff(c_of, beta, order=1)
        value = c_of(beta)
        return abs(second - beta * first - 0.5 * value) / abs(value)

    return _worst(map(residual, (0.0, 0.5, models._alpha_cached(), 1.0)))


@_check("models", "phi-denominator-positive", 0.0)
def check_phi_no_pole():
    return _worst(-cylinder_ds(-0.5, -np.linspace(-2.0, 2.0, 33))[0])


@_check("models", "halfplane-sqrt-scaling", 1e-14, product((1.0, 2.0, 10.0, 100.0)))
def check_halfplane_scaling(b):
    return abs(models.halfplane_bottom(b) / math.sqrt(b) - models._alpha_cached())


@_check("models", "phi-cylinder-vs-quadrature", 1e-9, product((0.0, 0.5, 1.0)))
def check_phi_two_routes(beta):
    return abs(models.phi(beta) - phi_from_integrals(beta))


# ---------------------------------------------------------------- constants
# The checks ``magsteklov constants`` reports; each JSON key is the check
# name with - replaced by _.  The group shares the one resolution of the
# constants that models caches.

_CONSTANTS_CHECKS = {  # name: (limit, residual from the constants)
    "alpha-matches-reference": (1e-8, lambda c: abs(c.alpha - 0.7649508673)),
    "theta0-matches-reference": (1e-6, lambda c: abs(c.theta0 - 0.5901061249)),
    "cylinder-root-residual": (1e-10, lambda c: abs(cylinder_d(0.5, -c.alpha).value)),
    "halfplane-fixed-point": (1e-8, lambda c: abs(models.halfplane_multiplier(c.alpha) - c.alpha)),
    "phi-prime-alpha": (1e-6, lambda c: abs(central_diff(models.phi, c.alpha) - 0.5)),
    "delta-alpha-two-routes": (1e-6, lambda c: abs(models.delta(c.alpha) - c.delta_alpha)),
    "f-formula-max-residual": (1e-8, lambda c: max_crossing_residual(20)),
    "alpha-below-bound": (0.0, lambda c: _worst([0.0, c.alpha - c.alpha_upper_bound])),
}

for _name, (_limit, _residual) in _CONSTANTS_CHECKS.items():
    _check("constants", _name, _limit)(lambda residual=_residual: residual(models.constants()))


def run_suite(only: str | None) -> list[CheckResult]:
    """Run the named checks: all of them for ``only=None``, else those of module ``only``.

    A check that raises (a quadrature, series or root that fails) is
    reported as a named failure rather than aborting the suite.
    """
    if only is not None and only not in MODULES:
        raise KeyError(f"unknown module {only!r}; choose from {sorted(MODULES)}")
    results = []
    for module, checks in MODULES.items():
        if only is not None and module != only:
            continue
        for check in checks:
            try:
                results.append(check())
            except (ArithmeticError, ValueError) as exc:
                detail = f"raised {exc!r}"
                results.append(CheckResult(module, check.name, False, math.nan, math.nan, detail))
    return results
