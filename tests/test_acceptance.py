"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
one-line summaries).  Each test prints one PASS line with the measured
residuals; timing-limited criteria measure a cold computation.
"""

import math
import time

import numpy as np
import pytest

from magsteklov import disk, intersect, models, verify
from magsteklov.verify import central_diff

ALPHA_REF = 0.7649508673
THETA0_REF = 0.5901061249
XI0_REF = 0.76818


def report(criterion, detail):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


@pytest.fixture(scope="module")
def alpha():
    return models.compute_alpha()


def test_criterion_01_alpha_constant():
    start = time.perf_counter()
    alpha = models.compute_alpha()  # uncached path
    elapsed = time.perf_counter() - start
    error = abs(alpha - ALPHA_REF)
    assert error <= 1e-8
    assert elapsed < 1.0
    report("1 alpha", f"|alpha - {ALPHA_REF}| = {error:.2e}, {elapsed*1e3:.1f} ms")


def test_criterion_02_degennes_constants():
    start = time.perf_counter()
    xi0 = models.compute_xi0()  # uncached path
    elapsed = time.perf_counter() - start
    xi_err = abs(xi0 - XI0_REF)
    theta_err = abs(xi0 * xi0 - THETA0_REF)
    assert xi_err <= 5e-5
    assert theta_err <= 1e-6
    assert elapsed < 1.0
    report("2 de Gennes", f"|xi0 - ref| = {xi_err:.2e}, |theta0 - ref| = {theta_err:.2e}, {elapsed*1e3:.1f} ms")


def test_criterion_03_halfplane_model(alpha):
    argmin = verify.halfplane_argmin()
    argmin_err = abs(argmin - alpha)
    fixed_point_err = abs(models.halfplane_multiplier(alpha) - alpha)
    assert argmin_err <= 1e-6
    assert fixed_point_err <= 1e-8
    report("3 half-plane", f"|argmin - alpha| = {argmin_err:.2e}, |f1(alpha) - alpha| = {fixed_point_err:.2e}")


def test_criterion_04_crossing_formula():
    intersect._find_zn_cached.cache_clear()  # time the real work, not a warm cache
    start = time.perf_counter()
    worst = verify.max_crossing_residual(200)
    elapsed = time.perf_counter() - start
    assert worst <= 1e-8
    assert elapsed < 30.0
    report("4 crossing formula", f"max residual over n<=200 = {worst:.2e}, {elapsed:.2f} s")


def test_criterion_05_large_field_expansion(alpha):
    offset = (alpha * alpha + 2.0) / 6.0
    assert abs(offset - 0.430858) <= 1e-6
    start = time.perf_counter()
    details = []
    for b in (1e3, 1e4, 1e5):
        lam = disk.envelope([b])[2].item()
        residual = abs(lam - (alpha * math.sqrt(b) - offset))
        budget = 5.0 / math.sqrt(b)
        assert residual <= budget, f"b={b}: {residual} > {budget}"
        details.append(f"b=1e{int(math.log10(b))}: {residual:.2e}<={budget:.2e}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report("5 ground-state expansion", "; ".join(details) + f", {elapsed:.2f} s")


def test_criterion_06_asymptotic_fit(alpha):
    ns = sorted({int(round(n)) for n in np.geomspace(1000, 10_000, 30)})
    records = [intersect.find_zn(n) for n in ns]
    fit = intersect.fit_asymptotics(records)
    sqrt_err = abs(fit.coefficients[0] - alpha)
    const_err = abs(fit.coefficients[1] - (alpha * alpha + 2.0) / 3.0)
    assert sqrt_err <= 1e-3
    assert const_err <= 1e-2
    gap_err = abs(
        intersect.find_zn(10_000).z_n - intersect.find_zn(9_999).z_n - (1.0 + 0.5 * alpha / 100.0)
    )
    assert gap_err <= 2e-3
    report(
        "6 crossing asymptotics",
        f"sqrt-coeff err = {sqrt_err:.2e}, const err = {const_err:.2e}, gap err = {gap_err:.2e}",
    )


def test_criterion_07_strong_diamagnetism():
    grid = np.linspace(100.0 / 10_000, 100.0, 10_000)
    values = disk.envelope(grid)[2].tolist()
    increments = [b - a for a, b in zip(values, values[1:])]
    assert min(increments) > 0.0
    worst_pair = -math.inf
    for n in range(1, 21):
        for b in (0.5, 2.0, 5.0, 10.0, 20.0, 35.0, 50.0):
            worst_pair = max(worst_pair, disk.lambda_n(n, b) - disk.lambda_minus_n(n, b))
    assert worst_pair <= 1e-12
    report(
        "7 strong diamagnetism",
        f"min envelope increment = {min(increments):.2e} on 10^4 points, "
        f"max lambda_n - lambda_-n = {worst_pair:.2e}",
    )


def test_criterion_08_identity_suite():
    checks = [
        (verify.check_contiguous_c_shift, "contiguous"),
        (verify.check_contiguous_a_shift, "contiguous"),
        (verify.check_contiguous_derivative_a, "contiguous"),
        (verify.check_contiguous_derivative_ac, "contiguous"),
        (verify.check_cylinder_recurrence_derivative_up, "cylinder"),
        (verify.check_cylinder_recurrence_three_term, "cylinder"),
        (verify.check_cylinder_recurrence_derivative_down, "cylinder"),
        (verify.check_lambda_prime_vs_fd, "lambda-prime"),
        (verify.check_lambda_prime_two_forms, "lambda-prime"),
        (verify.check_stationary_at_previous_crossing, "second-derivative"),
    ]
    failures = []
    for check, _ in checks:
        result = check()
        if not result.passed:
            failures.append(f"{result.name}: {result.detail}")
    assert not failures, "; ".join(failures)
    report("8 identity suite", f"{len(checks)} identity families within tolerance")


def test_criterion_09_limit_objects(alpha):
    phi_prime_err = abs(central_diff(models.phi, alpha) - 0.5)
    assert phi_prime_err <= 1e-6
    arithmetic = (1.0 - 10.0 * alpha * alpha) / 12.0
    delta_err = abs(models.delta(alpha) - arithmetic)
    assert delta_err <= 1e-6
    report("9 limit objects", f"|phi'(alpha) - 1/2| = {phi_prime_err:.2e}, |Delta(alpha) - arithmetic| = {delta_err:.2e}")


def test_criterion_10_comparison_bound(alpha):
    u0_sq, bound = models.comparison_bound()
    u0_err = abs(u0_sq - 0.7622)
    bound_err = abs(bound - 1.0946)
    assert u0_err <= 5e-3
    assert bound_err <= 5e-3
    assert alpha <= bound
    report(
        "10 comparison bound",
        f"|u0^2 - 0.7622| = {u0_err:.2e}, |bound - 1.0946| = {bound_err:.2e}, alpha <= bound",
    )
