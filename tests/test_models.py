"""Tests for the model constants and limit functions."""

import math

import numpy as np
import pytest

from magsteklov import models, verify
from magsteklov.numerics import DomainError
from magsteklov.specfun import cylinder_d
from magsteklov.verify import central_diff

ALPHA_REF = 0.7649508673
THETA0_REF = 0.5901061249
XI0_REF = 0.76818


# ------------------------------------------------------------------- alpha


class TestAlpha:
    def test_reference_digits(self):
        assert abs(models.compute_alpha() - ALPHA_REF) <= 1e-8

    def test_root_residual(self):
        alpha = models.compute_alpha()
        assert abs(cylinder_d(0.5, -alpha).value) <= 1e-10

    def test_fixed_point_of_multiplier(self):
        alpha = models.compute_alpha()
        assert models.halfplane_multiplier(alpha) == pytest.approx(alpha, abs=1e-8)


# -------------------------------------------------------------- half plane


class TestHalfplaneMultiplier:
    def test_value_at_zero_closed_form(self):
        # f1(0) = 2 D_{1/2}(0)/D_{-1/2}(0) with D_nu(0) = 2^{nu/2} sqrt(pi)/Gamma((1-nu)/2)
        d_half = 2.0**0.25 * math.sqrt(math.pi) / math.gamma(0.25)
        d_minus = 2.0**-0.25 * math.sqrt(math.pi) / math.gamma(0.75)
        assert models.halfplane_multiplier(0.0) == pytest.approx(
            2.0 * d_half / d_minus, rel=1e-11
        )

    def test_argmin_is_alpha(self):
        alpha = models.compute_alpha()
        assert verify.halfplane_argmin() == pytest.approx(alpha, abs=1e-6)

    def test_defined_on_negative_arguments(self):
        assert math.isfinite(models.halfplane_multiplier(-2.0))


class TestHalfplaneBottom:
    def test_unit_field(self):
        assert models.halfplane_bottom(1.0) == pytest.approx(models.compute_alpha(), rel=1e-14)

    def test_scaling(self):
        alpha = models.compute_alpha()
        assert models.halfplane_bottom(4.0) == pytest.approx(2.0 * alpha, rel=1e-14)
        assert models.halfplane_bottom(100.0) == pytest.approx(10.0 * alpha, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            models.halfplane_bottom(0.0)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected(self, b):
        with pytest.raises(DomainError, match="^b must be positive and finite"):
            models.halfplane_bottom(b)


# ---------------------------------------------------------------- de Gennes


class TestDeGennes:
    def test_root_location(self):
        xi0 = models.compute_xi0()
        assert abs(xi0 - XI0_REF) <= 5e-5
        assert abs(xi0 * xi0 - THETA0_REF) <= 1e-6

    def test_residual_at_root(self):
        assert abs(models.degennes_f(models.compute_xi0())) <= 1e-7

    def test_sign_change_on_bracket(self):
        assert models.degennes_f(0.5) > 0.0 > models.degennes_f(1.0)

    def test_domain(self):
        with pytest.raises(DomainError):
            models.degennes_f(2.0)


# ------------------------------------------------------------ limit objects


class TestPhi:
    def test_fixed_point_at_alpha(self):
        alpha = models.compute_alpha()
        assert models.phi(alpha) == pytest.approx(alpha, abs=1e-10)

    def test_slope_at_alpha(self):
        alpha = models.compute_alpha()
        assert central_diff(models.phi, alpha) == pytest.approx(0.5, abs=1e-6)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
    def test_two_routes_agree(self, beta):
        assert abs(models.phi(beta) - verify.phi_from_integrals(beta)) <= 1e-9


class TestDelta:
    def test_exact_value_at_alpha(self):
        alpha = models.compute_alpha()
        arithmetic = (1.0 - 10.0 * alpha * alpha) / 12.0
        assert models.delta(alpha) == pytest.approx(arithmetic, abs=1e-6)
        assert arithmetic == pytest.approx(-0.404292, abs=1e-6)

    @pytest.mark.parametrize("beta", [0.2, 0.7649508673, 1.1])
    def test_is_derivative_of_moment_ratio(self, beta):
        def ratio(x):
            a, _, c, d = models.moment_integrals(x)
            return d / c

        assert models.delta(beta) == pytest.approx(central_diff(ratio, beta), abs=1e-5)

    def test_log_derivative_of_c_at_alpha(self):
        alpha = models.compute_alpha()
        a, _, c, _ = models.moment_integrals(alpha)
        assert a / c == pytest.approx(alpha, abs=1e-7)  # A = C', so this is C'/C

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -math.inf])
    def test_non_finite_beta_rejected(self, beta):
        with pytest.raises(DomainError, match="^beta must be finite"):
            models.moment_integrals(beta)
        with pytest.raises(DomainError, match="^beta must be finite"):
            models.delta(beta)


@pytest.mark.parametrize(
    "function, name, value",
    [
        (models.halfplane_multiplier, "xi", math.nan),
        (models.halfplane_multiplier, "xi", math.inf),
        (models.halfplane_multiplier, "xi", 60.0),
        (models.halfplane_multiplier, "xi", -50.5),
        (models.phi, "beta", math.nan),
        (models.phi, "beta", math.inf),
        (models.phi, "beta", 51.0),
    ],
)
def test_cylinder_argument_checked_as_given(function, name, value):
    message = rf"^{name} must be finite with \|{name}\| <= 50, got {name}={value!r}$"
    with pytest.raises(DomainError, match=message):
        function(value)


@pytest.mark.parametrize("function", [models.phi, models.degennes_f, models.halfplane_multiplier])
def test_numpy_scalar_argument_gives_the_float_result(function):
    for x in (np.float64(0.7), np.float64(-0.0), np.int64(1)):
        value = function(x)
        assert type(value) is float
        assert value.hex() == function(float(x)).hex()


# ------------------------------------------------------------ comparison 6.3


class TestComparisonBound:
    def test_ground_state_boundary_value(self):
        u0_sq, _ = models.comparison_bound()
        assert u0_sq == pytest.approx(0.7622, abs=5e-3)

    def test_bound_value(self):
        _, bound = models.comparison_bound()
        assert bound == pytest.approx(1.0946, abs=5e-3)

    def test_alpha_below_bound(self):
        _, bound = models.comparison_bound()
        assert models.compute_alpha() <= bound


# ----------------------------------------------------------------- constants


class TestModelConstants:
    def test_assembled_consistently(self):
        c = models.constants()
        assert c.theta0 == c.xi0 * c.xi0
        assert c.delta_alpha == (1.0 - 10.0 * c.alpha * c.alpha) / 12.0
        assert 0.0 < c.alpha < 1.0
        assert c.alpha <= c.alpha_upper_bound

    def test_cached_instances_consistent(self):
        first = models.constants()
        second = models.constants()
        assert first.alpha == second.alpha
        assert first.u0_sq_at_0 == second.u0_sq_at_0
        assert first is second  # resolved once per process


def test_a_bound_below_alpha_fails_only_its_check_by_its_residual(bound_below_alpha):
    # the constants resolve, and the violated invariant fails one named row
    results = verify.run_suite(only="constants")
    failed = [r for r in results if not r.passed]
    assert [r.name for r in failed] == ["alpha-below-bound"]
    assert len(results) == 8
    assert failed[0].measured == models.constants().alpha - bound_below_alpha > failed[0].limit
    assert failed[0].detail.startswith("max residual")


# ------------------------------------------------- invariant suite delegates


@pytest.mark.parametrize(
    "check",
    [
        verify.check_first_order_condition,
        verify.check_neumann_condition,
        verify.check_moment_ode,
        verify.check_phi_no_pole,
        verify.check_halfplane_scaling,
        verify.check_phi_two_routes,
    ],
    ids=lambda fn: fn.__name__,
)
def test_invariant_suite(check):
    result = check()
    assert result.passed, result.detail
