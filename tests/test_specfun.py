"""Tests for the Kummer, Laguerre and parabolic cylinder evaluations.

Expected values come from independent oracles computed here: plain-float
truncated series, the Euler-type integral representation, closed forms in
Gamma values, and finite differences.
"""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from magsteklov import models, verify
from magsteklov.numerics import (
    DEFAULT_TOL,
    ConvergenceError,
    DomainError,
    ScaledReal,
    central_diff,
    gamma,
)
from magsteklov.specfun import (
    cylinder_d,
    kummer_log_ratio,
    kummer_m,
    kummer_m_prime,
    laguerre,
    large_z_quotient,
)

ALPHA_REF = 0.7649508673  # reference digits for the negative zero of D_{1/2}

# ----------------------------------------------------------------- oracles


def series_oracle(a, c, z, terms=60):
    """Naive float summation of the defining series, for small |z| only."""
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * z / ((c + k) * (k + 1.0))
        total += term
    return total


def euler_integral_oracle(a, c, z):
    """Integral form Gamma(c)/(Gamma(c-a)Gamma(a)) int_0^1 e^{zt} t^{a-1}(1-t)^{c-a-1} dt."""
    coeff = gamma(c) / (gamma(c - a) * gamma(a))
    value, _ = integrate.quad(
        lambda t: math.exp(z * t) * t ** (a - 1.0) * (1.0 - t) ** (c - a - 1.0),
        0.0,
        1.0,
        limit=200,
    )
    return coeff * value


def cylinder_zero_closed_form():
    """D_{-1/2}(0) = 2^{-3/4} Gamma(1/4) / Gamma(1/2)."""
    return 2.0**-0.75 * gamma(0.25) / gamma(0.5)


# ------------------------------------------------------------------- kummer


class TestKummerM:
    def test_empty_series(self):
        assert kummer_m(0.7, 1.3, 0.0).value.to_float() == 1.0

    def test_collapses_to_exp(self):
        assert kummer_m(1.0, 1.0, 1.0).value.to_float() == pytest.approx(math.e, rel=1e-14)

    def test_against_series_oracle(self):
        expected = series_oracle(0.5, 1.0, 2.0)  # = 3.4415238691253353
        value = kummer_m(0.5, 1.0, 2.0).value.to_float()
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(3.4415238691253353, rel=1e-12)

    def test_against_integral_representation(self):
        assert kummer_m(0.5, 1.0, 2.0).value.to_float() == pytest.approx(
            euler_integral_oracle(0.5, 1.0, 2.0), rel=1e-9
        )

    def test_negative_argument_transformation(self):
        # small |z|, so the raw alternating series is still a usable oracle
        for a, c, z in ((0.5, 4.0, -1.0), (1.5, 5.0, -3.0)):
            raw = series_oracle(a, c, z, terms=80)
            assert kummer_m(a, c, z).value.to_float() == pytest.approx(raw, rel=1e-11)

    def test_negative_a_single_sign_flip(self):
        # M(-1/2, 1, z) = 1 - (positive series); assembled without cancellation
        expected = series_oracle(-0.5, 1.0, 1.0, terms=80)
        value = kummer_m(-0.5, 1.0, 1.0).value.to_float()
        assert value == pytest.approx(expected, rel=1e-12)

    def test_non_positive_integer_c_rejected(self):
        with pytest.raises(DomainError):
            kummer_m(0.5, 0.0, 1.0)
        with pytest.raises(DomainError):
            kummer_m(0.5, -3.0, 1.0)

    def test_domain_cap(self):
        with pytest.raises(DomainError):
            kummer_m(0.5, 1.0, 2e6)

    def test_non_convergence_flag_and_strict(self, monkeypatch):
        from magsteklov import specfun

        monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
        result = kummer_m(0.5, 1.0, 40.0)
        assert not result.converged
        with pytest.raises(ConvergenceError):
            kummer_m(0.5, 1.0, 40.0, strict=True)

    @given(
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_positive_series_positive_and_converged(self, a, c, z):
        result = kummer_m(a, c, z)
        assert result.converged
        assert result.value.sign == 1

    def test_large_argument_growth_card(self):
        # M(1/2, 2, 500) ~ Gamma(2)/Gamma(1/2) e^500 500^{-3/2}; check the exponent
        value = kummer_m(0.5, 2.0, 500.0).value
        expected_log2 = (500.0 - 1.5 * math.log(500.0) - math.log(gamma(0.5))) / math.log(2.0)
        actual_log2 = math.log2(abs(value.mantissa)) + value.exponent
        assert actual_log2 == pytest.approx(expected_log2, abs=0.01)

    @pytest.mark.parametrize("z", [354.0, 356.0, 358.0, 710.0])
    def test_exact_exp_across_rescale_boundary(self, z):
        # M(1, 1, z) = e^z; the partial sum crosses the internal 2**512
        # rescale right around the term peak here, which once truncated the
        # series early (the stop test must see term and sum in one scaling)
        value = kummer_m(1.0, 1.0, z).value
        expected = ScaledReal.exp(z)
        assert float(value / expected) == pytest.approx(1.0, rel=1e-12)

    def test_large_parameter_contiguous_residual(self):
        # transformed branch regime: a of size n, c ~ a, z between; the term
        # peak sits far beyond z - c, which a naive peak guard misses
        a, c, z = 216.5, 218.0, 374.57
        m_mid = kummer_m(a, c, z, strict=True).value
        m_up = kummer_m(a + 1.0, c, z, strict=True).value
        m_dn = kummer_m(a - 1.0, c, z, strict=True).value
        mp_ = kummer_m_prime(a, c, z)
        # a M(a+1,c,z) - a M(a,c,z) - z M'(a,c,z) = 0
        terms = [
            ScaledReal.from_float(a) * m_up,
            ScaledReal.from_float(-a) * m_mid,
            ScaledReal.from_float(-z) * mp_,
        ]
        total = terms[0] + terms[1] + terms[2]
        scale = abs(terms[0]) + abs(terms[1]) + abs(terms[2])
        assert float(abs(total) / scale) <= 1e-12
        # (c-a) M(a-1,c,z) + (z+a-c) M(a,c,z) - z M'(a,c,z) = 0
        terms = [
            ScaledReal.from_float(c - a) * m_dn,
            ScaledReal.from_float(z + a - c) * m_mid,
            ScaledReal.from_float(-z) * mp_,
        ]
        total = terms[0] + terms[1] + terms[2]
        scale = abs(terms[0]) + abs(terms[1]) + abs(terms[2])
        assert float(abs(total) / scale) <= 1e-12


class TestKummerPrime:
    def test_at_zero(self):
        assert float(kummer_m_prime(0.5, 1.0, 0.0)) == pytest.approx(0.5, rel=1e-14)

    def test_exp_case(self):
        assert float(kummer_m_prime(1.0, 1.0, 1.0)) == pytest.approx(math.e, rel=1e-14)

    def test_shift_identity_vs_series(self):
        # (a/c) M(a+1, c+1, z) with the series oracle; = 1.466507901225137
        expected = 0.25 * series_oracle(1.5, 3.0, 3.0)
        assert float(kummer_m_prime(0.5, 2.0, 3.0)) == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_difference(self):
        fd = central_diff(lambda z: kummer_m(0.5, 2.0, z).value.to_float(), 3.0)
        assert float(kummer_m_prime(0.5, 2.0, 3.0)) == pytest.approx(fd, rel=1e-8)


class TestKummerLogRatio:
    def test_at_zero_is_a_over_c(self):
        assert kummer_log_ratio(0.5, 1.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_exp_ratio_is_one(self):
        for z in (0.5, 7.0, 300.0):
            assert kummer_log_ratio(1.0, 1.0, z) == pytest.approx(1.0, rel=1e-13)

    def test_large_argument_scaled_quotient(self):
        # independent scaled quotient: both series via the raw recurrence with
        # a shared running rescale
        ratio = kummer_log_ratio(0.5, 11.0, 500.0)
        num = kummer_m(1.5, 12.0, 500.0).value
        den = kummer_m(0.5, 11.0, 500.0).value
        expected = (0.5 / 11.0) * float(num / den)
        assert ratio == pytest.approx(expected, rel=1e-10)
        assert 0.0 < ratio < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            kummer_log_ratio(-0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            kummer_log_ratio(0.5, 1.0, -1.0)


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position, name", [(0, "a"), (1, "c"), (2, "z")])
    def test_rejected_naming_the_argument(self, bad, position, name):
        args = [0.5, 1.0, 3.0]
        args[position] = bad
        for fn in (kummer_m, kummer_log_ratio):
            with pytest.raises(DomainError, match=f"{name} must be finite"):
                fn(*args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cylinder_d_rejects_non_finite_z(self, bad):
        with pytest.raises(DomainError, match="z must be finite"):
            cylinder_d(0.5, bad)
        with pytest.raises(DomainError, match="z must be finite"):
            models.halfplane_multiplier(bad)

    def test_nan_rejected_fast(self):
        start = time.perf_counter()
        for fn in (kummer_m, kummer_log_ratio):
            with pytest.raises(DomainError):
                fn(0.5, 1.0, math.nan)
        with pytest.raises(DomainError):
            cylinder_d(-0.5, math.nan)
        assert time.perf_counter() - start < 0.01


# ------------------------------------------------------------ large-z route


class TestLargeZQuotient:
    def test_matches_series_quotient(self):
        # M'/M for a = 1/2 is S(3/2, c+1, z) / S(1/2, c, z) with no prefactor
        for c, z in ((1.0, 60.0), (11.0, 500.0), (101.0, 3000.0)):
            quotient = large_z_quotient((1.5, c + 1.0), (0.5, c), z)
            assert quotient is not None
            assert quotient == pytest.approx(kummer_log_ratio(0.5, c, z), rel=1e-13)

    def test_negative_branch_prefactor(self):
        # M(a, c+1, z) / M(a, c, z) = (c/z) S(a, c+1, z) / S(a, c, z)
        a, c, z = 5.5, 6.0, 400.0
        quotient = large_z_quotient((a, c + 1.0), (a, c), z)
        assert quotient is not None
        expected = float(kummer_m(a, c + 1.0, z).value / kummer_m(a, c, z).value)
        assert c / z * quotient == pytest.approx(expected, rel=1e-13)

    def test_declines_where_terms_grow_first(self):
        # at (n=20, z=50) the terms turn to growth above 1e-17 of the sum
        assert large_z_quotient((1.5, 22.0), (0.5, 21.0), 50.0) is None
        assert large_z_quotient((1.5, 2.0), (0.5, 1.0), 0.0) is None

    def test_domain_is_that_of_kummer_m(self):
        for z in (2e6, math.nan, math.inf):
            with pytest.raises(DomainError):
                large_z_quotient((1.5, 2.0), (0.5, 1.0), z)

    def test_needs_half_integer_first_parameters(self):
        # S(1, 2, z) = 1 exactly, but M(1, 2, z) = (e^z - 1)/z: for integer a
        # the neglected exponential part is not bounded by the terms of S
        with pytest.raises(DomainError):
            large_z_quotient((2.0, 3.0), (1.0, 2.0), 100.0)
        with pytest.raises(DomainError):
            large_z_quotient((1.5, 2.0), (0.25, 1.0), 100.0)
        assert large_z_quotient((-0.5, 2.0), (0.5, 1.0), 100.0) is not None

    def test_sum_has_a_hard_term_cap(self):
        from magsteklov import specfun

        # no ratio test can fail on NaN, so only the cap ends this loop
        start = time.perf_counter()
        assert specfun._large_z_sum(0.5, 1.0, math.nan) is None
        assert time.perf_counter() - start < 0.01


# ----------------------------------------------------------------- laguerre


class TestLaguerre:
    def test_constant(self):
        assert laguerre(0.0, 0.0, 5.0) == pytest.approx(1.0, rel=1e-14)

    def test_degree_one_polynomial(self):
        for z in (0.0, 0.7, 2.5):
            assert laguerre(1.0, 0.0, z) == pytest.approx(1.0 - z, abs=1e-13)

    def test_half_order_value(self):
        # Gamma(1/2)/(Gamma(1)Gamma(1/2)) M(1/2, 1, 1) = M(1/2, 1, 1)
        expected = series_oracle(0.5, 1.0, 1.0)  # = 1.7533876543770904
        assert laguerre(-0.5, 0.0, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_gamma_domain(self):
        with pytest.raises(DomainError):
            laguerre(-1.5, 0.0, 1.0)


# ----------------------------------------------------------------- cylinder


class TestCylinderD:
    def test_value_at_origin_closed_form(self):
        value = cylinder_d(-0.5, 0.0).value
        assert value == pytest.approx(cylinder_zero_closed_form(), rel=1e-12)

    def test_root_of_order_one_half(self):
        assert abs(cylinder_d(0.5, -ALPHA_REF).value) <= 1e-8

    def test_large_z_asymptotic(self):
        z = 10.0
        value = cylinder_d(-0.5, z).value
        assert value == pytest.approx(math.exp(-0.25 * z * z) * z**-0.5, rel=0.01)

    def test_derivative_from_recurrence_at_origin(self):
        # D'_{-1/2}(0) = -D_{1/2}(0); both sides via different routes
        d = cylinder_d(-0.5, 0.0)
        assert d.derivative == pytest.approx(-cylinder_d(0.5, 0.0).value, rel=1e-12)

    def test_derivative_vs_finite_difference(self):
        for nu, z in ((-1.5, 0.3), (-0.5, -1.2), (0.5, 2.0), (1.5, -0.7)):
            fd = central_diff(lambda x: cylinder_d(nu, x).value, z)
            assert cylinder_d(nu, z).derivative == pytest.approx(fd, rel=1e-7, abs=1e-9)

    def test_lifted_orders_against_integral_anchors(self):
        # lift D_{3/2} by recurrence, compare with z D_{1/2} - (1/2) D_{-1/2}
        z = 1.1
        direct = cylinder_d(1.5, z).value
        combo = z * cylinder_d(0.5, z).value - 0.5 * cylinder_d(-0.5, z).value
        assert direct == pytest.approx(combo, rel=1e-12)

    @pytest.mark.parametrize("z", [-30.0, -9.9, -2.0, -0.3, 0.4, 3.0, 11.0])
    def test_integer_order_closed_forms(self, z):
        # D_n(z) = 2^{-n/2} e^{-z^2/4} H_n(z/sqrt(2)) reduces to polynomials:
        # D_1 = z e^{-z^2/4}, D_2 = (z^2-1) e^{-z^2/4}, D_3 = (z^3-3z) e^{-z^2/4}.
        # Exercises both positive-order routes (series split for z <= 0,
        # recurrence lift for z > 0) against exact values.
        damp = math.exp(-0.25 * z * z)
        for nu, poly in ((1.0, z), (2.0, z * z - 1.0), (3.0, z**3 - 3.0 * z)):
            got = cylinder_d(nu, z).value
            assert got == pytest.approx(poly * damp, rel=1e-12, abs=1e-290)

    def test_negative_large_z_no_overflow(self):
        value = cylinder_d(-0.5, -50.0).value
        assert math.isfinite(value) and value > 0.0

    @given(
        st.floats(min_value=-3.9, max_value=-0.05),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_negative_order_positivity(self, nu, z):
        assert cylinder_d(nu, z).value > 0.0

    def test_order_boundary_derivative(self):
        # nu = -4 pulls its derivative anchor from order -5 internally
        got = cylinder_d(-4.0, 1.2)
        fd = central_diff(lambda x: cylinder_d(-4.0, x).value, 1.2)
        assert got.derivative == pytest.approx(fd, rel=1e-7)

    def test_domain(self):
        with pytest.raises(DomainError):
            cylinder_d(4.5, 0.0)
        with pytest.raises(DomainError):
            cylinder_d(0.5, 60.0)


# ------------------------------------------------- invariant suite delegates


@pytest.mark.parametrize(
    "check",
    [
        verify.check_contiguous_c_shift,
        verify.check_contiguous_a_shift,
        verify.check_contiguous_derivative_a,
        verify.check_contiguous_derivative_ac,
        verify.check_kummer_derivative_fd,
        verify.check_cylinder_recurrence_derivative_up,
        verify.check_cylinder_recurrence_three_term,
        verify.check_cylinder_recurrence_derivative_down,
        verify.check_cylinder_ode,
        verify.check_cylinder_asymptotic,
        verify.check_cylinder_positivity,
    ],
    ids=lambda fn: fn.__name__,
)
def test_invariant_suite(check):
    result = check(DEFAULT_TOL)
    assert result.passed, result.detail
