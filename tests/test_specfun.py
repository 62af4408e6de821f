"""Tests for the Kummer and parabolic cylinder evaluations.

Expected values come from independent oracles computed here: plain-float
truncated series, the Euler-type integral representation, closed forms in
Gamma values, and finite differences.
"""

import collections
import contextlib
import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from large_z import large_z_sum
from naive_series import kummer_series
from scaled_real import ScaledReal, kummer_m

from magsteklov import disk, intersect, models, specfun, verify
from magsteklov.numerics import EPS, REL_TOL, ConvergenceError, DomainError
from magsteklov.specfun import cylinder_d, cylinder_ds, kummer_log_ratio, kummer_log_ratios
from magsteklov.verify import central_diff, kummer_m_prime

ALPHA_REF = 0.7649508673  # reference digits for the negative zero of D_{1/2}

# ----------------------------------------------------------------- oracles


def euler_integral_oracle(a, c, z):
    """Integral form Gamma(c)/(Gamma(c-a)Gamma(a)) int_0^1 e^{zt} t^{a-1}(1-t)^{c-a-1} dt."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        coeff = mpmath.gamma(c) / (mpmath.gamma(c - a) * mpmath.gamma(a))
        value = mpmath.quad(
            lambda t: mpmath.exp(z * t) * t ** (a - 1) * (1 - t) ** (c - a - 1), [0, 1]
        )
        return float(coeff * value)


def tiny_a_log_ratio_oracle(a, z):
    """M'(a, 1, z) / M(a, 1, z) for 0 < a < 1e-300 and z > 0, in 40-digit mpmath.

    The ratio is a M(1 + a, 2, z) / M(a, 1, z).  M(1, 2, z) = (e^z - 1)/z,
    and (a)_k = a (k-1)! (1 + O(a k)) gives M(a, 1, z) = 1 + a Ein(z) with
    Ein(z) = Ei(z) - gamma - ln z, each to a relative O(a ln z), far below an
    ulp.  (mpmath's hyp1f1 loses this ratio at a = 1e-310 for z in ~[690, 840].)
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        a, z = mpmath.mpf(a), mpmath.mpf(z)
        ein = mpmath.ei(z) - mpmath.euler - mpmath.log(z)
        return float(a * mpmath.expm1(z) / z / (1 + a * ein))


def scaled_even_odd(nu, z):
    """D_nu(z) for z <= 0 from the even/odd Kummer decomposition, assembled in ScaledReal."""

    def rgamma(x):
        return 0.0 if x <= 0.0 and x == math.floor(x) else 1.0 / math.gamma(x)

    w = 0.5 * z * z
    even = ScaledReal.from_float(rgamma(0.5 * (1.0 - nu))) * kummer_m(-0.5 * nu, 0.5, w)
    odd = ScaledReal.from_float(-math.sqrt(2.0) * z * rgamma(-0.5 * nu)) * kummer_m(
        0.5 * (1.0 - nu), 1.5, w
    )
    prefactor = ScaledReal.exp(-0.25 * z * z) * ScaledReal.from_float(
        2.0 ** (0.5 * nu) * math.sqrt(math.pi)
    )
    return float(prefactor * (even + odd))


def cylinder_zero_closed_form():
    """D_{-1/2}(0) = 2^{-3/4} Gamma(1/4) / Gamma(1/2)."""
    return 2.0**-0.75 * math.gamma(0.25) / math.gamma(0.5)


# ------------------------------------------------------------------- kummer


class TestKummerM:
    """The library's Kummer series, read through the reference scalar M of scaled_real."""

    def test_empty_series(self):
        assert kummer_m(0.7, 1.3, 0.0).to_float() == 1.0

    def test_collapses_to_exp(self):
        assert kummer_m(1.0, 1.0, 1.0).to_float() == pytest.approx(math.e, rel=1e-14)

    def test_against_series_oracle(self):
        expected = kummer_series(0.5, 1.0, 2.0, 60)  # = 3.4415238691253353
        value = kummer_m(0.5, 1.0, 2.0).to_float()
        assert value == pytest.approx(expected, rel=1e-12)
        assert value == pytest.approx(3.4415238691253353, rel=1e-12)

    def test_against_integral_representation(self):
        assert kummer_m(0.5, 1.0, 2.0).to_float() == pytest.approx(
            euler_integral_oracle(0.5, 1.0, 2.0), rel=1e-9
        )

    def test_negative_a_single_sign_flip(self):
        # M(-1/2, 1, z) = 1 - (positive series); assembled without cancellation
        expected = kummer_series(-0.5, 1.0, 1.0, 80)
        value = kummer_m(-0.5, 1.0, 1.0).to_float()
        assert value == pytest.approx(expected, rel=1e-12)

    def test_non_convergence_flag_and_strict(self, monkeypatch):
        # non-convergence raises; no result is returned to misread
        monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
        with pytest.raises(ConvergenceError):
            kummer_m(0.5, 1.0, 40.0)

    @given(
        st.floats(min_value=0.1, max_value=4.0),
        st.floats(min_value=0.5, max_value=20.0),
        st.floats(min_value=0.0, max_value=200.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_positive_series_positive_and_converged(self, a, c, z):
        result = kummer_m(a, c, z)  # raises ConvergenceError if the series does not converge
        assert result.sign == 1

    def test_large_argument_growth_card(self):
        # M(1/2, 2, 500) ~ Gamma(2)/Gamma(1/2) e^500 500^{-3/2}; check the exponent
        value = kummer_m(0.5, 2.0, 500.0)
        expected_log2 = (500.0 - 1.5 * math.log(500.0) - math.log(math.gamma(0.5))) / math.log(2.0)
        actual_log2 = math.log2(abs(value.mantissa)) + value.exponent
        assert actual_log2 == pytest.approx(expected_log2, abs=0.01)

    @pytest.mark.parametrize("z", [354.0, 356.0, 358.0, 710.0])
    def test_exact_exp_across_rescale_boundary(self, z):
        # M(1, 1, z) = e^z; the partial sum crosses the internal 2**512
        # rescale right around the term peak here, which once truncated the
        # series early (the stop test must see term and sum in one scaling)
        value = kummer_m(1.0, 1.0, z)
        expected = ScaledReal.exp(z)
        assert float(value / expected) == pytest.approx(1.0, rel=1e-12)

    def test_large_parameter_contiguous_residual(self):
        # transformed branch regime: a of size n, c ~ a, z between; the term
        # peak sits far beyond z - c, which a naive peak guard misses
        a, c, z = 216.5, 218.0, 374.57
        m_mid = kummer_m(a, c, z)
        m_up = kummer_m(a + 1.0, c, z)
        m_dn = kummer_m(a - 1.0, c, z)
        mp_ = scaled_m_prime(a, c, z)
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
        assert kummer_m_prime(0.5, 1.0, 0.0) == pytest.approx(0.5, rel=1e-14)

    def test_exp_case(self):
        assert kummer_m_prime(1.0, 1.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_shift_identity_vs_series(self):
        # (a/c) M(a+1, c+1, z) with the series oracle; = 1.466507901225137
        expected = 0.25 * kummer_series(1.5, 3.0, 3.0, 60)
        assert kummer_m_prime(0.5, 2.0, 3.0) == pytest.approx(expected, rel=1e-12)

    def test_matches_finite_difference(self):
        fd = central_diff(lambda z: kummer_m(0.5, 2.0, z).to_float(), 3.0)
        assert kummer_m_prime(0.5, 2.0, 3.0) == pytest.approx(fd, rel=1e-8)


def scaled_m_prime(a, c, z):
    """M'(a, c, z) by the shift identity, in ScaledReal."""
    return ScaledReal.from_float(a / c) * kummer_m(a + 1.0, c + 1.0, z)


def stencil(x):
    """x and the points at which central_diff takes a first derivative at x."""
    points = [x]
    verify.central_diff(lambda t: points.append(t) or 0.0, x)
    return points


class TestVerifyFloatRoutes:
    """verify's Kummer routes, in plain floats, are their ScaledReal forms bit for bit.

    Every M that the checks read lies in the normal float range, where a
    power-of-two scale commutes with rounding; the points are the checks'.
    """

    def test_m_and_m_prime_on_the_kummer_grid(self):
        for a, c, z in verify._KUMMER_GRID:
            # the point, its contiguous neighbours and its finite-difference stencil
            shifted = [(a + 1.0, c, z), (a - 1.0, c, z), (a, c - 1.0, z), (a, c + 1.0, z)]
            shifted += [(a, c, t) for t in stencil(z)]
            for args in shifted:
                assert verify._mval(*args).hex() == kummer_m(*args).to_float().hex(), args
            expected = scaled_m_prime(a, c, z).to_float()
            assert verify.kummer_m_prime(a, c, z).hex() == expected.hex(), (a, c, z)

    def test_both_lambda_prime_forms(self):
        def product_form(n, z):
            mneg = kummer_m(-0.5, float(n), z)
            m = kummer_m(0.5, n + 1.0, z)
            mp = scaled_m_prime(0.5, n + 1.0, z)
            return float(ScaledReal.from_float(-2.0 * n) * mp * mneg / (m * m))

        def deficit_form(n, z):
            m = kummer_m(0.5, n + 1.0, z)
            bracket = m - ScaledReal.from_float(2.0 * n + 1.0) * kummer_m(-0.5, n + 1.0, z)
            return float(scaled_m_prime(0.5, n + 1.0, z) * bracket / (m * m))

        points = list(verify._LAMBDA_PRIME_GRID)
        # the stencils of the stationarity-at-previous-crossing check, around z_{n-1}
        points += [(n, z) for n in (1, 2, 5) for z in stencil(intersect.find_zn(n - 1).z_n)]
        for n, z in points:
            assert verify.lambda_n_prime(n, z).hex() == product_form(n, z).hex(), (n, z)
            assert verify.lambda_n_prime_alt(n, z).hex() == deficit_form(n, z).hex(), (n, z)

    @pytest.mark.parametrize("n", [0, 1, 5, 20, 100])  # the modes of characterization-equivalence
    def test_characterization_residual_at_the_crossing(self, n):
        z = intersect.find_zn(n).z_n
        left = ScaledReal.from_float(z - n - 0.5) * kummer_m(0.5, n + 1.0, z)
        right = ScaledReal.from_float(z) * scaled_m_prime(0.5, n + 1.0, z)
        expected = float(abs(left - right) / (abs(left) + abs(right)))
        assert verify.characterization_residual(n, z).hex() == expected.hex()


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
        num = kummer_m(1.5, 12.0, 500.0)
        den = kummer_m(0.5, 11.0, 500.0)
        expected = (0.5 / 11.0) * float(num / den)
        assert ratio == pytest.approx(expected, rel=1e-10)
        assert 0.0 < ratio < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            kummer_log_ratio(-0.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            kummer_log_ratio(1.0, 0.0, 1.0)
        # z < 0 maps to M(c-a, c, y), which has zeros on y > 0 when c < a
        with pytest.raises(DomainError):
            kummer_log_ratio(2.0, 1.0, -1.0)

    def test_negative_argument_against_mpmath(self, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        spy = SeriesSpy(monkeypatch)
        cases = [(0.5, 1.0, -1.0, "series"), (0.5, 21.0, -20.0, "series")]
        cases += [(0.5, 1.0, -1e3, "expansion"), (0.5, 21.0, -1e5, "expansion")]
        cases += [(1.0, 1.5, -300.0, "expansion"), (0.5, 1.5, -300.0, "series")]
        for a, c, z, expected_route in cases:
            value, route = spy.route(a, c, z)
            assert route == expected_route, (a, c, z)
            with mpmath.workdps(40):
                ref = a / c * mpmath.hyp1f1(a + 1, c + 1, z) / mpmath.hyp1f1(a, c, z)
                assert float(abs((value - ref) / ref)) <= 1e-14, (a, c, z)

    def test_tiny_a_gives_the_finite_ratio(self):
        # below a ~ c * 2**-1024 the quotient M(a+1, c+1, z) / M(a, c, z) passes
        # the float range near z = 716 while M'/M stays below 1, so a/c
        # multiplies the quotient before the power of two scales it
        z = np.linspace(600.0, 1000.0, 40)
        for z_i in (z[0], 720.0, 1000.0):
            ref = tiny_a_log_ratio_oracle(1e-310, z_i)
            assert abs(kummer_log_ratio(1e-310, 1.0, z_i) - ref) <= 1e-13 * ref, z_i
        for lanes in (z[-1:], z):
            values = kummer_log_ratios(1e-310, np.ones_like(lanes), lanes).tolist()
            refs = [tiny_a_log_ratio_oracle(1e-310, z_i) for z_i in lanes.tolist()]
            assert all(abs(v - r) <= 1e-13 * r for v, r in zip(values, refs)), len(lanes)

    def test_subnormal_a_over_c_rounds_on_the_normal_grid(self, monkeypatch):
        # a/c below 2**-1022 would round on the subnormal grid, by up to 2.5e-15
        # of the ratio at the scalar point; it is formed from a * 2**1022 and
        # scaled back, so the ratio is the quotient of the series' own sums to
        # ~1.5 ulp
        mpmath = pytest.importorskip("mpmath")
        series = specfun._series_parts
        sums = []

        def recorded(*args):
            sums.append(series(*args))
            return sums[-1]

        def sums_quotient(a, c, num, den):
            with mpmath.workdps(40):
                scale = mpmath.ldexp(1, num[1] - den[1])
                return mpmath.mpf(a) / c * mpmath.mpf(num[0]) / mpmath.mpf(den[0]) * scale

        monkeypatch.setattr(specfun, "_series_parts", recorded)
        value = kummer_log_ratio(1e-305, 1e4, 1e6)
        assert abs(value - sums_quotient(1e-305, 1e4, *sums)) <= 2 * EPS * value
        with mpmath.workdps(40):
            a = mpmath.mpf(1e-305)
            exact = a / 1e4 * mpmath.hyp1f1(a + 1, 1e4 + 1, 1e6) / mpmath.hyp1f1(a, 1e4, 1e6)
        # the rest of the error is the drift of ~1e6 series terms, 4e-14 here
        assert abs(value - exact) <= REL_TOL * value

        z = np.linspace(600.0, 1000.0, 40).tolist()
        values = kummer_log_ratios(1e-310, np.ones(40), np.array(z)).tolist()
        for v, z_i in zip(values, z):
            quotient = sums_quotient(1e-310, 1.0, series(1.0, 2.0, z_i), series(1e-310, 1.0, z_i))
            assert abs(v - quotient) <= 2 * EPS * v, z_i
            assert abs(v - tiny_a_log_ratio_oracle(1e-310, z_i)) <= REL_TOL * v, z_i


@pytest.mark.parametrize(
    "call",
    [
        lambda x: cylinder_d(x, -x).value,
        lambda x: cylinder_d(x, -x).derivative,
        lambda x: cylinder_d(-x, x).derivative,
        lambda x: kummer_log_ratio(x, x + 0.5, x),
        lambda x: kummer_log_ratio(x, x + 0.5, -x),
    ],
    ids=[
        "cylinder_d_value", "cylinder_d_derivative", "cylinder_d_positive_z",
        "kummer_log_ratio", "kummer_log_ratio_negative_z",
    ],
)
def test_numpy_scalar_arguments_give_the_float_result(call):
    for x in (np.float64(0.7), np.float64(1.5), np.int64(2)):
        value = call(x)
        assert type(value) is float
        assert value.hex() == call(float(x)).hex()


class TestNonFiniteInput:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("position, name", [(0, "a"), (1, "c"), (2, "z")])
    def test_rejected_naming_the_argument(self, bad, position, name):
        args = [0.5, 1.0, 3.0]
        args[position] = bad
        if name == "z":
            message = f"z must lie in [-1e+06, 1e+06], got z={bad!r}"
        else:
            a, c, z = args
            message = (
                "kummer_log_ratio requires finite a > 0 and c > 0, and c >= a for z < 0;"
                f" got a={a!r}, c={c!r}, z={z!r}"
            )
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            kummer_log_ratio(*args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_cylinder_d_rejects_non_finite_z(self, bad):
        with pytest.raises(DomainError, match=rf"^z must lie in \[-50, 50\], got z={bad!r}$"):
            cylinder_d(0.5, bad)
        with pytest.raises(DomainError, match=rf"^xi must lie in \[-50, 50\], got xi={bad!r}$"):
            models.halfplane_multiplier(bad)

    def test_nan_rejected_fast(self):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            kummer_log_ratio(0.5, 1.0, math.nan)
        with pytest.raises(DomainError):
            cylinder_d(-0.5, math.nan)
        assert time.perf_counter() - start < 0.01


@pytest.mark.parametrize(
    "call, series",
    [
        (lambda: kummer_log_ratio(0.5, 5e-324, 1.0), "M(0.5, 5e-324, 1.0)"),
        (lambda: kummer_log_ratio(1e300, 1.0, 1.0), "M(1e+300, 2.0, 1.0)"),
        (lambda: kummer_log_ratios(0.5, np.full(50, 5e-324), np.ones(50)), "M(0.5, 5e-324, 1.0)"),
    ],
    ids=["subnormal-c", "huge-a", "subnormal-c-lanes"],
)
def test_an_overflowing_series_fails_fast(call, series):
    # an inf sum never passes the stopping test and a rescale leaves it inf, so
    # only the rescale's own test ends the loop short of _MAX_TERMS (0.5-20 s)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match=re.escape(f"Kummer series {series} overflowed")):
            call()
    assert time.perf_counter() - start < 0.1


# ------------------------------------------------------------ large-z route


class SeriesSpy:
    """Counts the Kummer series calls kummer_log_ratio makes; zero means the expansion route."""

    def __init__(self, monkeypatch):
        self.series_calls = 0
        series = specfun._series_parts

        def counted(*args):
            self.series_calls += 1
            return series(*args)

        monkeypatch.setattr(specfun, "_series_parts", counted)

    def route(self, a, c, z):
        before = self.series_calls
        value = kummer_log_ratio(a, c, z)
        return value, "series" if self.series_calls > before else "expansion"


@contextlib.contextmanager
def numpy_loop():
    """Inside, _series_sums runs its numpy loop at any lane count, and the scalar loop raises."""

    def scalar_loop(a, c, z):
        raise AssertionError("the scalar series loop ran")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(specfun, "_BATCH_MIN", 0)
        patch.setattr(specfun, "_series_parts", scalar_loop)
        yield


def series_log_ratio(a, c, z):
    """(a/c) M(a+1, c+1, z) / M(a, c, z) straight from the Kummer series."""
    return a / c * float(kummer_m(a + 1.0, c + 1.0, z) / kummer_m(a, c, z))


class TestLargeZQuotient:
    def test_matches_series_quotient(self, monkeypatch):
        # M'/M for a = 1/2 is S(3/2, c+1, z) / S(1/2, c, z) with no prefactor
        spy = SeriesSpy(monkeypatch)
        for c, z in ((1.0, 60.0), (11.0, 500.0), (101.0, 3000.0)):
            quotient, route = spy.route(0.5, c, z)
            assert route == "expansion"
            assert quotient == large_z_sum(1.5, c + 1.0, z) / large_z_sum(0.5, c, z)
            assert quotient == pytest.approx(series_log_ratio(0.5, c, z), rel=1e-13)

    def test_negative_branch_prefactor(self, monkeypatch):
        # M'/M at z = -y is (a/y) S(c-a, c+1, y) / S(c-a, c, y)
        spy = SeriesSpy(monkeypatch)
        a, c, y = 0.5, 6.0, 400.0
        ratio, route = spy.route(a, c, -y)
        assert route == "expansion"
        top = large_z_sum(c - a, c + 1.0, y)
        bottom = large_z_sum(c - a, c, y)
        assert ratio == a / y * (top / bottom)
        expected = a / c * float(kummer_m(c - a, c + 1.0, y) / kummer_m(c - a, c, y))
        assert ratio == pytest.approx(expected, rel=1e-13)

    def test_declines_where_terms_grow_first(self, monkeypatch):
        # at (n=20, z=50) the terms turn to growth above 1e-17 of the sum,
        # so the ratio is the Kummer series quotient
        assert large_z_sum(0.5, 21.0, 50.0) is None
        assert large_z_sum(0.5, 1.0, 0.0) is None
        spy = SeriesSpy(monkeypatch)
        ratio, route = spy.route(0.5, 21.0, 50.0)
        assert route == "series"
        assert ratio == series_log_ratio(0.5, 21.0, 50.0)

    def test_domain_is_that_of_kummer_m(self):
        for z in (2e6, -2e6, math.nan, math.inf):
            with pytest.raises(DomainError):
                kummer_log_ratio(0.5, 1.0, z)

    def test_needs_half_integer_first_parameters(self, monkeypatch):
        # S(1, 2, z) = 1 exactly, but M(1, 2, z) = (e^z - 1)/z: for integer a
        # the neglected exponential part is not bounded by the terms of S, so
        # the expansion would give 0.5 at z = 2 where M'/M is 0.6565...
        spy = SeriesSpy(monkeypatch)
        for z in (2.0, 100.0):
            ratio, route = spy.route(1.0, 2.0, z)
            assert route == "series"
            exact = (z * math.exp(z) - math.expm1(z)) / (z * math.expm1(z))
            assert ratio == pytest.approx(exact, rel=1e-13)
        assert spy.route(0.25, 1.0, 100.0)[1] == "series"
        assert spy.route(0.5, 1.0, 100.0)[1] == "expansion"
        # at z < 0 the shared first parameter is c - a
        assert spy.route(1.0, 1.5, -100.0)[1] == "expansion"
        assert spy.route(0.5, 1.5, -100.0)[1] == "series"

    def test_sum_has_a_hard_term_cap(self):
        # no ratio test can fail on NaN, so only the cap ends this loop
        start = time.perf_counter()
        assert specfun._large_z_sums(1.5, 0.5, 1.0, math.nan) is None
        assert time.perf_counter() - start < 0.01


class TestLargeZSums:
    """The pair loop gives each of its two sums bit for bit as a loop of its own."""

    @staticmethod
    def bits(sums):
        return None if sums is None else tuple(value.hex() for value in sums)

    def assert_pairs_match(self, lanes):
        """Each lane's pair against two single loops; returns the count of each (top, bottom) decline."""
        declined = collections.Counter()
        for upper, lower, c, y in lanes:
            top, bottom = large_z_sum(upper, c + 1.0, y), large_z_sum(lower, c, y)
            expected = None if top is None or bottom is None else (top, bottom)
            pair = specfun._large_z_sums(upper, lower, c, y)
            assert self.bits(pair) == self.bits(expected), (upper, lower, c, y)
            declined[top is None, bottom is None] += 1
        return declined

    @staticmethod
    def random_lanes(seed):
        rng = np.random.default_rng(seed)
        c = np.floor(rng.uniform(0.0, 60.0, 600)) + 1.0
        y = 10.0 ** rng.uniform(0.5, 5.0, 600)
        return list(zip(c.tolist(), y.tolist()))

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5])
    def test_positive_branch(self, a):
        # z >= 0: S(a+1, c+1, z) and S(a, c, z)
        declined = self.assert_pairs_match([(a + 1.0, a, c, z) for c, z in self.random_lanes(int(10 * a))])
        assert declined[False, False] >= 100 and declined[True, True] >= 100
        assert declined[False, True] >= 1  # the bottom sum alone declines

    @pytest.mark.parametrize("a", [0.5, 1.5, 2.5])
    def test_negative_branch(self, a):
        # z = -y < 0: S(c-a, c+1, y) and S(c-a, c, y)
        lanes = [(c - a, c - a, c, y) for c, y in self.random_lanes(int(10 * a) + 100) if c >= a]
        declined = self.assert_pairs_match(lanes)
        assert declined[False, False] >= 100 and declined[True, True] >= 100
        assert declined[True, False] >= 1  # the top sum alone declines

    def test_nan_lane(self):
        # no ratio test can fail on NaN, so only the cap ends either sum
        lanes = [(1.5, 0.5, 1.0, math.nan), (5.5, 5.5, 6.0, math.nan)]
        assert self.assert_pairs_match(lanes) == {(True, True): 2}


# ------------------------------------------------------------- batch kernel


class TestKummerLogRatios:
    """kummer_log_ratios is the series quotient on every lane, bit for bit, and
    so the scalar kummer_log_ratio wherever that refuses the expansion.  The
    lanes are summed in the numpy loop, one lane included."""

    @staticmethod
    def assert_lanes_match(a, c, z):
        lanes = list(zip(c.tolist(), z.tolist()))
        with numpy_loop():
            batch = kummer_log_ratios(a, c, z).tolist()
        series = [series_log_ratio(a, c_i, z_i) for c_i, z_i in lanes]
        mismatched = [
            (lane, x, y) for lane, x, y in zip(lanes, batch, series) if x.hex() != y.hex()
        ]
        assert mismatched == []
        refused = [
            a % 1.0 != 0.5 or specfun._large_z_sums(a + 1.0, a, *lane) is None for lane in lanes
        ]
        scalar = [kummer_log_ratio(a, *lane) for lane, r in zip(lanes, refused) if r]
        assert [x.hex() for x, r in zip(batch, refused) if r] == [y.hex() for y in scalar]

    def test_half_integer_a_on_both_routes(self):
        rng = np.random.default_rng(20261018)
        c = np.floor(rng.uniform(0.0, 400.0, 300)) + 1.0
        z = 10.0 ** rng.uniform(-3.0, 3.5, 300)
        z[:3] = 0.0
        self.assert_lanes_match(0.5, c, z)
        lanes = list(zip(c.tolist(), z.tolist()))
        bottoms = [large_z_sum(0.5, c_i, z_i) for c_i, z_i in lanes]
        tops = [large_z_sum(1.5, c_i + 1.0, z_i) for c_i, z_i in lanes]
        assert sum(t is not None for t in tops) >= 20  # the expansion
        assert sum(b is None for b in bottoms) >= 100  # refused, then the series
        peaks = [specfun._term_peak_bound(0.5, c_i, z_i) > 0.0 for c_i, z_i in lanes]
        assert any(peaks) and not all(peaks)

    def test_rescaled_series_of_a_non_half_integer_a(self):
        rng = np.random.default_rng(7)
        c = rng.uniform(0.1, 40.0, 300)
        z = np.concatenate([10.0 ** rng.uniform(-1.0, 2.5, 100), rng.uniform(300.0, 3000.0, 200)])
        self.assert_lanes_match(0.25, c, z)
        lanes = list(zip(c.tolist(), z.tolist()))
        assert sum(kummer_m(0.25, c_i, z_i).exponent > 512 for c_i, z_i in lanes) >= 150
        # lanes where the two series rescale a different number of times
        num_offsets = specfun._series_sums(1.25, c + 1.0, z)[1]
        assert (num_offsets != specfun._series_sums(0.25, c, z)[1]).any()
        peaks = [specfun._term_peak_bound(0.25, c_i, z_i) > 0.0 for c_i, z_i in lanes]
        assert any(peaks) and not all(peaks)

    def test_peak_guard_outlasts_tiny_first_terms(self):
        # with a = 1e-20 the first term is below 1e-16 of the sum long before
        # the terms peak; only the k > k_peak condition keeps the series going
        rng = np.random.default_rng(11)
        c, z = rng.uniform(0.5, 5.0, 50), rng.uniform(20.0, 200.0, 50)
        self.assert_lanes_match(1e-20, c, z)
        # where no peak bound is large, the largest of the call is not either
        self.assert_lanes_match(1e-20, rng.uniform(0.5, 2.0, 50), rng.uniform(15.0, 40.0, 50))

    def test_declined_top_sum_falls_back_to_the_series(self, monkeypatch):
        # no lane of a = 1/2 and z >= 0 has been seen where S(a, c) is accepted
        # and S(a+1, c+1) declined; at z = -y the top sum S(c-a, c+1, y) has
        # the larger term ratio, and on these lanes it alone declines
        lanes = [(1.0, 37.2), (2.0, 33.0), (5.0, 26.4), (12.0, 20.2), (30.0, 22.5)]
        assert all(large_z_sum(c - 0.5, c + 1.0, y) is None for c, y in lanes)
        assert all(large_z_sum(c - 0.5, c, y) is not None for c, y in lanes)
        assert all(specfun._large_z_sums(c - 0.5, c - 0.5, c, y) is None for c, y in lanes)
        spy = SeriesSpy(monkeypatch)
        for c, y in lanes:
            ratio, route = spy.route(0.5, c, -y)
            assert route == "series"
            series = kummer_m(c - 0.5, c + 1.0, y) / kummer_m(c - 0.5, c, y)
            assert ratio.hex() == (0.5 / c * float(series)).hex()

    def test_expansion_refuses_every_envelope_lane(self):
        """The scalar sums the series wherever c >= 2 and z <= c + sqrt(c) + 1.

        All terms of S(1/2, c, z) are positive, and the ratio of consecutive
        terms, (c - 1/2 + s)(1/2 + s) / ((s + 1) z), grows with c and shrinks
        with z.  So as c grows or z shrinks every term grows, and so does
        every term's share of the running sum, which is 1 over a sum of
        reciprocal products of those ratios: the ratio reaches 1 no later,
        and no term falls below 1e-17 of the sum sooner.  A refusal at
        (c_i, z) therefore holds on all of c >= c_i, z' <= z.  The strips
        c_i <= c <= c_{i+1} = c_i (1 + 1/64) from 2 past 1e6 + 2 are each
        covered by the refusal at (c_i, c_{i+1} + sqrt(c_{i+1}) + 1); the
        smallest share met there is ~2.6e-10, so rounding decides none.  The
        envelope's starts have c = n + 1 >= 2 and b <= c + 0.765 sqrt(c),
        so its batch lanes are the scalar's floats.
        """
        strips = self.refused_strips(2.0, 1e6 + 2.0)
        assert strips == 847

    def test_expansion_refuses_the_mode_zero_lanes(self):
        """The covering argument above, on c in [1, 2]: the envelope's mode-0 starts.

        A start at mode 0 has c = 1 and b <= (alpha^2 + 2)/3 ~ 0.86, well
        inside the refused band.
        """
        assert self.refused_strips(1.0, 2.0) == 45

    @staticmethod
    def refused_strips(c, c_end):
        """Strips [c_i, c_i (1 + 1/64)] from c past c_end, each refused at its top corner."""
        strips = 0
        while c < c_end:
            top = c * (1.0 + 1.0 / 64.0)
            assert large_z_sum(0.5, c, top + math.sqrt(top) + 1.0) is None, c
            c = top
            strips += 1
        return strips

    def test_non_convergence_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
        with pytest.raises(ConvergenceError):
            kummer_log_ratios(0.5, np.array([1.0, 21.0]), np.array([1.0, 50.0]))
        with numpy_loop(), pytest.raises(ConvergenceError):
            kummer_log_ratios(0.5, np.array([1.0, 21.0]), np.array([1.0, 50.0]))

    @pytest.mark.parametrize("lanes", [1, 16, 22, 4001])
    def test_both_series_in_one_call(self, lanes, monkeypatch):
        # M(a+1, c+1, z) and M(a, c, z) are the two halves of one batch, whose
        # lane count picks the loop: 22 ratio lanes are 44 series lanes
        calls = []
        series_sums = specfun._series_sums

        def counted(a, c, z):
            calls.append(z.size)
            return series_sums(a, c, z)

        monkeypatch.setattr(specfun, "_series_sums", counted)
        rng = np.random.default_rng(lanes)
        c = np.floor(rng.uniform(0.0, 1000.0, lanes)) + 1.0
        z = c + rng.uniform(0.0, 1.0, lanes) * np.sqrt(c)
        ratios = kummer_log_ratios(0.5, c, z)
        assert calls == [2 * lanes]
        assert (2 * lanes >= specfun._BATCH_MIN) == (lanes >= 22)
        step = max(1, lanes // 20)
        expected = [series_log_ratio(0.5, c_i, z_i).hex() for c_i, z_i in zip(c[::step], z[::step])]
        assert [x.hex() for x in ratios[::step].tolist()] == expected

    def test_empty_and_single_lane(self):
        assert kummer_log_ratios(0.5, np.array([]), np.array([])).shape == (0,)
        self.assert_lanes_match(0.5, np.array([11.0]), np.array([500.0]))

    @pytest.mark.parametrize(
        "a, c, z, message",
        [
            (0.0, [1.0], [1.0], r"finite a > 0, got a=0\.0$"),
            (0.5, [0.0], [1.0], r"finite c > 0, got c\[0\]=0\.0$"),
            (0.5, [1.0], [-1.0], r"^z must lie in \[0, 1e\+06\], got z\[0\]=-1\.0$"),
            (0.5, [1.0], [2e6], r"^z must lie in \[0, 1e\+06\], got z\[0\]=2000000\.0$"),
            (0.5, [1.0], [math.nan], r"^z must lie in \[0, 1e\+06\], got z\[0\]=nan$"),
            (math.inf, [1.0], [1.0], r"finite a > 0, got a=inf$"),
            (0.5, [1.0, 2.0], [1.0], "1-d arrays of one length"),
            (0.5, [1.0, 2.0], [1.0, math.nan], r"got z\[1\]=nan$"),
            (0.5, [1.0, math.inf], [1.0, 1.0], r"finite c > 0, got c\[1\]=inf$"),
        ],
        # the message stays out of the ids
        ids=[
            "0.0-c0-z0", "0.5-c1-z1", "0.5-c2-z2", "0.5-c3-z3", "0.5-c4-z4", "inf-c5-z5",
            "0.5-c6-z6", "z-nan-in-lane-1", "c-inf-in-lane-1",
        ],
    )
    def test_domain(self, a, c, z, message):
        with pytest.raises(DomainError, match=message):
            kummer_log_ratios(a, np.array(c), np.array(z))


# ----------------------------------------------------------------- laguerre


class TestLaguerre:
    """Laguerre functions of parameter 0 through kummer_m: L_nu^0(z) = M(-nu, 1, z)."""

    def test_constant(self):
        assert kummer_m(0.0, 1.0, 5.0).to_float() == pytest.approx(1.0, rel=1e-14)

    def test_degree_one_polynomial(self):
        for z in (0.0, 0.7, 2.5):
            assert kummer_m(-1.0, 1.0, z).to_float() == pytest.approx(1.0 - z, abs=1e-13)

    def test_half_order_value(self):
        expected = kummer_series(0.5, 1.0, 1.0, 60)  # = 1.7533876543770904
        assert kummer_m(0.5, 1.0, 1.0).to_float() == pytest.approx(expected, rel=1e-12)


# ----------------------------------------------------------------- cylinder

# integers, half-integers, and orders just off an integer on either side
ORACLE_ORDERS = [
    -4.0, -3.5, -2.0, -1.0001, -1.0, -0.5, -1e-6, 0.0, 1e-6,
    0.5, 0.999, 1.999, 2.5, 3.9999, 4.0,
]


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

    @pytest.mark.parametrize("nu", [0.5, 2.5, -4.0, -3.5, -1.0, -0.5, -1e-6])
    def test_lift_runs_each_anchor_integral_once(self, nu, monkeypatch):
        # both anchor orders are the rows of one quadrature per block; D_{nu-1} is the
        # lift's own last step, so a second lift would rerun the anchor integrals
        anchors, quadratures = [], []
        anchor, quadrature = specfun._cylinder_anchors, specfun.integrate_semi_infinite

        def counted_anchor(mu, z):
            anchors.append((mu, z.size))
            return anchor(mu, z)

        def counted_quadrature(f):
            rows = set()  # the row count of every level
            quadratures.append(rows)

            def integrand(t):
                values = f(t)
                rows.add(values.shape[0])
                return values

            return quadrature(integrand)

        monkeypatch.setattr(specfun, "_cylinder_anchors", counted_anchor)
        monkeypatch.setattr(specfun, "integrate_semi_infinite", counted_quadrature)
        z = 1.0
        d = cylinder_d(nu, z)
        specfun.cylinder_ds(nu, np.linspace(-1.0, 2.0, 100))  # 66 lanes z > 0: three blocks
        assert [lanes for _, lanes in anchors] == [1, 66]
        assert quadratures == [{2}, {64}, {64}, {4}]  # both orders' rows of each block
        assert all(mu - 1.0 < mu < -1.0 for mu, _ in anchors)
        if nu - 2.0 >= -4.0:  # the recurrence below needs both lower orders in the domain
            below = cylinder_d(nu - 1.0, z).value
            assert d.value == z * below - (nu - 1.0) * cylinder_d(nu - 2.0, z).value
            assert d.derivative == nu * below - 0.5 * z * d.value

    @pytest.mark.parametrize("z", [-50.0, -5.0, -0.3, 0.0])
    def test_nonpositive_z_runs_no_integral(self, z, monkeypatch):
        def forbidden(*args):
            raise AssertionError(f"integral route taken at z={z}")

        monkeypatch.setattr(specfun, "_cylinder_anchors", forbidden)
        monkeypatch.setattr(specfun, "integrate_semi_infinite", forbidden)
        for nu in ORACLE_ORDERS:
            cylinder_d(nu, z)

    @pytest.mark.parametrize("nu", ORACLE_ORDERS)
    def test_continuous_across_route_switch(self, nu):
        # z = 0 takes the Kummer route, the smallest positive float the lifted integrals
        at_zero = cylinder_d(nu, 0.0)
        above = cylinder_d(nu, 5e-324)
        scale = max(abs(at_zero.value), abs(at_zero.derivative))
        assert abs(above.value - at_zero.value) <= REL_TOL * scale
        assert abs(above.derivative - at_zero.derivative) <= REL_TOL * scale

    @pytest.mark.parametrize("nu", ORACLE_ORDERS)
    def test_against_mpmath(self, nu):
        # error in units of max(|D|, |D'|), so zeros of D or D' need no special case;
        # the grid avoids D_2 at z = +-1, an exact zero on which pcfd raises
        mpmath = pytest.importorskip("mpmath")
        for z in (-50.0, -20.0, -5.0, -0.3, 0.0, 0.3, 1.0, 5.0, 20.0, 50.0):
            with mpmath.workdps(40):
                ref = mpmath.pcfd(nu, z)
                ref_prime = nu * mpmath.pcfd(nu - 1.0, z) - 0.5 * z * ref
                scale = max(abs(ref), abs(ref_prime))
                got = cylinder_d(nu, z)
                err = max(abs(got.value - ref), abs(got.derivative - ref_prime)) / scale
            assert err <= 2e-13, (nu, z, float(err))

    @pytest.mark.parametrize("nu", [-2.5, -0.5, 1e-6, 2.5])
    def test_large_positive_z_prefactor(self, nu):
        # exp(-z^2/4) from z^2 split exactly: rounding z*z alone would cost
        # up to z^2/4 ulp, 6e-14 at z = 48
        mpmath = pytest.importorskip("mpmath")
        for z in (23.75, 47.9, 48.3):
            with mpmath.workdps(40):
                ref = mpmath.pcfd(nu, z)
                ref_prime = nu * mpmath.pcfd(nu - 1.0, z) - 0.5 * z * ref
                scale = max(abs(ref), abs(ref_prime))
                got = cylinder_d(nu, z)
                err = max(abs(got.value - ref), abs(got.derivative - ref_prime)) / scale
            assert err <= 4.0 * EPS, (nu, z, float(err))

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


CYLINDER_DS_ORDERS = [-4.0, -3.5, -2.0, -1.0, -0.5, -1e-6, 0.0, 0.5, 0.999, 1.0, 2.0, 3.0, 3.9999, 4.0]


def cylinder_ds_grid():
    rng = np.random.default_rng(20261019)
    return np.concatenate([[-50.0, -0.0, 0.0, 5e-324, 50.0], rng.uniform(-50.0, 50.0, 302)])


class TestCylinderDs:
    """cylinder_ds is cylinder_d on every lane, value and derivative, bit for bit:
    the lanes sum their series in the numpy loop, and one point in the scalar loop."""

    @pytest.mark.parametrize("nu", CYLINDER_DS_ORDERS)
    def test_lanes_equal_the_scalar(self, nu):
        z = cylinder_ds_grid()
        with numpy_loop():
            value, derivative = cylinder_ds(nu, z)
        scalar = [cylinder_d(nu, z_i) for z_i in z.tolist()]
        assert [x.hex() for x in value.tolist()] == [d.value.hex() for d in scalar]
        assert [x.hex() for x in derivative.tolist()] == [d.derivative.hex() for d in scalar]

    @pytest.mark.parametrize("nu", CYLINDER_DS_ORDERS)
    def test_nonpositive_z_equals_the_scaled_real_assembly(self, nu):
        # the float assembly of the pieces forms the ScaledReal sums and products bit for bit
        z = cylinder_ds_grid()
        z = z[z <= 0.0]
        expected = []
        for z_i in z.tolist():
            value, below = scaled_even_odd(nu, z_i), scaled_even_odd(nu - 1.0, z_i)
            expected.append((value.hex(), (nu * below - 0.5 * z_i * value).hex()))
        with numpy_loop():
            value, derivative = cylinder_ds(nu, z)
        assert [(v.hex(), d.hex()) for v, d in zip(value.tolist(), derivative.tolist())] == expected
        scalar = [cylinder_d(nu, z_i) for z_i in z.tolist()]
        assert [(d.value.hex(), d.derivative.hex()) for d in scalar] == expected

    @pytest.mark.parametrize("nu", [0.5, -0.5])
    def test_one_series_call_and_one_assembly(self, nu, monkeypatch):
        # the four series of both orders' z <= 0 lanes are one batch, whose first
        # parameter is negative on some lanes at nu = 1/2, and both orders are the
        # rows of one assembly; lanes z > 0 sum no series
        calls, passes = [], []
        series_sums, even_odd = specfun._series_sums, specfun._cylinder_even_odd

        def counted_sums(a, c, z):
            calls.append((np.asarray(a).tolist(), c.tolist(), z.tolist()))
            return series_sums(a, c, z)

        def counted_even_odd(nu, z):
            passes.append(z.size)
            return even_odd(nu, z)

        monkeypatch.setattr(specfun, "_series_sums", counted_sums)
        monkeypatch.setattr(specfun, "_cylinder_even_odd", counted_even_odd)
        cylinder_d(nu, -0.7)
        a, c, w = calls[0]
        below = nu - 1.0
        assert a == [-0.5 * nu, 0.5 * (1.0 - nu), -0.5 * below, 0.5 * (1.0 - below)]
        assert c == [0.5, 1.5, 0.5, 1.5] and w == [0.5 * 0.7 * 0.7] * 4
        z = np.linspace(-5.0, 5.0, 101)  # 51 lanes z <= 0: 204 series lanes
        cylinder_ds(nu, z)
        assert [len(w) for _, _, w in calls] == [4, 204] and passes == [1, 51]
        cylinder_ds(nu, z[z > 0.0])
        assert len(calls) == 2 and passes == [1, 51]

    def test_no_lanes(self):
        value, derivative = cylinder_ds(0.5, np.array([]))
        assert value.shape == derivative.shape == (0,)

    @pytest.mark.parametrize(
        "nu, z, message",
        [
            pytest.param(4.5, [0.0], r"\[-4, 4\], got nu=4\.5", id="nu-above"),
            (math.nan, [0.0], "got nu=nan"),
            pytest.param(0.5, [1.0, 50.5], r"\[-50, 50\], got z\[1\]=50\.5", id="z-lane-above"),
            (0.5, [1.0, -2.0, math.nan], r"z\[2\]=nan"),
            (0.5, [-math.inf], r"z\[0\]=-inf"),
            (0.5, [[1.0]], "1-d array"),
        ],
    )
    def test_domain_names_the_argument(self, nu, z, message):
        with pytest.raises(DomainError, match=message):
            cylinder_ds(nu, np.array(z))


class TestSeriesSums:
    """The batch series gives _series_parts' pos, offset and neg on every lane."""

    @pytest.mark.parametrize("a", [-0.25, 0.0, -1.0, -2.0, 0.75])
    def test_lanes_equal_the_scalar_parts(self, a):
        rng = np.random.default_rng(17)
        w = np.concatenate([[0.0, 5e-324, 1e-300], rng.uniform(0.0, 50.0, 60), rng.uniform(400.0, 1250.0, 40)])
        c = np.where(rng.uniform(size=w.size) < 0.5, 0.5, 1.5)
        with numpy_loop():
            pos, offset, neg = specfun._series_sums(a, c, w)
        if a % 1.0:  # a terminating polynomial never rescales
            assert (offset > 0).sum() >= 20
        for i, (c_i, w_i) in enumerate(zip(c.tolist(), w.tolist())):
            pos_i, offset_i, neg_i, _ = specfun._series_parts(a, c_i, w_i)
            assert (pos[i].item().hex(), offset[i].item(), neg[i].item().hex()) == (
                pos_i.hex(),
                offset_i,
                neg_i.hex(),
            )

    def test_per_lane_a_retires_lanes_bit_for_bit(self):
        # lanes in shuffled order that stop from the first term to past the
        # 2,000th, inside the series band and far past it, where they rescale;
        # retired lanes stay in the loop until at most half its rows are live
        rng = np.random.default_rng(23)
        c_band = 10.0 ** rng.uniform(0.0, 5.0, 120)
        c_far = 10.0 ** rng.uniform(0.0, 2.0, 80)
        c = np.concatenate([c_band, c_far, [1.0, 7.0, 1e5]])
        z = np.concatenate(
            [
                rng.uniform(0.0, 1.0, 120) * (c_band + np.sqrt(c_band) + 1.0),
                rng.uniform(600.0, 2500.0, 80),
                [0.0, 0.0, 5e-324],
            ]
        )
        a = rng.choice([1e-20, 0.25, 0.5, 1.5], c.size)
        order = rng.permutation(c.size)
        a, c, z = a[order], c[order], z[order]
        with numpy_loop():
            pos, offset, neg = specfun._series_sums(a, c, z)
        parts = [specfun._series_parts(*lane) for lane in zip(a.tolist(), c.tolist(), z.tolist())]
        terms = [p[3] - 1 for p in parts]
        assert min(terms) == 1 and max(terms) >= 2000
        assert (offset > 0).sum() >= 50
        got = [(p.hex(), o, n.hex()) for p, o, n in zip(pos.tolist(), offset.tolist(), neg.tolist())]
        assert got == [(p.hex(), o, n.hex()) for p, o, n, _ in parts]

    @pytest.mark.parametrize("a", ["per-lane", -0.25, -0.75, -2.0])
    def test_retire_step_keeps_every_lane_bit_for_bit(self, a):
        # lanes that stop before the call's largest peak bound, on a zero term
        # or past their own bound, and lanes that stop after it, where every
        # small lane stops; a = 0 and z = 0 lanes stop on a zero first term
        rng = np.random.default_rng(29)
        c = np.concatenate([rng.uniform(0.5, 20.0, 70), 10.0 ** rng.uniform(0.0, 3.0, 70)])
        z = np.concatenate(
            [
                rng.uniform(0.0, 5.0, 40),
                rng.uniform(50.0, 1500.0, 60),
                rng.uniform(1300.0, 1500.0, 30),
                np.zeros(10),
            ]
        )
        if a == "per-lane":
            a = rng.choice([0.0, 1e-20, 0.5, 1.5], c.size)
        with numpy_loop():
            pos, offset, neg = specfun._series_sums(a, c, z)
        lanes = zip(np.broadcast_to(a, z.shape).tolist(), c.tolist(), z.tolist())
        parts = [specfun._series_parts(*lane) for lane in lanes]
        got = [(p.hex(), o, n.hex()) for p, o, n in zip(pos.tolist(), offset.tolist(), neg.tolist())]
        assert got == [(p.hex(), o, n.hex()) for p, o, n, _ in parts]
        k_peak = specfun._term_peak_bounds(a, c, z)
        terms = np.array([p[3] - 1 for p in parts])
        assert (k_peak == 0.0).any() and (k_peak > 0.0).any()
        if np.ndim(a):
            assert ((a == 0.0) & (k_peak > 0.0)).any()  # a zero term before the peak
        if np.ndim(a) or a != -2.0:
            assert (terms <= k_peak.max()).sum() >= 10 and (terms > k_peak.max()).sum() >= 10
        else:
            assert set(terms.tolist()) == {1, 3}  # z = 0, and the third term of the polynomial

    @pytest.mark.parametrize("a", [-0.25, -0.75])
    def test_signed_lanes_retire_after_pos_underflows(self, a):
        # with a in (-1, 0) every term past the first goes to neg, and past
        # w ~ 1,065 the third rescale takes pos = 1 to 0, so its sign cannot
        # mark a retired lane; lanes that stop first are written when a
        # compaction drops them, the rest when the last lane stops
        rng = np.random.default_rng(31)
        w = rng.uniform(1100.0, 1250.0, 120)
        c = np.where(rng.uniform(size=w.size) < 0.5, 0.5, 1.5)
        with numpy_loop():
            pos, offset, neg = specfun._series_sums(a, c, w)
        parts = [specfun._series_parts(a, c_i, w_i) for c_i, w_i in zip(c.tolist(), w.tolist())]
        assert all(p == 0.0 and o >= 1536 for p, o, _, _ in parts)
        terms = [p[3] for p in parts]
        assert 2 * terms.count(max(terms)) <= len(terms)  # a compaction with live rows left
        got = [(p.hex(), o, n.hex()) for p, o, n in zip(pos.tolist(), offset.tolist(), neg.tolist())]
        assert got == [(p.hex(), o, n.hex()) for p, o, n, _ in parts]

    @staticmethod
    def sum_bits(a, c, z):
        k_top = np.floor(specfun._term_peak_bounds(a, c, z))
        return specfun._sum_bits(a, c, z, k_top, *np.empty((2, z.size))).copy()

    def test_sum_bits_bound_every_sum(self):
        # the lane families of the library's calls: envelope starts to b = 1e6,
        # crossing and residual lanes to n = 1e5, even and odd cylinder lanes at
        # 9 orders to |z| = 50, and per-lane a up to 9
        rng = np.random.default_rng(37)
        field = np.concatenate([[0.0], np.geomspace(1e-3, 1e6, 60)])
        s = disk._start_modes(field)
        modes = sorted({0, 1, 2, 7, *np.geomspace(10, 1e5, 30).astype(int).tolist()})
        roots = np.array([r.z_n for r in intersect.crossings(modes)])
        n = np.array(modes, dtype=float)
        families = {
            "envelope": (
                np.repeat([1.5, 0.5], field.size),
                np.concatenate([s + 2.0, s + 1.0]),
                np.tile(field, 2),
            ),
            "crossing": (
                np.repeat([1.5, 0.5], n.size),
                np.concatenate([n + 2.0, n + 1.0]),
                np.tile(roots, 2),
            ),
            "residual": (-0.5, n + 1.0, roots),
        }
        w = 0.5 * np.linspace(0.0, 50.0, 26) ** 2
        for nu in (-4.0, -3.0, -2.5, -1.5, -1.0, -0.5, 0.5, 2.0, 4.0):
            families[f"even {nu}"] = (-0.5 * nu, np.full(w.size, 0.5), w)
            families[f"odd {nu}"] = (0.5 * (1.0 - nu), np.full(w.size, 1.5), w)
        # per-lane a up to 9, one a of 9, and a lane whose only growing term is
        # its first: t_1 = a z / c = 1e10 with K = 0
        c = np.append(10.0 ** rng.uniform(-1.0, 3.0, 79), 1e-30)
        z = np.append(rng.uniform(0.0, 2.0, 79) * (c[:-1] + 30.0), 1.0)
        families["per-lane a"] = (np.append(rng.uniform(0.0, 9.0, 79), 1e-20), c, z)
        families["a = 9"] = (9.0, c, z)
        cleared = collections.Counter()
        for name, (a, c, z) in families.items():
            bits = self.sum_bits(a, c, z).tolist()
            lanes = zip(np.broadcast_to(a, z.shape).tolist(), c.tolist(), z.tolist())
            for (a_i, c_i, z_i), b in zip(lanes, bits):
                pos, offset, neg, _ = specfun._series_parts(a_i, c_i, z_i)
                assert math.log2(max(pos, neg)) + offset < 21.0 + b, (name, a_i, c_i, z_i)
                if b < specfun._UNSCALED_BITS:
                    assert offset == 0 and max(pos, neg) < 2.0**501, (name, a_i, c_i, z_i)
                    cleared[name] += 1
        # the command paths' calls run no rescale test; the big cylinder and per-lane lanes keep it
        for name in ("envelope", "crossing", "residual"):
            assert cleared[name] == families[name][2].size
        assert 0 < cleared["per-lane a"] < 80 and 0 < cleared["a = 9"] < 80
        assert 0 < cleared["even -0.5"] < w.size

    def test_rescale_test_runs_only_where_a_sum_can_reach_it(self, monkeypatch):
        # a call that mixes lanes the bound clears with lanes that rescale keeps
        # the test, bit for bit; with _RESCALE lowered to 4 a cleared call shows
        # that it runs none, and a mixed call that it does
        rng = np.random.default_rng(41)
        w = np.concatenate([rng.uniform(0.0, 50.0, 40), rng.uniform(400.0, 1250.0, 20)])
        c = np.where(rng.uniform(size=w.size) < 0.5, 0.5, 1.5)
        bits = self.sum_bits(-0.25, c, w)
        assert bits[:40].max() < specfun._UNSCALED_BITS <= bits[40:].min()
        with numpy_loop():
            pos, offset, neg = specfun._series_sums(-0.25, c, w)
        parts = [specfun._series_parts(-0.25, c_i, w_i) for c_i, w_i in zip(c.tolist(), w.tolist())]
        assert (offset[40:] > 0).all()
        got = [(p.hex(), o, n.hex()) for p, o, n in zip(pos.tolist(), offset.tolist(), neg.tolist())]
        assert got == [(p.hex(), o, n.hex()) for p, o, n, _ in parts]
        monkeypatch.setattr(specfun, "_RESCALE", 4.0)
        with numpy_loop():
            cleared = specfun._series_sums(-0.25, c[:40], w[:40])
            mixed = specfun._series_sums(-0.25, c, w)
        assert [x.tolist() for x in cleared] == [pos[:40].tolist(), offset[:40].tolist(), neg[:40].tolist()]
        assert (mixed[1][:40] > 0).any()

    def test_sum_bits_of_an_overflowing_z_over_c(self):
        # z/c past the float range is clipped to 2**512 without a warning, which
        # the suite would raise as an error
        z = np.array([1e3, 1e-3])
        assert (self.sum_bits(0.5, np.array([5e-324, 5e-324]), z) >= 512.0).all()

    @pytest.mark.parametrize("reach", ["near-zero", "far"])
    @pytest.mark.parametrize("loop", ["scalar", "numpy"])
    def test_mixed_sign_per_lane_a_equals_the_scalar_parts(self, loop, reach, monkeypatch):
        # each lane keeps its own sign flag, toggled while a + k < 0: a in (-1, 0)
        # sends every term past the first to neg, a = -1.5 flips at k = 0 and 1,
        # -1 and -2 end on a zero term; near z = 0 no lane can reach a rescale,
        # out to w = 1,250 (|z| = 50) the call keeps the test and lanes rescale
        rng = np.random.default_rng(43)
        first = [-0.25, -0.75, -1.5, -1.0, -2.0, -1e-20, 0.0, 2.5]
        a = rng.permutation(np.repeat(first, 12))
        top = 2.0 if reach == "near-zero" else 1250.0
        w = np.concatenate([[0.0, 5e-324], rng.uniform(0.0, top, a.size - 2)])
        c = np.where(rng.uniform(size=w.size) < 0.5, 0.5, 1.5)
        bits = self.sum_bits(a, c, w)
        assert (bits.max() >= specfun._UNSCALED_BITS) == (reach == "far")
        with contextlib.ExitStack() as stack:
            if loop == "numpy":
                stack.enter_context(numpy_loop())
            else:
                monkeypatch.setattr(specfun, "_BATCH_MIN", a.size + 1)
            pos, offset, neg = specfun._series_sums(a, c, w)
        parts = [specfun._series_parts(*lane) for lane in zip(a.tolist(), c.tolist(), w.tolist())]
        assert ((offset > 0).sum() >= 10) == (reach == "far")
        assert (neg > 0.0).any() and (neg == 0.0).any()
        got = [(p.hex(), o, n.hex()) for p, o, n in zip(pos.tolist(), offset.tolist(), neg.tolist())]
        assert got == [(p.hex(), o, n.hex()) for p, o, n, _ in parts]

    def test_lane_peak_bounds_equal_the_scalar(self):
        # disc <= 0 with half_b < 0 gives 0, not -half_b; a root below 0 gives 0 too
        rng = np.random.default_rng(5)
        c = rng.uniform(0.5, 50.0, 400)
        z = rng.uniform(0.0, 100.0, 400)
        half_b = 0.5 * (c + 1.0 - z)
        cases = set()
        for a in (-2.5, -0.5, 0.0, 1e-20, 0.5, 1.5, rng.choice([1e-20, 0.25, 1.5], 400)):
            lanes = zip(np.broadcast_to(a, z.shape).tolist(), c.tolist(), z.tolist())
            scalar = [specfun._term_peak_bound(*lane).hex() for lane in lanes]
            assert [x.hex() for x in specfun._term_peak_bounds(a, c, z).tolist()] == scalar
            disc = half_b * half_b - (c - np.abs(a) * z)
            root = -half_b + np.sqrt(np.maximum(disc, 0.0))
            cases.update(zip((disc > 0.0).tolist(), (root > 0.0).tolist()))
        assert cases == {(False, False), (False, True), (True, False), (True, True)}

    def test_terminating_polynomials_stop_at_their_zero_term(self, monkeypatch):
        # past the peak bound (~1e5 here) no lane could stop on its size alone
        monkeypatch.setattr(specfun, "_MAX_TERMS", 4)
        pos_1, offset_1, neg_1, terms = specfun._series_parts(-2.0, 0.5, 1e5)
        assert terms == 4 and pos_1 - neg_1 == pytest.approx(1.0 - 4e5 + 4e10 / 3.0, rel=1e-15)
        with numpy_loop():
            pos, offset, neg = specfun._series_sums(-2.0, np.full(40, 0.5), np.full(40, 1e5))
        assert set(zip(pos.tolist(), offset.tolist(), neg.tolist())) == {(pos_1, offset_1, neg_1)}

    def test_non_convergence_names_a_live_lane(self, monkeypatch):
        # lane 0 retires at the first term, and three of four rows stay live
        # without compaction: the error names lane 1, not row 0
        monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
        c, z = np.array([1.0, 21.0, 22.0, 23.0]), np.array([0.0, 50.0, 60.0, 70.0])
        message = r"^Kummer series M\(0\.5, 21\.0, 50\.0\) did not converge in 5 terms$"
        with numpy_loop(), pytest.raises(ConvergenceError, match=message):
            specfun._series_sums(0.5, c, z)

    @pytest.mark.parametrize("lanes", [0, 1, 31, 32, 33, 43, 44, 45])
    @pytest.mark.parametrize("a", [-0.75, 0.5])
    def test_either_loop_by_lane_count(self, a, lanes):
        # below _BATCH_MIN lanes the scalar loop runs once a lane, from there the numpy loop
        assert specfun._BATCH_MIN == 44
        rng = np.random.default_rng(lanes)
        big = lanes // 3  # lanes whose series rescale
        w = np.concatenate([rng.uniform(0.0, 50.0, lanes - big), rng.uniform(400.0, 900.0, big)])
        c = rng.uniform(0.5, 20.0, lanes)
        scalar_runs = []
        series_parts = specfun._series_parts

        def counted(a, c, z):
            scalar_runs.append(1)
            return series_parts(a, c, z)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(specfun, "_series_parts", counted)
            pos, offset, neg = specfun._series_sums(a, c, w)
        assert len(scalar_runs) == (lanes if lanes < 44 else 0)
        assert pos.shape == offset.shape == neg.shape == (lanes,)
        assert (pos.dtype, offset.dtype, neg.dtype) == (float, np.int64, float)
        parts = [series_parts(a, c_i, w_i)[:3] for c_i, w_i in zip(c.tolist(), w.tolist())]
        got = list(zip(pos.tolist(), offset.tolist(), neg.tolist()))
        hexed = [(p.hex(), o, n.hex()) for p, o, n in parts]
        assert [(p.hex(), o, n.hex()) for p, o, n in got] == hexed


class TestKummerValues:
    """_kummer_values is the reference M's float on every lane, saturated past the float range."""

    @pytest.mark.parametrize("loop", ["scalar", "numpy"])
    def test_lanes_are_kummer_m_saturating_without_a_warning(self, loop):
        # M(1, 1, z) = e^z and M(-1/2, 1, z) ~ -e^z z^(-3/2) / (2 sqrt(pi)) leave
        # the float range near z = 710, where to_float saturates to +-inf
        z = np.array([0.0, 2.5, 700.0, 750.0, 1e4])
        c = np.ones(z.size)
        with contextlib.ExitStack() as stack:
            if loop == "numpy":
                stack.enter_context(numpy_loop())
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = {a: specfun._kummer_values(a, c, z).tolist() for a in (1.0, -0.5)}
        for a, row in rows.items():
            expected = [kummer_m(a, 1.0, z_i).to_float() for z_i in z.tolist()]
            assert [x.hex() for x in row] == [y.hex() for y in expected]
        assert rows[1.0][3:] == [math.inf, math.inf]
        assert rows[-0.5][3:] == [-math.inf, -math.inf]


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
    result = check()
    assert result.passed, result.detail
