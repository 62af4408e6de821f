"""Tests for the numeric substrate: scaled floats, quadrature, roots, derivatives."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scaled_real import ScaledReal

from magsteklov import numerics
from magsteklov.numerics import (
    EPS,
    REL_TOL,
    BracketError,
    ConvergenceError,
    DomainError,
    QuadratureError,
    brent_root,
    integrate_semi_infinite,
)
from magsteklov.specfun import cylinder_d
from magsteklov.verify import central_diff

# ----------------------------------------------------------------- oracles


def bisection_root(f, lo, hi, steps=100):
    """Plain bisection, the independent reference for brent_root."""
    flo = f(lo)
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if flo * fmid <= 0.0:
            hi = mid
        else:
            lo, flo = mid, fmid
    return 0.5 * (lo + hi)


def midpoint_integral(f, upper, n=1_000_000):
    """Crude midpoint rule on (0, upper), vectorized."""
    h = upper / n
    t = (np.arange(n) + 0.5) * h
    return float(np.sum(f(t)) * h)


# ------------------------------------------- ScaledReal, the tests' reference


class TestScaledReal:
    def test_normalization(self):
        x = ScaledReal.from_float(48.0)
        assert 1.0 <= abs(x.mantissa) < 2.0
        assert x.to_float() == 48.0

    def test_zero(self):
        z = ScaledReal.from_float(0.0)
        assert z.mantissa == 0.0 and z.exponent == 0
        assert (z + ScaledReal.from_float(3.0)).to_float() == 3.0

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_round_trip_exact(self, x):
        assert ScaledReal.from_float(x).to_float() == x

    @given(
        st.lists(
            st.floats(min_value=1e-280, max_value=1e280).map(abs).filter(lambda v: v > 0),
            min_size=2,
            max_size=60,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200)
    def test_positive_sum_grouping_independent(self, values, rng):
        terms = [ScaledReal.from_float(v) for v in values]
        forward = terms[0]
        for t in terms[1:]:
            forward = forward + t
        shuffled = list(terms)
        rng.shuffle(shuffled)
        other = shuffled[0]
        for t in shuffled[1:]:
            other = other + t
        rel = float(abs(forward - other) / forward)
        assert rel <= 2.0 * len(terms) * EPS

    def test_mul_div_track_exponents(self):
        big = ScaledReal.from_float(1.7e308) * ScaledReal.from_float(1.7e308)
        assert big.to_float() == math.inf  # saturates only on conversion
        back = big / ScaledReal.from_float(1.7e308)
        assert back.to_float() == pytest.approx(1.7e308, rel=1e-15)

    def test_exp_matches_math(self):
        for x in (-3.0, -0.1, 0.0, 0.5, 10.0, 700.0):
            assert ScaledReal.exp(x).to_float() == pytest.approx(math.exp(x), rel=1e-14)

    def test_exp_beyond_float_range(self):
        tiny = ScaledReal.exp(-1e5)
        assert tiny.exponent < -100_000
        assert (tiny * ScaledReal.exp(1e5)).to_float() == pytest.approx(1.0, rel=1e-9)

    def test_ordering(self):
        a = ScaledReal.from_float(3.0)
        b = ScaledReal.from_float(-5.0)
        # ScaledReal has no comparison operators; magnitudes compare as floats
        assert abs(b).to_float() == 5.0 > a.to_float()

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            ScaledReal.from_float(math.inf)


class TestTolerances:
    """REL_TOL is the one accuracy; no kernel takes an accuracy argument."""

    def test_defaults(self):
        assert REL_TOL == 1e-13

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"rel_tol": -1e-13},
            {"rel_tol": math.nan},
            {"rel_tol": -math.inf},
            {"rel_tol": math.inf},
        ],
    )
    def test_validation(self, kwargs):
        # rel_tol is no argument of any kernel, whatever its value
        with pytest.raises(TypeError):
            integrate_semi_infinite(lambda t: np.exp(-t), **kwargs)
        with pytest.raises(TypeError):
            brent_root(math.cos, 1.0, 2.0, **kwargs)
        with pytest.raises(TypeError):
            cylinder_d(0.5, 1.0, **kwargs)

    @pytest.mark.parametrize(
        "kwargs", [{"abs_tol": 1e-300}, {"max_iter": 200}, {"quad_panels_max": 4096}]
    )
    def test_removed_fields_rejected(self, kwargs):
        with pytest.raises(TypeError):
            integrate_semi_infinite(lambda t: np.exp(-t), **kwargs)
        with pytest.raises(TypeError):
            brent_root(math.cos, 1.0, 2.0, **kwargs)


# -------------------------------------------------------------------- gamma


class TestGamma:
    """math.gamma, which the cylinder integrals and the test oracles divide by."""

    def test_known_values(self):
        assert math.gamma(1.0) == 1.0
        assert math.gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
        assert math.gamma(5.0) == pytest.approx(24.0, rel=1e-15)

    def test_accuracy_across_range(self):
        # Gamma(x+1) = x Gamma(x) at scattered points
        for x in (0.1, 0.9, 3.3, 17.5, 99.25, 169.0):
            assert math.gamma(x + 1.0) == pytest.approx(x * math.gamma(x), rel=1e-13)

    def test_overflow_signalled(self):
        with pytest.raises(OverflowError):
            math.gamma(200.0)


# --------------------------------------------------------------- quadrature


class TestSemiInfiniteQuadrature:
    def test_plain_exponential(self):
        assert integrate_semi_infinite(lambda t: np.exp(-t)) == pytest.approx(1.0, rel=1e-13)

    def test_singular_gaussian(self):
        # int t^{-1/2} e^{-t^2/2} dt = 2^{-3/4} Gamma(1/4), by u = t^2/2
        exact = 2.0**-0.75 * math.gamma(0.25)
        value = integrate_semi_infinite(lambda t: t**-0.5 * np.exp(-0.5 * t * t))
        assert value == pytest.approx(exact, rel=1e-12)
        crude = midpoint_integral(lambda t: t**-0.5 * np.exp(-0.5 * t * t), 12.0)
        assert value == pytest.approx(crude, rel=5e-3)

    def test_half_power_gaussian(self):
        exact = 2.0**-0.25 * math.gamma(0.75)
        value = integrate_semi_infinite(lambda t: t**0.5 * np.exp(-0.5 * t * t))
        assert value == pytest.approx(exact, rel=1e-12)
        crude = midpoint_integral(lambda t: t**0.5 * np.exp(-0.5 * t * t), 12.0)
        assert value == pytest.approx(crude, rel=1e-6)

    @pytest.mark.parametrize("k", [-0.5, 0.0, 0.5, 1.0, 2.0])
    def test_gamma_family_property(self, k):
        value = integrate_semi_infinite(lambda t: t**k * np.exp(-t), decay_scale=1.0)
        assert value == pytest.approx(math.gamma(k + 1.0), rel=1e-12)

    def test_shifted_gaussian_peak(self):
        # exp(b t - t^2/2) integrates to the shifted-Gaussian closed form
        b = 6.0
        value = integrate_semi_infinite(lambda t: np.exp(b * t - 0.5 * t * t), decay_scale=b)
        exact = math.exp(0.5 * b * b) * math.sqrt(2.0 * math.pi) * _norm_cdf(b)
        assert value == pytest.approx(exact, rel=1e-12)


    @pytest.mark.parametrize("decay_scale", [0.0, 1e-6, 1e-3, 0.7649508673, 6.0, 37.0])
    @pytest.mark.parametrize("power", [-0.5, 0.5, 4.0])
    def test_peak_positions_against_mpmath(self, decay_scale, power):
        # int t^p e^{bt - t^2/2} dt = Gamma(p+1) e^{b^2/4} D_{-p-1}(-b); the split point
        # max(b, 1) runs from the unit floor to a peak at the edge of the double range
        mpmath = pytest.importorskip("mpmath")
        b = decay_scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = integrate_semi_infinite(lambda t: t**power * np.exp(b * t - 0.5 * t * t), b)
        with mpmath.workdps(40):
            exact = mpmath.gamma(power + 1) * mpmath.exp(b * b / 4) * mpmath.pcfd(-power - 1, -b)
            assert abs(value - exact) <= REL_TOL * exact

    def test_non_integrable_endpoint_raises(self):
        # 1/t is not negligible at the end node near t = 0
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda t: 1.0 / t)

    def test_no_decay_raises(self):
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda t: np.exp(-t / 1000.0))

    def test_levels_that_never_agree_raise(self):
        # a jump inside the range converges like the step, far too slowly for the level cap
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda t: np.where(t < 2.5, np.exp(-t), 0.0))

    def test_lanes_equal_one_lane_calls(self):
        # e^-t cos(w t) agrees at level 0, 1, 2 and 3 for w = 0, 1, 2 and 4.  The
        # integrals of e^-t - 2 e^-2t and e^-t cos t - e^-2t are 0: the first's
        # levels 0 and 1/2 agree exactly, the second's agree at level 1 to
        # REL_TOL of the integral of |f| only, never of |total|, so that lane
        # needs the |f| sums the other lanes skip
        cancelling = {
            "e^-t - 2e^-2t": lambda t: np.exp(-t) - 2.0 * np.exp(-2.0 * t),
            "e^-t cos t - e^-2t": lambda t: np.exp(-t) * np.cos(t) - np.exp(-2.0 * t),
        }

        def lane(w):
            return cancelling[w] if w in cancelling else lambda t: np.exp(-t) * np.cos(w * t)

        lanes = (0.0, 1.0, 2.0, 4.0, *cancelling)
        levels = []
        singles = []
        for w in lanes:
            calls = []
            f = lane(w)
            singles.append(integrate_semi_infinite(lambda t, f=f: calls.append(t) or f(t)))
            levels.append(len(calls))
        assert levels == [1, 2, 3, 4, 1, 2]
        assert all(type(x) is float for x in singles)
        assert max(abs(x) for x in singles[4:]) < 1e-16
        rows = integrate_semi_infinite(lambda t: np.stack([lane(w)(t) for w in lanes]))
        assert [x.hex() for x in rows.tolist()] == [x.hex() for x in singles]

    def test_integrand_buffer_is_overwritten_in_place(self):
        # an integrand may return a view of a buffer it rewrites at every call: the
        # quadrature multiplies its weights into that array and holds no array of
        # the integrand's shape itself, so its peak stays below one such array
        decay = np.linspace(1.0, 5.0, 64)  # e^{-a t} integrates to 1/a
        levels = [numerics._de_level(level) for level in range(numerics._DE_LEVELS)]
        sizes = [x.size + y.size for x, _, y, _ in levels]
        buffer = np.empty(decay.size * max(sizes))

        def buffered(t):
            rows = buffer[: decay.size * t.size].reshape(decay.size, t.size)
            np.negative(np.multiply.outer(decay, t, out=rows), out=rows)
            return np.exp(rows, out=rows)

        fresh = integrate_semi_infinite(lambda t: np.exp(-np.multiply.outer(decay, t)))
        tracemalloc.start()
        try:
            rows = integrate_semi_infinite(buffered)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert [x.hex() for x in rows.tolist()] == [x.hex() for x in fresh.tolist()]
        assert rows == pytest.approx(1.0 / decay, rel=1e-13)
        assert peak < decay.size * min(sizes) * buffer.itemsize

    def test_one_lane_that_never_agrees_raises(self):
        with pytest.raises(QuadratureError):
            integrate_semi_infinite(lambda t: np.stack([np.exp(-t), np.exp(-t) * np.cos(8.0 * t)]))


def _norm_cdf(x):
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


# ------------------------------------------------------------- root finding


class TestBrentRoot:
    def test_sqrt2(self):
        assert brent_root(lambda x: x * x - 2.0, 1.0, 2.0) == pytest.approx(
            math.sqrt(2.0), abs=1e-12
        )

    def test_cosine(self):
        assert brent_root(math.cos, 1.0, 2.0) == pytest.approx(math.pi / 2.0, abs=1e-12)

    def test_cubic_vs_bisection_oracle(self):
        f = lambda x: x**3 - x - 2.0
        oracle = bisection_root(f, 1.0, 2.0)
        assert brent_root(f, 1.0, 2.0) == pytest.approx(oracle, abs=1e-10)

    def test_invalid_bracket(self):
        with pytest.raises(BracketError):
            brent_root(lambda x: x * x + 1.0, -1.0, 1.0)
        with pytest.raises(BracketError):
            brent_root(math.cos, 2.0, 1.0)

    def test_bracket_enlargement_invariance(self):
        f = lambda x: x**3 - x - 2.0
        r1 = brent_root(f, 1.0, 2.0)
        r2 = brent_root(f, 0.25, 9.0)
        assert r1 == pytest.approx(r2, abs=1e-12)

    @pytest.mark.parametrize(
        "f, lo, hi, root, evaluations",
        [
            (lambda x: x**3 - x - 2.0, 1.0, 2.0, 1.5213797068045676, 9),
            (math.cos, 1.0, 2.0, 1.5707963267948966, 7),
            (lambda x: math.tanh(50.0 * (x - 0.3)), 0.0, 2.0, 0.29999999999999993, 13),
        ],
    )
    def test_iterates_are_those_of_brentq(self, f, lo, hi, root, evaluations):
        # root and evaluation count of scipy 1.17.1 optimize.brentq at
        # xtol=1e-300, rtol=1e-13: the port repeats its float operations
        xs = []

        def counted(x):
            xs.append(x)
            return f(x)

        assert brent_root(counted, lo, hi) == root
        assert len(xs) == evaluations

    def test_exact_zero_at_an_endpoint(self):
        assert brent_root(lambda x: x - 1.0, 1.0, 2.0) == 1.0
        assert brent_root(lambda x: x - 2.0, 1.0, 2.0) == 2.0

    def test_iteration_budget(self, monkeypatch):
        monkeypatch.setattr(numerics, "_MAX_ITER", 3)
        with pytest.raises(ConvergenceError):
            brent_root(lambda x: x**3 - x - 2.0, 1.0, 2.0)

    def test_nan_raises(self):
        with pytest.raises(ConvergenceError):
            brent_root(lambda x: math.nan if x > 1.2 else x - 1.5, 1.0, 2.0)


# --------------------------------------------------------- finite difference


class TestCentralDiff:
    def test_exp_first(self):
        assert central_diff(math.exp, 0.0) == pytest.approx(1.0, abs=1e-8)

    def test_square_second(self):
        assert central_diff(lambda x: x * x, 3.0, order=2) == pytest.approx(2.0, abs=1e-6)

    def test_sin_first(self):
        assert central_diff(math.sin, 1.0) == pytest.approx(math.cos(1.0), abs=1e-8)

    def test_bad_order(self):
        with pytest.raises(DomainError):
            central_diff(math.exp, 0.0, order=3)
