"""Tests for the disk eigenvalue branches and the ground-state envelope."""

import math
import random
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from naive_series import crossing_oracle, kummer_series
from scaled_real import ScaledReal, kummer_m

from magsteklov import disk, intersect, specfun, verify
from magsteklov.numerics import ConvergenceError, DomainError
from magsteklov.verify import central_diff

# ----------------------------------------------------------------- oracles


def lambda_oracle(n, b, terms=120):
    """Branch eigenvalue assembled from raw float series; small |b| only."""
    top, bottom = kummer_series(1.5, n + 2.0, b, terms), kummer_series(0.5, n + 1.0, b, terms)
    ratio = 0.5 / (n + 1.0) * top / bottom
    return n - b + 2.0 * b * ratio


Z0_ORACLE = crossing_oracle(0, 1.5, 1.7)  # ~1.57996


def radial_solution(n, b, r):
    """Bounded radial solution of the mode-n field equation on the disk.

    Proportional to exp(-b r^2/2) r^n L_{-1/2}^n(b r^2) and normalized so
    that v_n(r) ~ r^n at the center (divide the Laguerre factor by its
    value at 0, leaving exp(-b r^2/2) r^n M(1/2, n+1, b r^2)).  Assembled
    in ScaledReal so the Gaussian damping and the exp(b r^2)-sized Kummer
    factor cannot under- or overflow separately.
    """
    if not 0.0 < r <= 1.0:
        raise DomainError(f"radius must lie in (0, 1], got {r}")
    z = b * r * r
    kummer = kummer_m(0.5, n + 1.0, z)
    return float(ScaledReal.exp(-0.5 * z) * ScaledReal.from_float(r**n) * kummer)


def radial_log_derivative(n, b):
    """v_n'(1) / v_n(1) from a one-sided second-order difference.

    A slow route to lambda_n that shares only the Kummer series with it; the stencil
    stays inside (0, 1] where the radial solution is defined.
    """
    h = 1e-6
    v0 = radial_solution(n, b, 1.0)
    v1 = radial_solution(n, b, 1.0 - h)
    v2 = radial_solution(n, b, 1.0 - 2.0 * h)
    return (3.0 * v0 - 4.0 * v1 + v2) / (2.0 * h * v0)


# ----------------------------------------------------------------- branches


class TestLambdaN:
    @pytest.mark.parametrize(
        "call",
        [
            lambda b: disk.lambda_n(200, b),
            lambda b: disk.lambda_minus_n(3, b),
            lambda b: disk.envelope([b])[0].item(),
            lambda b: disk.envelope([b])[2].item(),
        ],
        ids=["lambda_n", "lambda_minus_n", "envelope_b", "envelope_lambda_dn"],
    )
    def test_numpy_scalar_field_gives_the_float_result(self, call):
        # a numpy scalar is taken as its float once, at the entry: it neither
        # leaks into the result nor slows the series it would run through
        for b in (np.float64(150.0), np.float64(0.7), np.int64(12)):
            value = call(b)
            assert type(value) is float
            assert value.hex() == call(float(b)).hex()

    def test_zero_field_returns_mode(self):
        for n in (0, 1, 5, 40):
            assert disk.lambda_n(n, 0.0) == float(n)

    def test_zero_field_takes_the_ratio_route(self, monkeypatch):
        # n - b + 2b R is float(n) at b = +-0.0, so there is no shortcut
        calls = []
        ratio = disk.kummer_log_ratio

        def counted_ratio(a, c, z):
            calls.append(z)
            return ratio(a, c, z)

        monkeypatch.setattr(disk, "kummer_log_ratio", counted_ratio)
        for n in (0, 1, 5, 40):
            for b in (0.0, -0.0):
                value = disk.lambda_n(n, b)
                assert value.hex() == float(n).hex()
        assert len(calls) == 8
        assert disk.lambda_minus_n(3, 0.0).hex() == (3.0).hex()

    def test_zero_iff_origin(self):
        assert disk.lambda_n(0, 0.0) == 0.0
        assert disk.lambda_n(0, 1e-3) > 0.0
        assert disk.lambda_n(1, 0.0) > 0.0

    def test_mode_zero_small_field(self):
        value = disk.lambda_n(0, 1.0)
        assert 0.0 < value < 1.0
        assert value == pytest.approx(lambda_oracle(0, 1.0), rel=1e-12)

    def test_cross_check_against_radial_route(self):
        for n, b in ((0, 1.0), (2, 3.0), (5, 2.5)):
            assert disk.lambda_n(n, b) == pytest.approx(
                radial_log_derivative(n, b), abs=1e-6
            )

    def test_negative_field_against_alternating_series(self):
        # at small |b| the raw alternating series is still trustworthy
        expected = lambda_oracle(3, -1.0)
        assert disk.lambda_n(3, -1.0) == pytest.approx(expected, rel=1e-11)

    def test_extreme_field_mode_zero(self):
        # lambda_0(b) = b - 1 + O(1/b) from the ratio asymptotics; checks the
        # scaled series survives a value of size exp(1e5)
        b = 1e5
        assert disk.lambda_n(0, b) == pytest.approx(b - 1.0, abs=1e-3)
        assert disk.lambda_n(0, -b) == pytest.approx(b - 1.0, abs=1e-3)

    def test_mode_validation(self):
        for bad in (-1, True, False, 1.0, np.float64(2.0)):
            with pytest.raises(DomainError):
                disk.lambda_n(bad, 1.0)
        with pytest.raises(DomainError):
            disk.lambda_minus_n(True, 1.0)

    def test_mode_accepts_any_integer_type(self):
        value = disk.lambda_n(np.int64(3), 2.0)
        assert type(value) is float
        assert value == disk.lambda_n(3, 2.0)
        assert disk.lambda_minus_n(np.int64(3), 2.0) == disk.lambda_minus_n(3, 2.0)

    @pytest.mark.parametrize("b", [math.nan, math.inf, -math.inf])
    def test_non_finite_field_rejected_fast(self, b):
        start = time.perf_counter()
        with pytest.raises(DomainError, match="b must be finite"):
            disk.lambda_n(0, b)
        with pytest.raises(DomainError, match="b must be finite"):
            disk.envelope([b])
        assert time.perf_counter() - start < 0.01

    def test_field_domain_unchanged(self):
        for b in (2e6, -2e6):
            with pytest.raises(DomainError, match=r"\|b\| <= 1e\+06 required, got b="):
                disk.lambda_n(0, b)
        with pytest.raises(DomainError, match=r"\|b\| <= 1e\+06 required, got b=2000000.0"):
            disk.envelope([2e6])


# ------------------------------------------------------- large-field route

ROUTE_MODES = (0, 1, 5, 20, 100, 500)


class RouteSpy:
    """Counts the Kummer series calls lambda_n makes; zero means the expansion route."""

    def __init__(self, monkeypatch):
        self.series_calls = 0
        monkeypatch.setattr(specfun, "_series_parts", self._counting(specfun._series_parts))

    def _counting(self, fn):
        def counted(*args, **kwargs):
            self.series_calls += 1
            return fn(*args, **kwargs)

        return counted

    def route(self, n, b):
        before = self.series_calls
        value = disk.lambda_n(n, b)
        return value, "series" if self.series_calls > before else "expansion"


def mpmath_lambda(mp, n, b):
    """40-digit lambda_n(b); the negative branch through M(a, c, -y) = e^-y M(c-a, c, y)."""
    b = mp.mpf(b)
    if b > 0:
        ratio = mp.hyp1f1(1.5, n + 2, b) / mp.hyp1f1(0.5, n + 1, b)
    else:
        ratio = mp.hyp1f1(n + 0.5, n + 2, -b) / mp.hyp1f1(n + 0.5, n + 1, -b)
    return n - b + b / (n + 1) * ratio


class TestLargeFieldRoute:
    @pytest.mark.parametrize("n", ROUTE_MODES)
    def test_both_routes_against_mpmath(self, n, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        spy = RouteSpy(monkeypatch)
        cases = [(b, "series") for b in (1.0, 20.0)]
        cases += [(b, "expansion") for b in (1e3, 1.2345e4, 1e5, 1e6)]
        for magnitude, expected_route in cases:
            for b in (magnitude, -magnitude):
                value, route = spy.route(n, b)
                assert route == expected_route, (n, b)
                with mpmath.workdps(40):
                    ref = mpmath_lambda(mpmath.mp, n, b)
                    rel = float(abs((value - ref) / ref))
                budget = 5e-15 if route == "expansion" else 1e-14
                assert rel <= budget, (n, b, route, rel)

    @pytest.mark.parametrize("n", ROUTE_MODES)
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_continuous_across_the_switch(self, n, sign, monkeypatch):
        spy = RouteSpy(monkeypatch)
        lo, hi = 1.0, 1e3  # series at lo, expansion at hi, for every mode above
        assert spy.route(n, sign * lo)[1] == "series"
        assert spy.route(n, sign * hi)[1] == "expansion"
        while math.nextafter(lo, math.inf) < hi:
            mid = 0.5 * (lo + hi)
            if spy.route(n, sign * mid)[1] == "series":
                lo = mid
            else:
                hi = mid
        last_series = disk.lambda_n(n, sign * lo)
        first_expansion = disk.lambda_n(n, sign * hi)
        # the exact branch moves by |lambda'| ulp(b) <= eps |b| between the two;
        # the rest is rounding: up to ~10 eps |b| from the series route (at
        # n = 20), under 1 eps |b| from the expansion
        assert abs(last_series - first_expansion) <= 16.0 * np.finfo(float).eps * hi

    def test_single_call_cost_is_flat_in_field(self):
        for n in (0, 5):
            for b in (1e6, -1e6):
                start = time.perf_counter()
                for _ in range(50):
                    disk.lambda_n(n, b)
                # about 5 us per call; the series would sum ~1e6 terms here
                assert (time.perf_counter() - start) / 50 < 1e-3


class TestLambdaMinusN:
    def test_zero_field_symmetric(self):
        assert disk.lambda_minus_n(1, 0.0) == 1.0

    def test_dominates_positive_branch(self):
        assert disk.lambda_minus_n(1, 2.0) >= disk.lambda_n(1, 2.0)

    def test_equals_reflected_argument(self):
        assert disk.lambda_minus_n(3, 1.0) == pytest.approx(disk.lambda_n(3, -1.0), rel=1e-14)

    def test_needs_positive_mode(self):
        with pytest.raises(DomainError):
            disk.lambda_minus_n(0, 1.0)


class TestRadialSolution:
    def test_zero_field_harmonics(self):
        for r in (0.2, 0.7, 1.0):
            assert radial_solution(0, 0.0, r) == pytest.approx(1.0, rel=1e-14)
            assert radial_solution(1, 0.0, r) == pytest.approx(r, rel=1e-14)

    def test_boundary_value_against_laguerre(self):
        # v_0(1) = e^{-1/2} L_{-1/2}^0(1) = e^{-1/2} M(1/2, 1, 1), in 40 digits
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(40):
            expected = float(mpmath.exp(-0.5) * mpmath.hyp1f1(0.5, 1, 1))
        assert radial_solution(0, 1.0, 1.0) == pytest.approx(expected, rel=1e-13)

    def test_ode_residual(self):
        # -v'' - v'/r + (b r - n/r)^2 v = 0 probed by finite differences
        n, b = 2, 1.5
        for r in (0.4, 0.6, 0.85):
            v = radial_solution(n, b, r)
            vp = central_diff(lambda x: radial_solution(n, b, x), r)
            vpp = central_diff(lambda x: radial_solution(n, b, x), r, order=2)
            residual = -vpp - vp / r + (b * r - n / r) ** 2 * v
            assert abs(residual) <= 1e-6 * max(1.0, abs(v))

    def test_radius_domain(self):
        with pytest.raises(DomainError):
            radial_solution(0, 1.0, 0.0)
        with pytest.raises(DomainError):
            radial_solution(0, 1.0, 1.5)


class TestRadialLogDerivative:
    def test_constant_solution(self):
        assert radial_log_derivative(0, 0.0) == pytest.approx(0.0, abs=1e-9)

    def test_linear_solution(self):
        assert radial_log_derivative(1, 0.0) == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_eigenvalue(self):
        assert radial_log_derivative(2, 3.0) == pytest.approx(
            disk.lambda_n(2, 3.0), abs=1e-6
        )


# -------------------------------------------------------------- derivatives


class TestLambdaPrime:
    def test_zero_at_previous_crossing(self):
        assert verify.lambda_n_prime(1, Z0_ORACLE) == pytest.approx(0.0, abs=1e-8)

    def test_negative_before_crossing(self):
        assert verify.lambda_n_prime(1, 0.5) < 0.0
        assert verify.lambda_n_prime(1, Z0_ORACLE + 0.5) > 0.0

    def test_matches_finite_difference(self):
        fd = central_diff(lambda z: disk.lambda_n(2, z), 10.0)
        assert verify.lambda_n_prime(2, 10.0) == pytest.approx(fd, rel=1e-6)

    def test_two_closed_forms_agree(self):
        for n, z in ((1, 0.8), (3, 4.0), (10, 25.0)):
            assert verify.lambda_n_prime(n, z) == pytest.approx(
                verify.lambda_n_prime_alt(n, z), rel=1e-10
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            verify.lambda_n_prime(0, 1.0)
        with pytest.raises(DomainError):
            verify.lambda_n_prime(1, -1.0)


class TestLambdaSecondAtPrev:
    def test_mode_one_value(self):
        expected = (Z0_ORACLE - 1.0) / Z0_ORACLE  # ~0.3671
        assert verify.lambda_n_second_at_zprev(1, Z0_ORACLE) == pytest.approx(expected, rel=1e-12)
        assert 0.36 < expected < 0.38

    def test_against_second_difference(self):
        fd2 = central_diff(lambda z: disk.lambda_n(1, z), Z0_ORACLE, order=2)
        assert verify.lambda_n_second_at_zprev(1, Z0_ORACLE) == pytest.approx(fd2, abs=1e-4)

    def test_at_computed_crossing(self):
        value = verify.lambda_n_second_at_zprev(1, intersect.find_zn(0).z_n)
        assert value == pytest.approx((Z0_ORACLE - 1.0) / Z0_ORACLE, rel=1e-9)

    def test_large_mode_asymptotic_decay(self):
        from magsteklov import models

        alpha = models.compute_alpha()
        value = verify.lambda_n_second_at_zprev(10_000, intersect.find_zn(9_999).z_n)
        assert value == pytest.approx(alpha * 10_000**-0.5, rel=0.05)


# ----------------------------------------------------------------- envelope


def bench_grid(seed):
    """The envelope_sweep grid of bench/workloads.py for this seed."""
    rng = random.Random(seed)
    b_min = round(0.25 + rng.uniform(-0.25, 0.25), 3)
    b_max = round(1e4 + rng.uniform(-25.0, 25.0), 3)
    return np.linspace(b_min, b_max, 4001)


def estimate(m):
    """est(m) as the library computes it; the envelope starts at the smallest m with est(m) >= b."""
    return disk._Z0_GUESS if m == 0 else disk._estimates(np.array(float(m))).item()


class TestEnvelope:
    def test_at_origin(self):
        _, modes, lam = disk.envelope([0.0])
        assert modes.tolist() == [0]
        assert lam.tolist() == [0.0]

    def test_below_the_first_crossing_every_point_is_lambda_0(self):
        # b <= 1 takes the same batch lane and search as every other point
        grid = [float(b) for b in np.linspace(0.0, 1.0, 1001)]
        _, modes, lam = disk.envelope(grid)
        pairs = [(mode, value.hex()) for mode, value in zip(modes.tolist(), lam.tolist())]
        assert pairs == [(0, disk.lambda_n(0, b).hex()) for b in grid]
        assert pairs[0] == (0, (0.0).hex())

    def test_start_mode_is_zero_up_to_the_estimate_of_z0(self):
        est0 = disk._Z0_GUESS
        assert est0 < Z0_ORACLE
        fields = [0.0, 0.5, disk._OFFSET_GUESS, 1.0, est0, math.nextafter(est0, 2.0), 2.0]
        assert disk._start_modes(np.array(fields)).tolist() == [0, 0, 0, 0, 0, 1, 1]

    def test_no_scalar_fallback_below_the_estimate_of_z0(self, monkeypatch):
        # these points started at mode 1 and took lambda_n while est(0) was (A^2+2)/3
        grid = np.linspace(0.87, disk._Z0_GUESS, 501)[1:].tolist()
        spy = RatioSpy(monkeypatch)
        _, modes, lam = disk.envelope(grid)
        assert (spy.batches, spy.lambda_calls) == (1, 0)
        pairs = [(mode, value.hex()) for mode, value in zip(modes.tolist(), lam.tolist())]
        assert pairs == [(0, disk.lambda_n(0, b).hex()) for b in grid]

    def test_start_is_the_smallest_mode_whose_estimate_reaches_b(self):
        # each est(m) and the floats next to it, where the first three terms'
        # root is m or m + 1: the last term moves the start one down or not at all
        modes = list(range(60)) + np.geomspace(60, 999_000, 300).round().astype(int).tolist()
        edges = [(math.nextafter(e, 0.0), e, math.nextafter(e, 2e6)) for e in map(estimate, modes)]
        fields = sorted({f for edge in edges for f in edge})
        starts = disk._start_modes(np.array(fields)).tolist()
        expected = []
        m = 0
        for b in fields:
            while estimate(m) < b:
                m += 1
            expected.append(m)
        assert starts == expected

    def test_small_field_is_mode_zero(self):
        _, modes, lam = disk.envelope([1.0])
        assert modes.tolist() == [0]
        assert lam[0] == pytest.approx(disk.lambda_n(0, 1.0), rel=1e-14)

    def test_mode_transition_at_first_crossing(self):
        _, modes, _ = disk.envelope([Z0_ORACLE - 1e-6, Z0_ORACLE + 1e-6])
        assert modes.tolist() == [0, 1]

    def test_large_field_matches_asymptote(self):
        from magsteklov import models

        alpha = models.compute_alpha()
        _, _, lam = disk.envelope([1e4])
        expected = alpha * 100.0 - (alpha * alpha + 2.0) / 6.0
        assert lam[0] == pytest.approx(expected, abs=0.05)

    def test_envelope_is_min_over_window(self):
        for b in (0.5, 3.7, 12.0, 47.3):
            _, _, lam = disk.envelope([b])
            window = range(0, int(b) + 3)
            best = min(disk.lambda_n(m, b) for m in window)
            assert lam[0] == pytest.approx(best, rel=1e-12)

    def test_grid_order_preserved_and_monotone(self):
        grid = list(np.linspace(0.5, 30.0, 200))
        field, _, values = disk.envelope(grid)
        assert field.tolist() == grid
        assert all(values[i] < values[i + 1] for i in range(len(values) - 1))

    def test_rejects_descending_grid(self):
        with pytest.raises(DomainError):
            disk.envelope([2.0, 1.0])

    def test_rejects_negative_field(self):
        with pytest.raises(DomainError):
            disk.envelope([-1.0])

    @given(st.floats(min_value=0.05, max_value=500.0))
    @settings(max_examples=40, deadline=None)
    def test_active_mode_is_local_minimum(self, b):
        mode = disk.envelope([b])[1].item()
        lam = disk.lambda_n(mode, b)
        slack = 1e-11 * max(1.0, abs(lam))
        assert lam <= disk.lambda_n(mode + 1, b) + slack
        if mode > 0:
            assert lam <= disk.lambda_n(mode - 1, b) + slack

    @pytest.mark.parametrize("grid", [[1.0, math.nan], [1.0, math.inf], [-1.0], [1.0, 2e6]])
    def test_bad_field_rejected_by_name(self, grid):
        with pytest.raises(DomainError, match="got b="):
            disk.envelope(grid)

    @pytest.mark.parametrize(
        "bad, message",
        [(math.nan, "b must be finite"), (2e6, "got b=2000000.0"), (0.5, "sorted ascending")],
    )
    def test_whole_grid_checked_before_any_series(self, monkeypatch, bad, message):
        def no_series(*args):
            raise AssertionError("a series ran before the grid was checked")

        for name in ("kummer_log_ratio", "kummer_log_ratios", "lambda_n"):
            monkeypatch.setattr(disk, name, no_series)
        grid = [0.5, 1.0] + [float(b) for b in np.linspace(2.0, 9e5, 20)] + [bad]
        with pytest.raises(DomainError, match=message):
            disk.envelope(grid)

    def test_first_bad_point_in_grid_order_wins(self):
        with pytest.raises(DomainError, match="sorted ascending"):
            disk.envelope([1.0, 3.0, 2.0, math.nan])
        with pytest.raises(DomainError, match="finite"):
            disk.envelope([1.0, math.nan, 2.0, 1.0])
        with pytest.raises(DomainError, match=">= 0"):
            disk.envelope([-2e6, 1.0])

    @pytest.mark.parametrize(
        "fields",
        [bench_grid(7), bench_grid(21), bench_grid(23), np.geomspace(0.5, 1e6, 401)],
        ids=["bench-7", "bench-21", "bench-23", "geomspace-1e6"],
    )
    def test_each_point_is_the_branch_of_its_mode(self, fields):
        field, modes, lam = (column.tolist() for column in disk.envelope(fields))
        assert modes == sorted(modes)
        branch = [disk.lambda_n(n, b) for n, b in zip(modes, field)]
        mismatched = [b for b, x, y in zip(field, lam, branch) if x.hex() != y.hex()]
        assert mismatched == []

    @pytest.mark.parametrize("shift", [-1, 2])
    def test_a_start_outside_the_mode_or_one_above_raises(self, monkeypatch, shift):
        # one below the estimate, the start falls below the mode wherever the
        # estimate was exact; two above, it is at least two above everywhere
        grid = [float(b) for b in np.linspace(0.0, 2000.0, 801)]
        starts = disk._start_modes(np.array(grid)).tolist()
        _, modes, _ = disk.envelope(grid)
        first = next(
            b for b, n, s in zip(grid, modes.tolist(), starts) if shift > 0 or 0 < s == n
        )
        start_modes = disk._start_modes
        monkeypatch.setattr(disk, "_start_modes", lambda b: np.maximum(0.0, start_modes(b) + shift))
        with pytest.raises(ConvergenceError, match=re.escape(f"at b={first}")):
            disk.envelope(grid)

    def test_one_batch_and_lambda_n_only_where_the_start_is_one_above(self, monkeypatch):
        grid = [float(b) for b in bench_grid(7)]
        spy = RatioSpy(monkeypatch)
        _, modes, _ = disk.envelope(grid)
        starts = disk._start_modes(np.array(grid)).tolist()
        down = sum(n < s for n, s in zip(modes.tolist(), starts))
        assert down > 0
        assert (spy.batches, spy.lambda_calls, spy.scalar_ratios) == (1, down, down)

    def test_few_scalar_fallbacks_at_large_fields(self, monkeypatch):
        # the D/sqrt(n) term of the estimate starts nearly every point at its mode
        spy = RatioSpy(monkeypatch)
        disk.envelope([float(b) for b in np.linspace(1e5, 1e6, 4001)])
        assert spy.batches == 1 and spy.lambda_calls <= 5


# ------------------------------------------ active mode from the branch ratio

IDENTITY_MODES = (0, 1, 5, 50, 500)


class RatioSpy:
    """Counts the batch and scalar branch ratios disk computes and its lambda_n calls."""

    def __init__(self, monkeypatch):
        self.batches = self.scalar_ratios = self.lambda_calls = 0
        ratios, ratio, lam = disk.kummer_log_ratios, disk.kummer_log_ratio, disk.lambda_n

        def counted_ratios(a, c, z):
            self.batches += 1
            return ratios(a, c, z)

        def counted_ratio(a, c, z):
            self.scalar_ratios += 1
            return ratio(a, c, z)

        def counted_lambda(n, b):
            self.lambda_calls += 1
            return lam(n, b)

        monkeypatch.setattr(disk, "kummer_log_ratios", counted_ratios)
        monkeypatch.setattr(disk, "kummer_log_ratio", counted_ratio)
        monkeypatch.setattr(disk, "lambda_n", counted_lambda)


class TestGroundStateSearch:
    @pytest.mark.parametrize("n", IDENTITY_MODES)
    def test_crossing_identity_against_mpmath(self, n):
        # M(-1/2, n+1, b) / M(1/2, n+1, b) = (lambda_n(b) + n + 1 - b) / (2n + 1)
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        z = intersect.find_zn(n).z_n
        for b, sign in ((z * (1.0 - 1e-8), 1.0), (z * (1.0 + 1e-8), -1.0), (0.5 * z, 1.0)):
            exact = mp.hyp1f1(-0.5, n + 1, b) / mp.hyp1f1(0.5, n + 1, b)
            value = (disk.lambda_n(n, b) + n + 1.0 - b) / (2.0 * n + 1.0)
            assert math.copysign(1.0, value) == sign == math.copysign(1.0, float(exact))
            assert abs(value - float(exact)) <= 1e-13 * max(1.0, b / (2.0 * n + 1.0))

    def test_agrees_with_the_crossing_function(self):
        for n in range(0, 2001, 37):
            z = intersect.find_zn(n).z_n
            field, modes, lam = disk.envelope([z - 1e-9 * z, z + 1e-9 * z])
            for b, mode, lambda_dn in zip(field.tolist(), modes.tolist(), lam.tolist()):
                below = kummer_m(-0.5, n + 1.0, b).to_float() > 0.0
                assert mode == (n if below else n + 1)
                assert lambda_dn == disk.lambda_n(mode, b)

    def test_estimate_lies_between_consecutive_crossings(self):
        # z_{m-1} < est(m) < z_m, read off the signs of M(-1/2, ., est(m)), is
        # what keeps every start on 0 <= b <= 1e6 at the mode or one above
        top = int(disk._start_modes(np.array([1e6]))[0])
        top -= estimate(top) > 1e6  # the largest m with est(m) <= 1e6
        sample = set(range(2001)) | set(np.geomspace(2001, top, 200).round().astype(int).tolist())
        assert top in sample and len(sample) > 2190
        for m in sorted(sample):
            assert kummer_m(-0.5, m + 1.0, estimate(m)).sign == 1, m
            if m > 0:
                assert kummer_m(-0.5, float(m), estimate(m)).sign == -1, m
        # past est(top) the start is top + 1, and z_{top+1} lies beyond 1e6
        assert kummer_m(-0.5, top + 2.0, 1e6).sign == 1

    def test_start_guess_is_exact_or_one_above(self):
        # a guess above alpha passes z_n at large n: 0.765 started one below
        # the mode at five of these geomspace points, the first at b = 18067.39...
        for grid in (np.linspace(1.01, 1e4, 400), np.geomspace(1.01, 1e6, 400)):
            starts = disk._start_modes(grid).tolist()
            for mode, s in zip(disk.envelope(grid)[1].tolist(), starts):
                assert mode <= s <= mode + 1

    def test_disk_sums_no_kummer_series_itself(self):
        assert not hasattr(disk, "kummer_m")
        assert not hasattr(disk, "_crossing_m")


# ------------------------------------------------- invariant suite delegates


@pytest.mark.parametrize(
    "check",
    [
        verify.check_branch_inequality,
        verify.check_branch_positivity,
        verify.check_lambda_prime_vs_fd,
        verify.check_lambda_prime_two_forms,
        verify.check_envelope_window_argmin,
        verify.check_mode_switch,
    ],
    ids=lambda fn: fn.__name__,
)
def test_invariant_suite(check):
    result = check()
    assert result.passed, result.detail
