"""Tests for the branch crossing points and their asymptotics."""

import dataclasses
import math

import numpy as np
import pytest
from large_z import large_z_sum

from magsteklov import disk, intersect, models, specfun, verify
from magsteklov.intersect import IntersectionRecord
from magsteklov.numerics import BracketError, ConvergenceError, DomainError

# ----------------------------------------------------------------- oracles


def series(a, c, z, terms=30):
    total, term = 1.0, 1.0
    for k in range(terms):
        term *= (a + k) * z / ((c + k) * (k + 1.0))
        total += term
    return total


def crossing_oracle(n, lo, hi, terms=30):
    f = lambda z: series(-0.5, n + 1.0, z, terms)
    assert f(lo) * f(hi) < 0.0, "oracle bracket must straddle the crossing"
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(lo) * f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


# ------------------------------------------------------------------ find_zn


class TestFindZn:
    def test_first_crossing_against_oracle(self):
        oracle = crossing_oracle(0, 1.5, 1.7)
        record = intersect.find_zn(0)
        assert record.z_n == pytest.approx(oracle, abs=1e-10)
        assert record.beta_n is None

    def test_residuals_within_contract(self):
        for n in (0, 1, 7, 42):
            record = intersect.find_zn(n)
            assert record.residual_M <= 1e-9
            assert verify.characterization_residual(n, record.z_n) <= 1e-9
            assert record.residual_F <= 1e-8

    def test_exceeds_mode_plus_one(self):
        for n in (0, 3, 25):
            assert intersect.find_zn(n).z_n > n + 1.0

    def test_crossing_equates_adjacent_branches(self):
        z = intersect.find_zn(4).z_n
        assert disk.lambda_n(4, z) == pytest.approx(disk.lambda_n(5, z), abs=1e-9)

    def test_large_mode_three_term_asymptotic(self):
        alpha = models.compute_alpha()
        record = intersect.find_zn(10_000)
        expected = 10_000 + alpha * 100.0 + (alpha * alpha + 2.0) / 3.0
        assert record.z_n == pytest.approx(expected, abs=0.01)

    def test_domain(self):
        with pytest.raises(DomainError):
            intersect.find_zn(-1)

    def test_mode_accepts_any_integer_type(self):
        record = intersect.find_zn(np.int64(3))
        assert type(record.n) is int
        assert record == intersect.find_zn(3)

    def test_mode_rejects_bool_even_when_one_is_cached(self):
        intersect.find_zn(1)
        for bad in (True, 2.0):
            with pytest.raises(DomainError):
                intersect.find_zn(bad)

    def test_uses_the_cached_alpha(self, monkeypatch):
        models._alpha_cached()
        expected = intersect.find_zn(7)
        intersect._find_zn_cached.cache_clear()

        def fail(*args, **kwargs):
            raise AssertionError("compute_alpha called per crossing point")

        monkeypatch.setattr(models, "compute_alpha", fail)
        assert intersect.find_zn(7) == expected

    @pytest.mark.parametrize("n", [0, 1, 7, 42, 500])
    def test_residual_is_the_one_crossing_series(self, monkeypatch, n):
        # a cold search sums the ratio's two series in the scalar loop at
        # every point, and M(-1/2, n+1, .) once, for residual_M
        series = []
        series_parts = specfun._series_parts

        def counted(a, c, z):
            series.append((a, c))
            return series_parts(a, c, z)

        monkeypatch.setattr(specfun, "_series_parts", counted)
        intersect._find_zn_cached.cache_clear()
        intersect.find_zn(n)
        assert [call for call in series if call[0] < 0.0] == [(-0.5, n + 1.0)]
        assert len(series) >= 8  # the ratio's two series at >= 4 points

    @pytest.mark.parametrize("n", [0, 100, 10_000])
    def test_takes_every_ratio_from_the_scalar_kernel(self, monkeypatch, n):
        # a one-mode solve asks for at most three lanes a step, which specfun
        # sums in its scalar series loop on Python floats, ~20x cheaper per
        # term than a numpy batch of one
        lanes = []
        series = []
        kummer_log_ratios = intersect.kummer_log_ratios
        series_parts = specfun._series_parts

        def counted(a, c, z):
            lanes.append(z.size)
            return kummer_log_ratios(a, c, z)

        def scalar(a, c, z):
            assert type(c) is float and type(z) is float
            series.append(1)
            return series_parts(a, c, z)

        monkeypatch.setattr(intersect, "kummer_log_ratios", counted)
        monkeypatch.setattr(specfun, "_series_parts", scalar)
        intersect._find_zn_cached.cache_clear()
        record = intersect.find_zn(n)
        assert len(lanes) >= 3 and sum(lanes) >= 5  # at least 2 steps and 3 final points
        assert max(lanes) == 3 < specfun._BATCH_MIN
        assert len(series) == 2 * sum(lanes) + 1  # two series a lane, and residual_M's
        intersect._find_zn_cached.cache_clear()
        monkeypatch.undo()
        assert record == intersect.find_zn(n)

    def test_broken_evaluation_raises_naming_the_mode(self, monkeypatch):
        # a ratio whose g = -|z - start| touches zero at the start without
        # changing sign: Newton stops there, and the certificate refuses it
        def tangent(a, c, z):
            n = c - 1.0
            start = np.array([intersect._start(int(m)) for m in np.atleast_1d(n)])
            return (z - n - 0.5 - abs(z - start.reshape(np.shape(z)))) / z

        monkeypatch.setattr(intersect, "kummer_log_ratios", tangent)
        intersect._find_zn_cached.cache_clear()
        message = r"no sign change for mode 12: g\(15\.\d+\) = -\d\.\d+e-12 and g\("
        with pytest.raises(BracketError, match=message):
            intersect.find_zn(12)
        with pytest.raises(BracketError, match=message):
            intersect.crossings([12, 40])

    def test_non_convergence_raises_naming_the_mode(self, monkeypatch):
        monkeypatch.setattr(intersect, "_MAX_STEPS", 1)
        intersect._find_zn_cached.cache_clear()
        message = "mode 12: Newton's method did not converge"
        with pytest.raises(ConvergenceError, match=message):
            intersect.find_zn(12)
        with pytest.raises(ConvergenceError, match=message):
            intersect.crossings([12, 40])

    def test_iterate_outside_the_series_band_raises_naming_the_mode(self, monkeypatch):
        # R = 1 makes g = n + 1/2 and g' = -(n + 1/2): every step is +1
        monkeypatch.setattr(intersect, "kummer_log_ratios", lambda a, c, z: np.ones_like(z))
        intersect._find_zn_cached.cache_clear()
        message = r"mode 12: iterate z = 18\.60\d+ left the series band"  # band ends at 17.61
        with pytest.raises(ConvergenceError, match=message):
            intersect.find_zn(12)
        with pytest.raises(ConvergenceError, match=message):
            intersect.crossings([12, 40])

    def test_crossing_past_the_field_bound_raises_naming_the_mode(self):
        # z_999234 = 999,999.52 is the last crossing inside |z| <= 1e6
        assert intersect.find_zn(999_234).z_n < 1e6
        message = r"mode 999999: z_n lies past the field bound \|z\| <= 1e\+06"
        with pytest.raises(DomainError, match=message):
            intersect.find_zn(999_999)
        with pytest.raises(DomainError, match=message):
            intersect.crossings([5, 999_999])
        with pytest.raises(DomainError, match="mode 999235: z_n lies past the field bound"):
            intersect.find_zn(999_235)

    @pytest.mark.parametrize(
        "n",
        [0, 1, 7, 42, 84, 85, 86, 87, 88, 500, 1000],
    )
    def test_against_mpmath_to_the_last_ulps(self, n):
        # on modes 0..300 the worst error is 7.2e-16 (n = 18, where the branch
        # ratio itself is ~8 eps off); a Brent bracket that let its REL_TOL
        # stop come early cost 2.5e-14 at n = 84..88
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        z = intersect.find_zn(n).z_n
        exact = mp.findroot(lambda x: mp.hyp1f1(-0.5, n + 1, x), mp.mpf(z))
        assert abs(z - exact) <= 2e-15 * exact


class TestCrossings:
    """The batch gives find_zn's records bit for bit, from series the scalar also sums."""

    @staticmethod
    def bits(record):
        return tuple(v.hex() if isinstance(v, float) else v for v in dataclasses.astuple(record))

    # the mode ranges of the crossing_points benchmark at seeds 7, 21 and 23,
    # and every mode up to 2,000
    @pytest.mark.parametrize(
        "n_min, n_max",
        [(2, 1002), (1, 1001), (2, 1002), (0, 2000)],
        ids=["seed7", "seed21", "seed23", "modes-0-2000"],
    )
    def test_records_are_find_zn_records(self, n_min, n_max):
        modes = range(n_min, n_max + 1)
        batch = [self.bits(r) for r in intersect.crossings(modes)]
        assert batch == [self.bits(intersect.find_zn(n)) for n in modes]

    def test_every_ratio_is_taken_where_the_scalar_sums_the_series(self, monkeypatch):
        """Each Newton iterate and certificate point on modes 0..2000 lies in
        c >= 1, 0 <= z <= c + sqrt(c) + 1, the band in which
        tests/test_specfun.py's covering argument has kummer_log_ratio refuse
        the expansion, and the scalar refuses it at each of them."""
        lanes = []
        kummer_log_ratios = intersect.kummer_log_ratios

        def recorded(a, c, z):
            lanes.extend(zip(c.tolist(), z.tolist()))
            return kummer_log_ratios(a, c, z)

        monkeypatch.setattr(intersect, "kummer_log_ratios", recorded)
        intersect.crossings(range(2001))
        assert len(lanes) >= 5 * 2001  # at least 2 steps and 3 final points per mode
        assert all(c >= 1.0 and 0.0 <= z <= c + math.sqrt(c) + 1.0 for c, z in lanes)
        assert all(large_z_sum(0.5, c, z) is None for c, z in lanes)
        assert all(specfun._large_z_sums(1.5, 0.5, c, z) is None for c, z in lanes)

    def test_residual_is_kummer_m_at_the_root(self):
        # 41 modes take the numpy series loop and find_zn the scalar one; both
        # read M(-1/2, n+1, z_n) as the float kummer_m's ScaledReal gives
        records = intersect.crossings(range(41))
        records += [intersect.find_zn(n) for n in (1000, 10_000, 100_000, 999_000)]
        residuals = [r.residual_M.hex() for r in records]
        expected = [abs(specfun.kummer_m(-0.5, r.n + 1.0, r.z_n).value.to_float()) for r in records]
        assert residuals == [x.hex() for x in expected]

    def test_any_order_repeats_and_no_modes(self):
        assert intersect.crossings([5, np.int64(0), 5]) == [intersect.find_zn(n) for n in (5, 0, 5)]
        assert intersect.crossings([]) == []

    def test_domain(self):
        with pytest.raises(DomainError):
            intersect.crossings([3, -1])


class TestMaxCrossingResidual:
    def test_single_mode(self):
        assert verify.max_crossing_residual(0) <= 1e-8

    def test_through_fifty_modes(self):
        assert verify.max_crossing_residual(50) <= 1e-8


class TestBetaN:
    def test_first_value(self):
        z1 = intersect.find_zn(1).z_n
        assert intersect.find_zn(1).beta_n == pytest.approx(z1 - 1.5, rel=1e-14)

    def test_tends_to_alpha(self):
        alpha = models.compute_alpha()
        assert intersect.find_zn(10_000).beta_n == pytest.approx(alpha, abs=5e-3)

    def test_monotone_trend_toward_alpha(self):
        alpha = models.compute_alpha()
        deviations = [abs(intersect.find_zn(n).beta_n - alpha) for n in (10, 100, 1000, 10_000)]
        assert all(a > b for a, b in zip(deviations, deviations[1:]))

    def test_needs_positive_mode(self):
        assert intersect.find_zn(0).beta_n is None


class TestGapZn:
    """The spacing z_n - z_{n-1}, from the records of the two modes."""

    @staticmethod
    def gap(n):
        return intersect.find_zn(n).z_n - intersect.find_zn(n - 1).z_n

    def test_positive_at_small_modes(self):
        assert self.gap(1) > 0.0

    def test_large_mode_gap_law(self):
        alpha = models.compute_alpha()
        assert self.gap(10_000) == pytest.approx(1.0 + 0.5 * alpha * 0.01, abs=2e-3)

    def test_approaches_one(self):
        assert self.gap(10_000) == pytest.approx(1.0, abs=0.005)


class TestLambdaAtZnAsymptotic:
    def test_synthetic_exact(self):
        alpha = models.compute_alpha()
        n = 400
        synthetic = IntersectionRecord(
            n=n,
            z_n=0.0,
            lambda_at_zn=alpha * math.sqrt(n) + (alpha * alpha - 1.0) / 3.0,
            beta_n=None,
            residual_M=0.0,
            residual_F=0.0,
        )
        predicted = alpha * math.sqrt(n) + (alpha * alpha - 1.0) / 3.0
        assert abs(synthetic.lambda_at_zn - predicted) == 0.0

    def test_residual_scales(self):
        # sqrt(n) |lambda_n(z_n) - prediction| <= 5: 0.5 at n = 100, 0.05 at n = 1e4
        result = verify.check_crossing_eigenvalue_asymptotic()
        assert result.passed, result.detail
        assert result.limit == 5.0


# ---------------------------------------------------------------------- fit


class TestFitAsymptotics:
    @staticmethod
    def synthetic_records(c_sqrt, c_const, ns):
        return [
            IntersectionRecord(
                n=n,
                z_n=n + c_sqrt * math.sqrt(n) + c_const,
                lambda_at_zn=0.0,
                beta_n=None,
                residual_M=0.0,
                    residual_F=0.0,
            )
            for n in ns
        ]

    def test_recovers_its_own_model(self):
        records = self.synthetic_records(0.7649508673, 0.86172, range(10, 200, 7))
        fit = intersect.fit_asymptotics(records)
        assert fit.coefficients[0] == pytest.approx(0.7649508673, abs=1e-10)
        assert fit.coefficients[1] == pytest.approx(0.86172, abs=1e-10)
        assert abs(fit.coefficients[2]) < 1e-10
        assert abs(fit.coefficients[3]) < 1e-10
        assert fit.max_residual <= 1e-10

    def test_real_crossings_recover_constants(self):
        alpha = models.compute_alpha()
        ns = sorted({int(round(10 ** (2.0 + 0.1 * k))) for k in range(11)})  # 100..1000
        records = [intersect.find_zn(n) for n in ns]
        fit = intersect.fit_asymptotics(records)
        assert fit.coefficients[0] == pytest.approx(alpha, abs=1e-3)
        assert fit.coefficients[1] == pytest.approx((alpha * alpha + 2.0) / 3.0, abs=1e-2)

    def test_narrow_range_rejected(self):
        records = self.synthetic_records(0.7, 0.9, range(100, 150))
        with pytest.raises(DomainError):
            intersect.fit_asymptotics(records)


# ------------------------------------------------- invariant suite delegates


@pytest.mark.parametrize(
    "check",
    [
        verify.check_characterization_equivalence,
        verify.check_f_formula,
        verify.check_crossing_ordering,
        verify.check_stationary_at_previous_crossing,
        verify.check_beta_trend,
        verify.check_envelope_sandwich,
    ],
    ids=lambda fn: fn.__name__,
)
def test_invariant_suite(check):
    result = check()
    assert result.passed, result.detail
