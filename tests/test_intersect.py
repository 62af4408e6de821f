"""Tests for the branch crossing points and their asymptotics."""

import math

import numpy as np
import pytest

from magsteklov import disk, intersect, models, verify
from magsteklov.intersect import IntersectionRecord
from magsteklov.numerics import BracketError, DomainError, ScaledReal
from magsteklov.specfun import KummerValue

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
    def test_bracket_is_evaluated_by_brent_alone(self, monkeypatch, n):
        # a cold search sums M(-1/2, n+1, .) at Brent's points and once more
        # for residual_M, and nowhere else
        series = []
        brent_evals = []
        kummer_m, brent_root = intersect.kummer_m, intersect.brent_root

        def counted_kummer_m(a, c, z):
            series.append((a, c))
            return kummer_m(a, c, z)

        def counted_brent_root(f, lo, hi):
            def g(z):
                brent_evals.append(z)
                return f(z)

            return brent_root(g, lo, hi)

        monkeypatch.setattr(intersect, "kummer_m", counted_kummer_m)
        monkeypatch.setattr(intersect, "brent_root", counted_brent_root)
        intersect._find_zn_cached.cache_clear()
        intersect.find_zn(n)
        assert len(brent_evals) >= 3
        assert series == [(-0.5, n + 1.0)] * (len(brent_evals) + 1)

    def test_broken_evaluation_raises_naming_the_mode(self, monkeypatch):
        def positive(a, c, z):
            return KummerValue(value=ScaledReal.from_float(1.0), terms_used=1)

        monkeypatch.setattr(intersect, "kummer_m", positive)
        intersect._find_zn_cached.cache_clear()
        with pytest.raises(BracketError, match=r"mode 12: f\(13\.0\) = 1\.0 and f\(3"):
            intersect.find_zn(12)

    @pytest.mark.parametrize(
        "n",
        [
            0,
            pytest.param(
                1,
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="Brent's last step is its minimum step delta = REL_TOL z / 2, "
                    "which leaves z_1 5.8e-15 off",
                ),
            ),
            7, 42, 84, 85, 86, 87, 88, 500, 1000,
        ],
    )
    def test_against_mpmath_to_the_last_ulps(self, n):
        # on modes 0..300 but 1 the worst error is 4.1e-16 (n = 229); a
        # bracket that lets Brent's REL_TOL stop come early costs ~60 times that
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 40
        z = intersect.find_zn(n).z_n
        exact = mp.findroot(lambda x: mp.hyp1f1(-0.5, n + 1, x), mp.mpf(z))
        assert abs(z - exact) <= 2e-15 * exact


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
    def test_positive_at_small_modes(self):
        assert intersect.gap_zn(1) > 0.0

    def test_large_mode_gap_law(self):
        alpha = models.compute_alpha()
        assert intersect.gap_zn(10_000) == pytest.approx(1.0 + 0.5 * alpha * 0.01, abs=2e-3)

    def test_approaches_one(self):
        assert intersect.gap_zn(10_000) == pytest.approx(1.0, abs=0.005)


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
