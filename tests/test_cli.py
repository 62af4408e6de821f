"""Tests for the command-line interface: formats, determinism, exit codes."""

import contextlib
import csv
import dataclasses
import gc
import io
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from magsteklov import cli, disk, intersect, models, specfun, verify
from magsteklov.numerics import REL_TOL, QuadratureError


def run(tmp_path, *argv, name="out.csv"):
    out = tmp_path / name
    code = cli.main([*argv, "--out", str(out)])
    return code, out


def read_rows(path):
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


# -------------------------------------------------------------------- curves


class TestCurves:
    def test_row_count_per_branch(self, tmp_path):
        code, out = run(
            tmp_path, "curves", "--n-min", "0", "--n-max", "5",
            "--b-min", "0", "--b-max", "10", "--steps", "101",
        )
        assert code == 0
        rows = read_rows(out)
        assert sum(r["branch"] == "pos" for r in rows) == 606
        assert sum(r["branch"] == "neg" for r in rows) == 606

    def test_origin_row_is_zero(self, tmp_path):
        _, out = run(tmp_path, "curves", "--n-max", "1", "--b-max", "2", "--steps", "3")
        first = read_rows(out)[0]
        assert first["n"] == "0" and first["b"] == "0"
        assert float(first["lambda"]) == 0.0

    def test_all_rows_nonnegative(self, tmp_path):
        _, out = run(tmp_path, "curves", "--n-max", "3", "--b-max", "8", "--steps", "9")
        assert all(float(r["lambda"]) >= 0.0 for r in read_rows(out))

    def test_deterministic_bytes(self, tmp_path):
        args = ("curves", "--n-max", "2", "--b-max", "5", "--steps", "11")
        _, first = run(tmp_path, *args, name="a.csv")
        _, second = run(tmp_path, *args, name="b.csv")
        assert first.read_bytes() == second.read_bytes()

    def test_seventeen_digit_round_trip(self, tmp_path):
        from magsteklov import disk

        _, out = run(tmp_path, "curves", "--n-max", "0", "--b-max", "1", "--steps", "2")
        row = read_rows(out)[1]
        assert float(row["lambda"]) == disk.lambda_n(0, 1.0)

    def test_metadata_sidecar(self, tmp_path):
        _, out = run(tmp_path, "curves", "--n-max", "0", "--b-max", "1", "--steps", "2")
        meta = json.loads((out.parent / (out.name + ".meta.json")).read_text())
        assert meta["command"] == "curves"
        assert meta["schema_version"] == 1
        assert set(meta["parameters"]) == {
            "n_min", "n_max", "b_min", "b_max", "steps", "out", "format",
        }
        assert meta["parameters"]["out"] == str(out)

    def test_json_format(self, tmp_path):
        code, out = run(
            tmp_path, "curves", "--n-max", "0", "--b-max", "1", "--steps", "2",
            "--format", "json", name="out.json",
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        assert payload["columns"] == ["n", "b", "branch", "lambda"]
        assert len(payload["rows"]) == 4


# ------------------------------------------------------------------ envelope


class TestEnvelope:
    def test_columns_and_monotonicity(self, tmp_path):
        code, out = run(tmp_path, "envelope", "--b-min", "0", "--b-max", "20", "--steps", "41")
        assert code == 0
        rows = read_rows(out)
        assert list(rows[0]) == ["b", "active_mode", "lambda_dn", "asymptote"]
        values = [float(r["lambda_dn"]) for r in rows[1:]]  # skip b=0
        assert all(a < b for a, b in zip(values, values[1:]))
        modes = [int(r["active_mode"]) for r in rows]
        assert modes == sorted(modes)

    def test_origin_row(self, tmp_path):
        _, out = run(tmp_path, "envelope", "--b-min", "0", "--b-max", "1", "--steps", "2")
        assert float(read_rows(out)[0]["lambda_dn"]) == 0.0

    def test_asymptote_column(self, tmp_path):
        from magsteklov import models

        alpha = models.compute_alpha()
        _, out = run(tmp_path, "envelope", "--b-min", "1e4", "--b-max", "1e4", "--steps", "2")
        row = read_rows(out)[0]
        expected = alpha * 100.0 - (alpha * alpha + 2.0) / 6.0
        assert float(row["asymptote"]) == pytest.approx(expected, rel=1e-12)
        assert abs(float(row["lambda_dn"]) - float(row["asymptote"])) <= 0.05

    def test_field_out_of_range_names_b(self, capsys):
        argv = ["envelope", "--b-min", "9e5", "--b-max", "1.1e6", "--steps", "41"]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: envelope needs 0 <= --b-min <= --b-max <= 1e+06, the range of the field,"
            " got --b-min 900000.0 --b-max 1100000.0\n"
        )


# -------------------------------------------------------------- intersections


class TestIntersections:
    def test_residuals_and_ordering(self, tmp_path):
        code, out = run(tmp_path, "intersections", "--n-min", "0", "--n-max", "8")
        assert code == 0
        rows = read_rows(out)
        assert all(float(r["residual_F"]) <= 1e-8 for r in rows)
        zs = [float(r["z_n"]) for r in rows]
        assert all(a < b for a, b in zip(zs, zs[1:]))
        assert all(z > int(r["n"]) + 1.0 for z, r in zip(zs, rows))

    def test_beta_absent_for_mode_zero(self, tmp_path):
        _, out = run(tmp_path, "intersections", "--n-min", "0", "--n-max", "1")
        rows = read_rows(out)
        assert rows[0]["beta_n"] == ""
        assert float(rows[1]["beta_n"]) > 0.0

    def test_resolves_no_alpha(self, tmp_path, monkeypatch):
        def refuse():
            raise AssertionError("intersections resolved alpha")

        monkeypatch.setattr(models, "compute_alpha", refuse)
        models._alpha_cached.cache_clear()
        code, _ = run(tmp_path, "intersections", "--n-min", "0", "--n-max", "8")
        assert code == 0


# ---------------------------------------------------------------- CSV writer


def per_value_csv(columns, rows):
    """CSV text with each value formatted alone: 17 digits for a float, "" for None, else str."""

    def fmt(value):
        if isinstance(value, float):
            return format(value, ".17g")
        return "" if value is None else str(value)

    return "\n".join([",".join(columns), *(",".join(map(fmt, row)) for row in rows)]) + "\n"


def emitted_csv(names, columns):
    args = cli._parse(["curves", "--format", "csv", "--out", "-"])
    with contextlib.redirect_stdout(io.StringIO()) as text:
        cli._emit(args, names, columns)
    return text.getvalue()


CSV_FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, math.inf, -math.inf, -math.nan]),
)
CSV_COLUMNS = st.sampled_from(
    [
        CSV_FLOATS,
        CSV_FLOATS.map(np.float64),
        st.integers(-(2**70), 2**70),
        st.integers(-(2**63), 2**63 - 1).map(np.int64),
        st.booleans(),
        st.text(max_size=8),
        st.none(),
    ]
)


@st.composite
def typed_tables(draw):
    """Names and columns of a table of 1 to 12 rows: each column of one type, None anywhere."""
    rows = draw(st.integers(1, 12))
    columns = []
    for kind in draw(st.lists(CSV_COLUMNS, min_size=1, max_size=6)):
        column = draw(st.lists(kind, min_size=rows, max_size=rows))
        for row in draw(st.sets(st.integers(0, rows - 1))):
            column[row] = None
        columns.append(column)
    return ["c%d" % i for i in range(len(columns))], columns


class TestCsvWriter:
    @given(typed_tables())
    @settings(max_examples=100, deadline=None)
    def test_one_type_per_column_matches_per_value_formatting(self, table):
        names, columns = table
        assert emitted_csv(names, columns) == per_value_csv(names, list(zip(*columns)))

    @pytest.mark.parametrize(
        "argv",
        [["curves"], ["envelope"], ["intersections", "--n-min", "0"], ["halfplane"], ["degennes"]],
    )
    def test_csv_is_the_json_rows_formatted_value_by_value(self, tmp_path, argv):
        _, out = run(tmp_path, *argv)
        _, json_out = run(tmp_path, *argv, "--format", "json", name="out.json")
        payload = json.loads(json_out.read_text())
        assert out.read_bytes().decode() == per_value_csv(payload["columns"], payload["rows"])

    @pytest.mark.parametrize("n_min", [0, 2, 3])
    def test_intersections_bytes(self, tmp_path, n_min):
        # mode 0 has no beta_n: CSV leaves its field empty, and JSON writes null.
        # Up to mode 6 the series run the scalar loop; 61 modes are 122 series
        # lanes, where the numpy loop runs.
        def hexed(rows):
            return [[v.hex() if isinstance(v, float) else v for v in row] for row in rows]

        columns = ["n", "z_n", "lambda_at_zn", "beta_n", "residual_M", "residual_F"]
        for n_max in (6, n_min + 60):
            flags = ("intersections", "--n-min", str(n_min), "--n-max", str(n_max))
            rows = [
                (r.n, r.z_n, r.lambda_at_zn, r.beta_n, r.residual_M, r.residual_F)
                for r in intersect.crossings(range(n_min, n_max + 1))
            ]
            assert (rows[0][3] is None) == (n_min == 0)
            _, out = run(tmp_path, *flags)
            assert out.read_bytes().decode() == per_value_csv(columns, rows)
            _, out = run(tmp_path, *flags, "--format", "json", name="out.json")
            payload = json.loads(out.read_text())
            assert payload["columns"] == columns
            assert hexed(payload["rows"]) == hexed(rows)

    def test_envelope_bytes(self, tmp_path):
        # each row is a point of disk.envelope with its asymptote
        _, out = run(tmp_path, "envelope", "--b-min", "0", "--b-max", "300", "--steps", "401")
        alpha = models._alpha_cached()
        offset = (alpha * alpha + 2.0) / 6.0
        field, modes, lam = (c.tolist() for c in disk.envelope(np.linspace(0.0, 300.0, 401)))
        rows = [(b, n, x, alpha * math.sqrt(b) - offset) for b, n, x in zip(field, modes, lam)]
        columns = ["b", "active_mode", "lambda_dn", "asymptote"]
        assert out.read_bytes().decode() == per_value_csv(columns, rows)

    def test_halfplane_bytes(self, tmp_path):
        # 200 lanes on each side of 0: the z > 0 route of both columns runs seven lane blocks
        _, out = run(tmp_path, "halfplane", "--b-min", "-2", "--b-max", "2", "--steps", "401")
        rows = [
            (xi, models.halfplane_multiplier(xi), specfun.cylinder_d(0.5, xi).value)
            for xi in np.linspace(-2.0, 2.0, 401).tolist()
        ]
        assert out.read_bytes().decode() == per_value_csv(["xi", "f1", "d_half"], rows)


# ----------------------------------------------------------- other commands


class TestConstantsCommand:
    def test_payload_and_exit(self, tmp_path):
        code, out = run(tmp_path, "constants", name="constants.json")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["schema_version"] == 1
        for key in ("alpha", "xi0", "theta0", "delta_alpha", "u0_sq_at_0", "alpha_upper_bound"):
            assert key in payload
        assert abs(payload["alpha"] - 0.7649508673) <= 1e-8
        assert abs(payload["theta0"] - 0.5901061249) <= 1e-6
        assert abs(payload["checks"]["phi_prime_alpha"]["residual"]) <= 1e-6
        assert all(entry["pass"] for entry in payload["checks"].values())

    def test_a_failed_check_exits_1_with_the_full_report(self, tmp_path, capsys, bound_below_alpha):
        code, out = run(tmp_path, "constants", name="constants.json")
        assert code == 1
        assert capsys.readouterr().err == ""
        payload = json.loads(out.read_text())
        assert payload["alpha_upper_bound"] == bound_below_alpha
        assert len(payload["checks"]) == 8
        failed = [name for name, entry in payload["checks"].items() if not entry["pass"]]
        assert failed == ["alpha_below_bound"]

    def test_checks_are_the_verify_constants_group(self, tmp_path):
        code, out = run(tmp_path, "constants", name="constants.json")
        assert code == 0
        checks = json.loads(out.read_text())["checks"]
        results = verify.run_suite(only="constants")
        assert list(checks) == [r.name.replace("-", "_") for r in results]
        for r in results:
            entry = checks[r.name.replace("-", "_")]
            assert (entry["residual"], entry["limit"], entry["pass"]) == (r.measured, r.limit, r.passed)


class TestHalfplaneCommand:
    def test_sweep_contains_cylinder_zero(self, tmp_path):
        code, out = run(
            tmp_path, "halfplane", "--b-min", "-2", "--b-max", "2", "--steps", "81"
        )
        assert code == 0
        rows = read_rows(out)
        d = [float(r["d_half"]) for r in rows]
        assert min(d) < 0.0 < max(d)  # the sweep straddles the zero at -alpha
        f1 = {float(r["xi"]): float(r["f1"]) for r in rows}
        assert f1[0.75] < f1[0.0] and f1[0.75] < f1[2.0]

    def test_one_batch_call_per_column_and_no_scalar_call(self, tmp_path, monkeypatch):
        calls = []
        batch = cli.cylinder_ds

        def counted(nu, z):
            calls.append((nu, z.size))
            return batch(nu, z)

        def refuse(*args):
            raise AssertionError("scalar cylinder_d called")

        expected = [models.halfplane_multiplier(xi) for xi in (-2.0, -1.0, 0.0, 1.0, 2.0)]
        monkeypatch.setattr(cli, "cylinder_ds", counted)
        monkeypatch.setattr(models, "cylinder_ds", counted)
        monkeypatch.setattr(models, "cylinder_d", refuse)
        monkeypatch.setattr(specfun, "cylinder_d", refuse)
        code, out = run(tmp_path, "halfplane", "--steps", "41")
        assert code == 0
        assert sorted(calls) == [(-0.5, 41), (0.5, 41)]
        rows = read_rows(out)
        assert len(rows) == 41
        assert [float(r["f1"]) for r in rows[::10]] == expected

    @pytest.mark.parametrize("bounds", [("-60", "0"), ("0", "50.5")])
    def test_grid_outside_the_cylinder_range_is_config_error(self, tmp_path, capsys, bounds):
        code, _ = run(tmp_path, "halfplane", "--b-min", bounds[0], "--b-max", bounds[1])
        assert code == 2
        b_min, b_max = (float(b) for b in bounds)
        assert f"got --b-min {b_min} --b-max {b_max}" in capsys.readouterr().err


class TestDegennesCommand:
    def test_sign_change(self, tmp_path):
        code, out = run(tmp_path, "degennes", "--steps", "16")
        assert code == 0
        values = [float(r["f"]) for r in read_rows(out)]
        assert values[0] > 0.0 > values[-1]

    def test_domain_guard(self, tmp_path):
        code, _ = run(tmp_path, "degennes", "--b-max", "7")
        assert code == 2


class TestAsymptoticsCommand:
    def test_fit_payload(self, tmp_path):
        from magsteklov import models

        code, out = run(
            tmp_path, "asymptotics", "--n-min", "100", "--n-max", "1000", name="fit.json"
        )
        assert code == 0
        payload = json.loads(out.read_text())
        alpha = models.compute_alpha()
        assert payload["coefficients"]["sqrt_n"] == pytest.approx(alpha, abs=1e-3)
        assert payload["coefficients"]["const"] == pytest.approx(
            (alpha * alpha + 2.0) / 3.0, abs=1e-2
        )

    def test_alpha_is_computed_once(self, tmp_path, monkeypatch):
        from magsteklov import intersect, models

        calls = []
        compute = models.compute_alpha

        def counted():
            calls.append(1)
            return compute()

        monkeypatch.setattr(models, "compute_alpha", counted)
        models._alpha_cached.cache_clear()
        intersect._find_zn_cached.cache_clear()
        code, _ = run(tmp_path, "asymptotics", "--n-min", "10", "--n-max", "40")
        assert code == 0
        assert len(calls) == 1

    def test_narrow_range_rejected(self, tmp_path):
        code, _ = run(tmp_path, "asymptotics", "--n-min", "100", "--n-max", "300")
        assert code == 2

    def test_too_few_modes_rejected_before_the_solve(self, tmp_path, capsys, monkeypatch):
        # 1..4 passes the ratio check but samples only 4 modes for 4 fit terms
        from magsteklov import intersect

        def refuse(modes):
            raise AssertionError("solved a range the fit cannot use")

        monkeypatch.setattr(intersect, "crossings", refuse)
        code, _ = run(tmp_path, "asymptotics", "--n-min", "1", "--n-max", "4")
        assert code == 2
        err = capsys.readouterr().err
        assert "--n-min" in err and "--n-max" in err

    def test_one_batch_solve_and_no_single_mode_solve(self, tmp_path, monkeypatch):
        from magsteklov import intersect

        calls = []
        crossings = intersect.crossings

        def counted(modes):
            calls.append(list(modes))
            return crossings(calls[-1])

        def refuse(n):
            raise AssertionError("asymptotics solved a single mode")

        monkeypatch.setattr(intersect, "crossings", counted)
        monkeypatch.setattr(intersect, "find_zn", refuse)
        monkeypatch.setattr(intersect, "_find_zn_cached", refuse)
        code, out = run(tmp_path, "asymptotics", "--n-min", "10", "--n-max", "40", name="fit.json")
        assert code == 0
        assert len(calls) == 1
        assert json.loads(out.read_text())["modes_used"] == calls[0][:-1]

    @pytest.mark.parametrize(
        "bounds", [(), ("--n-min", "100", "--n-max", "1000")], ids=["defaults", "100-1000"]
    )
    def test_gap_is_the_difference_of_the_top_two_records(self, tmp_path, bounds):
        # at the defaults (modes 1..5) n_max - 1 is a fitted mode; on 100..1000 it is not
        from magsteklov import intersect

        code, out = run(tmp_path, "asymptotics", *bounds, name="fit.json")
        assert code == 0
        payload = json.loads(out.read_text())
        n_max = payload["n_range"][1]
        assert (n_max - 1 in payload["modes_used"]) == (not bounds)
        expected = intersect.find_zn(n_max).z_n - intersect.find_zn(n_max - 1).z_n
        assert payload["gap_at_n_max"].hex() == expected.hex()
        code, out = run(tmp_path, "asymptotics", *bounds, "--format", "csv")
        assert code == 0
        rows = {row["quantity"]: row["value"] for row in read_rows(out)}
        assert float(rows["gap_at_n_max"]).hex() == expected.hex()


class TestVerifyCommand:
    def test_default_run_passes(self, capsys):
        assert cli.main(["verify"]) == 0
        captured = capsys.readouterr()
        assert "FAIL" not in captured.out
        summary = captured.out.strip().splitlines()[-1]
        total = int(summary.split("/")[1].split()[0])
        assert summary.startswith(f"{total}/{total}")

    def test_single_module_passes(self, capsys):
        assert cli.main(["verify", "--only", "numerics"]) == 0
        captured = capsys.readouterr()
        assert "PASS" in captured.out
        assert "FAIL" not in captured.out

    def test_unknown_module_is_config_error(self):
        assert cli.main(["verify", "--only", "nonsense"]) == 2

    def test_tightened_tolerance_reports_by_name(self, capsys, monkeypatch):
        # a check whose quadrature raises is a named failure, not an aborted suite
        def refuse(*args, **kwargs):
            raise QuadratureError("cannot reach the requested accuracy")

        monkeypatch.setattr(verify, "integrate_semi_infinite", refuse)
        failed = [r for r in verify.run_suite(only="numerics") if not r.passed]
        assert [r.name for r in failed] == ["quadrature-gamma-family"]
        assert math.isnan(failed[0].measured) and math.isnan(failed[0].limit)
        assert cli.main(["verify", "--only", "numerics"]) == 1
        captured = capsys.readouterr()
        assert "FAILED: quadrature-gamma-family" in captured.err
        assert "PASS" in captured.out


    def test_a_check_has_one_name_whether_it_passes_or_raises(self, monkeypatch):
        # each check builds its result, as on a pass, and then raises
        built = []

        def build_then_raise(*args, **kwargs):
            result = real(*args, **kwargs)
            built.append((result.module, result.name))
            raise ValueError("forced failure")

        real = verify._result
        monkeypatch.setattr(verify, "_result", build_then_raise)
        results = verify.run_suite(None)
        assert len(results) == len(built) == 41
        assert [(r.module, r.name) for r in results] == built
        assert all(not r.passed and "forced failure" in r.detail for r in results)

    def test_a_nan_branch_ratio_fails_every_check_that_reads_lambda_n(self, monkeypatch):
        # max keeps its current value when the next one is NaN; a check must not
        monkeypatch.setattr(disk, "kummer_log_ratio", lambda a, c, z: math.nan)
        monkeypatch.setattr(disk, "kummer_log_ratios", lambda a, c, z: np.full(z.shape, math.nan))
        results = {r.name: r for r in verify.run_suite("disk")}
        assert results.pop("lambda-prime-two-closed-forms").passed  # reads no lambda_n
        passed = [name for name, r in results.items() if r.passed or not math.isnan(r.measured)]
        assert passed == []

    def test_a_nan_cylinder_value_fails_its_checks(self, monkeypatch):
        real = verify.cylinder_d

        def nan_at_one_point(nu, z):
            d = real(nu, z)
            return dataclasses.replace(d, value=math.nan) if (nu, z) == (-0.5, 1.0) else d

        real_lanes = verify.cylinder_ds

        def nan_on_one_lane(nu, z):
            value, derivative = real_lanes(nu, z)
            return np.where((nu == -0.5) & (z == 1.0), math.nan, value), derivative

        monkeypatch.setattr(verify, "cylinder_d", nan_at_one_point)
        monkeypatch.setattr(verify, "cylinder_ds", nan_on_one_lane)
        results = {r.name: r for r in verify.run_suite("specfun")}
        three_term = results["cylinder-recurrence-three-term"]
        assert not three_term.passed and math.isnan(three_term.measured)
        positivity = results["cylinder-negative-order-positivity"]
        assert not positivity.passed and positivity.measured == 1.0

    def test_every_check_keeps_its_limit(self):
        # the suite's gates, in order: a limit is never loosened
        rows = [(r.module, r.name, r.limit) for r in verify.run_suite(None)]
        assert rows == SUITE_LIMITS


SUITE_LIMITS = [
    ("numerics", "quadrature-gamma-family", 5.0 * REL_TOL),
    ("numerics", "brent-bracket-invariance", 1e-12),
    ("specfun", "kummer-contiguous-c-shift", 1e-10),
    ("specfun", "kummer-contiguous-a-shift", 1e-10),
    ("specfun", "kummer-contiguous-derivative-a", 1e-10),
    ("specfun", "kummer-contiguous-derivative-ac", 1e-10),
    ("specfun", "kummer-derivative-vs-fd", 1e-6),
    ("specfun", "cylinder-recurrence-derivative-up", 1e-9),
    ("specfun", "cylinder-recurrence-three-term", 1e-9),
    ("specfun", "cylinder-recurrence-derivative-down", 1e-9),
    ("specfun", "cylinder-ode-residual", 1e-5),
    ("specfun", "cylinder-large-z-asymptotic", 0.02),
    ("specfun", "cylinder-negative-order-positivity", 0.0),
    ("disk", "branch-diamagnetic-inequality", 1e-12),
    ("disk", "branch-positivity", 1e-12),
    ("disk", "lambda-prime-vs-finite-difference", 1e-6),
    ("disk", "lambda-prime-two-closed-forms", 1e-10),
    ("disk", "envelope-strictly-increasing", -1e-15),
    ("disk", "envelope-mode-is-window-argmin", 1e-10),
    ("disk", "mode-switch-at-crossings", 0.0),
    ("intersect", "characterization-equivalence", 1e-9),
    ("intersect", "crossing-eigenvalue-formula", 1e-8),
    ("intersect", "crossing-ordering-and-lower-bound", 0.0),
    ("intersect", "stationarity-at-previous-crossing", 1e-6),
    ("intersect", "beta-second-order-trend", 5.0),
    ("intersect", "envelope-sandwich-bounds", 1e-9),
    ("intersect", "crossing-eigenvalue-asymptotic", 5.0),
    ("models", "halfplane-first-order-condition", 1e-8),
    ("models", "degennes-neumann-condition", 1e-7),
    ("models", "moment-ode-residual", 1e-5),
    ("models", "phi-denominator-positive", 0.0),
    ("models", "halfplane-sqrt-scaling", 1e-14),
    ("models", "phi-cylinder-vs-quadrature", 1e-9),
    ("constants", "alpha-matches-reference", 1e-15),
    ("constants", "theta0-matches-reference", 2e-15),
    ("constants", "cylinder-root-residual", 1e-10),
    ("constants", "halfplane-fixed-point", 1e-8),
    ("constants", "phi-prime-alpha", 1e-6),
    ("constants", "delta-alpha-two-routes", 1e-6),
    ("constants", "f-formula-max-residual", 1e-8),
    ("constants", "alpha-below-bound", 0.0),
]


class TestConfigValidation:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (
                ["curves", "--n-min", "5", "--n-max", "2"],
                "need 0 <= --n-min <= --n-max, got --n-min 5 --n-max 2",
            ),
            (
                ["intersections", "--n-min", "-1"],
                "need 0 <= --n-min <= --n-max, got --n-min -1 --n-max 5",
            ),
            (
                ["curves", "--b-min", "5", "--b-max", "2"],
                "curves needs -1e+06 <= --b-min <= --b-max <= 1e+06, the range of the field,"
                " got --b-min 5.0 --b-max 2.0",
            ),
            (["envelope", "--steps", "1"], "need --steps >= 2, got --steps 1"),
            (
                ["envelope", "--b-min", "-1"],
                "envelope needs 0 <= --b-min <= --b-max <= 1e+06, the range of the field,"
                " got --b-min -1.0 --b-max 10.0",
            ),
            (
                ["envelope", "--b-max", "2e6"],
                "envelope needs 0 <= --b-min <= --b-max <= 1e+06, the range of the field,"
                " got --b-min 0.0 --b-max 2000000.0",
            ),
            (
                ["curves", "--b-max", "2e6"],
                "curves needs -1e+06 <= --b-min <= --b-max <= 1e+06, the range of the field,"
                " got --b-min 0.0 --b-max 2000000.0",
            ),
            (
                ["degennes", "--b-max", "7"],
                "degennes needs 0 <= --b-min <= --b-max <= 1.5, the domain of degennes_f,"
                " got --b-min 0.0 --b-max 7.0",
            ),
            (
                ["verify", "--only", "nope"],
                "--only needs one of numerics, specfun, disk, intersect, models, constants,"
                " got --only nope",
            ),
        ],
        ids=[
            "n-range", "n-min", "b-range", "steps", "envelope-b-min", "envelope-b-max",
            "curves-b-max", "degennes-b-max", "verify-only",
        ],
    )
    def test_range_error_names_the_flag_and_its_value(self, argv, message, capsys, monkeypatch):
        # checked before any series is summed: a sweep that failed midway would call lambda_n
        def fail(*args):
            raise AssertionError("a sweep started before its range was checked")

        monkeypatch.setattr(disk, "lambda_n", fail)
        monkeypatch.setattr(disk, "envelope", fail)
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_steps_too_small(self, tmp_path):
        code, _ = run(tmp_path, "curves", "--steps", "1")
        assert code == 2

    def test_inverted_mode_range(self, tmp_path):
        code, _ = run(tmp_path, "curves", "--n-min", "5", "--n-max", "2")
        assert code == 2

    def test_inverted_field_range(self, tmp_path):
        code, _ = run(tmp_path, "curves", "--b-min", "5", "--b-max", "2")
        assert code == 2

    def test_unwritable_output(self):
        code = cli.main(["curves", "--n-max", "0", "--steps", "2", "--out", "/nonexistent/dir/x.csv"])
        assert code == 2


class TestFlags:
    EXPECTED = {
        "curves": {"--n-min", "--n-max", "--b-min", "--b-max", "--steps", "--out", "--format"},
        "envelope": {"--b-min", "--b-max", "--steps", "--out", "--format"},
        "intersections": {"--n-min", "--n-max", "--out", "--format"},
        "asymptotics": {"--n-min", "--n-max", "--out", "--format"},
        "constants": {"--out"},
        "halfplane": {"--b-min", "--b-max", "--steps", "--out", "--format"},
        "degennes": {"--b-min", "--b-max", "--steps", "--out", "--format"},
        "verify": {"--only"},
    }

    @pytest.mark.parametrize("command", sorted(EXPECTED))
    def test_help_lists_only_the_flags_read(self, command, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out)) - {"--help"}
        assert listed == self.EXPECTED[command]

    @pytest.mark.parametrize("argv", [["--help"], ["-h"]])
    def test_top_level_help_lists_every_command(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        commands = captured.out.split("commands:\n")[1].split("\n\n")[0].split()
        assert commands == list(self.EXPECTED) and captured.err == ""

    @pytest.mark.parametrize(
        "argv, same_as",
        [
            (["halfplane", "--b-min=-2", "--steps=5"], ["halfplane", "--b-min", "-2", "--steps", "5"]),
            (
                ["curves", "--n-max=1", "--b-max=3", "--steps=4", "--format=json"],
                ["curves", "--n-max", "1", "--b-max", "3", "--steps", "4", "--format", "json"],
            ),
            (["degennes", "--steps", "9", "--steps", "5", "--steps=3"], ["degennes", "--steps", "3"]),
        ],
        ids=["joined-negative", "joined", "repeated"],
    )
    def test_spellings_of_one_setting_write_the_same_bytes(self, tmp_path, argv, same_as):
        codes, data, parameters = [], [], []
        for name, spelling in (("a", argv), ("b", same_as)):
            code, out = run(tmp_path, *spelling, name=name)
            codes.append(code)
            data.append(out.read_bytes())
            meta = json.loads((tmp_path / f"{name}.meta.json").read_text())
            parameters.append({**meta["parameters"], "out": None})
        assert codes == [0, 0]
        assert data[0] == data[1]
        assert parameters[0] == parameters[1]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["curves", "--steps"], "magsteklov curves: error: argument --steps: expected one argument"),
            (["curves", "--n-max="], "magsteklov curves: error: argument --n-max: invalid int value: ''"),
            (
                ["envelope", "--format", "xml"],
                "magsteklov envelope: error: argument --format: invalid choice: 'xml'"
                " (choose from 'csv', 'json')",
            ),
            ([], "magsteklov: error: the following arguments are required: command"),
            (["plot"], "magsteklov: error: argument command: invalid choice: 'plot'"),
        ],
        ids=["no-value", "empty-value", "format", "no-command", "unknown-command"],
    )
    def test_usage_error_names_the_flag_or_command(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        usage, error = captured.err.splitlines()
        assert captured.out == "" and usage.startswith("usage: magsteklov ")
        assert error.startswith(message)

    @pytest.mark.parametrize(
        "argv",
        [
            ["curves", "--only", "disk"],
            ["envelope", "--n-max", "3"],
            ["intersections", "--steps", "5"],
            ["asymptotics", "--rel-tol", "1e-9"],
            ["constants", "--format", "csv"],
            ["halfplane", "--n-min", "1"],
            ["degennes", "--rel-tol", "1e-9"],
            ["verify", "--out", "x"],
            ["intersections", "--rel-tol", "1e-9"],
            ["constants", "--rel-tol", "1e-9"],
            ["verify", "--rel-tol", "1e-9"],
            ["curves", "--st", "2"],  # an abbreviation is no flag
            ["curves", "--n_max", "2"],
            ["curves", "2"],
        ],
        ids=lambda argv: "-".join(argv[:2]),
    )
    def test_unused_flag_is_usage_error(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["envelope", "--b-max", "nan"],
            ["envelope", "--b-max", "inf"],
            ["halfplane", "--b-min", "nan"],
            ["curves", "--b-min=-inf"],
            ["halfplane", "--b-min", "-inf"],
        ],
        ids=lambda argv: "-".join(argv),
    )
    def test_non_finite_value_is_usage_error_naming_the_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        flag = argv[1].partition("=")[0]
        assert f"argument {flag}: must be finite" in capsys.readouterr().err


class TestCollector:
    """main leaves the collector as it found it."""

    @staticmethod
    def state():
        return gc.isenabled(), gc.get_freeze_count()

    @staticmethod
    def exit_codes(tmp_path, monkeypatch):
        """main on a normal return, a usage error and a numerical failure."""
        codes = [cli.main(["curves", "--n-max", "0", "--steps", "2", "--out", str(tmp_path / "a")])]
        with pytest.raises(SystemExit) as exc, contextlib.redirect_stderr(io.StringIO()):
            cli.main(["curves", "--only", "disk"])
        codes.append(exc.value.code)

        def refuse():
            raise QuadratureError("cannot reach the requested accuracy")

        with monkeypatch.context() as patch, contextlib.redirect_stderr(io.StringIO()):
            patch.setattr(models, "constants", refuse)
            codes.append(cli.main(["constants"]))
        return codes

    @pytest.mark.parametrize("enabled", [True, False])
    def test_every_exit_leaves_the_collector_as_found(self, enabled, tmp_path, monkeypatch):
        was_enabled = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            before = self.state()
            states = []
            for _ in range(3):  # repeated calls do not grow the frozen count
                assert self.exit_codes(tmp_path, monkeypatch) == [0, 2, 2]
                states.append(self.state())
        finally:
            (gc.enable if was_enabled else gc.disable)()
        assert before == (enabled, 0)
        assert states == [before] * 3


@pytest.mark.parametrize("command", sorted(cli._SUBCOMMANDS))
def test_every_command_runs_at_its_defaults(command, tmp_path, capsys):
    _, flags = cli._SUBCOMMANDS[command]
    argv = [command, "--out", str(tmp_path / "out")] if "out" in flags else [command]
    assert cli.main(argv) == 0, capsys.readouterr().err


@pytest.mark.parametrize(
    "command, module, name",
    [("envelope", disk, "envelope"), ("halfplane", models, "halfplane_multiplier")],
    ids=["envelope", "halfplane"],
)
def test_grid_command_calls_its_public_function_once(command, module, name, tmp_path, monkeypatch):
    # a wrapper on the module attribute, as bench/tracer.py installs, sees the grid in one call
    grids = []
    function = getattr(module, name)

    def counted(grid):
        grids.append(np.asarray(grid).tolist())
        return function(grid)

    monkeypatch.setattr(module, name, counted)
    code, _ = run(tmp_path, command, "--steps", "41")
    assert code == 0
    _, flags = cli._SUBCOMMANDS[command]
    assert grids == [np.linspace(flags["b_min"], flags["b_max"], 41).tolist()]


def test_asymptotics_defaults_fit_five_modes(tmp_path):
    code, out = run(tmp_path, "asymptotics", name="fit.json")
    assert code == 0
    assert json.loads(out.read_text())["modes_used"] == [1, 2, 3, 4, 5]


class TestStdout:
    def test_dash_writes_to_stdout(self, capsys):
        assert cli.main(["curves", "--n-max", "0", "--b-max", "1", "--steps", "2"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("n,b,branch,lambda\n")


def run_python(*argv):
    """Run the interpreter on argv with this checkout's src on the path."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=60
    )


def test_python_dash_m_entry_point():
    proc = run_python("-m", "magsteklov", "curves", "--n-max", "0", "--b-max", "1", "--steps", "2")
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,b,branch,lambda\n")
    assert proc.stderr == ""


def test_python_dash_m_cli_module_warns_nothing():
    # the package must not import cli before runpy executes it as __main__
    proc = run_python("-W", "error", "-m", "magsteklov.cli", "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""


def test_numerical_failure_exits_2_without_traceback(capsys, monkeypatch):
    # a quadrature that fails is a numerical failure, not a failed check (exit 1)
    def refuse():
        raise QuadratureError("cannot reach the requested accuracy")

    monkeypatch.setattr(models, "constants", refuse)
    assert cli.main(["constants"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot reach the requested accuracy\n"
