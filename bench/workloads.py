"""The four benchmark workloads: CLI arguments from a seed, and output checks.

A seed jitters the grid endpoints inside a narrow window, so the amount of
work barely moves, and picks which output rows are checked against the
mpmath oracle.  The program only ever sees the generated CLI arguments.
Why each workload exists is recorded in BENCHMARK.json.
"""

import csv
import io
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

import oracle

# Worst accepted error of a sampled output value against the oracle, as
# |x - ref| / max(|ref|, 1).  About 4500 ulp: loose enough for lambda_n at
# |b| ~ 1e4 (worst seen on these workloads ~4e-14), tight enough that a
# lost digit shows.
ACCURACY_BUDGET = 1e-12
ORACLE_ROWS = 50


def _branch(text: str) -> str:
    if text not in ("pos", "neg"):
        raise ValueError(f"bad branch {text!r}")
    return text


def _optional_float(text: str) -> float | None:
    return None if text == "" else float(text)


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    columns: tuple[tuple[str, Callable[[str], object]], ...]
    params: Callable[[random.Random], dict[str, float | int]]
    expected_rows: Callable[[dict], int]
    check_row: Callable[[dict], dict[str, float]]

    def inputs(self, seed: int) -> tuple[list[str], dict, random.Random]:
        """CLI arguments and parameters for this seed, and the stream that goes on to pick rows."""
        rng = random.Random(seed)
        params = self.params(rng)
        argv = [self.command]
        for flag, value in params.items():
            argv += [f"--{flag.replace('_', '-')}", str(value)]
        return argv, params, rng

    def parse(self, text: str, params: dict) -> list[dict]:
        """Rows of a CSV data file; raises ValueError on any malformed content."""
        lines = list(csv.reader(io.StringIO(text)))
        if not lines or tuple(lines[0]) != tuple(name for name, _ in self.columns):
            raise ValueError(f"bad header {lines[:1]}")
        rows = []
        for fields in lines[1:]:
            if len(fields) != len(self.columns):
                raise ValueError(f"bad row {fields}")
            rows.append({name: conv(f) for (name, conv), f in zip(self.columns, fields)})
        if len(rows) != self.expected_rows(params):
            raise ValueError(f"{len(rows)} rows, expected {self.expected_rows(params)}")
        return rows


def _endpoint(rng: random.Random, centre: float, half_width: float) -> float:
    return round(centre + rng.uniform(-half_width, half_width), 3)


def _envelope_params(rng):
    return {"b_min": _endpoint(rng, 0.25, 0.25), "b_max": _endpoint(rng, 10000.0, 25.0), "steps": 4001}


def _check_envelope(row):
    b, mode = row["b"], row["active_mode"]
    if not oracle.is_active_mode(mode, b):
        return {"active_mode": math.inf}
    return {
        "lambda_dn": oracle.rel_err(row["lambda_dn"], oracle.lambda_n(mode, b)),
        "asymptote": oracle.rel_err(row["asymptote"], oracle.envelope_asymptote(b)),
    }


def _curves_params(rng):
    return {
        "n_min": 0,
        "n_max": 5,
        "b_min": _endpoint(rng, 0.25, 0.25),
        "b_max": _endpoint(rng, 10000.0, 25.0),
        "steps": 101,
    }


def _check_curves(row):
    b = row["b"] if row["branch"] == "pos" else -row["b"]
    return {"lambda": oracle.rel_err(row["lambda"], oracle.lambda_n(row["n"], b))}


def _crossing_params(rng):
    n_min = rng.randrange(0, 6)
    return {"n_min": n_min, "n_max": n_min + 1000}


def _check_crossing(row):
    n, z = row["n"], row["z_n"]
    ref = oracle.z_n(n, z)
    errors = {
        "z_n": oracle.rel_err(z, ref),
        "lambda_at_zn": oracle.rel_err(row["lambda_at_zn"], ref - n - 1),
    }
    if n >= 1:
        errors["beta_n"] = oracle.rel_err(row["beta_n"], (ref - n - oracle.HALF) / oracle.sqrt(n))
    elif row["beta_n"] is not None:
        errors["beta_n"] = math.inf
    return errors


def _halfplane_params(rng):
    return {"b_min": _endpoint(rng, -2.0, 0.01), "b_max": _endpoint(rng, 2.0, 0.01), "steps": 2001}


def _check_halfplane(row):
    xi = row["xi"]
    return {
        "f1": oracle.rel_err(row["f1"], oracle.halfplane_multiplier(xi)),
        "d_half": oracle.rel_err(row["d_half"], oracle.cylinder_d(0.5, xi)[0]),
    }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "envelope_sweep",
            "envelope",
            (("b", float), ("active_mode", int), ("lambda_dn", float), ("asymptote", float)),
            _envelope_params,
            lambda p: p["steps"],
            _check_envelope,
        ),
        Workload(
            "large_field_curves",
            "curves",
            (("n", int), ("b", float), ("branch", _branch), ("lambda", float)),
            _curves_params,
            lambda p: 2 * (p["n_max"] - p["n_min"] + 1) * p["steps"],
            _check_curves,
        ),
        Workload(
            "crossing_points",
            "intersections",
            (
                ("n", int),
                ("z_n", float),
                ("lambda_at_zn", float),
                ("beta_n", _optional_float),
                ("residual_M", float),
                ("residual_F", float),
            ),
            _crossing_params,
            lambda p: p["n_max"] - p["n_min"] + 1,
            _check_crossing,
        ),
        Workload(
            "cylinder_graph",
            "halfplane",
            (("xi", float), ("f1", float), ("d_half", float)),
            _halfplane_params,
            lambda p: p["steps"],
            _check_halfplane,
        ),
    )
}


def sampled_rows(rng: random.Random, count: int) -> list[int]:
    return sorted(rng.sample(range(count), min(ORACLE_ROWS, count)))


def check_against_oracle(workload: Workload, rows: list[dict], rng: random.Random) -> dict[str, float]:
    """Worst error per column over the seeded sample of rows."""
    worst: dict[str, float] = {}
    for index in sampled_rows(rng, len(rows)):
        for column, err in workload.check_row(rows[index]).items():
            worst[column] = max(worst.get(column, 0.0), err)
    return worst
