"""Self-checks of the benchmark itself.

    python3 -m pytest bench -q

Runs every workload once untraced and twice traced (about a minute).
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import metrics
import oracle
import run
import workloads

SEED = 7
ENDPOINTS = {"b_min", "b_max", "n_min", "n_max"}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def runs(request):
    argv, _, _ = workloads.WORKLOADS[request.param].inputs(SEED)
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        plain = run.run_child(argv, Path(tmp))
        traced = [run.run_child(argv, Path(tmp), trace=True, seed=SEED) for _ in range(2)]
    return plain, traced


def test_traced_data_file_is_byte_identical(runs):
    plain, traced = runs
    assert plain["exit_code"] == 0 and plain["data"]
    for result in traced:
        assert result["exit_code"] == 0
        assert result["data"] == plain["data"]


def test_counts_repeat_exactly(runs):
    _, (first, second) = runs
    a = metrics.layer_metrics(first["trace"]["stats"])
    b = metrics.layer_metrics(second["trace"]["stats"])
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "evals/call")]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["specfun.kummer_m.calls"] > 0


def test_traced_run_yields_every_per_layer_metric(runs):
    _, (first, _) = runs
    produced = set(metrics.layer_metrics(first["trace"]["stats"]))
    produced |= set(metrics.sample_errors(first["trace"]["samples"]))
    produced |= {"setup.import.magsteklov_s", "setup.import.scipy_s", "trace.overhead_frac", "output.max_rel_err"}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert produced == {m["name"] for m in spec["per_layer"]}


def test_benchmark_json_matches_the_code():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in spec["per_layer"]] == list(metrics.EXPECTED_EFFECT)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seeds_change_only_endpoints_and_sampled_rows(name):
    workload = workloads.WORKLOADS[name]
    argv1, params1, rng1 = workload.inputs(1)
    argv2, params2, rng2 = workload.inputs(2)
    again, _, rng_again = workload.inputs(1)
    assert again == argv1
    assert argv1[:2] == argv2[:2] and argv1[1::2] == argv2[1::2]  # same command and flags
    changed = {key for key in params1 if params1[key] != params2[key]}
    assert changed and changed <= ENDPOINTS
    assert all(abs(params1[key] - params2[key]) <= 50 for key in changed)
    count = workload.expected_rows(params1)
    assert count == workload.expected_rows(params2)
    rows1 = workloads.sampled_rows(rng1, count)
    assert rows1 == workloads.sampled_rows(rng_again, count)
    assert rows1 != workloads.sampled_rows(rng2, count)


def test_check_runs_flags_each_kind_of_failure():
    workload = workloads.WORKLOADS["cylinder_graph"]
    _, params, rng = workload.inputs(SEED)
    params = dict(params, steps=2)
    rows = [(xi, float(oracle.halfplane_multiplier(xi)), float(oracle.cylinder_d(0.5, xi)[0])) for xi in (-1.0, 1.0)]

    def csv(rows):
        return ("xi,f1,d_half\n" + "".join(f"{x!r},{f!r},{d!r}\n" for x, f, d in rows)).encode()

    good = {"exit_code": 0, "data": csv(rows)}
    other = {"exit_code": 0, "data": csv(rows[::-1])}
    crashed = {"exit_code": 1, "data": None, "stderr": "Traceback"}
    failures, errors = run.check_runs(workload, params, rng, [good, other, crashed])
    assert failures == ["data differs from the first run", "exit code 1: Traceback"]
    assert max(errors.values()) <= workloads.ACCURACY_BUDGET

    off = {"exit_code": 0, "data": csv([(x, f * (1 + 1e-9), d) for x, f, d in rows])}
    failures, _ = run.check_runs(workload, params, rng, [off, off])
    assert len(failures) == 2 and failures[0].startswith("outside the accuracy budget")

    short = {"exit_code": 0, "data": csv(rows[:1])}
    failures, _ = run.check_runs(workload, params, rng, [short])
    assert failures[0].startswith("output check failed")


def test_oracle_reproduces_known_values():
    assert abs(oracle.alpha() - oracle.mpf("0.7649508673")) < 1e-10
    assert abs(oracle.cylinder_d(0.5, float(-oracle.alpha()))[0]) < 1e-15
    assert oracle.lambda_n(4, 0.0) == 4
    z = oracle.z_n(3, 5.0)
    assert abs(oracle.lambda_n(3, z) - (z - 4)) < 1e-30  # lambda_n(z_n) = z_n - n - 1
    assert oracle.is_active_mode(3, float(z) - 1e-9) and oracle.is_active_mode(4, float(z) + 1e-9)
    assert not oracle.is_active_mode(3, float(z) + 1e-9)


def test_import_breakdown_parses_nested_scipy():
    entries = [  # (depth, cumulative us, module) in -X importtime order: children first
        (3, 100, "numpy"),
        (4, 300, "scipy._lib"),
        (3, 350, "scipy"),
        (2, 700, "scipy.integrate"),
        (1, 1100, "magsteklov.numerics"),
        (0, 1200, "magsteklov"),
    ]
    stderr = "import time: self [us] | cumulative | imported package\n" + "\n".join(
        f"import time: {1:>9} | {cum:>10} | {'  ' * depth}{name}" for depth, cum, name in entries
    )
    assert metrics.import_breakdown(stderr) == {
        "setup.import.magsteklov_s": 1200e-6,
        "setup.import.scipy_s": 700e-6,
    }


def test_run_fails_without_the_package_sources():
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        bare = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "envelope_sweep", "--seed", "1", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
