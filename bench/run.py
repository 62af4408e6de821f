"""magsteklov benchmark: CLI workloads timed end to end and checked against mpmath.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Each run of a workload launches ``magsteklov <command>`` (through child.py)
in a fresh interpreter, one at a time, for about ``--seconds`` seconds, and
reports medians over those runs.  Times are scaled to a reference CPU
speed (see ``calibration_s``).  Every run's data file must parse, have
the expected row count and be byte-identical to the others; a seeded sample
of its rows is checked against the 40-digit mpmath oracle after the timed
loop.  With ``--trace 0`` the end-to-end metrics are reported; with
``--trace 1`` untraced and traced runs alternate and the per-layer metrics
of BENCHMARK.json are reported.  The last line of standard output is one
JSON object; a readable table with sample counts comes before it, and the
full result with provenance is written under .bench_build/results/.
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from importlib.metadata import version
from pathlib import Path

import metrics
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_build"
MIN_RUNS = 3
CHILD_TIMEOUT_S = 60
# On a shared host each CPU can run up to ~45% slower for seconds to minutes
# at a time (seen on 2 vCPUs of a KVM Xeon, CPU model 207), slowing all code
# alike.  So the times of each child run are multiplied by
# CALIBRATION_REF_S / calibration_s(), taken as the median of loops run just
# before and after the child: this cancels the slow drift between runs,
# though not changes of speed within one run.  A change to magsteklov moves
# the child's time and not the loop's, so it shows in full; raw seconds go
# to the results file.  CALIBRATION_REF_S is about the loop's median time on
# that host, so scaled times read close to seconds there.
CALIBRATION_REF_S = 0.035
CALIBRATION_LOOPS = 3
SCALED = ("wall_s", "setup_s", "run_s")


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop of float arithmetic and math.exp calls."""
    start = time.perf_counter()
    total, term = 0.0, 1.0
    for k in range(300_000):
        total = 0.5 * total + 1.0000001 * k
    for k in range(60_000):
        term = term * 30.0 / (k % 50 + 1.5)
        total += math.exp(-term) if term < 700.0 else 0.0
        if term > 1e10:
            term = 1.0
    return time.perf_counter() - start


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("MAGSTEKLOV_DEBUG_ENVELOPE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def run_child(argv: list[str], workdir: Path, trace: bool = False, seed: int = 0) -> dict:
    """One fresh interpreter: its own timings, plus wall_s and the data file's bytes."""
    result_path = workdir / "result.json"
    data_path = workdir / "data.csv"
    for stale in (result_path, data_path):
        stale.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(result_path), str(int(trace)), str(seed)]
    if argv:
        cmd += argv + ["--out", str(data_path)]
    calibration = [calibration_s() for _ in range(CALIBRATION_LOOPS)]
    start = time.perf_counter()
    proc = subprocess.run(
        cmd, env=child_env(), cwd=workdir, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT_S,
    )
    wall = time.perf_counter() - start
    calibration += [calibration_s() for _ in range(CALIBRATION_LOOPS)]
    result = json.loads(result_path.read_text()) if result_path.exists() else {"stderr": proc.stderr[-2000:]}
    result["wall_s"] = wall
    result["calibration_s"] = statistics.median(calibration)
    result["exit_code"] = proc.returncode
    result["data"] = data_path.read_bytes() if data_path.exists() else None
    return result


def import_breakdown(workdir: Path) -> dict[str, float]:
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import magsteklov"],
        env=child_env(), cwd=workdir, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )
    return metrics.import_breakdown(proc.stderr)


def summarize(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    out = {"median": statistics.median(values), "n": len(values)}
    if len(values) > 10:
        p = math.floor(100 * (1 - 10 / len(values)))
        out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
    return out


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def provenance() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "git_commit": git_commit(),
    }


def check_runs(workload, params: dict, rng, runs: list[dict]) -> tuple[list[str], dict[str, float]]:
    """Why each failed run failed, and the worst oracle error per column of the shared output.

    A run fails on a non-zero exit code, on output that differs from the
    first successful run's, and, since all runs share that output, on output
    that does not parse or misses the accuracy budget.
    """
    reference = next((r["data"] for r in runs if r["exit_code"] == 0 and r["data"] is not None), None)
    if reference is None:
        return ["no run produced a data file"] * len(runs), {}
    column_errors: dict[str, float] = {}
    try:
        rows = workload.parse(reference.decode("utf-8"), params)
        column_errors = workloads.check_against_oracle(workload, rows, rng)
        bad = {c: e for c, e in column_errors.items() if not e <= workloads.ACCURACY_BUDGET}
        shared = f"outside the accuracy budget: {bad}" if bad else None
    except ValueError as exc:
        shared = f"output check failed: {exc}"
    failures = []
    for r in runs:
        if r["exit_code"] != 0:
            failures.append(f"exit code {r['exit_code']}: {r.get('stderr', '')}")
        elif r["data"] != reference:
            failures.append("data differs from the first run")
        elif shared:
            failures.append(shared)
    return failures, column_errors


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, list | None]:
    """Run one workload for about ``seconds`` and check its outputs.

    Returns the full result and, when traced, the spans of the first traced run.
    """
    workload = workloads.WORKLOADS[name]
    argv, params, rng = workload.inputs(seed)
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        workdir = Path(tmp)
        run_child([], workdir)  # warm-up: writes the package's bytecode cache
        plain, traced = [], []
        start = time.perf_counter()
        while True:
            plain.append(run_child(argv, workdir))
            if trace:
                traced.append(run_child(argv, workdir, trace=True, seed=seed))
            elapsed = time.perf_counter() - start
            enough = len(plain) >= (1 if trace else MIN_RUNS)
            if enough and elapsed * (len(plain) + 1) / len(plain) > seconds:
                break
        breakdown = import_breakdown(workdir) if trace else {}

    runs = plain + traced
    failures, column_errors = check_runs(workload, params, rng, runs)
    max_rel_err = max(column_errors.values(), default=math.inf)
    plain = [r for r in plain if r["exit_code"] == 0]
    traced = [r for r in traced if r["exit_code"] == 0]
    if not plain or (trace and not traced):
        raise RuntimeError(f"{name}: every run failed: {sorted(set(failures))}")
    if trace:
        layers = [metrics.layer_metrics(r["trace"]["stats"]) for r in traced]
        # median_low keeps counts exact integers: it picks one traced run's value
        values = {key: statistics.median_low(layer[key] for layer in layers) for key in layers[0]}
        values["trace.overhead_frac"] = (
            statistics.median(r["run_s"] for r in traced) / statistics.median(r["run_s"] for r in plain) - 1.0
        )
        values.update(breakdown)
        values["output.max_rel_err"] = max_rel_err
        values.update(metrics.sample_errors(traced[0]["trace"]["samples"]))
        summaries = {}
    else:
        summaries = {key: summarize([r[key] * CALIBRATION_REF_S / r["calibration_s"] for r in plain]) for key in SCALED}
        for key in SCALED:
            summaries[key]["raw_median"] = statistics.median(r[key] for r in plain)
        summaries["peak_rss_mb"] = summarize([r["peak_rss_mb"] for r in plain])
        values = {key: s["median"] for key, s in summaries.items()}

    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "argv": argv,
        "attempted": len(runs),
        "failed": len(failures),
        "failures": sorted(set(failures)),
        "fail_frac": len(failures) / len(runs),
        "max_rel_err": max_rel_err,
        "column_max_rel_err": column_errors,
        "values": values,
        "summaries": summaries,
        "runs": [{k: v for k, v in r.items() if k not in ("data", "trace", "spans")} for r in runs],
    }, (traced[0]["spans"] if trace else None)


def print_result(result: dict, units: dict[str, str]) -> None:
    print(f"{result['workload']}: {' '.join(result['argv'])}")
    print(f"  fail_frac {result['fail_frac']:g} ({result['failed']} of {result['attempted']} runs failed)")
    print(
        f"  max_rel_err {result['max_rel_err']:.3g} rel (budget {workloads.ACCURACY_BUDGET:g}):"
        f" {result['column_max_rel_err']}"
    )
    for failure in result["failures"]:
        print(f"  FAILED: {failure}")
    for metric, unit in units.items():
        detail = "  ".join(f"{k}={v:.6g}" for k, v in result["summaries"].get(metric, {}).items() if k != "median")
        print(f"  {metric:<44} {result['values'][metric]:>14.6g} {unit:<10} {detail}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "magsteklov" / "__init__.py").is_file():
        print(f"error: no magsteklov sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    whys = {w["name"]: w["why"] for w in spec["workloads"]}

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    context = provenance()
    for name in names:
        result, spans = measure(name, args.seed, seconds, bool(args.trace))
        result.update(why=whys[name], provenance=context, units=units)
        if args.trace:
            result["expected_effect"] = {k: metrics.EXPECTED_EFFECT[k] for k in units}
        results_dir = WORK / "results"
        results_dir.mkdir(parents=True, exist_ok=True)
        stem = results_dir / f"{name}-seed{args.seed}-trace{args.trace}"
        stem.with_suffix(".json").write_text(json.dumps(result, indent=1))
        if spans:
            stem.with_suffix(".spans.json").write_text(json.dumps(spans))

        print_result(result, units)
        prefix = f"{name}." if len(names) > 1 else ""
        for metric, unit in units.items():
            out["metrics"][prefix + metric] = {"value": result["values"][metric], "unit": unit}
        out["correct"] = out["correct"] and result["failed"] == 0
        out["attempted"] += result["attempted"]
        out["failed"] += result["failed"]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
