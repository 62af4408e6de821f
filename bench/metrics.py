"""Per-layer metrics: how each is read from a traced run, and what it should move.

Names and units of every metric live in BENCHMARK.json; this module holds
what BENCHMARK.json has no room for.  ``EXPECTED_EFFECT`` says, before any
optimisation is measured, which end-to-end metric a per-layer metric should
move and on which workload; later changes cite these names.
"""

import oracle

# (function span, fields of its Stat that become "<span>.<field>" metrics)
_STAT_FIELDS = (
    ("specfun.kummer_m", ("calls", "terms", "self_s")),
    ("specfun.kummer_log_ratio", ("calls", "total_s")),
    ("disk.lambda_n", ("calls", "total_s")),
    ("disk.envelope", ("total_s",)),
    ("disk.active_mode", ("calls", "total_s")),
    ("intersect.find_zn", ("calls", "total_s", "self_s")),
    ("numerics.brent_root", ("calls", "f_evals", "self_s")),
    ("models.compute_alpha", ("calls", "total_s")),
    ("numerics.integrate_semi_infinite", ("calls", "f_evals", "self_s")),
    ("specfun.cylinder_d", ("calls", "total_s")),
    ("models.halfplane_multiplier", ("calls", "total_s")),
    ("cli.main", ("total_s",)),
)
CYLINDER_ROUTES = ("integral", "lift", "even_odd")

EXPECTED_EFFECT = {
    name: (moves, on)
    for names, moves, on in (
        (
            ("specfun.kummer_m.calls", "specfun.kummer_m.terms", "specfun.kummer_m.self_s", "specfun.kummer_m.ns_per_term"),
            "run_s, wall_s",
            "large_field_curves, envelope_sweep",
        ),
        (("specfun.kummer_log_ratio.calls", "specfun.kummer_log_ratio.total_s"), "run_s", "large_field_curves"),
        (
            ("disk.lambda_n.calls", "disk.lambda_n.total_s", "disk.envelope.total_s"),
            "run_s",
            "envelope_sweep, large_field_curves",
        ),
        (
            ("disk.active_mode.calls", "disk.active_mode.total_s", "disk.active_mode.sign_evals_per_call"),
            "run_s",
            "envelope_sweep",
        ),
        (
            (
                "intersect.find_zn.calls",
                "intersect.find_zn.total_s",
                "intersect.find_zn.self_s",
                "numerics.brent_root.calls",
                "numerics.brent_root.f_evals",
                "numerics.brent_root.self_s",
                "models.compute_alpha.calls",
                "models.compute_alpha.total_s",
            ),
            "run_s",
            "crossing_points",
        ),
        (
            (
                "numerics.integrate_semi_infinite.calls",
                "numerics.integrate_semi_infinite.f_evals",
                "numerics.integrate_semi_infinite.self_s",
            ),
            "run_s",
            "cylinder_graph, crossing_points",
        ),
        (
            (
                "specfun.cylinder_d.calls",
                "specfun.cylinder_d.total_s",
                "specfun.cylinder_d.route.integral.calls",
                "specfun.cylinder_d.route.lift.calls",
                "specfun.cylinder_d.route.even_odd.calls",
                "models.halfplane_multiplier.calls",
                "models.halfplane_multiplier.total_s",
            ),
            "run_s",
            "cylinder_graph",
        ),
        (
            ("setup.import.magsteklov_s", "setup.import.scipy_s"),
            "setup_s (wall_s stays while scipy is still imported on first use)",
            "all four",
        ),
        (
            (
                "output.max_rel_err",
                "specfun.kummer_m.max_rel_err",
                "disk.lambda_n.max_rel_err",
                "intersect.find_zn.max_rel_err",
                "specfun.cylinder_d.max_rel_err",
            ),
            "none; accuracy is gated by the fixed budget, not by a bound",
            "each workload that calls the function",
        ),
        (("cli.main.total_s", "trace.overhead_frac"), "none; these check the tracing", "all four"),
    )
    for name in names
}


def layer_metrics(stats: dict) -> dict[str, float]:
    """Per-layer metrics of one traced run; a function never called reads 0."""
    out = {}
    for span, fields in _STAT_FIELDS:
        stat = stats.get(span, {})
        for field in fields:
            out[f"{span}.{field}"] = stat.get(field, 0)
    kummer = stats.get("specfun.kummer_m", {})
    terms = kummer.get("terms", 0)
    out["specfun.kummer_m.ns_per_term"] = 1e9 * kummer["self_s"] / terms if terms else 0.0
    active = stats.get("disk.active_mode", {})
    calls = active.get("calls", 0)
    out["disk.active_mode.sign_evals_per_call"] = active["sign_evals"] / calls if calls else 0.0
    routes = stats.get("specfun.cylinder_d", {}).get("routes", {})
    for route in CYLINDER_ROUTES:
        out[f"specfun.cylinder_d.route.{route}.calls"] = routes.get(route, 0)
    return out


def _sample_error(name: str, args: list, result) -> float:
    if name == "specfun.kummer_m":
        mantissa, exponent = result
        return oracle.rel_err(oracle.mpf(mantissa) * oracle.mpf(2) ** exponent, oracle.kummer_m(*args))
    if name == "disk.lambda_n":
        return oracle.rel_err(result, oracle.lambda_n(*args))
    if name == "intersect.find_zn":
        return oracle.rel_err(result, oracle.z_n(args[0], result))
    value, derivative = oracle.cylinder_d(*args)
    return max(oracle.rel_err(result[0], value), oracle.rel_err(result[1], derivative))


def sample_errors(samples: dict[str, list]) -> dict[str, float]:
    """'<function>.max_rel_err' over the traced run's sampled calls; 0 when never called."""
    return {
        f"{name}.max_rel_err": max((_sample_error(name, args, result) for args, result in calls), default=0.0)
        for name, calls in samples.items()
    }


def import_breakdown(importtime_stderr: str) -> dict[str, float]:
    """setup.import.* from `python -X importtime` output, in seconds.

    scipy_s sums the cumulative time of every scipy module not imported by
    another scipy module, wherever it sits under magsteklov.
    """
    nodes = []  # (name, cumulative_us, parent index)
    waiting = []  # (depth, index) of entries whose importer has not appeared yet
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, label = line[len("import time:"):].split("|")
        name = label.lstrip()
        depth = (len(label) - len(name) - 1) // 2
        index = len(nodes)
        nodes.append([name, int(cumulative), None])
        while waiting and waiting[-1][0] > depth:
            nodes[waiting.pop()[1]][2] = index
        waiting.append((depth, index))

    def inside_scipy(index):
        parent = nodes[index][2]
        while parent is not None:
            if nodes[parent][0].split(".")[0] == "scipy":
                return True
            parent = nodes[parent][2]
        return False

    scipy_us = sum(
        cum for i, (name, cum, _) in enumerate(nodes) if name.split(".")[0] == "scipy" and not inside_scipy(i)
    )
    package_us = {name: cum for name, cum, _ in nodes}["magsteklov"]
    return {"setup.import.magsteklov_s": package_us * 1e-6, "setup.import.scipy_s": scipy_us * 1e-6}
