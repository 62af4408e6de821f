"""Command-line front end.

Emits plot-ready CSV/JSON sweeps (branch curves, ground-state envelope,
crossing points, model-function graphs), resolves the model constants with
their consistency checks, and runs the full invariant suite.

Exit codes: 0 success, 1 verification failure, 2 configuration error or a
numerical failure (quadrature, series or root bracket).
Data files are deterministic byte-for-byte for a fixed configuration; a
``<out>.meta.json`` sidecar carries provenance (command, parameters,
version) so the data itself stays timestamp-free.
"""

import argparse
import datetime
import gc
import itertools
import json
import math
import sys

import numpy as np

from . import __version__, disk, intersect, models
from .numerics import (
    REL_TOL,
    BracketError,
    ConvergenceError,
    DomainError,
    QuadratureError,
)
from .specfun import _MAX_ABS_Z, _MAX_CYLINDER_Z, cylinder_ds

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    pass


def _finite_float(text: str) -> float:
    """argparse type for a float flag: NaN and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _template(kinds: tuple[type, ...]) -> str:
    """The printf template of a CSV row with values of these types.

    A float takes 17 significant digits, None an empty field, anything
    else its str().
    """
    return ",".join(
        "%.17g" if issubclass(kind, float) else "%.0s" if kind is type(None) else "%s"
        for kind in kinds
    )


def _csv(columns: list[str], rows: list[tuple]) -> str:
    """CSV text of the table: a float takes 17 significant digits, None an empty field.

    Each run of consecutive rows whose values share their types is one % on
    its row template repeated.  When every row has the table's width, only
    the mixed columns (those holding more than one type) can tell two rows'
    types apart, so the rows are keyed by those columns' types alone, read
    column by column, and a table with no mixed column is one run.
    """
    if set(map(len, rows)) == {len(columns)}:
        mixed = [column for column in zip(*rows) if len(set(map(type, column))) > 1]
        keys = zip(*(map(type, column) for column in mixed)) if mixed else [()] * len(rows)
    else:  # ragged: each row keyed by all its types
        keys = (tuple(map(type, row)) for row in rows)
    parts = [",".join(columns) + "\n"]
    start = 0
    for _, run in itertools.groupby(keys):
        stop = start + len(list(run))
        template = (_template(tuple(map(type, rows[start]))) + "\n") * (stop - start)
        parts.append(template % tuple(itertools.chain.from_iterable(rows[start:stop])))
        start = stop
    return "".join(parts)


def _emit(args: argparse.Namespace, columns: list[str], rows: list[tuple]) -> None:
    if args.format == "csv":
        text = _csv(columns, rows)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "columns": columns,
            "rows": [[v for v in row] for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    _write_output(args, text)


def _write_output(args: argparse.Namespace, text: str) -> None:
    if args.out in ("-", ""):
        sys.stdout.write(text)
        return
    with open(args.out, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "command": args.command,
        "parameters": {
            key: value for key, value in vars(args).items() if key != "command" and value is not None
        },
        "package_version": __version__,
        "written_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    with open(args.out + ".meta.json", "w", encoding="utf-8") as handle:
        json.dump(sidecar, handle, indent=2)
        handle.write("\n")


def _b_grid(args: argparse.Namespace, lo: float, hi: float, domain: str) -> np.ndarray:
    """The --steps points from --b-min to --b-max; a ConfigError unless they lie in [lo, hi]."""
    if args.steps < 2:
        raise ConfigError(f"need --steps >= 2, got --steps {args.steps}")
    if not lo <= args.b_min <= args.b_max <= hi:
        raise ConfigError(
            f"{args.command} needs {lo:g} <= --b-min <= --b-max <= {hi:g}, {domain},"
            f" got --b-min {args.b_min} --b-max {args.b_max}"
        )
    return np.linspace(args.b_min, args.b_max, args.steps)


def cmd_curves(args: argparse.Namespace) -> int:
    grid = _b_grid(args, -_MAX_ABS_Z, _MAX_ABS_Z, "the range of the field").tolist()
    rows = []
    for branch in ("pos", "neg"):
        sign = 1.0 if branch == "pos" else -1.0
        for n in range(args.n_min, args.n_max + 1):
            for b in grid:
                rows.append((n, b, branch, disk.lambda_n(n, sign * b)))
    _emit(args, ["n", "b", "branch", "lambda"], rows)
    return 0


def cmd_envelope(args: argparse.Namespace) -> int:
    grid = _b_grid(args, 0.0, _MAX_ABS_Z, "the range of the field")
    alpha = models._alpha_cached()
    field, modes, lam = disk._ground_states(grid)
    # np.sqrt rounds correctly, so each asymptote is alpha * math.sqrt(b) - offset
    asymptote = alpha * np.sqrt(field) - (alpha * alpha + 2.0) / 6.0
    rows = list(zip(field.tolist(), modes.tolist(), lam.tolist(), asymptote.tolist()))
    _emit(args, ["b", "active_mode", "lambda_dn", "asymptote"], rows)
    return 0


def cmd_intersections(args: argparse.Namespace) -> int:
    rows = [
        (r.n, r.z_n, r.lambda_at_zn, r.beta_n, r.residual_M, r.residual_F)
        for r in intersect.crossings(range(args.n_min, args.n_max + 1))
    ]
    _emit(args, ["n", "z_n", "lambda_at_zn", "beta_n", "residual_M", "residual_F"], rows)
    return 0


def cmd_asymptotics(args: argparse.Namespace) -> int:
    n_lo, n_hi = max(args.n_min, 1), args.n_max
    # the range gate first: geomspace refuses n_hi = 0
    ns = sorted({int(round(n)) for n in np.geomspace(n_lo, n_hi, 40)}) if n_hi >= 4 * n_lo else []
    if len(ns) < 5:
        raise ConfigError(
            "asymptotics needs --n-max >= 4 --n-min and 5 modes for a stable fit,"
            f" got --n-min {args.n_min} --n-max {n_hi}"
        )
    # z_{n_max - 1} rides along for the gap and stays out of the fit
    *records, below_top = intersect.crossings([*ns, n_hi - 1])
    fit = intersect.fit_asymptotics(records)
    alpha = models._alpha_cached()
    gap = records[-1].z_n - below_top.z_n
    gap_model = 1.0 + 0.5 * alpha / math.sqrt(n_hi)
    names = ["sqrt_n", "const", "inv_sqrt_n", "inv_n"]
    if args.format == "csv":
        rows = [(name, coeff) for name, coeff in zip(names, fit.coefficients)]
        rows.append(("max_fit_residual", fit.max_residual))
        rows.append(("gap_at_n_max", gap))
        rows.append(("gap_model_at_n_max", gap_model))
        _emit(args, ["quantity", "value"], rows)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": "asymptotics",
            "n_range": list(fit.n_range),
            "modes_used": ns,
            "coefficients": dict(zip(names, fit.coefficients)),
            "max_fit_residual": fit.max_residual,
            "gap_at_n_max": gap,
            "gap_model_at_n_max": gap_model,
        }
        _write_output(args, json.dumps(payload, indent=2) + "\n")
    return 0


def cmd_constants(args: argparse.Namespace) -> int:
    from . import verify  # loaded by the two commands that run checks, not by every command

    consts = models.constants()
    # called directly, not through run_suite, so a numerical failure exits 2
    results = [check() for check in verify.MODULES["constants"]]
    payload = {
        "schema_version": SCHEMA_VERSION,
        "alpha": consts.alpha,
        "xi0": consts.xi0,
        "theta0": consts.theta0,
        "delta_alpha": consts.delta_alpha,
        "u0_sq_at_0": consts.u0_sq_at_0,
        "alpha_upper_bound": consts.alpha_upper_bound,
        "resolved_tol": REL_TOL,
        "checks": {
            r.name.replace("-", "_"): {"residual": r.measured, "limit": r.limit, "pass": r.passed}
            for r in results
        },
    }
    _write_output(args, json.dumps(payload, indent=2) + "\n")
    return 0 if all(r.passed for r in results) else 1


def cmd_halfplane(args: argparse.Namespace) -> int:
    grid = _b_grid(args, -_MAX_CYLINDER_Z, _MAX_CYLINDER_Z, "the range of the cylinder functions")
    f1 = models._halfplane_multipliers(grid).tolist()
    d_half = cylinder_ds(0.5, grid)[0].tolist()
    _emit(args, ["xi", "f1", "d_half"], list(zip(grid.tolist(), f1, d_half)))
    return 0


def cmd_degennes(args: argparse.Namespace) -> int:
    grid = _b_grid(args, 0.0, 1.5, "the domain of degennes_f").tolist()
    rows = [(xi, models.degennes_f(xi)) for xi in grid]
    _emit(args, ["xi", "f"], rows)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from . import verify

    if args.only not in (None, *verify.MODULES):
        raise ConfigError(f"--only needs one of {', '.join(verify.MODULES)}, got --only {args.only}")
    results = verify.run_suite(only=args.only)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.module:<10} {r.name:<{width}} {status}  {r.detail}")
        failures += 0 if r.passed else 1
    total = len(results)
    print(f"{total - failures}/{total} checks passed")
    if failures:
        names = ", ".join(r.name for r in results if not r.passed)
        print(f"FAILED: {names}", file=sys.stderr)
    return 1 if failures else 0


# argparse settings of each flag; _SUBCOMMANDS says which commands take it.
_FLAGS = {
    "n_min": {"type": int},
    "n_max": {"type": int},
    "b_min": {"type": _finite_float},
    "b_max": {"type": _finite_float},
    "steps": {"type": int},
    "out": {"help": "output path, or - for stdout"},
    "format": {"choices": ("csv", "json")},
    "only": {"help": "restrict verify to one module"},
}
_MODES = {"n_min": 0, "n_max": 5}
_GRID = {"b_min": 0.0, "b_max": 10.0, "steps": 101}
_DATA = {"out": "-", "format": "csv"}

# Each command's handler and the only flags it reads, with their defaults;
# the field grids of halfplane and degennes match each function's domain.
_SUBCOMMANDS = {
    "curves": (cmd_curves, {**_MODES, **_GRID, **_DATA}),
    "envelope": (cmd_envelope, {**_GRID, **_DATA}),
    "intersections": (cmd_intersections, {**_MODES, **_DATA}),
    "asymptotics": (cmd_asymptotics, {**_MODES, "out": "-", "format": "json"}),
    "constants": (cmd_constants, {"out": "-"}),
    "halfplane": (cmd_halfplane, {**_GRID, "b_min": -2.0, "b_max": 2.0, **_DATA}),
    "degennes": (cmd_degennes, {**_GRID, "b_max": 1.5, **_DATA}),
    "verify": (cmd_verify, {"only": None}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="magsteklov",
        description="Magnetic Steklov spectrum of the unit disk: sweeps, constants, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, flags) in _SUBCOMMANDS.items():
        p = sub.add_parser(name)
        for flag, default in flags.items():
            p.add_argument("--" + flag.replace("_", "-"), default=default, **_FLAGS[flag])
    return parser


def _check_modes(args: argparse.Namespace) -> None:
    """The mode range check argparse cannot express; _b_grid checks the field grid."""
    if "n_min" in vars(args) and not 0 <= args.n_min <= args.n_max:
        raise ConfigError(
            f"need 0 <= --n-min <= --n-max, got --n-min {args.n_min} --n-max {args.n_max}"
        )


def main(argv: list[str] | None = None) -> int:
    if gc.get_freeze_count():  # the caller froze a heap of its own: leave it as it is
        return _run(argv)
    # the import's objects live as long as the process: frozen, the
    # collector's passes during the command skip them
    gc.freeze()
    try:
        return _run(argv)
    finally:
        gc.unfreeze()


def _run(argv: list[str] | None) -> int:
    args = build_parser().parse_args(argv)
    handler, _ = _SUBCOMMANDS[args.command]
    try:
        _check_modes(args)
        return handler(args)
    except (
        ConfigError, DomainError, OSError, BracketError, ConvergenceError, QuadratureError
    ) as exc:
        # a numerical failure is reported like a setting error, not as a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
