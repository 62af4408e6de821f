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

import dataclasses
import datetime
import gc
import json
import math
import sys
from types import SimpleNamespace
from typing import NoReturn

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


def _csv(names: list[str], columns: list[list]) -> str:
    """CSV text of the table given as its columns: one % on one printf row template.

    A float column (numpy floats included) takes 17 significant digits and
    any other column its str().  None is an empty field wherever it sits: a
    column holding one is written as strings, its other values formatted
    first with the column's format.
    """
    formats, fields = [], []
    for column in columns:
        kind = next((type(value) for value in column if value is not None), str)
        spec = "%.17g" if issubclass(kind, float) else "%s"
        if None in column:
            column, spec = ["" if value is None else spec % value for value in column], "%s"
        formats.append(spec)
        fields.append(column)
    rows = len(fields[0])
    values = [None] * (len(fields) * rows)
    for start, column in enumerate(fields):
        values[start :: len(fields)] = column  # in row order
    return ",".join(names) + "\n" + (",".join(formats) + "\n") * rows % tuple(values)


def _emit(args: SimpleNamespace, names: list[str], columns: list[list]) -> None:
    if args.format == "csv":
        text = _csv(names, columns)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "command": args.command,
            "columns": names,
            "rows": list(zip(*columns)),
        }
        text = json.dumps(payload, indent=2) + "\n"
    _write_output(args, text)


def _write_output(args: SimpleNamespace, text: str) -> None:
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


def _b_grid(args: SimpleNamespace, lo: float, hi: float, domain: str) -> np.ndarray:
    """The --steps points from --b-min to --b-max; a ConfigError unless they lie in [lo, hi]."""
    if args.steps < 2:
        raise ConfigError(f"need --steps >= 2, got --steps {args.steps}")
    if not lo <= args.b_min <= args.b_max <= hi:
        raise ConfigError(
            f"{args.command} needs {lo:g} <= --b-min <= --b-max <= {hi:g}, {domain},"
            f" got --b-min {args.b_min} --b-max {args.b_max}"
        )
    return np.linspace(args.b_min, args.b_max, args.steps)


def cmd_curves(args: SimpleNamespace) -> int:
    grid = _b_grid(args, -_MAX_ABS_Z, _MAX_ABS_Z, "the range of the field").tolist()
    modes = range(args.n_min, args.n_max + 1)
    # each branch's rows mode by mode over the grid, the pos branch first
    lam = [disk.lambda_n(n, sign * b) for sign in (1.0, -1.0) for n in modes for b in grid]
    ns = [n for n in modes for _ in grid] * 2
    branches = ["pos"] * (len(lam) // 2) + ["neg"] * (len(lam) // 2)
    _emit(args, ["n", "b", "branch", "lambda"], [ns, grid * (2 * len(modes)), branches, lam])
    return 0


def cmd_envelope(args: SimpleNamespace) -> int:
    grid = _b_grid(args, 0.0, _MAX_ABS_Z, "the range of the field")
    alpha = models._alpha_cached()
    field, modes, lam = disk._ground_states(grid)
    # np.sqrt rounds correctly, so each asymptote is alpha * math.sqrt(b) - offset
    asymptote = alpha * np.sqrt(field) - (alpha * alpha + 2.0) / 6.0
    columns = [field.tolist(), modes.tolist(), lam.tolist(), asymptote.tolist()]
    _emit(args, ["b", "active_mode", "lambda_dn", "asymptote"], columns)
    return 0


def cmd_intersections(args: SimpleNamespace) -> int:
    # the names are the record's fields, in the order in which _columns gives them
    names = [field.name for field in dataclasses.fields(intersect.IntersectionRecord)]
    _emit(args, names, intersect._columns(list(range(args.n_min, args.n_max + 1))))
    return 0


def cmd_asymptotics(args: SimpleNamespace) -> int:
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
        quantities = [*names, "max_fit_residual", "gap_at_n_max", "gap_model_at_n_max"]
        values = [*fit.coefficients, fit.max_residual, gap, gap_model]
        _emit(args, ["quantity", "value"], [quantities, values])
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


def cmd_constants(args: SimpleNamespace) -> int:
    from . import verify  # loaded by the two commands that run checks, not by every command

    consts = models.constants()
    # called directly, not through run_suite, so a numerical failure exits 2
    results = [check() for check in verify.MODULES["constants"]]
    payload = {
        "schema_version": SCHEMA_VERSION,
        **dataclasses.asdict(consts),
        "resolved_tol": REL_TOL,
        "checks": {
            r.name.replace("-", "_"): {"residual": r.measured, "limit": r.limit, "pass": r.passed}
            for r in results
        },
    }
    _write_output(args, json.dumps(payload, indent=2) + "\n")
    return 0 if all(r.passed for r in results) else 1


def cmd_halfplane(args: SimpleNamespace) -> int:
    grid = _b_grid(args, -_MAX_CYLINDER_Z, _MAX_CYLINDER_Z, "the range of the cylinder functions")
    f1 = models._halfplane_multipliers(grid).tolist()
    d_half = cylinder_ds(0.5, grid)[0].tolist()
    _emit(args, ["xi", "f1", "d_half"], [grid.tolist(), f1, d_half])
    return 0


def cmd_degennes(args: SimpleNamespace) -> int:
    grid = _b_grid(args, 0.0, 1.5, "the domain of degennes_f").tolist()
    _emit(args, ["xi", "f"], [grid, [models.degennes_f(xi) for xi in grid]])
    return 0


def cmd_verify(args: SimpleNamespace) -> int:
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


# Each flag's value type (a float must also be finite), its help text and,
# for --format, its choices; _SUBCOMMANDS says which commands take it.
_FLAGS = {
    "n_min": {"type": int, "help": "lowest mode n"},
    "n_max": {"type": int, "help": "highest mode n"},
    "b_min": {"type": float, "help": "first grid point"},
    "b_max": {"type": float, "help": "last grid point"},
    "steps": {"type": int, "help": "number of grid points"},
    "out": {"type": str, "help": "output path, or - for stdout"},
    "format": {"type": str, "help": "output format", "choices": ("csv", "json")},
    "only": {"type": str, "help": "restrict verify to one module"},
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


def _option(flag: str) -> str:
    """The flag as written on the command line, with a placeholder for its value."""
    choices = _FLAGS[flag].get("choices")
    return f"--{flag.replace('_', '-')} " + ("{%s}" % ",".join(choices) if choices else flag.upper())


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: magsteklov [-h] {%s} ..." % ",".join(_SUBCOMMANDS)
    flags = _SUBCOMMANDS[command][1]
    return f"usage: magsteklov {command} [-h]" + "".join(f" [{_option(flag)}]" for flag in flags)


def _help(command: str | None) -> str:
    """The -h/--help text: the eight commands, or one command's flags with their defaults."""
    if command is None:
        return "\n".join([
            _usage(None),
            "",
            "Magnetic Steklov spectrum of the unit disk: sweeps, constants, verification.",
            "",
            "commands:",
            *(f"  {name}" for name in _SUBCOMMANDS),
            "",
            "magsteklov COMMAND -h lists the flags of COMMAND.",
        ]) + "\n"
    rows = [("-h, --help", "show this help message and exit")]
    for flag, default in _SUBCOMMANDS[command][1].items():
        text = _FLAGS[flag]["help"]
        rows.append((_option(flag), text if default is None else f"{text} (default: {default})"))
    width = max(len(option) for option, _ in rows) + 2
    lines = [f"  {option:<{width}}{text}" for option, text in rows]
    return "\n".join([_usage(command), "", "options:", *lines]) + "\n"


def _usage_error(command: str | None, message: str) -> NoReturn:
    prog = "magsteklov" if command is None else f"magsteklov {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _convert(flag: str, text: str) -> int | float | str:
    """The value of a flag given as text; a ValueError saying why it is refused."""
    spec = _FLAGS[flag]
    kind = spec["type"]
    try:
        value = kind(text)
    except ValueError:
        raise ValueError(f"invalid {kind.__name__} value: {text!r}") from None
    if kind is float and not math.isfinite(value):
        raise ValueError(f"must be finite, got {text!r}")
    if "choices" in spec and value not in spec["choices"]:
        choices = ", ".join(map(repr, spec["choices"]))
        raise ValueError(f"invalid choice: {text!r} (choose from {choices})")
    return value


def _parse(argv: list[str]) -> SimpleNamespace:
    """The command argv names and its flags' values, each flag's default where it is not given.

    The grammar is COMMAND, then --flag VALUE or --flag=VALUE, each flag one
    of the command's own by its exact name.  A value is the next token as it
    stands, even one that starts with -; a repeated flag keeps its last
    value.  -h or --help prints the help and exits 0; anything else is a
    usage error, exit 2.
    """
    command = argv[0] if argv else None
    if command in ("-h", "--help"):
        sys.stdout.write(_help(None))
        raise SystemExit(0)
    if command is None:
        _usage_error(None, "the following arguments are required: command")
    if command not in _SUBCOMMANDS:
        choices = ", ".join(map(repr, _SUBCOMMANDS))
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    defaults = _SUBCOMMANDS[command][1]
    options = {"--" + flag.replace("_", "-"): flag for flag in defaults}
    values = {"command": command, **defaults}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            sys.stdout.write(_help(command))
            raise SystemExit(0)
        option, given, text = token.partition("=")
        flag = options.get(option)
        if flag is None:
            _usage_error(command, f"unrecognized argument: {token}")
        if not given:
            text = next(tokens, None)
            if text is None:
                _usage_error(command, f"argument {option}: expected one argument")
        try:
            values[flag] = _convert(flag, text)
        except ValueError as exc:
            _usage_error(command, f"argument {option}: {exc}")
    return SimpleNamespace(**values)


def _check_modes(args: SimpleNamespace) -> None:
    """The mode range check; _b_grid checks the field grid."""
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
    args = _parse(sys.argv[1:] if argv is None else argv)
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
