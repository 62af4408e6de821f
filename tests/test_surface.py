"""The library modules export only what the package itself uses.

A name in the ``__all__`` of a library module is live when another module
under ``magsteklov`` imports it or reads it as an attribute, or when a live
definition of its own module refers to it (a result type, a helper that a
live function calls).  Routes that only cross-check the library belong in
``verify``, and helpers that only the tests use belong in the tests.

A parameter with a default, on a top-level function of a library module or
``verify``, is an option: it needs two values in use, so some call in the
package must pass it and some call must leave it at its default.  Otherwise
the default belongs in the body as a constant, or the parameter is required.

The package has one accuracy, ``numerics.REL_TOL``, which the kernels read
themselves: no function anywhere takes a ``tol`` or ``rel_tol``.  The package
depends on numpy alone: no module imports scipy, and importing the CLI
loads none.  ``max`` and ``min`` keep their current value when the next one
is NaN, so ``verify`` reduces its residuals only through ``_worst``.

``cli.cmd_intersections`` writes its rows from the crossing solve's
arrays: it builds no ``IntersectionRecord`` and calls neither ``crossings``
nor ``find_zn``.  The other commands call the public functions of ``disk``
and ``models``: ``cli`` reads no private name of either but the alpha cache.

``specfun`` alone picks the loop that sums a batch of Kummer series, by its
lane count: no other module names that loop or its threshold, and no
function takes a ``kernel`` to choose one.

The package reads every Kummer sum as floats at a power-of-two offset, the
cross-checks of ``verify`` included.  No module defines, imports or names
the scalar ``kummer_m``, its result type ``KummerValue`` or the
``ScaledReal`` number type: the tests alone keep ``ScaledReal`` and a scalar
M in it, as a reference in ``tests/scaled_real.py``.

``verify`` registers a check one way: every top-level ``check_*`` function
is a residual decorated by ``_check``, which takes the check's limit and
points, and no function but ``_check`` changes ``MODULES``.

An argument whose domain is one closed interval is checked by
``numerics._require_in``, which alone words that rule: no module defines or
names the four validators it replaced, and no library module but
``numerics`` holds a string that words an interval rule.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import magsteklov

PACKAGE = Path(magsteklov.__file__).parent
LIBRARY = ("numerics", "specfun", "disk", "intersect", "models")
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _exports(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    raise AssertionError("module has no __all__")


def _used_by_other_modules(module):
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.stem == module:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module in (module, f"magsteklov.{module}"):
                used.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                if node.value.id == module:
                    used.add(node.attr)
    return used


def _references(tree):
    """Each top-level definition's name -> the names read anywhere inside it."""
    refs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            assigned = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [t.id for t in assigned if isinstance(t, ast.Name)]
        else:
            continue
        read = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        for target in targets:
            refs[target] = read
    return refs


def _live(module):
    tree = _tree(module)
    refs = _references(tree)
    live = set()
    frontier = _used_by_other_modules(module)
    while frontier:
        name = frontier.pop()
        if name not in live:
            live.add(name)
            frontier |= refs.get(name, set())
    return live


@pytest.mark.parametrize("module", LIBRARY)
def test_every_export_has_a_caller_in_the_package(module):
    exports = _exports(_tree(module))
    unused = [name for name in exports if name not in _live(module)]
    assert unused == [], f"{module} exports names nothing in the package uses: {unused}"


def _parameters(module):
    """(name, parameter names) of every def and lambda in the module, nested ones too."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.Lambda)):
            args = node.args
            names = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            yield getattr(node, "name", "<lambda>"), names


@pytest.mark.parametrize("module", MODULES)
def test_no_function_takes_an_accuracy(module):
    # the kernels read REL_TOL themselves, so no function takes an accuracy
    taking = [
        f"{name}({param})"
        for name, params in _parameters(module)
        for param in params
        if param in ("tol", "rel_tol")
    ]
    assert taking == [], f"{module} has functions that take an accuracy: {taking}"


def _options(module):
    """(function, parameter, position or None) of each defaulted parameter of a top-level def."""
    for node in _tree(module).body:
        if isinstance(node, ast.FunctionDef):
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            for index in range(first, len(positional)):
                yield node.name, positional[index].arg, index
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def _calls_by_name():
    """Called name -> every call of it in the package, as ``f(...)`` or ``x.f(...)``."""
    calls = {}
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def _passes(call, parameter, index):
    """Whether the call sets the parameter; a starred argument may set any."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == parameter for kw in call.keywords):
        return True
    return index is not None and len(call.args) > index


def _omits(call, parameter, index):
    """Whether the call leaves the parameter at its default; a starred argument may."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None for kw in call.keywords):
        return True
    if any(kw.arg == parameter for kw in call.keywords):
        return False
    return index is None or len(call.args) <= index


@pytest.mark.parametrize("module", LIBRARY + ("verify",))
def test_every_option_is_passed_by_a_caller(module):
    calls = _calls_by_name()
    unset, fixed = [], []
    for function, parameter, index in _options(module):
        callers = calls.get(function, [])
        if not any(_passes(call, parameter, index) for call in callers):
            unset.append(f"{function}({parameter})")
        if not any(_omits(call, parameter, index) for call in callers):
            fixed.append(f"{function}({parameter})")
    assert unset == [], f"{module} has options no call in the package sets: {unset}"
    assert fixed == [], f"{module} has options every call in the package sets: {fixed}"


def _scipy_imports(module):
    """Line numbers of every scipy import in the module, function-level ones too."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        if any(name == "scipy" or name.startswith("scipy.") for name in names):
            yield node.lineno


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_scipy(module):
    lines = list(_scipy_imports(module))
    assert lines == [], f"{module} imports scipy at lines {lines}"


def _models_imports(module):
    """Line numbers of every import of ``magsteklov.models`` in the module, function-level ones too."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            package = ".".join(filter(None, ["magsteklov" if node.level else "", node.module]))
            names = [package, *(f"{package}.{alias.name}" for alias in node.names)]
        else:
            continue
        if any(name == "magsteklov.models" or name.startswith("magsteklov.models.") for name in names):
            yield node.lineno


def test_intersect_imports_nothing_from_models():
    # the crossing solve resolves no model constant: its starts hold alpha as a double
    lines = list(_models_imports("intersect"))
    assert lines == [], f"intersect imports models at lines {lines}"


def _record_building_calls(module, function):
    """Line numbers where the function builds an IntersectionRecord or calls crossings or find_zn."""
    top = next(node for node in _tree(module).body if getattr(node, "name", None) == function)
    for node in ast.walk(top):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in ("IntersectionRecord", "crossings", "find_zn"):
                yield node.lineno


def test_intersections_command_builds_no_records():
    # the command writes its rows from the solve's arrays, as envelope does from its lane core
    lines = list(_record_building_calls("cli", "cmd_intersections"))
    assert lines == [], f"cli.cmd_intersections builds crossing records at lines {lines}"


def _private_reads(module, library):
    """(line, name) of each private name the module reads off ``library`` or imports from it."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == library:
            names = [node.attr]
        elif isinstance(node, ast.ImportFrom) and node.module in (library, f"magsteklov.{library}"):
            names = [alias.name for alias in node.names]
        else:
            continue
        yield from ((node.lineno, name) for name in names if name.startswith("_"))


@pytest.mark.parametrize(
    "library, allowed", [("disk", ()), ("models", ("_alpha_cached",))], ids=["disk", "models"]
)
def test_cli_calls_only_public_functions_of(library, allowed):
    # the commands call the functions a tracer wraps by their __all__ names;
    # alpha is read through the one cache the package resolves it in
    reads = [(line, name) for line, name in _private_reads("cli", library) if name not in allowed]
    assert reads == [], f"cli reads private names of {library}: {reads}"


def test_cli_command_loads_no_scipy_argparse_or_locale():
    # a fresh interpreter, so no other test's imports are in sys.modules; the
    # CLI parses its own argv, so a data command loads no argparse, gettext or locale
    code = (
        "import sys, magsteklov.cli; magsteklov.cli.main(['curves', '--n-max', '0', '--steps', '2']);"
        " print(sorted(m for m in sys.modules"
        " if 'scipy' in m or m in ('argparse', 'gettext', 'locale')), file=sys.stderr)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.startswith("n,b,branch,lambda\n")
    assert out.stderr.strip() == "[]"


def test_cli_import_loads_no_verify():
    # verify loads in the constants and verify commands, or on an attribute read
    code = (
        "import sys, magsteklov, magsteklov.cli; loaded = 'magsteklov.verify' in sys.modules;"
        " print(loaded, magsteklov.verify is sys.modules['magsteklov.verify'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "False True"


def _bare_reductions(module):
    """Line numbers of builtin max/min calls over an iterable or a ``worst`` accumulator."""
    iterables = (ast.GeneratorExp, ast.ListComp, ast.SetComp, ast.DictComp, ast.Starred)
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("max", "min"):
            args = node.args
            if len(args) == 1 or any(
                isinstance(a, iterables) or getattr(a, "id", None) == "worst" for a in args
            ):
                yield node.lineno


def test_verify_reduces_only_through_worst():
    # a denominator such as max(abs(x), 1.0) is no reduction and stays allowed
    lines = list(_bare_reductions("verify"))
    assert lines == [], f"verify reduces with max/min, which skip NaN, at lines {lines}"


def _naming(module, names):
    """Line numbers where the module defines, imports or names any of ``names``.

    A name counts as a def or class, a variable, an attribute, an imported
    alias, or a string constant equal to it, such as an ``__all__`` entry.
    """
    for node in ast.walk(_tree(module)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            name = node.name
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant):
            name = node.value
        else:
            continue
        if name in names:
            yield node.lineno


SERIES_LOOP_NAMES = ("_series_parts", "_series_sums", "_BATCH_MIN")


@pytest.mark.parametrize("module", [m for m in MODULES if m != "specfun"])
def test_only_specfun_picks_the_series_loop(module):
    lines = list(_naming(module, SERIES_LOOP_NAMES))
    assert lines == [], f"{module} names {SERIES_LOOP_NAMES} at lines {lines}"
    taking = [name for name, params in _parameters(module) if "kernel" in params]
    assert taking == [], f"{module} has functions that take a kernel: {taking}"


SCALAR_KUMMER_NAMES = ("kummer_m", "KummerValue", "ScaledReal")


@pytest.mark.parametrize("module", MODULES)
def test_no_module_names_the_scalar_kummer_types(module):
    lines = list(_naming(module, SCALAR_KUMMER_NAMES))
    assert lines == [], f"{module} names {SCALAR_KUMMER_NAMES} at lines {lines}"


MUTATORS = ("append", "extend", "insert", "setdefault", "update", "pop", "clear")


def _roots_at_modules(node):
    """Whether an attribute or subscript chain starts at the name MODULES."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    return isinstance(node, ast.Name) and node.id == "MODULES"


def _changes_modules(top):
    """Whether a top-level statement changes MODULES: a mutating call or a store on it."""
    for node in ast.walk(top):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in MUTATORS and _roots_at_modules(node.func.value):
                return True
        if isinstance(node, ast.Subscript) and isinstance(node.ctx, (ast.Store, ast.Del)):
            if _roots_at_modules(node.value):
                return True
    return False


def _decorated_by_check(function):
    return any(
        isinstance(d, ast.Call) and getattr(d.func, "id", None) == "_check"
        for d in function.decorator_list
    )


def test_verify_registers_checks_only_through_check():
    # one registration form: a residual with its limit and points, given to _check
    body = _tree("verify").body
    undecorated = [
        node.name
        for node in body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("check_")
        and not _decorated_by_check(node)
    ]
    assert undecorated == [], f"verify has check_* functions not decorated by _check: {undecorated}"
    changing = [
        getattr(node, "name", f"line {node.lineno}") for node in body if _changes_modules(node)
    ]
    assert changing == ["_check"], f"verify changes MODULES outside _check: {changing}"


RETIRED_VALIDATORS = (
    "_require_finite", "_check_range", "_check_field", "_require_in_cylinder_range"
)


@pytest.mark.parametrize("module", MODULES)
def test_no_module_names_the_retired_validators(module):
    lines = list(_naming(module, RETIRED_VALIDATORS))
    assert lines == [], f"{module} names {RETIRED_VALIDATORS} at lines {lines}"


INTERVAL_WORDING = ("must lie in", "must be finite", " supports ", "required, got")


def _interval_wording(module):
    """Line numbers of string constants, f-string parts included, that word an interval rule."""
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            if any(words in node.value for words in INTERVAL_WORDING):
                yield node.lineno


@pytest.mark.parametrize("module", [m for m in LIBRARY if m != "numerics"])
def test_only_numerics_words_an_interval_rule(module):
    lines = list(_interval_wording(module))
    assert lines == [], f"{module} words an interval rule itself at lines {lines}"
