"""Span tracer for the magsteklov layers, installed from outside the package.

``Tracer.install`` wraps every function named in ``__all__`` of the traced
modules and rebinds the wrapper wherever a magsteklov module holds the
original by name, so calls between modules (``from .specfun import
kummer_m``) and inside one (``kummer_log_ratio`` -> ``kummer_m``) are both
seen.  Spans stay in memory; a span's self time is its duration minus the
durations of its direct children.  Nothing under the package is edited.
"""

import functools
import inspect
import random
import time
from collections import defaultdict

TRACED_MODULES = ("numerics", "specfun", "disk", "intersect", "models")

# Functions whose call arguments and results are kept, so that a seeded
# sample of them can be checked against the oracle after the run.
RECORDED = ("specfun.kummer_m", "disk.lambda_n", "intersect.find_zn", "specfun.cylinder_d")
SAMPLES_PER_FUNCTION = 12

# Functions whose first argument is a callable evaluated many times; the
# callable is wrapped to count its evaluations.
COUNTED_CALLABLE = ("numerics.brent_root", "numerics.integrate_semi_infinite")


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "terms", "f_evals", "sign_evals", "routes")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.terms = 0
        self.f_evals = 0
        self.sign_evals = 0
        self.routes = defaultdict(int)

    def as_dict(self) -> dict:
        out = {key: getattr(self, key) for key in self.__slots__ if key != "routes"}
        out["routes"] = dict(self.routes)
        return out


def _cylinder_route(nu: float, z: float) -> str:
    """The branch specfun._cylinder_value takes for these signs."""
    if nu < 0.0:
        return "integral"
    return "even_odd" if z <= 0.0 else "lift"


def _summary(name: str, args: tuple, result):
    """JSON-ready (arguments, result) of one recorded call."""
    if name == "specfun.kummer_m":
        return list(args[:3]), [result.value.mantissa, result.value.exponent]
    if name == "disk.lambda_n":
        return list(args[:2]), result
    if name == "intersect.find_zn":
        return [args[0]], result.z_n
    return list(args[:2]), [result.value, result.derivative]


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = defaultdict(Stat)
        self.spans: list[tuple[str, int, float, float] | None] = []
        self.records: dict[str, list] = {name: [] for name in RECORDED}
        self._stack: list[list] = []  # [span index, name, time covered by children]

    def install(self, package) -> None:
        modules = [getattr(package, name) for name in package.__all__]
        for module_name in TRACED_MODULES:
            module = getattr(package, module_name)
            for attr in module.__all__:
                original = getattr(module, attr)
                if not inspect.isfunction(original):
                    continue
                wrapper = self.wrap(f"{module_name}.{attr}", original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapper)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs)

        return wrapper

    def call(self, name: str, fn, args: tuple, kwargs: dict):
        stat = self.stats[name]
        if name in COUNTED_CALLABLE:
            args = (self._counted(args[0], stat),) + args[1:]
        parent = self._stack[-1] if self._stack else None
        frame = [len(self.spans), name, 0.0]
        self.spans.append(None)
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if parent is not None:
                parent[2] += duration
            self.spans[frame[0]] = (name, parent[0] if parent else -1, start, end)
            stat.calls += 1
            stat.total_s += duration
            stat.self_s += duration - frame[2]
        self._observe(name, stat, args, result, parent)
        return result

    @staticmethod
    def _counted(f, stat: Stat):
        def counted(x):
            stat.f_evals += 1
            return f(x)

        return counted

    def _observe(self, name: str, stat: Stat, args: tuple, result, parent) -> None:
        if name == "specfun.kummer_m":
            stat.terms += result.terms_used
            if parent is not None and parent[1] == "disk.active_mode" and args[0] == -0.5:
                self.stats["disk.active_mode"].sign_evals += 1
        elif name == "specfun.cylinder_d":
            stat.routes[_cylinder_route(args[0], args[1])] += 1
        if name in self.records:
            self.records[name].append((args, result))

    def report(self, seed: int) -> dict:
        """Aggregates per function and a seeded sample of each recorded function's calls."""
        rng = random.Random(seed)
        samples = {}
        for name, calls in self.records.items():
            chosen = rng.sample(calls, min(SAMPLES_PER_FUNCTION, len(calls)))
            samples[name] = [_summary(name, args, result) for args, result in chosen]
        return {
            "stats": {name: stat.as_dict() for name, stat in self.stats.items()},
            "samples": samples,
        }
