"""Run one magsteklov CLI command in this fresh interpreter and time it.

    python child.py RESULT_JSON TRACE SEED [CLI ARGS...]

Times ``import magsteklov`` apart from ``cli.main(argv)``; with no CLI
arguments only the import is timed.  With TRACE=1 the tracer is installed
between the two, and its report and spans go into the result as well.  The
result is written as JSON to RESULT_JSON; the exit code is that of the
command.  ``cli.main`` is called directly because ``python -m
magsteklov.cli`` warns about the package's eager import of ``cli``.
"""

import json
import resource
import sys
import time


def main() -> int:
    result_path, trace, seed, argv = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3]), sys.argv[4:]
    start = time.perf_counter()
    import magsteklov
    from magsteklov import cli

    imported = time.perf_counter()
    result = {"setup_s": imported - start}
    code = 0
    if argv:
        tracer = None
        if trace:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install(magsteklov)
        begin = time.perf_counter()
        code = tracer.call("cli.main", cli.main, (argv,), {}) if tracer else cli.main(argv)
        result["run_s"] = time.perf_counter() - begin
        if tracer:
            result["trace"] = tracer.report(seed)
            result["spans"] = tracer.spans
    result["exit_code"] = code
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
