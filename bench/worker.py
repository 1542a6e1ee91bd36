"""One benchmark pass in a fresh interpreter.

Usage: python3 worker.py SPAWN_TIME PLAN_JSON RESULT_JSON TRACE

SPAWN_TIME is the parent's ``time.perf_counter()`` just before it started
this process; on Linux perf_counter reads CLOCK_MONOTONIC, which all
processes share, so the difference to the moment ``import midecay.cli``
returns is the set-up time a CLI user pays. PLAN_JSON lists the argv of each
CLI command of the pass; an empty list makes a set-up probe. TRACE 1 installs
the span wrappers of ``spans.py`` before the pass.
"""

import sys
import time

import midecay.cli  # set-up time ends when this import returns

_IMPORTED = time.perf_counter()


def _run_pass(commands, trace):
    import contextlib
    import io

    from spans import Tracer, peak_rss_mb  # the benchmark's spans.py, beside this file

    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install()
    records = []
    start = time.perf_counter()
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        record = {"argv": argv, "exit": None, "exception": None}
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    record["exit"] = midecay.cli.main(argv)
                else:
                    record["exit"] = tracer.cli(midecay.cli.main, argv)
        except SystemExit as exc:
            record["exit"] = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a CLI command that raises is counted, not fatal
            record["exception"] = f"{type(exc).__name__}: {exc}"
        record["stderr"] = err.getvalue()[-500:]
        records.append(record)
    pipeline_s = time.perf_counter() - start
    return {
        "pipeline_s": pipeline_s,
        "peak_rss_mb": peak_rss_mb(),
        "commands": records,
        "spans": tracer.spans if tracer is not None else None,
    }


def main(argv):
    spawn, plan_path, result_path, trace = argv
    import json

    setup_s = _IMPORTED - float(spawn)
    with open(plan_path, encoding="utf-8") as f:
        commands = json.load(f)
    result = {"setup_s": setup_s}
    if commands:
        result.update(_run_pass(commands, trace == "1"))
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1:])
