"""One fresh interpreter that sets up once and then calls the CLI.

Usage: child.py MODE CONFIG OUT T0 SRC BUDGET

MODE is ``run``, or ``trace`` to run once with spans around every layer call.
T0 is the CLOCK_MONOTONIC reading the parent took just before starting this
process, so ``setup_s`` covers interpreter start, ``import apsabench`` and
``parse_config``.  SRC is the ``src`` directory the program must be imported
from.  In ``run`` mode ``apsabench.cli.main`` is called again, each call
writing to its own directory ``OUT/<k>``, while another call fits in BUDGET
seconds; there is always one call.  The result is one JSON line on stdout.
"""

import json
import os
import resource
import statistics
import sys
import time


def main(argv: list[str]) -> int:
    mode, config, out, t0, src, budget = argv
    import_start = time.perf_counter()
    import apsabench
    import apsabench.cli

    import_s = time.perf_counter() - import_start
    if os.path.commonpath([os.path.realpath(apsabench.__file__), src]) != src:
        print(f"apsabench imported from {apsabench.__file__}, not {src}", file=sys.stderr)
        return 1

    if mode == "trace":
        import spans

        tracer = spans.Tracer()
        installed = spans.install(tracer)
    apsabench.cli.parse_config(config)
    setup_s = time.monotonic() - float(t0)

    calls = []
    first = time.perf_counter()
    while not calls or (
        mode == "run"
        and time.perf_counter() - first + statistics.median(c["wall_s"] for c in calls)
        <= float(budget)
    ):
        argv = ["--config", config, "--out", os.path.join(out, str(len(calls))), "--quiet"]
        usage = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        code = apsabench.cli.main(argv)
        wall_s = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        calls.append(
            {
                "exit_code": code,
                "wall_s": wall_s,
                "cpu_s": (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime),
                "peak_rss_mb": after.ru_maxrss / 1024.0,  # ru_maxrss is in KiB on Linux
            }
        )
    result = {"setup_s": setup_s, "calls": calls}
    if mode == "trace":
        result.update(spans=tracer.summary(), installed=installed, import_s=import_s)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
