"""Traced stand-in for `python -m oepartitions.cli`.

Times `import oepartitions` as a `cli.import` span, installs the layer
wrappers, then runs the CLI module as __main__ with the given arguments, so
exit codes, messages and tracebacks are the CLI's own.  On exit it writes
{spans, cache hits, cache lookups} as JSON to the file named by
$PERFBENCH_SPANS.
"""

import json
import os
import runpy
import sys
import time

from bench_trace import Instrumentation, Tracer


def main():
    tracer = Tracer()
    start = time.perf_counter()
    import oepartitions  # noqa: F401  (the import is what the span times)
    from oepartitions import asympt, circle, enumeration, genfun, series, specfun

    tracer.record("cli.import", start, time.perf_counter())
    modules = dict(series=series, genfun=genfun, enumeration=enumeration,
                   specfun=specfun, asympt=asympt, circle=circle)
    Instrumentation(modules, tracer).install()
    try:
        sys.argv = ["oepartitions", *sys.argv[1:]]
        runpy.run_module("oepartitions.cli", run_name="__main__", alter_sys=True)
    finally:
        hits = lookups = 0
        for name, f in vars(genfun).items():
            info = getattr(getattr(f, "__wrapped__", f), "cache_info", None)
            if not name.startswith("_") and info:
                hits += info().hits
                lookups += info().hits + info().misses
        with open(os.environ["PERFBENCH_SPANS"], "w") as fh:
            json.dump({"spans": tracer.spans, "hits": hits, "lookups": lookups}, fh)


if __name__ == "__main__":
    main()
