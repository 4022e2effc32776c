"""Worker process: runs the timed passes of one in-process workload.

Reads a pickled job {ops, passes, trace} from stdin.  Writes to stdout one
pickled message per operation, ("op", pass, index, start, raw seconds,
ok, value or error text), one per pass, ("pass", pass, traced), and a last
one, ("end", peak RSS in KiB, spans, genfun cache hits, cache lookups,
absent names, host-speed samples).
With tracing on, odd-numbered passes run with the layer wrappers installed
and even-numbered ones without, so one run gives both wall times.
"""

import importlib
import pickle
import resource
import sys

from bench_trace import InOpSampler, Instrumentation, Speedometer, Tracer
from bench_workloads import execute

MODULES = ("series", "genfun", "enumeration", "specfun", "asympt", "circle")


class Package:
    def __init__(self):
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"oepartitions.{name}"))


def main():
    job = pickle.load(sys.stdin.buffer)
    out = sys.stdout.buffer
    oe = Package()
    tracer = Tracer()
    wrappers = Instrumentation(vars(oe), tracer)
    builders = [f for name, f in vars(oe.genfun).items()
                if not name.startswith("_") and hasattr(f, "cache_clear")]
    hits = lookups = 0
    meter = Speedometer()
    for p in range(job["passes"]):
        traced = job["trace"] and p % 2 == 1
        if traced:
            wrappers.install()
        meter.sample()
        for i, op in enumerate(job["ops"]):
            for builder in builders:
                builder.cache_clear()
            tracer.op_id = p * 1000 + i
            timer = InOpSampler(meter, active=not traced)
            try:
                with timer:
                    value, ok = execute(oe, op), True
            except Exception as exc:  # a failed operation is counted, not fatal
                value, ok = f"{type(exc).__name__}: {exc}", False
            meter.sample(timer.seconds)
            if traced:
                for builder in builders:
                    info = builder.cache_info()
                    hits += info.hits
                    lookups += info.hits + info.misses
            pickle.dump(("op", p, i, timer.start, timer.seconds, ok, value), out)
            out.flush()
        if traced:
            wrappers.remove()
        pickle.dump(("pass", p, traced), out)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    pickle.dump(("end", rss, tracer.spans, hits, lookups, wrappers.absent, meter.log), out)
    out.flush()


if __name__ == "__main__":
    main()
