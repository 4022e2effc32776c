"""Spans around the calls into each oepartitions layer, and the per-layer metrics.

A span is (name, start, end, parent, op_id, work): `parent` is the index of
the enclosing span or None, `op_id` names the benchmark operation that caused
it, and `work` is a count the layer did (Horner steps, coefficients built).
Spans are kept in memory while the benchmark runs and written out when it
ends.

Tracing works by rebinding public names from the benchmark's side only: the
module attribute a caller looks up (`genfun.neg_pochhammer`,
`circle.euler_eval`, `PowerSeries.__mul__`, ...) is replaced by a wrapper
that records a span and calls the original.  A name missing from the
package is recorded as absent and skipped.
"""

from __future__ import annotations

import functools
import signal
import time

# span name -> the (module, attribute) bindings that reach it, and its work count
TARGETS = [
    ("series.mul", [("series", "PowerSeries.__mul__"), ("series", "PowerSeries.__rmul__")], None),
    ("series.neg_pochhammer", [("series", "neg_pochhammer"), ("genfun", "neg_pochhammer")], None),
    ("series.qpochhammer", [("series", "qpochhammer"), ("genfun", "qpochhammer")], None),
    ("series.evaluate_at",
     [("series", "evaluate_at"), ("circle", "evaluate_at"), ("cli", "evaluate_at")], "terms"),
    ("genfun.oe_series", [("genfun", "oe_series")], "built"),
    ("genfun.oebar_hypergeometric", [("genfun", "oebar_series_hypergeometric")], "built"),
    ("genfun.oebar_product", [("genfun", "oebar_series_product")], "built"),
    ("genfun.f_mock", [("genfun", "f_mock_series")], "built"),
    ("genfun.watson_core", [("genfun", "watson_core")], "built"),
    ("genfun.identity_suite", [("genfun", "classical_identity_suite")], None),
    ("enumeration.enum", [("enumeration", "enum_oe"), ("enumeration", "enum_oebar")], None),
    ("specfun.euler_eval", [("specfun", "euler_eval"), ("circle", "euler_eval")], None),
    ("specfun.jacobi_theta", [("specfun", "jacobi_theta"), ("asympt", "jacobi_theta")], None),
    ("specfun.bessel_i", [("specfun", "bessel_i"), ("circle", "bessel_i")], None),
    ("specfun.dilog", [("specfun", "dilog")], None),
    ("specfun.wright_p", [("specfun", "wright_p")], None),
    ("asympt.sj_theta", [("asympt", "sj_theta_asymptotic")], None),
    ("asympt.phi_class_sum", [("asympt", "phi_class_sum")], None),
    ("asympt.law", [("asympt", "oe_asymptotic"), ("asympt", "oebar_asymptotic")], None),
    ("circle.major_arc", [("circle", "major_arc_integral")], None),
    ("circle.minor_arc", [("circle", "minor_arc_integral")], None),
    ("circle.cauchy", [("circle", "cauchy_full_integral")], None),
    ("circle.empirical_max", [("circle", "minor_arc_empirical_max")], None),
    ("circle.oebar_eval", [("circle", "oebar_eval")], None),
]

CLI_COMMANDS = ("compute", "ratio", "gf-eval", "verify", "circle")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op_id = 0

    def call(self, name, fn, args, kwargs, work=None):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self.stack[-1] if self.stack else None
        self.stack.append(idx)
        count = 0
        start = time.perf_counter()
        try:
            if work is None:
                return fn(*args, **kwargs)
            result, count = work(fn, args, kwargs)
            return result
        finally:
            end = time.perf_counter()
            self.stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op_id, count)

    def record(self, name, start, end, work=0):
        """A span timed by the caller (a child process, an import)."""
        parent = self.stack[-1] if self.stack else None
        self.spans.append((name, start, end, parent, self.op_id, work))
        return len(self.spans) - 1

    def adopt(self, spans, parent):
        """Append spans recorded elsewhere, re-rooting their top level under `parent`."""
        base = len(self.spans)
        for name, start, end, p, _, work in spans:
            self.spans.append((name, start, end, parent if p is None else base + p, self.op_id, work))


def _horner_terms(fn, args, kwargs):
    return fn(*args, **kwargs), len(args[0].coeffs)


def _built(fn, args, kwargs):
    """Coefficients built by a generating-function builder: order + 1 on a cache miss."""
    info = getattr(fn, "cache_info", None)
    before = info().misses if info else None
    result = fn(*args, **kwargs)
    missed = info is None or info().misses > before
    return result, (args[0] + 1) if missed else 0


WORK = {"terms": _horner_terms, "built": _built}


def _resolve(owner, dotted):
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Instrumentation:
    """Install and remove the wrappers on a dict of oepartitions modules."""

    def __init__(self, modules, tracer):
        self.modules = modules
        self.tracer = tracer
        self.saved = []
        self.absent = []

    def install(self):
        wrapped = {}
        for name, bindings, work in TARGETS:
            for mod, dotted in bindings:
                module = self.modules.get(mod)
                if module is None:
                    continue
                try:
                    owner, attr = _resolve(module, dotted)
                    original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
                except (AttributeError, KeyError):
                    self.absent.append(f"{mod}.{dotted}")
                    continue
                if id(original) not in wrapped:
                    wrapped[id(original)] = self._wrap(name, original, WORK.get(work))
                self.saved.append((owner, attr, original))
                setattr(owner, attr, wrapped[id(original)])

    def remove(self):
        for owner, attr, original in reversed(self.saved):
            setattr(owner, attr, original)
        self.saved.clear()

    def _wrap(self, name, fn, work):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(name, fn, args, kwargs, work)

        return wrapper


def self_times(spans):
    """Duration of each span minus the part of it that its child spans cover."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] is not None:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, *_rest) in enumerate(spans):
        covered, reach = 0.0, start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _under(spans, i, prefixes):
    p = spans[i][3]
    while p is not None:
        if spans[p][0] in prefixes:
            return True
        p = spans[p][3]
    return False


def unit_of(name):
    if name.endswith((".s", "_s", "_per_integrand_call")):
        return "s"
    if name.endswith("ratio") or name == "trace.overhead":
        return "ratio"
    return "bits" if name == "accuracy_bits" else "count"


def layer_metrics(spans, traced_passes, cache_hits, cache_lookups, cli_tracebacks):
    """Per-layer metrics per traced pass: `<span>.s` is self time, `.calls` a span count."""
    per = 1.0 / max(1, traced_passes)
    secs, calls, work = {}, {}, {}
    for span, s in zip(spans, self_times(spans)):
        name, count = span[0], span[5]
        secs[name] = secs.get(name, 0.0) + s
        calls[name] = calls.get(name, 0) + 1
        work[name] = work.get(name, 0) + count
    arcs = ("circle.major_arc", "circle.minor_arc")
    integrand = sum(1 for i, sp in enumerate(spans)
                    if sp[0] == "specfun.euler_eval" and _under(spans, i, arcs)) // 2
    arc_calls = sum(calls.get(a, 0) for a in arcs)
    arc_wall = sum(sp[2] - sp[1] for sp in spans if sp[0] in arcs)
    m = {}
    for name in ("series.mul", "series.evaluate_at", "enumeration.enum",
                 "specfun.euler_eval", "circle.oebar_eval"):
        m[f"{name}.calls"] = calls.get(name, 0) * per
    for name, _, _ in TARGETS:
        m[f"{name}.s"] = secs.get(name, 0.0) * per
    m["series.evaluate_at.terms"] = work.get("series.evaluate_at", 0) * per
    m["genfun.coeffs_built"] = sum(v for k, v in work.items() if k.startswith("genfun.")) * per
    m["genfun.cache_hit_ratio"] = cache_hits / cache_lookups if cache_lookups else 0.0
    m["circle.integrand_calls"] = integrand * per
    m["circle.integrand_calls_per_arc"] = integrand / arc_calls if arc_calls else 0.0
    m["circle.s_per_integrand_call"] = arc_wall / integrand if integrand else 0.0
    m["cli.import_s"] = secs.get("cli.import", 0.0) * per
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}.s"] = secs.get(f"cli.{cmd}", 0.0) * per
    m["cli.tracebacks"] = cli_tracebacks * per
    return m


# ---------------------------------------------------------------------------
# host speed
#
# The vCPU this runs on changes speed by tens of percent from one second to
# the next as other tenants load the host.  Every timed interval is
# therefore scaled to a reference speed: a fixed pure-Python kernel is run
# just before and just after it (and, inside a worker, every IN_OP_EVERY_S
# during it), and the interval is multiplied by the kernel's rate over
# REFERENCE_RATE.  Raw seconds are kept too.

REFERENCE_RATE = 27800.0  # kernel chunks per second, median on a 2-core x86 sandbox
CAL_MIN_S = 0.003
CAL_MAX_S = 0.25
CAL_SHARE = 0.1  # a sample lasts this share of the interval it follows
IN_OP_EVERY_S = 0.2
IN_OP_SAMPLE_S = 0.004


def speed_sample(after_seconds=0.0):
    """Run the kernel for CAL_SHARE of the interval just timed, within [CAL_MIN_S, CAL_MAX_S].

    Returns (chunks, seconds)."""
    budget = min(CAL_MAX_S, max(CAL_MIN_S, CAL_SHARE * after_seconds))
    chunks, start = 0, time.perf_counter()
    while True:
        x = 0
        for i in range(500):
            x += i * i
        chunks += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return chunks, elapsed


class Speedometer:
    """A log of kernel samples, (midpoint, chunks, seconds), taken around timed intervals.

    The factor for an interval pools every sample whose midpoint lies within
    WINDOW_S of it; raw seconds times the factor are reference-speed seconds.
    """

    WINDOW_S = 0.25

    def __init__(self):
        self.log = []

    def sample(self, after_seconds=0.0):
        start = time.perf_counter()
        chunks, seconds = speed_sample(after_seconds)
        self.log.append((start + seconds / 2, chunks, seconds))

    def factor(self, start, seconds):
        lo, hi = start - self.WINDOW_S, start + seconds + self.WINDOW_S
        near = [(c, s) for mid, c, s in self.log if lo <= mid <= hi]
        return sum(c for c, _ in near) / sum(s for _, s in near) / REFERENCE_RATE


class InOpSampler:
    """Time an interval while sampling the kernel on a timer signal inside it.

    The samples' own time is taken out of `seconds`.  Main thread only.
    Inactive (no samples inside) while spans are being recorded, so that
    span times hold no kernel time."""

    def __init__(self, meter, active=True):
        self.meter = meter
        self.active = active

    def __enter__(self):
        self.paused = 0.0
        if self.active:
            self.old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, IN_OP_EVERY_S, IN_OP_EVERY_S)
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        if self.active:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self.old)
        self.seconds = time.perf_counter() - self.start - self.paused
        return False

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.meter.sample(IN_OP_SAMPLE_S / CAL_SHARE)
        self.paused += time.perf_counter() - start


def tail(latencies):
    """The highest percentile with at least ten samples beyond it: (value, percentile, n).

    With n samples sorted ascending, the (n-10)-th one has exactly ten after
    it, so its percentile is 100 (n-10)/n.  Fewer than 11 samples: None.
    """
    xs = sorted(latencies)
    n = len(xs)
    if n < 11:
        return None
    return xs[n - 11], 100.0 * (n - 10) / n, n
