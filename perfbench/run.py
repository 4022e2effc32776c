"""oepartitions benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload exact-series --seed 1 --seconds 16 --trace 0

Run from the root of a source checkout; the package is imported from
./src.  A run measures set-up (fresh interpreters importing the package),
computes every reference untimed, then makes whole passes over the
workload's operation list: in a worker process for the in-process
workloads, one CLI subprocess at a time for cli-session.  The number of
passes is --seconds divided by the workload's budgeted pass time, so both
sides of a comparison do the same work.  Every result is checked; a failed
check is counted and the run goes on.  The last line of standard output is
the JSON result, the lines before it a readable report.  With --trace 1,
every other pass runs with layer spans recorded, the result carries the
per-layer metrics, and the spans are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import pickle
import selectors
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import bench_workloads as W
from bench_trace import CLI_COMMANDS, Speedometer, Tracer, layer_metrics, tail, unit_of

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_RUNS = 5
RUN_BUDGET_S = 165.0
CLI_TIMEOUT_S = 60.0
KIB_PER_MB = 1024.0  # ru_maxrss is in KiB on Linux
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_s.p50": "s", "op_s.tail": "s", "peak_rss_mb": "MB"}


class Child:
    """Run one subprocess to completion: exit code, output, peak RSS and timing."""

    def __init__(self, argv, env, stdin=None, timeout=CLI_TIMEOUT_S):
        chunks = {1: [], 2: []}
        self.first_output = None
        self.timed_out = False
        self.start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL if stdin is None else subprocess.PIPE,
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        try:
            if stdin is not None:
                proc.stdin.write(stdin)
                proc.stdin.close()
            with selectors.DefaultSelector() as sel:
                sel.register(proc.stdout, selectors.EVENT_READ, 1)
                sel.register(proc.stderr, selectors.EVENT_READ, 2)
                deadline = self.start + timeout
                while sel.get_map():
                    ready = sel.select(max(0.0, deadline - time.perf_counter()))
                    if not ready:
                        self.timed_out = True
                        proc.kill()
                        break
                    for key, _ in ready:
                        data = os.read(key.fileobj.fileno(), 1 << 16)
                        if not data:
                            sel.unregister(key.fileobj)
                            continue
                        if key.data == 1 and self.first_output is None:
                            self.first_output = time.perf_counter()
                        chunks[key.data].append(data)
        except BaseException:
            proc.kill()
            raise
        finally:
            # wait4, not Popen.wait, so the child's own peak RSS is reported
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            proc.stdout.close()
            proc.stderr.close()
        self.end = time.perf_counter()
        self.rc = proc.returncode
        self.maxrss_kib = usage.ru_maxrss
        self.out = b"".join(chunks[1])
        self.err = b"".join(chunks[2])


def child_env(extra=None):
    env = {k: v for k, v in os.environ.items() if k != "OEPARTITIONS_PREC"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
    env.update(extra or {})
    return env


def setup_seconds():
    """Median time from starting a fresh interpreter until `import oepartitions` returns:
    (reference-speed seconds, raw seconds)."""
    probe = "import oepartitions, sys; sys.stdout.write('1'); sys.stdout.flush()"
    meter, probes = Speedometer(), []
    meter.sample()
    for _ in range(SETUP_RUNS):
        child = Child([sys.executable, "-c", probe], child_env())
        if child.rc != 0 or child.first_output is None:
            raise RuntimeError(f"importing oepartitions failed: {child.err.decode()[-400:]}")
        probes.append((child.start, child.first_output - child.start))
        meter.sample(probes[-1][1])
    return (median([s * meter.factor(start, s) for start, s in probes]),
            median([s for _, s in probes]))


class Outcome:
    """What the timed passes produced: per-op records and the layer trace."""

    def __init__(self):
        self.records = []  # (pass, index, start, raw seconds, completed, value); then scaled
        self.traced = set()
        self.rss_kib = 0
        self.spans = []
        self.hits = self.lookups = 0
        self.absent = []

    def scale(self, meter):
        """Replace each record's start time by its host-speed factor."""
        self.records = [(p, i, seconds, meter.factor(start, seconds) if meter.log else 1.0, ok, value)
                        for p, i, start, seconds, ok, value in self.records]


def run_worker(ops, passes, trace, deadline):
    job = pickle.dumps({"ops": ops, "passes": passes, "trace": trace})
    child = Child([sys.executable, str(HERE / "bench_worker.py")], child_env(), stdin=job,
                  timeout=max(1.0, deadline - time.perf_counter()))
    res, meter = Outcome(), Speedometer()
    res.rss_kib = child.maxrss_kib
    stream = io.BytesIO(child.out)
    while True:
        try:
            msg = pickle.load(stream)  # written by our own worker
        except (EOFError, pickle.UnpicklingError):
            break
        if msg[0] == "op":
            res.records.append(msg[1:])
        elif msg[0] == "pass" and msg[2]:
            res.traced.add(msg[1])
        elif msg[0] == "end":
            _, _, res.spans, res.hits, res.lookups, res.absent, meter.log = msg
    if child.rc != 0 or child.timed_out:
        sys.stdout.write(f"worker stopped early (exit {child.rc}, timed out {child.timed_out}): "
                         f"{child.err.decode(errors='replace')[-600:]}\n")
    res.scale(meter)
    return res


def run_cli(ops, passes, trace, deadline):
    res, meter = Outcome(), Speedometer()
    tracer = Tracer()
    spans_file = OUT_DIR / "cli_child_spans.json"
    for p in range(passes):
        traced = trace and p % 2 == 1
        if traced:
            res.traced.add(p)
            OUT_DIR.mkdir(exist_ok=True)
        meter.sample()
        for i, op in enumerate(ops):
            left = deadline - time.perf_counter()
            if left <= 1.0:
                break
            if traced:
                argv = [sys.executable, str(HERE / "bench_cli_child.py"), *op.args]
                env = child_env({"PERFBENCH_SPANS": str(spans_file)})
            else:
                argv = [sys.executable, "-m", "oepartitions.cli", *op.args]
                env = child_env()
            child = Child(argv, env, timeout=min(CLI_TIMEOUT_S, left))
            seconds = child.end - child.start
            meter.sample(seconds)
            res.rss_kib = max(res.rss_kib, child.maxrss_kib)
            value = (child.rc, child.out.decode(errors="replace"), child.err.decode(errors="replace"))
            res.records.append((p, i, child.start, seconds, not child.timed_out, value))
            if traced:
                tracer.op_id = p * 1000 + i
                cmd = next((a for a in op.args if a in CLI_COMMANDS), "other")
                idx = tracer.record(f"cli.{cmd}", child.start, child.end)
                if spans_file.exists():
                    data = json.loads(spans_file.read_text())
                    spans_file.unlink()
                    tracer.adopt(data["spans"], idx)
                    res.hits += data["hits"]
                    res.lookups += data["lookups"]
    res.spans = tracer.spans
    res.scale(meter)
    return res


class RefError(str):
    """A reference that could not be computed; its operation fails its check."""


def compute_refs(oe, ops):
    cache, out = {}, []
    for op in ops:
        try:
            out.append(W.reference(oe, op, cache))
        except Exception as exc:  # reported as a failed check of that operation
            out.append(RefError(f"{type(exc).__name__}: {exc}"))
    return out


def judge(ops, refs, records, passes):
    """A (pass, index, seconds, raw seconds, Verdict) for every scheduled operation.

    `seconds` is scaled to the reference speed.  An operation that was never
    reported (time budget spent, worker crash) counts as attempted and failed.
    """
    done = {(p, i): rest for p, i, *rest in records}
    verdicts = []
    for p in range(passes):
        same_pass = {i: v for (q, i), (*_, completed, v) in done.items() if q == p and completed}
        for i, op in enumerate(ops):
            if (p, i) not in done:
                verdicts.append((p, i, None, None,
                                 W.Verdict(False, "not run: time budget or worker crash")))
                continue
            raw, factor, completed, value = done[p, i]
            if isinstance(refs[i], RefError):
                verdict = W.Verdict(False, f"reference unavailable: {refs[i]}")
            elif not completed:
                verdict = W.Verdict(False, "timed out" if op.kind == "cli" else f"raised {value}")
            elif op.kind == "cli":
                verdict = W.check_cli(op, *value, refs[i])
            else:
                verdict = W.check(op, value, refs[i], same_pass)
            verdicts.append((p, i, raw * factor, raw, verdict))
    return verdicts


def pass_walls(verdicts, passes, column=2):
    """Sum of operation times per pass, for the passes named."""
    walls = {}
    for v in verdicts:
        if v[0] in passes and v[column] is not None:
            walls[v[0]] = walls.get(v[0], 0.0) + v[column]
    return walls


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=16.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()
    if not (SRC / "oepartitions" / "__init__.py").is_file():
        sys.stderr.write(f"no oepartitions sources under {SRC}: run from a source checkout\n")
        return 2
    sys.path.insert(0, str(SRC))
    from bench_worker import Package

    _, in_process, budget, fewest = W.WORKLOADS[args.workload]
    passes = max(fewest, round(args.seconds / budget))
    if args.trace and passes % 2 == 0:
        passes += 1  # untraced passes on both sides of every traced one
    oe = Package()
    setup_s, setup_raw = setup_seconds()
    ops = W.build(args.workload, args.seed)
    refs_started = time.perf_counter()
    refs = compute_refs(oe, ops)
    refs_s = time.perf_counter() - refs_started
    deadline = started + RUN_BUDGET_S
    run = (run_worker if in_process else run_cli)(ops, passes, args.trace, deadline)
    verdicts = judge(ops, refs, run.records, passes)

    failures = [(p, i, v) for p, i, _, _, v in verdicts if not v.ok]
    unexpected = [f for f in failures if not ops[f[1]].known]
    bits = [v.bits for *_, v in verdicts if v.bits is not None]
    untraced = set(range(passes)) - run.traced
    walls = pass_walls(verdicts, untraced)
    latencies = [s for p, _, s, _, _ in verdicts if p in untraced and s is not None]
    raw_walls = pass_walls(verdicts, untraced, column=3)
    tail_stat = tail(latencies)
    if not tail_stat:
        sys.stderr.write(f"too few operations completed to measure ({len(latencies)} timed)\n")
        return 1
    e2e = {
        "setup_s": setup_s,
        "wall_s": median(walls.values()),
        "op_s.p50": median(latencies),
        "op_s.tail": tail_stat[0],
        "peak_rss_mb": run.rss_kib / KIB_PER_MB,
    }
    fail_ratio = len(failures) / len(verdicts)
    accuracy = min(bits) if bits else 0.0

    out = sys.stdout.write
    out(f"workload {args.workload}  seed {args.seed}  passes {passes} ({len(run.traced)} traced)  "
        f"operations {len(ops)} per pass  references {refs_s:.1f} s\n")
    raw_lat = [r for p, _, _, r, _ in verdicts if p in untraced and r is not None]
    out(f"  times in reference-speed seconds; raw: setup {setup_raw:.6g} s, "
        f"wall {median(raw_walls.values()):.6g} s, p50 {median(raw_lat):.6g} s, "
        f"tail {tail(raw_lat)[0]:.6g} s\n")
    for name, value in e2e.items():
        note = f"  (p{tail_stat[1]:.1f} of {tail_stat[2]} operations)" if name == "op_s.tail" else ""
        out(f"  {name:<14} {value:.6g} {E2E_UNITS[name]}{note}\n")
    out(f"  {'fail_ratio':<14} {fail_ratio:.6g} ratio  ({len(failures)} of {len(verdicts)} failed, "
        f"{len(failures) - len(unexpected)} on known defects)\n")
    out(f"  {'accuracy_bits':<14} " + (f"{accuracy:.4g} bits\n" if bits else "n/a (no float results)\n"))
    seen = set()
    for _, i, v in failures:
        if (i, v.reason) not in seen:
            seen.add((i, v.reason))
            tag = f"known: {ops[i].known}" if ops[i].known else "UNEXPECTED"
            out(f"  fail [{tag}] {ops[i].kind}{ops[i].args}: {v.reason}\n")
    if run.absent:
        out(f"  absent names, not traced: {', '.join(sorted(set(run.absent)))}\n")

    if args.trace:
        tracebacks = sum(1 for p, _, v in failures if p in run.traced and v.reason == "traceback")
        metrics = layer_metrics(run.spans, len(run.traced), run.hits, run.lookups, tracebacks)
        traced_walls = pass_walls(verdicts, run.traced)
        metrics["fail_ratio"] = fail_ratio
        metrics["accuracy_bits"] = accuracy
        metrics["trace.overhead"] = (median(traced_walls.values()) / e2e["wall_s"]
                                     if traced_walls else 0.0)
        for name, value in metrics.items():
            out(f"  {name:<34} {value:.6g} {unit_of(name)}\n")
        result = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"spans-{args.workload}-{args.seed}.jsonl", "w") as fh:
            for span in run.spans:
                fh.write(json.dumps(span) + "\n")
    else:
        result = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}
    print(json.dumps({"correct": not unexpected, "attempted": len(verdicts),
                      "failed": len(failures), "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
