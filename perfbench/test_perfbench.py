"""Self-tests of the benchmark: span arithmetic, the tail rule, failure counting."""

import json
import sys
import types
from pathlib import Path

import pytest

import bench_refs
import bench_trace
import bench_workloads as W
import run


def test_self_time_subtracts_the_union_of_child_spans():
    spans = [
        ("outer", 0.0, 10.0, None, 0, 0),
        ("a", 1.0, 3.0, 0, 0, 0),
        ("b", 2.0, 5.0, 0, 0, 0),  # overlaps a: together they cover 1..5
        ("c", 7.0, 8.0, 0, 0, 0),
        ("leaf", 1.5, 2.0, 1, 0, 0),
    ]
    assert bench_trace.self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 1.0, 0.5])


def test_layer_metrics_count_integrand_calls_inside_arcs_only():
    spans = [("circle.major_arc", 0.0, 4.0, None, 0, 0)]
    spans += [("specfun.euler_eval", 1.0 + k / 10, 1.05 + k / 10, 0, 0, 0) for k in range(6)]
    spans += [("specfun.euler_eval", 5.0, 5.1, None, 0, 0)]  # outside any arc
    m = bench_trace.layer_metrics(spans, 1, 0, 0, 0)
    assert m["circle.integrand_calls"] == 3
    assert m["specfun.euler_eval.calls"] == 7
    assert m["circle.s_per_integrand_call"] == pytest.approx(4.0 / 3)
    assert m["circle.major_arc.s"] == pytest.approx(4.0 - 0.3)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert bench_trace.tail(range(10)) is None
    value, pct, n = bench_trace.tail(range(11))
    assert (value, n) == (0, 11) and pct == pytest.approx(100 / 11)
    xs = list(range(1, 101))
    value, pct, n = bench_trace.tail(reversed(xs))
    assert (value, pct, n) == (90, 90.0, 100)
    assert sum(1 for x in xs if x > value) == 10


def test_speed_factor_pools_the_samples_near_an_interval():
    meter = bench_trace.Speedometer()
    rate = bench_trace.REFERENCE_RATE
    meter.log = [(0.9, rate, 1.0), (2.1, 3 * rate, 1.0), (5.0, 100 * rate, 1.0)]
    assert meter.factor(1.0, 1.0) == pytest.approx(2.0)  # the sample at 5.0 is too far


def test_instrumentation_wraps_and_restores_and_records_absent_names():
    calls = []
    mod = types.SimpleNamespace(euler_eval=lambda t: calls.append(t) or t * 2)
    original = mod.euler_eval
    tracer = bench_trace.Tracer()
    wrappers = bench_trace.Instrumentation({"specfun": mod}, tracer)
    wrappers.install()
    assert mod.euler_eval(3) == 6 and calls == [3]
    assert [s[0] for s in tracer.spans] == ["specfun.euler_eval"]
    assert "specfun.jacobi_theta" in wrappers.absent
    wrappers.remove()
    assert mod.euler_eval is original


def _judge_one(op, value, ref, completed=True):
    return run.judge([op], [ref], [(0, 0, 0.01, 1.0, completed, value)], passes=1)


def test_a_wrong_reference_counts_as_one_failure():
    op = W.Op("enum_oe", (12,))
    got = bench_refs.oe_coeffs(12)
    assert [v.ok for *_, v in _judge_one(op, got, got)] == [True]
    wrong = got[:7] + (got[7] + 1,) + got[8:]
    verdicts = _judge_one(op, got, wrong)
    assert [v.ok for *_, v in verdicts] == [False]
    assert "coefficient 7" in verdicts[0][-1].reason


def test_a_raised_exception_and_a_missing_result_each_count_as_one_failure():
    op = W.Op("enum_oe", (5,))
    ref = bench_refs.oe_coeffs(5)
    raised = _judge_one(op, "ZeroDivisionError: boom", ref, completed=False)
    assert [v.ok for *_, v in raised] == [False] and "raised" in raised[0][-1].reason
    missing = run.judge([op], [ref], [], passes=2)
    assert [v.ok for *_, v in missing] == [False, False]


def test_a_cli_traceback_counts_as_one_failure():
    op = W.Op("cli", ("circle", "--n", "0"), W.CLI_TRACEBACK)
    child = run.Child([sys.executable, "-m", "oepartitions.cli", *op.args], run.child_env())
    value = (child.rc, child.out.decode(), child.err.decode())
    verdicts = _judge_one(op, value, None)  # malformed input: no library value
    assert [(v.ok, v.reason) for *_, v in verdicts] == [(False, "traceback")]
    assert child.maxrss_kib > 0


def test_cli_usage_errors_pass_and_wrong_tables_fail():
    usage = W.Op("cli", ("compute", "--kind", "even", "--n-max", "5"))
    assert W.check_cli(usage, 2, "", "usage: oepartitions ...", None).ok
    table = W.Op("cli", ("compute", "--kind", "oe", "--n-max", "3"))
    assert W.check_cli(table, 0, "n,value\n0,1\n1,1\n2,0\n3,2\n", "", (1, 1, 0, 2)).ok
    assert not W.check_cli(table, 0, "n,value\n0,1\n1,1\n2,0\n3,3\n", "", (1, 1, 0, 2)).ok


def test_operation_lists_depend_only_on_the_seed():
    for name in W.WORKLOADS:
        assert W.build(name, 7) == W.build(name, 7)
        assert W.build(name, 7) != W.build(name, 8)


def test_references_agree_with_the_enumeration_definition():
    from itertools import combinations

    def oe_brute(n):  # distinct parts, smallest odd, consecutive parts of opposite parity
        count = 0
        for k in range(1, n + 1):
            for parts in combinations(range(1, n + 1), k):
                if sum(parts) == n and parts[0] % 2 and all((b - a) % 2 for a, b in zip(parts, parts[1:])):
                    count += 1
        return count

    assert bench_refs.oe_coeffs(14)[1:] == tuple(oe_brute(n) for n in range(1, 15))


def test_benchmark_json_lists_every_reported_metric():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = bench_trace.layer_metrics([], 1, 0, 0, 0)
    names = set(layer) | {"fail_ratio", "accuracy_bits", "trace.overhead"}
    assert {m["name"] for m in spec["per_layer"]} == names
    assert all(m["unit"] == bench_trace.unit_of(m["name"]) for m in spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
