import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from mpmath import exp, mpf, workprec

import oepartitions
from oepartitions import cli, genfun, series, specfun
from oepartitions.enumeration import enum_oe, enum_oebar
from oepartitions.specfun import evaluate_at


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestCompute:
    def test_oe_series_csv(self, capsys):
        code, out, _ = run_cli(capsys, "compute", "--kind", "oe", "--n-max", "9")
        assert code == 0
        rows = parse_csv(out)
        assert [int(r["value"]) for r in rows] == [1, 1, 0, 2, 0, 2, 1, 3, 1, 3]

    def test_oebar_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "compute", "--kind", "oebar", "--n-max", "4", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)
        assert [r["value"] for r in rows] == [1, 2, 0, 4, 2]

    @pytest.mark.parametrize("kind,oracle", [("oe", enum_oe), ("oebar", enum_oebar)])
    def test_methods_agree(self, capsys, kind, oracle):
        _, by_series, _ = run_cli(capsys, "compute", "--kind", kind, "--n-max", "20")
        _, by_enum, _ = run_cli(
            capsys, "compute", "--kind", kind, "--n-max", "20", "--method", "enum"
        )
        assert by_series == by_enum
        vals = [int(r["value"]) for r in parse_csv(by_series)]
        assert vals == [oracle(n) for n in range(21)]

    def test_watson_product_route(self, capsys):
        _, a, _ = run_cli(capsys, "compute", "--kind", "oebar", "--n-max", "30")
        _, b, _ = run_cli(
            capsys, "compute", "--kind", "oebar", "--n-max", "30",
            "--method", "watson-product",
        )
        assert a == b

    def test_watson_product_rejected_for_oe(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["compute", "--kind", "oe", "--n-max", "5",
                      "--method", "watson-product"])

    def test_enum_cost_guard(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["compute", "--kind", "oe", "--n-max", "51", "--method", "enum"])

    def test_output_file(self, capsys, tmp_path):
        dest = tmp_path / "table.csv"
        code, out, _ = run_cli(
            capsys, "compute", "--kind", "oe", "--n-max", "5", "--output", str(dest)
        )
        assert code == 0 and out == ""
        rows = parse_csv(dest.read_text())
        assert [int(r["value"]) for r in rows] == [1, 1, 0, 2, 0, 2]

    def test_unwritable_output_is_one_line(self, capsys, tmp_path):
        # a missing directory ends the command with a message naming the
        # path, not with a FileNotFoundError traceback
        dest = tmp_path / "missing" / "table.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main(["compute", "--kind", "oe", "--n-max", "5", "--output", str(dest)])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert str(dest) in message
        assert not dest.parent.exists()
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["compute", "--kind", "oe", "--n-max", "200000"],
        ["ratio", "--kind", "oe", "--n", "100,1000"],
        ["gf-eval", "--eps", "0.05"],
    ])
    def test_unwritable_output_is_refused_before_any_series(self, capsys, tmp_path,
                                                            summand_calls, argv):
        dest = tmp_path / "missing" / "table.csv"
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--output", str(dest)])
        assert str(dest) in exc.value.code
        assert summand_calls == []

    def test_output_probe_leaves_no_file_behind(self, capsys, tmp_path):
        # a refused command does not leave the file it was to write
        dest = tmp_path / "table.csv"
        with pytest.raises(SystemExit):
            cli.main(["compute", "--kind", "oe", "--n-max", "-3", "--output", str(dest)])
        assert not dest.exists()

    def test_deterministic(self, capsys):
        _, a, _ = run_cli(capsys, "compute", "--kind", "oe", "--n-max", "40")
        _, b, _ = run_cli(capsys, "compute", "--kind", "oe", "--n-max", "40")
        assert a == b


class TestRatio:
    def test_ratio_tends_to_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "ratio", "--kind", "oe", "--n", "100,1000,5000"
        )
        assert code == 0
        rows = parse_csv(out)
        devs = [abs(float(r["ratio"]) - 1) for r in rows]
        assert devs[0] > devs[1] > devs[2]

    def test_order_ceiling(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["ratio", "--kind", "oe", "--n", "100000"])


class TestGFEval:
    def test_ratios_near_one(self, capsys):
        code, out, _ = run_cli(capsys, "gf-eval", "--eps", "0.05,0.02")
        assert code == 0
        rows = parse_csv(out)
        assert {r["branch"] for r in rows} == {"full", "even", "odd"}
        for r in rows:
            assert abs(float(r["ratio"]) - 1) < 0.1
        # the smaller eps rows sit closer to 1, branch by branch
        for branch in ("full", "even", "odd"):
            sub = [r for r in rows if r["branch"] == branch]
            assert abs(float(sub[1]["ratio"]) - 1) < abs(float(sub[0]["ratio"]) - 1)

    def test_eps_past_300_sums_to_order_one(self, capsys):
        # int(300/eps) is 0 here; the odd part still needs its q term
        code, out, _ = run_cli(capsys, "gf-eval", "--eps", "500")
        assert code == 0
        (odd,) = [r for r in parse_csv(out) if r["branch"] == "odd"]
        want = math.exp(-500)
        assert abs(float(odd["series_value"]) - want) < 1e-12 * want

    def test_largest_eps_prints_the_least_float(self, capsys):
        # e^-745 is the least subnormal float, and the odd row is that
        code, out, _ = run_cli(capsys, "gf-eval", "--eps", "745")
        assert code == 0
        (odd,) = [r for r in parse_csv(out) if r["branch"] == "odd"]
        assert float(odd["series_value"]) == math.exp(-745) > 0

    def test_sums_the_series_once(self, capsys, summand_calls, monkeypatch):
        # O is summed at its point, both parts in one loop: no coefficient
        # series is built and none is summed
        calls = []
        monkeypatch.setattr(specfun, "evaluate_at", lambda *args, **kw: calls.append(args))
        code, _, _ = run_cli(capsys, "gf-eval", "--eps", "0.05")
        assert code == 0
        assert summand_calls == [] and calls == []

    def test_sums_the_series_once_for_the_whole_grid(self, capsys, summand_calls, monkeypatch):
        calls = []
        monkeypatch.setattr(specfun, "evaluate_at", lambda *args, **kw: calls.append(args))
        code, _, _ = run_cli(capsys, "gf-eval", "--eps", "0.05,0.03")
        assert code == 0
        assert summand_calls == [] and calls == []

    def test_parity_parts_are_summed_in_q_squared(self, capsys):
        # each row is its part of oe_series, every other coefficient 0,
        # summed at q by the series oracle
        code, out, _ = run_cli(capsys, "gf-eval", "--eps", "0.0510,0.0305")
        assert code == 0
        for got in parse_csv(out):
            order = int(300 / float(got["eps"]))
            even, odd = genfun.parity_split(order)
            part = {"full": genfun.oe_series(order), "even": even, "odd": odd}[got["branch"]]
            with workprec(256):
                want = evaluate_at(part, exp(-mpf(got["eps"])), 256).value
            assert abs(float(got["series_value"]) / float(want) - 1) < 1e-12

    def test_small_eps_guard(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["gf-eval", "--eps", "0.001"])

    def test_forced_eps_is_summed_at_its_point(self, capsys):
        # order 10^6 by the ceiling's reckoning, but 3663 terms at the point;
        # O(q) is about e^1645 here, past the float range the rows print in
        code, out, _ = run_cli(capsys, "gf-eval", "--eps", "3e-4", "--force")
        assert code == 0
        rows = parse_csv(out)
        assert [r["branch"] for r in rows] == ["full", "even", "odd"]
        assert all(abs(float(r["ratio"]) - 1) < 1e-4 for r in rows)

    @staticmethod
    def past_the_float_range(text):
        """The 3e-4 rows of a gf-eval table, each printed value read back."""
        for row in text:
            if float(row["eps"]) == 3e-4:
                yield row, mpf(row["series_value"]), mpf(row["asymptotic"])

    def test_values_past_the_float_range_print_in_csv(self, capsys):
        # O(e^-eps) is about 2.3e714 at eps = 3e-4: printed from the mpf to 17
        # digits, not as inf, while a row that fits a float is the one it
        # prints on its own
        code, out, _ = run_cli(capsys, "gf-eval", "--eps", "3e-4,0.05", "--force")
        assert code == 0 and "inf" not in out
        _, alone, _ = run_cli(capsys, "gf-eval", "--eps", "0.05")
        assert out.splitlines()[-3:] == alone.splitlines()[-3:]
        rows = list(self.past_the_float_range(parse_csv(out)))
        assert len(rows) == 3
        for row, value, lead in rows:
            assert mpf("1e714") < value < mpf("1e715") and len(row["series_value"]) <= 24
            assert abs(value / lead / float(row["ratio"]) - 1) < 1e-15

    def test_values_past_the_float_range_print_in_json(self, capsys):
        code, out, _ = run_cli(capsys, "gf-eval", "--eps", "3e-4", "--force", "--format", "json")
        assert code == 0

        def refuse(constant):
            raise AssertionError(f"{constant} is not JSON")

        rows = list(self.past_the_float_range(json.loads(out, parse_constant=refuse)))
        assert len(rows) == 3
        for row, value, lead in rows:
            assert isinstance(row["series_value"], str) and value > mpf("1e714")
            assert abs(value / lead / row["ratio"] - 1) < 1e-15

    def test_forced_eps_past_the_term_budget_is_one_line(self, capsys, time_limit):
        # 1 - e^-eps < 1/TERM_BUDGET: the loop refuses before it forms q
        with time_limit(5), pytest.raises(SystemExit) as exc:
            cli.main(["gf-eval", "--eps", "1e-5", "--force"])
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        assert message.startswith("gf-eval at eps 1e-05: O(q) at tau = ")
        assert message.endswith(f"needs over {specfun.TERM_BUDGET} terms")
        assert capsys.readouterr().out == ""
        # tau to 8 digits, not the about 90 of its working precision
        assert len(message) < 100


class TestVerify:
    def test_identities_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--order", "60")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)
        assert "FAIL" not in out

    def test_identities_suite_builds_each_class_sum_once(self, capsys, monkeypatch):
        # the class-sum rows and the classical suite's odd-even row share
        # one S_0 .. S_3
        built, inner = [], genfun.sj_series
        monkeypatch.setattr(genfun, "sj_series", lambda j, n: built.append(j) or inner(j, n))
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--order", "60")
        assert code == 0 and "PASS  classical: odd-even-sum" in out
        assert sorted(built) == [0, 1, 2, 3]

    def test_specfun_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "specfun")
        assert code == 0
        assert "FAIL" not in out

    @pytest.mark.parametrize("suite,summary", [
        ("asymptotics", "5/5 checks passed"), ("circle", "4/4 checks passed"),
    ])
    def test_suite_passes(self, capsys, suite, summary):
        code, out, _ = run_cli(capsys, "verify", "--suite", suite)
        assert code == 0
        assert summary in out and "FAIL" not in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        # force one check to report False and confirm the nonzero exit
        monkeypatch.setattr(
            cli, "_verify_specfun", lambda prec: [("forced failure", False)]
        )
        code, out, _ = run_cli(capsys, "verify", "--suite", "specfun")
        assert code == 1
        assert "FAIL  forced failure" in out


class TestCircleCommand:
    def test_report_shape(self, capsys):
        code, out, _ = run_cli(capsys, "--prec", "128", "circle", "--n", "20",
                               "--grid", "10")
        assert code == 0
        rep = json.loads(out)
        assert rep["recovered_coefficient"] == rep["exact_coefficient"]
        assert rep["clears_threshold"] is True

    def test_low_m_warns(self, capsys):
        code, out, err = run_cli(capsys, "--prec", "96", "circle", "--n", "20",
                                 "--M", "3.0", "--grid", "5")
        assert "threshold" in err
        rep = json.loads(out)
        assert rep["clears_threshold"] is False

    def test_m_above_threshold_is_silent(self, capsys):
        code, out, err = run_cli(capsys, "--prec", "96", "circle", "--n", "20",
                                 "--M", "6", "--grid", "5")
        assert code == 0 and err == ""
        assert json.loads(out)["clears_threshold"] is True


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["ratio", "--kind", "oe", "--n", ","],
        ["ratio", "--kind", "oebar", "--n", "10,0"],
        ["gf-eval", "--eps", "0.05,x"],
        ["compute", "--kind", "oe", "--n-max", "-3"],
        ["gf-eval", "--eps", "0", "--force"],
        ["gf-eval", "--eps", "-0.1", "--force"],
        ["gf-eval", "--eps", "nan"],
        ["gf-eval", "--eps", "1e400"],
        ["gf-eval", "--eps", "inf"],
        ["gf-eval", "--eps", "1e20"],
        ["gf-eval", "--eps", "800"],
        ["gf-eval", "--eps", "0.05,745.2", "--force"],
        ["verify", "--order", "-1"],
        ["gf-eval", "--eps", "0.001"],
        ["compute", "--kind", "oe", "--n-max", "5", "--method", "watson-product"],
        ["--prec", "-40", "ratio", "--kind", "oe", "--n", "10"],
        ["--prec", "0", "verify", "--suite", "specfun"],
        ["--prec", "63", "verify", "--suite", "specfun"],
    ])
    def test_bad_input_exits_with_one_line(self, argv):
        # SystemExit with a message: exit status 1 and that line on stderr
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        message = exc.value.code
        assert isinstance(message, str) and message and "\n" not in message


# (row of cli.CEILINGS, a request, the size that request builds)
CEILING_REQUESTS = [
    ("compute --method enum", ["compute", "--kind", "oebar", "--n-max", "8", "--method", "enum"], 8),
    ("compute", ["compute", "--kind", "oe", "--n-max", "30"], 30),
    ("compute", ["compute", "--kind", "oebar", "--n-max", "30"], 30),
    ("ratio", ["ratio", "--kind", "oebar", "--n", "10,100"], 100),
    ("gf-eval", ["gf-eval", "--eps", "0.5,5"], 600),
    ("compute --method watson-product",
     ["compute", "--kind", "oebar", "--n-max", "30", "--method", "watson-product"], 30),
    ("verify", ["verify", "--suite", "identities", "--order", "30"], 30),
    ("circle", ["--prec", "64", "circle", "--n", "12", "--grid", "10"], 12),
]


@pytest.mark.parametrize("row,argv,size", CEILING_REQUESTS)
class TestCeilings:
    # each row is lowered to the request's own size, so these runs stay cheap

    def test_refused_just_above_its_ceiling(self, capsys, monkeypatch, summand_calls,
                                             row, argv, size):
        monkeypatch.setitem(cli.CEILINGS, row, size - 1)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        message = exc.value.code
        assert isinstance(message, str) and "\n" not in message
        for part in (row, f"size {size}", f"ceiling {size - 1}", "--force"):
            assert part in message
        assert summand_calls == [] and capsys.readouterr().out == ""

    def test_accepted_at_its_ceiling(self, capsys, monkeypatch, row, argv, size):
        monkeypatch.setitem(cli.CEILINGS, row, size)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out

    def test_force_lifts_its_ceiling(self, capsys, monkeypatch, row, argv, size):
        _, want, _ = run_cli(capsys, *argv)
        monkeypatch.setitem(cli.CEILINGS, row, size - 1)
        code, out, _ = run_cli(capsys, *argv, "--force")
        assert code == 0 and out == want


def test_each_ceiling_row_has_a_request():
    assert {row for row, _, _ in CEILING_REQUESTS} == set(cli.CEILINGS)


def test_gf_eval_order_past_float_range_is_refused(capsys):
    # 300/eps overflows a float here: the order is inf, not an OverflowError
    with pytest.raises(SystemExit) as exc:
        cli.main(["gf-eval", "--eps", "1e-310"])
    assert "size inf" in exc.value.code


@pytest.mark.parametrize("argv,size", [
    (["gf-eval", "--eps", "1e-310", "--force"], "inf"),
    (["gf-eval", "--eps", "1e-300", "--force"], "3e+302"),
    (["compute", "--kind", "oe", "--n-max", str(10 ** 19), "--force"], "1e+19"),
    (["compute", "--kind", "oe", "--n-max", str(sys.maxsize + 1), "--force"], "9.22e+18"),
    (["compute", "--kind", "oe", "--n-max", str(10 ** 400), "--force"], "1e+400"),
])
def test_force_does_not_lift_sys_maxsize(argv, size):
    # orders inf, 3e302, 10^19, sys.maxsize + 1 and 10^400: no series
    # reaches them, so --force must not start the build, which would search
    # for its top index without end.  The size is named in float form to 3
    # digits, not by its digits, also past the float range
    src = str(Path(oepartitions.__file__).resolve().parents[1])
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "oepartitions.cli", *argv],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=20)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and f"size {size} above sys.maxsize" in proc.stderr


class TestPrecPlumbing:
    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("OEPARTITIONS_PREC", "123")
        args = cli.build_parser().parse_args(["verify"])
        assert args.prec == 123

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("OEPARTITIONS_PREC", "123")
        args = cli.build_parser().parse_args(["--prec", "99", "verify"])
        assert args.prec == 99

    @pytest.mark.parametrize("value", ["abc", "96.5", "", "32"])
    def test_bad_env_value_exits_with_one_line(self, monkeypatch, value):
        monkeypatch.setenv("OEPARTITIONS_PREC", value)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--suite", "specfun"])
        message = exc.value.code
        assert isinstance(message, str) and "OEPARTITIONS_PREC" in message and "\n" not in message


FOOTPRINT = """
import importlib, io, json, sys
argv = json.loads(sys.argv[1])
if isinstance(argv, str):
    importlib.import_module(argv)
else:
    from oepartitions import cli
    sys.stdout = io.StringIO()
    try:
        cli.main(argv)
    except SystemExit:
        pass
names = [m for m in sys.modules if m.split(".")[0] in ("mpmath", "oepartitions")]
sys.__stdout__.write(json.dumps(names))
"""


def loaded_modules(argv):
    """The mpmath and oepartitions modules a fresh interpreter holds after
    importing the module named by argv (a str) or after running the CLI on
    argv (a list)."""
    src = str(Path(oepartitions.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-c", FOOTPRINT, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout))


class TestImportFootprint:
    def test_package_import_loads_no_submodule(self):
        assert loaded_modules("oepartitions") == {"oepartitions"}

    @pytest.mark.parametrize("argv", [
        ["compute", "--kind", "oebar", "--n-max", "12", "--method", "enum"],
        ["compute", "--kind", "oe", "--n-max", "-3"],
        ["compute", "--kind", "even", "--n-max", "5"],
        ["ratio", "--kind", "oe", "--n", ","],
        ["compute", "--kind", "oebar", "--n-max", "400000"],
        ["compute", "--kind", "oebar", "--n-max", "100000", "--method", "watson-product"],
        ["compute", "--kind", "oe", "--n-max", str(10 ** 19), "--force"],
        ["ratio", "--kind", "oe", "--n", "100000"],
        ["circle", "--n", "100000"],
        ["verify", "--order", "100000"],
    ])
    def test_enumeration_and_refusals_load_no_mpmath(self, argv):
        loaded = loaded_modules(argv)
        assert not {m for m in loaded if m.split(".")[0] == "mpmath"}
        assert "oepartitions.cli" in loaded
        assert "oepartitions.genfun" not in loaded

    @pytest.mark.parametrize("argv", [
        "oepartitions.genfun",
        ["compute", "--kind", "oe", "--n-max", "10"],
        ["compute", "--kind", "oebar", "--n-max", "12", "--method", "watson-product"],
        ["gf-eval", "--eps", "0.001"],
        ["gf-eval", "--eps", "1e20", "--force"],
    ])
    def test_exact_series_and_refused_grids_load_no_mpmath(self, argv):
        loaded = loaded_modules(argv)
        assert not {m for m in loaded if m.split(".")[0] == "mpmath"}

    def test_series_reads_its_point_evaluation_from_specfun(self):
        # evaluate_at alone, the one name the benchmark reads from series
        assert series.evaluate_at is specfun.evaluate_at
        for name in ("EvalResult", "horner_bits", "horner_fixed", "no_such_name"):
            with pytest.raises(AttributeError):
                getattr(series, name)

    def test_series_tables_load_no_circle_or_asymptotics(self):
        loaded = loaded_modules(["compute", "--kind", "oe", "--n-max", "10"])
        assert "oepartitions.genfun" in loaded
        assert not loaded & {"oepartitions.circle", "oepartitions.asympt"}
