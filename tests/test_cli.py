import csv
import io
import json

import pytest

from oepartitions import cli
from oepartitions.enumeration import enum_oe, enum_oebar


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
        code, out, _ = run_cli(
            capsys, "gf-eval", "--eps", "0.05,0.02", "--order", "5000"
        )
        assert code == 0
        rows = parse_csv(out)
        assert {r["branch"] for r in rows} == {"full", "even", "odd"}
        for r in rows:
            assert abs(float(r["ratio"]) - 1) < 0.1
        # the smaller eps rows sit closer to 1, branch by branch
        for branch in ("full", "even", "odd"):
            sub = [r for r in rows if r["branch"] == branch]
            assert abs(float(sub[1]["ratio"]) - 1) < abs(float(sub[0]["ratio"]) - 1)

    def test_small_eps_guard(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["gf-eval", "--eps", "0.001"])


class TestVerify:
    def test_identities_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "identities", "--order", "60")
        assert code == 0
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert lines and all(l.startswith("PASS") for l in lines)
        assert "FAIL" not in out

    def test_specfun_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "specfun")
        assert code == 0
        assert "FAIL" not in out

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


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["ratio", "--kind", "oe", "--n", ","],
        ["ratio", "--kind", "oebar", "--n", "10,0"],
        ["gf-eval", "--eps", "0.05,x"],
        ["compute", "--kind", "oe", "--n-max", "-3"],
        ["gf-eval", "--eps", "0", "--force"],
        ["gf-eval", "--eps", "-0.1", "--force"],
        ["verify", "--order", "-1"],
    ])
    def test_bad_input_exits_with_one_line(self, argv):
        # SystemExit with a message: exit status 1 and that line on stderr
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        message = exc.value.code
        assert isinstance(message, str) and message and "\n" not in message


class TestPrecPlumbing:
    def test_env_var_default(self, monkeypatch):
        monkeypatch.setenv("OEPARTITIONS_PREC", "123")
        args = cli.build_parser().parse_args(["verify"])
        assert args.prec == 123

    def test_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("OEPARTITIONS_PREC", "123")
        args = cli.build_parser().parse_args(["--prec", "99", "verify"])
        assert args.prec == 99
