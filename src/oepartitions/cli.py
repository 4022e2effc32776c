"""Command-line front end.

Subcommands:
  compute   tables of OE(n) / OEbar(n) by series, enumeration, or the
            Watson-product route
  verify    run the identity / asymptotic / special-function check suites;
            exit code 0 iff everything passes
  ratio     exact-vs-asymptotic convergence tables for the leading laws
  gf-eval   generating-function values at q = e^(-eps), summed to order
            max(1, 300/eps), against the leading asymptotic constant; a row whose
            tail bound is above the printed precision is refused
  circle    end-to-end circle-method report for one n

Tables are emitted as CSV (default) or JSON; reports as JSON.  The default
working precision is 256 bits, overridable with --prec or the
OEPARTITIONS_PREC environment variable; below MIN_PREC = 64 bits it is refused.
Every number printed is computed under specfun.guarded at that precision:
this module sets no working precision of its own.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections import namedtuple

from mpmath import mp, mpf

from . import asympt, circle, enumeration, genfun, specfun
from .series import PowerSeries, SeriesError, evaluate_at

ENUM_COST_GUARD = 50
# ratio builds one series to the largest n; --force lifts this ceiling
RATIO_ORDER_CEILING = 20000
# gf-eval prints floats: a tail bound above 2^-53 of the value shows in the output
PRINTED_PRECISION = mpf(2) ** -53
# the verify tolerances are 2^-(prec - 56), which pass anything at 56 bits
MIN_PREC = 64

# what compute and ratio read for each --kind
Kind = namedtuple("Kind", "series enum law")
KINDS = {
    "oe": Kind(genfun.oe_series, enumeration.enum_oe, asympt.oe_asymptotic),
    "oebar": Kind(genfun.oebar_series_hypergeometric, enumeration.enum_oebar,
                  asympt.oebar_asymptotic),
}


def _default_prec():
    text = os.environ.get("OEPARTITIONS_PREC", "256")
    try:
        return int(text)
    except ValueError:
        raise SystemExit(f"OEPARTITIONS_PREC must be an integer, got {text!r}") from None


def _parse_list(text, convert, option):
    """A comma-separated option value, or a one-line usage error."""
    try:
        return [convert(s) for s in text.split(",")]
    except ValueError:
        raise SystemExit(f"{option} needs a comma-separated list of numbers, got {text!r}") from None


def _emit(args, table, header=None):
    """Write rows under header as a CSV or JSON table, or a report (no header)
    as JSON, to the --output file or to stdout without one."""
    if header is None:
        text = json.dumps(table, indent=2) + "\n"
    elif args.format == "json":
        text = json.dumps([dict(zip(header, r)) for r in table], indent=2) + "\n"
    else:
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *table])
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args):
    n_max, kind = args.n_max, KINDS[args.kind]
    if n_max < 0:
        raise SystemExit("--n-max must be >= 0")
    if args.method == "enum" and n_max > ENUM_COST_GUARD and not args.force:
        raise SystemExit(
            f"enumeration beyond n={ENUM_COST_GUARD} is exponential; pass --force to insist"
        )
    if args.method == "watson-product" and args.kind != "oebar":
        raise SystemExit("--method watson-product applies to --kind oebar only")
    if args.method == "enum":
        values = [kind.enum(n) for n in range(n_max + 1)]
    else:
        build = genfun.oebar_series_product if args.method == "watson-product" else kind.series
        values = build(n_max).coeffs
    _emit(args, enumerate(values), ["n", "value"])
    return 0


@specfun.guarded
def _ratio_rows(kind, ns, prec):
    series = kind.series(max(ns))
    rows = []
    for n in ns:
        exact, approx = series.coefficient(n), kind.law(n, prec)
        rows.append((n, exact, float(approx), float(mpf(exact) / approx)))
    return rows


def cmd_ratio(args):
    ns = sorted(_parse_list(args.n, int, "--n"))
    if ns[0] < 1:
        raise SystemExit("--n values must be >= 1")
    if ns[-1] > RATIO_ORDER_CEILING and not args.force:
        raise SystemExit(
            f"series order {ns[-1]} above the ceiling {RATIO_ORDER_CEILING}; pass --force"
        )
    rows = _ratio_rows(KINDS[args.kind], ns, args.prec)
    _emit(args, rows, ["n", "exact", "asymptotic", "ratio"])
    return 0


@specfun.guarded
def _gf_rows(eps_grid, prec):
    """O, O_e and O_o at q = e^(-eps), each with its leading asymptotic.

    The parity parts are series in q^2, summed at q^2 with half the terms:
    O_e(q) = E(q^2) with E = sum_j c_(2j) w^j, and O_o(q) = q D(q^2) with
    D = sum_j c_(2j+1) w^j, the c_k read off oe_series.  Where |c_k| <=
    e^(C sqrt k), |c_(2j)| <= e^(C sqrt2 sqrt j), and past D's order J,
    2j + 1 <= (2 + 1/(J+1)) j gives |c_(2j+1)| <= e^(C sqrt(2 + 1/(J+1)) sqrt j).
    oe_series is summed once, to the grid's largest order, and truncated.
    """
    rows = []
    growth_c = mp.pi / mp.sqrt(5)
    orders = [max(1, int(300 / float(eps))) for eps in eps_grid]
    top = genfun.oe_series(max(orders))
    for eps, order in zip(eps_grid, orders):
        full = top.truncate(order)
        q = mp.e ** (-eps)
        even, odd = PowerSeries(full.coeffs[::2]), PowerSeries(full.coeffs[1::2])
        parts = (("full", full, q, 1, growth_c),
                 ("even", even, q * q, 1, growth_c * mp.sqrt(2)),
                 ("odd", odd, q * q, q, growth_c * mp.sqrt(2 + mpf(1) / (odd.order + 1))))
        for name, series, point, factor, growth in parts:
            try:
                res = evaluate_at(series, point, prec, growth_c=growth)
            except SeriesError as exc:
                raise SystemExit(f"gf-eval at eps {float(eps)}, order {order}: {exc}") from None
            if res.tail_bound > abs(res.value) * PRINTED_PRECISION:
                raise SystemExit(
                    f"gf-eval at eps {float(eps)}, order {order}: the {name} series' tail "
                    f"bound {mp.nstr(res.tail_bound, 3)} is above 2^-53 of its value "
                    f"{mp.nstr(res.value, 3)}"
                )
            value, lead = factor * res.value.real, asympt.gf_asymptotic(eps, name, prec)
            rows.append((float(eps), name, float(value), float(lead), float(value / lead)))
    return rows


def cmd_gf_eval(args):
    eps_grid = _parse_list(args.eps, mpf, "--eps")
    # float, because the order and the printed rows are taken in floats
    if not all(0 < float(eps) < math.inf for eps in eps_grid):
        raise SystemExit("--eps values must be finite and > 0")
    if min(eps_grid) < mpf("0.005") and not args.force:
        raise SystemExit("eps below 0.005 needs a very long series; pass --force")
    rows = _gf_rows(eps_grid, args.prec)
    _emit(args, rows, ["eps", "branch", "series_value", "asymptotic", "ratio"])
    return 0


def cmd_circle(args):
    report = circle.circle_report(args.n, big_m=args.M, prec=args.prec, grid=args.grid)
    if not report["clears_threshold"]:
        sys.stderr.write(
            "warning: M is at or below the 5.543... threshold; the minor-arc "
            "bound is not an error term there\n"
        )
    _emit(args, report)
    return 0 if report["recovered_coefficient"] == report["exact_coefficient"] else 1


# ---------------------------------------------------------------------------
# verify

def _verify_identities(order):
    oe = genfun.oe_series(order)
    checks = []
    sj = [genfun.sj_series(j, order) for j in range(4)]
    checks.append(("S0+S1+S2+S3 = O", (sj[0] + sj[1]) + (sj[2] + sj[3]) == oe))
    even, odd = genfun.parity_split(order)
    checks.append(("O_e + O_o = O", even + odd == oe))
    checks.append(("O_e = S0+S3", even == sj[0] + sj[3]))
    checks.append(("O_o = S1+S2", odd == sj[1] + sj[2]))
    hyp = genfun.oebar_series_hypergeometric(order)
    checks.append(("OEbar hypergeometric = (-q)_inf f(q)", hyp == genfun.oebar_series_product(order)))
    watson = genfun.f_mock_series(order) * genfun.euler_phi_series(order)
    checks.append(("Watson: f (q)_inf = core sum", watson == genfun.watson_core(order)))
    for rec in genfun.classical_identity_suite(order):
        checks.append((f"classical: {rec['name']}", rec["equal"]))
    checks.append(("OE coefficients nonnegative", all(c >= 0 for c in oe.coeffs)))
    checks.append(("OEbar coefficients nonnegative", all(c >= 0 for c in hyp.coeffs)))
    return checks


@specfun.guarded
def _verify_asymptotics(prec):
    oe = genfun.oe_series(40).coeffs
    checks = [("OE(n) <= OE(n+2) for 1 <= n <= 38", all(oe[n] <= oe[n + 2] for n in range(1, 39)))]
    grid = [mpf("0.05"), mpf("0.02"), mpf("0.01")]
    for j in range(4):
        devs = []
        for eps in grid:
            frame = asympt.NuFrame(nu0=asympt.nu0_for_eps(eps, prec), j=j)
            val = asympt.sj_theta_asymptotic(frame, eps, prec)
            # S_j is half of O_e or O_o to leading order
            devs.append(abs(val * 2 / asympt.gf_asymptotic(eps, "even", prec) - 1))
        checks.append(
            (f"S_{j} normalized drift to 1", all(a > b for a, b in zip(devs, devs[1:])))
        )
    return checks


@specfun.guarded
def _verify_specfun(prec):
    checks = []
    q_gold = (3 - mp.sqrt(5)) / 2
    tol = mpf(2) ** (-(prec - 56))
    checks.append(("Q^(1/2) + Q = 1", abs(mp.sqrt(q_gold) + q_gold - 1) < tol))
    li = specfun.dilog(q_gold, prec)
    target = mp.pi ** 2 / 15 - mp.log((1 + mp.sqrt(5)) / 2) ** 2
    checks.append(("Li2(Q) special value", abs(li - target) < tol))
    bracket = (mp.pi ** 2 / 6 - li - (mp.log(q_gold) / 2) ** 2) / 2
    checks.append(("bracket = pi^2/20", abs(bracket - mp.pi ** 2 / 20) < tol))
    p0 = specfun.wright_p(0, 10, 6, prec)
    i1 = specfun.bessel_i(-1, 20, prec)
    checks.append(("P0(10) ~ I_-1(20)", abs(p0 - i1) / i1 < mpf("0.001")))
    return checks


def _verify_circle(prec):
    checks = []
    for n in (10, 50):
        rec, _ = circle.cauchy_full_integral(n, prec)
        exact = genfun.oebar_series_product(n).coefficient(n)  # not the series recovery samples
        checks.append((f"Cauchy recovery n={n}", rec == exact))
    geom = circle.ArcGeometry(n=100, big_m=mpf(6))
    bound = circle.minor_arc_bound(geom, prec)
    emp = circle.minor_arc_empirical_max(geom, grid=50)
    checks.append(("minor-arc empirical max below proven bound", emp <= bound.bound_value))
    checks.append(("M = 6 clears the threshold", bound.clears_threshold))
    return checks


def cmd_verify(args):
    if args.order < 0:
        raise SystemExit("--order must be >= 0")
    # looked up when the command runs, so a replaced suite takes effect
    suites = [("identities", _verify_identities, args.order),
              ("asymptotics", _verify_asymptotics, args.prec),
              ("specfun", _verify_specfun, args.prec),
              ("circle", _verify_circle, args.prec)]
    checks = [check for name, run, arg in suites if args.suite in (name, "all")
              for check in run(arg)]
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def _table_options(parser, func):
    """The options every table command takes, after its own."""
    parser.add_argument("--format", choices=["csv", "json"], default="csv")
    parser.add_argument("--output")
    parser.add_argument("--force", action="store_true")
    parser.set_defaults(func=func)


def build_parser():
    p = argparse.ArgumentParser(
        prog="oepartitions",
        description="Odd-even partition asymptotics: exact counts, identities, "
        "Tauberian and circle-method verification.",
    )
    p.add_argument("--prec", type=int, default=_default_prec(),
                   help="working precision in bits (default 256 or $OEPARTITIONS_PREC)")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="tables of OE(n) or OEbar(n)")
    c.add_argument("--kind", choices=KINDS, required=True)
    c.add_argument("--n-max", type=int, required=True)
    c.add_argument("--method", choices=["series", "enum", "watson-product"],
                   default="series")
    _table_options(c, cmd_compute)

    r = sub.add_parser("ratio", help="exact vs asymptotic convergence table")
    r.add_argument("--kind", choices=KINDS, required=True)
    r.add_argument("--n", required=True, help="comma-separated list, e.g. 100,1000,10000")
    _table_options(r, cmd_ratio)

    g = sub.add_parser("gf-eval", help="generating function vs leading asymptotics")
    g.add_argument("--eps", default="0.05,0.02,0.01", help="comma-separated eps grid")
    _table_options(g, cmd_gf_eval)

    v = sub.add_parser("verify", help="run a named check suite")
    v.add_argument("--suite", choices=["identities", "asymptotics", "specfun",
                                       "circle", "all"], default="all")
    v.add_argument("--order", type=int, default=200)
    v.set_defaults(func=cmd_verify)

    ci = sub.add_parser("circle", help="circle-method report for one n")
    ci.add_argument("--n", type=int, required=True)
    ci.add_argument("--M", type=float, default=6.0)
    ci.add_argument("--grid", type=int, default=100)
    ci.add_argument("--output")
    ci.set_defaults(func=cmd_circle)

    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.prec < MIN_PREC:
        raise SystemExit(f"--prec (or OEPARTITIONS_PREC) must be >= {MIN_PREC}, got {args.prec}")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
