"""Command-line front end.

Subcommands:
  compute   tables of OE(n) / OEbar(n) by series, enumeration, or the
            Watson-product route
  verify    run the identity / asymptotic / special-function check suites;
            exit code 0 iff everything passes
  ratio     exact-vs-asymptotic convergence tables for the leading laws
  gf-eval   generating-function values at q = e^(-eps) against the leading
            asymptotic constant
  circle    end-to-end circle-method report for one n

Tables are emitted as CSV (default) or JSON; reports as JSON.  The default
working precision is 256 bits, overridable with --prec or the
OEPARTITIONS_PREC environment variable.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

from mpmath import mp, mpf, workprec

from . import asympt, circle, enumeration, genfun
from .series import evaluate_at

ENUM_COST_GUARD = 50


def _default_prec():
    return int(os.environ.get("OEPARTITIONS_PREC", "256"))


def _parse_list(text, convert, option):
    """A comma-separated option value, or a one-line usage error."""
    try:
        return [convert(s) for s in text.split(",")]
    except ValueError:
        raise SystemExit(f"{option} needs a comma-separated list of numbers, got {text!r}") from None


def _emit(args, rows, header):
    if args.format == "json":
        text = json.dumps([dict(zip(header, r)) for r in rows], indent=2) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)
        text = buf.getvalue()
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, obj):
    text = json.dumps(obj, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_compute(args):
    n_max = args.n_max
    if n_max < 0:
        raise SystemExit("--n-max must be >= 0")
    if args.method == "enum" and n_max > ENUM_COST_GUARD and not args.force:
        raise SystemExit(
            f"enumeration beyond n={ENUM_COST_GUARD} is exponential; pass --force to insist"
        )
    if args.method == "series":
        series = (
            genfun.oe_series(n_max)
            if args.kind == "oe"
            else genfun.oebar_series_hypergeometric(n_max)
        )
        values = list(series.coeffs)
    elif args.method == "enum":
        fn = enumeration.enum_oe if args.kind == "oe" else enumeration.enum_oebar
        values = [fn(n) for n in range(n_max + 1)]
    elif args.method == "watson-product":
        if args.kind != "oebar":
            raise SystemExit("--method watson-product applies to --kind oebar only")
        values = list(genfun.oebar_series_product(n_max).coeffs)
    rows = [(n, v) for n, v in enumerate(values)]
    _emit(args, rows, ["n", "value"])
    return 0


def cmd_ratio(args):
    ns = sorted(_parse_list(args.n, int, "--n"))
    if ns[0] < 1:
        raise SystemExit("--n values must be >= 1")
    order = max(ns)
    if order > args.max_order and not args.force:
        raise SystemExit(
            f"series order {order} above the ceiling {args.max_order}; pass --force"
        )
    series = (
        genfun.oe_series(order)
        if args.kind == "oe"
        else genfun.oebar_series_hypergeometric(order)
    )
    law = asympt.oe_asymptotic if args.kind == "oe" else asympt.oebar_asymptotic
    rows = []
    with workprec(args.prec):
        for n in ns:
            exact = series.coefficient(n)
            approx = law(n, args.prec)
            rows.append((n, exact, float(approx), float(mpf(exact) / approx)))
    _emit(args, rows, ["n", "exact", "asymptotic", "ratio"])
    return 0


def cmd_gf_eval(args):
    eps_grid = _parse_list(args.eps, mpf, "--eps")
    if min(eps_grid) <= 0:
        raise SystemExit("--eps values must be > 0")
    if args.order is not None and args.order < 0:
        raise SystemExit("--order must be >= 0")
    if min(eps_grid) < mpf("0.005") and not args.force:
        raise SystemExit("eps below 0.005 needs a very long series; pass --force")
    rows = []
    with workprec(args.prec):
        growth_c = float(mp.pi / mp.sqrt(5))
        for eps in eps_grid:
            order = args.order or int(300 / float(eps))
            full = genfun.oe_series(order)
            even, odd = genfun.parity_split(order)
            point = mp.e ** (-eps)
            for name, series, which in (
                ("full", full, "full"),
                ("even", even, "even"),
                ("odd", odd, "odd"),
            ):
                res = evaluate_at(series, point, args.prec, growth_c=growth_c)
                lead = asympt.gf_asymptotic(eps, which, args.prec)
                rows.append(
                    (
                        float(eps),
                        name,
                        float(res.value.real),
                        float(lead),
                        float(res.value.real / lead),
                    )
                )
    _emit(args, rows, ["eps", "branch", "series_value", "asymptotic", "ratio"])
    return 0


def cmd_circle(args):
    if mpf(args.M) <= circle.m_threshold(args.prec):
        sys.stderr.write(
            "warning: M is at or below the 5.543... threshold; the minor-arc "
            "bound is not an error term there\n"
        )
    report = circle.circle_report(args.n, big_m=args.M, prec=args.prec, grid=args.grid)
    _emit_json(args, report)
    return 0 if report["recovered_coefficient"] == report["exact_coefficient"] else 1


# ---------------------------------------------------------------------------
# verify

def _verify_identities(order, prec):
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


def _verify_asymptotics(prec):
    checks = []
    oe = genfun.oe_series(40)
    checks.append(
        ("OE(n) <= OE(n+2) for 1 <= n <= 38",
         all(oe.coeffs[n] <= oe.coeffs[n + 2] for n in range(1, 39)))
    )
    with workprec(prec):
        grid = [mpf("0.05"), mpf("0.02"), mpf("0.01")]
        for j in range(4):
            devs = []
            for eps in grid:
                frame = asympt.NuFrame(nu0=asympt.nu0_for_eps(eps, prec), j=j)
                val = asympt.sj_theta_asymptotic(frame, eps, prec)
                norm = val * 2 * mp.sqrt(2 * mp.sqrt(5)) * mp.e ** (-mp.pi ** 2 / (20 * eps))
                devs.append(abs(norm - 1))
            checks.append(
                (f"S_{j} normalized drift to 1", all(a > b for a, b in zip(devs, devs[1:])))
            )
    return checks


def _verify_specfun(prec):
    from . import specfun

    checks = []
    with workprec(prec + 16):
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
        rec, _ = circle.cauchy_full_integral(n, prec=max(prec, 160))
        exact = genfun.oebar_series_hypergeometric(n).coefficient(n)
        checks.append((f"Cauchy recovery n={n}", rec == exact))
    geom = circle.ArcGeometry(n=100, big_m=mpf(6))
    bound = circle.minor_arc_bound(geom, prec)
    emp = circle.minor_arc_empirical_max(geom, grid=50, prec=min(prec, 96))
    checks.append(("minor-arc empirical max below proven bound", emp <= bound.bound_value))
    checks.append(("M = 6 clears the threshold", bound.clears_threshold))
    return checks


def cmd_verify(args):
    if args.order < 0:
        raise SystemExit("--order must be >= 0")
    checks = []
    if args.suite in ("identities", "all"):
        checks += _verify_identities(args.order, args.prec)
    if args.suite in ("asymptotics", "all"):
        checks += _verify_asymptotics(args.prec)
    if args.suite in ("specfun", "all"):
        checks += _verify_specfun(args.prec)
    if args.suite in ("circle", "all"):
        checks += _verify_circle(args.prec)
    failed = 0
    for name, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name}")
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


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
    c.add_argument("--kind", choices=["oe", "oebar"], required=True)
    c.add_argument("--n-max", type=int, required=True)
    c.add_argument("--method", choices=["series", "enum", "watson-product"],
                   default="series")
    c.add_argument("--format", choices=["csv", "json"], default="csv")
    c.add_argument("--output")
    c.add_argument("--force", action="store_true")
    c.set_defaults(func=cmd_compute)

    r = sub.add_parser("ratio", help="exact vs asymptotic convergence table")
    r.add_argument("--kind", choices=["oe", "oebar"], required=True)
    r.add_argument("--n", required=True, help="comma-separated list, e.g. 100,1000,10000")
    r.add_argument("--max-order", type=int, default=20000)
    r.add_argument("--format", choices=["csv", "json"], default="csv")
    r.add_argument("--output")
    r.add_argument("--force", action="store_true")
    r.set_defaults(func=cmd_ratio)

    g = sub.add_parser("gf-eval", help="generating function vs leading asymptotics")
    g.add_argument("--eps", default="0.05,0.02,0.01", help="comma-separated eps grid")
    g.add_argument("--order", type=int, default=None,
                   help="series order (default: 300/eps per row)")
    g.add_argument("--format", choices=["csv", "json"], default="csv")
    g.add_argument("--output")
    g.add_argument("--force", action="store_true")
    g.set_defaults(func=cmd_gf_eval)

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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
