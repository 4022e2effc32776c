"""Command-line front end.

Subcommands:
  compute   tables of OE(n) / OEbar(n) by series, enumeration, or the
            Watson-product route
  verify    run the identity / asymptotic / special-function check suites;
            exit code 0 iff everything passes
  ratio     exact-vs-asymptotic convergence tables for the leading laws
  gf-eval   O(q) and its even and odd parts at q = e^(-eps), summed at the
            point from Andrews' series (circle.oe_parts_eval), against the
            leading asymptotic constant
  circle    end-to-end circle-method report for one n

Tables are emitted as CSV (default) or JSON; reports as JSON.  The working
precision is --prec bits, 256 by default; below MIN_PREC = 64 bits it is
refused, and above CEILINGS["--prec"] = 1024 bits without --force.  Every
number printed is computed under specfun.guarded at that precision: this
module sets no working precision of its own.

A command checks its arguments, and that its --output can be written, before
it imports the layers it runs: nothing here imports mpmath or another module
of the package at import time, so a refused command loads neither, and
compute loads only the series or only the enumeration layer, neither of
which imports mpmath.  gf-eval reads its --eps grid once, as floats, and
refuses it before it imports mpmath; it then sums at those floats as mpf.

CEILINGS is the one table of work guards: the largest size each request may
build without --force, the n enumerated or reported on by the circle method,
or the order of the series summed, and the largest --prec of every command
and --grid of circle.
_refuse_above refuses a request above its row in one line, at the point where
the command has read its size and before it imports a numeric layer.
"""

import argparse
import math
import os
import sys
from collections import namedtuple

# the largest n (enumeration, circle report) or series order each request
# builds without --force; "compute" is its two series methods, series and
# watson-product.  gf-eval builds no series: its row bounds 300/eps, the
# order a coefficient series would need, as a work guard.  "--prec" bounds
# every command's precision in bits, and "circle --grid" the minor-arc grid
CEILINGS = {"compute --method enum": 60, "compute": 100000, "ratio": 20000, "gf-eval": 60000,
            "verify": 20000, "circle": 6400, "circle --grid": 10000, "--prec": 1024}
# the least --prec; the verify suites are measured to pass from it up, the
# specfun rows within 40 of their 256 units of 2^-prec at 64 to 1024 bits
MIN_PREC = 64

# the genfun, enumeration and asympt names compute and ratio read for each --kind
Kind = namedtuple("Kind", "series enum law")
KINDS = {
    "oe": Kind("oe_series", "enum_oe", "oe_asymptotic"),
    "oebar": Kind("oebar_series_hypergeometric", "enum_oebar", "oebar_asymptotic"),
}


def _parse_list(text, convert, option):
    """A comma-separated option value, or a one-line usage error."""
    try:
        return [convert(s) for s in text.split(",")]
    except ValueError:
        raise SystemExit(f"{option} needs a comma-separated list of numbers, got {text!r}") from None


def _refuse_above(request, size, force):
    """Refuse a request whose size is above its row of CEILINGS, unless
    forced, and one that is not an int up to sys.maxsize even so: no series
    or list reaches that size, and the build would run without end.  That
    size is named in float form to 3 digits, 3e+302 and not its 303 digits,
    or inf."""
    ceiling = CEILINGS[request]
    if not (isinstance(size, int) and size <= sys.maxsize):
        from decimal import Context, Decimal  # exact for an int past the float range

        shown = f"{Decimal(size).normalize(Context(prec=3)):e}" if size < math.inf else size
        raise SystemExit(f"{request}: size {shown} above sys.maxsize, which --force does not lift")
    if size > ceiling and not force:
        raise SystemExit(f"{request}: size {size} above the ceiling {ceiling}; pass --force")


def _cannot_write(path, exc):
    return SystemExit(f"cannot write --output {path}: {exc.strerror}")


def _check_output(path):
    """Refuse an --output path that cannot be opened for writing, before any
    work.  The probe appends, so it truncates nothing, and it removes a file
    it created."""
    created = not os.path.lexists(path)
    try:
        open(path, "a").close()
    except OSError as exc:
        raise _cannot_write(path, exc) from None
    if created:
        os.remove(path)


def _emit(args, table, header=None):
    """Write rows under header as a CSV or JSON table, or a report (no header)
    as JSON, to the --output file or to stdout without one.  Each format
    imports its own writer."""
    if header is not None and args.format == "csv":
        import csv
        import io

        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerows([header, *table])
        text = buf.getvalue()
    else:
        import json

        if header is not None:
            table = [dict(zip(header, r)) for r in table]
        text = json.dumps(table, indent=2) + "\n"
    if args.output:
        try:
            with open(args.output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _cannot_write(args.output, exc) from None
    else:
        sys.stdout.write(text)


def cmd_compute(args):
    n_max, kind = args.n_max, KINDS[args.kind]
    if n_max < 0:
        raise SystemExit("--n-max must be >= 0")
    _refuse_above("compute --method enum" if args.method == "enum" else "compute", n_max, args.force)
    if args.method == "watson-product" and args.kind != "oebar":
        raise SystemExit("--method watson-product applies to --kind oebar only")
    if args.method == "enum":
        from . import enumeration

        count = getattr(enumeration, kind.enum)
        values = [count(n) for n in range(n_max + 1)]
    else:
        from . import genfun

        name = "oebar_series_product" if args.method == "watson-product" else kind.series
        values = getattr(genfun, name)(n_max).coeffs
    _emit(args, enumerate(values), ["n", "value"])
    return 0


def _shown(value):
    """An mpf as its float where that is 0 or a normal float, and otherwise,
    past the float range or below its normal range (2.2e-308, under which a
    float keeps fewer digits), as its 17-digit mpmath string, so that no
    table holds inf or a subnormal."""
    from mpmath import mp

    as_float = float(value)
    normal = math.isfinite(as_float) and (abs(as_float) >= sys.float_info.min or not value)
    return as_float if normal else mp.nstr(value, 17)


def _ratio_rows(kind, ns, prec):
    from mpmath import mpf

    from . import asympt, genfun

    series, law = getattr(genfun, kind.series)(max(ns)), getattr(asympt, kind.law)
    rows = []
    for n in ns:
        exact, approx = series.coefficient(n), law(n, prec)
        rows.append((n, exact, _shown(approx), _shown(mpf(exact) / approx)))
    return rows


def cmd_ratio(args):
    ns = sorted(_parse_list(args.n, int, "--n"))
    if ns[0] < 1:
        raise SystemExit("--n values must be >= 1")
    _refuse_above("ratio", ns[-1], args.force)
    from . import specfun

    rows = specfun.guarded(_ratio_rows)(KINDS[args.kind], ns, args.prec)
    _emit(args, rows, ["n", "exact", "asymptotic", "ratio"])
    return 0


def _gf_rows(eps_grid, prec):
    """O, O_e and O_o at q = e^(-eps), each with its leading asymptotic.

    O_e and O_o are circle.oe_parts_eval's at tau = i eps / (2 pi), from one
    pass of the fixed-point loop that sums Obar, and O is their sum.  A
    point past that loop's term budget ends the command in one line.  A
    value outside the normal float range is printed by _shown from its mpf,
    to 17 digits in exponent form: above it, O(q) below about eps = 6.9e-4,
    and below it, O_o and its ratio past about eps = 708.4.
    """
    from mpmath import mp, mpc

    from . import asympt, circle

    rows = []
    for eps in eps_grid:
        try:
            even, odd = circle.oe_parts_eval(mpc(0, eps / (2 * mp.pi)), prec)
        except ArithmeticError as exc:
            raise SystemExit(f"gf-eval at eps {float(eps)}: {exc}") from None
        for name, value in (("full", even + odd), ("even", even), ("odd", odd)):
            value, lead = value.real, asympt.gf_asymptotic(eps, name, prec)
            rows.append((float(eps), name, _shown(value), _shown(lead), _shown(value / lead)))
    return rows


def _gf_order(eps):
    """The size gf-eval's ceiling reads at q = e^(-eps), for a float eps > 0:
    300/eps, the order a coefficient series of O(q) would need there.  Below
    about 1.7e-306 the quotient overflows, and the order is inf, above any
    ceiling."""
    order = 300 / eps
    return max(1, int(order)) if order < math.inf else order


def _refuse_eps(grid, force):
    """Refuse a grid of floats, the values the order and the printed rows are
    taken in, unless each is finite and > 0, has e^-eps above 0 as a float
    (eps up to about 745.13; past it the odd row would print 0.0, and the
    sum would pay 1.44 eps bits), and, without force, its largest order is
    within the ceiling."""
    if not all(0 < eps < math.inf for eps in grid):
        raise SystemExit("--eps values must be finite and > 0")
    if any(math.exp(-eps) == 0.0 for eps in grid):
        raise SystemExit("--eps values must be at most about 745.13, past which e^-eps is 0.0")
    _refuse_above("gf-eval", _gf_order(min(grid)), force)


def cmd_gf_eval(args):
    floats = _parse_list(args.eps, float, "--eps")
    _refuse_eps(floats, args.force)
    from mpmath import mpf

    from . import specfun

    rows = specfun.guarded(_gf_rows)([mpf(eps) for eps in floats], args.prec)
    _emit(args, rows, ["eps", "branch", "series_value", "asymptotic", "ratio"])
    return 0


def cmd_circle(args):
    _refuse_above("circle", args.n, args.force)
    _refuse_above("circle --grid", args.grid, args.force)
    from . import circle

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
    from . import genfun

    oe = genfun.oe_series(order)
    checks = []
    sj = [genfun.sj_series(j, order) for j in range(4)]
    even, odd = genfun.parity_split(order)
    checks.append(("O_e = S0+S3", even == sj[0] + sj[3]))
    checks.append(("O_o = S1+S2", odd == sj[1] + sj[2]))
    hyp = genfun.oebar_series_hypergeometric(order)
    checks.append(("OEbar hypergeometric = Watson core / theta(-q)",
                   hyp == genfun.oebar_series_product(order)))
    f = genfun.f_mock_series(order)
    checks.append(("Watson: f (q)_inf = core sum",
                   f * genfun.euler_phi_series(order) == genfun.watson_core(order)))
    classical = genfun.classical_identity_suite(order, sj)
    checks += [(f"classical: {rec['name']}", rec["equal"]) for rec in classical]
    # the suite builds (-q;q)_inf as phi_2/phi_1, so this row reads
    # theta(-q) phi_2/phi_1 = phi_1: Gauss's theorem in sparse form
    (distinct,) = [rec["rhs"] for rec in classical if rec["name"] == "gauss-distinct-parts"]
    theta = genfun._bilateral(order, lambda n: n * n)  # theta(-q), as the product route builds it
    checks.append(("Gauss: theta(-q) (-q)_inf = (q)_inf",
                   theta * distinct == genfun.euler_phi_series(order)))
    checks.append(("OE coefficients nonnegative", all(c >= 0 for c in oe.coeffs)))
    checks.append(("OEbar coefficients nonnegative", all(c >= 0 for c in hyp.coeffs)))
    return checks


def _verify_asymptotics(prec):
    from mpmath import mpf

    from . import asympt, genfun

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


def _verify_specfun(prec):
    """Q = root_R(1/2) and Li2(Q) against their closed forms, phi_nu against
    Zagier's lemma at Q (which checks O's V, phi's prefactor sqrt(eps/pi),
    its curvature sqrt5/2 and its eps/6 term), and Wright's P_0 against I_-1."""
    from mpmath import mp, mpf

    from . import asympt, specfun

    checks = []
    q_gold = asympt.root_R(0.5, prec)  # the Q of R + R^(1/2) = 1, (3 - sqrt5)/2
    tol = mpf(2) ** (8 - prec)  # 256 units of 2^-prec
    checks.append(("Q^(1/2) + Q = 1", abs(mp.sqrt(q_gold) + q_gold - 1) < tol))
    target = mp.pi ** 2 / 15 - mp.log((1 + mp.sqrt(5)) / 2) ** 2
    checks.append(("Li2(Q) special value", abs(specfun.dilog(q_gold, prec) - target) < tol))
    # O's m-th summand is q^(m(m+1)/2)/(q^2;q^2)_m: A = 1/2, B = 1/4 in q^2 = e^(-2 eps)
    eps, nu = mpf("0.01"), mpf("1.3")
    lemma = mp.exp(asympt.zagier_log_expansion(0.5, 0.25, q_gold, 2 * eps, nu, prec))
    checks.append(("phi = e^(Zagier at Q)", abs(asympt.phi_nu(eps, nu, prec) / lemma - 1) < tol))
    p0 = specfun.wright_p(0, 10, 6, prec)
    i1 = specfun.bessel_i(-1, 20, prec)
    checks.append(("P0(10) ~ I_-1(20)", abs(p0 - i1) / i1 < mpf("0.001")))
    return checks


def _verify_circle(prec):
    from mpmath import mpf

    from . import circle, genfun

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
    _refuse_above("verify", args.order, args.force)
    from . import specfun

    # looked up when the command runs, so a replaced suite takes effect
    suites = [("identities", _verify_identities, args.order),
              ("asymptotics", specfun.guarded(_verify_asymptotics), args.prec),
              ("specfun", specfun.guarded(_verify_specfun), args.prec),
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
    parser.set_defaults(func=func)


def build_parser():
    p = argparse.ArgumentParser(
        prog="oepartitions",
        description="Odd-even partition asymptotics: exact counts, identities, "
        "Tauberian and circle-method verification.",
    )
    p.add_argument("--prec", type=int, default=256, help="working precision in bits")
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

    for command in (c, r, g, v, ci):  # each has a row of CEILINGS
        command.add_argument("--force", action="store_true", help="lift the command's ceilings and --prec's")
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    if args.prec < MIN_PREC:
        raise SystemExit(f"--prec must be >= {MIN_PREC}, got {args.prec}")
    _refuse_above("--prec", args.prec, args.force)
    if getattr(args, "output", None):
        _check_output(args.output)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
