"""The four workloads: operation lists drawn from a seed, how to run each
operation, its reference, and the check that judges the result.

An operation is an `Op(kind, args)` of plain Python values.  In-process
kinds run in a worker process through `execute`; `cli` operations run one
`python -m oepartitions.cli` subprocess each.  References are computed in
the parent before any timed pass.  A check returns a `Verdict`; `bits` is
-log2(relative error) for results that have one.

`Op.known` names a defect of the package that the operation is known to hit
(see README.md).  A failure on such an operation is still a failure and is
counted; it only does not make the run's `correct` false.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass

from mpmath import mp, mpc, mpf, workprec

import bench_refs as refs
from bench_trace import CLI_COMMANDS

CANCELLATION = "bilateral Watson sum cancels near the saddle at prec 96"
CLI_TRACEBACK = "malformed CLI input ends in a traceback"
TRACEBACK = "Traceback (most recent call last)"
ARC_PREC = 96
CAUCHY_PREC = 192
EVAL_PREC = 96
BIG_M = 6


@dataclass(frozen=True)
class Op:
    kind: str
    args: tuple
    known: str = ""


@dataclass(frozen=True)
class Verdict:
    ok: bool
    reason: str = ""
    bits: float | None = None


def rel_bits(got, want, cap):
    """-log2 of the relative error, at most `cap` (the precision the result was asked for)."""
    err = abs(got - want) / abs(want)
    return cap if err == 0 else min(cap, -float(mp.log(err, 2)))


# ---------------------------------------------------------------------------
# operation lists


def exact_series(rng):
    # sizes keep each operation's latency well apart from the next one's
    n = rng.randint(3000, 3060)
    return [
        Op("oebar_product", (n,)),
        Op("oebar_hypergeometric", (n,)),
        Op("oe_series", (4 * n,)),
        Op("watson", (rng.randint(1000, 1020),)),
        Op("identity_suite", (rng.randint(580, 600),)),
        Op("enum_oe", (40,)),
        Op("enum_oebar", (30,)),
    ]


def circle_arcs(rng):
    # n in [12, 14] all take 504 major-arc and 576 minor-arc integrand calls,
    # and n in [25, 26] both split the major arc into 9 panels
    small = rng.randint(12, 14)
    return [
        Op("major_arc", (rng.randint(25, 26), "wright")),
        Op("major_arc", (small, "pair")),
        Op("minor_arc", (small, 1)),  # I1 + I2 is checked with the major arc at index 1
        Op("cauchy", (rng.randint(104, 106),)),
        Op("cauchy", (rng.randint(107, 109),)),
        Op("empirical_max", (rng.randint(100, 104), 60)),
    ]


def pointwise_eval(rng):
    ops = []
    bands = 16
    for b in range(bands):  # n log-uniform in [400, 25600], one draw per band
        n = round(400 * 64 ** ((b + rng.random()) / bands))
        y = 1 / (4 * math.sqrt(3 * n))
        xs = [0.0] + [(1.2 * k + 1.2 * rng.random()) * y for k in range(5)]
        ops += [Op("oebar_eval", (x, y), CANCELLATION) for x in xs]
    # minor-arc points, x up to 1/2 and n up to 1600; the last band holds two
    # points, the slowest calls of the workload, so that op_s.tail falls
    # inside their repeats
    for k, lo in ((0, 0.18), (1, 0.28), (2, 0.38), (3, 0.48), (3, 0.47)):
        n = round(400 * 4 ** ((k + 0.5) / 4) * rng.uniform(1.0, 1.02))
        ops.append(Op("oebar_eval", (lo + rng.uniform(0.0, 0.02), 1 / (4 * math.sqrt(3 * n)))))
    ops += [
        Op("jacobi_theta", (rng.uniform(0.1, 0.4), rng.uniform(0.0, 0.1),
                            rng.uniform(0.0, 0.2), rng.uniform(0.5, 1.0))),
        Op("bessel_i", (rng.randint(0, 3), rng.uniform(0.5, 8.0))),
        Op("dilog", (rng.uniform(0.1, 0.9),)),
        Op("wright_p", (rng.uniform(9.0, 9.2),)),
        Op("sj_theta", (rng.uniform(0.02, 0.05), rng.randint(0, 3))),
        Op("phi_class_sum", (rng.uniform(0.02, 0.05), rng.randint(0, 3))),
    ]
    return ops


def cli_session(rng):
    def cli(*argv, known=""):
        return Op("cli", tuple(str(a) for a in argv), known)

    ns = ",".join(str(v) for v in (rng.randint(90, 110), rng.randint(900, 1100),
                                   rng.randint(4000, 4200)))
    eps = f"{rng.uniform(0.050, 0.052):.4f},{rng.uniform(0.030, 0.031):.4f}"
    return [
        cli("compute", "--kind", "oe", "--n-max", rng.randint(500, 520)),
        cli("compute", "--kind", "oebar", "--n-max", rng.randint(300, 310),
            "--method", "watson-product"),
        cli("compute", "--kind", "oebar", "--n-max", rng.randint(18, 20), "--method", "enum"),
        cli("ratio", "--kind", rng.choice(("oe", "oebar")), "--n", ns),
        cli("gf-eval", "--eps", eps),
        cli("verify", "--suite", "all"),
        cli("--prec", 96, "circle", "--n", rng.randint(15, 16)),
        cli("circle", "--n", 0, known=CLI_TRACEBACK),
        cli("ratio", "--kind", "oe", "--n", ",", known=CLI_TRACEBACK),
        cli("compute", "--kind", "oe", "--n-max", -3, known=CLI_TRACEBACK),
        cli("compute", "--kind", "even", "--n-max", 5),
        cli("gf-eval", "--eps", "0.001"),
    ]


# name -> (operation list builder, runs in a worker process, seconds budgeted
# per pass, fewest passes).  A run makes max(fewest, round(seconds / budget))
# passes.  The budgets are pass times on a 2-core x86 sandbox, rounded so
# that at --seconds 16 the (n-10)-th of n latencies, op_s.tail, falls inside
# a group of repeats of one operation rather than at the edge of one.
WORKLOADS = {
    "exact-series": (exact_series, True, 2.0, 2),
    "circle-arcs": (circle_arcs, True, 12.5, 2),
    "pointwise-eval": (pointwise_eval, True, 2.0, 2),
    "cli-session": (cli_session, False, 10.0, 2),
}


def build(workload, seed):
    return WORKLOADS[workload][0](random.Random(f"{workload}:{seed}"))


# ---------------------------------------------------------------------------
# running an operation (worker side)


def _tau(x, y):
    return mpc(mpf(x), mpf(y))


def _frame(oe, eps, j):
    return oe.asympt.NuFrame(nu0=oe.asympt.nu0_for_eps(mpf(eps), EVAL_PREC), j=j)


def execute(oe, op):
    """Run one in-process operation through the public API, module attributes looked up late."""
    g, c, s, a = oe.genfun, oe.circle, oe.specfun, oe.asympt
    k, args = op.kind, op.args
    if k == "oebar_product":
        return g.oebar_series_product(*args).coeffs
    if k == "oebar_hypergeometric":
        return g.oebar_series_hypergeometric(*args).coeffs
    if k == "oe_series":
        return g.oe_series(*args).coeffs
    if k == "watson":
        return (g.f_mock_series(*args) * g.euler_phi_series(*args)).coeffs, g.watson_core(*args).coeffs
    if k == "identity_suite":
        return [(rec["name"], rec["equal"]) for rec in g.classical_identity_suite(*args)]
    if k == "enum_oe":
        return tuple(oe.enumeration.enum_oe(n) for n in range(args[0] + 1))
    if k == "enum_oebar":
        return tuple(oe.enumeration.enum_oebar(n) for n in range(args[0] + 1))
    if k == "major_arc":
        return c.major_arc_integral(c.ArcGeometry(n=args[0]), prec=ARC_PREC)
    if k == "minor_arc":
        return c.minor_arc_integral(c.ArcGeometry(n=args[0]), prec=ARC_PREC)
    if k == "cauchy":
        return c.cauchy_full_integral(args[0], prec=CAUCHY_PREC)
    if k == "empirical_max":
        return c.minor_arc_empirical_max(c.ArcGeometry(n=args[0]), grid=args[1], prec=ARC_PREC)
    if k == "oebar_eval":
        return c.oebar_eval(tau=_tau(*args), prec=EVAL_PREC)
    if k == "jacobi_theta":
        zr, zi, tr, ti = args
        return s.jacobi_theta(mpc(zr, zi), mpc(tr, ti), EVAL_PREC)
    if k == "bessel_i":
        return s.bessel_i(args[0], mpf(args[1]), EVAL_PREC)
    if k == "dilog":
        return s.dilog(mpf(args[0]), EVAL_PREC)
    if k == "wright_p":
        return s.wright_p(0, mpf(args[0]), BIG_M, EVAL_PREC)
    if k == "sj_theta":
        return a.sj_theta_asymptotic(_frame(oe, *args), mpf(args[0]), EVAL_PREC)
    if k == "phi_class_sum":
        return a.phi_class_sum(_frame(oe, *args), mpf(args[0]), EVAL_PREC)
    raise ValueError(f"unknown operation kind {k!r}")


# ---------------------------------------------------------------------------
# references (parent side, before the timed passes)


def _eval_ref_prec(y):
    """96 + 2 ceil(pi / (12 y ln 2)) + 64: room for the cancellation the checked route may hit."""
    return EVAL_PREC + 2 * math.ceil(math.pi / (12 * y * math.log(2))) + 64


def reference(oe, op, cache):
    """The value a correct result must match, computed independently of the timed code."""
    k, args = op.kind, op.args

    def series(fn, order):
        key = (fn.__name__, order)
        if key not in cache:
            cache[key] = fn(order)
        return cache[key]

    if k in ("oebar_product", "oebar_hypergeometric"):
        return series(refs.oebar_coeffs, args[0])
    if k == "oe_series":
        return series(refs.oe_coeffs, args[0])
    if k == "watson":
        return series(refs.watson_coeffs, args[0])
    if k == "identity_suite":
        return None
    if k == "enum_oe":
        return series(refs.oe_coeffs, args[0])
    if k == "enum_oebar":
        return series(refs.oebar_coeffs, args[0])
    if k == "major_arc":
        return refs.wright_main_term(args[0], BIG_M, ARC_PREC + 32) if args[1] == "wright" else None
    if k in ("minor_arc", "cauchy"):
        return series(refs.oebar_coeffs, max(200, args[0]))[args[0]]
    if k == "empirical_max":
        return refs.minor_bound_value(args[0], BIG_M, ARC_PREC + 32)
    if k == "oebar_eval":
        prec = _eval_ref_prec(args[1])
        lo, hi = refs.obar_value(_tau(*args), prec), refs.obar_value(_tau(*args), prec + 64)
        with workprec(prec):
            if abs(lo - hi) > abs(hi) * mpf(2) ** -(EVAL_PREC + 32):
                raise ArithmeticError(f"reference at tau={args} not confirmed by prec {prec + 64}")
        return hi
    if k == "jacobi_theta":
        zr, zi, tr, ti = args
        return refs.jacobi_theta_value(mpc(zr, zi), mpc(tr, ti), EVAL_PREC + 64)
    if k == "bessel_i":
        with workprec(EVAL_PREC + 64):
            return mp.besseli(args[0], mpf(args[1]))
    if k == "dilog":
        with workprec(EVAL_PREC + 64):
            return mp.polylog(2, mpf(args[0]))
    if k == "wright_p":
        return refs.wright_p_value(0, args[0], BIG_M, EVAL_PREC + 64)
    if k in ("sj_theta", "phi_class_sum"):
        frame = oe.asympt.NuFrame(nu0=oe.asympt.nu0_for_eps(mpf(args[0]), EVAL_PREC), j=args[1])
        return oe.asympt.phi_class_sum(frame, mpf(args[0]), EVAL_PREC + 64)
    if k == "cli":
        return cli_reference(oe, args)
    raise ValueError(f"unknown operation kind {k!r}")


def cli_reference(oe, argv):
    """Library values the CLI's output must reproduce (None for malformed input)."""
    g = oe.genfun
    opt = dict(zip(argv, argv[1:]))
    cmd = next((a for a in argv if a in CLI_COMMANDS), None)
    try:
        if cmd == "compute":
            n_max = int(opt["--n-max"])
            if n_max < 0 or opt["--kind"] not in ("oe", "oebar"):
                return None
            return (g.oe_series if opt["--kind"] == "oe" else g.oebar_series_hypergeometric)(n_max).coeffs
        if cmd == "ratio":
            ns = sorted(int(v) for v in opt["--n"].split(","))
            series = (g.oe_series if opt["--kind"] == "oe" else g.oebar_series_hypergeometric)(max(ns))
            law = oe.asympt.oe_asymptotic if opt["--kind"] == "oe" else oe.asympt.oebar_asymptotic
            with workprec(256):
                return [(n, series.coeffs[n], float(mpf(series.coeffs[n]) / law(n, 256))) for n in ns]
        if cmd == "gf-eval":
            return _gf_eval_reference(oe, [mpf(v) for v in opt["--eps"].split(",")])
        if cmd == "circle":
            n = int(opt["--n"])
            return g.oebar_series_hypergeometric(n).coefficient(n) if n >= 1 else None
    except (KeyError, ValueError):
        return None
    return None


def _gf_eval_reference(oe, eps_grid):
    if min(eps_grid) < mpf("0.005"):
        return None
    rows = []
    with workprec(256):
        for eps in eps_grid:
            order = int(300 / float(eps))
            even, odd = oe.genfun.parity_split(order)
            for name, series in (("full", oe.genfun.oe_series(order)), ("even", even), ("odd", odd)):
                value = oe.series.evaluate_at(series, mp.e ** (-eps), 256,
                                              growth_c=float(mp.pi / mp.sqrt(5))).value.real
                rows.append((name, float(value), float(value / oe.asympt.gf_asymptotic(eps, name, 256))))
    return rows


# ---------------------------------------------------------------------------
# checks


def check(op, got, ref, same_pass):
    """Judge one result against its reference; `same_pass` maps op index -> result."""
    k = op.kind
    if k in ("oebar_product", "oebar_hypergeometric", "oe_series", "enum_oe", "enum_oebar"):
        want = ref[: op.args[0] + 1]
        if tuple(got) == want:
            return Verdict(True)
        bad = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
        return Verdict(False, f"coefficient {bad} differs from the reference")
    if k == "watson":
        lhs, rhs = got
        ok = tuple(lhs) == ref and tuple(rhs) == ref
        return Verdict(ok, "" if ok else "f(q)(q;q)_inf or the Watson core differs from the reference")
    if k == "identity_suite":
        ok = len(got) == 6 and all(eq for _, eq in got)
        return Verdict(ok, "" if ok else f"identities not all equal: {got}")
    if k == "major_arc":
        if op.args[1] == "pair":
            return Verdict(True)  # judged with its minor arc
        dev = abs(got.real / ref - 1)
        return Verdict(dev < 0.02, f"|I1 / Wright form - 1| = {float(dev):.3g} >= 0.02")
    if k == "minor_arc":
        major = same_pass.get(op.args[1])
        if major is None:
            return Verdict(False, "major arc of the pair failed")
        total = (major + got).real
        bits = rel_bits(total, ref, ARC_PREC)
        return Verdict(bits > -math.log2(1e-6), f"I1 + I2 off the exact coefficient by 2^{-bits:.1f} relative", bits)
    if k == "cauchy":
        coeff, residual = got
        bits = rel_bits(ref + residual, ref, CAUCHY_PREC)
        ok = coeff == ref and residual < mpf("1e-20")
        return Verdict(ok, f"recovered {coeff} (residual {float(residual):.3g}), exact {ref}", bits)
    if k == "empirical_max":
        return Verdict(got < ref, f"empirical max {float(got):.6g} above the proven bound {float(ref):.6g}")
    if k == "oebar_eval":
        return _close(got, ref, relative=EVAL_PREC - 24)
    if k in ("jacobi_theta", "bessel_i"):
        return _close(got, ref, absolute=EVAL_PREC - 24)
    if k == "dilog":
        return _close(got, ref, absolute=EVAL_PREC - 12, plain=True)
    if k == "wright_p":
        return _close(got, ref, relative=EVAL_PREC // 2)
    if k in ("sj_theta", "phi_class_sum"):
        return _close(got, ref, absolute=EVAL_PREC - 32)
    raise ValueError(f"unknown operation kind {k!r}")


def _close(got, want, relative=None, absolute=None, plain=False):
    """Tolerance as the package's tests state it: 2^-b relative, or 2^-b (1 + |want|)."""
    with workprec(2 * EVAL_PREC + 64):
        err = abs(got - want)
        bits = rel_bits(got, want, EVAL_PREC)
        if relative is not None:
            ok = err <= abs(want) * mpf(2) ** -relative
        else:
            ok = err < mpf(2) ** -absolute * (1 if plain else 1 + abs(want))
    return Verdict(ok, f"relative error 2^{-bits:.1f}", bits)


def check_cli(op, rc, out, err, ref):
    argv = op.args
    if TRACEBACK in err:
        return Verdict(False, "traceback")
    cmd = next((a for a in argv if a in CLI_COMMANDS), None)
    if cmd != "verify" and ref is None:
        return Verdict(rc != 0, f"malformed input accepted (exit {rc})")
    if rc != 0:
        return Verdict(False, f"exit code {rc}: {err.strip()[-200:]}")
    try:
        if cmd == "compute":
            rows = list(csv.reader(io.StringIO(out)))[1:]
            got = tuple(int(v) for _, v in rows)
            return Verdict(got == tuple(ref), "table differs from the library series")
        if cmd == "ratio":
            rows = [(int(n), int(e), float(r)) for n, e, _, r in list(csv.reader(io.StringIO(out)))[1:]]
            ok = [(n, e) for n, e, _ in rows] == [(n, e) for n, e, _ in ref] and all(
                abs(r / w - 1) < 1e-12 for (_, _, r), (_, _, w) in zip(rows, ref))
            bits = min(rel_bits(r, w, 53) for (_, _, r), (_, _, w) in zip(rows, ref))
            return Verdict(ok, "ratio table differs from the library values", bits)
        if cmd == "gf-eval":
            rows = [(b, float(v), float(r)) for _, b, v, _, r in list(csv.reader(io.StringIO(out)))[1:]]
            ok = len(rows) == len(ref) and all(
                b == wb and abs(v / wv - 1) < 1e-12 and abs(r / wr - 1) < 1e-12
                for (b, v, r), (wb, wv, wr) in zip(rows, ref))
            return Verdict(ok, "gf-eval table differs from the library values")
        if cmd == "verify":
            ok = bool(out.strip()) and "FAIL" not in out
            return Verdict(ok, "a verify check failed")
        if cmd == "circle":
            rep = json.loads(out)
            ok = (rep["recovered_coefficient"] == rep["exact_coefficient"] == ref
                  and rep["empirical_max"] < rep["minor_bound"] and rep["clears_threshold"]
                  and 0.5 < rep["ratio"] < 1.5)
            return Verdict(ok, "circle report inconsistent with the exact coefficient")
    except (ValueError, KeyError, TypeError) as exc:
        return Verdict(False, f"unreadable output: {exc!r}")
    return Verdict(rc != 0, f"malformed input accepted (exit {rc})")
