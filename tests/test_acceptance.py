"""Acceptance gate: the ten package-level checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -s` to see the line per criterion.
Derived regression thresholds were frozen at the first green run.
"""

import contextlib
from functools import lru_cache

import pytest
from mpmath import mpf, mpc, workprec, sqrt, log, exp, floor, pi

from oepartitions import asympt, circle, enumeration, genfun, specfun
from oepartitions.specfun import evaluate_at

from oracles import euler_eval, m_threshold


@contextlib.contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"FAIL  {label}")
        raise
    print(f"PASS  {label}")


@lru_cache(maxsize=None)
def oe_deep():
    return genfun.oe_series(10001)


@lru_cache(maxsize=None)
def oebar_deep():
    return genfun.oebar_series_product(10000)


def test_criterion_01_exact_values():
    with criterion("1 exact value reproduction, three independent routes"):
        oe_table = [1, 0, 2, 0, 2, 1, 3, 1]  # OE(1)..OE(8)
        s = genfun.oe_series(40)
        for n, want in enumerate(oe_table, start=1):
            assert s.coefficient(n) == want
            assert enumeration.enum_oe(n) == want
        hyp = genfun.oebar_series_hypergeometric(30)
        prod = genfun.oebar_series_product(30)
        for n, want in ((2, 0), (3, 4), (4, 2)):
            assert hyp.coefficient(n) == want
            assert prod.coefficient(n) == want
            assert enumeration.enum_oebar(n) == want
        for n in range(41):
            assert enumeration.enum_oe(n) == s.coefficient(n)
        for n in range(31):
            assert enumeration.enum_oebar(n) == hyp.coefficient(n)
            assert hyp.coefficient(n) == prod.coefficient(n)


def test_criterion_02_identity_suite():
    with criterion("2 identity suite exact at order 200"):
        N = 200
        oe = genfun.oe_series(N)
        sj = [genfun.sj_series(j, N) for j in range(4)]
        assert (sj[0] + sj[1]) + (sj[2] + sj[3]) == oe
        even, odd = genfun.parity_split(N)
        assert even + odd == oe
        assert genfun.oebar_series_hypergeometric(N) == genfun.oebar_series_product(N)
        assert genfun.f_mock_series(N) * genfun.euler_phi_series(N) == genfun.watson_core(N)
        suite = genfun.classical_identity_suite(N)
        assert len(suite) >= 5
        for rec in suite:
            assert rec["lhs"] == rec["rhs"], rec["name"]


def test_criterion_03_constant_identities():
    with criterion("3 dilogarithm constant identities at 256 bits"):
        prec = 256
        tol = mpf(2) ** -200
        with workprec(prec + 32):
            q_gold = (3 - sqrt(5)) / 2
            golden = (1 + sqrt(5)) / 2
            assert abs(sqrt(q_gold) + q_gold - 1) < tol
            li2 = specfun.dilog(q_gold, prec)
            assert abs(li2 - (pi**2 / 15 - log(golden) ** 2)) < tol
            assert abs((log(q_gold) / 2) ** 2 - log(golden) ** 2) < tol
            bracket = (pi**2 / 6 - li2 - (log(q_gold) / 2) ** 2) / 2
            assert abs(bracket - pi**2 / 20) < tol


def test_criterion_04_log_expansion_order():
    with criterion("4 saddle log-expansion error falls like eps^2"):
        prec = 192
        errs = []
        for eps_s in (mpf("0.02"), mpf("0.01")):
            with workprec(prec + 32):
                eps = 2 * eps_s  # the q^2 substitution doubles the expansion's eps
                r = (3 - sqrt(5)) / 2
                ratio = log(r) / (-eps)
                m = int(floor(ratio)) - 4  # keep nu away from the vanishing quadratic
                nu = ratio - m
                q = exp(-eps)
                exact = (mpf(m) ** 2 / 4 + mpf(m) / 4) * (-eps)
                for k in range(1, m + 1):
                    exact -= log(1 - q**k)
                approx = asympt.zagier_log_expansion(mpf("0.5"), mpf("0.25"), r, eps, nu, prec)
                errs.append(abs(approx - exact))
        assert mpf("3.4") < errs[0] / errs[1] < mpf("4.6")


def test_criterion_05_theta_machinery():
    with criterion("5 theta representation, inversion, class-sum drift"):
        prec = 192
        target = mpf(2) ** (-(prec - 64))
        # direct phi-sum against the theta form on an (eps, j) grid
        for eps_s in ("0.05", "0.01"):
            eps = mpf(eps_s)
            nu0 = asympt.nu0_for_eps(eps, prec)
            for j in range(4):
                frame = asympt.NuFrame(nu0=nu0, j=j)
                direct = asympt.phi_class_sum(frame, eps, prec)
                theta = asympt.sj_theta_asymptotic(frame, eps, prec)
                assert abs(direct - theta) < target * (1 + abs(direct))
        # modular inversion residual on a grid
        with workprec(prec + 32):
            for y in ("0.31", "0.11"):
                for x in ("0", "0.17"):
                    tau = mpc(0, mpf(y))
                    z = mpf(x)
                    lhs = specfun.jacobi_theta(z / tau, -1 / tau, prec)
                    rhs = (
                        -1j * sqrt(-1j * tau) * exp(pi * 1j * z**2 / tau)
                        * specfun.jacobi_theta(z, tau, prec)
                    )
                    assert abs(lhs - rhs) < target * (1 + abs(rhs))
        # normalized class sums drift to 1
        with workprec(prec):
            grid = [mpf("0.05"), mpf("0.02"), mpf("0.01")]
            for j in range(4):
                devs = []
                for eps in grid:
                    frame = asympt.NuFrame(nu0=asympt.nu0_for_eps(eps, prec), j=j)
                    val = asympt.sj_theta_asymptotic(frame, eps, prec)
                    norm = val * 2 * sqrt(2 * sqrt(5)) * exp(-(pi**2) / (20 * eps))
                    devs.append(abs(norm - 1))
                assert devs[0] > devs[1] > devs[2]


def test_criterion_06_gf_leading_constant():
    with criterion("6 generating function approaches sqrt(2/sqrt5) e^(pi^2/20eps)"):
        prec = 96
        errs = []
        with workprec(prec + 16):
            growth_c = float(pi / sqrt(5))
            for eps_s, order in (("0.05", 6000), ("0.02", 15000), ("0.01", 30000)):
                eps = mpf(eps_s)
                s = genfun.oe_series(order)
                got = evaluate_at(s, exp(-eps), prec, growth_c=growth_c).value.real
                pred = asympt.gf_asymptotic(eps, "full", prec)
                errs.append(abs(got / pred - 1))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < mpf("8e-4")  # frozen: first green run gave 5.3e-4


def test_criterion_07_leading_asymptotics_desk_scale():
    with criterion("7 exact/asymptotic ratios drift to 1 at n = 10^2..10^4"):
        prec = 96
        s = oe_deep()
        devs = [
            abs(mpf(s.coefficient(n)) / asympt.oe_asymptotic(n, prec) - 1)
            for n in (100, 1000, 10000)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < mpf("0.004")  # frozen: first green run gave 0.00306
        odd_devs = [
            abs(mpf(s.coefficient(n)) / asympt.oe_asymptotic(n, prec) - 1)
            for n in (101, 1001, 10001)
        ]
        assert odd_devs[0] > odd_devs[1] > odd_devs[2]
        assert odd_devs[2] < mpf("0.004")
        t = oebar_deep()
        bar_devs = [
            abs(mpf(t.coefficient(n)) / asympt.oebar_asymptotic(n, prec) - 1)
            for n in (100, 1000, 10000)
        ]
        assert bar_devs[0] > bar_devs[1] > bar_devs[2]
        assert bar_devs[2] < mpf("0.0035")  # frozen: first green run gave 0.00269


def test_criterion_08_circle_method():
    with criterion("8 circle method: recovery, major arc, minor bound, threshold"):
        for n in (10, 50, 100, 200):
            got, residual = circle.cauchy_full_integral(n, prec=192)
            assert got == genfun.oebar_series_hypergeometric(2 * n).coefficient(n)
            assert residual < mpf("1e-6")
        devs = []
        for n in (100, 400, 1600):
            geom = circle.ArcGeometry(n=n, big_m=mpf(6))
            i1 = circle.major_arc_integral(geom, prec=96)
            expo, _ = circle.main_term(n, prec=96)
            devs.append(abs(i1.real / expo - 1))
        assert devs[0] > devs[1] > devs[2]
        geom = circle.ArcGeometry(n=100, big_m=mpf(6))
        bound = circle.minor_arc_bound(geom, prec=96)
        emp = circle.minor_arc_empirical_max(geom, grid=100, prec=96)
        assert emp <= bound.bound_value
        assert circle.exponent_saving(mpf("5.543"), 128) < 0
        assert circle.exponent_saving(mpf("5.544"), 128) > 0
        assert abs(m_threshold(128) - mpf("5.5433")) < mpf("5e-4")


def test_criterion_09_special_functions():
    with criterion("9 contour/Bessel/eta-inversion special function checks"):
        prec = 128
        # P_0(u) / I_(-1)(2u) -> 1 with deviation like e^(-u) (poly slack 4x)
        for u in (5, 10, 20):
            p0 = specfun.wright_p(0, mpf(u), mpf(6), prec)
            i_ref = specfun.bessel_i(-1, 2 * mpf(u), prec)
            with workprec(prec):
                dev = abs(p0 / i_ref - 1)
                assert dev < 4 * exp(-mpf(u))
        # Bessel ratio I_1(x) sqrt(2 pi x) / e^x -> 1 with O(1/x) error
        with workprec(prec):
            for x in (10, 40, 160):
                x = mpf(x)
                r = specfun.bessel_i(1, x, prec) * sqrt(2 * pi * x) / exp(x)
                assert abs(r - 1) < 1 / x
        # eta inversion at y in {0.05, 0.02}: (q;q)_inf against its principal term
        with workprec(prec + 32):
            for y in ("0.05", "0.02"):
                tau = mpc(mpf("0.01"), mpf(y))
                direct = euler_eval(tau, prec)
                via = exp(-pi * 1j * tau / 12 - pi * 1j / (12 * tau)) / sqrt(-1j * tau)
                assert abs(direct - via) < mpf(2) ** (-(prec - 40)) * (1 + abs(direct))


def test_criterion_10_tauberian_transfer():
    with criterion("10 Tauberian transfer constants exact; hypotheses hold"):
        sympy = pytest.importorskip("sympy")
        law = asympt.halve_argument(asympt.ingham_transfer(
            1 / sympy.sqrt(2 * sympy.sqrt(5)), sympy.Integer(0), sympy.pi**2 / 10, pi=sympy.pi))
        assert sympy.simplify(law.c - 1 / (2 * sympy.sqrt(5))) == 0
        assert sympy.simplify(law.p - sympy.Rational(3, 4)) == 0
        assert sympy.simplify(law.k - sympy.pi / sympy.sqrt(5)) == 0
        # Tauberian hypotheses on exact coefficient data
        s = genfun.oe_series(400)
        assert all(c >= 0 for c in s.coeffs)
        assert all(s.coeffs[n] <= s.coeffs[n + 2] for n in range(1, 399))
