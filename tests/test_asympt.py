import math
import random

import pytest
from mpmath import mp, mpc, mpf, workprec, log, sqrt, pi, exp, floor

from oepartitions import asympt
from oepartitions.specfun import DomainError, dilog
from oepartitions.asympt import (
    root_R,
    zagier_log_expansion,
    phi_nu,
    NuFrame,
    nu0_for_eps,
    phi_class_sum,
    sj_theta_asymptotic,
    gf_asymptotic,
    AsymptoticLaw,
    ingham_transfer,
    halve_argument,
    oe_asymptotic,
    oebar_asymptotic,
    oebar_bessel_form,
)
from oepartitions.genfun import oe_series, oebar_series_product, sj_series
from oepartitions.specfun import evaluate_at

from oracles import o_lead, oe_law, oebar_bessel, oebar_law


def tol(prec, slack=8):
    return mpf(2) ** (-(prec - slack))


class TestRootR:
    def test_half_exponent_golden(self):
        # R + sqrt(R) = 1 has root R = (3 - sqrt5)/2
        prec = 320
        r = root_R(mpf("0.5"), prec)
        with workprec(prec + 16):
            want = (3 - sqrt(5)) / 2
        assert abs(r - want) < tol(prec, 16)

    def test_exponent_one(self):
        assert abs(root_R(mpf(1), 128) - mpf("0.5")) < tol(128, 8)

    @pytest.mark.parametrize("a", ["0.3", "0.5", "1.7", "4.0"])
    def test_residual_vanishes(self, a):
        prec = 256
        with workprec(prec + 16):
            a = mpf(a)
        r = root_R(a, prec)
        with workprec(prec + 16):
            resid = r + r**a - 1
        assert abs(resid) < tol(prec, 16)

    def test_monotone_in_exponent(self):
        # larger A makes R^A smaller on (0,1), pushing the root up
        rs = [root_R(mpf(a) / 4, 128) for a in range(1, 9)]
        assert all(x < y for x, y in zip(rs, rs[1:]))

    def test_rejects_nonpositive_exponent(self):
        with pytest.raises(DomainError):
            root_R(mpf(0), 128)


class TestLogExpansion:
    @staticmethod
    def _frame(eps, prec):
        # n is pinned by q^n = R q^(-nu); taking n = floor - 4 keeps nu near 4,
        # well away from the saddle where the quadratic nu-coefficient nearly
        # vanishes and would make the remainder check vacuous
        with workprec(prec + 32):
            eps = mpf(eps)
            r = (3 - sqrt(5)) / 2
            ratio = log(r) / (-eps)
            m = int(floor(ratio)) - 4
            nu = ratio - m
        return dict(a=mpf("0.5"), b=mpf("0.25"), r=r, eps=eps, nu=nu), m

    def test_leading_bracket_specializes(self):
        # at A = 1/2, R = (3-sqrt5)/2 the eps^-1 bracket collapses to pi^2/10
        prec = 256
        with workprec(prec + 32):
            r = (3 - sqrt(5)) / 2
            li2 = dilog(r, prec + 32)
            bracket = pi**2 / 6 - li2 - log(r) * log(1 - r) / 2
            assert abs(bracket - pi**2 / 10) < tol(prec, 24)

    def test_approximates_exact_log_summand(self):
        # compare all four terms against Log(q^(n^2/4 + n/4) / (q;q)_n)
        # evaluated exactly at q = e^(-eps), for A = 1/2, B = 1/4
        prec = 192
        errors = []
        for eps_str in ("0.02", "0.01", "0.005"):
            params, m = self._frame(mpf(eps_str), prec)
            with workprec(prec + 32):
                q = exp(-params["eps"])
                exact = (mpf(m) ** 2 / 4 + mpf(m) / 4) * (-params["eps"])
                for k in range(1, m + 1):
                    exact -= log(1 - q**k)
                approx = zagier_log_expansion(**params, prec=prec)
                errors.append(abs(approx - exact))
        # remainder is O(eps^2): halving eps should cut the error roughly 4x
        # (nu drifts a little across the grid, so the band is generous)
        assert errors[0] > errors[1] > errors[2]
        for hi, lo in zip(errors, errors[1:]):
            assert mpf("2.8") < hi / lo < mpf("5.2")

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            zagier_log_expansion(mpf(1), mpf(0), mpf("1.5"), mpf("0.1"), mpf(0), 128)


class TestPhiAndTheta:
    def test_phi_symmetric_about_half(self):
        prec = 192
        eps = mpf("0.03")
        for d in ("0.1", "0.77", "2.5"):
            a = phi_nu(eps, mpf("0.5") + mpf(d), prec)
            b = phi_nu(eps, mpf("0.5") - mpf(d), prec)
            assert abs(a - b) < tol(prec, 16) * (1 + abs(a))

    @pytest.mark.parametrize("prec", [64, 256, 1024])
    def test_phi_is_zagier_expansion_at_the_saddle(self, prec):
        # O's summand q^(m(m+1)/2)/(q^2;q^2)_m is the lemma's A = 1/2, B = 1/4
        # in q^2 = e^(-2 eps), at R = Q; the reference is taken with guard bits
        rng, wp = random.Random(prec), prec + 32
        q_gold = root_R(mpf("0.5"), wp)
        for _ in range(6):
            with workprec(wp):
                eps, nu = mpf(10 ** rng.uniform(-3, math.log10(2))), mpf(rng.uniform(-5, 5))
                want = exp(zagier_log_expansion(mpf("0.5"), mpf("0.25"), q_gold, 2 * eps, nu, wp))
            got = phi_nu(eps, nu, prec)
            with workprec(wp):
                assert abs(got / want - 1) < mpf(2) ** -prec

    def test_phi_maximal_at_half(self):
        prec = 128
        eps = mpf("0.03")
        mid = phi_nu(eps, mpf("0.5"), prec)
        for nu in ("0.0", "0.2", "0.8", "1.3"):
            assert phi_nu(eps, mpf(nu), prec) < mid

    def test_class_sum_equals_theta_form(self):
        prec = 192
        for eps_str in ("0.05", "0.01"):
            eps = mpf(eps_str)
            nu0 = nu0_for_eps(eps, prec)
            for j in range(4):
                frame = NuFrame(nu0=nu0, j=j)
                direct = phi_class_sum(frame, eps, prec)
                theta = sj_theta_asymptotic(frame, eps, prec)
                assert abs(direct - theta) < tol(prec, 32) * (1 + abs(direct))

    def test_class_sum_has_a_work_budget(self, monkeypatch):
        # 2 cutoff + 1 terms, cutoff ~ eps^(-1/2): 1457 at eps = 1e-5 and
        # prec 96, within TERM_BUDGET, and 14525 at 1e-7, refused before
        # any phi(nu) is summed
        prec = 96
        eps = mpf("1e-5")
        frame = NuFrame(nu0=nu0_for_eps(eps, prec), j=1)
        direct = phi_class_sum(frame, eps, prec)
        theta = sj_theta_asymptotic(frame, eps, prec)
        assert abs(direct - theta) < tol(prec, 32) * (1 + abs(direct))
        calls = []
        monkeypatch.setattr(asympt, "phi_nu", lambda *args: calls.append(args))
        eps = mpf("1e-7")
        with pytest.raises(ArithmeticError, match="terms"):
            phi_class_sum(NuFrame(nu0=nu0_for_eps(eps, prec), j=1), eps, prec)
        assert calls == []

    def test_theta_form_rejects_complex_value(self, monkeypatch):
        # the reality check is a raise, not an assert that python -O strips
        monkeypatch.setattr(asympt, "jacobi_theta", lambda z, tau, prec: mpc(1, 1))
        frame = NuFrame(nu0=nu0_for_eps(mpf("0.05"), 96), j=0)
        with pytest.raises(ArithmeticError):
            sj_theta_asymptotic(frame, mpf("0.05"), 96)

    def test_nu0_in_unit_interval(self):
        for eps in ("0.1", "0.01", "0.0033"):
            v = nu0_for_eps(mpf(eps), 128)
            assert 0 <= v < 1

    def test_theta_sum_tracks_class_subseries(self):
        # normalized S_j(e^-eps) / theta form -> 1 as eps -> 0
        prec = 96
        devs = []
        for eps_str, order in (("0.04", 4000), ("0.02", 9000)):
            eps = mpf(eps_str)
            nu0 = nu0_for_eps(eps, prec)
            frame = NuFrame(nu0=nu0, j=1)
            pred = sj_theta_asymptotic(frame, eps, prec)
            s = sj_series(1, order)
            got = evaluate_at(
                s, mp.e ** (-eps), prec, growth_c=float(pi / sqrt(5))
            ).value.real
            devs.append(abs(got / pred - 1))
        assert devs[1] < devs[0]
        assert devs[1] < mpf("0.02")


@pytest.mark.parametrize("eps", ["0", "-0.1"])
@pytest.mark.parametrize("call", [
    lambda eps: phi_nu(eps, mpf("0.5"), 96),
    lambda eps: phi_class_sum(NuFrame(mpf("0.25"), 1), eps, 96),
    lambda eps: sj_theta_asymptotic(NuFrame(mpf("0.25"), 1), eps, 96),
    lambda eps: gf_asymptotic(eps, "even", 96),
], ids=["phi_nu", "phi_class_sum", "sj_theta_asymptotic", "gf_asymptotic"])
def test_nonpositive_eps_is_refused(call, eps):
    with pytest.raises(DomainError, match="eps must be > 0"):
        call(mpf(eps))


class TestGFAsymptotic:
    def test_full_vs_series_evaluation(self):
        prec = 96
        devs = []
        for eps_str, order in (("0.1", 2000), ("0.05", 5000)):
            eps = mpf(eps_str)
            s = oe_series(order)
            got = evaluate_at(
                s, mp.e ** (-eps), prec, growth_c=float(pi / sqrt(5))
            ).value.real
            pred = gf_asymptotic(eps, "full", prec)
            devs.append(abs(got / pred - 1))
        assert devs[1] < devs[0]
        assert devs[1] < mpf("0.01")

    def test_even_and_odd_halves_sum_to_full(self):
        # the parity classes carry equal halves: 2 / sqrt(2 sqrt5) = sqrt(2/sqrt5)
        prec = 160
        with workprec(prec + 16):
            eps = mpf("0.01")
        full = gf_asymptotic(eps, "full", prec)
        even = gf_asymptotic(eps, "even", prec)
        odd = gf_asymptotic(eps, "odd", prec)
        with workprec(prec + 16):
            assert even == odd
            assert abs(even + odd - full) < tol(prec, 16) * full

    def test_rejects_bad_which(self):
        with pytest.raises(ValueError):
            gf_asymptotic(mpf("0.1"), "sideways", 128)


class TestInghamTransfer:
    def test_numeric_oe_constants(self):
        # the even subseries in the n/2 variable obeys the hypothesis with
        # lambda = 1/sqrt(2 sqrt5) and A = pi^2/10; transferring and
        # then substituting n -> n/2 must land on the coefficient law
        # (1/(2 sqrt5)) n^(-3/4) e^(pi sqrt(n/5))
        prec = 192
        with workprec(prec):
            law = halve_argument(ingham_transfer(1 / sqrt(2 * sqrt(5)), pi**2 / 10))
            assert abs(law.c - 1 / (2 * sqrt(5))) < tol(prec, 24)
            assert abs(law.p - mpf("0.75")) < tol(prec, 24)
            assert abs(law.k - pi / sqrt(5)) < tol(prec, 24)

    def test_symbolic_oe_constants_exact(self):
        sympy = pytest.importorskip("sympy")
        law = halve_argument(ingham_transfer(
            1 / sympy.sqrt(2 * sympy.sqrt(5)), sympy.pi**2 / 10, pi=sympy.pi))
        assert sympy.simplify(law.c - 1 / (2 * sympy.sqrt(5))) == 0
        assert sympy.simplify(law.p - sympy.Rational(3, 4)) == 0
        assert sympy.simplify(law.k - sympy.pi / sympy.sqrt(5)) == 0

    def test_symbolic_oebar_constants_exact(self):
        # Obar(e^-eps) ~ (2 sqrt2 / 3) e^(pi^2/(12 eps)) transfers directly
        # to 3^(-5/4) n^(-3/4) e^(pi sqrt(n/3))
        sympy = pytest.importorskip("sympy")
        law = ingham_transfer(2 * sympy.sqrt(2) / 3, sympy.pi**2 / 12, pi=sympy.pi)
        assert sympy.simplify(law.c - 3 ** sympy.Rational(-5, 4)) == 0
        assert sympy.simplify(law.p - sympy.Rational(3, 4)) == 0
        assert sympy.simplify(law.k - sympy.pi / sympy.sqrt(3)) == 0

    def test_halve_argument_shape(self):
        law = AsymptoticLaw(c=mpf(3), p=mpf(2), k=mpf(4))
        out = halve_argument(law)
        assert out.c == 12 and out.p == 2
        assert abs(out.k - 4 / sqrt(2)) < tol(53, 6)


class TestLeadingAsymptotics:
    def test_oe_ratio_decreases(self):
        s = oe_series(10000)
        devs = [
            abs(mpf(s.coefficient(n)) / oe_asymptotic(n, 96) - 1)
            for n in (100, 1000, 10000)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < mpf("0.005")

    def test_oebar_ratio_decreases(self):
        s = oebar_series_product(10000)
        devs = [
            abs(mpf(s.coefficient(n)) / oebar_asymptotic(n, 96) - 1)
            for n in (100, 1000, 10000)
        ]
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < mpf("0.005")

    def test_rejects_n_below_one(self):
        with pytest.raises(DomainError):
            oe_asymptotic(0)
        with pytest.raises(DomainError):
            oebar_asymptotic(-2)

    @pytest.mark.parametrize("prec", [64, 256, 1024])
    def test_laws_from_growth_match_the_closed_forms(self, prec):
        # every law reads its Growth's (lam, V) through ingham_transfer, or
        # gf_asymptotic's lam e^(V/eps): each lands within one unit of
        # 2^-prec of the paper's closed form, on a seeded grid of n and eps
        rng = random.Random(prec)
        for _ in range(20):
            n = int(10 ** rng.uniform(0, 6))
            eps = mpf(10 ** rng.uniform(-3, math.log10(5)))
            pairs = [(oe_asymptotic(n, prec), oe_law(n, prec)),
                     (oebar_asymptotic(n, prec), oebar_law(n, prec)),
                     (oebar_bessel_form(n, prec), oebar_bessel(n, prec)),
                     (gf_asymptotic(eps, "full", prec), o_lead(eps, prec))]
            pairs += [(mp.ldexp(gf_asymptotic(eps, part, prec), 1), o_lead(eps, prec))
                      for part in ("even", "odd")]
            with workprec(prec + 16):
                for got, want in pairs:
                    assert abs(got - want) <= mpf(2) ** -prec * want, (n, eps, prec)
