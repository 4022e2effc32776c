import itertools
import logging
import math
import random
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from mpmath import mp, mpf, mpc, workprec, sqrt, pi, exp, cos, sin, log, ceil, ln
from mpmath.libmp import to_fixed

from oepartitions import circle, specfun
from oepartitions.asympt import oebar_asymptotic, oebar_bessel_form
from oepartitions.specfun import (GUARD_BITS, DomainError, QuadratureError, evaluate_at,
                                  horner_fixed, wright_p)
from oepartitions.genfun import (f_mock_series, oebar_series_hypergeometric, oebar_series_product,
                                 parity_split)
from oepartitions.circle import (
    ArcGeometry,
    adaptive_quad,
    exponent_saving,
    oebar_eval,
    cauchy_full_integral,
    major_arc_integral,
    minor_arc_integral,
    minor_arc_bound,
    minor_arc_empirical_max,
    circle_report,
)

from oracles import clenshaw_curtis, euler_eval, m_threshold


def bilateral_reference(tau, prec):
    """Obar(e^(2 pi i tau)) by Watson's bilateral sum at prec bits:
    2 (q^2;q^2)_inf / (q;q)_inf^2 * sum_{n in Z} (-1)^n q^(n(3n+1)/2) / (1+q^n).

    Near q = 1 its O(1) terms cancel to a sum of size e^(-pi/(12 y)), so the
    caller pays for that in prec.
    """
    with workprec(prec):
        q = mp.expjpi(2 * tau)
        total, n = mpf("0.5"), 1
        while True:
            term = (-1) ** n * q ** (n * (3 * n + 1) // 2) / (1 + q ** n)
            total += 2 * term
            if abs(term) < mpf(2) ** -prec * abs(total):
                break
            n += 1
        return 2 * euler_eval(2 * tau, prec) / euler_eval(tau, prec) ** 2 * total


def reference_mock_f(tau, prec):
    """Watson's f(q) at q = e^(2 pi i tau) and the bits its sum lost, by a
    term-ratio loop on mpc at prec bits: each term the last times
    q^(2n-1)/(1+q^n)^2, stopping at a term below 2^-prec of the largest.
    """
    with workprec(prec):
        q = mp.expjpi(2 * tau)
        eps = mpf(2) ** -prec
        total = term = prev = mpc(1)  # prev = q^(n-1)
        peak = mpf(1)
        for _ in range(circle.TERM_BUDGET):
            qn = prev * q
            d = 1 + qn
            term *= prev * qn / (d * d)
            total += term
            prev = qn
            size = abs(term)
            peak = max(peak, size)
            if size < eps * peak:
                return total, int(mp.ceil(mp.log(peak / abs(total), 2)))
    raise ArithmeticError("reference sum of f(q) did not converge")


def reference_obar_sum(tau, prec):
    """Obar(q) = sum_m t_m at q = e^(2 pi i tau) and the bits its sum lost,
    by the term-ratio loop on mpc at prec bits: t_0 = 1 and each term the
    last times q^m (1 + q^(m-1)) / (1 - q^(2m)), stopping at a term below
    2^-prec of the largest.
    """
    with workprec(prec):
        q = mp.expjpi(2 * tau)
        eps = mpf(2) ** -prec
        total = term = prev = mpc(1)  # prev = q^(m-1)
        peak = mpf(1)
        for _ in range(circle.TERM_BUDGET):
            qm = prev * q
            term *= qm * (1 + prev) / (1 - qm * qm)
            total += term
            prev = qm
            size = abs(term)
            peak = max(peak, size)
            if size < eps * peak:
                return total, int(mp.ceil(mp.log(peak / abs(total), 2)))
    raise ArithmeticError("reference sum of Obar(q) did not converge")


def ratio_bound(r, m):
    """rho(m) = r^m (1 + r^(m-1)) / (1 - r^(2m)), the bound on |t_m / t_(m-1)| at |q| = r."""
    return r ** m * (1 + r ** (m - 1)) / (1 - r ** (2 * m))


def reference_oebar(tau, prec):
    """Obar = (q^2;q^2)_inf / (q;q)_inf * f(q) with f from the mpc reference loop."""
    f, _ = reference_mock_f(tau, prec)
    with workprec(prec):
        return euler_eval(2 * tau, prec) / euler_eval(tau, prec) * f


def reference_mordell(z, prec):
    """Watson's Mordell integral
    M(z) = 4 sqrt(3z/(2 pi)) int_0^inf e^(-3 z x^2/2) sinh(zx)/sinh(3zx/2) dx
    by mp.quad at prec bits, on the ray x = t e^(-i arg(z)/2), where z x^2 is
    real: along the real axis at complex z, mp.quad reaches only about 1e-21.
    With v = |z| t, M = 4 sqrt(3/(2 pi |z|)) int_0^inf e^(-3 v^2/(2|z|)) g(v e^(i arg(z)/2)) dv,
    g(u) = sinh u / sinh(3u/2).
    """
    with workprec(prec):
        z = mpc(z)
        size, turn = abs(z), mp.expj(mp.arg(z) / 2)

        def integrand(v):
            u = v * turn
            return exp(-3 * v * v / (2 * size)) * mp.sinh(u) / mp.sinh(3 * u / 2)

        w = sqrt(size)
        return 4 * sqrt(3 / (2 * pi * size)) * mp.quad(integrand, [0, w, 4 * w, 16 * w, mp.inf])


@lru_cache(maxsize=1)
def reference_mordell_coefficients(size):
    """b_0 .. b_(size-1) of M(z) ~ sum b_j z^j as exact fractions, by a
    recurrence of their own (the package's before its integer sequence).

    b_j = 2 c_j (2j-1)!! / 3^j, c_j the coefficient of u^(2j) in
    sinh u / sinh(3u/2).  With D_j = 4^j (2j)! c_j, sinh(3u/2) sum c_j u^(2j)
    = sinh u gives sum_(i<=j) C(2j+1, 2i+1) 9^i D_(j-i) = (2/3) 4^j, and
    b_j = 2 D_j / (j! 24^j).
    """
    d, b = [], []
    for j in range(size):
        rest = sum(math.comb(2 * j + 1, 2 * i + 1) * 9 ** i * d[j - i] for i in range(1, j + 1))
        d.append((Fraction(2, 3) * 4 ** j - rest) / (2 * j + 1))
        b.append(2 * d[j] / (math.factorial(j) * 24 ** j))
    return tuple(b)


def reference_omega(big_q, prec):
    """omega(Q) = sum_(n>=0) Q^(2n(n+1)) / (Q;Q^2)_(n+1)^2, each term from fresh powers."""
    with workprec(prec):
        total, n = mpc(0), 0
        while True:
            den = mpc(1)
            for k in range(n + 1):
                den *= 1 - big_q ** (2 * k + 1)
            term = big_q ** (2 * n * (n + 1)) / den ** 2
            total += term
            if abs(term) < mpf(2) ** -prec * abs(total):
                return total
            n += 1


def reference_watson_oebar(tau, prec):
    """Obar = (q^2;q^2)_inf / (q;q)_inf * f(q), with z = -2 pi i tau and
    e^(z/24) f(e^-z) = M(z) + 2 sqrt(2 pi/z) e^(-4 pi^2/(3z)) omega(e^(-2 pi^2/z)),
    M from reference_mordell: no asymptotic expansion and no direct sum of f.
    """
    with workprec(prec):
        z = -2j * pi * tau
        bracket = reference_mordell(z, prec) + 2 * sqrt(2 * pi / z) * exp(
            -4 * pi ** 2 / (3 * z)) * reference_omega(exp(-2 * pi ** 2 / z), prec)
        return euler_eval(2 * tau, prec) / euler_eval(tau, prec) * exp(-z / 24) * bracket


def reference_mordell_terms(size, prec):
    """_mordell_terms' float count, by its loop alone: the terms of M(z) at
    |z| = size until one is below 2^-(prec + GUARD_BITS), 0 where a ratio
    reaches 1 first or TERM_BUDGET terms do not get there."""
    bits, cut = math.log2(4 / 3), -(prec + GUARD_BITS)
    for terms in range(1, circle.TERM_BUDGET + 1):
        ratio = 3 * (2 * terms - 1) * size / (4 * math.pi ** 2)
        if ratio >= 1:
            return 0
        bits += math.log2(ratio)
        if bits < cut:
            return terms
    return 0


def circle_point(n, x):
    """tau = x + i y(n) on the circle of the Cauchy integral for OEbar(n);
    x given as a multiple of y when it is a string ending in "y"."""
    y = ArcGeometry(n).y
    if isinstance(x, str) and x.endswith("y"):
        x = int(x[:-1]) * y
    return mpc(mpf(x), y)


def assert_matches_mpc_loop(tau, prec):
    """oebar_eval at prec bits agrees with the mpc reference at 160 more to 2^-(prec-2)."""
    want = reference_oebar(tau, prec + 160)
    got = oebar_eval(tau=tau, prec=prec)
    assert abs(got - want) < mpf(2) ** -(prec - 2) * abs(want)


class TestGeometry:
    def test_radius_parameter(self):
        g = ArcGeometry(n=48)
        assert abs(g.y - mpf(1) / 48) < mpf("1e-15")

    def test_halfwidth(self):
        g = ArcGeometry(n=100, big_m=mpf(6))
        assert abs(g.major_halfwidth - 6 * g.y) < mpf("1e-20")

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            ArcGeometry(n=0)
        with pytest.raises(DomainError):
            ArcGeometry(n=100, big_m=mpf(-1))
        with pytest.raises(DomainError):
            # M y >= 1/2 would wrap the whole circle
            ArcGeometry(n=4, big_m=mpf(10))
        # nan passes both M <= 0 and M y >= 1/2, and would send the minor
        # arc's quadrature to its call budget
        for big_m in (mp.nan, mp.inf, float("nan"), float("inf")):
            with pytest.raises(DomainError, match="finite and > 0"):
                ArcGeometry(n=50, big_m=big_m)


class TestThreshold:
    def test_value(self):
        t = m_threshold(128)
        assert abs(t - mpf("5.5432793")) < mpf("1e-6")

    def test_saving_changes_sign_at_threshold(self):
        assert exponent_saving(mpf("5.543"), 128) < 0
        assert exponent_saving(mpf("5.544"), 128) > 0

    def test_saving_zero_at_threshold(self):
        t = m_threshold(192)
        assert abs(exponent_saving(t, 192)) < mpf(2) ** -180

    def test_saving_limit(self):
        # delta(M) -> 1/pi - pi/12 as M -> infinity
        with workprec(160):
            limit = 1 / pi - pi / 12
        assert abs(exponent_saving(mpf("1e9"), 128) - limit) < mpf("1e-9")
        assert exponent_saving(mpf("1e9"), 128) < limit


class TestEvaluation:
    def test_product_and_series_routes_agree(self):
        # the exact series, with OEbar(k) <= e^(pi sqrt(k/3)) bounding its
        # tail, is the reference for the product route
        prec = 128
        series = oebar_series_hypergeometric(512)
        with workprec(prec):
            growth_c = pi / sqrt(3)
        for q in (mpf("0.3"), mpf("-0.5"), mpc("0.2", "0.4")):
            with workprec(prec + 32):
                tau = log(q) / (2j * pi)
            a = oebar_eval(tau=tau, prec=prec)
            ref = evaluate_at(series, q, 160, growth_c=growth_c)
            b = ref.value
            tol = mpf(2) ** (-(prec - 16)) * (1 + abs(b))
            assert ref.tail_bound < tol
            assert abs(a - b) < tol

    def test_conjugation_symmetry(self):
        prec = 128
        tau = mpc("0.09", "0.03")
        a = oebar_eval(tau=tau, prec=prec)
        b = oebar_eval(tau=mpc(-tau.real, tau.imag), prec=prec)
        with workprec(prec):
            err = abs(a - b.conjugate())
        assert err < mpf(2) ** (-(prec - 24)) * (1 + abs(a))

    @pytest.mark.parametrize("n", [1600, 6400, 25600])
    @pytest.mark.parametrize("multiple", [0, 3, 6])
    def test_major_arc_points_against_bilateral_sum(self, n, multiple):
        # the bilateral sum cancels about pi/(12 y ln 2) bits here, so the
        # reference pays twice that and 64 bits more
        prec = 96
        y = ArcGeometry(n).y
        tau = mpc(multiple * y, y)
        want = bilateral_reference(tau, prec + 2 * int(ceil(pi / (12 * y * ln(2)))) + 64)
        got = oebar_eval(tau=tau, prec=prec)
        assert abs(got - want) < mpf(2) ** -(prec - 8) * abs(want)

    def test_point_next_to_minus_one(self):
        # the terms of Obar's series peak far above Obar here, so the first
        # sum loses about 41 bits and the value rests on the re-sum
        prec = 96
        y = ArcGeometry(10 ** 5).y
        tau = mpc("0.499", y)
        want = bilateral_reference(tau, prec + 2 * int(ceil(pi / (12 * y * ln(2)))) + 128)
        got = oebar_eval(tau=tau, prec=prec)
        assert abs(got - want) < mpf(2) ** -(prec - 8) * abs(want)

    @pytest.mark.parametrize("prec", [96, 256, 512])
    @pytest.mark.parametrize("n", [1600, 10 ** 5])
    @pytest.mark.parametrize("x", [0, "3y", mpf(1) / 4, mpf(1) / 3, mpf("0.499")],
                             ids=["0", "3y", "1/4", "1/3", "0.499"])
    def test_fixed_point_kernel_against_mpc_loop(self, prec, n, x):
        assert_matches_mpc_loop(circle_point(n, x), prec)

    @pytest.mark.parametrize("prec", [96, 256, 512])
    def test_lost_bits_and_resum_next_to_minus_one(self, prec, monkeypatch):
        tau = circle_point(10 ** 5, mpf("0.499"))
        _, want = reference_obar_sum(tau, prec + 160)
        with workprec(prec + GUARD_BITS):
            _, lost, _ = circle._obar_sum(tau, prec)
        assert abs(lost - want) <= 1
        sums = []
        inner = circle._obar_sum

        def counting(tau, prec):
            sums.append(prec)
            return inner(tau, prec)

        monkeypatch.setattr(circle, "_obar_sum", counting)
        oebar_eval(tau=tau, prec=prec)
        assert lost > GUARD_BITS // 2 and sums == [prec, prec + lost]

    def test_term_rising_after_a_deep_dip(self):
        # a direct-route point: the terms peak at 2^47.6, fall below 1 from
        # m = 199 and below 2^-(96 + 32) of the largest at m = 377, reach
        # 2^-80.9 at m = 385, then rise 31 bits to 2^-50.1 at m = 486.  A
        # first pass stopped at the cut would end inside the dip, 2^-83.8
        # relative from Obar; the ratio bound holds it past the rise.  The
        # re-sum, 44 bits more, cuts below the dip either way
        tau = circle_point(4 * 10 ** 6, mpf("0.498866"))
        with workprec(96 + GUARD_BITS):
            _, _, terms = circle._obar_sum(tau, 96)
        assert terms > 486
        want, _ = reference_obar_sum(tau, 96 + 160)
        got = oebar_eval(tau=tau, prec=96)
        assert abs(got - want) < mpf(2) ** -94 * abs(want)

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(0, 0.5), n=st.integers(10, 10 ** 5))
    def test_ratio_bound_holds_and_settles(self, x, n):
        # the premise of the stop rule: rho(m) bounds every term ratio and
        # falls with m, so from the first m with rho(m) <= 1/2 the sum after
        # a term is below it, and the direct sum stops no sooner.  At x = 0
        # the bound is attained, so the ratios may pass it by their
        # rounding, 2^-100 relative at 128 bits
        tau = circle_point(n, x)
        assume(tau.imag / abs(tau) ** 2 < 1)  # Im(-1/tau) < 1: the direct route
        with workprec(128):
            r = mp.e ** (-2 * pi * tau.imag)
            settled = next(m for m in itertools.count(1) if ratio_bound(r, m) <= mpf("0.5"))
            q = mp.expjpi(2 * tau)
            prev = mpc(1)
            for m in range(1, settled + 65):
                qm = prev * q
                ratio = qm * (1 + prev) / (1 - qm * qm)
                assert abs(ratio) <= ratio_bound(r, m) * (1 + mpf(2) ** -100)
                assert ratio_bound(r, m + 1) < ratio_bound(r, m)
                prev = qm
        _, _, terms = circle._obar_sum(tau, 96)
        assert terms >= settled

    @pytest.mark.parametrize("x,prec,n,settle", [
        pytest.param(x, prec, n, settle, id=f"{name}-{prec}" + (f"-n={n}" if n > 10 ** 5 else ""))
        for n, settle in [(10 ** 5, 384), (10 ** 6, 1212), (10 ** 7, 3831)]
        for name, x in [("1/4", mpf(1) / 4), ("1/3", mpf(1) / 3), ("0.499", mpf("0.499"))]
        for prec in [96, 160]])
    def test_ratio_bound_sets_the_stop(self, x, prec, n, settle):
        # rho(m) first reaches 1/2 at m = settle, after the terms have fallen
        # below the cut (at n = 10^5, m = 270, 286 and 242 at prec 96, 323,
        # 337 and 293 at prec 160): the ratio bound, not the cut, ends these
        # sums, at the exact settle index that the sum reads off Im tau
        tau = circle_point(n, x)
        with workprec(128):
            r = mp.e ** (-2 * pi * tau.imag)
            assert ratio_bound(r, settle - 1) > mpf("0.5") >= ratio_bound(r, settle)
        _, _, terms = circle._obar_sum(tau, prec)
        assert terms == settle

    def test_past_the_term_budget_raises(self):
        # rho(m) first reaches 1/2 past m = TERM_BUDGET here: the loop's own
        # budget ends the sum, with no value
        tau = circle_point(2 * 10 ** 7, mpf(1) / 4)
        with pytest.raises(ArithmeticError, match=f"needs over {circle.TERM_BUDGET} terms"):
            circle._obar_sum(tau, 96)

    @pytest.mark.parametrize("n,x", [(2 * 10 ** 7, "0.25"), (2 * 10 ** 7, "0.499"), (None, "0.5"),
                                     (12 * 10 ** 6, "0.25"), (12 * 10 ** 6, "1/3"),
                                     (12 * 10 ** 6, "0.499")])
    @pytest.mark.parametrize("prec", [96, 256])
    def test_refused_before_q_is_formed(self, n, x, prec, monkeypatch):
        # rho(m) first reaches 1/2 past TERM_BUDGET: the loop could only run
        # out, and is not run.  No _turn call, so q is not formed (tau =
        # 0.5 + 10^-300 i when n is None).  At n = 1.2 10^7, 1 - |q| is above
        # 1/TERM_BUDGET (1.07 times it), but the settle index is 4197
        tau = circle_point(n, mpf(x)) if n else mpc(mpf(x), mpf("1e-300"))
        calls = []
        inner = circle._turn
        monkeypatch.setattr(circle, "_turn", lambda *args: calls.append(args) or inner(*args))
        with pytest.raises(ArithmeticError, match=f"needs over {circle.TERM_BUDGET} terms"):
            circle._obar_sum(tau, prec)
        assert calls == []

    def test_summed_just_inside_the_refusal(self):
        # at n = 10^7 the settle index is 3831: the sum runs and settles
        # within the budget, and the value is the mpc loop's
        tau = circle_point(10 ** 7, mpf(1) / 4)
        _, _, terms = circle._obar_sum(tau, 96)
        assert terms < circle.TERM_BUDGET
        assert_matches_mpc_loop(tau, 96)

    @settings(max_examples=40, deadline=None)
    @given(x=st.floats(0, 0.5), n=st.integers(100, 25600))
    def test_fixed_point_kernel_at_random_circle_points(self, x, n):
        assert_matches_mpc_loop(circle_point(n, x), 96)

    @pytest.mark.parametrize("x,note", [(0, "no re-sum"), (mpf("0.499"), "re-summed at")],
                             ids=["0", "0.499"])
    def test_debug_log_reports_the_sum(self, x, note, caplog):
        caplog.set_level(logging.DEBUG, logger="oepartitions.circle")
        oebar_eval(tau=circle_point(10 ** 5, x), prec=96)
        messages = [r.getMessage() for r in caplog.records if r.name == "oepartitions.circle"]
        assert len(messages) == 1 and note in messages[0] and "terms" in messages[0]

    @pytest.mark.parametrize("n", [1600, 25600, 10 ** 5, 4 * 10 ** 5, 10 ** 6])
    def test_correctly_rounded_on_both_routes(self, n):
        # each component of oebar_eval(tau, prec) is that of
        # oebar_eval(tau, prec + 200) rounded to prec bits: 12 random points
        # of the major arc, where the transformed route serves, and three of
        # the minor arc, where the direct one does.  A value rounded to prec
        # bits inside the evaluation, before its last product, is an ulp off
        # at about a third of the major-arc points
        rng = random.Random(n)
        y = ArcGeometry(n).y
        xs = [mpf(rng.uniform(0, 6)) * y for _ in range(12)]
        for x in xs + [mpf(1) / 4, mpf("0.3333"), mpf("0.499")]:
            tau = mpc(x, y)
            for prec in (96, 128, 256):
                got = oebar_eval(tau, prec)
                want = oebar_eval(tau, prec + 200)
                with workprec(prec):
                    assert (got.real, got.imag) == (+want.real, +want.imag), (x, prec)

    @pytest.mark.parametrize("n", [25600, 10 ** 5])
    def test_integer_shift_takes_the_transformed_route(self, n, caplog):
        # Obar is 1-periodic in tau; tau - round(Re tau) is exact, so a
        # shifted major-arc point returns the value at tau bit for bit, by
        # the same route rather than by the far slower direct sum
        tau = circle_point(n, "3y")
        caplog.set_level(logging.DEBUG, logger="oepartitions.circle")
        want = oebar_eval(tau, 96)
        for shift in (1, -3):
            with workprec(200):
                shifted = tau + shift
            assert oebar_eval(shifted, 96) == want
        messages = [r.getMessage() for r in caplog.records if r.name == "oepartitions.circle"]
        assert len(messages) == 3 and all(": transformed, " in m for m in messages)

    def test_cancellation_past_the_pass_budget_raises(self, monkeypatch):
        # the first sum loses about 41 bits here; one pass may not pay for it
        monkeypatch.setattr(specfun, "LOSS_PASSES", 1)
        with pytest.raises(ArithmeticError):
            oebar_eval(tau=circle_point(10 ** 5, mpf("0.499")), prec=96)

    def test_term_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(circle, "TERM_BUDGET", 8)
        with pytest.raises(ArithmeticError):
            oebar_eval(tau=mpc(0, ArcGeometry(400).y), prec=96)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            oebar_eval(tau=mpc(0, -1), prec=96)

    @pytest.mark.parametrize("re,im,refusal", [
        ("0", "1e-400", None), ("0", "1e400", None), ("0", "1e-320", None),
        ("1e-320", "1e-320", None), ("0.001", "1e-310", ArithmeticError),
        ("0.5", "1e-300", ArithmeticError), ("0", "1e-300", None), ("0", "1e300", None),
        ("1e-10", "2e-20", None),
    ])
    def test_points_past_the_float_range(self, re, im, refusal):
        # no float size under- or overflows: a point gives its value, correctly
        # rounded although -1/tau reaches 2^1330, or a sum past the term
        # budget is refused up front; the type is checked exactly, since
        # DomainError is a ValueError and the float faults were ValueError,
        # OverflowError and ZeroDivisionError
        tau = mpc(mpf(re), mpf(im))
        if refusal:
            with pytest.raises(Exception) as info:
                oebar_eval(tau, 96)
            assert type(info.value) is refusal and "terms" in str(info.value)
            return
        got = oebar_eval(tau, 96)
        if mpf(im) > 1:
            assert got == 1
        want = oebar_eval(tau, 296)
        with workprec(96):
            assert (got.real, got.imag) == (+want.real, +want.imag)

    def test_dominant_pole_growth(self):
        # near q = 1 the value is (2 sqrt2/3) e^(pi/(24 y)) up to an error
        # bounded by C y e^(pi/(24 y)); the measured C must be stable in y
        prec = 128
        cs = []
        for y in ("0.02", "0.01", "0.005"):
            y = mpf(y)
            with workprec(prec):
                v = oebar_eval(tau=mpc(0, y), prec=prec)
                main = 2 * sqrt(2) / 3 * exp(pi / (24 * y))
                cs.append(abs(v - main) / (y * exp(pi / (24 * y))))
        for c in cs:
            assert mpf("0.3") < c < mpf("0.5")
        assert max(cs) / min(cs) < mpf("1.1")


@lru_cache(maxsize=1)
def andrews_parts_series(order):
    """O_e and O_o as exact series to order, from genfun's parity split."""
    return parity_split(order)


class TestAndrewsO:
    # oe_parts_eval sums O(q) = sum_m q^(m(m+1)/2) / (q^2;q^2)_m on _obar_sum's loop

    def test_parts_against_the_coefficient_series(self):
        # 50 seeded points with |q| <= e^(-2 pi 0.03), where the series to
        # order 2000 reaches 2^-(prec + 64) below the parts: each part is
        # evaluate_at's sum of its exact series, with its declared tail bound
        rng = random.Random(20)
        even, odd = andrews_parts_series(2000)
        for _ in range(50):
            prec = rng.choice((64, 96, 160))
            tau = mpc(rng.uniform(-0.5, 0.5), math.exp(rng.uniform(math.log(0.03), math.log(3))))
            got = circle.oe_parts_eval(tau, prec)
            with workprec(prec + 64 + GUARD_BITS):
                q = mp.expjpi(2 * tau)
                for part, value in zip((even, odd), got):
                    want = evaluate_at(part, q, prec + 64, growth_c=pi / sqrt(5))
                    assert want.tail_bound < mpf(2) ** -(prec + 8) * abs(want.value), tau
                    assert abs(value - want.value) < mpf(2) ** -(prec - 2) * abs(want.value), tau

    @pytest.mark.parametrize("x,note", [(0, "no re-sum"), (mpf(1) / 4, "re-summed at 156 bits")],
                             ids=["0", "1/4"])
    def test_debug_log_reports_the_sum(self, x, note, caplog):
        # at q = i |q| the even part cancels about 60 bits and is summed again
        caplog.set_level(logging.DEBUG, logger="oepartitions.circle")
        circle.oe_parts_eval(circle_point(10 ** 5, x), 96)
        messages = [r.getMessage() for r in caplog.records if r.name == "oepartitions.circle"]
        assert len(messages) == 1
        assert messages[0].startswith("O(q) at tau = ") and "384 terms, lost " in messages[0]
        assert messages[0].endswith(note)

    def test_small_q_pays_its_bits_up_front(self, caplog):
        # O_o is about q = e^-500 against t_0 = 1: the first pass takes
        # ceil(500 / ln 2) = 722 bits more, so it neither floors q to 0 nor
        # sums twice
        caplog.set_level(logging.DEBUG, logger="oepartitions.circle")
        with workprec(256):
            tau = mpc(0, 500 / (2 * pi))
            want = exp(-mpf(500))  # O_o = q + q^3 + ..., O_e = 1 + q^6 + ...
        even, odd = circle.oe_parts_eval(tau, 96)
        assert even == 1 and odd.imag == 0
        assert abs(odd.real - want) <= mpf(2) ** -96 * want
        messages = [r.getMessage() for r in caplog.records if r.name == "oepartitions.circle"]
        assert len(messages) == 1 and messages[0].endswith("lost 722 bits, no re-sum")

    def test_past_the_term_budget_raises_at_once(self, time_limit):
        # 1 - |q| < 1/TERM_BUDGET: refused before q is formed
        with time_limit(2), pytest.raises(ArithmeticError, match=r"^O\(q\) at tau = .* needs over"):
            circle.oe_parts_eval(mpc(0, mpf("1e-5") / (2 * pi)), 96)

    def test_the_gf_eval_band_is_refused_before_q_is_formed(self, monkeypatch):
        # eps = 2.6e-4: 1 - |q| is above 1/TERM_BUDGET, but rho(m) first
        # reaches 1/2 past the budget, so no _turn call forms q
        calls = []
        inner = circle._turn
        monkeypatch.setattr(circle, "_turn", lambda *args: calls.append(args) or inner(*args))
        with pytest.raises(ArithmeticError, match=r"^O\(q\) at tau = .* needs over 4096 terms"):
            circle.oe_parts_eval(mpc(0, mpf("2.6e-4") / (2 * pi)), 96)
        assert calls == []

    @pytest.mark.parametrize("im", ["700", "1e6", "1e400"])
    def test_far_inside_the_disc_the_bits_are_bounded(self, im, time_limit):
        # |q| below 2^-(TERM_BUDGET + prec + 48): the first pass takes
        # TERM_BUDGET more bits, not log2(1/|q|) (9.1e6 at Im tau = 10^6),
        # q floors to 0 there, and the sum raises at once
        with time_limit(2), pytest.raises(ArithmeticError, match="sums to 0 at 4240 fixed-point bits"):
            circle.oe_parts_eval(mpc(0, mpf(im)), 96)

    def test_lower_half_plane_is_refused(self):
        with pytest.raises(DomainError):
            circle.oe_parts_eval(mpc("0.1", "-0.1"), 96)


class TestWatsonTransformation:
    """Near q = 1, f comes from Watson's transformation: M(z) by its
    asymptotic expansion, omega(Q) and (-Q;Q)_inf in the dual nome."""

    @pytest.mark.parametrize("n,x", [(4 * 10 ** 5, "0.0032"), (10 ** 6, "0.0035"),
                                     (10 ** 5, "0.0091"), (10 ** 6, "0.0105")])
    def test_large_n_against_rotated_ray(self, n, x, time_limit):
        # the direct sum stopped inside a dip of its terms at the first two
        # points, wrong by 2^-62.3 and 2^-30.9; at the last two Im(-1/tau)
        # is 5.5 and 1.3, so the omega term is about 2^-13 and 1 times M
        tau = circle_point(n, mpf(x))
        with time_limit(20):
            want = reference_watson_oebar(tau, 140)
        got = oebar_eval(tau=tau, prec=96)
        assert abs(got - want) < mpf(2) ** -90 * abs(want)

    @settings(max_examples=6, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(n=st.integers(10 ** 5, 10 ** 6), multiple=st.floats(0, 6))
    def test_random_large_n_against_rotated_ray(self, n, multiple, time_limit):
        y = ArcGeometry(n).y
        tau = mpc(mpf(multiple) * y, y)
        with time_limit(20):
            want = reference_watson_oebar(tau, 140)
        got = oebar_eval(tau=tau, prec=96)
        assert abs(got - want) < mpf(2) ** -90 * abs(want)

    @pytest.mark.parametrize("prec,n,x", [
        (96, 400, 0), (96, 1600, "2y"), (96, 25600, "6y"), (96, 4 * 10 ** 5, mpf("0.0032")),
        (256, 25600, 0), (256, 25600, "3y"), (256, 4 * 10 ** 5, mpf("0.0032")),
    ])
    def test_routes_agree_where_both_converge(self, prec, n, x):
        # Watson's transformation against Obar's own series, each as its
        # ints and their scale; the series loses up to 64 bits here, so it
        # is compared after its re-sum
        tau = circle_point(n, x)
        found = circle._transformed(tau, prec)
        assert found is not None
        ((re, im, wp), _, _), _ = specfun.pay_for_loss(
            lambda bits: circle._obar_sum(tau, bits), prec, "Obar(q)")
        with workprec(prec + GUARD_BITS):
            (tr, ti, scale), _, _ = found
            transformed = mpc(mpf((tr, -scale)), mpf((ti, -scale)))
            direct = mpc(mpf((re, -wp)), mpf((im, -wp)))
        assert abs(transformed - direct) < mpf(2) ** -(prec - 2) * abs(direct)

    def test_expansion_coefficients_against_exact_series(self):
        # as z -> 0+, e^(z/24) f(e^-z) ~ sum b_j z^j: the rest after the
        # terms below z^j, over z^j, is b_j up to less than the next term
        # b_(j+1) z.  f is summed from its exact series, whose coefficients
        # stay below e^(pi sqrt(k/3)); the omega term is below e^-131 here
        series = f_mock_series(3000)
        circle._mordell_fixed(96 + GUARD_BITS + 4, 16)  # continues the h_j of the package to 16
        b = [Fraction(2 * h, 3 ** (j + 1) * math.factorial(j) * 24 ** j)
             for j, h in enumerate(circle._MORDELL_H[:16])]
        assert b[:2] == [Fraction(4, 3), Fraction(-5, 54)]
        with workprec(160):
            coeffs = [mpf(c.numerator) / c.denominator for c in b]
            for z in (mpf("0.1"), mpf("0.05")):
                ref = evaluate_at(series, exp(-z), 160, growth_c=pi / sqrt(3))
                rest = exp(z / 24) * ref.value
                for j in range(9):
                    error = abs(rest / z ** j - coeffs[j]) + ref.tail_bound / z ** j
                    assert error < abs(coeffs[j + 1]) * z
                    rest -= coeffs[j] * z ** j

    @pytest.mark.parametrize("prec", [96, 256])
    @pytest.mark.parametrize("dual", [("0.3", "1.2"), ("-0.1", "1"), ("0", "30"),
                                      ("0.3", "0.8"), ("0.45", "0.6")])
    def test_closed_eta_factor_against_euler_eval(self, dual, prec):
        # (-q;q)_inf = e^(pi i (1/(24 tau) - tau/12)) (Q;Q^2)_inf / sqrt2,
        # Q = e^(-pi i/tau), with (Q;Q^2)_inf = 1/(-Q;Q)_inf the int product
        # at the Mordell table's bits; tau = -1/w on both sides of
        # Im(-1/tau) = Im w = 1
        wp = prec + GUARD_BITS + 4
        with workprec(prec + GUARD_BITS):
            tau = -1 / mpc(*dual)
            big_q = mp.expjpi(-1 / tau)
            _, (re, im) = circle._omega_product(
                (to_fixed(big_q.real._mpf_, wp), to_fixed(big_q.imag._mpf_, wp)), wp)
            got = mp.expjpi(1 / (24 * tau) - tau / 12) * mpc(mpf((re, -wp)), mpf((im, -wp))) / sqrt(2)
            want = euler_eval(2 * tau, prec + GUARD_BITS) / euler_eval(tau, prec + GUARD_BITS)
            assert abs(got - want) < mpf(2) ** -(prec - 2) * abs(want)

    @pytest.mark.parametrize("wp", range(48, 549, 50))
    def test_omega_and_product_in_one_pass_against_references(self, wp):
        # _omega_product against reference_omega and (Q;Q^2)_inf multiplied
        # out at wp + 64 bits, both from the pass's own Q, each within the
        # docstring's 5 (wp/9 + 2) + 17 units of 2^-wp, for |Q| from e^-pi
        # down to 4 units of 2^-wp.  Below 16 units the pass stops after its
        # first step: omega still holds its term 1/(1 - Q)^2, about 1, and
        # the product is 1
        rng, top = random.Random(wp), -math.pi / math.log(2)
        with workprec(wp + 64):
            bound = (5 * (mpf(wp) / 9 + 2) + 17) * mpf(2) ** -wp
            for k in range(12):
                size = mpf(2) ** (top + (2 - wp - top) * k / 11)  # log2 |Q| down to 2 - wp
                q = size * mp.expjpi(mpf(rng.uniform(-1, 1)))
                big_q = to_fixed(q.real._mpf_, wp), to_fixed(q.imag._mpf_, wp)
                q = mpc(mpf((big_q[0], -wp)), mpf((big_q[1], -wp)))
                (omega_re, omega_im), (re, im) = circle._omega_product(big_q, wp)
                want, power = mpc(1), q
                while abs(power) >= mpf(2) ** -(wp + 64):
                    want, power = want * (1 - power), power * q ** 2
                assert abs(mpc(mpf((re, -wp)), mpf((im, -wp))) - want) < bound, (wp, k)
                omega = mpc(mpf((omega_re, -wp)), mpf((omega_im, -wp)))
                assert abs(omega - reference_omega(q, wp + 64)) < bound, (wp, k)
                if abs(q) < 16 * mpf(2) ** -wp:
                    assert (re, im) == (1 << wp, 0)

    def test_major_arc_needs_no_euler_eval(self, monkeypatch):
        # nor does the minor arc: Obar is summed from its own series there.
        # The package holds no euler_eval, and takes no eta product by
        # mpmath's qp, which the tests' euler_eval reduces to
        assert not hasattr(circle, "euler_eval") and not hasattr(specfun, "euler_eval")
        calls = []
        inner = mp.qp

        def counting(*args, **kwargs):
            calls.append(args)
            return inner(*args, **kwargs)

        monkeypatch.setattr(mp, "qp", counting)
        major_arc_integral(ArcGeometry(1600), prec=96)
        oebar_eval(tau=circle_point(1600, mpf("0.499")), prec=96)
        assert calls == []

    @pytest.mark.parametrize("prec,n,x", [
        (96, 4 * 10 ** 5, "0.0032"), (96, 10 ** 6, "0.0035"), (96, 10 ** 5, "0.0091"),
        (96, 10 ** 6, "0.0105"), (96, 400, 0), (96, 1600, "2y"), (96, 25600, "6y"),
        (256, 4 * 10 ** 5, "0.0032"), (256, 10 ** 6, "0.0035"), (256, 25600, 0),
        (256, 25600, "3y"), (256, 10 ** 5, 0),
    ])
    def test_mordell_sum_bit_identical_to_its_own_loop(self, prec, n, x, monkeypatch):
        # the Mordell sum as _transformed forms it, specfun.horner_fixed on the
        # table at its bits, against Goertzel's recurrence written out (at
        # x = 0, where z is real, Horner's rule), starting from the top b_j
        # rather than from 0, on the same ints of z: the two must give the
        # same ints
        sums = []

        def recording(coeffs, point, wp):
            coeffs = list(coeffs)
            sums.append((coeffs, point, wp, horner_fixed(coeffs, point, wp)))
            return sums[-1][-1]

        monkeypatch.setattr(circle, "horner_fixed", recording)
        tau = circle_point(n, x)
        with workprec(prec + GUARD_BITS):
            terms = circle._mordell_terms(float(abs(-2j * pi * tau)), prec)
        assert terms > 0
        circle._transformed(tau, prec)
        ((read, (zr, zi), wp, got),) = sums
        coeffs = circle._mordell_fixed(wp, terms)
        assert wp == prec + GUARD_BITS + 4 and read == coeffs[::-1]
        b1, b2 = coeffs[-1], 0
        if zi:
            s, t = 2 * zr, zr * zr + zi * zi  # z + z' and z z', t at scale 2^(2 wp)
            for b in reversed(coeffs[:-1]):
                b1, b2 = b + ((s * b1 - (t * b2 >> wp)) >> wp), b1
            want = b1 - (b2 * zr >> wp), b2 * zi >> wp
        else:
            for b in reversed(coeffs[:-1]):
                b1 = b + (b1 * zr >> wp)
            want = b1, 0
        assert (zi == 0) == (x == 0) and got == want

    @pytest.mark.parametrize("prec,size", [(96, 90), (256, 201), (512, 379)])
    def test_table_entries_are_floors_of_the_exact_coefficients(self, prec, size):
        # the sizes are those of each precision's worst point, which the
        # table once covered whole
        wp = prec + GUARD_BITS + 4  # _transformed's
        got = circle._mordell_fixed(wp, size)
        assert len(got) == size
        exact = reference_mordell_coefficients(379)[:size]
        assert got == [(b.numerator << wp) // b.denominator for b in exact]

    def test_tables_grow_only_as_far_as_a_point_reads(self):
        circle._mordell_table.cache_clear()
        del circle._MORDELL_H[1:]
        tau = circle_point(10 ** 5, 0)
        with workprec(512 + GUARD_BITS):
            terms = circle._mordell_terms(float(abs(-2j * pi * tau)), 512)
        oebar_eval(tau=tau, prec=512)
        # each table is keyed by _transformed's wp = prec + GUARD_BITS + 4
        built = len(circle._mordell_table(512 + GUARD_BITS + 4))
        assert built == terms == len(circle._MORDELL_H)
        oebar_eval(tau=tau, prec=256)  # fewer terms: no new h_j
        built = len(circle._mordell_table(256 + GUARD_BITS + 4))
        assert 0 < built < terms == len(circle._MORDELL_H)

    @pytest.mark.parametrize("n,x,route", [
        (10 ** 5, 0, "transformed"), (1600, "6y", "direct"), (10 ** 5, mpf("0.499"), "direct"),
    ], ids=["near-1", "expansion-diverges", "minor-arc"])
    def test_debug_log_names_the_route(self, n, x, route, caplog):
        caplog.set_level(logging.DEBUG, logger="oepartitions.circle")
        oebar_eval(tau=circle_point(n, x), prec=96)
        messages = [r.getMessage() for r in caplog.records if r.name == "oepartitions.circle"]
        assert len(messages) == 1 and f": {route}, " in messages[0]

    def test_complex_exponentials_per_call(self, monkeypatch):
        # no sample calls mp.expjpi.  The transformed route takes the
        # phase of e^(-pi i inv/24) and, where the omega term is not
        # negligible, those of Q and of that term's factor, each by a
        # fixed-point turn; at (10^5, 0) Q floors to 0, and is not formed.
        # The direct route takes the phase of q
        # alone.  The Cauchy recovery at n = 105 takes K = 128 samples by one
        # transform; it turns once, to e^(2 pi i/K), and rotates by it from
        # root to root, so its 64 roots cost one complex exponential, not 64
        calls = []

        def counting(name, inner):
            return lambda *args: calls.append(name) or inner(*args)

        monkeypatch.setattr(mp, "expjpi", counting("expjpi", mp.expjpi))
        monkeypatch.setattr(circle, "_turn", counting("_turn", circle._turn))
        for n, x, want in [(10 ** 5, 0, ["_turn"]), (25600, "6y", ["_turn"] * 3),
                           (400, "3y", ["_turn"]), (1600, mpf("0.499"), ["_turn"])]:
            tau = circle_point(n, x)
            calls.clear()
            oebar_eval(tau=tau, prec=96)
            assert calls == want, (n, x)
        calls.clear()
        cauchy_full_integral(105, prec=192)
        assert calls == ["_turn"]

    @pytest.mark.parametrize("prec", [64, 96, 128, 256, 512, 1024])
    def test_mordell_count_refuses_at_its_threshold(self, prec, monkeypatch):
        # the count, a bisection on the closed form of the log2 term sizes,
        # is the old float loop's (reference_mordell_terms) on a dense grid,
        # below the size where TERM_BUDGET ratios are all below 1, and at the
        # ends.  Where the count turns 0 for good (each route's threshold
        # found by bisection on it), the two differ by float error: the
        # thresholds are within 1e-13 of each other, and next to them the
        # counts are equal or one of them is 0, where the direct route
        # serves.  Which of the two turns 0 first is rounding: the closed
        # form turns 0 1.3e-15 (relative) after the loop at prec 96 and 256,
        # and before it at the other four
        def threshold(count):
            lo, hi = 2 * math.pi * 2.0 ** -30, 2048 * math.pi
            assert count(lo, prec) and not count(hi, prec)
            while lo < (mid := (lo + hi) / 2) < hi:
                lo, hi = (mid, hi) if count(mid, prec) else (lo, mid)
            return lo, hi

        loop, closed = threshold(reference_mordell_terms), threshold(circle._mordell_terms)
        assert abs(closed[1] / loop[1] - 1) < 1e-13
        near = [point for size in loop + closed
                for point in (math.nextafter(size, 0), size, math.nextafter(size, math.inf))]
        for size in near:
            counts = circle._mordell_terms(size, prec), reference_mordell_terms(size, prec)
            assert counts[0] == counts[1] or 0 in counts, size
        edge = 2 * math.pi ** 2 / (3 * circle.TERM_BUDGET)
        small = [edge, math.nextafter(edge, 0), edge / 2, edge / 1e3, 1e-300]
        grid = [2 * math.pi * 2.0 ** (k / 64) for k in range(-64 * 24, 64 * 11)]
        for size in small + grid + [math.inf]:
            assert circle._mordell_terms(size, prec) == reference_mordell_terms(size, prec), size
        # O(1) where the count is 0 (one closed form, two lgamma calls, or
        # none where no ratio is below 1), and O(log last) elsewhere
        calls = []

        def lgamma(x):
            calls.append(x)
            return math.lgamma(x)

        monkeypatch.setattr(circle, "math", SimpleNamespace(**{**vars(math), "lgamma": lgamma}))
        for size in near + small + grid + [1e300, math.inf]:
            calls.clear()
            terms = circle._mordell_terms(size, prec)
            last = min(math.ceil(2 * math.pi ** 2 / (3 * size) + 0.5) - 1, circle.TERM_BUDGET)
            assert len(calls) <= (2 * math.ceil(math.log2(last)) + 4 if terms else 4), size

    def test_route_chosen_before_the_transformation(self, monkeypatch):
        # _transformed reads the float term count of the Mordell expansion
        # first: where it is 0, as at these points next to q = 1 for small
        # n, -1/tau, which every phase reads, is not formed; at (10^5, 0) it
        # is formed once, while the omega term is far below the truncation
        # of M there and is not summed, and Q, which floors to 0, enters no
        # product; at (25600, 6y) the omega term and (Q;Q^2)_inf are summed,
        # in one pass
        calls = []

        def counting(name):
            inner = getattr(circle, name)
            return lambda *args: calls.append(name) or inner(*args)

        for name in ("mpc_reciprocal", "_omega_product"):
            monkeypatch.setattr(circle, name, counting(name))
        for n, x, want in [(25, 0, []), (25, "3y", []), (400, "3y", []),
                           (10 ** 5, 0, ["mpc_reciprocal"]),
                           (25600, "6y", ["mpc_reciprocal", "_omega_product"])]:
            calls.clear()
            oebar_eval(tau=circle_point(n, x), prec=96)
            assert calls == want, (n, x)

    def test_cancelling_parts_fall_back_to_the_direct_sum(self, monkeypatch, caplog):
        # here the omega term is about as large as M(z); an omega that makes
        # it -M(z) (1 - 2^-20) leaves 20 cancelled bits, more than the
        # GUARD_BITS / 2 the transformation may lose, so Obar must come
        # from its own series and must not change
        prec, tau = 96, circle_point(10 ** 6, "0.0105")
        caplog.set_level(logging.DEBUG, logger="oepartitions.circle")

        def route():
            (message,) = [r.getMessage() for r in caplog.records if r.name == "oepartitions.circle"]
            caplog.clear()
            return message

        want = oebar_eval(tau=tau, prec=prec)
        assert ": transformed, " in route()

        inner = circle._omega_product

        def cancelling_omega(big_q, wp):
            # as ints scaled by 2^wp, like the omega it stands in for, beside
            # the pass's own (Q;Q^2)_inf
            _, product = inner(big_q, wp)
            with workprec(wp + 16):
                z = -2j * pi * tau
                point = to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp)
                terms = circle._mordell_terms(float(abs(z)), prec)
                mr, mi = horner_fixed(reversed(circle._mordell_fixed(wp, terms)), point, wp)
                factor = 2 * sqrt(1j / tau) * mp.expjpi(-2 / (3 * tau))
                omega = -mpc(mpf((mr, -wp)), mpf((mi, -wp))) * (1 - mpf(2) ** -20) / factor
                return (to_fixed(omega.real._mpf_, wp), to_fixed(omega.imag._mpf_, wp)), product

        monkeypatch.setattr(circle, "_omega_product", cancelling_omega)
        got = oebar_eval(tau=tau, prec=prec)
        assert ": direct, " in route()
        assert abs(got - want) < mpf(2) ** -(prec - 2) * abs(want)


class TestQuadrature:
    def test_smooth_integral_to_working_precision(self):
        # int_0^2 e^x cos 3x dx = [e^x (cos 3x + 3 sin 3x) / 10]_0^2; float64
        # nodes would stall near 1e-16, nodes at working precision do not
        prec = 128
        with workprec(prec):
            got, err = adaptive_quad(lambda x: exp(x) * cos(3 * x), mpf(0), mpf(2),
                                     mpf(2) ** -100, prec)
            want = (exp(2) * (cos(6) + 3 * sin(6)) - 1) / 10
            assert abs(got - want) < mpf(2) ** -100 * abs(want)
            assert err <= mpf(2) ** -100 * abs(got)

    @pytest.mark.parametrize("prec", [64, 160])
    def test_weights_integrate_even_powers_exactly(self, prec):
        # the rule at level L integrates 1, x^2, ..., x^(2^L) on [-1, 1] to
        # within the rounding of its nodes and weights at prec, at levels 3
        # to 9; odd powers vanish by its symmetry
        for level in range(3, 10):
            nodes, weights = circle._clenshaw_curtis(level, prec)
            assert len(nodes) == len(weights) == (1 << level) + 1
            with workprec(prec + 64):
                squares, powers = [x * x for x in nodes], [mpf(1)] * len(nodes)
                for k in range((1 << level - 1) + 1):
                    got = mp.fdot(weights, powers)
                    assert abs(got - mpf(2) / (2 * k + 1)) < mpf(2) ** (1 - prec), (level, k)
                    powers = [p * x2 for p, x2 in zip(powers, squares)]

    @pytest.mark.parametrize("prec", [64, 96, 128, 160, 288])
    def test_rule_against_the_term_by_term_builder(self, prec):
        # the weights' cosine sums by one transform, against the same sums
        # taken term by term: each node equal, each weight equal or one unit
        # in its last place from it, at levels 3 to 10
        for level in range(3, 11):
            nodes, weights = circle._clenshaw_curtis(level, prec)
            want_nodes, want_weights = clenshaw_curtis(level, prec)
            assert nodes == want_nodes
            for j, (got, want) in enumerate(zip(weights, want_weights)):
                assert abs(got - want) <= mpf(2) ** (mp.mag(want) - prec), (level, j)

    def test_oscillatory_integral_raises_one_panel(self):
        # cos(2000 x) on [0, 1] needs more than 2^9 + 1 nodes: the one panel
        # is raised to level 11, 2^11 + 1 calls, each abscissa sampled once,
        # and its estimate meets the documented target
        seen = []

        def f(x):
            seen.append(x)
            return cos(2000 * x)

        with workprec(64):
            got, err = adaptive_quad(f, mpf(0), mpf(1), mpf(10) ** -10, 64)
            want = sin(2000) / 2000
            assert abs(got - want) <= err
            assert abs(got - want) <= mpf(10) ** -10 * abs(got)
            assert err <= mpf(10) ** -10 * max(abs(got), 1)
        assert len(seen) == (1 << 11) + 1
        assert len(set(seen)) == len(seen)

    def test_debug_record_per_call(self, caplog):
        caplog.set_level(logging.DEBUG, logger="oepartitions.circle")
        with workprec(64):
            adaptive_quad(exp, mpf(0), mpf(1), mpf(2) ** -50, 64)
        messages = [r.getMessage() for r in caplog.records if r.name == "oepartitions.circle"]
        assert len(messages) == 1
        assert messages[0].startswith("quad: 33 calls, level 5, estimate ")
        assert messages[0].endswith(", target 1.52614e-15")  # 2^-50 (e - 1)

    def test_budget_exhausted_raises(self, monkeypatch):
        monkeypatch.setattr(circle, "QUAD_CALL_BUDGET", 40)
        with workprec(64):
            with pytest.raises(QuadratureError):
                adaptive_quad(lambda x: cos(200 * x), mpf(0), mpf(1), mpf(10) ** -10, 64)

    def test_target_below_precision_rejected(self):
        # rounding can make the error estimate vanish, so a target finer
        # than the working precision could be reported met without being met
        with workprec(64):
            with pytest.raises(DomainError):
                adaptive_quad(lambda x: 1 / (1 + x * x), mpf(0), mpf(1), mpf(2) ** -200, 64)


class TestCauchyRecovery:
    # n = 127, 128 and 129 on either side of a doubling of K = 1 << n.bit_length(),
    # and n = 128, where the fold's twiddles w^(-nk) = (-1)^k are exact
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 50, 105, 108, 127, 128, 129])
    def test_exact_recovery(self, n):
        want = oebar_series_hypergeometric(2 * n).coefficient(n)
        got, residual = cauchy_full_integral(n, prec=192)
        assert got == want
        assert residual < mpf("1e-20")

    def test_negative_n_is_refused(self):
        with pytest.raises(DomainError, match="n must be >= 0"):
            cauchy_full_integral(-1)

    @pytest.mark.parametrize("n", [105, 128])
    def test_samples_half_the_circle(self, n, monkeypatch):
        # K = 1 << n.bit_length() samples, the least power of two above n,
        # all of them bins of one transform that reads a table of the K/2
        # roots on half the circle; no Horner sum
        calls, horner = [], []
        inner = circle._dft

        def counting(re, im, roots, wp):
            calls.append((len(re), len(im), len(roots)))
            return inner(re, im, roots, wp)

        monkeypatch.setattr(circle, "_dft", counting)
        monkeypatch.setattr(circle, "horner_fixed", lambda *args: horner.append(args))
        got, _ = cauchy_full_integral(n, prec=192)
        size = 1 << n.bit_length()
        assert calls == [(size, size, size // 2)]
        assert horner == []
        assert got == oebar_series_product(n).coefficient(n)

    def test_raised_precision_sums_the_series_once(self, summand_calls):
        # OEbar(3000) has 133 bits, so prec 128 is raised to 149 bits, on
        # the one series built, not by a second recovery
        got, residual = cauchy_full_integral(3000, prec=128)
        assert summand_calls == [3000]
        assert got == oebar_series_product(3000).coefficient(3000)
        assert residual < mpf("1e-9")

    def test_exact_recovery_at_800(self):
        # K = 1024 samples of an order-800 series, 5120 butterflies; the
        # product route is a different identity from the hypergeometric
        # series the recovery sums
        got, residual = cauchy_full_integral(800, prec=192)
        assert got == oebar_series_product(800).coefficient(800)
        assert residual < mpf("1e-40")

    def test_precision_sized_from_the_coefficient(self):
        # OEbar(600) has 56 bits, more than 16 + GUARD_BITS working bits hold:
        # transformed for bits = 16 the residual is 1.2e-5, so the recovery
        # must size itself
        got, residual = cauchy_full_integral(600, prec=16)
        assert got == oebar_series_hypergeometric(600).coefficient(600)
        assert residual < mpf(2) ** -30
        # the exact distance of the recovered quotient, which carries the
        # samples' rounding, not an mpf division that rounds it to 0
        assert residual > 0

    def test_recovery_reads_no_ambient_precision(self):
        # integers from the first sample point to the quotient: run unguarded
        # at 8 working bits, it recovers the same coefficient, and only the
        # residual, built last, is rounded to those bits
        want = cauchy_full_integral(600, prec=16)
        with workprec(8):
            got, residual = cauchy_full_integral.__wrapped__(600, prec=16)
        assert got == want[0] and 0 < residual < mpf(2) ** -30

    @pytest.mark.parametrize("n", [105, 600])
    def test_one_radius_for_samples_and_division(self, n, monkeypatch):
        # the series is a polynomial, so the samples and the division share
        # one radius, the unit circle's: no _radius call, _dft is handed
        # exactly c_j 2^wp, padded with zeros to K, and a zero imaginary
        # part, and the quotient is c_n itself, with no r^n to divide out
        radii, inputs = [], []
        inner = circle._radius
        monkeypatch.setattr(circle, "_radius", lambda *args: radii.append(args) or inner(*args))
        transform = circle._dft

        def recording(re, im, roots, wp):
            inputs.append((list(re), list(im), wp))
            return transform(re, im, roots, wp)

        monkeypatch.setattr(circle, "_dft", recording)
        got, _ = cauchy_full_integral(n, prec=64)
        assert radii == []
        ((re, im, wp),) = inputs
        coeffs, size = oebar_series_hypergeometric(n).coeffs, 1 << n.bit_length()
        assert re == [c << wp for c in coeffs] + [0] * (size - n - 1)
        assert im == [0] * size
        assert got == coeffs[n]

    def test_zero_case(self):
        got, residual = cauchy_full_integral(0)
        assert got == 1 and residual == 0

    def test_debug_record_per_recovery(self, caplog):
        # one record: n, the K = 128 samples, and the docstring's
        # wp = bits + GUARD_BITS + 2 log2 K + 4 + ceil(lift), with
        # lift = log2 sum_j 2^(bit length of c_j - b) read here at 64 bits,
        # not in floats
        n = 105
        caplog.set_level(logging.DEBUG, logger="oepartitions.circle")
        _, residual = cauchy_full_integral(n, prec=192)
        coeffs = oebar_series_hypergeometric(n).coeffs
        top = coeffs[n].bit_length()
        with workprec(64):
            lift = log(sum(mpf(2) ** (c.bit_length() - top) for c in coeffs if c), 2)
        wp = 192 + GUARD_BITS + 2 * 7 + 4 + int(ceil(lift))
        messages = [r.getMessage() for r in caplog.records if r.name == "oepartitions.circle"]
        assert messages == [f"recovery at n = 105: 128 samples at {wp} bits, "
                            f"residual {mp.nstr(residual, 3)}"]

    @pytest.mark.parametrize("n", [1600, 6400])
    def test_exact_recovery_at_large_n(self, n):
        # the transform at K = 2048 and 8192 against the product route
        got, residual = cauchy_full_integral(n, prec=128)
        assert got == oebar_series_product(n).coefficient(n)
        assert residual < mpf(2) ** -48

    @pytest.mark.parametrize("size", [1 << k for k in range(9)])
    def test_transform_against_the_direct_sum(self, size):
        # random Gaussian ints of up to 100 bits through _dft, against
        # sum_j x_j w^(jk) summed directly in ints with w^m at 200 bits, each
        # bin within the docstring's K (1 + d)^(log2 K) (d A + sqrt2), d the
        # roots' largest distance from w^m
        rng, wp, fine = random.Random(size), 64, 200
        xs = [(rng.randrange(-2 ** 100, 2 ** 100), rng.randrange(-2 ** 100, 2 ** 100))
              for _ in range(size)]
        with workprec(fine):
            w = [mp.expjpi(mpf(2 * m) / size) for m in range(size)]
            roots = [(to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp))
                     for z in w[:size // 2]]
            d = max([abs(mpc(*root) / 2 ** wp - z) for root, z in zip(roots, w)], default=0)
            bound = (size * (1 + d) ** (size.bit_length() - 1)
                     * (d * mp.fsum(abs(mpc(*x)) for x in xs) + sqrt(2))) * 2 ** fine
            exact = [(to_fixed(z.real._mpf_, fine), to_fixed(z.imag._mpf_, fine)) for z in w]
        re, im = [x for x, _ in xs], [x for _, x in xs]
        circle._dft(re, im, roots, wp)
        for k in range(size):
            terms = [(xr, xi, *exact[j * k % size]) for j, (xr, xi) in enumerate(xs)]
            want_re = sum(xr * c - xi * s for xr, xi, c, s in terms)
            want_im = sum(xr * s + xi * c for xr, xi, c, s in terms)
            gap = mp.hypot((re[k] << fine) - want_re, (im[k] << fine) - want_im)
            assert gap <= bound, (size, k)


class TestArcs:
    def test_arcs_reassemble_coefficient(self):
        # I1 + I2 must equal OEbar(n) e^(2 pi n y) scaled back: the two arc
        # pieces are the split Cauchy integral, so the sum is the coefficient
        n = 50
        geom = ArcGeometry(n=n)
        i1 = major_arc_integral(geom, prec=96)
        i2 = minor_arc_integral(geom, prec=96)
        want = oebar_series_hypergeometric(n).coefficient(n)
        got = (i1 + i2).real
        assert abs(got - want) < mpf("1e-6") * want

    def test_major_arc_carries_main_term(self):
        devs = []
        for n in (100, 400):
            geom = ArcGeometry(n=n)
            i1 = major_arc_integral(geom, prec=96)
            expo = oebar_asymptotic(n, prec=96)
            devs.append(abs(i1.real / expo - 1))
        assert devs[1] < devs[0]
        assert devs[1] < mpf("0.02")

    def test_major_arc_converges_at_large_n(self, time_limit):
        # the bilateral sum's cancellation made this integrand noise and the
        # quadrature ran out of its call budget after minutes
        n = 6400
        with time_limit(20):
            i1 = major_arc_integral(ArcGeometry(n=n), prec=96)
        expo = oebar_asymptotic(n, prec=96)
        assert abs(i1.real / expo - 1) < mpf("0.02")

    def test_main_term_forms_converge(self):
        # Bessel and exponential forms agree to O(1/sqrt(n))
        devs = []
        for n in (100, 400, 1600):
            expo, bess = oebar_asymptotic(n, prec=96), oebar_bessel_form(n, prec=96)
            devs.append(abs(bess / expo - 1))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < mpf("0.01")

    def test_major_arc_matches_contour_form(self):
        # I1 ~ (pi sqrt2/(3 sqrt(3n))) P_0(pi sqrt n/(2 sqrt 3))
        n = 100
        geom = ArcGeometry(n=n)
        i1 = major_arc_integral(geom, prec=96)
        with workprec(128):
            u = pi * sqrt(mpf(n)) / (2 * sqrt(3))
            form = pi * sqrt(2) / (3 * sqrt(mpf(3 * n))) * wright_p(0, u, mpf(6), 96)
        assert abs(i1.real / form.real - 1) < mpf("0.02")

    @staticmethod
    def sampled(arc, n, monkeypatch):
        """The tau at which arc at n, prec 96, samples Obar, in order."""
        calls = []
        inner = circle._oebar_eval_tau

        def counting(tau, prec):
            calls.append(tau)
            return inner(tau, prec)

        monkeypatch.setattr(circle, "_oebar_eval_tau", counting)
        arc(ArcGeometry(n), prec=96)
        return calls

    @pytest.mark.parametrize("arc,n,want", [
        (major_arc_integral, 25, 65), (major_arc_integral, 12, 65), (minor_arc_integral, 12, 65),
        (major_arc_integral, 6400, 129),
    ])
    def test_integrand_calls_per_arc(self, arc, n, want, monkeypatch):
        # the Clenshaw-Curtis levels, the panel estimator and the refinement
        # rule fix how many samples an arc takes; a faster sample must not
        # change that.  The first three stop at level 6, 2^6 + 1 calls, and
        # the major arc at n = 6400 at level 7
        assert len(self.sampled(arc, n, monkeypatch)) == want

    @pytest.mark.parametrize("arc,n", [(major_arc_integral, 1600), (minor_arc_integral, 14)])
    def test_no_abscissa_sampled_twice(self, arc, n, monkeypatch):
        # a raised level samples only its new odd-indexed nodes: the major
        # arc at n = 1600 is raised from level 4 to 7, the minor arc at
        # n = 14 from level 4 to 6
        calls = self.sampled(arc, n, monkeypatch)
        assert len(set(calls)) == len(calls)

    @staticmethod
    def reference(arc, geom, prec):
        """The arc's value by mpmath's Gauss-Legendre quadrature of oebar_eval's
        values times mpmath's phase, and its rel_target, at the working
        precision of the caller."""
        n, y, w = geom.n, geom.y, geom.major_halfwidth
        lo, hi, target = ((0, w, mpf(10) ** -8) if arc is major_arc_integral
                          else (w, mpf("0.5"), mpf(10) ** -6))
        amp = exp(2 * pi * n * y)
        # the arc integrates half the interval's real part and doubles it
        return 2 * mp.quadgl(lambda x: (oebar_eval(mpc(x, y), prec)
                                        * mp.expjpi(-2 * n * x)).real * amp,
                             mp.linspace(lo, hi, 5)), target

    @pytest.mark.parametrize("arc,n", [
        (major_arc_integral, 12), (major_arc_integral, 25), (major_arc_integral, 100),
        (minor_arc_integral, 12), (minor_arc_integral, 25),
    ])
    def test_arc_meets_its_target_against_an_independent_reference(self, arc, n, monkeypatch):
        # the reference is mpmath's Gauss-Legendre quadrature at prec + 64 of
        # oebar_eval's values times mpmath's phase, which share neither the
        # rule nor the fixed-point integrand with the arc: the arc is within
        # its rel_target of it, and within the error estimate it returned
        prec = 96
        estimates = []
        inner = circle.adaptive_quad

        def recording(*args):
            value, err = inner(*args)
            estimates.append(err)
            return value, err

        monkeypatch.setattr(circle, "adaptive_quad", recording)
        geom = ArcGeometry(n)
        got = arc(geom, prec=prec)
        with workprec(prec + 64):
            ref, target = self.reference(arc, geom, prec + 64)
            assert abs(got - ref) <= target * abs(ref)
            assert abs(got - ref) <= 2 * estimates[0]

    @staticmethod
    def coarse(monkeypatch):
        """Make every arc pass sample 8 bits below the bits it asks for, and
        each sample report an error 2^8 times its own, as a sampler with 8
        guard bits fewer would: a first pass too coarse for its target."""
        inner = circle._arc_integrand

        def integrand(n, y, bits, errors):
            sample = inner(n, y, bits - 8, errors)

            def coarse(x):
                value = sample(x)
                e, acc = errors[-1]
                errors[-1] = e + 8, acc - 8
                return value

            return coarse

        monkeypatch.setattr(circle, "_arc_integrand", integrand)

    @pytest.mark.parametrize("arc,n,first,short", [
        (major_arc_integral, 25, 11, 7), (minor_arc_integral, 12, 4, 8),
    ])
    def test_arc_reruns_where_its_samples_are_too_coarse(self, arc, n, first, short, monkeypatch):
        # 16 bits below the bits a target of 1e-8 (1e-6) asks for, 8 of them
        # in the sampler's guard, the rounding bound of the samples passes a
        # quarter of the target by `short` bits: the arc runs again once, at
        # the first pass's bits plus those it lacked plus ARC_SLACK_BITS, and
        # meets its target
        bits, second = [], first + short + circle.ARC_SLACK_BITS
        self.coarse(monkeypatch)
        sample = circle._oebar_eval_tau
        monkeypatch.setattr(circle, "_oebar_eval_tau",
                            lambda tau, prec: bits.append(prec) or sample(tau, prec))
        geom = ArcGeometry(n)
        got = arc(geom, prec=96)
        assert sorted(set(bits)) == [first, second] and bits.count(first) == bits.count(second)
        assert bits.index(second) == bits.count(first)  # the whole first pass, then the second
        with workprec(96 + 64):
            ref, target = self.reference(arc, geom, 96 + 64)
            assert abs(got - ref) <= target * abs(ref)

    def test_minor_arc_reruns_once_by_the_bits_it_lacked(self, caplog, monkeypatch):
        # unforced: at n = 200 the minor arc's first pass at 12 bits misses its
        # bound by a bit, and the arc runs again once, at 12 + 1 + ARC_SLACK_BITS
        # bits; the two arcs still add up to OEbar(200)
        passes, inner = [], circle._arc_integrand
        monkeypatch.setattr(circle, "_arc_integrand", lambda n, y, bits, errors: (
            passes.append(bits) or inner(n, y, bits, errors)))
        geom = ArcGeometry(200)
        with caplog.at_level(logging.DEBUG, logger="oepartitions"):
            i2 = minor_arc_integral(geom, prec=96)
        [record] = [r.getMessage() for r in caplog.records if r.getMessage().startswith("arc ")]
        assert len(passes) == 2 and passes[0] == 12 and passes[1] <= 17
        assert "first pass at 12 bits" in record and f"re-ran at {passes[1]} bits" in record
        want = oebar_series_product(200).coefficient(200)
        assert abs(major_arc_integral(geom, prec=96) + i2 - want) < mpf("1e-6") * want

    @pytest.mark.parametrize("arc,n,prec", [
        (major_arc_integral, 12, 43), (minor_arc_integral, 12, 36), (major_arc_integral, 12, 40),
        (major_arc_integral, 12, 16),
    ])
    def test_samples_at_the_bits_the_target_needs(self, arc, n, prec, monkeypatch):
        # ceil(log2(1/rel_target)) - 8 bits, 19 for 1e-8 and 12 for 1e-6,
        # whatever prec, and never more than prec
        bits = min(prec, 19 if arc is major_arc_integral else 12)
        seen = set()
        sample = circle._oebar_eval_tau
        monkeypatch.setattr(circle, "_oebar_eval_tau",
                            lambda tau, b: seen.add(b) or sample(tau, b))
        arc(ArcGeometry(n), prec=prec)
        assert seen == {bits}

    @pytest.mark.parametrize("arc,n,note", [
        (major_arc_integral, 12, "first pass at 19 bits"), (minor_arc_integral, 100, "re-ran"),
    ])
    def test_debug_record_per_arc(self, arc, n, note, caplog, monkeypatch):
        # one record per arc: its first pass's bits, the worst accuracy a sample
        # reported, the rounding bound and whether it re-ran.  The minor arc at
        # n = 100 cancels about 2^10, which its first pass at 12 bits covers;
        # sampled 16 bits coarser (see coarse) it runs again, by the 15 bits
        # it lacked plus ARC_SLACK_BITS
        if note == "re-ran":
            self.coarse(monkeypatch)
        with caplog.at_level(logging.DEBUG, logger="oepartitions"):
            arc(ArcGeometry(n), prec=96)
        records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("arc ")]
        assert len(records) == 1 and note in records[0] and "rounding below 2^-" in records[0]
        assert "samples within 2^-" in records[0]
        if note == "re-ran":
            assert "first pass at 12 bits" in records[0]
            assert f"re-ran at {12 + 15 + circle.ARC_SLACK_BITS} bits" in records[0]
        else:
            assert "no re-run" in records[0]

    @pytest.mark.parametrize("prec", [12, 19, 36, 43, 96, 128])
    def test_integrand_against_oebar_eval(self, prec):
        # the fixed-point integrand is Re(Obar(q) e^(-2 pi i n x)) e^(2 pi n y)
        # to the accuracy its sample reports, 2^-acc of |Obar| e^(2 pi n y),
        # or its own 2^-(prec + GUARD_BITS - 3) where that is less, and
        # within the error bound 2^e it records; on the major arc and the
        # minor one, and on both routes: the transformed one serves the
        # major arc at n = 1600 and 10^5, the direct one the rest.  At
        # n = 10^5, x = 0, Obar is about 2^414, above 2^wp, so its scale is
        # negative.  Either route reports at least prec + GUARD_BITS / 2 - 3
        routes = set()
        for n in (12, 25, 100, 1600, 10 ** 5):
            geom = ArcGeometry(n)
            with workprec(prec + GUARD_BITS):
                y, w = geom.y, geom.major_halfwidth
            for x in (0, w / 3, w * mpf("0.9"), w + (mpf("0.5") - w) / 3, mpf("0.5")):
                errors = []
                with workprec(prec + GUARD_BITS):
                    x, tau = mpf(x), mpc(x, y)
                    got = circle._arc_integrand(n, y, prec, errors)(x)
                    routes.add(circle._transformed(tau, prec) is not None)
                [(e, acc)] = errors
                assert acc >= prec + GUARD_BITS // 2 - 3
                with workprec(prec + 64):
                    value, amp = oebar_eval(tau, prec + 64), exp(2 * pi * n * y)
                    want = (value * mp.expjpi(-2 * n * x)).real * amp
                    tol = mpf(2) ** -(min(acc, prec + GUARD_BITS - 3) - 1) * abs(value) * amp
                    assert abs(got - want) < min(tol, mpf(2) ** e), (n, x)
        assert routes == {True, False}

    @pytest.mark.parametrize("arc,n", [
        (major_arc_integral, 12), (major_arc_integral, 25), (major_arc_integral, 1600),
        (major_arc_integral, 10 ** 5), (minor_arc_integral, 12), (minor_arc_integral, 25),
    ])
    def test_every_arc_sample_within_its_reported_accuracy(self, arc, n, monkeypatch):
        # each sample an arc takes, at the bits its first pass asks for, is
        # within 2^-acc of |Obar| against oebar_eval at 64 bits more, acc the
        # accuracy the sampler reported with it: the direct route at n = 12
        # and 25, the transformed one on the major arc at n = 1600 and 10^5
        taken = []
        sample = circle._oebar_eval_tau
        monkeypatch.setattr(circle, "_oebar_eval_tau",
                            lambda tau, b: taken.append((tau, b, sample(tau, b))) or taken[-1][2])
        arc(ArcGeometry(n), prec=96)
        monkeypatch.setattr(circle, "_oebar_eval_tau", sample)
        assert taken
        for tau, bits, ((re, im, scale), acc) in taken:
            with workprec(bits + 64):
                want = oebar_eval(tau, bits + 64)
                got = mpc(mpf((re, -scale)), mpf((im, -scale)))
                assert abs(got - want) < mpf(2) ** -acc * abs(want), (tau, bits, acc)

    def test_main_term_rejects_bad_n(self):
        with pytest.raises(DomainError):
            oebar_asymptotic(0)
        with pytest.raises(DomainError):
            oebar_bessel_form(0)


class TestMinorArcBound:
    def test_bound_dominates_empirical_max(self):
        geom = ArcGeometry(n=100)
        bound = minor_arc_bound(geom, prec=96)
        emp = minor_arc_empirical_max(geom, grid=60, prec=96)
        assert emp < bound.bound_value

    def test_empirical_max_screens_then_confirms_at_prec(self, monkeypatch, caplog):
        # every sample at 8 bits, and only those within their reported
        # accuracy of the largest again at prec
        calls = []
        sample = circle._oebar_eval_tau
        monkeypatch.setattr(circle, "_oebar_eval_tau",
                            lambda tau, prec: calls.append(prec) or sample(tau, prec))
        with caplog.at_level(logging.DEBUG, logger="oepartitions"):
            minor_arc_empirical_max(ArcGeometry(100), grid=60, prec=96)
        assert calls.count(8) == 60 and 1 <= calls.count(96) <= 2
        assert len(calls) == calls.count(8) + calls.count(96)
        records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("minor-arc")]
        assert records == [f"minor-arc maximum at n = 100: 60 samples screened at 8 bits, "
                           f"{calls.count(96)} kept, confirmed at 96 bits"]

    @pytest.mark.parametrize("n,grid", [(100, 60), (1600, 100)])
    def test_empirical_max_keeps_every_sample_that_may_be_largest(self, n, grid, monkeypatch):
        # the screen keeps every sample whose reported accuracy lets it be the
        # largest: here the grid's least sample screens as the largest's
        # screened value raised by 2^-(a + 1), a the two samples' worse
        # accuracy, so the largest may still be the largest, and it is kept
        # and returned
        prec, geom = 96, ArcGeometry(n)
        want = minor_arc_empirical_max(geom, grid=grid, prec=prec)
        with workprec(prec + GUARD_BITS):
            y, w = geom.y, geom.major_halfwidth
            taus = [mpc(w + (mpf("0.5") - w) * (k + 1) / grid, y) for k in range(grid)]
        top = max(taus, key=lambda tau: abs(oebar_eval(tau, prec)))
        rival = min(taus, key=lambda tau: abs(oebar_eval(tau, prec)))
        sample = circle._oebar_eval_tau

        def skewed(tau, bits):
            if bits == prec or tau != rival:
                return sample(tau, bits)
            ((re, im, scale), acc), (_, own) = sample(top, bits), sample(tau, bits)
            shift = min(acc, own) + 1
            return (re + (re >> shift), im + (im >> shift), scale), own

        monkeypatch.setattr(circle, "_oebar_eval_tau", skewed)
        assert minor_arc_empirical_max(geom, grid=grid, prec=prec) == want

    @pytest.mark.parametrize("n,grid", [(103, 60), (1600, 20), (10 ** 5, 100)])
    def test_empirical_max_is_the_grid_max(self, n, grid):
        # compared as |Obar|^2 in integers, with one square root: the max of
        # abs(oebar_eval) over the same grid, to the precision asked for.  At
        # n = 10^5 the first sample takes the transformed route and the rest
        # the direct one, so the two routes' scales are compared
        prec, geom = 96, ArcGeometry(n)
        got = minor_arc_empirical_max(geom, grid=grid, prec=prec)
        with workprec(prec + GUARD_BITS):  # the points it samples, to the bit
            y, w = geom.y, geom.major_halfwidth
            xs = [w + (mpf("0.5") - w) * (k + 1) / grid for k in range(grid)]
        with workprec(prec + 64):
            want = max(abs(oebar_eval(mpc(x, y), prec + 64)) for x in xs)
            assert abs(got - want) < mpf(2) ** -(prec - 1) * want

    def test_default_m_clears_threshold(self):
        geom = ArcGeometry(n=100, big_m=mpf(6))
        bound = minor_arc_bound(geom, prec=96)
        assert bound.clears_threshold
        assert bound.exponent_saving > 0

    @pytest.mark.parametrize("big_m", ["3", "5.5", "5.6", "6", "10"])
    def test_clears_threshold_iff_m_above_it(self, big_m):
        bound = minor_arc_bound(ArcGeometry(n=100, big_m=mpf(big_m)), prec=96)
        assert bound.clears_threshold == (mpf(big_m) > m_threshold())

    def test_small_m_fails_threshold(self):
        geom = ArcGeometry(n=100, big_m=mpf(3))
        bound = minor_arc_bound(geom, prec=96)
        assert not bound.clears_threshold
        assert bound.exponent_saving < 0

    def test_empirical_grid_validation(self):
        with pytest.raises(DomainError):
            minor_arc_empirical_max(ArcGeometry(n=50), grid=1)


class TestReport:
    def test_report_fields_consistent(self):
        rep = circle_report(25, big_m=6, prec=96, grid=20)
        assert rep["n"] == 25
        assert rep["recovered_coefficient"] == rep["exact_coefficient"]
        assert rep["recovery_residual"] < 0.25
        assert rep["clears_threshold"] is True
        assert rep["empirical_max"] < rep["minor_bound"]
        assert 0.5 < rep["ratio"] < 1.5
        assert abs(rep["I1"] / rep["main_term"] - rep["ratio"]) < 1e-9

    @pytest.mark.parametrize("n", [16, 20, 21, 22, 100, 1000])
    def test_y_is_correctly_rounded(self, n):
        # at mpmath's ambient 53 bits y came out one ulp off for these n < 1000
        with workprec(200):
            want = float(1 / (4 * sqrt(3 * n)))
        assert circle_report(n, prec=96, grid=20)["y"] == want

    def test_sums_each_route_once_to_order_n(self, summand_calls, monkeypatch):
        # the Cauchy recovery samples the hypergeometric series, and the exact
        # coefficient it is checked against comes from the product route,
        # watson_core / theta(-q), which sums no hypergeometric series
        built = []
        for name in ("oebar_series_hypergeometric", "f_mock_series", "watson_core"):
            inner = getattr(circle.genfun, name)
            monkeypatch.setattr(circle.genfun, name,
                                lambda order, name=name, inner=inner: built.append(name) or inner(order))
        report = circle_report(25, prec=96, grid=20)
        assert summand_calls == [25]
        assert sorted(built) == ["oebar_series_hypergeometric", "watson_core"]
        assert report["exact_coefficient"] == report["recovered_coefficient"]

    def test_grid_below_two_is_refused_before_any_work(self, summand_calls):
        with pytest.raises(DomainError, match="grid"):
            circle_report(800, prec=128, grid=1)
        assert summand_calls == []
