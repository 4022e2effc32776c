import logging
import math
import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st
from mpmath import mp, mpf, mpc, workprec, sqrt, pi, exp, cos, sin, log, ceil, ln
from mpmath.libmp import to_fixed

from oepartitions import circle, specfun
from oepartitions.specfun import GUARD_BITS, DomainError, QuadratureError, euler_eval, wright_p
from oepartitions.genfun import f_mock_series, oebar_series_hypergeometric, oebar_series_product
from oepartitions.series import evaluate_at, horner_fixed
from oepartitions.circle import (
    ArcGeometry,
    adaptive_quad,
    m_threshold,
    exponent_saving,
    oebar_eval,
    cauchy_full_integral,
    major_arc_integral,
    minor_arc_integral,
    main_term,
    minor_arc_bound,
    minor_arc_empirical_max,
    circle_report,
)


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
        # the premise of the stop rule: rho(m) bounds every term ratio, and
        # is at most 1/2 from _settled_term on, so the sum after a term from
        # there is below it.  At x = 0 the bound is attained, so the ratios
        # may pass it by their rounding, 2^-100 relative at 128 bits
        tau = circle_point(n, x)
        assume(tau.imag / abs(tau) ** 2 < 1)  # Im(-1/tau) < 1: the direct route
        settled = circle._settled_term(tau)
        with workprec(128):
            r = mp.e ** (-2 * pi * tau.imag)
            q = mp.expjpi(2 * tau)
            prev = mpc(1)
            for m in range(1, settled + 65):
                qm = prev * q
                ratio = qm * (1 + prev) / (1 - qm * qm)
                assert abs(ratio) <= ratio_bound(r, m) * (1 + mpf(2) ** -100)
                prev = qm
            assert ratio_bound(r, settled) <= mpf("0.5")

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
        # Watson's transformation against Obar's own series; the series
        # loses up to 64 bits here, so it is compared after its re-sum
        tau = circle_point(n, x)
        with workprec(prec + GUARD_BITS):
            size = 2 * math.pi * abs(complex(tau))
            terms = circle._mordell_terms(size, prec)
            assert terms > 0
            found = circle._transformed(tau, -1 / tau, size, terms, prec)
            assert found is not None
            transformed = found[0]
            (direct, _, _), _ = specfun.pay_for_loss(lambda bits: circle._obar_sum(tau, bits),
                                                     prec, "Obar(q)")
        assert abs(transformed - direct) < mpf(2) ** -(prec - 2) * abs(direct)

    def test_expansion_coefficients_against_exact_series(self):
        # as z -> 0+, e^(z/24) f(e^-z) ~ sum b_j z^j: the rest after the
        # terms below z^j, over z^j, is b_j up to less than the next term
        # b_(j+1) z.  f is summed from its exact series, whose coefficients
        # stay below e^(pi sqrt(k/3)); the omega term is below e^-131 here
        series = f_mock_series(3000)
        circle._mordell_fixed(96, 16)  # continues the h_j of the package to 16
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
        # (-q;q)_inf = e^(pi i (1/(24 tau) - tau/12)) / (sqrt2 (-Q;Q)_inf),
        # tau = -1/w on both sides of Im(-1/tau) = Im w = 1
        with workprec(prec + GUARD_BITS):
            tau = -1 / mpc(*dual)
            got = (mp.expjpi(1 / (24 * tau) - tau / 12)
                   / (sqrt(2) * circle._neg_pochhammer(mp.expjpi(-1 / tau))))
            want = euler_eval(2 * tau, prec + GUARD_BITS) / euler_eval(tau, prec + GUARD_BITS)
            assert abs(got - want) < mpf(2) ** -(prec - 2) * abs(want)

    def test_major_arc_needs_no_euler_eval(self, monkeypatch):
        # nor does the minor arc: Obar is summed from its own series there
        assert not hasattr(circle, "euler_eval")
        calls = []
        inner = specfun.euler_eval

        def counting(tau, prec=256):
            calls.append(tau)
            return inner(tau, prec)

        monkeypatch.setattr(specfun, "euler_eval", counting)
        major_arc_integral(ArcGeometry(1600), prec=96)
        oebar_eval(tau=circle_point(1600, mpf("0.499")), prec=96)
        assert calls == []

    @pytest.mark.parametrize("prec,n,x", [
        (96, 4 * 10 ** 5, "0.0032"), (96, 10 ** 6, "0.0035"), (96, 10 ** 5, "0.0091"),
        (96, 10 ** 6, "0.0105"), (96, 400, 0), (96, 1600, "2y"), (96, 25600, "6y"),
        (256, 4 * 10 ** 5, "0.0032"), (256, 10 ** 6, "0.0035"), (256, 25600, 0),
        (256, 25600, "3y"), (256, 10 ** 5, 0),
    ])
    def test_mordell_sum_bit_identical_to_its_own_loop(self, prec, n, x):
        # _mordell's Horner loop written out, starting from the top b_j rather
        # than from 0, at the working precision of _transformed:
        # series.horner_fixed must give the same bits
        with workprec(prec + GUARD_BITS):
            z = -2j * pi * circle_point(n, x)
            terms = circle._mordell_terms(float(abs(z)), prec)
            assert terms > 0
            wp, coeffs = circle._mordell_fixed(prec, terms)
            zr, zi = to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp)
            ar, ai = coeffs[-1], 0
            for b in reversed(coeffs[:-1]):
                ar, ai = ((ar * zr - ai * zi) >> wp) + b, (ar * zi + ai * zr) >> wp
            want = mpc(mpf((ar, -wp)), mpf((ai, -wp)))
            got = circle._mordell(z, terms, prec)
        assert (got.real._mpf_, got.imag._mpf_) == (want.real._mpf_, want.imag._mpf_)
        # and below the bits the mpc keeps
        assert horner_fixed(reversed(coeffs), (zr, zi), wp) == (ar, ai)

    @pytest.mark.parametrize("prec,size", [(96, 90), (256, 201), (512, 379)])
    def test_table_entries_are_floors_of_the_exact_coefficients(self, prec, size):
        # the sizes are those of each precision's worst point, which the
        # table once covered whole
        wp, got = circle._mordell_fixed(prec, size)
        assert wp == prec + GUARD_BITS + 4 and len(got) == size
        exact = reference_mordell_coefficients(379)[:size]
        assert got == [(b.numerator << wp) // b.denominator for b in exact]

    def test_tables_grow_only_as_far_as_a_point_reads(self):
        circle._mordell_table.cache_clear()
        del circle._MORDELL_H[1:]
        tau = circle_point(10 ** 5, 0)
        with workprec(512 + GUARD_BITS):
            terms = circle._mordell_terms(float(abs(-2j * pi * tau)), 512)
        oebar_eval(tau=tau, prec=512)
        assert len(circle._mordell_table(512)) == terms == len(circle._MORDELL_H)
        oebar_eval(tau=tau, prec=256)  # fewer terms: no new h_j
        assert 0 < len(circle._mordell_table(256)) < terms == len(circle._MORDELL_H)

    @pytest.mark.parametrize("n,x,route", [
        (10 ** 5, 0, "transformed"), (1600, "6y", "direct"), (10 ** 5, mpf("0.499"), "direct"),
    ], ids=["near-1", "expansion-diverges", "minor-arc"])
    def test_debug_log_names_the_route(self, n, x, route, caplog):
        caplog.set_level(logging.DEBUG, logger="oepartitions.circle")
        oebar_eval(tau=circle_point(n, x), prec=96)
        messages = [r.getMessage() for r in caplog.records if r.name == "oepartitions.circle"]
        assert len(messages) == 1 and f": {route}, " in messages[0]

    def test_complex_exponentials_per_call(self, monkeypatch):
        # the transformed route takes Q, e^(-pi i inv/24) and, where it is
        # not negligible, the omega term's factor; Q only once the expansion
        # serves, and the direct route takes q alone.  The Cauchy recovery
        # at n = 105 takes K = 106 samples, each twiddle the sample's own
        # root, and the 52 past K/2 are conjugates: floor(K/2) + 1 = 54 roots
        calls = []
        inner = mp.expjpi

        def counting(x):
            calls.append(x)
            return inner(x)

        monkeypatch.setattr(mp, "expjpi", counting)
        for n, x, want in [(10 ** 5, 0, 2), (25600, "6y", 3), (400, "3y", 1),
                           (1600, mpf("0.499"), 1)]:
            tau = circle_point(n, x)
            calls.clear()
            oebar_eval(tau=tau, prec=96)
            assert len(calls) == want, (n, x)
        calls.clear()
        cauchy_full_integral(105, prec=192)
        assert len(calls) == 54

    def test_route_chosen_before_the_transformation(self, monkeypatch):
        # the float term count of the Mordell expansion is read first: where
        # it is 0, as at these points next to q = 1 for small n, neither
        # -1/tau nor _transformed is computed
        calls = []
        inner = circle._transformed

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(circle, "_transformed", counting)
        for n, x, want in [(25, 0, 0), (25, "3y", 0), (400, "3y", 0), (10 ** 5, 0, 1)]:
            calls.clear()
            oebar_eval(tau=circle_point(n, x), prec=96)
            assert len(calls) == want, (n, x)

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

        def cancelling_omega(big_q):
            z = -2j * pi * tau
            m = circle._mordell(z, circle._mordell_terms(float(abs(z)), prec), prec)
            factor = 2 * sqrt(1j / tau) * mp.expjpi(-2 / (3 * tau))
            return -m * (1 - mpf(2) ** -20) / factor

        monkeypatch.setattr(circle, "_omega", cancelling_omega)
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
    # odd and even K = n + 1, and the old power-of-two sample counts' edges
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 10, 50, 127, 128, 129])
    def test_exact_recovery(self, n):
        want = oebar_series_hypergeometric(2 * n).coefficient(n)
        got, residual = cauchy_full_integral(n, prec=192)
        assert got == want
        assert residual < mpf("1e-20")

    @pytest.mark.parametrize("n", [105, 128])
    def test_samples_half_the_circle(self, n, monkeypatch):
        # K = n + 1 samples, of which those past K/2 are the conjugates of
        # those before it: floor((n+1)/2) + 1 Horner sums
        calls = []
        inner = circle.horner_fixed

        def counting(*args):
            calls.append(args)
            return inner(*args)

        monkeypatch.setattr(circle, "horner_fixed", counting)
        cauchy_full_integral(n, prec=192)
        assert len(calls) == (n + 1) // 2 + 1

    def test_exact_recovery_at_800(self):
        # 401 samples of an order-800 series, the conjugates of the other
        # 400 of its 801 folded in; the product route is a different
        # identity from the hypergeometric series the recovery sums
        got, residual = cauchy_full_integral(800, prec=192)
        assert got == oebar_series_product(800).coefficient(800)
        assert residual < mpf("1e-40")

    def test_precision_sized_from_the_coefficient(self):
        # OEbar(600) has 56 bits, more than 16 + GUARD_BITS working bits hold:
        # summed at those bits the residual is 66, so the recovery must size itself
        got, residual = cauchy_full_integral(600, prec=16)
        assert got == oebar_series_hypergeometric(600).coefficient(600)
        assert residual < mpf(2) ** -30

    def test_zero_case(self):
        got, residual = cauchy_full_integral(0)
        assert got == 1 and residual == 0


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
            expo, _ = main_term(n, prec=96)
            devs.append(abs(i1.real / expo - 1))
        assert devs[1] < devs[0]
        assert devs[1] < mpf("0.02")

    def test_major_arc_converges_at_large_n(self, time_limit):
        # the bilateral sum's cancellation made this integrand noise and the
        # quadrature ran out of its call budget after minutes
        n = 6400
        with time_limit(20):
            i1 = major_arc_integral(ArcGeometry(n=n), prec=96)
        expo, _ = main_term(n, prec=96)
        assert abs(i1.real / expo - 1) < mpf("0.02")

    def test_main_term_forms_converge(self):
        # Bessel and exponential forms agree to O(1/sqrt(n))
        devs = []
        for n in (100, 400, 1600):
            expo, bess = main_term(n, prec=96)
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

    def test_main_term_rejects_bad_n(self):
        with pytest.raises(DomainError):
            main_term(0)


class TestMinorArcBound:
    def test_bound_dominates_empirical_max(self):
        geom = ArcGeometry(n=100)
        bound = minor_arc_bound(geom, prec=96)
        emp = minor_arc_empirical_max(geom, grid=60, prec=96)
        assert emp < bound.bound_value

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
        # coefficient it is checked against comes from the product route's f
        built = []
        for name in ("oebar_series_hypergeometric", "f_mock_series"):
            inner = getattr(circle.genfun, name)
            monkeypatch.setattr(circle.genfun, name,
                                lambda order, name=name, inner=inner: built.append(name) or inner(order))
        report = circle_report(25, prec=96, grid=20)
        assert summand_calls == [25, 25]
        assert sorted(built) == ["f_mock_series", "oebar_series_hypergeometric"]
        assert report["exact_coefficient"] == report["recovered_coefficient"]
