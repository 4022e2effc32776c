import functools
import logging
import re
from dataclasses import dataclass

import pytest
from mpmath import mp, mpf, mpc, workprec, exp, log, sqrt, pi, quad, besseli, polylog

from oepartitions import specfun
from oepartitions.circle import oebar_eval
from oepartitions.specfun import (
    GUARD_BITS,
    DomainError,
    dilog,
    guarded,
    jacobi_theta,
    bessel_i,
    wright_p,
)

from oracles import euler_eval


def tol(prec, slack=8):
    return mpf(2) ** (-(prec - slack))


class TestDilog:
    def test_at_zero(self):
        assert dilog(mpf(0), 128) == 0

    def test_at_half(self):
        # Li2(1/2) = pi^2/12 - log(2)^2/2
        prec = 256
        got = dilog(mpf("0.5"), prec)
        with workprec(prec):
            want = pi**2 / 12 - log(2) ** 2 / 2
        assert abs(got - want) < tol(prec)

    def test_golden_special_value(self):
        # Li2((3-sqrt5)/2) = pi^2/15 - log^2((1+sqrt5)/2)
        prec = 256
        with workprec(prec):
            x = (3 - sqrt(5)) / 2
            want = pi**2 / 15 - log((1 + sqrt(5)) / 2) ** 2
        got = dilog(x, prec)
        assert abs(got - want) < tol(prec)

    @pytest.mark.parametrize("x", ["0.1", "0.33", "0.61", "0.9"])
    def test_matches_integral_definition(self, x):
        # Li2(x) = -int_0^x log(1-t)/t dt
        prec = 128
        x = mpf(x)
        got = dilog(x, prec)
        with workprec(prec + 40):
            want = quad(lambda t: -log(1 - t) / t if t else mpf(1), [0, x])
        assert abs(got - want) < mpf(2) ** (-(prec - 12))

    def test_near_one_is_cheap_and_accurate(self, time_limit):
        # the plain series would need about 2^40 terms here; the reflection
        # Li2(x) = pi^2/6 - log x log(1-x) - Li2(1-x) needs fewer than prec + 64
        prec = 128
        with workprec(prec + 64):
            x = 1 - mpf(2) ** -40
            want = polylog(2, x)
        with time_limit(1):
            got = dilog(x, prec)
        assert abs(got - want) < tol(prec, 4)

    def test_rejects_points_at_or_past_one(self):
        with pytest.raises(DomainError):
            dilog(mpf(1), 128)
        with pytest.raises(DomainError):
            dilog(mpf("-0.1"), 128)


class TestTheta:
    def test_odd_symmetry_zero(self):
        # summing over half-integers makes the theta odd in z; value at 0 is 0
        v = jacobi_theta(mpf(0), mpc(0, 1), 160)
        assert abs(v) < mpf("1e-40")

    def test_z_antisymmetry(self):
        prec = 192
        tau = mpc("0.1", "0.8")
        a = jacobi_theta(mpc("0.3", "0.05"), tau, prec)
        b = jacobi_theta(mpc("-0.3", "-0.05"), tau, prec)
        assert abs(a + b) < tol(prec, 16) * (1 + abs(a))

    def test_antiperiodicity_in_z(self):
        # the half-integer summation index flips the sign under z -> z+1
        prec = 192
        with workprec(prec + 32):
            tau = mpc(0, mpf("0.7"))
            z = mpf("0.23")
            z1 = z + 1
        a = jacobi_theta(z, tau, prec)
        b = jacobi_theta(z1, tau, prec)
        assert abs(a + b) < tol(prec, 16) * (1 + abs(a))

    def test_modular_inversion(self):
        # theta(z/tau; -1/tau) = -i sqrt(-i tau) e^(pi i z^2/tau) theta(z; tau)
        prec = 256
        with workprec(prec + 32):
            tau = mpc(0, mpf("0.31"))
            z = mpf("0.17")
            lhs = jacobi_theta(z / tau, -1 / tau, prec)
            rhs = (
                -mpc(0, 1)
                * sqrt(-mpc(0, 1) * tau)
                * exp(pi * mpc(0, 1) * z**2 / tau)
                * jacobi_theta(z, tau, prec)
            )
        assert abs(lhs - rhs) < tol(prec, 24) * (1 + abs(rhs))

    def test_leading_sine_behavior(self):
        # as Im(tau) grows, theta(z;tau) ~ -2 q^(1/8) sin(pi z), q = e^(2 pi i tau)
        prec = 160
        z = mpf("0.2")
        devs = []
        for t in ("2.0", "3.0", "4.0"):
            tau = mpc(0, mpf(t))
            with workprec(prec):
                lead = -2 * exp(2j * pi * tau / 8) * mp.sin(pi * z)
                devs.append(abs(jacobi_theta(z, tau, prec) / lead - 1))
        assert devs[0] > devs[1] > devs[2]
        assert devs[2] < mpf("1e-10")

    @pytest.mark.parametrize("prec", [96, 256])
    def test_cancelling_sum_against_poisson_form(self, prec):
        # at real z and small Im tau the terms, of size 1, cancel to about
        # e^(-0.09 pi / y); mpmath's sum alone is right only to absolute
        # precision (-4.9e-43 here at prec 96).  Poisson summation gives
        # theta(z; iy) = y^(-1/2) sum_k (-1)^k e^(-pi (z + 1/2 - k)^2 / y)
        z, y = mpf("0.2"), mpf("0.001")
        got = jacobi_theta(z, mpc(0, y), prec)
        with workprec(prec + 64):
            want = sum((-1) ** k * exp(-pi * (z + 0.5 - k) ** 2 / y) for k in range(-2, 4))
            want /= sqrt(y)
        assert abs(got - want) < tol(prec) * abs(want)

    def test_cancellation_past_the_pass_budget_raises(self, monkeypatch):
        # one pass sees the loss but may not pay for it: no value is returned
        monkeypatch.setattr(specfun, "LOSS_PASSES", 1)
        with pytest.raises(ArithmeticError):
            jacobi_theta(mpf("0.2"), mpc(0, mpf("0.001")), 96)

    def test_past_mpmath_limit_is_a_domain_error(self):
        # mpmath refuses |e^(pi i tau)| > THETA_Q_LIM, i.e. Im tau below about 3.2e-8
        with pytest.raises(DomainError, match="THETA_Q_LIM"):
            jacobi_theta(mpf("-0.5"), mpc(0, mpf("1e-8")), 96)

    def test_just_inside_mpmath_limit(self):
        # theta(-1/2; iy) = sum e^(-pi n^2 y) = y^(-1/2) (1 - 2 e^(-pi/y) + ...) by Poisson
        prec = 96
        y = mpf("1e-7")
        got = jacobi_theta(mpf("-0.5"), mpc(0, y), prec)
        with workprec(prec + 32):
            want = 1 / sqrt(y)
        assert abs(got - want) < tol(prec) * want


class TestBesselI:
    @pytest.mark.parametrize("order,x", [(0, "0.5"), (1, "2.0"), (2, "7.5"), (3, "0.1")])
    def test_matches_reference(self, order, x):
        prec = 192
        with workprec(prec + 32):
            x = mpf(x)
            want = besseli(order, x)
        got = bessel_i(order, x, prec)
        assert abs(got - want) < tol(prec, 24) * (1 + abs(want))

    def test_negative_order_symmetry(self):
        prec = 128
        assert bessel_i(-2, mpf("1.3"), prec) == bessel_i(2, mpf("1.3"), prec)

    def test_at_zero(self):
        assert bessel_i(0, mpf(0), 128) == 1
        assert bessel_i(3, mpf(0), 128) == 0

    def test_monotone_in_x(self):
        prec = 128
        vals = [bessel_i(1, mpf(x) / 4, prec) for x in range(1, 12)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_large_argument_cost_is_bounded(self, time_limit):
        # an ascending series needs about x terms here; mpmath's besseli does not
        prec = 96
        x = mpf(10) ** 6
        with time_limit(1):
            got = bessel_i(1, x, prec)
        with workprec(prec + 32):
            want = besseli(1, x)
        assert abs(got - want) < tol(prec) * want

    def test_large_argument_asymptotic(self):
        # I_nu(x) ~ e^x / sqrt(2 pi x)
        prec = 192
        for x in (mpf(20), mpf(40)):
            with workprec(prec):
                lead = exp(x) / sqrt(2 * pi * x)
            ratio = bessel_i(0, x, prec) / lead
            assert abs(ratio - 1) < mpf("0.4") / x


@pytest.mark.parametrize("call", [
    lambda: bessel_i(0.5, mpf(3), 128),
    lambda: bessel_i(mpf("-1.5"), mpf(3), 128),
    lambda: wright_p(0.5, mpf(8), mpf(3), 128),
    lambda: wright_p(mpf("2.25"), mpf(8), mpf(3), 128),
], ids=["bessel_i-half", "bessel_i-mpf", "wright_p-half", "wright_p-mpf"])
def test_non_integer_order_is_refused(call):
    # int() would silently truncate: bessel_i(0.5, 3) came back as I_0(3)
    with pytest.raises(DomainError):
        call()


def test_integral_mpf_order_is_accepted():
    assert bessel_i(mpf(2), mpf(3), 128) == bessel_i(2, mpf(3), 128)
    assert wright_p(mpf(1), mpf(8), mpf(3), 128) == wright_p(1, mpf(8), mpf(3), 128)


class TestWrightContour:
    @pytest.mark.parametrize("u,ceiling", [(5, "5e-3"), (10, "5e-5"), (20, "3e-9")])
    def test_p0_approaches_bessel(self, u, ceiling):
        # closing the contour turns P_0(u) into the Bessel integral for
        # I_(-1)(2u) = I_1(2u); the opening costs a relative O(e^(-u)) error
        prec = 128
        u = mpf(u)
        got = wright_p(0, u, mpf(6), prec)
        with workprec(prec + 32):
            want = besseli(1, 2 * u)
        assert abs(got / want - 1) < mpf(ceiling)

    def test_symmetric_real(self):
        # the contour is conjugation-symmetric so the value is real
        v = wright_p(1, mpf(8), mpf(3), 128)
        assert mp.im(mpc(v)) == 0

    def test_higher_index_smaller(self):
        prec = 128
        u = mpf(6)
        p0 = wright_p(0, u, mpf(3), prec)
        p2 = wright_p(2, u, mpf(3), prec)
        assert abs(p2) < abs(p0)

    # s = -1 puts the theta term of the series at k = 0
    @pytest.mark.parametrize("prec", [96, 256])
    @pytest.mark.parametrize("big_m", ["0.5", "3", "6"])
    @pytest.mark.parametrize("u", ["0.25", "1", "9.1", "20"])
    @pytest.mark.parametrize("s", [-2, -1, 0, 1, 3])
    def test_matches_quadrature_to_full_precision(self, s, u, big_m, prec):
        u, big_m = mpf(u), mpf(big_m)
        want, error = _wright_reference(s, u, big_m)
        assert error < mpf(2) ** -(prec + 16)
        assert abs(wright_p(s, u, big_m, prec) / want - 1) < tol(prec)

    @pytest.mark.parametrize("prec", [96, 256])
    @pytest.mark.parametrize("big_m", ["0.5", "3", "6"])
    @pytest.mark.parametrize("u", ["0.25", "1", "9.1", "20"])
    @pytest.mark.parametrize("s", [-2, -1, 0, 1, 3])
    def test_correctly_rounded(self, s, u, big_m, prec):
        # the value at prec bits is the value at prec + 64 bits rounded to prec
        u, big_m = mpf(u), mpf(big_m)
        got = wright_p(s, u, big_m, prec)
        want = wright_p(s, u, big_m, prec + 64)
        with workprec(prec):
            assert got == +want

    @pytest.mark.parametrize("u,big_m", [("1e-400", "6"), ("1e-200", "1e200")])
    def test_small_u_where_floats_underflow(self, u, big_m):
        # u, and u / r, below the float range; to O(u) the integrand is
        # e^(iut), so P_0(u) = sin(uM) / (pi u)
        prec = 96
        u, big_m = mpf(u), mpf(big_m)
        with workprec(prec + 32):
            want = mp.sin(u * big_m) / (pi * u)
        assert abs(wright_p(0, u, big_m, prec) / want - 1) < tol(prec)

    @pytest.mark.parametrize("u,big_m", [("9.1", "1e4"), ("0.25", "1e4"), ("3000", "0.5")])
    def test_past_the_term_budget_raises(self, u, big_m):
        with pytest.raises(ArithmeticError, match="terms"):
            wright_p(0, mpf(u), mpf(big_m), 96)

    def test_a_sum_past_the_term_budget_raises(self, monkeypatch):
        # 2ur = 111 passes the early check; the sum needs about 300 terms
        monkeypatch.setattr(specfun, "TERM_BUDGET", 200)
        with pytest.raises(ArithmeticError, match="over 200 terms"):
            wright_p(0, mpf("9.1"), mpf(6), 96)

    def test_an_unpaid_loss_raises(self, monkeypatch):
        # without the estimate the first pass loses about 63 bits at prec 96
        monkeypatch.setattr(specfun, "LOSS_PASSES", 1)
        u, big_m = mpf("9.1"), mpf(6)
        assert specfun._wright_sum(0, u, big_m, 96)[1] > 60
        with pytest.raises(ArithmeticError, match="still lost"):
            specfun.pay_for_loss(lambda bits: specfun._wright_sum(0, u, big_m, bits), 96,
                                 "P_0 at u = %s", u)

    def test_logs_terms_loss_and_resum(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="oepartitions.specfun"):
            wright_p(0, mpf("9.1"), mpf(6), 96)
        (record,) = [r for r in caplog.records if r.name == "oepartitions.specfun"]
        assert record.levelno == logging.DEBUG
        message = record.getMessage()
        assert message.startswith("P_0(9.1) on M = 6.0: ")
        assert "terms, lost" in message and "no re-sum at" in message
        # the ladder's start N, the one the accepted pass used
        start, bits = map(int, re.search(r": ladder from (\d+), .* at (\d+) bits$", message).groups())
        assert start == specfun._wright_sum(0, mpf("9.1"), mpf(6), bits)[3]

    def test_first_pass_at_tiny_u_sums_at_the_limit_estimate(self, caplog):
        # P_0(u) -> sin(theta) r / pi = M / pi as u -> 0, while the Debye term
        # of I_1(2u) reads about log u: the estimate takes the larger, so the
        # one pass sums at prec + 5 bits, where the Debye term alone asked
        # for 1335 more
        with caplog.at_level(logging.DEBUG, logger="oepartitions.specfun"):
            value = wright_p(0, mpf("1e-400"), mpf(6), 96)
        (record,) = [r for r in caplog.records if r.name == "oepartitions.specfun"]
        assert record.getMessage().endswith(", lost 3 bits, no re-sum at 101 bits")
        with workprec(200):
            assert abs(value - 6 / mp.pi) < mpf(2) ** -94


@functools.lru_cache(maxsize=64)
def _wright_reference(s, u, big_m):
    """(1/2 pi) int_{-M}^{M} (1+it)^s e^(u(v+1/v)) dt, v = 1+it, by mp.quad over
    nine equal sub-intervals at 320 bits (prec + 64 for the larger prec
    tested), and quad's error estimate relative to the value.  Gauss-Legendre
    converges here at a third of tanh-sinh's cost."""
    with workprec(320):
        def integrand(t):
            v = mpc(1, t)
            return v ** s * exp(u * (v + 1 / v))

        value, error = quad(integrand, mp.linspace(-big_m, big_m, 9), method="gauss-legendre",
                            error=True)
        return value.real / (2 * pi), error / abs(value)


class TestEtaProducts:
    def test_pochhammer_matches_series(self):
        from oepartitions.series import qpochhammer
        from oepartitions.specfun import evaluate_at

        # q = 0.2 = e^(2 pi i tau) against the exact pentagonal series of (q;q)_inf
        prec = 160
        with workprec(prec + 32):
            q = mpf("0.2")
            tau = mpc(0, -log(q) / (2 * pi))
        series = qpochhammer(1, 1, None, 200)
        got = euler_eval(tau, prec)
        via_series = evaluate_at(series, q, prec).value
        assert abs(got - via_series) < mpf("1e-40")

    @pytest.mark.parametrize("y", ["0.05", "0.02"])
    def test_eta_inversion(self, y):
        # (q;q)_inf = e^(-pi i tau/12 - pi i/(12 tau)) (q';q')_inf / sqrt(-i tau),
        # and (q';q')_inf is within 2^-174 of 1 at these points, inside the tolerance
        prec = 192
        with workprec(prec + 32):
            tau = mpc(mpf("0.01"), mpf(y))
            principal = exp(-pi * 1j * tau / 12 - pi * 1j / (12 * tau)) / sqrt(-1j * tau)
        got = euler_eval(tau, prec)
        assert abs(got - principal) < tol(prec, 32) * (1 + abs(got))

    def test_euler_eval_route_consistency(self):
        # the reduced route and mpmath's product at the unreduced q must agree
        prec = 192
        for y in ("0.04", "0.5", "2.0"):
            tau = mpc(mpf("0.003"), mpf(y))
            with workprec(prec + 64):
                want = mp.qp(exp(2j * pi * tau))
            got = euler_eval(tau, prec)
            assert abs(got - want) < tol(prec, 40) * (1 + abs(want))

    @pytest.mark.parametrize("n", [13, 25, 1600])
    @pytest.mark.parametrize("x", ["0.5", "-0.5", "0.499", "-0.49", "0.3333", "-0.33", "0.34"])
    def test_euler_eval_near_cusps(self, n, x):
        # Re tau near +-1/2 and +-1/3 on the circle-method radius y = 1/(4 sqrt(3n)),
        # where |q| is close to 1 and a single inversion leaves |q'| close to 1 too
        prec = 160
        with workprec(prec + 64):
            tau = mpc(mpf(x), 1 / (4 * sqrt(3 * n)))
            want = mp.qp(exp(2j * pi * tau))
        got = euler_eval(tau, prec)
        assert abs(got - want) < tol(prec, 8) * abs(want)

    def test_q_outside_disc_rejected(self):
        # |q| >= 1 exactly when Im tau <= 0
        for tau in (mpc("0.1", 0), mpc("0.1", "-0.5")):
            with pytest.raises(DomainError):
                euler_eval(tau, 128)


@dataclass(frozen=True)
class _Record:
    value: mpf
    point: mpc
    flag: bool


@guarded
def _probe(x, prec=53):
    """The working precision, x/3 as mpf and as mpc, and a flag."""
    return mp.prec, x / 3, mpc(x, 1) / 3, True


@guarded
def _probe_record(x, prec=53):
    return _Record(value=x / 3, point=mpc(x, 1) / 3, flag=True)


def _bits(v):
    """Mantissa bit count of an mpf, or the larger of an mpc's two parts."""
    if isinstance(v, mpc):
        return max(_bits(v.real), _bits(v.imag))
    return v._mpf_[3]


class TestGuarded:
    @pytest.mark.parametrize("prec", [20, 53, 100, 300])
    def test_result_carries_at_most_prec_bits(self, prec):
        for value in (dilog(mpf("0.3"), prec), oebar_eval(mpc("0.1", "0.02"), prec=prec)):
            assert _bits(value) <= prec
        with workprec(prec):
            third = mpf(1) / 3
        assert _probe(mpf(1), prec)[1] == third
        assert _probe(mpf(1), prec=prec)[1] == third

    def test_tuple_members_are_rounded_and_others_pass(self):
        prec = 40
        work, value, point, flag = _probe(mpf(1), prec)
        assert work == prec + GUARD_BITS
        assert _bits(value) <= prec and _bits(point) <= prec
        assert flag is True

    def test_dataclass_members_are_rounded_and_a_bool_is_untouched(self):
        prec = 40
        rec = _probe_record(mpf(1), prec=prec)
        assert isinstance(rec, _Record)
        assert _bits(rec.value) <= prec and _bits(rec.point) <= prec
        assert rec.flag is True
        with workprec(prec + GUARD_BITS):
            assert _bits(mpf(1) / 3) > prec  # so the rounding above did happen

    def test_precision_restored_after_return_and_after_raise(self):
        before = mp.prec
        dilog(mpf("0.5"), 300)
        assert mp.prec == before
        with pytest.raises(DomainError):
            dilog(mpf(2), 300)
        assert mp.prec == before
