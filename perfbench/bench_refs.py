"""Independent references for the benchmark's correctness checks.

Everything here is written from the mathematics with Python integers and
mpmath only; nothing imports oepartitions.  Exact series use different
routes from the package where one exists:

  OEbar(q) = f(q) (q^2;q^2)_inf / (q;q)_inf     (sparse pentagonal products)
  f(q)(q;q)_inf                                  (Watson's core, sparse product)
  OE(q)    = sum_k q^(k(k+1)/2) / (q^2;q^2)_k    (gap form of the definition)

Obar(tau) is E(2 tau) / E(tau) * f(q) with E(tau) = (q;q)_inf evaluated
after the eta inversion tau -> -1/tau, and f(q) = sum q^(n^2)/(-q;q)_n^2
summed directly: its terms have positive ratio near q = 1, so the sum does
not cancel the way the bilateral Watson sum does.
"""

from __future__ import annotations

import mpmath
from mpmath import mp, mpc, mpf, workprec


# ---------------------------------------------------------------------------
# exact series, as tuples of Python ints


def pentagonal(order, step=1):
    """(q^step; q^step)_inf mod q^(order+1) as sorted sparse (exponent, coefficient) pairs."""
    terms = [(0, 1)]
    k = 1
    while step * k * (3 * k - 1) // 2 <= order:
        sign = -1 if k % 2 else 1
        terms.append((step * k * (3 * k - 1) // 2, sign))
        if step * k * (3 * k + 1) // 2 <= order:
            terms.append((step * k * (3 * k + 1) // 2, sign))
        k += 1
    return sorted(terms)


def mul_sparse(dense, sparse):
    out = [0] * len(dense)
    for e, c in sparse:
        for i in range(e, len(dense)):
            out[i] += c * dense[i - e]
    return out


def div_sparse(dense, sparse):
    """dense / sparse for a sparse series with constant term 1."""
    out = list(dense)
    rest = [(e, c) for e, c in sparse if e]
    for i in range(len(out)):
        acc = out[i]
        for e, c in rest:
            if e > i:
                break
            acc -= c * out[i - e]
        out[i] = acc
    return out


def mock_f(order):
    """f(q) = sum_n q^(n^2) / (-q;q)_n^2 mod q^(order+1)."""
    total = [0] * (order + 1)
    term = [0] * (order + 1)
    term[0] = 1
    n = 0
    while n * n <= order:
        for i in range(n * n, order + 1):
            total[i] += term[i]
        n += 1
        # term_n = term_{n-1} q^(2n-1) / (1 + q^n)^2
        term = ([0] * (2 * n - 1) + term)[: order + 1]
        for _ in range(2):
            for i in range(n, order + 1):
                term[i] -= term[i - n]
    return total


def oebar_coeffs(order):
    return tuple(div_sparse(mul_sparse(mock_f(order), pentagonal(order, 2)), pentagonal(order)))


def watson_coeffs(order):
    return tuple(mul_sparse(mock_f(order), pentagonal(order)))


def oe_coeffs(order):
    """OE(n) for n <= order: k parts p_1 < ... < p_k, p_1 odd and odd gaps, so
    sum p_i = k(k+1)/2 + 2 * (a partition into parts <= k)."""
    total = [0] * (order + 1)
    parts = [0] * (order // 2 + 1)  # partitions into parts <= k, indexed by size
    parts[0] = 1
    k = 0
    while (k + 1) * (k + 2) // 2 <= order:
        k += 1
        for i in range(k, len(parts)):
            parts[i] += parts[i - k]
        base = k * (k + 1) // 2
        for m in range((order - base) // 2 + 1):
            total[base + 2 * m] += parts[m]
    total[0] = 1
    return tuple(total)


# ---------------------------------------------------------------------------
# analytic values


def euler_e(tau):
    """(q;q)_inf at q = e^(2 pi i tau) in the ambient precision, via inversion when it helps."""
    tau = mpc(tau.real - mp.nint(tau.real), tau.imag)
    inv = -1 / tau
    if inv.imag > tau.imag:
        pre = mp.exp(-mp.pi * 1j * tau / 12 - mp.pi * 1j / (12 * tau)) / mp.sqrt(-1j * tau)
        tau = inv
    else:
        pre = mpc(1)
    q = mp.exp(2j * mp.pi * tau)
    eps = mpf(2) ** -(mp.prec + 8)
    prod, qk = mpc(1), mpc(1)
    while True:
        qk *= q
        if abs(qk) < eps:
            return pre * prod
        prod *= 1 - qk


def mock_f_value(q):
    eps = mpf(2) ** -(mp.prec + 8)
    total, term, qn, q_odd = mpc(1), mpc(1), mpc(1), q
    n = 0
    while True:
        n += 1
        qn *= q
        term = term * q_odd / (1 + qn) ** 2  # q^(2n-1) / (1 + q^n)^2
        q_odd *= q * q
        total += term
        if n > 4 and abs(term) < eps * abs(total):
            return total


def obar_value(tau, prec):
    """Obar(e^(2 pi i tau)) with prec + 32 working bits."""
    with workprec(prec + 32):
        tau = mpc(tau)
        val = euler_e(2 * tau) / euler_e(tau) * mock_f_value(mp.exp(2j * mp.pi * tau))
    return val


def jacobi_theta_value(z, tau, prec):
    """theta(z; tau) over half-integers equals -theta_1(pi z, e^(pi i tau))."""
    with workprec(prec):
        return -mpmath.jtheta(1, mp.pi * mpc(z), mp.exp(mp.pi * 1j * mpc(tau)))


def wright_p_value(s, u, big_m, prec):
    """(1/2 pi) int_{-M}^{M} (1+it)^s e^(u(v + 1/v)) dt, v = 1 + it."""
    with workprec(prec):
        u, big_m = mpf(u), mpf(big_m)

        def integrand(t):
            v = 1 + 1j * t
            return v ** s * mp.exp(u * (v + 1 / v))

        return (mp.quad(integrand, mp.linspace(-big_m, big_m, 9)) / (2 * mp.pi)).real


def wright_main_term(n, big_m, prec):
    """I_1 ~ (pi sqrt2 / (3 sqrt(3n))) P_0(pi sqrt n / (2 sqrt3))."""
    with workprec(prec):
        u = mp.pi * mp.sqrt(n) / (2 * mp.sqrt(3))
        return mp.pi * mp.sqrt(2) / (3 * mp.sqrt(3 * n)) * wright_p_value(0, u, big_m, prec)


def minor_bound_value(n, big_m, prec):
    """(1/(y sqrt2)) exp[(pi/8 - (1/pi)(1 - 1/sqrt(1+M^2))) / y], y = 1/(4 sqrt(3n))."""
    with workprec(prec):
        y = 1 / (4 * mp.sqrt(3 * n))
        cut = (1 - 1 / mp.sqrt(1 + mpf(big_m) ** 2)) / mp.pi
        return mp.exp((mp.pi / 8 - cut) / y) / (y * mp.sqrt(2))
