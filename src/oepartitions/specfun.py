"""Arbitrary-precision special functions for the asymptotic analysis.

All routines take an explicit working precision in bits and compute
internally with GUARD_BITS extra bits; no ambient global precision is
relied on.  The one decorator `guarded` does this, here and in the
asympt, circle and series evaluators.  Conventions:

  dilog(x)            Li_2(x) = sum x^n / n^2 on [0, 1), reflected to 1-x above 1/2
  jacobi_theta(z,tau) theta(z;tau) = sum_{n in 1/2+Z} e^(pi i n^2 tau + 2 pi i n (z+1/2))
  bessel_i(l, x)      modified Bessel I_l by ascending series, integer order
  wright_p(s, u, M)   (1/2 pi i) int_{1-Mi}^{1+Mi} v^s e^(u(v+1/v)) dv
  eta_pochhammer_eval (q;q)_inf by direct product
  euler_eval(tau)     (q;q)_inf at q = e^(2 pi i tau), after modular reduction

The theta convention is the half-integer-characteristic one used in the
odd-even asymptotics; theta(0;tau) = 0 identically for it.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect

from mpmath import mp, mpf, mpc, workprec

GUARD_BITS = 32


def _rounded(value):
    return +value if isinstance(value, (mpf, mpc)) else value


def guarded(func):
    """Run func at prec + GUARD_BITS bits and round its result to prec bits.

    An mpf or mpc result is rounded, and so is each mpf or mpc member of a
    tuple or dataclass result; any other value passes through unchanged.
    The position of `prec` is looked up once, here, so callers may pass it
    positionally or by keyword.
    """
    params = list(inspect.signature(func).parameters.values())
    index = [p.name for p in params].index("prec")
    default = params[index].default

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        prec = args[index] if len(args) > index else kwargs.get("prec", default)
        with workprec(prec + GUARD_BITS):
            value = func(*args, **kwargs)
        with workprec(prec):
            if isinstance(value, tuple):
                return tuple(map(_rounded, value))
            if dataclasses.is_dataclass(value):
                return dataclasses.replace(value, **{
                    f.name: _rounded(getattr(value, f.name)) for f in dataclasses.fields(value)
                })
            return _rounded(value)

    return wrapper


class DomainError(ValueError):
    pass


class QuadratureError(ArithmeticError):
    pass


def _integer(value, name):
    """value as an int, or DomainError if it is not integral (2 and mpf(2) pass)."""
    if value != int(value):
        raise DomainError(f"{name} must be an integer, got {value}")
    return int(value)


@guarded
def dilog(x, prec=256):
    """Li_2(x) on [0, 1): the defining series at x <= 1/2, and above that

      Li_2(x) = pi^2/6 - log(x) log(1-x) - Li_2(1-x),

    so the series always runs at a point <= 1/2, where it needs fewer than
    prec + 64 terms.
    """
    x = mpf(x)
    if not 0 <= x < 1:
        raise DomainError("dilog is implemented on [0, 1) only")
    if x > 0.5:
        # 1 - x is exact here (Sterbenz)
        return mp.pi ** 2 / 6 - mp.log(x) * mp.log(1 - x) - dilog(1 - x, prec + GUARD_BITS)
    eps = mpf(2) ** (-(prec + GUARD_BITS))
    total = mpf(0)
    p = mpf(1)
    n = 0
    while True:
        n += 1
        p *= x
        term = p / (n * n)
        total += term
        if term < eps:
            break
    return total


@guarded
def jacobi_theta(z, tau, prec=256):
    """theta(z;tau) summed over half-integers, Gaussian tail below 2^-(prec+guard)."""
    z = mpc(z)
    tau = mpc(tau)
    y = tau.imag
    if y <= 0:
        raise DomainError("tau must lie in the upper half plane")
    # |term(n)| = e^(-pi n^2 y - 2 pi n Im(z)); choose the cutoff so that
    # pi y n^2 - 2 pi |Im z| n exceeds the target bit budget.
    bits = (prec + GUARD_BITS + 8) * mp.ln(2)
    b = abs(z.imag)
    n_max = (2 * mp.pi * b + mp.sqrt((2 * mp.pi * b) ** 2 + 4 * mp.pi * y * bits)) / (
        2 * mp.pi * y
    )
    n_hi = int(mp.ceil(n_max)) + 1
    total = mpc(0)
    n = mpf("0.5") - n_hi
    for _ in range(2 * n_hi):
        total += mp.e ** (mp.pi * 1j * n * n * tau + 2 * mp.pi * 1j * n * (z + mpf("0.5")))
        n += 1
    return total


@guarded
def bessel_i(order, x, prec=256):
    """Modified Bessel I_order(x) for integer order and x >= 0.

    Negative orders are reduced by I_(-l) = I_l, so every series term is
    positive and there is no cancellation.
    """
    order = abs(_integer(order, "order"))
    x = mpf(x)
    if x < 0:
        raise DomainError("x must be >= 0")
    if x == 0:
        return mpf(1) if order == 0 else mpf(0)
    half = x / 2
    term = half ** order / mp.factorial(order)
    total = term
    k = 0
    h2 = half * half
    while True:
        k += 1
        term *= h2 / (k * (k + order))
        total += term
        if term < total * mpf(2) ** (-(prec + GUARD_BITS)):
            break
    return total


@guarded
def wright_p(s, u, big_m, prec=256):
    """Wright's contour function P_s(u) on the segment 1-Mi .. 1+Mi.

    Parameterizing v = 1 + it gives
      P_s(u) = (1/2 pi) int_{-M}^{M} (1+it)^s e^(u(1+it+1/(1+it))) dt,
    evaluated by mpmath's adaptive tanh-sinh quadrature, degree at most 10.
    Raises QuadratureError if the estimated error does not reach 2^(-prec/2)
    relative.
    """
    u = mpf(u)
    big_m = mpf(big_m)
    if u <= 0 or big_m <= 0:
        raise DomainError("wright_p needs u > 0 and M > 0")
    s = _integer(s, "s")

    def integrand(t):
        v = 1 + 1j * t
        return v ** s * mp.e ** (u * (v + 1 / v))

    val, err = mp.quad(integrand, [-big_m, 0, big_m], error=True, maxdegree=10)
    val = val / (2 * mp.pi)
    err = mpf(err) / (2 * mp.pi)
    if abs(val) > 0 and err > abs(val) * mpf(2) ** (-(prec // 2)):
        raise QuadratureError(
            f"wright_p quadrature error {err} above target for prec={prec}"
        )
    return val


@guarded
def eta_pochhammer_eval(q_point, prec=256):
    """(q;q)_inf = prod (1 - q^k), truncated once factors are within 2^-(prec+guard) of 1."""
    q = mpc(q_point)
    if abs(q) >= 1:
        raise DomainError("need |q| < 1")
    if q == 0:
        return mpc(1)
    eps = mpf(2) ** (-(prec + GUARD_BITS))
    total = mpc(1)
    qk = mpc(1)
    while True:
        qk *= q
        if abs(qk) < eps:
            break
        total *= 1 - qk
    return total


@guarded
def euler_eval(tau, prec=256):
    """(q;q)_inf at q = e^(2 pi i tau), after full modular reduction of tau.

    With eta(tau) = e^(pi i tau/12) (q;q)_inf, the two steps
      tau -> tau - k, k = round(Re tau):  eta(tau) = e^(pi i k/12) eta(tau - k)
      tau -> -1/tau:                      eta(tau) = eta(-1/tau) / sqrt(-i tau)
    are repeated until |tau| >= 1 with |Re tau| <= 1/2, collecting the
    multipliers on the way.  The reduced point has Im tau >= sqrt(3)/2, so
    |q'| < 0.005 there, and the product (q';q')_inf needs at most about
    prec/7.8 factors for every tau, however close q is to the unit circle.
    Every step is an exact identity; the only truncation is that of the
    short product, below the precision target.
    """
    tau = mpc(tau)
    if tau.imag <= 0:
        raise DomainError("tau must lie in the upper half plane")
    start = tau
    turns = 0  # sum of the translations k
    scale = mpc(1)  # product of the 1/sqrt(-i tau) multipliers
    # after a translation |tau|^2 <= 1/4 + Im(tau)^2, so every inversion
    # below Im tau = 1/2 at least doubles Im tau; from there two more
    # inversions at most end the reduction, well inside this budget
    for _ in range(8 + max(0, int(-mp.log(tau.imag, 2)))):
        k = int(mp.nint(tau.real))
        tau -= k
        turns += k
        if abs(tau) >= 1:
            break
        scale /= mp.sqrt(-1j * tau)
        tau = -1 / tau
    else:
        raise ArithmeticError(f"modular reduction of tau = {start} did not end")
    qp = mp.expjpi(2 * tau)
    return (
        mp.expjpi((turns % 24 + tau - start) / 12)
        * scale
        * eta_pochhammer_eval(qp, prec + GUARD_BITS)
    )


@guarded
def eta_inversion_principal(tau, prec=256):
    """Principal term of the (q;q)_inf inversion: e^(-pi i tau/12 - pi i/(12 tau)) / sqrt(-i tau).

    Principal branch of the square root; valid for tau in the upper half
    plane, where Re(-i tau) > 0.
    """
    tau = mpc(tau)
    if tau.imag <= 0:
        raise DomainError("tau must lie in the upper half plane")
    return mp.e ** (-mp.pi * 1j * tau / 12 - mp.pi * 1j / (12 * tau)) / mp.sqrt(-1j * tau)
