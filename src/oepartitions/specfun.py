"""Arbitrary-precision special functions for the asymptotic analysis.

All routines take an explicit working precision in bits and compute
internally with GUARD_BITS extra bits; no ambient global precision is
relied on.  The one decorator `guarded` does this, here and in the
asympt, circle and series evaluators; the one loop `pay_for_loss` pays
for the bits a sum loses.  The textbook functions are mpmath's, behind
this package's domain checks and conventions:

  dilog(x)            Li_2(x) on [0, 1): mp.polylog(2, x)
  jacobi_theta(z,tau) theta(z;tau) = sum_{n in 1/2+Z} e^(pi i n^2 tau + 2 pi i n (z+1/2))
                      = mp.jtheta(2, pi (z + 1/2), e^(pi i tau)), with more bits
                      where its terms cancel
  bessel_i(l, x)      modified Bessel I_l, integer order: mp.besseli(|l|, x)
  wright_p(s, u, M)   (1/2 pi i) int_{1-Mi}^{1+Mi} v^s e^(u(v+1/v)) dv, by mp.quad
                      over the upper half of the segment
  euler_eval(tau)     (q;q)_inf at q = e^(2 pi i tau): modular reduction, then mp.qp

The theta convention is the half-integer-characteristic one used in the
odd-even asymptotics; theta(0;tau) = 0 identically for it.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect

from mpmath import mp, mpf, mpc, workprec

GUARD_BITS = 32
LOSS_PASSES = 8


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


def pay_for_loss(evaluate, prec, what, *args):
    """evaluate(prec + extra), a tuple (value, lost bits, ...), from extra = 0
    until a pass loses at most extra + GUARD_BITS / 2 bits; the next pass
    takes extra = lost.  Returns that tuple and its extra; raises after
    LOSS_PASSES passes, naming the value by what % args."""
    extra = 0
    for _ in range(LOSS_PASSES):
        result = evaluate(prec + extra)
        if result[1] <= extra + GUARD_BITS // 2:
            return result, extra
        extra = result[1]
    raise ArithmeticError(f"{what % args} still lost {extra} bits after {LOSS_PASSES} passes")


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
    """Li_2(x) on [0, 1), by mpmath's polylog."""
    x = mpf(x)
    if not 0 <= x < 1:
        raise DomainError("dilog is implemented on [0, 1) only")
    return mp.polylog(2, x)


@guarded
def _jtheta(z, tau, prec):
    """mp.jtheta(2, pi (z + 1/2), e^(pi i tau)); mpmath's q limit is a DomainError."""
    q = mp.expjpi(tau)
    if abs(q) > mp.THETA_Q_LIM:
        raise DomainError(
            f"Im tau = {mp.nstr(tau.imag, 3)} puts |e^(pi i tau)| above mpmath's "
            f"theta limit THETA_Q_LIM = {mp.THETA_Q_LIM}"
        )
    return mp.jtheta(2, mp.pi * (z + mpf("0.5")), q)


@guarded
def jacobi_theta(z, tau, prec=256):
    """theta(z;tau) = jtheta_2(pi (z + 1/2), e^(pi i tau)), by mpmath's jtheta.

    mpmath refuses |e^(pi i tau)| above mp.THETA_Q_LIM (Im tau below about
    3.2e-8); that is a DomainError here.

    At real z and small Im tau the terms cancel, and mpmath's sum is right
    only to absolute precision.  The bits lost are measured against the
    largest term, e^(-pi n^2 Im tau - 2 pi n Im z) at the half-integer n
    nearest -Im z / Im tau, and paid for by pay_for_loss.  theta vanishes at
    integer z, where 0 is returned.
    """
    z = mpc(z)
    tau = mpc(tau)
    if tau.imag <= 0:
        raise DomainError("tau must lie in the upper half plane")
    if z == mp.nint(z.real):
        return mpc(0)
    n = mp.floor(-z.imag / tau.imag) + mpf("0.5")
    # log2 of the largest term, rounded up; mp.mag(value) is log2 |value| or up to 2 above
    peak_bits = int(mp.ceil(-mp.pi * (n * n * tau.imag + 2 * n * z.imag) / mp.ln2))

    def evaluate(bits):
        value = _jtheta(z, tau, bits)
        if not value:
            raise ArithmeticError(f"theta sums to 0 at z = {z}, tau = {tau}")
        return value, peak_bits - mp.mag(value) + 2

    (value, _), _ = pay_for_loss(evaluate, prec, "theta at z = %s, tau = %s", z, tau)
    return value


@guarded
def bessel_i(order, x, prec=256):
    """Modified Bessel I_order(x) for integer order and x >= 0, by mpmath's besseli.

    Negative orders are reduced by I_(-l) = I_l: mpmath is several times
    slower at order -1 than at +1, and main_term asks for I_(-1).
    """
    order = abs(_integer(order, "order"))
    x = mpf(x)
    if x < 0:
        raise DomainError("x must be >= 0")
    return mp.besseli(order, x)


@guarded
def wright_p(s, u, big_m, prec=256):
    """Wright's contour function P_s(u) on the segment 1-Mi .. 1+Mi.

    Parameterizing v = 1 + it gives
      P_s(u) = (1/2 pi) int_{-M}^{M} (1+it)^s e^(u(1+it+1/(1+it))) dt.
    For integer s and real u the integrand at -t is the conjugate of the
    integrand at t, so P_s(u) = (1/pi) int_0^M Re[...] dt, a real number,
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
        v = mpc(1, t)
        return (v ** s * mp.exp(u * (v + 1 / v))).real

    val, err = mp.quad(integrand, [0, big_m], error=True, maxdegree=10)
    val = val / mp.pi
    err = mpf(err) / mp.pi
    if abs(val) > 0 and err > abs(val) * mpf(2) ** (-(prec // 2)):
        raise QuadratureError(
            f"wright_p quadrature error {err} above target for prec={prec}"
        )
    return val


@guarded
def euler_eval(tau, prec=256):
    """(q;q)_inf at q = e^(2 pi i tau), after full modular reduction of tau.

    With eta(tau) = e^(pi i tau/12) (q;q)_inf, the two steps
      tau -> tau - k, k = round(Re tau):  eta(tau) = e^(pi i k/12) eta(tau - k)
      tau -> -1/tau:                      eta(tau) = eta(-1/tau) / sqrt(-i tau)
    are repeated until |tau| >= 1 with |Re tau| <= 1/2, collecting the
    multipliers on the way.  The reduced point has Im tau >= sqrt(3)/2, so
    |q'| < 0.005 there, and mpmath's qp sums (q';q')_inf from a few terms of
    Euler's pentagonal series for every tau, however close q is to the unit
    circle.  Every step is an exact identity.
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
    return mp.expjpi((turns % 24 + tau - start) / 12) * scale * mp.qp(mp.expjpi(2 * tau))
