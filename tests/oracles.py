"""Reference values the tests hold the package to, and no command computes.

  euler_eval(tau)    (q;q)_inf at q = e^(2 pi i tau): modular reduction, then mp.qp
  invert(series)     the inverse of an exact series whose constant term is +-1
  qpochhammer(s, step, m, order), neg_pochhammer(s, m, order, step=1)
                     the dense products (q^s; q^step)_m and (-q^s; q^step)_m,
                     one binomial at a time
  m_threshold()      the M = sqrt((12/(12-pi^2))^2 - 1) = 5.543... at which
                     circle.exponent_saving changes sign
  oe_law(n), oebar_law(n), oebar_bessel(n)
                     the paper's leading terms in closed form:
                     e^(pi sqrt(n/5)) / (2 sqrt5 n^(3/4)) for OE(n), and
                     e^(pi sqrt(n/3)) / (3^(5/4) n^(3/4)) and
                     (pi sqrt2 / (3 sqrt(3n))) I_1(pi sqrt(n/3)) for OEbar(n)
  o_lead(eps)        O's leading term sqrt(2/sqrt5) e^(pi^2/(20 eps)) at q = e^(-eps)
  chains(n, 1, flags)  enumeration's chains of n by the unpruned recursion,
                     which tries every part up to the remainder
  tail_index(log x, shift, bits)  specfun._tail_index's count by a float
                     loop over K, one step per term

euler_eval, m_threshold and the closed forms are wrapped in
specfun.guarded, as the package's public entry points are; invert divides
with series' own sparse kernel, and the dense products run on this module's
_product and its two binomial multiplications.  The package has neither: it
builds each infinite product it checks as a quotient of sparse theta series.
"""

import math
from itertools import count, islice
from operator import add, sub

from mpmath import mp, mpc, mpf

from oepartitions.series import PowerSeries, SeriesError, _check_order, _div_sparse
from oepartitions.specfun import GUARD_BITS, TERM_BUDGET, DomainError, bessel_i, guarded


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


def invert(series):
    """Multiplicative inverse mod q^(order+1); constant term must be +-1."""
    u = series.coeffs[0]
    if u not in (1, -1):
        raise SeriesError("series is not invertible: constant term must be +1 or -1")
    # 1/a = u / (u a), and u a has constant term u^2 = 1
    c = [u] + [0] * series.order
    _div_sparse(c, [u * x for x in series.coeffs])
    return PowerSeries(c)


def qpochhammer(start_exp, step, m, order):
    """(q^start_exp; q^step)_m = prod_{j=1}^m (1 - q^(start_exp+(j-1)step)), mod q^(order+1).

    m may be None for the infinite product, which terminates once factors
    are congruent to 1 mod q^(order+1).
    """
    if start_exp < 1:
        raise SeriesError("start_exp must be >= 1 (factor exponents must be positive)")
    if step < 1:
        raise SeriesError("step must be >= 1")
    return _product(order, _exponents(start_exp, step, m), _mul_one_minus_qk)


def neg_pochhammer(start_exp, m, order, step=1):
    """(-q^start_exp; q^step)_m = prod_{j=1}^m (1 + q^(start_exp+(j-1)step)), mod q^(order+1).

    start_exp = 0 gives (-1; q^step)_m, whose leading factor is (1 + 1) = 2.
    """
    if start_exp < 0:
        raise SeriesError("start_exp must be >= 0")
    if step < 1:
        raise SeriesError("step must be >= 1")
    return _product(order, _exponents(start_exp, step, m), _mul_one_plus_qk)


def _exponents(start, step, m):
    """The first m terms of start, start + step, ...; all of them for m = None."""
    exps = count(start, step)
    return exps if m is None else islice(exps, max(m, 0))


def _product(order, exponents, kernel):
    """Apply kernel(c, e) to the series 1 for each e of an increasing sequence.

    The sequence is read only up to order: a binomial in q^e with e > order
    is 1 mod q^(order+1), and so is every one after it.
    """
    _check_order(order)
    c = [1] + [0] * order
    for e in exponents:
        if e > order:
            break
        kernel(c, e)
    return PowerSeries(c)


# c <- c * (1 -+ q^k) in place: a multiplication reads only old
# coefficients, so it is one slice operation
def _mul_one_minus_qk(c, k):
    c[k:] = map(sub, c[k:], c[: len(c) - k])


def _mul_one_plus_qk(c, k):
    # k = 0 doubles every coefficient: (1 + q^0) = 2
    c[k:] = map(add, c[k:], c[: len(c) - k])


@guarded
def m_threshold(prec=256):
    """The critical M = sqrt((12/(12-pi^2))^2 - 1) = 5.543... above which the
    minor-arc bound is genuinely smaller than the major-arc main term."""
    return mp.sqrt((12 / (12 - mp.pi ** 2)) ** 2 - 1)


@guarded
def oe_law(n, prec=256):
    """e^(pi sqrt(n/5)) / (2 sqrt5 n^(3/4)), the paper's leading term of OE(n)."""
    n = mpf(n)
    return mp.e ** (mp.pi * mp.sqrt(n / 5)) / (2 * mp.sqrt(5) * n ** mpf("0.75"))


@guarded
def oebar_law(n, prec=256):
    """e^(pi sqrt(n/3)) / (3^(5/4) n^(3/4)), the paper's leading term of OEbar(n)."""
    n = mpf(n)
    return mp.e ** (mp.pi * mp.sqrt(n / 3)) / (mpf(3) ** mpf("1.25") * n ** mpf("0.75"))


@guarded
def oebar_bessel(n, prec=256):
    """(pi sqrt2 / (3 sqrt(3n))) I_1(pi sqrt n / sqrt3), OEbar(n)'s leading
    term in Bessel form."""
    n = mpf(n)
    return (mp.pi * mp.sqrt(2) / (3 * mp.sqrt(3 * n))
            * bessel_i(1, mp.pi * mp.sqrt(n) / mp.sqrt(3), prec + GUARD_BITS))


@guarded
def o_lead(eps, prec=256):
    """sqrt(2/sqrt5) e^(pi^2/(20 eps)), O's leading term at q = e^(-eps)."""
    eps = mpf(eps)
    return mp.sqrt(2 / mp.sqrt(5)) * mp.e ** (mp.pi ** 2 / (20 * eps))


def chains(remaining, start, flags):
    """Yield (parts, flags), both in nonincreasing-part order, of the chains
    summing to remaining whose smallest part is start + 2k for some k >= 0.

    The empty chain sums to 0.  Each part carries one of the given flags,
    and a part p with flag f puts the next part at p + 1 + f or above.
    """
    if remaining == 0:
        yield (), ()
    for p in range(start, remaining + 1, 2):
        for flag in flags:
            for parts, marks in chains(remaining - p, p + 1 + flag, flags):
                yield parts + (p,), marks + (flag,)


def tail_index(log_x, shift, bits):
    """The least K >= 2x - 1 with 4 x^(K+1) e^-shift / (K+1)! <= 2^-bits, in
    float logarithms from log_x = log x, or the first K above TERM_BUDGET."""
    k = max(0, math.ceil(2 * math.exp(log_x)) - 1)
    cut = -bits * math.log(2)
    bound = math.log(4) + (k + 1) * log_x - math.lgamma(k + 2) - shift
    while bound > cut and k <= TERM_BUDGET:
        k += 1
        bound += log_x - math.log(k + 1)
    return k
