"""Arbitrary-precision special functions for the asymptotic analysis.

All public routines take an explicit working precision in bits; no
ambient global precision is relied on.  Precision has two owners.  The
decorator `guarded`, on public entry points only (here and in asympt,
circle and cli), runs a call at prec + GUARD_BITS bits and rounds
its result to prec bits, once.  The loop `pay_for_loss` pays for the bits
a sum loses, each pass at prec + extra + GUARD_BITS bits.  A private
helper computes at its caller's precision and never rounds; _wright_sum
alone sets its own, for fixed-point constants.  Each value is correct to
the precision asked for, or the routine raises.  horner_fixed is the
package's one Horner loop: real coefficients, by Goertzel's recurrence at a
complex point and Horner's rule at a real one.  The textbook functions are
mpmath's, behind this package's domain checks and conventions:

  dilog(x)            Li_2(x) on [0, 1): mp.polylog(2, x)
  jacobi_theta(z,tau) theta(z;tau) = sum_{n in 1/2+Z} e^(pi i n^2 tau + 2 pi i n (z+1/2))
                      = mp.jtheta(2, pi (z + 1/2), e^(pi i tau)), with more bits
                      where its terms cancel
  bessel_i(l, x)      modified Bessel I_l, integer order: mp.besseli(|l|, x)
  wright_p(s, u, M)   (1/2 pi i) int_{1-Mi}^{1+Mi} v^s e^(u(v+1/v)) dv, integrated
                      term by term from e^(u(v+1/v)) = sum_k I_k(2u) v^k, the I_k
                      by Miller's recurrence normalised by that identity, in fixed
                      point with proven bounds; no quadrature and no besseli

The theta convention is the half-integer-characteristic one used in the
odd-even asymptotics; theta(0;tau) = 0 identically for it.  Evaluations
that pay for lost bits log their work at DEBUG under this module's logger.

evaluate_at sums an exact series.PowerSeries at a point with horner_fixed,
in fixed point on Python integers, at horner_bits' precision, and logs the
order, the leading zeros stripped, the fixed-point bits and the tail bound
at DEBUG under the oepartitions.series logger.  It lives here, not in
series, so that the exact layer loads no mpmath; series.evaluate_at is
this function, imported on its first read.  No command calls it: the tests
and the benchmark hold point values to it, among them gf-eval's O(q),
which circle sums at the point from Andrews' series.  The tests' other
references, such as (q;q)_inf by modular reduction, live in tests/oracles.py.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import logging
import math
from itertools import islice

from mpmath import mp, mpf, mpc, workprec
from mpmath.libmp import to_fixed

from .series import SeriesError

GUARD_BITS = 32
LOSS_PASSES = 8
TERM_BUDGET = 1 << 12

log = logging.getLogger(__name__)
# evaluate_at logs under the layer whose series it sums
series_log = logging.getLogger(f"{__package__}.series")


def _rounded(value):
    return +value if isinstance(value, (mpf, mpc)) else value


def guarded(func):
    """Run func at prec + GUARD_BITS bits and round its result to prec bits;
    for public entry points only, so that a value is rounded once.

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


def pay_for_loss(evaluate, prec, what, *args, extra=0):
    """evaluate(prec + extra), a tuple (value, lost bits, ...), from the extra
    given (an estimate of the loss, or 0) until a pass loses at most
    extra + GUARD_BITS / 2 bits; the next pass takes extra = lost.  Each
    pass runs at prec + extra + GUARD_BITS bits and is not rounded.  Returns
    that tuple and its extra; raises after LOSS_PASSES passes, naming the
    value by what % args."""
    for _ in range(LOSS_PASSES):
        with workprec(prec + extra + GUARD_BITS):
            result = evaluate(prec + extra)
        if result[1] <= extra + GUARD_BITS // 2:
            return result, extra
        extra = result[1]
    raise ArithmeticError(f"{what % args} still lost {extra} bits after {LOSS_PASSES} passes")


def horner_fixed(coeffs, point, wp):
    """sum_k c_k z^k as a remainder, in fixed point on Python ints.

    coeffs are the c_k, highest first, as any iterable of ints scaled by
    2^wp; point is z as a pair of ints (real part, imaginary part) scaled
    by 2^wp.  Returns the sum as such a pair.

    The c_k are real, so the sum is the remainder of the polynomial modulo
    the real polynomial with root z, read at z.  At a real z that is X - z,
    and the remainder is Horner's rule, b_k = c_k + floor(z b_(k+1)): one
    product per coefficient.  Otherwise it is X^2 - sX + t, whose roots are
    z and its conjugate z', and the remainder is Goertzel's recurrence
    (Goertzel 1958; Knuth, TAOCP vol. 2, 4.6.4).  s = 2 Re z and t = |z|^2
    are taken exactly from the point's ints, t at scale 2^(2 wp); then
      b_k = c_k + floor((s b_(k+1) - floor(t b_(k+2) / 2^wp)) / 2^wp)
    and the sum is b_0 - b_1 z', each component floored: two real products
    per coefficient where a complex Horner step takes four.

    Error: a step's floors move b_k by under one unit of 2^-wp, as moving
    c_k by as much would, and each recurrence is exact in its z, s and t,
    so the floor at step k reaches the sum times z^k.  (In Goertzel's it
    reaches b_0 times (z^(k+1) - z'^(k+1)) / (z - z'), up to (k + 1) |z|^k,
    but b_0 - b_1 z' cancels that growth exactly.)  The last product floors
    each component once more.  The result is within
    (1 / (1 - |z|) + sqrt 2) 2^-wp < 2^(3/2 - wp) / (1 - |z|) of the exact
    sum at z, however large the c_k are.  A t floored to wp bits would not
    be: its error multiplies the b_k, whose size follows the coefficients'.
    z itself is taken as given: evaluate_at picks wp so that its point
    converts exactly, and the callers in circle and _wright_sum floor
    theirs to wp bits, which moves z by under 2^-wp per component.
    """
    zr, zi = point
    b1 = b2 = 0
    if not zi:
        for c in coeffs:
            b1 = c + (b1 * zr >> wp)
        return b1, 0
    s, t = 2 * zr, zr * zr + zi * zi
    for c in coeffs:
        b1, b2 = c + ((s * b1 - (t * b2 >> wp)) >> wp), b1
    return b1 - (b2 * zr >> wp), b2 * zi >> wp


def horner_bits(prec, radius):
    """The wp at which horner_fixed's error at |z| <= radius < 1, an mpf or
    a float, 2^(3/2 - wp) / (1 - radius), is below 2^-(prec + GUARD_BITS + 3):
    prec + GUARD_BITS + ceil(log2(1/(1 - radius))) + 5, the ceiling by mp.mag,
    which reads a float exactly.
    """
    return prec + GUARD_BITS + 5 + max(0, 1 - mp.mag(1 - radius))


@dataclasses.dataclass(frozen=True)
class EvalResult:
    """Value of a truncated series at a point plus a rigorous tail bound.

    value is an mpf at a real point and an mpc otherwise.
    """

    value: mpf | mpc
    tail_bound: mpf


@guarded
def evaluate_at(series, point, prec, growth_c=None):
    """Exact partial sum of the series at |point| < 1, with a tail bound.

    growth_c = None asserts the series is a polynomial (all omitted
    coefficients vanish), so the tail bound is 0.  Otherwise growth_c = C
    declares |c_k| <= e^(C sqrt(k)) for k > order, and the tail
    |sum_{k>N} c_k point^k| is bounded using sqrt(k) <= sqrt(N) + (k-N)/(2 sqrt(N)).

    The sum is horner_fixed's: with the leading zeros c_0 .. c_(m-1)
    stripped, it sums s(z) = sum_k c_(m+k) z^k, then multiplies by z^m.
    horner_bits(prec, |z|) bits, or more where z needs them to convert
    exactly, put the kernel's error below 2^-(prec + GUARD_BITS + 3); as
    |c_m| >= 1, that is no worse than the floating Horner's
    2^-(prec + GUARD_BITS) sum_k |c_(m+k)| |z|^k.
    Without the stripping, a sum of size |z|^m below 2^-wp would read 0.
    The value is an mpf at a real point, an mpc otherwise.  A point off the
    unit disc or a diverging tail bound raises series.SeriesError.
    """
    z = mp.convert(point)
    t = abs(z)
    if t >= 1:
        raise SeriesError("evaluation point must satisfy |q| < 1")
    coeffs = series.coeffs
    lead = next((k for k, c in enumerate(coeffs) if c), len(coeffs))
    parts = (z.real, z.imag)
    wp = max([horner_bits(prec, t)] + [-x._mpf_[2] for x in parts if x])
    top = islice(reversed(coeffs), len(coeffs) - lead)
    ar, ai = horner_fixed((c << wp for c in top), [to_fixed(x._mpf_, wp) for x in parts], wp)
    acc = mpc(mpf((ar, -wp)), mpf((ai, -wp))) if isinstance(z, mpc) else mpf((ar, -wp))
    if lead:
        acc *= z ** lead
    n = series.order
    if growth_c is None:
        tail = mpf(0)
    else:
        c_growth = mpf(growth_c)
        if c_growth < 0:
            raise SeriesError("growth constant must be >= 0")
        if n == 0:
            rho = mp.e ** c_growth  # sqrt(k) <= k for k >= 1
            peak = mpf(1)
        else:
            rho = mp.e ** (c_growth / (2 * mp.sqrt(n)))
            peak = mp.e ** (c_growth * mp.sqrt(n))
        if rho * t >= 1:
            raise SeriesError(
                "tail bound diverges: increase the order or lower the growth constant"
            )
        tail = peak * (rho * t) * (t ** n) / (1 - rho * t)
    if series_log.isEnabledFor(logging.DEBUG):
        series_log.debug("series of order %d at |q| = %s: %d leading zeros stripped, %d bits, "
                         "tail bound %s", n, mp.nstr(t, 8), lead, wp, mp.nstr(tail, 3))
    return EvalResult(value=acc, tail_bound=tail)


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
    if abs(mp.expjpi(tau)) > mp.THETA_Q_LIM:
        raise DomainError(f"Im tau = {mp.nstr(tau.imag, 3)} puts |e^(pi i tau)| above "
                          f"mpmath's theta limit THETA_Q_LIM = {mp.THETA_Q_LIM}")
    n = mp.floor(-z.imag / tau.imag) + mpf("0.5")
    # log2 of the largest term, rounded up; mp.mag(value) is log2 |value| or up to 2 above
    peak_bits = int(mp.ceil(-mp.pi * (n * n * tau.imag + 2 * n * z.imag) / mp.ln2))

    def evaluate(bits):
        value = mp.jtheta(2, mp.pi * (z + mpf("0.5")), mp.expjpi(tau))
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


def _tail_index(log_x, shift, bits):
    """The least K >= 2x - 1 with 4 x^(K+1) e^-shift / (K+1)! <= 2^-bits, in
    float logarithms from log_x = log x, or the first K above TERM_BUDGET."""
    k = max(0, math.ceil(2 * math.exp(log_x)) - 1)
    cut = -bits * math.log(2)
    bound = math.log(4) + (k + 1) * log_x - math.lgamma(k + 2) - shift
    while bound > cut and k <= TERM_BUDGET:
        k += 1
        bound += log_x - math.log(k + 1)
    return k


def _wright_sum(s, u, big_m, prec):
    """P_s(u) on the segment 1-Mi .. 1+Mi, the bits its sum lost, its number
    of terms and the start N of its ladder; see wright_p for the series.

    In the weights d_k = I_k(2u) r^k / e^(u(r+1/r)), k >= 0, and the phase
    psi = e^(i(s+1) theta), pi P / (r^(s+1) e^(u(r+1/r))) is
      sum_(k>=0) d_k Im(psi e^(ik theta)) / (s+1+k)
        + sum_(k>=1) d_k Im(psi (e^(-i theta) / r^2)^k) / (s+1-k),
    a term with s+1 +- k = 0 read as theta times the real part.  The weights
    of the two sums, d_k and d_k / r^(2k), add up to 1 and each term is at
    most 2 of its weight, so the terms add up to at most 2 in modulus; the
    bits lost are log2 of 2 over the modulus of the sum, rounded up.

    Fixed point on Python ints at wp = prec + GUARD_BITS +
    ceil(log2 TERM_BUDGET) + 4 bits, the constants taken at wp bits, and
    each sum stops where _tail_index bounds its rest below 2^-wp, at K for
    k >= 0.  The d_k come by Miller's algorithm: d_(k-1) = d_k k / (u r) +
    d_(k+1) / r^2 runs down from 0 and 1 at N + 1 and N, and as the weights
    add up to 1, the ladder is divided by its own sum_(k<=K) d_k +
    sum_(k>=1) d_k / r^(2k).  At k <= K that start is off by at most
    I_(N+1) K_k / (K_(N+1) I_k) <= (u/K)^(2(N+1-K)) relative, since
    I_(v+1)(2u) / I_v(2u) <= u/(v+1) and K_v(2u) / K_(v+1)(2u) <= u/v
    (K at least 1); N puts that below 2^-wp.  Every coefficient is
    positive, so no step cancels and a rounding grows no faster than the
    values do.  The d_k grow from d_N = 2^wp units down to K, and the
    second sum is horner_fixed's at the real point 1/r^2, whose floors each
    reach it times a power of 1/r^2, so the divisor is within k_neg units
    of at least 2^wp.  The phases are running products, of modulus at most
    1, a few units of 2^-wp off per step.  So TERM_BUDGET terms stay below
    2^-(prec + GUARD_BITS) of 2; pay_for_loss makes that relative to P.
    """
    wp = prec + GUARD_BITS + (TERM_BUDGET - 1).bit_length() + 4
    with workprec(wp):
        r = mp.hypot(1, big_m)
        shift = float(u * (r - 1) ** 2 / r)  # log of e^(u(r+1/r)) / e^(2u)
        k_pos = _tail_index(float(mp.log(u * r)), shift, wp)
        k_neg = _tail_index(float(mp.log(u / r)), shift, wp)
        terms = k_pos + 1 + k_neg
        if terms > TERM_BUDGET:
            raise ArithmeticError(f"P_{s}({u}) on M = {big_m} needs over {TERM_BUDGET} terms")
        top = max(k_pos, 1)  # N puts (u/top)^(2(N+1-top)) below 2^-wp
        n = top - 1 + math.ceil(wp * math.log(2) / (2 * (math.log(top) - float(mp.log(u)))))
        theta = mp.atan(big_m)
        psi = mp.expj((s + 1) * theta)
        y = mpc(1, -big_m) / r ** 3  # e^(-i theta) / r^2
        # 1/(u r) and 1/r^2 at c bits, so that each keeps wp significant bits
        c = wp + max(mp.mag(u * r), 2 * mp.mag(r), 0) + 2
        g, h = to_fixed((1 / (u * r))._mpf_, c), to_fixed((1 / (r * r))._mpf_, c)
        th, *phases = [to_fixed(x._mpf_, wp) for x in (
            theta, psi.real, psi.imag, mp.cos(theta), mp.sin(theta),
            (psi * y).real, (psi * y).imag, y.real, y.imag)]
    # d[k], k = 0 .. N, is d_k times one scale, to 2^-wp relative at k <= K
    d, a, b = [1 << wp], 1 << wp, 0
    for k in range(n, 0, -1):
        a, b = (k * a * g + b * h) >> c, a
        d.append(a)
    d.reverse()
    # sum_(k<=K) d[k] + sum_(1<=k<=k_neg) d[k] / r^(2k), the second by Horner's rule at 1/r^2
    norm = sum(d[:k_pos + 1]) + horner_fixed([*d[k_neg:0:-1], 0], (h, 0), c)[0]
    acc = 0
    for sign, first, last, (zr, zi, wr, wi) in ((1, 0, k_pos, phases[:4]),
                                                (-1, 1, k_neg, phases[4:])):
        for k in range(first, last + 1):
            p = s + 1 + sign * k
            acc += d[k] * zi // p if p else (d[k] * zr * th) >> wp
            zr, zi = (zr * wr - zi * wi) >> wp, (zr * wi + zi * wr) >> wp
    if not acc:
        raise ArithmeticError(f"P_{s}({u}) on M = {big_m} sums to 0 at {wp} fixed-point bits")
    with workprec(wp):
        bracket = mpf((acc, -wp)) / norm
        value = bracket * r ** (s + 1) * mp.exp(u * (r + 1 / r)) / mp.pi
    # mp.mag(bracket) is log2 |bracket| or up to 2 above
    return value, max(3 - mp.mag(bracket), 0), terms, n


@guarded
def wright_p(s, u, big_m, prec=256):
    """Wright's contour function P_s(u) = (1/2 pi i) int v^s e^(u(v+1/v)) dv
    on the segment 1-Mi .. 1+Mi, for integer s, u > 0 and M > 0.

    With e^(u(v+1/v)) = sum_(k in Z) I_k(2u) v^k (Watson, Bessel Functions,
    2.1), v+ = 1 + Mi = r e^(i theta) and p = s + k + 1, each term
    integrates in closed form:
      P_s(u) = (1/pi) [theta I_|s+1|(2u) + sum_(p != 0) I_|p-s-1|(2u) Im(v+^p) / p].
    Two bounds make the sum exact to prec bits:
      truncation  I_k(x) <= (x/2)^k e^x / k!, and past k >= 2ur the bounds
                  of the terms at least halve, so the rest of the sum is
                  below twice its first bound; the p < 0 side decays like
                  (u/r)^k / k!;
      precision   sum_k I_k(2u) r^k = e^(u(r+1/r)) scales Miller's ladder of
                  I_k(2u) r^k and caps the terms at 2 r^(s+1) e^(u(r+1/r)) / pi
                  in all; the bits that cap loses against |P| are estimated
                  first, from the larger of the leading Debye term of
                  I_|s+1|(2u), which is P_s(u) with the contour closed, and
                  the u -> 0 limit r^(s+1) |sin((s+1) theta)| / (pi |s+1|)
                  (theta / pi at s = -1); pay_for_loss pays any shortfall.
    Raises ArithmeticError past TERM_BUDGET terms, so wherever 2ur is above
    4096.  Logs its term count, the ladder's start, the bits lost and any
    re-sum at DEBUG.
    """
    u = mpf(u)
    big_m = mpf(big_m)
    if u <= 0 or big_m <= 0:
        raise DomainError("wright_p needs u > 0 and M > 0")
    s = _integer(s, "s")
    r = mp.hypot(1, big_m)
    if 2 * u * r > TERM_BUDGET:
        raise ArithmeticError(f"P_{s}({u}) on M = {big_m} needs over {TERM_BUDGET} terms")
    # log |P| ~ the larger of the two estimates above, and log of the terms' bound
    nu, t = abs(s + 1), mp.hypot(s + 1, 2 * u)
    log_p = t - nu * mp.asinh(nu / (2 * u)) - mp.log(2 * mp.pi * t) / 2
    theta = mp.atan(big_m)
    limit = abs(mp.sin(nu * theta)) * r ** (s + 1) / (mp.pi * nu) if nu else theta / mp.pi
    if limit:
        log_p = max(log_p, mp.log(limit))
    log_bound = (s + 1) * mp.log(r) + u * (r + 1 / r)
    headroom = max(int(mp.ceil((log_bound - log_p) / mp.ln2)) + 3, 0)
    (value, lost, terms, start), extra = pay_for_loss(
        lambda bits: _wright_sum(s, u, big_m, bits), prec, "P_%d(%s) on M = %s", s, u, big_m,
        extra=headroom)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("P_%d(%s) on M = %s: ladder from %d, %d terms, lost %d bits, %s at %d bits",
                  s, mp.nstr(u, 10), mp.nstr(big_m, 10), start, terms, lost,
                  "re-summed" if extra != headroom else "no re-sum", prec + extra)
    return value
