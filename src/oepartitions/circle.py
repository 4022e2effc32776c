"""Wright-style circle method for the odd-even overpartition counts.

The Cauchy integral for OEbar(n) runs over the circle |q| = e^(-2 pi y)
with y = 1/(4 sqrt(3n)), parameterized as q = e^(2 pi i (x + i y)).  The
contour splits into a major arc |x| <= M y, where the generating function
is governed by its dominant pole at q = 1, and the complementary minor
arc, where it is exponentially smaller.  This module evaluates all the
pieces numerically: the full coefficient-recovery integral, the major-arc
integral against the Bessel main term, and the proven minor-arc bound
together with an empirical maximum.

Obar(q) takes one of two routes, picked from the point alone (see
_oebar_eval_tau).  Near q = 1, Obar = (-q;q)_inf f(q), f Watson's
third-order mock theta function, moves to the nome Q = e^(-pi i/tau) as
one formula (see _transformed), whose Mordell integral is summed by an
asymptotic expansion (see _mordell).  Everywhere else Obar is summed from
the paper's own series, in fixed point (see _obar_sum).

Both polynomial sums here, the Mordell expansion and the exact series at
the samples of the Cauchy recovery, run on series.horner_fixed, the
package's one Horner loop.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf, mpc
from mpmath.calculus.quadrature import GaussLegendre
from mpmath.libmp import to_fixed

from . import genfun
from .asympt import oebar_asymptotic
from .series import horner_bits, horner_fixed
from .specfun import (GUARD_BITS, TERM_BUDGET, DomainError, QuadratureError, bessel_i, guarded,
                      pay_for_loss)

# Gauss-Legendre rule with 3 * 2^(QUAD_DEGREE - 1) = 12 nodes per panel;
# the rule object caches its nodes per precision
_GAUSS = GaussLegendre(mp)
QUAD_DEGREE = 3
QUAD_CALL_BUDGET = 1 << 14
_TINY = 2.0 ** -1000  # the least size kept in floats: a clamp in place of an underflow

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ArcGeometry:
    """Contour data: circle radius e^(-2 pi y) with y = 1/(4 sqrt(3n)), cut at |x| = M y."""

    n: int
    big_m: mpf = mpf(6)

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("n must be >= 1")
        if not (mp.isfinite(self.big_m) and self.big_m > 0):
            raise DomainError(f"M must be finite and > 0, got {self.big_m}")
        if float(self.big_m) * float(self.y) >= 0.5:
            raise DomainError("major arc would cover the whole circle: need M y < 1/2")

    @property
    def y(self):
        return 1 / (4 * mp.sqrt(3 * self.n))

    @property
    def major_halfwidth(self):
        return mpf(self.big_m) * self.y


@dataclass(frozen=True)
class MinorArcBound:
    """Proven sup bound for |Obar| on the minor arc, and the exponent saving."""

    bound_value: mpf
    exponent_saving: mpf
    clears_threshold: bool


@guarded
def m_threshold(prec=256):
    """The critical M = sqrt((12/(12-pi^2))^2 - 1) = 5.543... above which the
    minor-arc bound is genuinely smaller than the major-arc main term."""
    return mp.sqrt((12 / (12 - mp.pi ** 2)) ** 2 - 1)


@guarded
def exponent_saving(big_m, prec=256):
    """delta(M) = (1/pi)(1 - 1/sqrt(1+M^2)) - pi/12.

    The minor-arc bound is (1/(y sqrt2)) e^((pi/24 - delta)/y); delta > 0
    exactly when M is above the 5.543... threshold, and delta -> 1/pi - pi/12
    as M -> infinity.
    """
    m2 = mpf(big_m) ** 2
    return (1 / mp.pi) * (1 - 1 / mp.sqrt(1 + m2)) - mp.pi / 12


def _settled_term(tau):
    """The least m from which each term of Obar(q)'s series at
    q = e^(2 pi i tau) bounds the sum after it.

    With r = |q|, |1 - q^(2m)| >= 1 - r^(2m) gives |t_m / t_(m-1)| <= rho(m)
    = r^m (1 + r^(m-1)) / (1 - r^(2m)), which falls with m.  With u = r^m,
    rho(m) <= 1/2 once u <= 1/(1 + sqrt(2 + 2/r)); from there on each ratio
    is at most 1/2, so the sum after a term is below it.  In float
    logarithms, so that |q| may underflow, with Im tau held in [2^-1000, 1]:
    the answer is 1 from 1 up and past 10^299 below 2^-1000.
    """
    log_r = -2 * math.pi * min(max(float(tau.imag), _TINY), 1.0)
    half_log = (math.log(2) - log_r + math.log1p(math.exp(log_r))) / 2  # log sqrt(2 + 2/r)
    log_u = -half_log - math.log1p(math.exp(-half_log))
    return math.ceil(log_u / log_r)


def _obar_sum(tau, prec):
    """Obar(q) at q = e^(2 pi i tau), the bits its sum lost,
    max(0, ceil(log2(max |t_m| / |Obar|))), and the terms after the first.

    (-1;q)_m = 2 (-q;q)_(m-1) and (q^2;q^2)_m = (q;q)_m (-q;q)_m make the
    paper's series sum_m (-1;q)_m q^(m(m+1)/2) / (q^2;q^2)_m the sum of
    t_0 = 1 and t_m = 2 q^(m(m+1)/2) / ((q;q)_m (1 + q^m)): each term is the
    last times q^m (1 + q^(m-1)) / (1 - q^(2m)), so no powers are taken.
    Stops at a term below 2^-(prec + GUARD_BITS) of the largest, once
    _settled_term says that term bounds the rest, and raises past
    TERM_BUDGET terms, at once where _settled_term is past it; the ratio
    bound rules out a rise after a dip.

    Fixed point on Python ints, each complex number a pair, at
    wp = prec + GUARD_BITS + ceil(log2 TERM_BUDGET) + 4 bits; dividing by
    d = 1 - q^(2m) is multiplying by conj(d) and floor-dividing by |d|^2,
    and magnitudes are compared squared.  The sum and the powers of q are
    scaled by 2^wp: each step rounds by a few units of 2^-wp, and the
    largest term is at least 1 (t_0), so TERM_BUDGET roundings stay below
    2^-(prec + GUARD_BITS) of it; the caller's re-sum makes that relative
    to Obar.  The term is scaled by 2^(wp + s), s raised whenever it falls
    below 1, so it keeps wp significant bits where the terms fall far below
    1 and rise again.
    """
    settled = _settled_term(tau)
    if settled > TERM_BUDGET:
        raise ArithmeticError(f"Obar(q) at tau = {tau} needs over {TERM_BUDGET} terms")
    wp = prec + GUARD_BITS + (TERM_BUDGET - 1).bit_length() + 4
    q = mp.expjpi(2 * tau)
    qr, qi = to_fixed(q.real._mpf_, wp), to_fixed(q.imag._mpf_, wp)
    one = 1 << wp
    # (sr, si) the sum and (pr, pi_) q^(m-1), scaled by 2^wp; (tr, ti) the
    # term, scaled by 2^(wp + s)
    sr = tr = pr = one
    si = ti = pi_ = s = 0
    floor2 = top = one * one  # 2^(2 wp), and the largest |term|^2 at the term's scale
    cut = 2 * (prec + GUARD_BITS)
    for terms in range(1, TERM_BUDGET + 1):
        nr, ni = (pr * qr - pi_ * qi) >> wp, (pr * qi + pi_ * qr) >> wp  # q^m
        ar = nr + ((nr * pr - ni * pi_) >> wp)  # q^m (1 + q^(m-1))
        ai = ni + ((nr * pi_ + ni * pr) >> wp)
        dr, di = one - ((nr * nr - ni * ni) >> wp), -((2 * nr * ni) >> wp)  # 1 - q^(2m)
        m2 = dr * dr + di * di  # |d|^2, scaled by 2^(2 wp)
        wr, wi = (tr * ar - ti * ai) >> wp, (tr * ai + ti * ar) >> wp
        tr, ti = ((wr * dr + wi * di) << wp) // m2, ((wi * dr - wr * di) << wp) // m2
        sr += tr >> s
        si += ti >> s
        pr, pi_ = nr, ni
        size2 = tr * tr + ti * ti
        if size2 > top:
            top = size2
        elif size2 < top >> cut and terms >= settled:
            break
        if size2 < floor2:  # keep wp significant bits in the term
            k = wp + 1 - (size2.bit_length() >> 1)
            tr, ti, s, top = tr << k, ti << k, s + k, top << 2 * k
    else:
        raise ArithmeticError(f"Obar(q) at tau = {tau} needs over {TERM_BUDGET} terms")
    if not (sr or si):
        raise ArithmeticError(f"Obar(q) at tau = {tau} sums to 0 at {wp} fixed-point bits")
    size2 = (sr * sr + si * si) << 2 * s  # |sum|^2 at the term's scale
    lost = max((top.bit_length() - size2.bit_length()) // 2, 0)
    while size2 << 2 * lost < top:  # to the least lost >= 0 with 4^lost |sum|^2 >= top
        lost += 1
    return mpc(mpf((sr, -wp)), mpf((si, -wp))), lost, terms


def _mordell_terms(size, prec):
    """How many terms of M(z) ~ sum b_j z^j at |z| = size leave the next one
    below 2^-(prec + GUARD_BITS); 0 where the terms turn upwards first, or
    TERM_BUDGET of them do not reach that.

    A float estimate: the poles of sinh u / sinh(3u/2) at u = +-2 pi i/3
    give |b_(j+1) / b_j| = 3 (2j+1) / (4 pi^2), up to a relative O(4^-j)
    and from above.
    """
    bits, cut = math.log2(4 / 3), -(prec + GUARD_BITS)
    for terms in range(1, TERM_BUDGET + 1):
        ratio = 3 * (2 * terms - 1) * size / (4 * math.pi ** 2)
        if ratio >= 1:
            return 0
        bits += math.log2(ratio)
        if bits < cut:
            return terms
    return 0


_MORDELL_H = [2]  # the h_j of _mordell, continued by _mordell_fixed and never rebuilt


@lru_cache(maxsize=16)
def _mordell_table(prec):
    """The floor(b_j 2^wp) built so far at prec, grown in place by _mordell_fixed."""
    return []


def _mordell_fixed(prec, terms):
    """wp = prec + GUARD_BITS + 4 and floor(b_j 2^wp) for j < terms, built only as far as asked."""
    wp, table, h = prec + GUARD_BITS + 4, _mordell_table(prec), _MORDELL_H
    for j in range(len(h), terms):
        rest, weight = 0, 1  # weight = C(2j, 2k) 12^k, updated by its ratio in k
        for k in range(1, j + 1):
            weight = weight * 6 * (2 * j - 2 * k + 2) * (2 * j - 2 * k + 1) // (k * (2 * k - 1))
            rest += weight * h[j - k]
        h.append(2 * 3 ** j - 2 * rest // 3)
    for j in range(len(table), terms):
        table.append((h[j] << wp + 1) // (3 ** (j + 1) * math.factorial(j) * 24 ** j))
    return wp, table[:terms]


def _mordell(z, terms, prec):
    """M(z) ~ sum_(j < terms) b_j z^j, by series.horner_fixed on floor(b_j 2^wp).

    b_j = 2 c_j (2j-1)!! / 3^j, c_j the coefficient of u^(2j) in
    sinh u / sinh(3u/2) = 2 cosh(u/2) / (1 + 2 cosh u).  Matching powers of
    u in (1 + 2 cosh u) sum c_j u^(2j) = 2 cosh(u/2), with
    c_j = h_j / (3 (2j)! 12^j), gives the integers
      h_0 = 2,  h_j = 2 3^j - 2 sum_(k=1..j) C(2j, 2k) 4^k 3^(k-1) h_(j-k),
    and b_j = 2 h_j / (3^(j+1) j! 24^j): b_0 = 4/3, b_1 = -5/54.  Each entry
    is (2 h_j 2^wp) // (3^(j+1) j! 24^j), a floor division of exact
    integers, so it is the floor of the rational b_j 2^wp itself.

    Each step and each b_j round by a unit of 2^-wp, which reaches the
    value times z^j; |z| < 1/2 wherever _mordell_terms allows a sum, so the
    total stays below 2^-(prec + GUARD_BITS).
    """
    wp, coeffs = _mordell_fixed(prec, terms)
    point = to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp)
    ar, ai = horner_fixed(reversed(coeffs), point, wp)
    return mpc(mpf((ar, -wp)), mpf((ai, -wp)))


def _omega(big_q):
    """Watson's omega(Q) = sum_(n>=0) Q^(2n(n+1)) / (Q;Q^2)_(n+1)^2, for |Q| <= e^-pi.

    Each term is the last times Q^(4n) / (1 - Q^(2n+1))^2, at most 1/2 in
    size, so the sum after a term is below it; the loop stops at a term
    below 2^-prec of the sum, after one or two on the major arc.
    """
    eps = mpf(2) ** -mp.prec
    q2 = big_q * big_q
    q4 = q2 * q2
    odd, step = big_q, mpc(1)  # Q^(2n-1) and Q^(4n)
    term = total = 1 / (1 - big_q) ** 2
    for _ in range(TERM_BUDGET):
        odd *= q2
        step *= q4
        term *= step / (1 - odd) ** 2
        total += term
        if abs(term) < eps * abs(total):
            return total
    raise ArithmeticError(f"omega(Q) at Q = {big_q} needs over {TERM_BUDGET} terms")


def _neg_pochhammer(big_q):
    """(-Q;Q)_inf, for |Q| <= e^-pi.

    The product stops at a factor 1 + Q^k with |Q^k| below 2^-prec; the
    rest changes the value by at most |Q^k| / (1 - |Q|).  With |Q| <= e^-pi
    that is at most about prec/4.5 factors, and one near q = 1.
    """
    eps = mpf(2) ** -mp.prec
    product, power = mpc(1), big_q
    for _ in range(TERM_BUDGET):
        if abs(power) < eps:
            return product
        product *= 1 + power
        power *= big_q
    raise ArithmeticError(f"(-Q;Q)_inf at Q = {big_q} needs over {TERM_BUDGET} factors")


def _phase(x, d):
    """x / d to within 2^(GUARD_BITS/2 - mp.prec), for e^(pi i x/d), which
    reads x/d modulo 2 and its imaginary part in full: a quotient of 2^k
    at mp.prec bits would cost k bits of the value."""
    extra = mp.mag(x) - mp.mag(d) - GUARD_BITS // 2
    return x / d if extra <= 0 else mp.fdiv(x, d, prec=mp.prec + extra)


def _transformed(tau, inv, size, terms, prec):
    """Obar(q) at q = e^(2 pi i tau) through Watson's transformation, the
    bits lost adding M(z) and the omega term, and the terms of M; or None.

    With z = -2 pi i tau, inv = -1/tau and Q = e^(pi i inv) = e^(-2 pi^2/z),
      Obar(e^-z) = e^(-pi i inv/24) (M(z) + w) / (sqrt2 (-Q;Q)_inf),
      w = 2 sqrt(i/tau) e^(-2 pi i/(3 tau)) omega(Q),
    M the Mordell integral, summed by its asymptotic expansion: Watson's
    e^(z/24) f(e^-z) = M(z) + w times (-q;q)_inf = eta(2 tau)/eta(tau)
    moved to -1/tau, their factors e^(+-pi i tau/12) cancelled.  The
    caller passes |z| as the float size and a nonzero term count from
    _mordell_terms at that size, so the expansion reaches
    2^-(prec + GUARD_BITS), and forms inv by _phase, as the phases -inv/24
    and 2 inv/3 are here, and checks Im inv >= 1, so |Q| <= e^-pi.
    None where M and w cancel more than GUARD_BITS / 2 bits.
    """
    z = -2j * mp.pi * tau
    big_q = mp.expjpi(inv)
    m = _mordell(z, terms, prec)
    total, lost = m, 0
    # |omega(Q)| < 1.1 for |Q| <= e^-pi and |M(z)| > 1 where the expansion serves, so w is
    # below the truncation of M where 2.2 sqrt(2 pi/|z|) |Q|^(2/3) is; mp.mag bounds
    # log2 |Q| from above, as an integer however small Q is
    if 2 * mp.mag(big_q) >= -3 * (prec + GUARD_BITS + math.log2(2.2 * math.sqrt(2 * math.pi / size))):
        w = 2 * mp.sqrt(1j / tau) * mp.expjpi(_phase(inv, 1.5)) * _omega(big_q)
        total = m + w
        lost = max(mp.mag(m), mp.mag(w)) - mp.mag(total) if total else mp.inf
        if lost > GUARD_BITS // 2:
            return None
    value = mp.expjpi(_phase(inv, -24)) * total / (mp.sqrt(2) * _neg_pochhammer(big_q))
    return value, max(lost, 0), terms


def _oebar_eval_tau(tau, prec):
    """Obar(e^(2 pi i tau)) at the caller's precision, unrounded: the
    guarded entry point above it rounds once, to prec bits.

    The route is chosen before any complex arithmetic.  The float size
    |z| = 2 pi |tau|, |tau| held in [2^-1000, 2^10] (below, the count can
    only grow, by terms under the cut; above, it is 0), gives
    _mordell_terms' count; only where it is nonzero is -1/tau formed and
    Im(-1/tau) >= 1 (the whole major arc for n >= 30) tested.  Where both
    pass and _transformed reaches prec bits, that route; elsewhere
    _obar_sum, re-summed by pay_for_loss.  Logs the route, its term count,
    lost bits and re-sum at DEBUG.
    """
    size = 2 * math.pi * min(max(abs(complex(tau)), _TINY), 1024.0)
    terms = _mordell_terms(size, prec)
    found = None
    if terms:
        inv = _phase(-1, tau)
        if inv.imag >= 1:
            found = _transformed(tau, inv, size, terms, prec)
    if found is not None:
        (value, lost, terms), route, extra = found, "transformed", 0
    else:
        (value, lost, terms), extra = pay_for_loss(lambda bits: _obar_sum(tau, bits), prec,
                                                   "Obar(q) at tau = %s", tau)
        route = "direct"
    if log.isEnabledFor(logging.DEBUG):
        log.debug("Obar(q) at tau = %s: %s, %d terms, lost %d bits, %s", tau, route, terms, lost,
                  f"re-summed at {prec + extra} bits" if extra else "no re-sum")
    return value


@guarded
def oebar_eval(tau, prec=256):
    """Evaluate Obar(q) = sum_m (-1;q)_m q^(m(m+1)/2) / (q^2;q^2)_m at
    q = e^(2 pi i tau), Im tau > 0 (see _oebar_eval_tau for the two routes).

    Efficient arbitrarily close to q = 1, through the modular
    transformation there; this is the route used on the major arc.  Obar
    is 1-periodic in tau, so tau is first reduced, exactly, by an integer.
    """
    tau = mpc(tau)
    if tau.imag <= 0:
        raise DomainError("tau must lie in the upper half plane")
    return _oebar_eval_tau(tau - mp.nint(tau.real), prec)


@guarded
def cauchy_full_integral(n, prec=256):
    """Recover OEbar(n) from the Cauchy integral by DFT on the circle.

    Samples genfun's hypergeometric series, truncated at order n, at the
    K = n + 1 points z_k = r w^k, w = e^(2 pi i/K), r = e^(-2 pi y).  With
    K > n only q^n aliases onto q^n, so sum_k S(z_k) w^(-nk) = K OEbar(n) r^n
    exactly, and n = -1 (mod K) makes each twiddle the sample's own root
    w^k = z_k / r: the sum is sum_k z_k S(z_k) / r^(n+1), z S(z) the series
    with a zero coefficient put below it.  The series and r are real, so
    samples k and K - k are conjugates: the sum is over k <= K/2 of
    Re(z_k S(z_k)), weight 1 at k = 0 and k = K/2 and 2 elsewhere,
    floor((n+1)/2) + 1 samples.  The folded sum's distance to the nearest
    integer, which carries every sample's rounding, is a pure precision
    health metric.  A prec below OEbar(n)'s bit length + 16 is raised to
    it, leaving a residual near 2^-40; one above 0.25 is a defect, and raises.

    The coefficients are scaled once, to wp = series.horner_bits(prec, r)
    fixed-point bits, and each sample is series.horner_fixed's, within
    2^-(prec + GUARD_BITS + 3) of z S(z) at the sample point as rounded
    to wp bits; the real parts are summed exactly as integers.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return 1, mpf(0)
    series = genfun.oebar_series_hypergeometric(n)
    need = series.coeffs[n].bit_length() + 16
    if prec < need:
        return cauchy_full_integral(n, need)
    samples = n + 1
    # only the radius is needed here, not the arc cut
    y = 1 / (4 * mp.sqrt(3 * n))
    r = mp.e ** (-2 * mp.pi * y)
    wp = horner_bits(prec, r)
    coeffs = [c << wp for c in reversed(series.coeffs)] + [0]  # z S(z)
    total = 0  # the folded sum, scaled by 2^wp
    for k in range(samples // 2 + 1):
        z = r * mp.expjpi(2 * mpf(k) / samples)
        part, _ = horner_fixed(coeffs, (to_fixed(z.real._mpf_, wp), to_fixed(z.imag._mpf_, wp)), wp)
        total += part if 2 * k % samples == 0 else 2 * part
    total = mpf((total, -wp)) / samples / r ** (n + 1)
    nearest = int(mp.nint(total))
    residual = abs(total - nearest)
    if residual > 0.25:
        raise QuadratureError(f"rounding residual {residual} above 1/4 at {prec} bits")
    return nearest, residual


def adaptive_quad(f, a, b, rel_target, prec):
    """Globally adaptive composite Gauss-Legendre quadrature of f over [a, b].

    Each panel keeps the rule's value G on itself and on its two halves;
    |G(panel) - G(left) - G(right)| estimates its error.  The panel with
    the largest estimate is split, reusing its halves, until the summed
    estimate is at most rel_target * max(|value|, 1), where value sums the
    halves.  Nodes are computed at `prec` bits, and a target below 2^-prec
    is refused.  Returns (value, error estimate); raises QuadratureError
    rather than spend more than QUAD_CALL_BUDGET calls of f, so it never
    returns an unconverged value.
    """
    if rel_target < mpf(2) ** -prec:
        raise DomainError(f"rel_target {mp.nstr(rel_target, 3)} is below {prec}-bit precision")
    nodes = _GAUSS.get_nodes(-1, 1, QUAD_DEGREE, prec)
    calls = 0

    def rule(lo, hi):
        nonlocal calls
        calls += len(nodes)
        if calls > QUAD_CALL_BUDGET:
            raise QuadratureError(
                f"quadrature budget of {QUAD_CALL_BUDGET} calls exhausted before the "
                f"error estimate reached {mp.nstr(rel_target, 3)} relative"
            )
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        return half * mp.fsum(w * f(mid + half * x) for x, w in nodes)

    def panel(lo, hi, whole):
        mid = (lo + hi) / 2
        left, right = rule(lo, mid), rule(mid, hi)
        return (-abs(whole - left - right), lo, hi, left, right)

    heap = [panel(a, b, rule(a, b))]
    while True:
        value = mp.fsum(left + right for _, _, _, left, right in heap)
        err = -mp.fsum(neg_err for neg_err, *_ in heap)
        if err <= rel_target * max(abs(value), 1):
            return value, err
        _, lo, hi, left, right = heapq.heappop(heap)
        mid = (lo + hi) / 2
        heapq.heappush(heap, panel(lo, mid, left))
        heapq.heappush(heap, panel(mid, hi, right))


def _arc_integral(geom, lo, hi, rel_target, prec):
    """The Cauchy integral for OEbar(n) over lo <= |x| <= hi to rel_target
    relative, for a guarded caller.  Obar has real coefficients, so x -> -x
    conjugates the integrand Obar(q) q^(-n), q = e^(2 pi i (x + i y)): the
    integral is twice that of its real part over [lo, hi], to rel_target / 2.
    """
    n, y = geom.n, geom.y
    amp = mp.e ** (2 * mp.pi * n * y)

    def integrand(x):
        return (_oebar_eval_tau(mpc(x, y), prec) * mp.expjpi(-2 * n * x)).real * amp

    half, _ = adaptive_quad(integrand, lo, hi, rel_target / 2, prec + GUARD_BITS)
    return 2 * half


@guarded
def major_arc_integral(geom, prec=128):
    """I_1: the major-arc piece of the Cauchy integral, by adaptive quadrature.

    I_1 = int_{|x| <= M y} Obar(e^(2 pi i x - 2 pi y)) e^(-2 pi i n x + pi sqrt n/(2 sqrt 3)) dx,
    which is real, to 1e-8 relative.
    """
    return _arc_integral(geom, mpf(0), geom.major_halfwidth, mpf(10) ** -8, prec)


@guarded
def minor_arc_integral(geom, prec=96):
    """I_2: the minor-arc remainder, the same integral over M y <= |x| <= 1/2,
    to 1e-6 relative."""
    return _arc_integral(geom, geom.major_halfwidth, mpf("0.5"), mpf(10) ** -6, prec)


@guarded
def main_term(n, prec=256):
    """Main term of I_1: returns (exponential form, Bessel form).

    exponential: e^(pi sqrt(n/3)) / (3^(5/4) n^(3/4))
    Bessel:      (pi sqrt2 / (3 sqrt(3n))) I_(-1)(pi sqrt n / sqrt 3)
    """
    expo = oebar_asymptotic(n, prec)  # raises for n < 1
    nn = mpf(n)
    bess = (
        mp.pi * mp.sqrt(2) / (3 * mp.sqrt(3 * nn))
        * bessel_i(-1, mp.pi * mp.sqrt(nn) / mp.sqrt(3), prec + GUARD_BITS)
    )
    return expo, bess


@guarded
def minor_arc_bound(geom, prec=256):
    """Proven sup bound on the minor arc and the exponent saving relative to
    the major-arc growth e^(pi/(24 y)).

    With saving = exponent_saving(M),
    bound = (1/(y sqrt2)) e^((pi/24 - saving)/y),
    and the threshold is cleared exactly when saving > 0 (M above 5.543...),
    where the bound is genuinely below the main term.
    """
    y = geom.y
    saving = exponent_saving(geom.big_m, prec + GUARD_BITS)
    bound = mp.e ** ((mp.pi / 24 - saving) / y) / (y * mp.sqrt(2))
    return MinorArcBound(bound_value=bound, exponent_saving=saving, clears_threshold=saving > 0)


@guarded
def minor_arc_empirical_max(geom, grid=200, prec=96):
    """Max of |Obar| sampled on the minor arc M y < x <= 1/2 (symmetric in x)."""
    if grid < 2:
        raise DomainError("grid must be >= 2")
    y = geom.y
    w = geom.major_halfwidth
    best = mpf(0)
    for k in range(grid):
        x = w + (mpf("0.5") - w) * (k + 1) / grid
        best = max(best, abs(_oebar_eval_tau(x + 1j * y, prec)))
    return best


@guarded
def circle_report(n, big_m=6, prec=128, grid=100):
    """End-to-end circle-method report for one n, as a plain dict (JSON-ready);
    the recovery and the minor-arc maximum choose their own precision.  The
    exact coefficient is genfun.oebar_series_product's, which shares no
    series with the one recovery samples, so a match checks that one too."""
    geom = ArcGeometry(n=n, big_m=mpf(big_m))
    exact = genfun.oebar_series_product(n).coefficient(n)
    recovered, residual = cauchy_full_integral(n, prec=prec)
    i1 = major_arc_integral(geom, prec=prec)
    mt_exp, mt_bess = main_term(n, prec=prec)
    bound = minor_arc_bound(geom, prec=prec)
    emp = minor_arc_empirical_max(geom, grid=grid)
    return {
        "n": n,
        "M": float(big_m),
        "y": float(geom.y),
        "I1": float(i1.real),
        "main_term": float(mt_exp),
        "main_term_bessel": float(mt_bess),
        "ratio": float(i1.real / mt_exp),
        "minor_bound": float(bound.bound_value),
        "exponent_saving": float(bound.exponent_saving),
        "clears_threshold": bound.clears_threshold,
        "empirical_max": float(emp),
        "recovered_coefficient": recovered,
        "exact_coefficient": exact,
        "recovery_residual": float(residual),
    }
