"""Wright-style circle method for the odd-even overpartition counts.

The Cauchy integral for OEbar(n) runs over the circle |q| = e^(-2 pi y)
with y = 1/(4 sqrt(3n)), parameterized as q = e^(2 pi i (x + i y)).  The
contour splits into a major arc |x| <= M y, where the generating function
is governed by its dominant pole at q = 1, and the complementary minor
arc, where it is exponentially smaller.  This module evaluates all the
pieces numerically: the full coefficient-recovery integral, the major-arc
integral against the Bessel main term, and the proven minor-arc bound
together with an empirical maximum.

Obar(q) takes one of two routes (see _oebar_eval_tau).  Near q = 1,
Obar = (-q;q)_inf f(q), f Watson's third-order mock theta function, moves
to the nome Q = e^(-pi i/tau) as one formula, whose Mordell integral is
summed by an asymptotic expansion (see _mordell_fixed); _transformed
computes it and alone decides where it serves.  Everywhere else Obar is
summed from the paper's own series, in fixed point (see _obar_sum).  The
same loop sums Andrews' O(q), split into its even and odd powers of q, for
gf-eval (oe_parts_eval).

A circle sample stays in fixed point from the point where it is taken to
the number its caller uses, on either route, as one representation:
(re, im, scale), the Python ints Obar 2^scale.  _obar_sum forms q from
libmp's exp and cosine and sine of pi (_radius, _turn); _transformed forms
Q and its other powers the same way, sums in ints at the bits of the
Mordell table, and puts Obar's growth near q = 1 into the scale, which may
be negative.  The arc integrand multiplies those ints by its phase, the
minor-arc maximum compares their squared moduli, and the Cauchy recovery
rotates its sample points in them and divides exactly.  An mpf or mpc is
built only for the number handed on: oebar_eval's value, an integrand
value, the maximum's square root and the recovery's residual (the
recovered coefficient is an int).

A sample is taken at the bits its answer needs, not at the caller's
prec.  An arc samples Obar at ceil(log2(1/rel_target)) + GUARD_BITS / 2
bits and runs again, with the bits it lacked, where its samples' rounding
bound passes a quarter of its target (_arc_integral).  The minor-arc
maximum screens its grid at GUARD_BITS bits and takes again at prec only
the samples that may be the largest (minor_arc_empirical_max).  The Cauchy
recovery sums at max(prec, bit length of OEbar(n) + 16) bits
(cauchy_full_integral): the coefficient's own bits where they are more.

Both polynomial sums here, the Mordell expansion and the exact series at
the samples of the Cauchy recovery, run on specfun.horner_fixed, the
package's one Horner loop: their coefficients are real, so off the real
axis it sums them by Goertzel's recurrence, two real products per
coefficient.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass
from functools import lru_cache

from mpmath import mp, mpf, mpc
from mpmath.libmp import (fone, from_float, from_man_exp, from_rational, ftwo, mpc_reciprocal,
                          mpc_sqrt, mpf_cos_sin_pi, mpf_div, mpf_exp, mpf_mul, mpf_mul_int, mpf_neg,
                          mpf_pi, mpf_shift, mpf_sqrt, to_fixed, to_float)

from . import genfun
from .asympt import oebar_asymptotic
from .specfun import (GUARD_BITS, TERM_BUDGET, DomainError, QuadratureError, bessel_i, guarded,
                      horner_bits, horner_fixed, pay_for_loss)

# a quadrature panel starts at 2^4 + 1 Clenshaw-Curtis nodes and is split
# rather than raised past 2^9 + 1
QUAD_FIRST_LEVEL, QUAD_LEVEL_CAP = 4, 9
QUAD_CALL_BUDGET = 1 << 14
_TINY = 2.0 ** -1000  # the least |tau| the Mordell count reads: a clamp, not an underflow

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
def exponent_saving(big_m, prec=256):
    """delta(M) = (1/pi)(1 - 1/sqrt(1+M^2)) - pi/12.

    The minor-arc bound is (1/(y sqrt2)) e^((pi/24 - delta)/y); delta > 0
    exactly when M is above the threshold sqrt((12/(12-pi^2))^2 - 1) =
    5.543..., and delta -> 1/pi - pi/12 as M -> infinity.
    """
    m2 = mpf(big_m) ** 2
    return (1 / mp.pi) * (1 - 1 / mp.sqrt(1 + m2)) - mp.pi / 12


def _turn(half_turns, wp):
    """e^(pi i t) at t = half_turns, a libmp value, as a pair of ints scaled
    by 2^wp: libmp's cosine and sine of pi t, which reduce t modulo 2
    exactly, at wp bits and floored, each within 2^(1 - wp)."""
    c, s = mpf_cos_sin_pi(half_turns, wp)
    return to_fixed(c, wp), to_fixed(s, wp)


@lru_cache(maxsize=64)
def _radius(y, wp):
    """|q| = e^(-2 pi y) at y, a libmp value, as an int scaled by 2^wp:
    libmp's exp at wp bits, floored, within a few units of 2^-wp.  Kept per
    (y, wp), since the samples of an arc share y; the Cauchy recovery takes
    its sample radius and its divisor from the one int."""
    return to_fixed(mpf_exp(mpf_neg(mpf_mul(mpf_pi(wp), mpf_shift(y, 1), wp)), wp), wp)


def _obar_sum(tau, prec, bar=True):
    """Obar(q) at q = e^(2 pi i tau) as (re, im, wp), the sum in ints scaled
    by 2^wp; the bits it lost, max(0, ceil(log2(max |t_m| / |Obar|))); and
    the terms after the first.  With bar false, Andrews' O(q) instead, as
    its parts ((re, im), (re, im), wp), O_e and O_o, and the bits the
    smaller of them lost.

    (-1;q)_m = 2 (-q;q)_(m-1) and (q^2;q^2)_m = (q;q)_m (-q;q)_m make the
    paper's series sum_m (-1;q)_m q^(m(m+1)/2) / (q^2;q^2)_m the sum of
    t_0 = 1 and t_m = 2 q^(m(m+1)/2) / ((q;q)_m (1 + q^m)): each term is the
    last times q^m (1 + q^(m-1)) / (1 - q^(2m)), so no powers are taken.
    O(q) = sum_m q^(m(m+1)/2) / (q^2;q^2)_m has the same terms without the
    factor 1 + q^(m-1).  The term t_m of O is q^(m(m+1)/2) times a series in
    q^2, so the terms with m(m+1)/2 even, m = 0 or 3 mod 4, sum to O_e and
    the rest to O_o.  For O the loop keeps O_o's sum beside the whole one,
    and O_e is their difference, exactly, as ints.

    With r = |q|, |1 - q^(2m)| >= 1 - r^(2m) bounds each ratio
    |t_m / t_(m-1)| by rho(m) = r^m (1 + r^(m-1)) / (1 - r^(2m)), which
    falls with m, and it bounds O's ratios r^m / (1 - r^(2m)) too.  From
    the first m with rho(m) <= 1/2, that is 2 r^m (1 + r^(m-1)) <= 1 - r^(2m),
    each later ratio is at most 1/2, so the sum after a term, and each part
    of it, is below it.  The loop tests this on its own ints until it holds,
    with r^m the running product of the radius that q is formed from,
    floored (low by at most m units of 2^-wp, which moves the bound on the
    rest by as little).  From there it stops at a term below
    2^-(prec + GUARD_BITS) of the largest, so the ratio bound rules out a
    rise after a dip; TERM_BUDGET is the loop's one work budget, and past
    it, it raises.  Where 1 - r < 1/TERM_BUDGET it raises before forming
    q, in O(1): there r^m >= (1 - 1/TERM_BUDGET)^TERM_BUDGET less m units
    of 2^-wp, above 0.367, for every m in the budget, so
    r^m (2 + 2 r^(m-1) + r^m) > 1 throughout and the loop could only run
    out.

    Fixed point on Python ints, each complex number a pair, at
    wp = prec + GUARD_BITS + ceil(log2 TERM_BUDGET) + 4 bits, from q to the
    sum: q = e^(-2 pi y) e^(2 pi i x), tau = x + i y, is formed from libmp's
    exp and _turn at wp bits, within a few units of 2^-wp, and no mpf or
    mpc is built.  Dividing by d = 1 - q^(2m) is multiplying by conj(d) and
    floor-dividing by |d|^2, and magnitudes are compared squared.  The sum
    and the powers of q are scaled by 2^wp: each step rounds by a few units
    of 2^-wp, and the largest term is at least 1 (t_0), so TERM_BUDGET
    roundings stay below 2^-(prec + GUARD_BITS) of it; the caller's re-sum
    makes that relative to Obar, or to the smaller part of O.  The term is
    scaled by 2^(wp + s), s raised whenever it falls below 1, so it keeps wp
    significant bits where the terms fall far below 1 and rise again.
    """
    what = "Obar(q)" if bar else "O(q)"
    wp = prec + GUARD_BITS + (TERM_BUDGET - 1).bit_length() + 4
    x, y = tau._mpc_
    radius, one = _radius(y, wp), 1 << wp
    if (one - radius) * TERM_BUDGET < one:  # r^m > 0.367 for m <= TERM_BUDGET: never settles
        raise ArithmeticError(f"{what} at tau = {mp.nstr(tau, 8)} needs over {TERM_BUDGET} terms")
    qr, qi = _times((radius, 0), _turn(mpf_shift(x, 1), wp), wp)
    # (sr, si) the sum, (or_, oi) O_o's and (pr, pi_) q^(m-1), scaled by
    # 2^wp; (tr, ti) the term, scaled by 2^(wp + s); power r^(m-1), scaled
    # by 2^wp, until settled
    sr = tr = pr = power = one
    si = or_ = oi = ti = pi_ = s = 0
    settled = False
    floor2 = top = one * one  # 2^(2 wp), and the largest |term|^2 at the term's scale
    cut = 2 * (prec + GUARD_BITS)
    for terms in range(1, TERM_BUDGET + 1):
        nr, ni = (pr * qr - pi_ * qi) >> wp, (pr * qi + pi_ * qr) >> wp  # q^m
        if not settled:  # rho(m) <= 1/2: r^m (2 + 2 r^(m-1) + r^m) <= 1
            back, power = power, (power * radius) >> wp
            settled = power * (2 * (one + back) + power) <= floor2
        ar = nr + (bar and (nr * pr - ni * pi_) >> wp)  # q^m (1 + q^(m-1)), or q^m for O
        ai = ni + (bar and (nr * pi_ + ni * pr) >> wp)
        dr, di = one - ((nr * nr - ni * ni) >> wp), -((2 * nr * ni) >> wp)  # 1 - q^(2m)
        m2 = dr * dr + di * di  # |d|^2, scaled by 2^(2 wp)
        wr, wi = (tr * ar - ti * ai) >> wp, (tr * ai + ti * ar) >> wp
        tr, ti = ((wr * dr + wi * di) << wp) // m2, ((wi * dr - wr * di) << wp) // m2
        sr += tr >> s
        si += ti >> s
        if not bar and (terms + 1) & 2:  # m = 1 or 2 mod 4: a term of O_o
            or_ += tr >> s
            oi += ti >> s
        pr, pi_ = nr, ni
        size2 = tr * tr + ti * ti
        if size2 > top:
            top = size2
        elif size2 < top >> cut and settled:
            break
        if size2 < floor2:  # keep wp significant bits in the term
            k = wp + 1 - (size2.bit_length() >> 1)
            tr, ti, s, top = tr << k, ti << k, s + k, top << 2 * k
    else:
        raise ArithmeticError(f"{what} at tau = {mp.nstr(tau, 8)} needs over {TERM_BUDGET} terms")
    parts = [(sr, si)] if bar else [(sr - or_, si - oi), (or_, oi)]
    # the least |sum|^2 of the parts, at the term's scale
    size2 = min(re * re + im * im for re, im in parts) << 2 * s
    if not size2:
        raise ArithmeticError(f"{what} at tau = {mp.nstr(tau, 8)} sums to 0 at {wp} fixed-point bits")
    lost = max((top.bit_length() - size2.bit_length()) // 2, 0)
    while size2 << 2 * lost < top:  # to the least lost >= 0 with 4^lost |sum|^2 >= top
        lost += 1
    return ((sr, si, wp) if bar else (*parts, wp)), lost, terms


def _mordell_terms(size, prec):
    """How many terms of M(z) ~ sum b_j z^j at |z| = size leave the next one
    below 2^-(prec + GUARD_BITS); 0 where the terms turn upwards first, or
    TERM_BUDGET of them do not reach that.

    A float estimate: the poles of sinh u / sinh(3u/2) at u = +-2 pi i/3
    give |b_(j+1) / b_j| = 3 (2j+1) / (4 pi^2), up to a relative O(4^-j)
    and from above.  The loop below adds the log2 of those ratios until the
    partial sum passes the cut.  The sums fall while the ratios stay below
    1, so their least is at `last`, the last such ratio (at most
    TERM_BUDGET); with (2t-1)!! = (2t)!/(2^t t!) it is
    log2(4/3) + last log2(3 size/(8 pi^2)) + log2((2 last)!/last!), in O(1).
    The count is 0 at once where no ratio is below 1 or that sum is more
    than 2^-20 bits above the cut, about 10^4 times the float error of the
    lgamma form and of the loop's own sum (near 10^-10 bits), so it is the
    loop's own at every size.
    """
    bits, cut = math.log2(4 / 3), -(prec + GUARD_BITS)
    last = min(math.ceil(2 * math.pi ** 2 / (3 * size) + 0.5) - 1, TERM_BUDGET)
    if last < 1 or bits + last * math.log2(3 * size / (8 * math.pi ** 2)) + (
            math.lgamma(2 * last + 1) - math.lgamma(last + 1)) / math.log(2) > cut + 2 ** -20:
        return 0
    for terms in range(1, TERM_BUDGET + 1):
        ratio = 3 * (2 * terms - 1) * size / (4 * math.pi ** 2)
        if ratio >= 1:
            return 0
        bits += math.log2(ratio)
        if bits < cut:
            return terms
    return 0


_MORDELL_H = [2]  # the h_j of _mordell_fixed, continued by it and never rebuilt


@lru_cache(maxsize=16)
def _mordell_table(wp):
    """The floor(b_j 2^wp) built so far at wp bits, grown in place by _mordell_fixed."""
    return []


def _mordell_fixed(wp, terms):
    """floor(b_j 2^wp) for j < terms, the b_j of M(z) ~ sum b_j z^j, built
    only as far as asked.

    b_j = 2 c_j (2j-1)!! / 3^j, c_j the coefficient of u^(2j) in
    sinh u / sinh(3u/2) = 2 cosh(u/2) / (1 + 2 cosh u).  Matching powers of
    u in (1 + 2 cosh u) sum c_j u^(2j) = 2 cosh(u/2), with
    c_j = h_j / (3 (2j)! 12^j), gives the integers
      h_0 = 2,  h_j = 2 3^j - 2 sum_(k=1..j) C(2j, 2k) 4^k 3^(k-1) h_(j-k),
    and b_j = 2 h_j / (3^(j+1) j! 24^j): b_0 = 4/3, b_1 = -5/54.  Each entry
    is (2 h_j 2^wp) // (3^(j+1) j! 24^j), a floor division of exact
    integers, so it is the floor of the rational b_j 2^wp itself.
    """
    table, h = _mordell_table(wp), _MORDELL_H
    for j in range(len(h), terms):
        rest, weight = 0, 1  # weight = C(2j, 2k) 12^k, updated by its ratio in k
        for k in range(1, j + 1):
            weight = weight * 6 * (2 * j - 2 * k + 2) * (2 * j - 2 * k + 1) // (k * (2 * k - 1))
            rest += weight * h[j - k]
        h.append(2 * 3 ** j - 2 * rest // 3)
    for j in range(len(table), terms):
        table.append((h[j] << wp + 1) // (3 ** (j + 1) * math.factorial(j) * 24 ** j))
    return table[:terms]


def _times(a, b, wp):
    """a b for complex a and b as int pairs scaled by 2^wp, each part floored."""
    return (a[0] * b[0] - a[1] * b[1]) >> wp, (a[0] * b[1] + a[1] * b[0]) >> wp


def _omega(big_q, wp):
    """Watson's omega(Q) = sum_(n>=0) Q^(2n(n+1)) / (Q;Q^2)_(n+1)^2, for
    |Q| <= e^-pi, with Q and the sum as int pairs scaled by 2^wp.

    Each term is the last times Q^(4n) / (1 - Q^(2n+1))^2, at most 1/2 in
    size, so the sum after a term is below it; the loop stops at a term
    below 2^(4 - wp) of the sum, 2^-(prec + GUARD_BITS) at _transformed's
    wp, after one or two on the major arc.  Dividing by d = (1 - Q^(2n+1))^2 is
    multiplying by conj(d) and floor-dividing by |d|^2.
    """
    one = 1 << wp
    q2 = _times(big_q, big_q, wp)
    q4 = _times(q2, q2, wp)
    odd, step, term, total = big_q, (one, 0), (one, 0), (0, 0)  # Q^(2n+1), Q^(4n), term, sum
    for _ in range(TERM_BUDGET):
        dr, di = _times((one - odd[0], -odd[1]), (one - odd[0], -odd[1]), wp)
        tr, ti = _times(term, step, wp)
        size2 = dr * dr + di * di
        term = ((tr * dr + ti * di) << wp) // size2, ((ti * dr - tr * di) << wp) // size2
        total = total[0] + term[0], total[1] + term[1]
        if (term[0] ** 2 + term[1] ** 2) << 2 * (wp - 4) < total[0] ** 2 + total[1] ** 2:
            return total
        odd, step = _times(odd, q2, wp), _times(step, q4, wp)
    raise ArithmeticError(f"omega(Q) at Q = {big_q} needs over {TERM_BUDGET} terms")


def _odd_pochhammer(big_q, wp):
    """(Q;Q^2)_inf, which is 1/(-Q;Q)_inf by Euler's identity, for
    |Q| <= e^-pi, with Q and the product as int pairs scaled by 2^wp.

    The product stops at a factor 1 - Q^k with |Q^k| below 2^(4 - wp),
    2^-(prec + GUARD_BITS) at _transformed's wp; the rest changes the value
    by at most about |Q^k| / (1 - |Q|^2).  With |Q| <= e^-pi that is at most
    about wp/9 factors.  _transformed calls it only where it sums the omega
    term: elsewhere Q floors to 0 at its wp, and the product is 1.
    """
    q2 = _times(big_q, big_q, wp)
    product, power = (1 << wp, 0), big_q
    for _ in range(TERM_BUDGET):
        if power[0] ** 2 + power[1] ** 2 < 1 << 8:  # |Q^k| below 16 units of 2^-wp
            return product
        product = _times(product, ((1 << wp) - power[0], -power[1]), wp)
        power = _times(power, q2, wp)
    raise ArithmeticError(f"(Q;Q^2)_inf at Q = {big_q} needs over {TERM_BUDGET} factors")


def _transformed(tau, prec):
    """Obar(q) at q = e^(2 pi i tau) through Watson's transformation, as
    (re, im, scale), the ints Obar 2^scale; the bits lost adding M(z) and
    the omega term; and the terms of M.  Or None.

    With z = -2 pi i tau, inv = -1/tau and Q = e^(pi i inv) = e^(-2 pi^2/z),
      Obar(e^-z) = e^(-pi i inv/24) (M(z) + w) (Q;Q^2)_inf / sqrt2,
      w = 2 sqrt(i/tau) e^(2 pi i inv/3) omega(Q),
    M the Mordell integral, summed by its asymptotic expansion: Watson's
    e^(z/24) f(e^-z) = M(z) + w times (-q;q)_inf = eta(2 tau)/eta(tau)
    moved to -1/tau, their factors e^(+-pi i tau/12) cancelled, and
    1/(-Q;Q)_inf = (Q;Q^2)_inf.

    None unless three tests pass, in this order.  Before any complex
    arithmetic, the float size |z| = 2 pi |tau|, |tau| held from 2^-1000 up
    (below, the count can only grow, by terms under the cut), gives a
    nonzero _mordell_terms count, so the expansion reaches
    2^-(prec + GUARD_BITS).  The count is 0 in O(1) where the least
    partial sum of the log2 term sizes is over 2^-20 bits above the cut,
    at an infinite size too, and its float loop's elsewhere.  inv has
    Im inv >= 1 (the whole major arc for n >= 30), so |Q| <= e^-pi.  M and
    w cancel at most GUARD_BITS / 2 bits, read from the squared moduli.

    Fixed point on Python ints at wp = prec + GUARD_BITS + 4, from tau's
    libmp parts; no mpf or mpc is built.  M is specfun.horner_fixed on
    _mordell_fixed's table at wp.  Each b_j is floored, by under a unit of
    2^-wp, which reaches the value times z^j, and |z| < 1/2 wherever
    _mordell_terms allows a sum: under 2 units for the table, and under
    1/(1 - |z|) + sqrt 2 < 3.5 for the recurrence, so the total, under
    2^(3 - wp), stays below 2^-(prec + GUARD_BITS).  inv is formed to
    within 2^-(wp + 8), at wp + 8 bits plus those of its integer part, so
    that each phase below reads it to that modulo 2: a quotient of 2^k at
    wp bits would cost k bits of the value.  Each power e^(pi i r inv) of Q (r = -1/24, and
    r = 1 and 2/3 only where the omega term is summed) is libmp's exp of
    -pi r Im inv for the modulus and _turn at r Re inv for the phase, as
    _obar_sum forms q, and sqrt(i/tau) = sqrt(Im inv - i Re inv) is
    libmp's.  The one modulus above 1, e^(pi Im inv/24) / sqrt2, carries
    Obar's growth and goes into the scale, which is negative where Obar is
    above about 2^wp.
    """
    size = 2 * math.pi * max(abs(complex(tau)), _TINY)
    terms = _mordell_terms(size, prec)
    if not terms:
        return None
    x, y = tau._mpc_
    wp = prec + GUARD_BITS + 4
    bits = wp + 8 + max(0, 1 - y[2] - y[3])  # |inv| <= 1/Im tau < 2^(bits - wp - 8)
    re, im = (mpf_neg(part) for part in mpc_reciprocal((x, y), bits))  # inv = -1/tau
    if to_float(im) < 1:
        return None
    minus_pi = mpf_neg(mpf_pi(bits))

    def power(r):  # e^(pi i r inv): its modulus, an mpf, and its phase, _turn's ints
        return mpf_exp(mpf_mul(mpf_mul(minus_pi, r), im, bits), wp), _turn(mpf_mul(r, re, bits), wp)

    # z = -2 pi i tau = -2 pi (-y + i x), each part floored
    z = [to_fixed(mpf_mul(minus_pi, part, bits), wp + 1) for part in (mpf_neg(y), x)]
    m, w, product = horner_fixed(reversed(_mordell_fixed(wp, terms)), z, wp), (0, 0), (1 << wp, 0)
    # |omega(Q)| < 1.1 for |Q| <= e^-pi and |M(z)| > 1 where the expansion serves, so w is
    # below the truncation of M where 2.2 sqrt(2 pi/|z|) |Q|^(2/3) is; in floats, in which
    # a vast Im inv is infinite.  Past that, |Q| < 2^(-1.5 (prec + GUARD_BITS)) floors to 0
    # at wp bits, so Q is not formed and (Q;Q^2)_inf is 1
    if 2 * math.pi * to_float(im) / 3 <= (prec + GUARD_BITS) * math.log(2) + math.log(
            2.2 * math.sqrt(2 * math.pi / size)):
        modulus, phase = power(fone)
        big_q = _times((to_fixed(modulus, wp), 0), phase, wp)
        modulus, phase = power(from_rational(2, 3, bits))
        root = [to_fixed(mpf_mul(part, modulus, bits), wp + 1)
                for part in mpc_sqrt((im, mpf_neg(re)), bits)]  # 2 sqrt(i/tau) |e^(2 pi i inv/3)|
        w = _times(_times(root, phase, wp), _omega(big_q, wp), wp)
        product = _odd_pochhammer(big_q, wp)
    total = m[0] + w[0], m[1] + w[1]
    m2, w2, t2 = (a * a + b * b for a, b in (m, w, total))
    lost = max((max(m2, w2).bit_length() - t2.bit_length() + 1) // 2, 0)
    if lost > GUARD_BITS // 2:
        return None
    modulus, phase = power(from_rational(-1, 24, bits))
    vr, vi = _times(_times(total, product, wp), phase, wp)
    _, man, exp, bc = mpf_div(modulus, mpf_sqrt(ftwo, wp), wp)  # e^(pi Im inv/24) / sqrt2
    return ((vr * man) >> bc, (vi * man) >> bc, wp - exp - bc), lost, terms


def _oebar_eval_tau(tau, prec):
    """Obar(e^(2 pi i tau)) at the caller's precision, unrounded: the
    guarded entry point above it rounds once, to prec bits.

    _transformed where it serves, which it decides before any complex
    arithmetic; elsewhere _obar_sum, re-summed by pay_for_loss.  Either
    gives (re, im, scale), the ints Obar 2^scale, where the scale may be
    negative.  Logs the route, its term count, lost bits and re-sum at
    DEBUG.
    """
    found, route, extra = _transformed(tau, prec), "transformed", 0
    if found is None:
        found, extra = pay_for_loss(lambda b: _obar_sum(tau, b), prec, "Obar(q) at tau = %s", tau)
        route = "direct"
    value, lost, terms = found
    if log.isEnabledFor(logging.DEBUG):
        log.debug("Obar(q) at tau = %s: %s, %d terms, lost %d bits, %s", tau, route, terms, lost,
                  f"re-summed at {prec + extra} bits" if extra else "no re-sum")
    return value


def _reduced(tau):
    """tau as an mpc less the integer nearest its real part, exactly, the
    series being 1-periodic in tau; DomainError off the upper half plane."""
    tau = mpc(tau)
    if tau.imag <= 0:
        raise DomainError("tau must lie in the upper half plane")
    return tau - mp.nint(tau.real)


@guarded
def oebar_eval(tau, prec=256):
    """Evaluate Obar(q) = sum_m (-1;q)_m q^(m(m+1)/2) / (q^2;q^2)_m at
    q = e^(2 pi i tau), Im tau > 0 (see _oebar_eval_tau for the two routes).

    Efficient arbitrarily close to q = 1, through the modular
    transformation there; this is the route used on the major arc.  Obar
    is 1-periodic in tau, so tau is first reduced, exactly, by an integer.
    Either route's fixed-point value becomes an mpc here, and only here.
    """
    re, im, scale = _oebar_eval_tau(_reduced(tau), prec)
    return mpc(mpf((re, -scale)), mpf((im, -scale)))


@guarded
def oe_parts_eval(tau, prec=256):
    """(O_e(q), O_o(q)) at q = e^(2 pi i tau), Im tau > 0: the parts of
    Andrews' O(q) = sum_m q^(m(m+1)/2) / (q^2;q^2)_m in even and odd powers
    of q, each to prec bits, as two mpc.

    Both are _obar_sum's, from one pass of its loop, re-summed by
    pay_for_loss.  O_o is about q against t_0 = 1, so the first pass already
    takes ceil(log2(1/|q|)) = ceil(2 pi Im tau / ln 2) bits more (at
    q = e^-500, O_o would floor to 0 without them), but at most TERM_BUDGET:
    past that a q that floors to 0 ends the sum with ArithmeticError, and
    any other costs at most LOSS_PASSES re-sums, so no Im tau, however
    large, asks for unbounded bits.  Logs its term count, lost bits and
    re-sum at DEBUG.
    """
    tau = _reduced(tau)
    first = math.ceil(min(2 * math.pi * float(tau.imag) / math.log(2), TERM_BUDGET))
    ((*parts, wp), lost, terms), extra = pay_for_loss(
        lambda b: _obar_sum(tau, b, bar=False), prec, "O(q) at tau = %s", tau, extra=first)
    log.debug("O(q) at tau = %s: %d terms, lost %d bits, %s", tau, terms, lost,
              f"re-summed at {prec + extra} bits" if extra > first else "no re-sum")
    return tuple(mpc(mpf((re, -wp)), mpf((im, -wp))) for re, im in parts)


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
    floor((n+1)/2) + 1 samples.  The series is built once and summed at
    bits = max(prec, bit length of OEbar(n) + 16), so no caller picks bits
    for it.

    Integers from the first sample point to the recovered coefficient, at
    wp = specfun.horner_bits(bits, r) + ceil(log2 K) bits, with r a float:
    the coefficients are scaled once, and z_0 is _radius's int, r floored
    to wp bits, the same one the direct sum forms |q| from.  Each later
    point is the last times w, one fixed-point rotation; no complex
    exponential is taken per sample.  w, _turn's at 2/K rounded to wp + 8
    bits, is within 2^(1.6 - wp) of e^(2 pi i/K), and each rotation floors
    both parts, so z_k is within (5k + 1) 2^-wp <= 3 K 2^-wp <= 3
    2^-(wp - ceil(log2 K)) of z_0 w^k: the ceil(log2 K) bits pay for the
    rotations, and leave each point within 3 units of
    2^-horner_bits(bits, r).  Each sample is specfun.horner_fixed's, within
    2^-(bits + GUARD_BITS + 3) of z S(z) at the point it is given; the fold
    reads only its real part, b_0 - b_1 Re z_k of Goertzel's recurrence
    off the real axis, and the real parts are summed exactly as integers.
    The samples and the division by r^(n+1) share the one radius int, so y
    needs only float accuracy: OEbar(n) is the nearest integer to the
    exact rational total 2^(wp n) / (K radius^(n+1)), and the residual, its
    exact distance from it, carries every sample's rounding and is the one
    mpf built.  A residual above 1/4 is a defect, and raises.  Logs n, the
    samples taken, wp and the residual at DEBUG, once per recovery.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    if n == 0:
        return 1, mpf(0)
    series = genfun.oebar_series_hypergeometric(n)
    bits = max(prec, series.coeffs[n].bit_length() + 16)
    samples = n + 1
    y = 1 / (4 * math.sqrt(3 * n))  # only the radius is needed here, not the arc cut
    wp = horner_bits(bits, math.exp(-2 * math.pi * y)) + n.bit_length()
    radius = _radius(from_float(y), wp)  # r 2^wp, floored
    coeffs = [c << wp for c in reversed(series.coeffs)] + [0]  # z S(z)
    wr, wi = _turn(from_rational(2, samples, wp + 8), wp)
    zr, zi, total = radius, 0, 0  # the point, and the folded sum, scaled by 2^wp
    for k in range(samples // 2 + 1):
        part, _ = horner_fixed(coeffs, (zr, zi), wp)
        total += part if 2 * k % samples == 0 else 2 * part
        zr, zi = (zr * wr - zi * wi) >> wp, (zr * wi + zi * wr) >> wp
    # OEbar(n) = total 2^-wp / (K r^(n+1)), with r^(n+1) = radius^(n+1) 2^(-wp (n+1))
    num, den = total << wp * n, samples * radius ** (n + 1)
    nearest = (2 * num + den) // (2 * den)
    residual = mpf(abs(num - nearest * den)) / den
    if log.isEnabledFor(logging.DEBUG):
        log.debug("recovery at n = %d: %d samples at %d bits, residual %s", n, samples // 2 + 1,
                  wp, mp.nstr(residual, 3))
    if residual > 0.25:
        raise QuadratureError(f"rounding residual {residual} above 1/4 at {bits} bits")
    return nearest, residual


@lru_cache(maxsize=32)
def _clenshaw_curtis(level, prec):
    """The nodes x_j = cos(pi j/N), N = 2^level, j = 0 .. N, and the
    Clenshaw-Curtis weights of f(x_j) on [-1, 1], as mpf lists at prec bits.

    w_j = (c_j / N) (1 - sum_(k=1..N/2) b_k cos(2 pi j k/N) / (4 k^2 - 1)),
    c_j = 1 at j = 0 and N and 2 elsewhere, b_k = 1 at k = N/2 and 2
    elsewhere (Trefethen, Spectral Methods in MATLAB, clencurt); each
    cosine is cos(pi m/N) at m = 2 j k mod 2N, a node or its negative.  In
    fixed point on Python ints at wp = prec + level + 8 bits: the cosines
    are libmp's, floored, and so is each b_k/(4k^2 - 1), so the sum is
    within N units of 2^-wp and the weight, a 1/N or 2/N part of it, within
    a few; each mpf is rounded once, to nearest.  The rule is symmetric, so
    half of each list is built and mirrored.  The build is O(N^2) int
    products: at prec 128 on a 2-core x86 VM, levels 3 to 6 took about 1 ms
    together and level 9, the most a panel reaches, 20-25 ms.
    """
    period, half, wp = 2 << level, 1 << level - 1, prec + level + 8  # period 2N
    x = [to_fixed(mpf_cos_sin_pi(from_man_exp(j, -level), wp)[0], wp) for j in range(half + 1)]
    nodes = x + [-c for c in reversed(x[:-1])]
    terms = [(2 << wp) // (4 * k * k - 1) >> (k == half) for k in range(1, half + 1)]
    cycle = nodes + nodes[-2:0:-1]  # cos(pi m/N) for 0 <= m < 2N
    weights = [((1 << 2 * wp) - sum(t * cycle[2 * j * k % period] for k, t in enumerate(terms, 1)))
               >> wp + level - (j > 0) for j in range(half + 1)]
    weights += reversed(weights[:-1])
    return [[mp.make_mpf(from_man_exp(v, -wp, prec, "n")) for v in vs] for vs in (nodes, weights)]


def adaptive_quad(f, a, b, rel_target, prec):
    """Globally adaptive composite Clenshaw-Curtis quadrature of f over [a, b].

    A panel at level L holds f at its 2^L + 1 Chebyshev points, the nodes
    x_j = cos(pi j/2^L) mapped onto it, the two ends included: f is sampled
    at a and b, and every package integrand is analytic on the closed arc.
    The rules are nested: the even-indexed samples are level L - 1's, so
    |Q_L - Q_(L-1)|, the error of the coarser rule, estimates the panel's
    error at no extra call, and the panel's value is the finer Q_L.  The
    panel with the largest estimate is refined until the summed estimate is
    at most rel_target * max(|value|, 1), where value sums the panels.
    Refining raises a panel's level, which samples only the 2^L new
    odd-indexed points; it splits the panel in two, each half at level
    QUAD_FIRST_LEVEL reusing the panel's ends and midpoint, at
    QUAD_LEVEL_CAP or where f is localized: where the samples on one half,
    times the panel's width, are below the target, so raising would spend
    half its new samples where f cannot matter.  No point is sampled twice.

    Nodes and weights are built at `prec` bits, once per level (see
    _clenshaw_curtis), and a target below 2^-prec is refused.  Returns
    (value, error estimate); raises QuadratureError rather than spend more
    than QUAD_CALL_BUDGET calls of f, so it never returns an unconverged
    value.  Logs its calls, panels, highest level, estimate and target at
    DEBUG.
    """
    if rel_target < mpf(2) ** -prec:
        raise DomainError(f"rel_target {mp.nstr(rel_target, 3)} is below {prec}-bit precision")
    calls = 0

    def panel(lo, hi, level, fx):
        """The heap entry of f on [lo, hi] at level; fx holds None where f is unsampled."""
        nonlocal calls
        todo = [j for j, v in enumerate(fx) if v is None]
        calls += len(todo)
        if calls > QUAD_CALL_BUDGET:
            raise QuadratureError(f"quadrature budget of {QUAD_CALL_BUDGET} calls exhausted before "
                                  f"the error estimate reached {mp.nstr(rel_target, 3)} relative")
        (nodes, weights), (_, coarse) = (_clenshaw_curtis(lev, prec) for lev in (level, level - 1))
        mid, half = (lo + hi) / 2, (hi - lo) / 2
        for j in todo:
            fx[j] = f(mid + half * nodes[j])
        fine = half * mp.fdot(weights, fx)
        return -abs(fine - half * mp.fdot(coarse, fx[::2])), lo, hi, level, fx, fine

    gap = [None] * ((1 << QUAD_FIRST_LEVEL) - 1)  # the inner samples of a new panel
    heap = [panel(a, b, QUAD_FIRST_LEVEL, [None, *gap, None])]
    while True:
        value, err = mp.fsum(p[-1] for p in heap), -mp.fsum(p[0] for p in heap)
        target = rel_target * max(abs(value), 1)
        if err <= target:
            if log.isEnabledFor(logging.DEBUG):
                log.debug("quad: %d calls, %d panels, highest level %d, estimate %s, target %s",
                          calls, len(heap), max(p[3] for p in heap), mp.nstr(err), mp.nstr(target))
            return value, err
        _, lo, hi, level, fx, _ = heapq.heappop(heap)
        # fx runs from hi (x_0 = 1) to lo, and fx[half] is at mid
        half, mid = len(fx) // 2, (lo + hi) / 2
        if level < QUAD_LEVEL_CAP and target <= (hi - lo) * min(
                max(map(abs, fx[:half + 1])), max(map(abs, fx[half:]))):
            heapq.heappush(heap, panel(lo, hi, level + 1, [v for s in fx for v in (s, None)][:-1]))
        else:
            heapq.heappush(heap, panel(mid, hi, QUAD_FIRST_LEVEL, [fx[0], *gap, fx[half]]))
            heapq.heappush(heap, panel(lo, mid, QUAD_FIRST_LEVEL, [fx[half], *gap, fx[-1]]))


def _arc_integrand(n, y, prec, sizes):
    """x -> Re(Obar(q) e^(-2 pi i n x)) e^(2 pi n y), q = e^(2 pi i (x + i y)),
    the real part of Obar(q) q^(-n), for a guarded caller.

    In fixed point from the sample to the value: Obar as _oebar_eval_tau's
    ints, at a scale of either sign, the phase _turn's at -2 n x, formed
    exactly, and wp = prec + GUARD_BITS bits, the real part of their product
    an int, times the mantissa of e^(2 pi n y).  One mpf is built, the
    value, rounded once.  The phase's parts are within 2^(1 - wp) each, so
    its error is below 2^(1.5 - wp) of |Obar| e^(2 pi n y).  Each sample
    appends to the list sizes an int s with |Obar| e^(2 pi n y) < 2^s, read
    from the bit lengths of its ints.
    """
    wp = prec + GUARD_BITS
    amp = (mp.e ** (2 * mp.pi * n * y))._mpf_  # positive: (0, man, exp, bc)

    def integrand(x):
        re, im, scale = _oebar_eval_tau(mpc(x, y), prec)
        # |Obar| < 2^(bit length + 1/2 - scale), and e^(2 pi n y) < 2^(exp + bc)
        sizes.append(max(abs(re), abs(im)).bit_length() + 1 - scale + amp[2] + amp[3])
        t = x._mpf_
        c, s = _turn(mpf_mul_int(t, -2 * n, t[3] + (2 * n).bit_length()), wp)  # -2 n x, exactly
        return mpf(((re * c - im * s) * amp[1], amp[2] - scale - wp))

    return integrand


def _arc_integral(geom, lo, hi, rel_target, prec):
    """The Cauchy integral for OEbar(n) over lo <= |x| <= hi to rel_target
    relative, for a guarded caller.  Obar has real coefficients, so x -> -x
    conjugates the integrand Obar(q) q^(-n), q = e^(2 pi i (x + i y)): the
    integral is twice that of its real part over [lo, hi], to rel_target / 2.

    Obar is sampled at the bits the target needs, not at prec:
    bits = min(prec, need + GUARD_BITS / 2), need = ceil(log2(1/rel_target)),
    43 on the major arc and 36 on the minor one.  Each sample is within
    2^-(bits - 2) of |Obar| e^(2 pi n y) (_arc_integrand's tested
    contract), and the Clenshaw-Curtis weights are positive and sum to
    hi - lo, so the samples' rounding moves the integral by at most
    2^-(bits - 2) (hi - lo) max_j |Obar_j| e^(2 pi n y), which the samples'
    bit lengths bound: the arc's error is the quadrature's estimate plus
    that bound.  Where the bound is above a quarter of the target the
    quadrature met, specfun.pay_for_loss runs the arc again with the bits
    it lacked, as the bits it lost: heavy cancellation on the minor arc,
    from about n = 50.  No pass samples at more than prec bits, and one at
    prec stands whatever its bound.  Nodes and weights stay at
    prec + GUARD_BITS bits, and the sums run at pay_for_loss's working
    precision, prec + GUARD_BITS or above.  Logs the sample bits, the
    rounding bound, the quadrature's estimate and whether the arc re-ran
    at DEBUG.
    """
    need = math.ceil(-math.log2(rel_target))

    def attempt(wp):  # pay_for_loss's prec + extra, at working precision wp + GUARD_BITS
        bits, sizes = min(prec, need + wp - prec + GUARD_BITS // 2), []
        half, err = adaptive_quad(_arc_integrand(geom.n, geom.y, bits, sizes), lo, hi,
                                  rel_target / 2, prec + GUARD_BITS)
        target = rel_target / 2 * max(abs(half), 1)  # above 2^(mag(target) - 2)
        bound = mp.mag(hi - lo) + max(sizes) + 2 - bits  # the rounding is below 2^bound
        # pay_for_loss accepts lost <= bits - need, that is 2^bound <= 2^(mag(target) - 4)
        lost = bound + bits - need + 4 - mp.mag(target) if bits < prec else 0
        return half, lost, bits, bound, err

    (half, _, bits, bound, err), extra = pay_for_loss(
        attempt, prec, "the arc %s <= |x| <= %s at n = %d", lo, hi, geom.n)
    if log.isEnabledFor(logging.DEBUG):
        log.debug("arc %s <= |x| <= %s at n = %d: samples at %d bits, estimate %s plus rounding "
                  "below 2^%d, %s", mp.nstr(lo, 8), mp.nstr(hi, 8), geom.n, bits, mp.nstr(err, 3),
                  bound, "re-ran" if extra else "no re-run")
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
    """Max of |Obar| sampled on the minor arc M y < x <= 1/2 (symmetric in x).

    The samples are compared as |Obar|^2 in _oebar_eval_tau's ints,
    exactly, each brought to the finest of their scales, of either sign;
    one square root is taken, of the largest.  Only the largest needs prec:
    the grid is screened at s = min(prec, GUARD_BITS) bits, and only the
    samples within 2^-(s - 5) of the screened top are taken again at prec.
    Each sample is within 2^-(bits - 2) of |Obar| (the tested contract of
    _arc_integrand), so the sample largest at prec screens within
    ((1 - 2^(2 - s)) / (1 + 2^(2 - s)))^4 > 1 - 2^-(s - 5) of that top
    in |Obar|^2: it is kept, and the result is the mpf of the whole grid
    at prec.  On grids of 20 to 200 at n = 14 to 10^5 it keeps one.
    """
    if grid < 2:
        raise DomainError("grid must be >= 2")
    y, w = geom.y, geom.major_halfwidth
    taus = [mpc(w + (mpf("0.5") - w) * (k + 1) / grid, y) for k in range(grid)]

    def squares(taus, bits):  # each |Obar|^2 as an int at the finest scale, and that scale
        found = [(re * re + im * im, 2 * scale) for re, im, scale in
                 (_oebar_eval_tau(tau, bits) for tau in taus)]
        finest = max(scale for _, scale in found)
        return [size2 << finest - scale for size2, scale in found], finest

    screen = min(prec, GUARD_BITS)
    sizes, _ = squares(taus, screen)
    top = max(sizes)
    sizes, finest = squares([tau for tau, size2 in zip(taus, sizes)
                             if (top - size2) << screen - 5 <= top], prec)
    return mp.sqrt(mpf((max(sizes), -finest)))


@guarded
def circle_report(n, big_m=6, prec=128, grid=100):
    """End-to-end circle-method report for one n, as a plain dict (JSON-ready);
    the recovery and the minor-arc maximum choose their own precision.  The
    exact coefficient is genfun.oebar_series_product's, which shares no
    series with the one recovery samples, so a match checks that one too."""
    geom = ArcGeometry(n=n, big_m=mpf(big_m))
    # first, since it refuses a grid below 2 before it samples anything
    emp = minor_arc_empirical_max(geom, grid=grid)
    exact = genfun.oebar_series_product(n).coefficient(n)
    recovered, residual = cauchy_full_integral(n, prec=prec)
    i1 = major_arc_integral(geom, prec=prec)
    mt_exp, mt_bess = main_term(n, prec=prec)
    bound = minor_arc_bound(geom, prec=prec)
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
