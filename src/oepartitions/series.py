"""Exact truncated formal power series in q over arbitrary-precision integers.

A PowerSeries of order N stores coefficients c_0..c_N and represents the
series exactly modulo q^(N+1).  All ring operations are exact; binary
operations truncate to the smaller operand order.  This module is the
backbone of every identity check in the package: two series agree iff
their coefficient tuples agree.

horner_fixed is the package's one Horner loop, in fixed point on Python
integers: evaluate_at sums a series at a point with it, and circle runs
its Cauchy recovery and the Mordell expansion on it.  evaluate_at logs the
order, the leading zeros stripped, the fixed-point bits and the tail bound
at DEBUG under this module's logger.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import accumulate, count, islice, repeat
from operator import add, mul, neg, sub

from mpmath import mp, mpf, mpc
from mpmath.libmp import to_fixed

from .specfun import GUARD_BITS, guarded

log = logging.getLogger(__name__)


class SeriesError(ValueError):
    pass


def _check_order(order):
    if order < 0:
        raise SeriesError(f"series order must be >= 0, got {order}")


class PowerSeries:
    """Truncated power series sum_{k=0}^{order} coeffs[k] q^k (exact mod q^(order+1))."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(map(int, coeffs))
        if not coeffs:
            raise SeriesError("a PowerSeries needs at least the constant term")
        self.coeffs = coeffs

    @property
    def order(self):
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order):
        return cls((0,) * (order + 1))

    @classmethod
    def one(cls, order):
        return cls((1,) + (0,) * order)

    def coefficient(self, n):
        if not 0 <= n <= self.order:
            raise SeriesError(f"coefficient {n} not determined at order {self.order}")
        return self.coeffs[n]

    def truncate(self, order):
        if order >= self.order:
            return self
        return PowerSeries(self.coeffs[: order + 1])

    def __eq__(self, other):
        return isinstance(other, PowerSeries) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        return PowerSeries(map(add, self.coeffs, other.coeffs))

    def __sub__(self, other):
        return PowerSeries(map(sub, self.coeffs, other.coeffs))

    def __neg__(self):
        return PowerSeries(map(neg, self.coeffs))

    def __mul__(self, other):
        if isinstance(other, int):
            return PowerSeries([other * c for c in self.coeffs])
        # Cauchy product with the sparser operand in the outer loop:
        # O(nnz * N), which is O(N^1.5) against a pentagonal series.
        n = min(self.order, other.order)
        a, b = self.coeffs[: n + 1], other.coeffs[: n + 1]
        if len(a) - a.count(0) > len(b) - b.count(0):
            a, b = b, a
        out = [0] * (n + 1)
        for i, ai in enumerate(a):
            if ai == 1:
                out[i:] = map(add, out[i:], b)
            elif ai == -1:
                out[i:] = map(sub, out[i:], b)
            elif ai:
                out[i:] = map(add, out[i:], map(mul, repeat(ai), b))
        return PowerSeries(out)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse mod q^(order+1); constant term must be +-1."""
        u = self.coeffs[0]
        if u not in (1, -1):
            raise SeriesError("series is not invertible: constant term must be +1 or -1")
        # 1/a = u / (u a), and u a has constant term u^2 = 1
        c = [u] + [0] * self.order
        _div_sparse(c, [u * x for x in self.coeffs])
        return PowerSeries(c)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"


@dataclass(frozen=True)
class EvalResult:
    """Value of a truncated series at a point plus a rigorous tail bound.

    value is an mpf at a real point and an mpc otherwise.
    """

    value: mpf | mpc
    tail_bound: mpf


def qpochhammer(start_exp, step, m, order):
    """(q^start_exp; q^step)_m = prod_{j=1}^m (1 - q^(start_exp+(j-1)step)), mod q^(order+1).

    m may be None (or math.inf) for the infinite product, which terminates
    once factors are congruent to 1 mod q^(order+1).
    """
    if start_exp < 1:
        raise SeriesError("start_exp must be >= 1 (factor exponents must be positive)")
    if step < 1:
        raise SeriesError("step must be >= 1")
    return _product(order, _exponents(start_exp, step, m), _mul_one_minus_qk)


def neg_pochhammer(start_exp, m, order):
    """(-q^start_exp; q)_m = prod_{j=1}^m (1 + q^(start_exp+j-1)), mod q^(order+1).

    start_exp = 0 gives (-1; q)_m, whose leading factor is (1 + 1) = 2.
    """
    if start_exp < 0:
        raise SeriesError("start_exp must be >= 0")
    return _product(order, _exponents(start_exp, 1, m), _mul_one_plus_qk)


def _exponents(start, step, m):
    """The first m terms of start, start + step, ...; all of them for m = None or inf."""
    exps = count(start, step)
    return exps if m is None or m == math.inf else islice(exps, max(m, 0))


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


def horner_fixed(coeffs, point, wp):
    """sum_k c_k z^k by Horner's rule in fixed point on Python ints.

    coeffs are the c_k, highest first, as any iterable of ints scaled by
    2^wp; point is z as a pair of ints (real part, imaginary part) scaled
    by 2^wp.  Returns the sum as such a pair.  Each step is a z + c with
    the product floored to a multiple of 2^-wp in each component.

    Error: each floor costs under one unit of 2^-wp per component, under
    2^(1/2 - wp) in modulus, and the steps after it multiply that error by
    z, so the floor at the step for c_k reaches the sum times |z|^k.  The
    result is within sum_k 2^(1/2 - wp) |z|^k < 2^(1 - wp) / (1 - |z|) of
    the exact sum at z, however large the c_k are.  z itself is taken as
    given: evaluate_at picks wp so that its point converts exactly, and
    the callers in circle floor theirs to wp bits, which moves z by under
    2^-wp per component.
    """
    zr, zi = point
    ar = ai = 0
    for c in coeffs:
        ar, ai = ((ar * zr - ai * zi) >> wp) + c, (ar * zi + ai * zr) >> wp
    return ar, ai


def horner_bits(prec, radius):
    """The wp at which horner_fixed's error at |z| <= radius < 1,
    2^(1 - wp) / (1 - radius), is below 2^-(prec + GUARD_BITS + 3):
    prec + GUARD_BITS + ceil(log2(1/(1 - radius))) + 4, the ceiling by mp.mag.
    """
    return prec + GUARD_BITS + 4 + max(0, 1 - mp.mag(1 - radius))


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
    The value is an mpf at a real point, an mpc otherwise.
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
    if log.isEnabledFor(logging.DEBUG):
        log.debug("series of order %d at |q| = %s: %d leading zeros stripped, %d bits, "
                  "tail bound %s", n, mp.nstr(t, 8), lead, wp, mp.nstr(tail, 3))
    return EvalResult(value=acc, tail_bound=tail)


# ---------------------------------------------------------------------------
# In-place coefficient kernels.  These implement multiplication by the sparse
# binomials (1 +- q^k), division by 1 - q^k and by (1 + q^k)^2 in O(N), and
# division by a sparse series in O(N * nnz); they are what keeps the
# generating function builders at O(N^(3/2)) overall.  A multiplication reads
# only old coefficients, so it is one slice operation.  A division by
# 1 -+ q^k is the recurrence c_i +-= c_(i-k), which couples only coefficients
# k apart, so it runs either along the k residue classes mod k or in blocks
# of k, whichever are fewer: at most 3 sqrt(len(c)) interpreted steps, with
# all per-coefficient work in C.

def _mul_one_minus_qk(c, k):
    c[k:] = map(sub, c[k:], c[: len(c) - k])


def _mul_one_plus_qk(c, k):
    # k = 0 doubles every coefficient: (1 + q^0) = 2
    c[k:] = map(add, c[k:], c[: len(c) - k])


def _div_one_minus_qk(c, k):
    """c <- c / (1 - q^k) in place: for k^2 < len(c), each residue class mod k
    becomes its own prefix sums (k steps); otherwise blocks of k, each needing
    only the block before it (fewer than sqrt(len(c)) steps)."""
    if k < 1:
        raise SeriesError(f"division by 1 - q^k needs k >= 1, got {k}")
    if k * k < len(c):
        for r in range(k):
            c[r::k] = accumulate(c[r::k])
    else:
        for i in range(k, len(c), k):
            c[i : i + k] = map(add, c[i : i + k], c[i - k : i])


def _div_one_plus_qk_squared(c, k):
    """c <- c / (1 + q^k)^2 in place, switching as _div_one_minus_qk does.

    On a residue class x_0, x_1, ... mod k the quotient by 1 + q^k is
    y_j = (-1)^j times the prefix sum of (-1)^j x_j, so by (1 + q^k)^2 it
    is two chained prefix sums between the same two sign flips: for
    k^2 < len(c) the indices i with i mod 2k >= k are negated before and
    after them, 3k steps; the blocks take 2 len(c) / k.
    """
    if k < 1:
        raise SeriesError(f"division by (1 + q^k)^2 needs k >= 1, got {k}")
    if k * k < len(c):
        for r in range(k, 2 * k):
            c[r :: 2 * k] = map(neg, c[r :: 2 * k])
        for r in range(k):
            c[r::k] = accumulate(accumulate(c[r::k]))
        for r in range(k, 2 * k):
            c[r :: 2 * k] = map(neg, c[r :: 2 * k])
    else:
        for _ in range(2):
            for i in range(k, len(c), k):
                c[i : i + k] = map(sub, c[i : i + k], c[i - k : i])


def _div_sparse(c, d):
    """c <- c / d for a series d with constant term 1, over d's nonzero terms."""
    if not d or d[0] != 1:
        raise SeriesError("sparse division needs a divisor with constant term 1")
    terms = [(k, dk) for k, dk in enumerate(d[: len(c)]) if k and dk]
    for i in range(1, len(c)):
        acc = c[i]
        for k, dk in terms:
            if k > i:
                break
            acc -= dk * c[i - k]
        c[i] = acc
