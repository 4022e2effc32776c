"""Exact truncated formal power series in q over arbitrary-precision integers.

A PowerSeries of order N stores coefficients c_0..c_N and represents the
series exactly modulo q^(N+1).  All ring operations are exact; binary
operations truncate to the smaller operand order.  This module is the
backbone of every identity check in the package: two series agree iff
their coefficient tuples agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import add, sub

from mpmath import mp, mpf, mpc, workprec

from .specfun import GUARD_BITS


class SeriesError(ValueError):
    pass


class PowerSeries:
    """Truncated power series sum_{k=0}^{order} coeffs[k] q^k (exact mod q^(order+1))."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(int(c) for c in coeffs)
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
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[k] + other.coeffs[k] for k in range(n + 1)])

    def __sub__(self, other):
        n = min(self.order, other.order)
        return PowerSeries([self.coeffs[k] - other.coeffs[k] for k in range(n + 1)])

    def __neg__(self):
        return PowerSeries([-c for c in self.coeffs])

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
            if ai:
                out[i:] = [x + ai * y for x, y in zip(out[i:], b)]
        return PowerSeries(out)

    __rmul__ = __mul__

    def invert(self):
        """Multiplicative inverse mod q^(order+1); constant term must be +-1."""
        a = self.coeffs
        if a[0] not in (1, -1):
            raise SeriesError("series is not invertible: constant term must be +1 or -1")
        n = self.order
        u = a[0]
        b = [0] * (n + 1)
        b[0] = u
        for k in range(1, n + 1):
            s = sum(a[j] * b[k - j] for j in range(1, k + 1) if a[j])
            b[k] = -u * s
        return PowerSeries(b)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"


@dataclass(frozen=True)
class EvalResult:
    """Value of a truncated series at a point plus a rigorous tail bound."""

    value: mpc
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
    c = [0] * (order + 1)
    c[0] = 1
    j = 0
    e = start_exp
    # Factors with exponent > order are = 1 mod q^(order+1) and can be skipped.
    while e <= order and (m is None or m == float("inf") or j < m):
        _mul_one_minus_qk(c, e)
        j += 1
        e += step
    return PowerSeries(c)


def neg_pochhammer(start_exp, m, order):
    """(-q^start_exp; q)_m = prod_{j=1}^m (1 + q^(start_exp+j-1)), mod q^(order+1).

    start_exp = 0 gives (-1; q)_m, whose leading factor is (1 + 1) = 2.
    """
    if start_exp < 0:
        raise SeriesError("start_exp must be >= 0")
    c = [0] * (order + 1)
    c[0] = 1
    j = 0
    e = start_exp
    # the kernel doubles at e = 0; factors with exponent > order are = 1
    while e <= order and (m is None or m == float("inf") or j < m):
        _mul_one_plus_qk(c, e)
        j += 1
        e += 1
    return PowerSeries(c)


def evaluate_at(series, point, prec, growth_c=None):
    """Exact partial sum of the series at |point| < 1, with a tail bound.

    growth_c = None asserts the series is a polynomial (all omitted
    coefficients vanish), so the tail bound is 0.  Otherwise growth_c = C
    declares |c_k| <= e^(C sqrt(k)) for k > order, and the tail
    |sum_{k>N} c_k point^k| is bounded using sqrt(k) <= sqrt(N) + (k-N)/(2 sqrt(N)).
    """
    with workprec(prec + GUARD_BITS):
        z = mpc(point)
        t = abs(z)
        if t >= 1:
            raise SeriesError("evaluation point must satisfy |q| < 1")
        # Horner, highest coefficient first
        acc = mpc(0)
        for c in reversed(series.coeffs):
            acc = acc * z + c
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
    with workprec(prec):
        return EvalResult(value=+acc, tail_bound=+tail)


# ---------------------------------------------------------------------------
# In-place coefficient kernels.  These implement multiplication/division by
# the sparse binomials (1 +- q^k) in O(N), and division by a sparse series in
# O(N * nnz); they are what keeps the generating function builders at
# O(N^(3/2)) overall.  A multiplication reads only old coefficients, so it is
# one slice operation; a division by (1 +- q^k) runs in blocks of k, each of
# which needs only the block before it.

def _mul_one_minus_qk(c, k):
    c[k:] = map(sub, c[k:], c[: len(c) - k])


def _mul_one_plus_qk(c, k):
    # k = 0 doubles every coefficient: (1 + q^0) = 2
    c[k:] = map(add, c[k:], c[: len(c) - k])


def _div_one_minus_qk(c, k):
    for i in range(k, len(c), k):
        c[i : i + k] = map(add, c[i : i + k], c[i - k : i])


def _div_one_plus_qk(c, k):
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
