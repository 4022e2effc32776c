"""Exact truncated formal power series in q over arbitrary-precision integers.

A PowerSeries of order N stores coefficients c_0..c_N and represents the
series exactly modulo q^(N+1).  All ring operations are exact; binary
operations truncate to the smaller operand order.  This module is the
backbone of every identity check in the package: two series agree iff
their coefficient tuples agree.

The module is integer arithmetic only and imports no mpmath, so the exact
tables load no numeric layer.  A series is summed at a point by
specfun.evaluate_at, the reference the tests and the benchmark hold point
values to (no command calls it).  series.evaluate_at is that function,
read through the module __getattr__, which imports specfun on the first
read.
"""

from __future__ import annotations

import sys
from itertools import accumulate, count, islice, repeat
from operator import add, mul, neg, sub


def __getattr__(name):
    # the benchmark reads the point evaluation as series.evaluate_at; it lives
    # in specfun, which loads mpmath, so specfun is imported on that read
    if name == "evaluate_at":
        from . import specfun

        return specfun.evaluate_at
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class SeriesError(ValueError):
    pass


def _check_order(order):
    """Refuse an order that is not an int in [0, sys.maxsize]: no list of
    coefficients is longer, and the builders' searches for their top index
    would run without end at an order such as inf or 10^300."""
    if not (isinstance(order, int) and 0 <= order <= sys.maxsize):
        raise SeriesError(f"series order must be an int in [0, sys.maxsize], got {order!r}")


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

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"


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


def neg_pochhammer(start_exp, m, order):
    """(-q^start_exp; q)_m = prod_{j=1}^m (1 + q^(start_exp+j-1)), mod q^(order+1).

    start_exp = 0 gives (-1; q)_m, whose leading factor is (1 + 1) = 2.
    """
    if start_exp < 0:
        raise SeriesError("start_exp must be >= 0")
    return _product(order, _exponents(start_exp, 1, m), _mul_one_plus_qk)


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


# ---------------------------------------------------------------------------
# In-place coefficient kernels.  These implement multiplication by the sparse
# binomials (1 +- q^k), division by 1 - q^k and by (1 + q^k)^2 in O(N), and
# division by a sparse series in O(N * nnz); they are what keeps the
# generating function builders at O(N^(3/2)) overall.  A multiplication reads
# only old coefficients, so it is one slice operation.  A division by
# 1 -+ q^k is the recurrence c_i +-= c_(i-k), which couples only coefficients
# k apart, so it runs either along the k residue classes mod k or in blocks
# of k, whichever are fewer: at most sqrt(len(c)) interpreted steps, with
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
