"""Exact truncated formal power series in q over arbitrary-precision integers.

A PowerSeries of order N stores coefficients c_0..c_N and represents the
series exactly modulo q^(N+1).  It has the operations the builders and
the checks use, all exact: + and * between two series, which truncate to
the smaller operand order, ==, zero, one and coefficient.  This module is
the backbone of every identity check in the package: two series agree iff
their coefficient tuples agree.

The module is integer arithmetic only and imports no mpmath, so the exact
tables load no numeric layer.  A series is summed at a point by
specfun.evaluate_at, the reference the tests and the benchmark hold point
values to (no command calls it).  series.evaluate_at is that function,
read through the module __getattr__, which imports specfun on the first
read.
"""

import sys
from itertools import accumulate, repeat
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
    """Truncated power series sum_{k=0}^{order} coeffs[k] q^k (exact mod q^(order+1)).

    Two series add and multiply (to the smaller order) and compare; an int
    does not multiply a series, and a series is not hashable."""

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

    def __add__(self, other):
        return PowerSeries(map(add, self.coeffs, other.coeffs))

    def __mul__(self, other):
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

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order >= 8 else ""
        return f"PowerSeries([{head}{tail}], order={self.order})"


# ---------------------------------------------------------------------------
# In-place coefficient kernels.  These implement division by 1 - q^k and by
# (1 + q^k)^2 in O(N), and division by a sparse series in O(N * nnz); they
# are what keeps the generating function builders at O(N^(3/2)) overall.
# A division by 1 -+ q^k is the recurrence c_i +-= c_(i-k), which couples
# only coefficients k apart, so it runs either along the k residue classes
# mod k or in blocks of k, whichever are fewer: at most sqrt(len(c))
# interpreted steps, with all per-coefficient work in C.

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
