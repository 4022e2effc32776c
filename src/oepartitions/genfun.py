"""Generating functions for odd-even partitions and overpartitions.

Everything here is an exact truncated PowerSeries.  The hypergeometric
sums are built incrementally: the m-th summand is obtained from the
(m-1)-st by multiplying with a sparse binomial ratio, and every update and
accumulation starts at the summand's lowest nonzero exponent, so building a
series to order N costs O(N^(3/2)) integer operations instead of O(N^2) per
term.  That is what makes the desk-scale asymptotic checks (orders 10^4 and
up) cheap.

Series implemented:
  oe_series             O(q)  = sum_m q^(m(m+1)/2) / (q^2;q^2)_m
  sj_series             S_j   = the m = j (mod 4) subsum of O(q)
  parity_split          (O_e, O_o) = (S_0+S_3, S_1+S_2)
  f_mock_series         f(q)  = sum_n q^(n^2) / (-q;q)_n^2   (third order mock theta)
  watson_core           2 sum_{n in Z} (-1)^n q^(n(3n+1)/2) / (1+q^n)
  oebar_series_*        Obar(q) = sum_m (-1;q)_m q^(m(m+1)/2) / (q^2;q^2)_m
                                = (-q;q)_inf * f(q)
                                = (q^2;q^2)_inf * f(q) / (q;q)_inf

The product route takes (-q;q)_inf as the eta quotient (q^2;q^2)_inf /
(q;q)_inf.  Both factors are Euler pentagonal series with O(sqrt(N)) nonzero
terms, so the route costs one sparse multiply and one sparse division,
O(N^(3/2)) each, on top of f_mock_series.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import count
from operator import add

from .series import (
    PowerSeries,
    SeriesError,
    _div_one_minus_qk,
    _div_one_plus_qk,
    _div_sparse,
    _mul_one_plus_qk,
)


_BLOCK = 512


def _check_order(order):
    if order < 0:
        raise SeriesError(f"series order must be >= 0, got {order}")


def _sum_summands(order, lowest, update, classes=1):
    """Sum the summands t_m = q^lowest(m) u_m, m = 0, 1, ..., to the given order.

    u_0 = 1 (lowest(0) must be 0) and update(u, m) turns u_{m-1} into u_m in
    place.  u_m is kept without its leading power q^lowest(m) and truncated
    to the coefficients below q^(order+1), so the update and the
    accumulation both start at the summand's lowest exponent.  With
    classes = c > 1, also return the c subsums over m (mod c).
    """
    _check_order(order)
    rows = [[0] * (order + 1) for _ in range(classes)]
    u = [1] + [0] * order
    m = e = 0
    while True:
        row = rows[m % classes]
        # in blocks: a whole-row slice would hold a second row of big
        # integers until the assignment ends, raising peak memory
        for i in range(0, len(u), _BLOCK):
            j = e + i
            row[j : j + _BLOCK] = map(add, row[j : j + _BLOCK], u[i : i + _BLOCK])
        m += 1
        e = lowest(m)
        if e > order:
            break
        del u[order + 1 - e :]
        update(u, m)
    if classes == 1:
        return PowerSeries(rows[0])
    total = PowerSeries([sum(col) for col in zip(*rows)])
    return total, tuple(PowerSeries(r) for r in rows)


def _triangular(m):
    return m * (m + 1) // 2


def _oe_update(u, m):
    # t_m = t_{m-1} * q^m / (1 - q^(2m))
    _div_one_minus_qk(u, 2 * m)


def _oebar_update(u, m):
    # extra factor (1 + q^(m-1)) from (-1;q)_m / (-1;q)_{m-1}; at m = 1 it is 2
    _mul_one_plus_qk(u, m - 1)
    _div_one_minus_qk(u, 2 * m)


@lru_cache(maxsize=32)
def oe_series(order):
    """Generating function of OE(n), exact to the given order."""
    return _sum_summands(order, _triangular, _oe_update)


@lru_cache(maxsize=8)
def _oe_series_with_classes(order):
    return _sum_summands(order, _triangular, _oe_update, classes=4)


def sj_series(j, order):
    """S_j: the m = j (mod 4) subsum of the OE generating function."""
    if j not in (0, 1, 2, 3):
        raise ValueError("parity class j must be in {0,1,2,3}")
    return _oe_series_with_classes(order)[1][j]


def parity_split(order):
    """(O_e, O_o): even- and odd-exponent parts of the OE generating function."""
    _, (s0, s1, s2, s3) = _oe_series_with_classes(order)
    return s0 + s3, s1 + s2


@lru_cache(maxsize=32)
def oebar_series_hypergeometric(order):
    """Generating function of OEbar(n) as the (-1;q)_m hypergeometric sum."""
    return _sum_summands(order, _triangular, _oebar_update)


def _f_mock_update(u, n):
    # t_n = t_{n-1} * q^(2n-1) / (1 + q^n)^2
    _div_one_plus_qk(u, n)
    _div_one_plus_qk(u, n)


@lru_cache(maxsize=32)
def f_mock_series(order):
    """Ramanujan's third order mock theta function f(q) = sum q^(n^2)/(-q;q)_n^2."""
    return _sum_summands(order, lambda n: n * n, _f_mock_update)


@lru_cache(maxsize=32)
def watson_core(order):
    """2 sum_{n in Z} (-1)^n q^(n(3n+1)/2) / (1+q^n), as an exact series.

    Uses the unilateral folding sum_{n in Z} = 1/2 + 2 sum_{n>=1} (the n and
    -n terms coincide), so the result is 1 + 4 sum_{n>=1} with each
    1/(1+q^n) expanded geometrically.  Watson's identity states this equals
    f(q) (q;q)_inf.
    """
    _check_order(order)
    total = [0] * (order + 1)
    total[0] = 1
    n = 1
    while n * (3 * n + 1) // 2 <= order:
        base = n * (3 * n + 1) // 2
        sign = 4 if n % 2 == 0 else -4
        for j, e in enumerate(range(base, order + 1, n)):
            total[e] += sign if j % 2 == 0 else -sign
        n += 1
    return PowerSeries(total)


def _pentagonal(order, s=1):
    """(q^s;q^s)_inf by Euler's pentagonal theorem: (-1)^k at s k(3k -+ 1)/2."""
    _check_order(order)
    c = [0] * (order + 1)
    c[0] = 1
    k = 1
    while s * k * (3 * k - 1) // 2 <= order:
        for e in (s * k * (3 * k - 1) // 2, s * k * (3 * k + 1) // 2):
            if e <= order:
                c[e] = -1 if k % 2 else 1
        k += 1
    return PowerSeries(c)


@lru_cache(maxsize=32)
def oebar_series_product(order):
    """OEbar generating function via the mixed-mock factorization (-q;q)_inf f(q).

    (-q;q)_inf is taken as the eta quotient (q^2;q^2)_inf / (q;q)_inf, so
    this is one sparse multiply and one sparse division by pentagonal
    series: O(N^(3/2)) on top of f_mock_series.
    """
    c = list((_pentagonal(order, 2) * f_mock_series(order)).coeffs)
    _div_sparse(c, _pentagonal(order).coeffs)
    return PowerSeries(c)


def euler_phi_series(order):
    """(q;q)_inf truncated: the pentagonal-number series."""
    return _pentagonal(order)


# ---------------------------------------------------------------------------
# Classical identity suite

def _sum_simple(order, numerator_exp, denom_step):
    """1 + sum_{n>=1} q^(numerator_exp(n)) / prod_{j<=n}(1 - q^(denom_step*j))."""
    return _sum_summands(
        order, numerator_exp, lambda u, n: _div_one_minus_qk(u, denom_step * n)
    )


def _product(order, factor_exps, inverse):
    c = [0] * (order + 1)
    c[0] = 1
    for e in factor_exps:
        if e > order:
            break
        if inverse:
            _div_one_minus_qk(c, e)
        else:
            _mul_one_plus_qk(c, e)
    return PowerSeries(c)


def classical_identity_suite(order):
    """Check the six Andrews-style hypergeometric sums against their closed forms.

    Returns a list of dicts: {name, lhs, rhs, equal}.  The first five have
    infinite-product right-hand sides; the sixth is the odd-even generating
    function itself, which has no product form and is compared against
    oe_series.  Product indices run over all admissible exponents (e.g. the
    Rogers-Ramanujan product is over parts = 1, 4 mod 5 starting at 1).
    """
    checks = [
        (
            "euler-partitions",
            _sum_simple(order, lambda n: n, 1),
            _product(order, count(1, 1), True),
        ),
        (
            "gauss-distinct-parts",
            _sum_simple(order, lambda n: n * (n + 1) // 2, 1),
            _product(order, count(1, 1), False),
        ),
        (
            "rogers-ramanujan",
            _sum_simple(order, lambda n: n * n, 1),
            _product(order, (5 * k + r for k in count() for r in (1, 4)), True),
        ),
        (
            "odd-parts",
            _sum_simple(order, lambda n: n, 2),
            _product(order, count(1, 2), True),
        ),
        (
            "distinct-odd-parts",
            _sum_simple(order, lambda n: n * n, 2),
            _product(order, count(1, 2), False),
        ),
        (
            "odd-even-sum",
            _sum_simple(order, lambda n: n * (n + 1) // 2, 2),
            oe_series(order),
        ),
    ]
    return [
        {"name": name, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
        for name, lhs, rhs in checks
    ]
