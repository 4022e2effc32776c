"""Generating functions for odd-even partitions and overpartitions.

Everything here is an exact truncated PowerSeries.  The hypergeometric
sums are nested, Horner-style, from the innermost summand out: the m-th
summand is the (m-1)-st times a power of q and a sparse binomial ratio, so
the sum is 1 + q^a r_1 (1 + q^b r_2 (1 + ...)).  Each level costs one update
pass over the coefficients below q^(N+1) that its leading power leaves, so
building a series to order N costs O(N^(3/2)) integer operations instead of
O(N^2) per term.  The passes are series' binomial kernels, which do that
work in C, at most 3 sqrt(N) interpreted steps per binomial.  That is what
makes the desk-scale asymptotic checks (orders 10^4 and up) cheap.

Series implemented:
  oe_series             O(q)  = sum_m q^(m(m+1)/2) / (q^2;q^2)_m
  sj_series             S_j   = the m = j (mod 4) subsum of O(q)
  parity_split          (O_e, O_o) = (S_0+S_3, S_1+S_2), the even- and odd-exponent
                        parts of O(q): m(m+1)/2 is even iff m = 0, 3 (mod 4), and
                        (q^2;q^2)_m has only even exponents
  f_mock_series         f(q)  = sum_n q^(n^2) / (-q;q)_n^2   (third order mock theta)
  watson_core           2 sum_{n in Z} (-1)^n q^(n(3n+1)/2) / (1+q^n)
  oebar_series_*        Obar(q) = sum_m (-1;q)_m q^(m(m+1)/2) / (q^2;q^2)_m
                                = (-q;q)_inf * f(q)
                                = (q^2;q^2)_inf * f(q) / (q;q)_inf

The product route takes (-q;q)_inf as the eta quotient (q^2;q^2)_inf /
(q;q)_inf.  Both factors are Euler pentagonal series with O(sqrt(N)) nonzero
terms, so the route costs one sparse multiply and one sparse division,
O(N^(3/2)) each, on top of f_mock_series.  It shares no series with the
hypergeometric route, so circle checks its Cauchy recovery against it.

Every builder is a pure function that keeps no series between calls.
"""

from __future__ import annotations

from itertools import count

from .series import (
    PowerSeries,
    _check_order,
    _div_one_minus_qk,
    _div_one_plus_qk_squared,
    _div_sparse,
    _mul_one_plus_qk,
    _product,
)


def _sum_summands(order, lowest, update, first=0, step=1):
    """Sum t_m = q^lowest(m) r_1 ... r_m over m = first, first + step, ... to the given order.

    update(u, m) multiplies u by r_m in place, truncated to len(u), and
    lowest(0) must be 0.  The sum is nested from the innermost summand out:
    with R_top = 1 and R_(m-step) = 1 + q^(lowest(m)-lowest(m-step))
    r_(m-step+1) ... r_m R_m, kept below q^(order+1-lowest(m-step)), the sum
    is q^lowest(first) r_1 ... r_first R_first.  So each summand costs one
    update pass and no accumulation pass.
    """
    _check_order(order)
    if lowest(first) > order:
        return PowerSeries.zero(order)
    m = first
    while lowest(m + step) <= order:
        m += step
    u = [1] + [0] * (order - lowest(m))
    while m > 0:
        k = m - step if m > first else 0
        for i in range(m, k, -1):
            update(u, i)
        u[:0] = [0] * (lowest(m) - lowest(k))
        if m > first:
            u[0] += 1
        m = k
    return PowerSeries(u)


def _triangular(m):
    return m * (m + 1) // 2


def _oe_update(u, m):
    # t_m = t_{m-1} * q^m / (1 - q^(2m))
    _div_one_minus_qk(u, 2 * m)


def _oebar_update(u, m):
    # extra factor (1 + q^(m-1)) from (-1;q)_m / (-1;q)_{m-1}; at m = 1 it is 2
    _mul_one_plus_qk(u, m - 1)
    _div_one_minus_qk(u, 2 * m)


def oe_series(order):
    """Generating function of OE(n), exact to the given order."""
    return _sum_summands(order, _triangular, _oe_update)


def sj_series(j, order):
    """S_j: the m = j (mod 4) subsum of the OE generating function."""
    if j not in (0, 1, 2, 3):
        raise ValueError("parity class j must be in {0,1,2,3}")
    return _sum_summands(order, _triangular, _oe_update, first=j, step=4)


def parity_split(order):
    """(O_e, O_o) = (S_0+S_3, S_1+S_2), read off oe_series: the m-th summand is
    q^(m(m+1)/2) times a series in q^2, even exactly when m = 0, 3 (mod 4)."""
    c = oe_series(order).coeffs
    even, odd = [0] * len(c), [0] * len(c)
    even[::2], odd[1::2] = c[::2], c[1::2]
    return PowerSeries(even), PowerSeries(odd)


def oebar_series_hypergeometric(order):
    """Generating function of OEbar(n) as the (-1;q)_m hypergeometric sum."""
    return _sum_summands(order, _triangular, _oebar_update)


def _f_mock_update(u, n):
    # t_n = t_{n-1} * q^(2n-1) / (1 + q^n)^2
    _div_one_plus_qk_squared(u, n)


def f_mock_series(order):
    """Ramanujan's third order mock theta function f(q) = sum q^(n^2)/(-q;q)_n^2."""
    return _sum_summands(order, lambda n: n * n, _f_mock_update)


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
            _product(order, count(1, 1), _div_one_minus_qk),
        ),
        (
            "gauss-distinct-parts",
            _sum_simple(order, lambda n: n * (n + 1) // 2, 1),
            _product(order, count(1, 1), _mul_one_plus_qk),
        ),
        (
            "rogers-ramanujan",
            _sum_simple(order, lambda n: n * n, 1),
            _product(order, (5 * k + r for k in count() for r in (1, 4)), _div_one_minus_qk),
        ),
        (
            "odd-parts",
            _sum_simple(order, lambda n: n, 2),
            _product(order, count(1, 2), _div_one_minus_qk),
        ),
        (
            "distinct-odd-parts",
            _sum_simple(order, lambda n: n * n, 2),
            _product(order, count(1, 2), _mul_one_plus_qk),
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
