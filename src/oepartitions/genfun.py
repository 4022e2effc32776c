"""Generating functions for odd-even partitions and overpartitions.

Everything here is an exact truncated PowerSeries.  The hypergeometric
sums are nested, Horner-style, from the innermost summand out: the m-th
summand is a power of q times a chain r_1 ... r_m of sparse binomial
ratios times a head h_m, so the sum is h_0 + q^a r_1 (h_1 + q^b r_2 (h_2 +
...)).  The head is 1 in every sum but Obar's, whose 2/(1 - q^(2m)) is one
strided write over every 2m-th coefficient.  Each level costs one kernel
pass over the coefficients below q^(N+1) that its leading power leaves, so
building a series to order N costs O(N^(3/2)) integer operations instead
of O(N^2) per term.  The passes are series' binomial kernels, which do
that work in C, at most 3 sqrt(N) interpreted steps per binomial.  That is
what makes the desk-scale asymptotic checks (orders 10^4 and up) cheap.

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
                                = watson_core / theta(-q)
  euler_phi_series      (q;q)_inf = sum_{n in Z} (-1)^n q^(n(3n-1)/2)

The product route takes (-q;q)_inf f(q) through Watson's identity
f(q) (q;q)_inf = watson_core and Gauss's theta(-q) = sum_{n in Z} (-1)^n
q^(n^2) = (q;q)_inf / (-q;q)_inf.  The core is a few strided writes per n,
and theta(-q) has floor(sqrt(N)) + 1 nonzero terms, so the route is one
sparse division, O(N^(3/2)).  It shares no series with the hypergeometric
route, so circle checks its Cauchy recovery against it.

classical_identity_suite checks five classical sum = product identities
and builds no product one binomial at a time, which would cost O(N^2).
With phi_s = (q^s;q^s)_inf, a pentagonal series by Euler's theorem, each
product is a quotient of sparse theta series:
  euler-partitions      1/(q;q)_inf       = 1/phi_1
  gauss-distinct-parts  (-q;q)_inf        = phi_2/phi_1       (Euler)
  rogers-ramanujan      1/(q,q^4;q^5)_inf = R/phi_1, R = (q^2,q^3,q^5;q^5)_inf
                        = sum_{n in Z} (-1)^n q^(n(5n-1)/2)   (Jacobi's triple product)
  odd-parts             1/(q;q^2)_inf     = phi_2/phi_1
  distinct-odd-parts    (-q;q^2)_inf      = phi_2^2/(phi_1 phi_4)
so the five cost one sparse product and five sparse divisions by O(sqrt(N))
nonzero terms, O(N^(3/2)) in all.

Every builder is a pure function that keeps no series between calls.
"""

from itertools import repeat
from operator import add, sub

from .series import (
    PowerSeries,
    _check_order,
    _div_one_minus_qk,
    _div_one_plus_qk_squared,
    _div_sparse,
)


def _add_one(u, m):
    u[0] += 1


def _sum_summands(order, lowest, update, first=0, step=1, head=_add_one):
    """Sum t_m = q^lowest(m) r_1 ... r_m h_m over m = first, first + step, ... to the given order.

    update(u, m) multiplies u by r_m and head(u, m) adds h_m to u, both in
    place and truncated to len(u); the head defaults to h_m = 1, and
    lowest(0) must be 0.  The sum is nested from the innermost summand out:
    with R_top = h_top and R_(m-step) = h_(m-step) + q^(lowest(m)-lowest(m-step))
    r_(m-step+1) ... r_m R_m, kept below q^(order+1-lowest(m-step)), the sum
    is q^lowest(first) r_1 ... r_first R_first.  So each summand costs one
    update pass, its head and no accumulation pass.
    """
    _check_order(order)
    if lowest(first) > order:
        return PowerSeries.zero(order)
    m = first
    while lowest(m + step) <= order:
        m += step
    u = [0] * (order + 1 - lowest(m))
    head(u, m)
    while m > 0:
        k = m - step if m > first else 0
        for i in range(m, k, -1):
            update(u, i)
        u[:0] = [0] * (lowest(m) - lowest(k))
        if m > first:
            head(u, k)
        m = k
    return PowerSeries(u)


def _triangular(m):
    return m * (m + 1) // 2


def _oe_update(u, m):
    # t_m = t_{m-1} * q^m / (1 - q^(2m))
    _div_one_minus_qk(u, 2 * m)


def _oebar_update(u, m):
    # t_m = 2 q^(m(m+1)/2) / ((q;q)_(m-1) (1 - q^(2m))): the chain gains
    # 1/(1 - q^(m-1)) from m = 2 on, and its head carries 2/(1 - q^(2m))
    if m > 1:
        _div_one_minus_qk(u, m - 1)


def _oebar_head(u, m):
    # h_m = 2/(1 - q^(2m)) = 2 sum_i q^(2mi) for m >= 1; h_0 = 1
    if m:
        u[:: 2 * m] = map(add, u[:: 2 * m], repeat(2))
    else:
        u[0] += 1


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
    """Generating function of OEbar(n) as the (-1;q)_m hypergeometric sum.

    (-1;q)_m = 2 (-q;q)_(m-1) and (q^2;q^2)_m = (q;q)_m (-q;q)_m, so for
    m >= 1 the m-th summand is 2 q^(m(m+1)/2) / ((q;q)_(m-1) (1 - q^(2m))).
    The nested chain divides by 1 - q^(m-1), one kernel pass per summand,
    and each level adds the sparse head 2/(1 - q^(2m)) as one strided write.
    """
    return _sum_summands(order, _triangular, _oebar_update, head=_oebar_head)


def f_mock_series(order):
    """Ramanujan's third order mock theta function f(q) = sum q^(n^2)/(-q;q)_n^2."""
    # t_n = t_{n-1} * q^(2n-1) / (1 + q^n)^2
    return _sum_summands(order, lambda n: n * n, _div_one_plus_qk_squared)


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
        total[base :: 2 * n] = map(add, total[base :: 2 * n], repeat(sign))
        total[base + n :: 2 * n] = map(sub, total[base + n :: 2 * n], repeat(sign))
        n += 1
    return PowerSeries(total)


def _bilateral(order, exponent):
    """sum_{n in Z} (-1)^n q^exponent(n) to the given order, for an exponent
    with exponent(0) = 0 and 0 < exponent(n) <= exponent(-n), increasing in n >= 1."""
    _check_order(order)
    c = [1] + [0] * order
    n = 1
    while exponent(n) <= order:
        for e in (exponent(n), exponent(-n)):
            if e <= order:
                c[e] += 1 if n % 2 == 0 else -1
        n += 1
    return PowerSeries(c)


def oebar_series_product(order):
    """OEbar generating function via the mixed-mock factorization (-q;q)_inf f(q).

    Watson's identity f(q) (q;q)_inf = watson_core and Gauss's
    theta(-q) = sum_{n in Z} (-1)^n q^(n^2) = (q;q)_inf / (-q;q)_inf make
    this watson_core / theta(-q): one sparse division by the floor(sqrt(N)) + 1
    nonzero terms of theta(-q), O(N^(3/2)), on a core of strided writes.
    """
    c = list(watson_core(order).coeffs)
    _div_sparse(c, _bilateral(order, lambda n: n * n).coeffs)
    return PowerSeries(c)


def _phi(order, s):
    """(q^s;q^s)_inf = sum_{n in Z} (-1)^n q^(s n(3n-1)/2), Euler's pentagonal theorem."""
    return _bilateral(order, lambda n: s * n * (3 * n - 1) // 2)


def euler_phi_series(order):
    """(q;q)_inf truncated: the pentagonal-number series."""
    return _phi(order, 1)


# ---------------------------------------------------------------------------
# Classical identity suite

def _sum_simple(order, numerator_exp, denom_step):
    """1 + sum_{n>=1} q^(numerator_exp(n)) / prod_{j<=n}(1 - q^(denom_step*j))."""
    return _sum_summands(
        order, numerator_exp, lambda u, n: _div_one_minus_qk(u, denom_step * n)
    )


def _quotient(numerator, *divisors):
    """numerator / divisor_1 / divisor_2 / ..., one sparse division pass per divisor."""
    c = list(numerator.coeffs)
    for d in divisors:
        _div_sparse(c, d.coeffs)
    return PowerSeries(c)


def classical_identity_suite(order, sj=None):
    """Check the six Andrews-style hypergeometric sums against their closed forms.

    Returns a list of dicts: {name, lhs, rhs, equal}.  The first five have
    infinite-product right-hand sides, each built as a quotient of sparse
    theta series.  With phi_s = (q^s;q^s)_inf, which Euler's pentagonal
    theorem writes as sum_{n in Z} (-1)^n q^(s n(3n-1)/2):
      euler-partitions      1/(q;q)_inf                = 1/phi_1
      gauss-distinct-parts  (-q;q)_inf                 = phi_2/phi_1
      rogers-ramanujan      1/(q,q^4;q^5)_inf          = R/phi_1, where Jacobi's triple
                            product writes R = (q^2,q^3,q^5;q^5)_inf as
                            sum_{n in Z} (-1)^n q^(n(5n-1)/2)
      odd-parts             1/(q;q^2)_inf              = phi_2/phi_1, the gauss row's series
      distinct-odd-parts    (-q;q^2)_inf               = phi_2^2/(phi_1 phi_4)
    Each is one sparse product at most and one or two sparse division
    passes by O(sqrt(N)) nonzero terms, so the five cost O(N^(3/2)).  The
    sixth is the odd-even generating function itself, which has no product
    form.  It is compared against S_0+S_1+S_2+S_3, its four sj_series class
    sums mod 4, which nest the same summands in another order; a caller
    that holds them to this order passes them as sj, and they are not built
    again.
    """
    sj = sj or [sj_series(j, order) for j in range(4)]
    phi1, phi2, phi4 = (_phi(order, s) for s in (1, 2, 4))
    distinct = _quotient(phi2, phi1)
    checks = [
        (
            "euler-partitions",
            _sum_simple(order, lambda n: n, 1),
            _quotient(PowerSeries.one(order), phi1),
        ),
        (
            "gauss-distinct-parts",
            _sum_simple(order, lambda n: n * (n + 1) // 2, 1),
            distinct,
        ),
        (
            "rogers-ramanujan",
            _sum_simple(order, lambda n: n * n, 1),
            _quotient(_bilateral(order, lambda n: n * (5 * n - 1) // 2), phi1),
        ),
        (
            "odd-parts",
            _sum_simple(order, lambda n: n, 2),
            distinct,
        ),
        (
            "distinct-odd-parts",
            _sum_simple(order, lambda n: n * n, 2),
            _quotient(phi2 * phi2, phi1, phi4),
        ),
        (
            "odd-even-sum",
            oe_series(order),
            sj[0] + sj[1] + sj[2] + sj[3],
        ),
    ]
    return [
        {"name": name, "lhs": lhs, "rhs": rhs, "equal": lhs == rhs}
        for name, lhs, rhs in checks
    ]
