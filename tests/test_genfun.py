import sys
from itertools import count

import pytest
from hypothesis import given, settings, strategies as st

from oepartitions.series import (
    PowerSeries,
    SeriesError,
    _div_one_minus_qk,
    _div_one_plus_qk_squared,
)
from oepartitions import genfun
from oepartitions.genfun import (
    _bilateral,
    _oe_update,
    _triangular,
    oe_series,
    sj_series,
    parity_split,
    f_mock_series,
    watson_core,
    oebar_series_hypergeometric,
    oebar_series_product,
    euler_phi_series,
    classical_identity_suite,
)

from oracles import _mul_one_plus_qk, invert, neg_pochhammer, qpochhammer


class TestOESeries:
    def test_first_coefficients(self):
        assert list(oe_series(12).coeffs) == [1, 1, 0, 2, 0, 2, 1, 3, 1, 3, 3, 4, 4]

    def test_constant_term_only_from_empty_partition(self):
        assert oe_series(0) == PowerSeries([1])

    def test_class_subsums_reassemble(self):
        N = 80
        total = sj_series(0, N) + sj_series(1, N) + sj_series(2, N) + sj_series(3, N)
        assert total == oe_series(N)

    def test_class_subsum_supports(self):
        # the m-part summand starts at q^(m(m+1)/2), so S_j first contributes
        # at the smallest triangular number with index = j (mod 4)
        firsts = {0: 0, 1: 1, 2: 3, 3: 6}
        for j, lead in firsts.items():
            s = sj_series(j, 30)
            nonzero = [k for k, c in enumerate(s.coeffs) if c]
            assert nonzero[0] == lead

    def test_parity_split_matches_exponent_parity(self):
        even, odd = parity_split(60)
        full = oe_series(60)
        for n in range(61):
            assert even.coefficient(n) == (full.coefficient(n) if n % 2 == 0 else 0)
            assert odd.coefficient(n) == (full.coefficient(n) if n % 2 == 1 else 0)

    def test_invalid_class(self):
        with pytest.raises(ValueError):
            sj_series(4, 10)

    @pytest.mark.parametrize("j", range(4))
    def test_class_negative_order_is_refused(self, j):
        with pytest.raises(SeriesError):
            sj_series(j, -1)

    @pytest.mark.parametrize("j", range(4))
    def test_each_class_is_one_sum_to_its_order(self, j, summand_calls):
        sj_series(j, 50)
        assert summand_calls == [50]


class TestMockTheta:
    def test_first_coefficients(self):
        assert list(f_mock_series(6).coeffs) == [1, 1, -2, 3, -3, 3, -5]

    def test_watson_identity(self):
        # f(q) * (q;q)_inf equals the weighted pentagonal-number core
        N = 120
        lhs = f_mock_series(N) * qpochhammer(1, 1, None, N)
        assert lhs == watson_core(N)

    def test_watson_core_constant(self):
        assert watson_core(0).coefficient(0) == 1

    @pytest.mark.parametrize("order", [*range(80), 1012, 3000])
    def test_watson_core_matches_its_termwise_expansion(self, order):
        # 1 + 4 sum_{n>=1} (-1)^n q^(n(3n+1)/2) sum_j (-1)^j q^(jn), term by term
        total = [1] + [0] * order
        for n in count(1):
            base = n * (3 * n + 1) // 2
            if base > order:
                break
            for j, e in enumerate(range(base, order + 1, n)):
                total[e] += 4 * (-1) ** (n + j)
        assert watson_core(order) == PowerSeries(total)

    def test_alternating_tail_signs(self):
        # coefficients of f alternate in sign from n = 1 on
        coeffs = f_mock_series(40).coeffs
        for n in range(1, 40):
            assert coeffs[n] * coeffs[n + 1] < 0


class TestOEBarSeries:
    def test_first_coefficients(self):
        assert list(oebar_series_hypergeometric(9).coeffs) == [1, 2, 0, 4, 2, 4, 4, 8, 8, 10]

    def test_two_routes_agree(self):
        assert oebar_series_hypergeometric(200) == oebar_series_product(200)

    def test_product_route_shape(self):
        # Obar(q) = (-q;q)_inf * f(q), checked against explicit factors
        N = 60
        assert oebar_series_product(N) == neg_pochhammer(1, None, N) * f_mock_series(N)

    def test_eta_quotient_route_at_depth(self):
        # watson_core / theta(-q), where theta(-q) = eta(tau)^2 / eta(2 tau) is an eta quotient
        assert oebar_series_product(3043) == oebar_series_hypergeometric(3043)

    @pytest.mark.parametrize("order", [0, 1, 2, 3])
    def test_routes_agree_at_the_lowest_orders(self, order):
        assert oebar_series_product(order) == oebar_series_hypergeometric(order)

    def test_product_route_builds_neither_f_nor_the_hypergeometric_sum(self, monkeypatch):
        for name in ("f_mock_series", "oebar_series_hypergeometric"):
            monkeypatch.setattr(genfun, name, lambda order, name=name: pytest.fail(f"{name} built"))
        assert oebar_series_product(40).coeffs[:10] == (1, 2, 0, 4, 2, 4, 4, 8, 8, 10)

    def test_no_overpartition_of_two(self):
        assert oebar_series_hypergeometric(2).coefficient(2) == 0

    @pytest.mark.parametrize("order", [0, 1, 2, 3, 6, 200, 3043])
    def test_one_division_pass_per_summand(self, order, monkeypatch):
        # summands m = 0 .. M with T(M) <= order: the chain divides by
        # 1 - q^(m-1) for m = M, ..., 2, innermost first, and the heads
        # carry 2/(1 - q^(2m)); genfun has no kernel that multiplies by
        # 1 + q^k, so no such pass can run
        assert not hasattr(genfun, "_mul_one_plus_qk")
        ks = []
        inner = genfun._div_one_minus_qk
        monkeypatch.setattr(genfun, "_div_one_minus_qk", lambda u, k: ks.append(k) or inner(u, k))
        top = max(m for m in range(order + 2) if _triangular(m) <= order)
        oebar_series_hypergeometric(order)
        assert ks == list(range(top - 1, 0, -1))


class TestClassicalSuite:
    def test_all_identities_hold(self):
        results = classical_identity_suite(80)
        assert len(results) == 6
        for r in results:
            assert r["equal"], r["name"]
            assert r["lhs"] == r["rhs"]

    def test_names_are_distinct(self):
        names = [r["name"] for r in classical_identity_suite(10)]
        assert len(set(names)) == len(names)

    def test_euler_phi_is_pentagonal(self):
        s = euler_phi_series(26)
        expect = {0: 1, 1: -1, 2: -1, 5: 1, 7: 1, 12: -1, 15: -1, 22: 1, 26: 1}
        for n in range(27):
            assert s.coefficient(n) == expect.get(n, 0)

    # the small orders cross the truncations of phi_2 and phi_4, whose first
    # nonconstant terms sit at q^2 and q^4
    @pytest.mark.parametrize("order", [0, 1, 2, 3, 4, 5, 7, 26, 301, 2000])
    def test_closed_forms_are_the_dense_products(self, order):
        rhs = {rec["name"]: rec["rhs"] for rec in classical_identity_suite(order)}
        dense = {
            "euler-partitions": invert(qpochhammer(1, 1, None, order)),
            "gauss-distinct-parts": neg_pochhammer(1, None, order),
            "rogers-ramanujan": invert(qpochhammer(1, 5, None, order) * qpochhammer(4, 5, None, order)),
            "odd-parts": invert(qpochhammer(1, 2, None, order)),
            "distinct-odd-parts": neg_pochhammer(1, None, order, step=2),
        }
        for name, want in dense.items():
            assert rhs[name] == want, name

    @pytest.mark.parametrize("order", [0, 1, 4, 26, 301])
    def test_five_sparse_divisions_and_one_product(self, order, monkeypatch):
        # the closed forms divide by phi_1 four times and by phi_4 once and
        # multiply phi_2 by itself; every division by 1 - q^k is a summand
        # of one of the six sums (the odd-even row's is oe_series), so no
        # right-hand side is built one binomial at a time
        sj = [sj_series(j, order) for j in range(4)]
        divisors, ks, products = [], [], []
        div_sparse, div_binomial, mul = genfun._div_sparse, genfun._div_one_minus_qk, PowerSeries.__mul__
        monkeypatch.setattr(genfun, "_div_sparse", lambda c, d: divisors.append(tuple(d)) or div_sparse(c, d))
        monkeypatch.setattr(genfun, "_div_one_minus_qk", lambda u, k: ks.append(k) or div_binomial(u, k))
        monkeypatch.setattr(PowerSeries, "__mul__", lambda a, b: products.append(b.order) or mul(a, b))
        classical_identity_suite(order, sj)
        phi = {s: _bilateral(order, lambda n: s * n * (3 * n - 1) // 2).coeffs for s in (1, 4)}
        assert divisors == [phi[1]] * 4 + [phi[4]]
        assert products == [order]
        want = []
        for lowest, step in _CLASSICAL_SUMS.values():
            top = max(n for n in range(order + 2) if lowest(n) <= order)
            want += [step * n for n in range(top, 0, -1)]
        assert sorted(ks) == sorted(want)


PENTAGONAL_ORDERS = [0, 1, 2, 7, 26, 301, 2000]


class TestPentagonal:
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("order", PENTAGONAL_ORDERS)
    def test_matches_the_product(self, s, order):
        # Euler: (q^s;q^s)_inf = sum_{n in Z} (-1)^n q^(s n(3n-1)/2)
        assert _bilateral(order, lambda n: s * n * (3 * n - 1) // 2) == qpochhammer(s, s, None, order)

    @pytest.mark.parametrize("order", PENTAGONAL_ORDERS)
    def test_theta_is_gauss_product(self, order):
        # Gauss: theta(-q) = sum_{n in Z} (-1)^n q^(n^2) = (q;q)_inf / (-q;q)_inf
        quotient = qpochhammer(1, 1, None, order) * invert(neg_pochhammer(1, None, order))
        assert _bilateral(order, lambda n: n * n) == quotient


# named functions, not lambdas, so that each case gets its own test id
def _qpochhammer_to(order):
    return qpochhammer(1, 1, None, order)


def _neg_pochhammer_to(order):
    return neg_pochhammer(1, None, order)


@pytest.mark.parametrize("builder", [
    oe_series,
    lambda order: sj_series(0, order),
    parity_split,
    oebar_series_hypergeometric,
    oebar_series_product,
    f_mock_series,
    watson_core,
    euler_phi_series,
    classical_identity_suite,
    _qpochhammer_to,
    _neg_pochhammer_to,
])
def test_negative_order_is_refused(builder):
    with pytest.raises(SeriesError):
        builder(-1)


@pytest.mark.parametrize("order", [float("inf"), 10 ** 300, sys.maxsize + 1, 10.0])
def test_order_not_an_int_up_to_maxsize_is_refused(order):
    # at once: oe_series searches for its top summand before it allocates
    with pytest.raises(SeriesError):
        oe_series(order)


class TestGrowth:
    def test_oe_coefficients_grow_subexponentially(self):
        # e^(pi sqrt(n/5)) dominates OE(n); check a crude integer version
        from math import isqrt

        s = oe_series(500)
        for n in range(10, 501):
            # pi sqrt(n/5) < 1.4050 sqrt(n) < 3 sqrt(n); check OE(n) < 2^(2 sqrt(n))
            assert s.coefficient(n) < 2 ** (2 * (isqrt(n) + 1))

    def test_deep_coefficient_spot_checks(self):
        s = oe_series(1000)
        assert s.coefficient(100) == 8736
        assert s.coefficient(1000) == 24572833081571414
        t = oebar_series_product(1000)
        assert t.coefficient(100) == 587642
        assert t.coefficient(1000) == 11478515825964261613864


# ---------------------------------------------------------------------------
# The nested sums against a forward reference


def _forward_sum(order, lowest, update, classes=1):
    """Sum t_m = q^lowest(m) r_1 ... r_m summand by summand, front to back,
    into one row per class m (mod classes): the plain loop the nested sum
    in genfun must reproduce."""
    rows = [[0] * (order + 1) for _ in range(classes)]
    u = [1] + [0] * order
    m = e = 0
    while True:
        row = rows[m % classes]
        for i, c in enumerate(u):
            row[e + i] += c
        m += 1
        e = lowest(m)
        if e > order:
            return [PowerSeries(r) for r in rows]
        del u[order + 1 - e :]
        update(u, m)


def _square(n):
    return n * n


def _andrews_ratio(u, m):
    # Andrews' termwise ratio of the (-1;q)_m sum: (-1;q)_m / (-1;q)_(m-1)
    # = 1 + q^(m-1), which is 2 at m = 1, over (q^2;q^2)_m / (q^2;q^2)_(m-1)
    _mul_one_plus_qk(u, m - 1)
    _div_one_minus_qk(u, 2 * m)


# (numerator exponent, denominator step) of each classical sum's summands
_CLASSICAL_SUMS = {
    "euler-partitions": (lambda n: n, 1),
    "gauss-distinct-parts": (_triangular, 1),
    "rogers-ramanujan": (_square, 1),
    "odd-parts": (lambda n: n, 2),
    "distinct-odd-parts": (_square, 2),
    "odd-even-sum": (_triangular, 2),
}


def _assert_nested_sums_match_forward(order):
    assert oe_series(order) == _forward_sum(order, _triangular, _oe_update)[0]
    classes = _forward_sum(order, _triangular, _oe_update, classes=4)
    for j in range(4):
        assert sj_series(j, order) == classes[j], j
    assert oebar_series_hypergeometric(order) == _forward_sum(order, _triangular, _andrews_ratio)[0]
    assert f_mock_series(order) == _forward_sum(order, _square, _div_one_plus_qk_squared)[0]
    for rec in classical_identity_suite(order):
        lowest, step = _CLASSICAL_SUMS[rec["name"]]
        want = _forward_sum(order, lowest, lambda u, n: _div_one_minus_qk(u, step * n))[0]
        assert rec["lhs"] == want, rec["name"]


# orders 0 and 1, and next to each summand's entry point: T(m) - 1, T(m),
# T(m) + 1 for the triangular sums and m^2 - 1, m^2, m^2 + 1 for f and
# Rogers-Ramanujan
_ENTRY_ORDERS = sorted(
    {0, 1}
    | {e + d for m in range(1, 10) for e in (_triangular(m), m * m) for d in (-1, 0, 1)}
)


@pytest.mark.parametrize("order", _ENTRY_ORDERS)
def test_nested_sums_match_forward_reference(order):
    _assert_nested_sums_match_forward(order)


@pytest.mark.parametrize("j, first", [(0, 0), (1, 1), (2, 3), (3, 6)])
def test_class_below_its_first_exponent_is_zero(j, first):
    for order in range(first):
        assert sj_series(j, order) == PowerSeries.zero(order)


@settings(max_examples=20, deadline=None)
@given(order=st.integers(min_value=0, max_value=400))
def test_nested_sums_match_forward_reference_at_any_order(order):
    _assert_nested_sums_match_forward(order)
