import pytest

from oepartitions.series import PowerSeries, SeriesError, qpochhammer, neg_pochhammer
from oepartitions.genfun import (
    _pentagonal,
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
        assert oebar_series_product(3000) == oebar_series_hypergeometric(3000)

    def test_no_overpartition_of_two(self):
        assert oebar_series_hypergeometric(2).coefficient(2) == 0


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


class TestPentagonal:
    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("order", [0, 1, 2, 7, 26, 301, 2000])
    def test_matches_the_product(self, s, order):
        assert _pentagonal(order, s) == qpochhammer(s, s, None, order)


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
])
def test_negative_order_is_refused(builder):
    with pytest.raises(SeriesError):
        builder(-1)


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
