import random

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf, mpc, workprec

from oepartitions.series import (
    PowerSeries,
    SeriesError,
    qpochhammer,
    neg_pochhammer,
    evaluate_at,
    _div_one_minus_qk,
    _div_one_plus_qk,
    _div_sparse,
    _mul_one_minus_qk,
    _mul_one_plus_qk,
)


def S(*coeffs):
    return PowerSeries(coeffs)


small_series = st.builds(
    PowerSeries,
    st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
)

unit_series = st.builds(
    lambda head, rest: PowerSeries([head] + rest),
    st.sampled_from([1, -1]),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=5, max_size=5),
)


class TestArithmetic:
    def test_add_cancellation(self):
        assert S(1, 1) + S(1, -1) == S(2, 0)

    def test_add_zero_identity(self):
        s = S(3, -1, 4)
        assert PowerSeries.zero(2) + s == s

    def test_add_truncates_to_min_order(self):
        assert (PowerSeries.one(5) + PowerSeries.one(3)).order == 3

    def test_mul_difference_of_squares(self):
        assert S(1, 1, 0) * S(1, -1, 0) == S(1, 0, -1)

    def test_mul_one_identity(self):
        s = S(2, 0, -5, 7)
        assert s * PowerSeries.one(3) == s

    def test_mul_geometric_telescopes(self):
        n = 12
        geo = PowerSeries([1] * (n + 1))
        one_minus_q = PowerSeries([1, -1] + [0] * (n - 1))
        assert one_minus_q * geo == PowerSeries.one(n)

    def test_invert_geometric(self):
        assert PowerSeries([1, -1, 0, 0, 0]).invert() == PowerSeries([1] * 5)

    def test_invert_one(self):
        assert PowerSeries.one(4).invert() == PowerSeries.one(4)

    def test_invert_qq2_nonnegative(self):
        # 1/(q;q)_2 counts partitions into parts <= 2
        inv = qpochhammer(1, 1, 2, 30).invert()
        brute = [sum(1 for a in range(n + 1) if (n - a) % 2 == 0) for n in range(31)]
        assert list(inv.coeffs) == brute

    def test_invert_requires_unit(self):
        with pytest.raises(SeriesError):
            S(2, 1, 1).invert()

    @given(small_series, small_series, small_series)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(unit_series)
    def test_invert_round_trip(self, a):
        assert a * a.invert() == PowerSeries.one(a.order)


def schoolbook(a, b):
    """Reference Cauchy product, truncated to the smaller order."""
    n = min(len(a), len(b)) - 1
    return [sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(n + 1)]


def sparse_and_dense(seed, sparse_order, dense_order):
    rng = random.Random(seed)
    sparse = [0] * (sparse_order + 1)
    sparse[0] = 1
    for k in rng.sample(range(1, sparse_order + 1), min(6, sparse_order)):
        sparse[k] = rng.choice([-3, -1, 1, 2])
    dense = [rng.randint(-50, 50) for _ in range(dense_order + 1)]
    return sparse, dense


def loop_kernel(c, k, sign, divide):
    """Reference: c * (1 + sign q^k) or c / (1 + sign q^k), one coefficient at a time."""
    c = list(c)
    indices = range(k, len(c)) if divide else range(len(c) - 1, k - 1, -1)
    for i in indices:
        c[i] += (-sign if divide else sign) * c[i - k]
    return c


class TestSparseKernels:
    @pytest.mark.parametrize("kernel,sign,divide", [
        (_mul_one_minus_qk, -1, False),
        (_mul_one_plus_qk, 1, False),
        (_div_one_minus_qk, -1, True),
        (_div_one_plus_qk, 1, True),
    ])
    @pytest.mark.parametrize("k", [1, 2, 5, 13, 30, 31])
    def test_binomial_kernels_match_the_loop(self, kernel, sign, divide, k):
        _, c = sparse_and_dense(k, 0, 30)
        want = loop_kernel(c, k, sign, divide)
        kernel(c, k)
        assert c == want

    @pytest.mark.parametrize("sparse_order,dense_order", [(40, 40), (60, 25), (25, 60), (0, 9)])
    def test_mul_with_sparse_operand_on_either_side(self, sparse_order, dense_order):
        sparse, dense = sparse_and_dense(sparse_order * 100 + dense_order, sparse_order, dense_order)
        want = PowerSeries(schoolbook(sparse, dense))
        assert PowerSeries(sparse) * PowerSeries(dense) == want
        assert PowerSeries(dense) * PowerSeries(sparse) == want

    @pytest.mark.parametrize("d_order,c_order", [(0, 0), (1, 1), (17, 17), (80, 80), (50, 20)])
    def test_sparse_division_round_trip(self, d_order, c_order):
        d, c = sparse_and_dense(d_order + c_order, d_order, c_order)
        product = list((PowerSeries(c) * PowerSeries(d)).coeffs)
        _div_sparse(product, d)
        assert product == c

    @pytest.mark.parametrize("head", [0, 2, -1])
    def test_sparse_division_needs_constant_term_one(self, head):
        c = [1, 2, 3]
        with pytest.raises(SeriesError):
            _div_sparse(c, [head, 1, 0])
        assert c == [1, 2, 3]


class TestPochhammer:
    def test_qq2(self):
        assert qpochhammer(1, 1, 2, 5) == S(1, -1, -1, 1, 0, 0)

    def test_empty_product(self):
        assert qpochhammer(2, 2, 0, 4) == PowerSeries.one(4)

    def test_pentagonal_pattern(self):
        # (q;q)_inf: nonzero coefficients +-1 at generalized pentagonal numbers
        s = qpochhammer(1, 1, None, 10)
        assert list(s.coeffs) == [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0]

    def test_infinite_inverse_round_trip(self):
        s = qpochhammer(1, 1, None, 40)
        assert s * s.invert() == PowerSeries.one(40)

    def test_requires_positive_start(self):
        with pytest.raises(SeriesError):
            qpochhammer(0, 1, 2, 4)

    def test_neg_poch_with_one(self):
        assert neg_pochhammer(0, 2, 4) == S(2, 2, 0, 0, 0)

    def test_neg_poch_empty(self):
        assert neg_pochhammer(0, 0, 4) == PowerSeries.one(4)

    def test_distinct_parts_series(self):
        # (-q;q)_inf generates partitions into distinct parts
        s = neg_pochhammer(1, None, 8)
        assert list(s.coeffs) == [1, 1, 1, 2, 2, 3, 4, 5, 6]


class TestEvaluateAt:
    def test_polynomial_exact(self):
        res = evaluate_at(S(1, 1), mpf("0.5"), 128)
        assert res.value == mpc("1.5")
        assert res.tail_bound == 0

    def test_at_zero_gives_constant_term(self):
        res = evaluate_at(S(7, 3, -2), mpf(0), 128, growth_c=1.0)
        assert res.value == 7

    def test_point_outside_disc_rejected(self):
        with pytest.raises(SeriesError):
            evaluate_at(S(1, 1), mpf(1), 128)

    def test_matches_horner_bitwise(self):
        s = S(3, -1, 4, 1, -5)
        z = mpc("0.3", "0.2")
        res = evaluate_at(s, z, 192)
        with workprec(192 + 32):
            acc = mpc(0)
            for c in reversed(s.coeffs):
                acc = acc * z + c
        with workprec(192):
            acc = +acc
        assert res.value == acc

    def test_tail_bound_is_a_bound(self):
        # coefficients of 1/(q;q)_inf obey p(k) <= e^(pi sqrt(2k/3))
        growth = float(mp.pi * mp.sqrt(mpf(2) / 3))
        full = qpochhammer(1, 1, None, 400).invert()
        part = full.truncate(120)
        q = mpf("0.5")
        lo = evaluate_at(part, q, 192, growth_c=growth)
        hi = evaluate_at(full, q, 192, growth_c=growth)
        assert abs(hi.value - lo.value) <= lo.tail_bound
