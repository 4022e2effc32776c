import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st
from mpmath import mp, mpf, mpc, exp, sqrt, workprec

from oepartitions.specfun import GUARD_BITS, evaluate_at, horner_bits, horner_fixed
from oepartitions.series import (
    PowerSeries,
    SeriesError,
    _div_one_minus_qk,
    _div_one_plus_qk_squared,
    _div_sparse,
)

from oracles import _mul_one_minus_qk, _mul_one_plus_qk, invert, neg_pochhammer, qpochhammer


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
        assert invert(PowerSeries([1, -1, 0, 0, 0])) == PowerSeries([1] * 5)

    def test_invert_one(self):
        assert invert(PowerSeries.one(4)) == PowerSeries.one(4)

    def test_invert_qq2_nonnegative(self):
        # 1/(q;q)_2 counts partitions into parts <= 2
        inv = invert(qpochhammer(1, 1, 2, 30))
        brute = [sum(1 for a in range(n + 1) if (n - a) % 2 == 0) for n in range(31)]
        assert list(inv.coeffs) == brute

    def test_invert_requires_unit(self):
        with pytest.raises(SeriesError):
            invert(S(2, 1, 1))

    @given(small_series, small_series, small_series)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(unit_series)
    def test_invert_round_trip(self, a):
        assert a * invert(a) == PowerSeries.one(a.order)

    def test_needs_the_constant_term(self):
        with pytest.raises(SeriesError, match="constant term"):
            PowerSeries([])

    def test_coefficient_past_the_order_is_refused(self):
        assert S(4, 5).coefficient(1) == 5
        for n in (2, -1):
            with pytest.raises(SeriesError, match="not determined at order 1"):
                S(4, 5).coefficient(n)

    def test_repr_shows_eight_coefficients_and_the_order(self):
        assert repr(S(1, -2, 3)) == "PowerSeries([1, -2, 3], order=2)"
        assert repr(PowerSeries(range(9))) == "PowerSeries([0, 1, 2, 3, 4, 5, 6, 7, ...], order=8)"


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
    """Reference: c * (1 + sign q^k), or c / (1 + sign q^k) divide times
    (True for once), one coefficient at a time."""
    c = list(c)
    indices = range(k, len(c)) if divide else range(len(c) - 1, k - 1, -1)
    for _ in range(divide or 1):
        for i in indices:
            c[i] += (-sign if divide else sign) * c[i - k]
    return c


class TestSparseKernels:
    @pytest.mark.parametrize("kernel,sign,divide", [
        (_mul_one_minus_qk, -1, False),
        (_mul_one_plus_qk, 1, False),
        (_div_one_minus_qk, -1, True),
        pytest.param(_div_one_plus_qk_squared, 1, 2, id="div_one_plus_qk_squared-1-2"),
    ])
    @pytest.mark.parametrize("k", [1, 2, 4, 5, 6, 10, 11, 13, 25, 30, 31, 100, 150])
    def test_binomial_kernels_match_the_loop(self, kernel, sign, divide, k):
        # lengths on both sides of the divisions' k^2 < len(c) switch, and
        # coefficients near 2^200 of either sign, so that a lost carry shows
        rng = random.Random(k)
        for length in (1, 2, 24, 25, 26, 31, 101):
            c = [rng.randrange(-2**200, 2**200) for _ in range(length)]
            want = loop_kernel(c, k, sign, divide)
            kernel(c, k)
            assert c == want, f"length {length}"

    @pytest.mark.parametrize("kernel", [_div_one_minus_qk, _div_one_plus_qk_squared])
    @pytest.mark.parametrize("k", [0, -1])
    def test_division_by_a_constant_binomial_raises(self, kernel, k):
        # 1 - q^0 = 0 has no inverse, and 1 + q^0 = 2 none over the integers
        c = [1, 2, 3]
        with pytest.raises(SeriesError):
            kernel(c, k)
        assert c == [1, 2, 3]

    def test_mul_mixes_unit_zero_and_other_coefficients(self):
        a = [1, -1, 0, 3, 1, -2**70, 0, -1]
        b = [random.Random(8).randrange(-2**200, 2**200) for _ in range(12)]
        assert PowerSeries(a) * PowerSeries(b) == PowerSeries(schoolbook(a, b))

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


class CountingList(list):
    """A list that counts the writes made into it, one per __setitem__ call."""

    writes = 0

    def __setitem__(self, index, value):
        self.writes += 1
        super().__setitem__(index, value)


class TestKernelWork:
    """The interpreted steps of each kernel call, counted as writes into c: the
    per-coefficient work runs in C, so the count needs no timing."""

    N = 2500

    def writes(self, kernel, k):
        c = CountingList(range(self.N))
        kernel(c, k)
        return c.writes

    @pytest.mark.parametrize("kernel", [_div_one_minus_qk])
    def test_division_makes_at_most_sqrt_n_writes(self, kernel):
        bound = math.isqrt(self.N - 1) + 1
        worst = max((self.writes(kernel, k), k) for k in range(1, self.N + 1))
        assert worst[0] <= bound, f"{worst[0]} writes at k = {worst[1]}, bound {bound}"

    def test_squared_division_makes_at_most_three_sqrt_n_writes(self):
        # one pair of sign flips around two prefix sums per residue class
        bound = 3 * (math.isqrt(self.N - 1) + 1)
        worst = max((self.writes(_div_one_plus_qk_squared, k), k) for k in range(1, self.N + 1))
        assert worst[0] <= bound, f"{worst[0]} writes at k = {worst[1]}, bound {bound}"

    @pytest.mark.parametrize("kernel", [_mul_one_minus_qk, _mul_one_plus_qk])
    def test_multiplication_makes_one_write(self, kernel):
        assert {self.writes(kernel, k) for k in range(1, self.N + 1)} == {1}


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
        assert s * invert(s) == PowerSeries.one(40)

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

    @pytest.mark.parametrize("series,growth_c,match", [
        (S(1, 1), -1, "growth constant"),
        (S(1, 1), 2, "diverges"),  # e^(2 / (2 sqrt 1)) / 2 = 1.36 >= 1
        (S(3), 1, "diverges"),  # at order 0, e^1 / 2 >= 1
    ])
    def test_growth_that_bounds_no_tail_is_refused(self, series, growth_c, match):
        with pytest.raises(SeriesError, match=match):
            evaluate_at(series, mpf("0.5"), 64, growth_c=growth_c)

    def test_tail_bound_at_order_zero(self):
        # with sqrt(k) <= k the tail of |c_k| <= e^(C sqrt k) at q is below
        # sum_(k>=1) (e^C q)^k = e^C q / (1 - e^C q), 1.235... at C = 0.1, q = 1/2
        res = evaluate_at(S(3), mpf("0.5"), 64, growth_c=0.1)
        assert res.value == 3
        with workprec(64 + GUARD_BITS):
            want = exp(mpf(0.1)) / 2 / (1 - exp(mpf(0.1)) / 2)  # the float C itself
        assert abs(res.tail_bound - want) < mpf(2) ** -60 * want

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
        full = invert(qpochhammer(1, 1, None, 400))
        part = PowerSeries(full.coeffs[:121])
        q = mpf("0.5")
        lo = evaluate_at(part, q, 192, growth_c=growth)
        hi = evaluate_at(full, q, 192, growth_c=growth)
        assert abs(hi.value - lo.value) <= lo.tail_bound

    def test_debug_log_reports_the_sum(self, caplog):
        caplog.set_level(logging.DEBUG, logger="oepartitions.series")
        res = evaluate_at(S(0, 0, 3, 1), mpf("0.5"), 64, growth_c=1.0)
        messages = [r.getMessage() for r in caplog.records if r.name == "oepartitions.series"]
        # wp = 64 + GUARD_BITS + 5, and 1 more for 1/(1 - |q|) = 2
        assert messages == [
            f"series of order 3 at |q| = 0.5: 2 leading zeros stripped, 102 bits, "
            f"tail bound {mp.nstr(res.tail_bound, 3)}"
        ]


def random_series(rng, order, lead):
    """lead zeros, then a nonzero coefficient, then random ones of up to 300 bits, some 0."""
    rest = [rng.choice([0, rng.randint(-(1 << 300), 1 << 300), rng.randint(-9, 9)])
            for _ in range(order - lead)]
    return [0] * lead + [rng.choice([-1, 1]) * rng.randint(1, 1 << rng.randint(0, 300))] + rest


def random_point(rng, log2_size, is_complex, prec):
    """A point of modulus 2^log2_size (1 - 2^-20 for log2_size None), at prec bits."""
    with workprec(prec):
        size = 1 - mpf(2) ** -20 if log2_size is None else mpf(2) ** log2_size
        if not is_complex:
            return size * rng.choice([-1, 1])
        return size * mp.expjpi(mpf(rng.random()) * 2)


SIZES = [-700, -90, -3, -1, None]


def exact_sum(coeffs, point, wp):
    """sum_k c_k z^k at z = point / 2^wp, the c_k ints highest first, as two
    exact Fractions: Horner's rule on ints, the sum scaled by 2^(wp m) after
    m steps, so nothing is rounded."""
    zr, zi = point
    ar = ai = 0
    for m, c in enumerate(coeffs, 1):
        ar, ai = ar * zr - ai * zi + (c << wp * m), ar * zi + ai * zr
    scale = 1 << wp * len(coeffs)
    return Fraction(ar, scale), Fraction(ai, scale)


def as_fraction(radius):
    """A float or an mpf, exactly."""
    if isinstance(radius, float):
        return Fraction(radius)
    return Fraction(int(radius.man)) * Fraction(2) ** int(radius.exp)


class TestHornerFixed:
    """specfun.horner_fixed, alone and under evaluate_at, against mp.polyval at
    enough bits to be exact here."""

    @pytest.mark.parametrize("prec", [64, 192, 256])
    @pytest.mark.parametrize("log2_size", SIZES)
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_kernel_within_its_bound(self, prec, log2_size, is_complex):
        rng = random.Random(prec * 1000 + (log2_size or 0) * 2 + is_complex)
        # enough bits that z = 2^-700 keeps prec of its own
        wp = prec + GUARD_BITS + 4 + max(0, -(log2_size or 0))
        coeffs = random_series(rng, 40, rng.randint(0, 4))
        with workprec(wp + 1200):
            z = random_point(rng, log2_size, is_complex, wp)
            # z as multiples of 2^-wp, so the kernel sees it exactly
            zr, zi = (int(mp.floor(part * 2 ** wp)) for part in (z.real, mpc(z).imag))
            exact = mpc(zr, zi) / 2 ** wp
            want = mp.polyval(coeffs[::-1], exact)
            ar, ai = horner_fixed((c << wp for c in reversed(coeffs)), (zr, zi), wp)
            error = abs(mpc(ar, ai) / 2 ** wp - want)
            assert error <= (1 / (1 - abs(exact)) + sqrt(2)) * mpf(2) ** -wp

    @pytest.mark.parametrize("prec", [64, 192, 256])
    @pytest.mark.parametrize("log2_size", SIZES)
    @pytest.mark.parametrize("is_complex", [False, True], ids=["real", "complex"])
    def test_evaluate_at_within_the_floating_bound(self, prec, log2_size, is_complex):
        # the kernel's error is below 2^-(prec + GUARD_BITS) sum |c_k| |z|^k, the
        # floating Horner's bound, and the value is then rounded to prec bits
        rng = random.Random(prec * 1000 + (log2_size or 0) * 2 + is_complex + 1)
        lead = rng.randint(0, 4)
        coeffs = random_series(rng, 40, lead)
        z = random_point(rng, log2_size, is_complex, prec + 128)
        res = evaluate_at(PowerSeries(coeffs), z, prec)
        assert isinstance(res.value, mpc) == is_complex
        assert res.value != 0
        with workprec(prec + 128 + 1200):
            want = mp.polyval(coeffs[::-1], z)
            size = mp.fsum(abs(c) * abs(z) ** k for k, c in enumerate(coeffs))
            error = abs(res.value - want)
            assert error <= mpf(2) ** -(prec + GUARD_BITS) * size + mpf(2) ** (1 - prec) * abs(want)

    def test_zero_series_sums_to_zero(self):
        assert evaluate_at(S(0, 0, 0), mpf("0.5"), 64).value == 0

    @pytest.mark.parametrize("gap", [1, 6, 12])
    @pytest.mark.parametrize("angle", ["0", "pi", "2^-30", "pi - 2^-30", "one unit"])
    def test_recurrence_worst_cases_within_the_documented_bound(self, gap, angle):
        # |z| = 1 - 2^-gap on the real axis, where the sum is Horner's rule,
        # and next to it, where Goertzel's b_k grow most: 2^-30 off it and
        # one unit of 2^-wp above it; 2000-bit coefficients all of one sign,
        # alternating, and random.  A floor at step k reaches the sum times
        # z^k, so the error stays below (1/(1 - |z|) + sqrt 2) 2^-wp even with
        # 300 terms at gap 6, where the b_k carry floors grown (k + 1)-fold
        rng = random.Random(gap * 10 + len(angle))
        wp = 200
        with workprec(wp + 64):
            theta = {"0": mpf(0), "pi": mp.pi, "2^-30": mpf(2) ** -30,
                     "pi - 2^-30": mp.pi - mpf(2) ** -30, "one unit": mpf(0)}[angle]
            size = 1 - mpf(2) ** -gap
            zr = int(mp.floor(size * mp.cos(theta) * 2 ** wp))
            zi = {"0": 0, "pi": 0, "one unit": 1}.get(
                angle, int(mp.floor(size * mp.sin(theta) * 2 ** wp)))
        modulus = math.hypot(zr, zi) / 2 ** wp
        for sign in (lambda k: 1, lambda k: (-1) ** k, lambda k: rng.choice([-1, 1])):
            coeffs = [sign(k) * rng.getrandbits(2000) for k in range(300)]
            ar, ai = horner_fixed((c << wp for c in coeffs), (zr, zi), wp)
            want_r, want_i = exact_sum(coeffs, (zr, zi), wp)
            error = math.hypot(ar - want_r * 2 ** wp, ai - want_i * 2 ** wp)  # units of 2^-wp
            assert error <= 1 / (1 - modulus) + math.sqrt(2)

    @pytest.mark.parametrize("prec", [16, 64, 192, 1000])
    @pytest.mark.parametrize("radius", [
        0.0, 0.25, 0.5, 0.75, 0.9, 1 - 2.0 ** -12, 1 - 2.0 ** -40,
        math.exp(-2 * math.pi / (4 * math.sqrt(3 * 6400))),  # the recovery's r at n = 6400
        mpf(0), mpf("0.5"), mpf("0.999"), 1 - mpf(2) ** -12, 1 - mpf(2) ** -45 - mpf(2) ** -52,
    ])
    def test_bits_keep_the_bound_below_the_target(self, prec, radius):
        # 2^(3/2 - wp) / (1 - r) < 2^-(prec + GUARD_BITS + 3), squared so
        # that both sides are exact rationals
        wp = horner_bits(prec, radius)
        gap = 1 - as_fraction(radius)
        assert 8 * Fraction(4) ** (prec + GUARD_BITS + 3) < Fraction(4) ** wp * gap * gap
