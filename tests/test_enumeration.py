import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import oepartitions

from oepartitions.enumeration import (
    OEPartition,
    OEOverpartition,
    enum_oe,
    enum_oebar,
)
from oepartitions.genfun import oe_series, oebar_series_hypergeometric


FIRST_OE = [1, 1, 0, 2, 0, 2, 1, 3, 1, 3]
FIRST_OEBAR = [1, 2, 0, 4, 2, 4, 4, 8, 8, 10]


class TestOECounts:
    @pytest.mark.parametrize("n,expected", list(enumerate(FIRST_OE)))
    def test_small_values(self, n, expected):
        assert enum_oe(n) == expected

    def test_nine_listing(self):
        _, items = enum_oe(9, listing=True)
        assert {p.parts for p in items} == {(9,), (8, 1), (6, 3)}

    def test_counts_agree_with_series(self):
        series = oe_series(40)
        for n in range(41):
            assert enum_oe(n) == series.coefficient(n)

    def test_listing_length_matches_count(self):
        for n in range(15):
            count, items = enum_oe(n, listing=True)
            assert len(items) == count

    def test_listings_are_valid(self):
        for n in range(1, 20):
            _, items = enum_oe(n, listing=True)
            for part in items:
                up = part.parts[::-1]
                assert sum(up) == n
                assert up[0] % 2 == 1
                assert all(a < b for a, b in zip(up, up[1:]))
                assert all((b - a) % 2 == 1 for a, b in zip(up, up[1:]))

    def test_empty_partition_of_zero(self):
        count, items = enum_oe(0, listing=True)
        assert count == 1 and items[0].parts == ()


class TestOEBarCounts:
    @pytest.mark.parametrize("n,expected", list(enumerate(FIRST_OEBAR)))
    def test_small_values(self, n, expected):
        assert enum_oebar(n) == expected

    def test_three_listing(self):
        _, items = enum_oebar(3, listing=True)
        assert {(p.parts, p.overline_flags) for p in items} == {
            ((3,), (False,)),
            ((3,), (True,)),
            ((2, 1), (False, False)),
            ((2, 1), (True, False)),
        }

    def test_four_listing(self):
        _, items = enum_oebar(4, listing=True)
        assert {(p.parts, p.overline_flags) for p in items} == {
            ((3, 1), (True, True)),
            ((3, 1), (False, True)),
        }

    def test_counts_agree_with_series(self):
        series = oebar_series_hypergeometric(30)
        for n in range(31):
            assert enum_oebar(n) == series.coefficient(n)

    def test_listing_length_matches_count(self):
        for n in range(12):
            count, items = enum_oebar(n, listing=True)
            assert len(items) == count

    def test_listings_are_valid(self):
        for n in range(1, 16):
            _, items = enum_oebar(n, listing=True)
            for part in items:
                ps = part.parts[::-1]
                ov = part.overline_flags[::-1]
                assert sum(ps) == n
                assert ps[0] % 2 == 1
                assert all(a <= b for a, b in zip(ps, ps[1:]))
                for i in range(1, len(ps)):
                    gap_odd = (ps[i] - ps[i - 1]) % 2 == 1
                    assert gap_odd != ov[i - 1]
                    # only the top copy of an equal run may carry an overline
                    if ps[i] == ps[i - 1]:
                        assert not ov[i - 1]

    def test_str_marks_overlines(self):
        p = OEOverpartition(parts=(3, 1), overline_flags=(True, False))
        assert str(p) == "3~+1"


class TestStructuralProperties:
    @given(st.integers(min_value=0, max_value=60))
    @settings(max_examples=25, deadline=None)
    def test_count_nonnegative(self, n):
        assert enum_oe(n) >= 0

    def test_oe_weakly_increasing_on_odds(self):
        vals = [enum_oe(n) for n in range(1, 40, 2)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_oebar_counts_all_even(self):
        # for n >= 1 the overline on the smallest (odd) part toggles freely,
        # pairing the objects up
        for n in range(1, 25):
            assert enum_oebar(n) % 2 == 0

    def test_oe_is_oebar_without_overlines(self):
        # with no overline every gap is odd: the identity both enumerators share
        for n in range(26):
            _, oe = enum_oe(n, listing=True)
            _, oebar = enum_oebar(n, listing=True)
            plain = [p.parts for p in oebar if not any(p.overline_flags)]
            assert [p.parts for p in oe] == plain

    def test_listings_sorted_descending(self):
        for n in range(26):
            _, oe = enum_oe(n, listing=True)
            _, oebar = enum_oebar(n, listing=True)
            keys = [p.parts for p in oe]
            assert keys == sorted(keys, reverse=True)
            keys = [(p.parts, p.overline_flags) for p in oebar]
            assert keys == sorted(keys, reverse=True)

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            enum_oe(-1)
        with pytest.raises(ValueError):
            enum_oebar(-3)

    def test_validation_rejects_bad_chain(self):
        with pytest.raises(ValueError):
            OEPartition(parts=(3, 2))

    @pytest.mark.parametrize("parts", [(2,), (1, 3), (5, 3, 1)])
    def test_validation_rejects_bad_parts(self, parts):
        with pytest.raises(ValueError):
            OEPartition(parts=parts)

    def test_validation_survives_optimize_flag(self):
        # python -O strips assert statements; the checks must not be asserts
        code = (
            "from oepartitions.enumeration import OEPartition\n"
            "try:\n"
            "    OEPartition((2,))\n"
            "except ValueError:\n"
            "    raise SystemExit(0)\n"
            "raise SystemExit('OEPartition((2,)) was accepted')\n"
        )
        src = str(Path(oepartitions.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
