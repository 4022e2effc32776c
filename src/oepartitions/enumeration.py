"""Brute-force enumeration of odd-even partitions and overpartitions.

These enumerators work directly from the combinatorial definitions and are
deliberately independent of any series identity, so they can serve as
oracles for the generating-function module.  Costs are exponential-ish;
intended for n up to a few dozen.

Definitions.  An odd-even partition of n is a partition whose parts
alternate in parity scanning from the smallest part, which is odd.  An
odd-even overpartition is an overpartition (at most the first occurrence
of each value may be overlined) with smallest part odd, in which the
difference between successive parts, scanning from the smallest upward,
is odd when the smaller part of the pair is non-overlined and even when
it is overlined.  Within a run of equal parts the single overlined copy,
being the "first occurrence" in the usual nonincreasing notation, sits at
the top of the run when scanning upward.  Under that placement a repeated
part can never satisfy the difference rule (the lower copy of the pair is
non-overlined but the difference is 0), so all parts are in fact distinct;
the enumerator still checks the rule pairwise rather than assuming this.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class OEPartition:
    """Parts in nonincreasing order; smallest part odd, parities alternating."""

    parts: tuple

    def __post_init__(self):
        up = self.parts[::-1]
        if not up:
            return
        if not all(a <= b for a, b in zip(up, up[1:])):
            raise ValueError(f"parts {self.parts} are not in nonincreasing order")
        if up[0] % 2 != 1:
            raise ValueError(f"smallest part of {self.parts} is not odd")
        if not all((b - a) % 2 == 1 for a, b in zip(up, up[1:])):
            raise ValueError(f"parts {self.parts} do not alternate in parity")


@dataclass(frozen=True)
class OEOverpartition:
    """Parts in nonincreasing order with a parallel tuple of overline flags."""

    parts: tuple
    overline_flags: tuple

    def __str__(self):
        marks = [f"{p}~" if f else str(p) for p, f in zip(self.parts, self.overline_flags)]
        return "+".join(marks)


def enum_oe(n, listing=False):
    """Count (and optionally list) odd-even partitions of n.  OE(0) = 1 (empty)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    found = [] if listing else None
    count = _oe_rec(n, 1, 1, (), found)
    if n == 0:
        count = 1  # empty partition, by convention
    if listing:
        if n == 0:
            found.append(OEPartition(parts=()))
        found.sort(key=lambda p: p.parts, reverse=True)
        return count, found
    return count


def _oe_rec(remaining, min_part, parity, prefix, found):
    # next part p >= min_part, p = parity (mod 2)
    count = 0
    p = min_part if min_part % 2 == parity % 2 else min_part + 1
    while p <= remaining:
        if p == remaining:
            count += 1
            if found is not None:
                found.append(OEPartition(parts=tuple(reversed(prefix + (p,)))))
        else:
            count += _oe_rec(remaining - p, p + 1, 1 - parity, prefix + (p,), found)
        p += 2
    return count


def enum_oebar(n, listing=False):
    """Count (and optionally list) odd-even overpartitions of n.  OEbar(0) = 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    found = [] if listing else None
    if n == 0:
        count = 1
        if listing:
            found.append(OEOverpartition(parts=(), overline_flags=()))
    else:
        count = 0
        for parts, flags in _oebar_rec(n, 1, None, None, (), ()):
            count += 1
            if found is not None:
                found.append(
                    OEOverpartition(
                        parts=tuple(reversed(parts)),
                        overline_flags=tuple(reversed(flags)),
                    )
                )
    if listing:
        found.sort(key=lambda p: (p.parts, p.overline_flags), reverse=True)
        return count, found
    return count


def _oebar_rec(remaining, min_part, prev_part, prev_flag, parts, flags):
    """Yield (parts, flags) scanning upward from the smallest part.

    prev_flag is the overline flag of the previous (smaller) part; the
    difference rule constrains the parity of the gap to it.  The first part
    must be odd.  Within an equal run only the topmost copy may be overlined,
    so a non-final copy always carries flag False.
    """
    for p in range(min_part, remaining + 1):
        if prev_part is None:
            if p % 2 == 0:
                continue  # smallest part must be odd
        else:
            gap_odd = (p - prev_part) % 2 == 1
            if gap_odd == prev_flag:
                continue  # rule: gap odd iff the smaller part is non-overlined
            if p == prev_part and prev_flag:
                # Within an equal run the single overlined copy is the first
                # occurrence in nonincreasing notation, i.e. the top copy when
                # scanning upward, so a lower copy may not carry the overline.
                continue
        for flag in (False, True):
            if p == remaining:
                yield parts + (p,), flags + (flag,)
            else:
                yield from _oebar_rec(
                    remaining - p, p, p, flag, parts + (p,), flags + (flag,)
                )
