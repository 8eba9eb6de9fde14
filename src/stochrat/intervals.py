"""Finite unions of half-open rational intervals inside (0, 1].

Every interval in this package is of the form (lo, hi] with exact rational
endpoints, 0 <= lo <= hi <= 1.  The half-open orientation is part of the
semantics of threshold sets (a threshold value sits in the interval whose
right endpoint it is) and is hard-coded rather than configurable.

:class:`IntervalUnion` is an immutable canonical form: component intervals
are nonempty, sorted, and pairwise disjoint with gaps between them, so two
unions are equal as sets exactly when they compare equal as values.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .rationals import format_rational, parse_rational, to_probability
from .record import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)
_set = object.__setattr__


def _canonical(
    pairs: Iterable[tuple[Fraction, Fraction]],
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Check endpoints, drop empties, sort, and merge touching intervals."""
    kept = []
    for lo, hi in pairs:
        lo = to_probability(lo, "interval endpoint")
        hi = to_probability(hi, "interval endpoint")
        if lo < hi:
            kept.append((lo, hi))
    kept.sort()
    return _merge_sorted(kept)


def _merge_sorted(
    pairs: Iterable[tuple[Fraction, Fraction]],
) -> tuple[tuple[Fraction, Fraction], ...]:
    """Merge touching or overlapping neighbours of nonempty intervals
    sorted by their left ends."""
    merged: list[tuple[Fraction, Fraction]] = []
    for lo, hi in pairs:
        if merged and lo <= merged[-1][1]:
            prev_lo, prev_hi = merged[-1]
            if hi > prev_hi:
                merged[-1] = (prev_lo, hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


class IntervalUnion(Record):
    """Immutable union of disjoint half-open intervals (lo, hi] in (0, 1]."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    # -- construction -------------------------------------------------

    def __init__(self, intervals: tuple[tuple[Fraction, Fraction], ...] = ()):
        # The set algebra builds hundreds of unions per report: one store
        # here is half the cost of the base's generic argument binding.
        _set(self, "intervals", intervals)

    @classmethod
    def empty(cls) -> "IntervalUnion":
        return cls(())

    @classmethod
    def single(cls, lo: Fraction, hi: Fraction) -> "IntervalUnion":
        """The union containing just (lo, hi]; empty when lo >= hi."""
        return cls(_canonical([(lo, hi)]))

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Fraction, Fraction]]
    ) -> "IntervalUnion":
        return cls(_canonical(pairs))

    def insert(self, lo: Fraction, hi: Fraction) -> "IntervalUnion":
        """Return this union with (lo, hi] added.  Empty inputs are no-ops."""
        return self.union(IntervalUnion.single(lo, hi))

    # -- predicates ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, point: Fraction) -> bool:
        """Membership of a single threshold value, honoring (lo, hi]."""
        point = Fraction(point)
        for lo, hi in self.intervals:
            if lo < point <= hi:
                return True
            if hi >= point:
                break
        return False

    def is_subset(self, other: "IntervalUnion") -> bool:
        """Linear merge: each of our intervals must lie inside the first of
        ``other``'s that reaches its right end (components have gaps
        between them, so no other component can help)."""
        theirs = other.intervals
        j = 0
        for lo, hi in self.intervals:
            while j < len(theirs) and theirs[j][1] < hi:
                j += 1
            if j == len(theirs) or theirs[j][0] > lo:
                return False
        return True

    # -- algebra -------------------------------------------------------

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        """Linear merge of the two sorted component lists."""
        if not other.intervals:
            return self
        if not self.intervals:
            return other
        return IntervalUnion(
            _merge_sorted(heapq.merge(self.intervals, other.intervals))
        )

    __or__ = union

    def intersection(self, other: "IntervalUnion") -> "IntervalUnion":
        """Linear merge of the two sorted component lists.  Pieces cut from
        canonical inputs are sorted and separated by gaps already."""
        mine, theirs = self.intervals, other.intervals
        out = []
        i = j = 0
        while i < len(mine) and j < len(theirs):
            (alo, ahi), (blo, bhi) = mine[i], theirs[j]
            lo = max(alo, blo)
            hi = min(ahi, bhi)
            if lo < hi:
                out.append((lo, hi))
            if ahi < bhi:
                i += 1
            else:
                j += 1
        return IntervalUnion(tuple(out))

    __and__ = intersection

    def complement(self) -> "IntervalUnion":
        """Complement within the ambient interval (0, 1]."""
        gaps = []
        cursor = _ZERO
        for lo, hi in self.intervals:
            if cursor < lo:
                gaps.append((cursor, lo))
            cursor = hi
        if cursor < _ONE:
            gaps.append((cursor, _ONE))
        return IntervalUnion(tuple(gaps))

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        return self.intersection(other.complement())

    def measure(self) -> Fraction:
        """Total length, exact."""
        return sum((hi - lo for lo, hi in self.intervals), _ZERO)

    # -- iteration and rendering ----------------------------------------

    def __iter__(self) -> Iterator[tuple[Fraction, Fraction]]:
        return iter(self.intervals)

    def __str__(self) -> str:
        if not self.intervals:
            return "(empty)"
        parts = [
            f"({format_rational(lo)},{format_rational(hi)}]"
            for lo, hi in self.intervals
        ]
        return " ∪ ".join(parts)

    def to_json(self) -> list[list[str]]:
        """JSON-ready form: a list of ["lo", "hi"] rational strings."""
        return [
            [format_rational(lo), format_rational(hi)] for lo, hi in self.intervals
        ]

    @classmethod
    def from_json(cls, data: Sequence[Sequence[str]]) -> "IntervalUnion":
        pairs = []
        for item in data:
            if len(item) != 2:
                raise ValueError(f"interval entry must have two endpoints: {item!r}")
            pairs.append((parse_rational(item[0]), parse_rational(item[1])))
        return cls.from_pairs(pairs)


def cell_masks(unions: Sequence[IntervalUnion]) -> list[int]:
    """Each union as a bitmask over the cells between the unions' distinct
    endpoints, so that one union lies inside another exactly when
    ``a & ~b`` is 0.

    The endpoints are sorted once by their float, which is correctly
    rounded and so never inverts two values; equal floats fall back to the
    exact Fraction.  Bit c stands for (ends[c], ends[c+1]]."""
    ends = {end for union in unions for pair in union.intervals for end in pair}
    order = sorted(ends, key=lambda v: (v.numerator / v.denominator, v))
    cell = {end: c for c, end in enumerate(order)}
    masks = []
    for union in unions:
        mask = 0
        for lo, hi in union.intervals:
            mask |= (1 << cell[hi]) - (1 << cell[lo])
        masks.append(mask)
    return masks
