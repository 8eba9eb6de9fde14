"""Finite unions of half-open rational intervals inside (0, 1].

Every interval in this package is of the form (lo, hi] with exact rational
endpoints, 0 <= lo <= hi <= 1.  The half-open orientation is part of the
semantics of threshold sets (a threshold value sits in the interval whose
right endpoint it is) and is hard-coded rather than configurable.

:class:`IntervalUnion` is an immutable canonical form: component intervals
are nonempty, sorted, and pairwise disjoint with gaps between them, so two
unions are equal as sets exactly when they compare equal as values.

All set algebra runs on one encoding.  :func:`cell_masks` sorts the
distinct endpoints of some unions, and each union becomes an integer whose
bit c stands for the cell (ends[c], ends[c+1]].  Union, intersection,
difference and inclusion are then ``|``, ``&``, ``& ~`` and ``not a & ~b``,
and :func:`from_cells` turns each run of set bits back into one interval.
The endpoints are sorted by the float num / den, which Python rounds
correctly.  Correct rounding is monotone: it never puts two values in the
wrong order, it only maps some distinct values to one float, and only
those ties are settled by comparing the exact Fractions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .rationals import format_rational, to_probability
from .record import Record

_ZERO = Fraction(0)
_ONE = Fraction(1)
_set = object.__setattr__


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
        return cls.from_pairs([(lo, hi)])

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[Fraction, Fraction]]
    ) -> "IntervalUnion":
        """Check every endpoint, drop empty pairs, and merge the rest."""
        kept = []
        for lo, hi in pairs:
            lo = to_probability(lo, "interval endpoint")
            hi = to_probability(hi, "interval endpoint")
            if lo < hi:
                kept.append((lo, hi))
        ends, (mask,) = cell_masks([kept])
        return from_cells(ends, mask)

    # -- predicates ----------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    def contains(self, point: Fraction) -> bool:
        """Membership of a single threshold value, honoring (lo, hi]."""
        if type(point) is not Fraction and type(point) is not int:
            point = Fraction(point)
        for lo, hi in self.intervals:
            if lo < point <= hi:
                return True
            if hi >= point:
                break
        return False

    def is_subset(self, other: "IntervalUnion") -> bool:
        _, (mine, theirs) = cell_masks((self, other))
        return not mine & ~theirs

    # -- algebra -------------------------------------------------------

    def union(self, other: "IntervalUnion") -> "IntervalUnion":
        if not other.intervals:
            return self
        if not self.intervals:
            return other
        ends, (mine, theirs) = cell_masks((self, other))
        return from_cells(ends, mine | theirs)

    __or__ = union

    def intersection(self, other: "IntervalUnion") -> "IntervalUnion":
        ends, (mine, theirs) = cell_masks((self, other))
        return from_cells(ends, mine & theirs)

    __and__ = intersection

    def difference(self, other: "IntervalUnion") -> "IntervalUnion":
        ends, (mine, theirs) = cell_masks((self, other))
        return from_cells(ends, mine & ~theirs)

    def complement(self) -> "IntervalUnion":
        """Complement within the ambient interval (0, 1]."""
        return _UNIT.difference(self)

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


_UNIT = IntervalUnion(((_ZERO, _ONE),))


def cell_masks(
    unions: Sequence[Iterable[tuple[Fraction, Fraction]]],
) -> tuple[list[Fraction], list[int]]:
    """The unions' distinct endpoints in ascending order, and each union
    as a bitmask over the cells between them: bit c stands for
    (ends[c], ends[c+1]].  A union may be given as its list of nonempty
    (lo, hi] pairs, which may overlap or touch."""
    order = sorted(
        {end for union in unions for pair in union for end in pair},
        key=lambda v: (v.numerator / v.denominator, v),  # exact only on float ties
    )
    cell = {end: c for c, end in enumerate(order)}
    masks = []
    for union in unions:
        mask = 0
        for lo, hi in union:
            mask |= (1 << cell[hi]) - (1 << cell[lo])
        masks.append(mask)
    return order, masks


def from_cells(ends: Sequence[Fraction], mask: int) -> IntervalUnion:
    """The union of the cells (ends[c], ends[c+1]] whose bit c is set in
    ``mask``: each run of set bits is one interval."""
    pieces = []
    while mask:
        low = mask & -mask
        # adding the run's lowest bit clears the run and sets the bit above
        above = mask + low
        high = above & -above
        pieces.append((ends[low.bit_length() - 1], ends[high.bit_length() - 1]))
        mask &= above
    return IntervalUnion(tuple(pieces))
