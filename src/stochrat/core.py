"""Rank-coded integer form of one stochastic choice function.

Every endpoint of a threshold set is a normalized likelihood or 0, so the
set work only ever compares likelihoods with each other.  :class:`SubjectCore`
replaces them by their ranks among the subject's distinct values, menus by
bitmasks over the sorted universe, and probabilities by each menu's own
integer row, never by a denominator common to several menus.  So the
analysis runs on small ints and converts back to ``Fraction`` only where an
:class:`~stochrat.intervals.IntervalUnion` comes out.

A core is built from a validated subject's integer rows, which it keeps as
``scaled`` without copying, and never changes; the subject builds it on
first use (``StochasticChoiceFunction.core``).  Sets of full-domain menus,
one bit per menu, are built per call (``menu_bitsets``) and not kept: at
n = 12 they hold a 4,096-bit int per distinct rank of each alternative.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .intervals import IntervalUnion, ascending, from_cells

_ZERO = Fraction(0)


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class SubjectCore:
    """Integer tables of one subject.

    * ``labels``: the universe in sorted order; alternative i is
      ``labels[i]`` (``index`` maps back) and bit i of a menu mask.
    * ``by_key``: the menu masks in ``menu_key`` order, which is the order
      of their ``members`` tuples.  ``menu_set`` maps a mask back to the
      subject's frozenset and ``members`` to its ascending indices.
    * ``cuts``: 0 followed by the sorted distinct positive normalized
      likelihoods (the last is 1).
      Threshold region h >= 1 is (cuts[h-1], cuts[h]].
    * ``rank[mask][i]``: rank of alternative i's likelihood on the menu
      (0 for non-members and for zero probability).
    * ``pair_rank[i][j]``: rank of i's likelihood on {i, j}, which orders
      the head-to-head probabilities (see :mod:`stochrat.measure`).
    * ``scaled[mask][i]``: the subject's integer row of the menu, taken as
      it is: numerators in lowest terms over the row's sum, one per
      alternative.  No integer of the core is longer than a row's entry.
    """

    def __init__(
        self, labels: Sequence[str], rows: Mapping[frozenset[str], Sequence[int]]
    ) -> None:
        n = len(labels)
        index = {label: i for i, label in enumerate(labels)}
        self.labels = tuple(labels)
        self.index = index
        self.n = n
        self.full = (1 << n) - 1

        self.menu_set: dict[int, frozenset[str]] = {}
        self.members: dict[int, tuple[int, ...]] = {}
        self.scaled: dict[int, Sequence[int]] = {}
        # x's likelihood on a menu is row[x] / max(row); key each positive
        # one by its reduced (num, den) pair
        keyed: dict[int, list[tuple[int, tuple[int, int]]]] = {}
        for menu, row in rows.items():
            members = tuple(sorted(index[x] for x in menu))
            mask = sum(1 << i for i in members)
            self.menu_set[mask] = menu
            self.members[mask] = members
            self.scaled[mask] = row
            top = max(row)
            row_keys = []
            for i in members:
                num = row[i]
                if num:
                    g = math.gcd(num, top)
                    row_keys.append((i, (num // g, top // g)))
            keyed[mask] = row_keys
        self.by_key = tuple(sorted(self.members, key=self.members.__getitem__))

        distinct = {key for row in keyed.values() for _, key in row}
        order = ascending(Fraction(*key) for key in distinct)
        self.cuts: tuple[Fraction, ...] = (_ZERO, *order)
        # a key is its value's reduced (numerator, denominator)
        rank_of = {(v.numerator, v.denominator): r for r, v in enumerate(order, 1)}
        self.rank: dict[int, list[int]] = {}
        for mask, row_keys in keyed.items():
            row_rank = [0] * n
            for i, key in row_keys:
                row_rank[i] = rank_of[key]
            self.rank[mask] = row_rank

        self.pair_rank = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            row_rank = self.rank[1 << i | 1 << j]
            self.pair_rank[i][j], self.pair_rank[j][i] = row_rank[i], row_rank[j]

    def supersets(self, mask: int) -> Iterator[int]:
        """Proper supersets of a menu mask within the universe."""
        rest = self.full ^ mask
        extra = rest
        while extra:
            yield mask | extra
            extra = (extra - 1) & rest

    def menu_bitsets(self) -> tuple[list[int], int, list[list[tuple[int, int]]]]:
        """Sets of menus as ints, bit T standing for menu mask T: ``has[d]``,
        the masks that contain d; ``wide``, the menus of three or more
        members; and ``ladders[x]``, for each distinct positive rank r of x,
        ascending, (r, the menus T of rank(x, T) >= r).  Empty unless every
        mask of two or more bits is a menu, as on the full domain: on the
        pairwise domain no menu lies in another, and bit T of a mask over 64
        alternatives would need 2^64 bits."""
        n, size, rank = self.n, 1 << self.n, self.rank
        if len(self.by_key) < size - n - 1:
            return [], 0, []
        # bit d of the masks runs in blocks of 2^d zeros and 2^d ones
        has = [
            int(("1" * (1 << d) + "0" * (1 << d)) * (size >> d >> 1), 2)
            for d in range(n)
        ]
        wide = sum(1 << menu for menu in self.by_key if len(self.members[menu]) >= 3)
        ladders = []
        for x in range(n):
            at: dict[int, int] = {}  # x's rank -> the menus where x has it
            for menu in self.by_key:
                if rank[menu][x]:
                    at[rank[menu][x]] = at.get(rank[menu][x], 0) | 1 << menu
            top_down = sorted(at, reverse=True)
            ors = itertools.accumulate(map(at.get, top_down), int.__or__)
            ladders.append(list(zip(top_down, ors))[::-1])
        return has, wide, ladders

    def union_of(self, spans: Iterable[tuple[int, int]]) -> IntervalUnion:
        """Union of the intervals (cuts[lo], cuts[hi]] for rank pairs
        (lo, hi).  A difference array over the ranks counts the spans that
        cover each cell (cuts[c], cuts[c+1]], threshold region c + 1; the
        covered cells are one mask over ``cuts`` for
        :func:`~stochrat.intervals.from_cells`."""
        diff = [0] * len(self.cuts)
        for lo, hi in spans:
            if lo < hi:
                diff[lo] += 1
                diff[hi] -= 1
        mask = 0
        for c, depth in enumerate(itertools.accumulate(diff)):
            if depth:
                mask |= 1 << c
        return from_cells(self.cuts, mask)
