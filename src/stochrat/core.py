"""Rank-coded integer form of one stochastic choice function.

Every endpoint of a threshold set is a normalized likelihood or 0, so the
set work only ever compares likelihoods with each other.  :class:`SubjectCore`
replaces them by their ranks among the subject's distinct values, menus by
bitmasks over the sorted universe, and probabilities by each menu's own
integer row, one entry per member, never by a denominator common to
several menus.  Likelihoods are keyed by reduced (num, den) int pairs; the
cuts are the only ``Fraction``s a core makes.

A core is built on first use (``StochasticChoiceFunction.core``, which
is also the first to load this module) from a validated subject's integer
rows and its menus' :class:`~stochrat.menus.MenuLayout`, and never
changes.  Sets of full-domain menus, one bit per menu, are built per
call (``menu_bitsets``) and not kept: at n = 12 they hold a 4,096-bit int
per distinct rank of each alternative.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .intervals import IntervalUnion, from_cells
from .menus import MenuLayout


class SubjectCore:
    """Integer tables of one subject: its layout's (see
    :class:`~stochrat.menus.MenuLayout`:
    ``labels``, ``index``, ``n``, ``full``, ``menu_set``, ``members`` and
    ``by_key``) and its own values.

    * ``cuts``: 0 followed by the sorted distinct positive normalized
      likelihoods (the last is 1).
      Threshold region h >= 1 is (cuts[h-1], cuts[h]].
    * ``rank[mask][i]``: rank of alternative i's likelihood on the menu
      (0 for non-members and for zero probability).
    * ``pair_rank[i][j]``: rank of i's likelihood on {i, j}, which orders
      the head-to-head probabilities (see :mod:`stochrat.measure`).
    * ``scaled[mask][k]``: the subject's integer row of the menu, taken as
      it is: numerators in lowest terms over the row's sum, entry k for
      member ``members[mask][k]``.  No integer of the core is longer than
      a row's entry.
    """

    def __init__(
        self, layout: MenuLayout, rows: Mapping[frozenset[str], Sequence[int]]
    ) -> None:
        n = layout.n
        self.labels, self.index, self.n, self.full = (
            layout.labels, layout.index, n, layout.full
        )
        mask, self.menu_set, self.members, self.by_key, pairs = layout.tables
        members = self.members

        self.scaled: dict[int, Sequence[int]] = {}
        # x's likelihood on a menu is row[x] / max(row); key each positive
        # one by its reduced (num, den) pair
        keyed: dict[int, list[tuple[int, tuple[int, int]]]] = {}
        for menu, row in rows.items():
            m = mask[menu]
            self.scaled[m] = row
            top = max(row)
            row_keys = []
            for i, num in zip(members[m], row):
                if num:
                    g = math.gcd(num, top)
                    row_keys.append((i, (num // g, top // g)))
            keyed[m] = row_keys

        # num / den rounds correctly: the floats never reverse two keys but
        # may tie them, left in rows order; a tie out of order needs the exact sort
        distinct = dict.fromkeys(key for row in keyed.values() for _, key in row)
        order = sorted(distinct, key=lambda key: key[0] / key[1])
        if any(a * d >= c * b for (a, b), (c, d) in zip(order, order[1:])):
            order.sort(key=lambda key: Fraction(*key))
        self.cuts = (Fraction(0), *itertools.starmap(Fraction, order))
        rank_of = {key: r for r, key in enumerate(order, 1)}
        self.rank: dict[int, list[int]] = {}
        for m, row_keys in keyed.items():
            row_rank = [0] * n
            for i, key in row_keys:
                row_rank[i] = rank_of[key]
            self.rank[m] = row_rank

        self.pair_rank = [[0] * n for _ in range(n)]
        for i, j, m in pairs:
            row_rank = self.rank[m]
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
        (lo, hi): bits lo to hi - 1 of one mask over ``cuts`` stand for the
        cells (cuts[c], cuts[c+1]], threshold regions lo + 1 to hi, as in
        :func:`~stochrat.intervals.cell_masks`."""
        mask = 0
        for lo, hi in spans:
            if lo < hi:
                mask |= (1 << hi) - (1 << lo)
        return from_cells(self.cuts, mask)
