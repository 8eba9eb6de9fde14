"""Stochastic choice functions and their cut grid.

A stochastic choice function (SCF) assigns each menu a probability
distribution over its members.  Two domains are supported, and the menus
say which (any menu of three or more members makes the domain full):

* ``FULL``: every menu of size >= 2 over the universe (singletons are
  implicit and always pick their only member);
* ``PAIRWISE``: every two-element menu, as produced by binary choice
  experiments.

The central derived quantity is the *normalized likelihood* of x in S:
the choice probability of x divided by the largest choice probability in
S.  Thresholding it at lambda in (0, 1] yields a one-parameter family of
choice correspondences (the Fishburn family), shrinking as the threshold
rises; at lambda = 0 the correspondence is the support.  The family is
constant between consecutive cuts (:func:`threshold_cuts`); the
correspondences themselves are built in :mod:`stochrat.choice`.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
from enum import Enum
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .errors import CapacityError
from .menus import Menu, MenuLayout, as_menu, menu_str, menu_table, sort_menus
from .rationals import RationalLike, probability_row, to_probability

if TYPE_CHECKING:
    from .core import SubjectCore

FULL_UNIVERSE_CAP = 12
PAIRWISE_UNIVERSE_CAP = 64


class DomainKind(str, Enum):
    FULL = "full"
    PAIRWISE = "pairwise"

    def sizes(self, n: int) -> range:
        """The menu sizes of the domain over n alternatives."""
        return range(2, 3 if self is DomainKind.PAIRWISE else n + 1)

    def menu_count(self, n: int) -> int:
        """The number of menus of the domain over n alternatives."""
        return n * (n - 1) // 2 if self is DomainKind.PAIRWISE else 2**n - n - 1


def check_universe(
    n: int, kind: DomainKind, max_universe: Optional[int] = None
) -> None:
    """Raise unless a domain of the kind over n alternatives has at least
    its minimum of alternatives (ValueError) and at most its cap, or
    ``max_universe`` when given (CapacityError)."""
    if kind is DomainKind.FULL:
        minimum, cap = 3, FULL_UNIVERSE_CAP
    else:
        minimum, cap = 2, PAIRWISE_UNIVERSE_CAP
    if max_universe is not None:
        cap = max_universe
    if n < minimum:
        raise ValueError(
            f"{kind.value} domain needs at least {minimum} alternatives; got {n}"
        )
    if n > cap:
        raise CapacityError(
            f"universe of {n} alternatives exceeds the "
            f"{kind.value}-domain cap of {cap}"
        )


def required_menus(
    universe: Iterable[str], kind: DomainKind, max_universe: Optional[int] = None
) -> list[Menu]:
    """All menus the given domain kind must cover, in canonical order, once
    :func:`check_universe` passes the universe: none is built above the cap."""
    labels = sorted({str(x) for x in universe})
    check_universe(len(labels), kind, max_universe)
    return [
        frozenset(combo)
        for size in kind.sizes(len(labels))
        for combo in itertools.combinations(labels, size)
    ]


def missing_menus(
    universe: Iterable[str], kind: DomainKind, present: Iterable[Menu]
) -> str:
    """Names the first menu of the domain (canonical order) that
    ``present`` lacks, and counts the rest: ``"missing menu {x,z} and 8
    more"``; ``""`` when none is missing.

    ``present`` holds distinct subsets of the universe.  The count is
    arithmetic and only the first size with a gap is searched, so a large
    universe is never enumerated.
    """
    labels = sorted({str(x) for x in universe})
    n = len(labels)
    sizes = kind.sizes(n)
    present = set(present)
    have = collections.Counter(len(menu) for menu in present if len(menu) in sizes)
    for size in sizes:
        if have[size] < math.comb(n, size):
            break
    else:
        return ""
    first = next(
        menu
        for menu in map(frozenset, itertools.combinations(labels, size))
        if menu not in present
    )
    missing = kind.menu_count(n) - sum(have.values())
    more = f" and {missing - 1} more" if missing > 1 else ""
    return f"missing menu {menu_str(first)}{more}"


class StochasticChoiceFunction:
    """Validated menu-by-menu choice probabilities on a complete domain.

    ``probabilities`` maps menus to member -> probability mappings.
    Members omitted from a menu's mapping get probability zero.  Values
    may be Fractions, ints, or rational strings (parsed exactly).  The
    universe is the menus' labels and the domain kind is inferred from the
    menus; validation is eager: the domain over the universe must be
    complete for its kind, every menu must sum to one, and its size must
    respect the cap (``max_universe`` when given).

    Each menu is kept as one integer row, the form :meth:`from_rows`
    takes: the numerators of its probabilities in lowest terms, one per
    member in sorted label order, so that the row's sum is its scale.  The
    core reads these rows as they are.
    """

    def __init__(
        self,
        probabilities: Mapping[Iterable[str], Mapping[str, RationalLike]],
        *,
        max_universe: Optional[int] = None,
    ) -> None:
        table, labels = menu_table(probabilities)
        for menu, dist in table.items():
            values: dict[str, tuple[int, int]] = {}
            for alt, value in dist.items():
                if alt not in menu:
                    raise ValueError(
                        f"alternative {alt!r} not a member of menu {menu_str(menu)}"
                    )
                if type(value) is not Fraction or not (
                    0 <= value.numerator <= value.denominator
                ):
                    value = to_probability(
                        value, "probability", f" for {alt!r} in {menu_str(menu)}"
                    )
                values[alt] = value.numerator, value.denominator
            try:
                table[menu] = probability_row(values, sorted(menu))
            except ValueError as exc:
                raise ValueError(f"menu {menu_str(menu)}: {exc}") from None
        self._build(table, MenuLayout(labels, table), max_universe)

    @classmethod
    def from_rows(
        cls,
        rows: Mapping[Iterable[str], Sequence[int]],
        *,
        max_universe: Optional[int] = None,
        layout: Optional[MenuLayout] = None,
    ) -> "StochasticChoiceFunction":
        """The subject whose menus have the given integer rows: one
        nonnegative entry per member of the menu in sorted label order, in
        lowest terms; an entry over its row's sum is that member's
        probability.  Validated as by the constructor: a row of any other
        length, such as one entry per label of the universe, is an error
        that names the menu and the count it needs.

        ``layout``, when given, is the layout of exactly these menus, whose
        labels have passed :func:`~stochrat.menus.menu_table`: a dataset
        shares one among its subjects on equal menu sets.  The rows are
        checked all the same."""
        scf = cls.__new__(cls)
        if layout is None:
            table, labels = menu_table(rows)
            layout = MenuLayout(labels, table)
        else:
            table = dict(rows)
        scf._build(table, layout, max_universe)
        return scf

    def _build(
        self,
        table: dict[Menu, Sequence[int]],
        layout: MenuLayout,
        max_universe: Optional[int],
    ) -> None:
        """Validate the integer rows, infer the domain kind from the menus
        and check the domain, and keep the rows."""
        labels, n = layout.labels, layout.n
        for menu, row in table.items():
            if len(menu) < 2:
                raise ValueError(
                    f"menu {menu_str(menu)} has a single member; singleton "
                    "menus are implicit and must not be supplied"
                )
            row = table[menu] = tuple(row)
            if (
                len(row) != len(menu)
                or set(map(type, row)) != {int}
                or min(row) < 0
                or math.gcd(*row) != 1
            ):
                raise ValueError(
                    f"row of menu {menu_str(menu)} is not {len(menu)} nonnegative "
                    "integers in lowest terms, one per member"
                )

        # A two-label universe, where the kinds coincide, is pairwise.  Every
        # menu is a distinct subset of the universe with at least two members,
        # so the domain is complete exactly when its menus are as many as the
        # kind has.
        pairwise = all(len(menu) == 2 for menu in table)
        kind = DomainKind.PAIRWISE if pairwise else DomainKind.FULL
        if len(table) < kind.menu_count(n):
            raise ValueError(
                f"incomplete {kind.value} domain: " + missing_menus(labels, kind, table)
            )
        check_universe(n, kind, max_universe)

        self._kind = kind
        self._layout = layout
        self._rows: dict[Menu, tuple[int, ...]] = table

    # -- basic accessors ----------------------------------------------

    @property
    def universe(self) -> tuple[str, ...]:
        return self._layout.labels

    @property
    def domain_kind(self) -> DomainKind:
        return self._kind

    def menus(self) -> list[Menu]:
        return sort_menus(self._rows)

    @functools.cached_property
    def core(self) -> SubjectCore:
        """Rank-coded integer tables of this subject, built on first use.
        The first use also loads :mod:`stochrat.core` and the interval
        algebra, so reading data and building subjects compile neither."""
        from .core import SubjectCore

        return SubjectCore(self._layout, self._rows)

    def _row(self, menu: Iterable[str], x: Optional[str] = None) -> dict[str, int]:
        """The menu's members and their integer numerators, which sum to the
        row's scale (a singleton's only member gets 1); ``x``, when given,
        must be a member."""
        key = as_menu(menu)
        if x is not None and x not in key:
            raise ValueError(f"alternative {x!r} not in menu {menu_str(key)}")
        if len(key) == 1:
            return dict.fromkeys(key, 1)
        if key not in self._rows:
            raise ValueError(f"menu {menu_str(key)} not in domain")
        return dict(zip(sorted(key), self._rows[key]))

    def prob(self, x: str, menu: Iterable[str]) -> Fraction:
        """Choice probability of x from the menu (1 on singletons)."""
        nums = self._row(menu, x)
        return Fraction(nums[x], sum(nums.values()))

    def menu_probs(self, menu: Iterable[str]) -> dict[str, Fraction]:
        nums = self._row(menu)
        scale = sum(nums.values())
        return {x: Fraction(nums[x], scale) for x in sorted(nums)}

    def pair_prob(self, x: str, y: str) -> Fraction:
        """P(x beats y) on the two-element menu {x, y}."""
        return self.prob(x, (x, y))

    def normalized_likelihood(self, x: str, menu: Iterable[str]) -> Fraction:
        """Choice probability of x divided by the menu's best probability."""
        nums = self._row(menu, x)
        return Fraction(nums[x], max(nums.values()))

    def likelihood_row(self, menu: Menu) -> dict[str, Fraction]:
        nums = self._row(menu)
        top = max(nums.values())
        return {x: Fraction(nums[x], top) for x in sorted(nums)}

    def support(self, menu: Iterable[str]) -> frozenset[str]:
        return frozenset(x for x, num in self._row(menu).items() if num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StochasticChoiceFunction):
            return NotImplemented
        # the rows' menus fix the universe and the domain kind
        return self._rows == other._rows

    def __repr__(self) -> str:
        return (
            f"StochasticChoiceFunction(|X|={self._layout.n}, "
            f"kind={self._kind.value}, menus={len(self._rows)})"
        )


# -- the cut grid -------------------------------------------------------


def threshold_cuts(scf: StochasticChoiceFunction) -> tuple[Fraction, ...]:
    """Sorted distinct positive normalized likelihoods.

    These are the right endpoints of the maximal threshold regions on
    which the correspondence family is constant; the last cut is always 1.
    """
    return scf.core.cuts[1:]
