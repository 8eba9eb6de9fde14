"""Menus: nonempty sets of distinct alternative labels.

A menu is a ``frozenset`` of nonempty ``str`` labels.  Its canonical key is
its sorted label tuple, which is also the order of a menu's entries in an
integer row (:mod:`stochrat.scf`).  This module holds only what reading
data and building subjects need: menus, and the :class:`MenuLayout` of a
menu set with :func:`bits`, its bitmask walk.  So neither loads the
correspondence code of :mod:`stochrat.choice` or the rank-coded core of
:mod:`stochrat.core`, which a subject builds on first use.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Mapping, Optional, Sequence, TypeVar

Menu = frozenset[str]
V = TypeVar("V")


def as_menu(items: Iterable[str]) -> Menu:
    """Normalize an iterable of labels into a menu, validating labels."""
    labels = list(items)
    if not labels:
        raise ValueError("a menu must contain at least one alternative")
    for label in labels:
        if not isinstance(label, str) or not label:
            raise ValueError(f"alternative labels must be nonempty strings: {label!r}")
    menu = frozenset(labels)
    if len(menu) != len(labels):
        raise ValueError(f"duplicate alternative in menu: {sorted(labels)}")
    return menu


def menu_key(menu: Menu) -> tuple[str, ...]:
    """Canonical sort key: the sorted label tuple."""
    return tuple(sorted(menu))


def sort_menus(menus: Iterable[Menu]) -> list[Menu]:
    """Menus in display order: by size, then by labels."""
    return sorted(menus, key=lambda m: (len(m), menu_key(m)))


def menu_str(menu: Menu) -> str:
    return "{" + ",".join(sorted(menu)) + "}"


def menu_table(
    table: Mapping[Iterable[str], V], universe: Optional[Iterable[str]] = None
) -> tuple[dict[Menu, V], tuple[str, ...]]:
    """``table`` keyed by validated menus, and the sorted universe: the
    given one, which must cover every menu, or the menus' labels.

    A frozenset whose labels all passed :func:`as_menu` in earlier menus
    is taken as it is; a menu may appear only once.
    """
    keyed: dict[Menu, V] = {}
    checked: set[str] = set()  # labels that passed as_menu
    for raw_menu, value in table.items():
        if type(raw_menu) is frozenset and raw_menu and raw_menu <= checked:
            menu = raw_menu
        else:
            menu = as_menu(raw_menu)
            checked |= menu
        if menu in keyed:
            raise ValueError(f"duplicate menu {menu_str(menu)}")
        keyed[menu] = value
    if universe is None:
        universe_set = checked
    else:
        universe_set = {str(x) for x in universe}
        if not checked <= universe_set:
            raise ValueError("universe does not cover all menu members")
    return keyed, tuple(sorted(universe_set))


def bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class MenuLayout:
    """The tables of a core that depend only on its menus, shared by every
    subject on the same menu set (:class:`~stochrat.dataset.ChoiceDataset`
    keeps one per distinct set; a subject built alone makes its own).

    * ``labels``: the universe in sorted order; alternative i is
      ``labels[i]`` (``index`` maps back) and bit i of a menu mask.
    * ``menus``: the menus, read once to build ``tables``.
    * ``tables``, built at the first core on the layout: ``mask``, each
      menu's bitmask; ``menu_set`` and ``members``, each mask's menu and
      its ascending indices; ``by_key``, the masks in ``menu_key`` order,
      which is the order of their ``members`` tuples; and ``pairs``, (i, j,
      mask of {i, j}) for i < j, in ``itertools.combinations`` order.
    """

    def __init__(self, labels: Sequence[str], menus: Iterable[Menu]) -> None:
        self.labels = tuple(labels)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.n = len(self.labels)
        self.full = (1 << self.n) - 1
        self.menus = menus

    @functools.cached_property
    def tables(self) -> tuple[dict, dict, dict, tuple[int, ...], tuple]:
        """(mask, menu_set, members, by_key, pairs)."""
        index = self.index
        mask = {menu: sum(1 << index[x] for x in menu) for menu in self.menus}
        members = {m: tuple(bits(m)) for m in mask.values()}
        pairs = tuple(
            (i, j, 1 << i | 1 << j) for i, j in itertools.combinations(range(self.n), 2)
        )
        by_key = tuple(sorted(members, key=members.__getitem__))
        return mask, {m: menu for menu, m in mask.items()}, members, by_key, pairs
