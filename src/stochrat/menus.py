"""Menus: nonempty sets of distinct alternative labels.

A menu is a ``frozenset`` of nonempty ``str`` labels.  Its canonical key is
its sorted label tuple, which is also the order of a menu's entries in an
integer row (:mod:`stochrat.scf`).  This module holds only what reading
data and building subjects need, so that neither loads the correspondence
code of :mod:`stochrat.choice`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, TypeVar

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
