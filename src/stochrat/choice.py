"""Deterministic choice correspondences and their rationality tests.

A choice correspondence maps each menu in its domain to a nonempty subset
of that menu.  Rationality here means consistency with *some* preorder
(reflexive and transitive, completeness not required): there must exist a
preorder whose maximal elements on every menu are exactly the chosen set.

For correspondences this is equivalent to three testable axioms, and the
equivalence is what :func:`is_rational` relies on:

* contraction consistency: anything chosen from a menu is still chosen
  from any present sub-menu it belongs to;
* pairwise-winner consistency: an alternative that is chosen in every
  present head-to-head against the members of a menu is chosen from that
  menu;
* no strict cycles: uniquely-revealed strict preference composes across
  pairs.

On restricted domains every quantifier runs over the menus that are
actually present.

The stronger demand that one *complete* preorder generates the
correspondence is decided by Richter's congruence axiom on the transitive
closure of revealed weak preference (:func:`is_totally_rational`).

The direct route from a stochastic choice function lives here too: its
threshold correspondence at one lambda, that correspondence's axiom
checks, and the ``--oracle`` check of the interval sets against them.
"""

from __future__ import annotations

import bisect
import itertools
from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Optional

from .errors import CapacityError, OracleMismatch
from .menus import Menu, as_menu, menu_str, menu_table, sort_menus
from .rationals import to_probability
from .record import Record
from .scf import StochasticChoiceFunction, threshold_cuts

if TYPE_CHECKING:
    from .measure import IrrationalitySets

HOUTMAN_MAKS_CAP = 20

# each axiom's key in reports and witnesses and its name in messages, in order
AXIOM_NAMES = {
    "chernoff": "contraction",
    "condorcet": "pairwise-winner",
    "transitivity": "cycle",
}


class ChoiceCorrespondence:
    """Menu -> chosen subset, with eager validation.

    ``universe`` defaults to the union of all menu members; it may be given
    explicitly when the correspondence is a restriction of something
    defined on a larger alternative set.
    """

    def __init__(
        self,
        choices: Mapping[Iterable[str], Iterable[str]],
        universe: Optional[Iterable[str]] = None,
    ) -> None:
        keyed, self._universe = menu_table(choices, universe)
        # kept in menu_key order (``sorted`` gives the same key as a list)
        self._table: dict[Menu, frozenset[str]] = {}
        for menu in sorted(keyed, key=sorted):
            chosen = frozenset(keyed[menu])
            if not chosen:
                raise ValueError(f"empty choice set for menu {menu_str(menu)}")
            if not chosen <= menu:
                stray = sorted(chosen - menu)
                raise ValueError(
                    f"chosen alternatives {stray} not in menu {menu_str(menu)}"
                )
            self._table[menu] = chosen

    @property
    def universe(self) -> tuple[str, ...]:
        return self._universe

    @property
    def domain(self) -> frozenset[Menu]:
        return frozenset(self._table)

    def menus(self) -> list[Menu]:
        return sort_menus(self._table)

    def choice(self, menu: Iterable[str]) -> frozenset[str]:
        key = as_menu(menu)
        try:
            return self._table[key]
        except KeyError:
            raise ValueError(f"menu {menu_str(key)} not in domain") from None

    def without(self, removed: Iterable[Menu]) -> "ChoiceCorrespondence":
        """Restriction of the correspondence to domain minus ``removed``."""
        gone = {as_menu(m) for m in removed}
        kept = {m: c for m, c in self._table.items() if m not in gone}
        return ChoiceCorrespondence(kept, universe=self._universe)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChoiceCorrespondence):
            return NotImplemented
        return self._universe == other._universe and self._table == other._table

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{menu_str(m)}->{menu_str(c)}" for m, c in self._table.items()
        )
        return f"ChoiceCorrespondence({inner})"


# -- axioms ------------------------------------------------------------


class AxiomReport(Record):
    """Outcome of the three axiom checks, with minimal witnesses.

    Witness shapes: contraction (sub_menu, menu, alternative); pairwise
    winner (menu, alternative); cycle (a, b, c).  Each witness is the
    lexicographically least violating tuple under the label ordering, or
    None when the axiom holds.
    """

    chernoff: bool
    chernoff_witness: Optional[tuple]
    condorcet: bool
    condorcet_witness: Optional[tuple]
    no_cycle: bool
    no_cycle_witness: Optional[tuple]

    @property
    def all_hold(self) -> bool:
        return self.chernoff and self.condorcet and self.no_cycle

    @property
    def failures(self) -> tuple[tuple[str, tuple], ...]:
        """(axiom, witness) for each violated axiom, keyed and ordered as
        in :data:`AXIOM_NAMES`."""
        found = self.chernoff_witness, self.condorcet_witness, self.no_cycle_witness
        return tuple((a, w) for a, w in zip(AXIOM_NAMES, found) if w is not None)

    def __bool__(self) -> bool:
        return self.all_hold


# The scans read the correspondence's table, which is validated and kept
# in menu_key order, so they yield violations in key order.  ``beats`` maps
# each label to the labels it beats alone on a pair of the domain.
_Beats = dict[str, set[str]]


def _beats(c: ChoiceCorrespondence) -> _Beats:
    beats: _Beats = {x: set() for x in c.universe}
    for menu, chosen in c._table.items():
        if len(menu) == 2 and len(chosen) == 1:
            (x,) = chosen
            beats[x] |= menu - chosen
    return beats


def _chernoff_violations(table: dict[Menu, Menu], beats: _Beats) -> Iterator[tuple]:
    top = max(map(len, table), default=0)
    for small, chosen_small in table.items():
        # skip a menu that loses nothing or that no menu contains
        if chosen_small == small or len(small) == top:
            continue
        for large, chosen_large in table.items():
            if small < large:
                for x in sorted((chosen_large & small) - chosen_small):
                    yield (small, large, x)


def _condorcet_violations(table: dict[Menu, Menu], beats: _Beats) -> Iterator[tuple]:
    # x is dropped from the menu, yet no member beats x alone
    for menu, chosen in table.items():
        for x in sorted(menu - chosen):
            if not any(x in beats[y] for y in menu):
                yield (menu, x)


def _cycle_violations(table: dict[Menu, Menu], beats: _Beats) -> Iterator[tuple]:
    for a, beaten in beats.items():
        for b in sorted(beaten):
            for z in sorted(beats[b] - beaten):
                if frozenset((a, z)) in table:
                    yield (a, b, z)


# contraction, pairwise winner, cycle composition: the order of the report
_SCANS = (_chernoff_violations, _condorcet_violations, _cycle_violations)


def check_axioms(c: ChoiceCorrespondence) -> AxiomReport:
    """Run all three axiom checks, collecting the least witness of each."""
    beats = _beats(c)
    chernoff_w, condorcet_w, cycle_w = (
        next(scan(c._table, beats), None) for scan in _SCANS
    )
    return AxiomReport(
        chernoff=chernoff_w is None,
        chernoff_witness=chernoff_w,
        condorcet=condorcet_w is None,
        condorcet_witness=condorcet_w,
        no_cycle=cycle_w is None,
        no_cycle_witness=cycle_w,
    )


def is_rational(c: ChoiceCorrespondence) -> bool:
    """True when some preorder generates the correspondence (axioms hold)."""
    beats = _beats(c)
    return all(next(scan(c._table, beats), None) is None for scan in _SCANS)


# -- threshold correspondences ------------------------------------------


def fishburn_correspondence(
    scf: StochasticChoiceFunction, lam: Fraction
) -> ChoiceCorrespondence:
    """Threshold correspondence: keep x in S when its normalized likelihood
    reaches ``lam``.

    At lam = 0 this is the support correspondence, and so it is at every
    threshold up to the smallest positive normalized likelihood,
    ``threshold_cuts(scf)[0]``: the ranks from 1 up are kept at each
    threshold in that range, which makes the family continuous at zero.
    """
    lam = to_probability(lam, "threshold")
    core = scf.core
    # likelihood >= lam  <=>  rank >= floor; at lam = 0 keep rank >= 1 (> 0)
    floor = max(1, bisect.bisect_left(core.cuts, lam))
    # in menu_key order, which the correspondence keeps
    table = {}
    for mask in core.by_key:
        row = core.rank[mask]
        table[core.menu_set[mask]] = frozenset(
            core.labels[i] for i in core.members[mask] if row[i] >= floor
        )
    return ChoiceCorrespondence(table, universe=scf.universe)


def is_lambda_rational(scf: StochasticChoiceFunction, lam: Fraction) -> AxiomReport:
    """Check whether the threshold correspondence at ``lam`` is rational.

    The report is true when all three axioms hold.  This runs the
    deterministic axiom checks on the constructed correspondence; it is
    deliberately independent of the interval-set route in
    :mod:`stochrat.measure`, so the two can cross-validate.
    """
    return check_axioms(fishburn_correspondence(scf, lam))


def check_threshold_sets(
    scf: StochasticChoiceFunction, sets: IrrationalitySets, subject: str
) -> None:
    """Raise :class:`OracleMismatch` unless each part of ``sets``, and
    their union, ends only at 0 and cuts (so it is fixed on each region
    (cuts[c-1], cuts[c]], as the correspondence is) and holds each cut
    exactly when direct axiom checking finds its axioms violated there."""
    parts = [
        (name, getattr(sets, axiom), {axiom}) for axiom, name in AXIOM_NAMES.items()
    ]
    parts.append(("irrationality", sets.union, set(AXIOM_NAMES)))
    cuts = threshold_cuts(scf)
    for name, part, _ in parts:
        stray = {end for pair in part.intervals for end in pair} - {0, *cuts}
        if stray:
            raise OracleMismatch(
                f"subject {subject}, {name} set has endpoint {min(stray)}, "
                "which is neither 0 nor a cut"
            )
    for lam in cuts:
        failed = {axiom for axiom, _ in is_lambda_rational(scf, lam).failures}
        for name, part, axioms in parts:
            if part.contains(lam) != bool(failed & axioms):
                raise OracleMismatch(
                    f"subject {subject}, {name} set and axiom checking "
                    f"disagree at {lam}"
                )


# -- preorders ----------------------------------------------------------


def _successors(
    universe: Iterable[str], pairs: Iterable[tuple[str, str]]
) -> tuple[tuple[str, ...], dict[str, set[str]]]:
    """The sorted universe, and per label the labels it is at least as good
    as: itself and those the pairs name.  The least pair outside the
    universe is an error."""
    labels = tuple(sorted({str(x) for x in universe}))
    succ = {x: {x} for x in labels}
    pairs = {(str(a), str(b)) for a, b in pairs}
    outside = [(a, b) for a, b in pairs if a not in succ or b not in succ]
    if outside:
        a, b = min(outside)
        raise ValueError(f"pair ({a},{b}) outside the universe")
    for a, b in pairs:
        succ[a].add(b)
    return labels, succ


class Preorder:
    """A reflexive transitive binary relation on a finite label set.

    ``pairs`` lists the related ordered pairs (a, b) meaning "a is at
    least as good as b".  The diagonal is added automatically;
    transitivity is validated, not repaired (see :meth:`closure`): the
    error names the least violating (a, b, c) in label order.
    """

    def __init__(self, universe: Iterable[str], pairs: Iterable[tuple[str, str]]):
        self._universe, self._succ = _successors(universe, pairs)
        for a, above in self._succ.items():
            for b in sorted(above):
                missing = self._succ[b] - above
                if missing:
                    c_ = min(missing)
                    raise ValueError(
                        f"relation is not transitive: ({a},{b}) and ({b},{c_}) "
                        f"present but ({a},{c_}) missing"
                    )

    @classmethod
    def closure(
        cls, universe: Iterable[str], pairs: Iterable[tuple[str, str]]
    ) -> "Preorder":
        """Build the smallest preorder containing ``pairs``, by one Warshall
        pass over the successor sets."""
        order = cls.__new__(cls)
        order._universe, order._succ = _successors(universe, pairs)
        for k, through in order._succ.items():
            for above in order._succ.values():
                if k in above:
                    above |= through
        return order

    @property
    def universe(self) -> tuple[str, ...]:
        return self._universe

    def geq(self, a: str, b: str) -> bool:
        return b in self._succ.get(a, ())

    def strictly_better(self, a: str, b: str) -> bool:
        return self.geq(a, b) and not self.geq(b, a)

    def maximal(self, menu: Iterable[str]) -> frozenset[str]:
        """Members of the menu not strictly dominated within it."""
        items = as_menu(menu)
        return frozenset(
            x for x in items if not any(self.strictly_better(y, x) for y in items)
        )


def max_correspondence(
    order: Preorder, menus: Iterable[Menu]
) -> ChoiceCorrespondence:
    """The correspondence choosing the maximal elements of each menu."""
    table = {menu: order.maximal(menu) for menu in menus}
    return ChoiceCorrespondence(table, universe=order.universe)


def is_totally_rational(c: ChoiceCorrespondence) -> bool:
    """True when some *complete* preorder generates the correspondence.

    Decided by Richter's congruence axiom (Econometrica 1966), exact on
    any domain: x is revealed at least as good as every member of a menu
    it is chosen from, and no menu may drop an alternative that the
    transitive closure of that relation ranks at least as good as one of
    the menu's chosen members.
    """
    above: dict[str, set[str]] = {x: set() for x in c.universe}
    for menu, chosen in c._table.items():
        for x in chosen:
            above[x] |= menu
    revealed = Preorder.closure(
        c.universe, ((x, y) for x, ys in above.items() for y in ys)
    )
    return not any(
        revealed.geq(x, y)
        for menu, chosen in c._table.items()
        for x in menu - chosen
        for y in chosen
    )


def houtman_maks(c: ChoiceCorrespondence) -> int:
    """Minimum number of menus to drop so the rest is rational.

    Exact search over removal sets in increasing cardinality; the domain
    size must not exceed ``HOUTMAN_MAKS_CAP``.  Returns 0 exactly when the
    correspondence is already rational.
    """
    menus = sort_menus(c.domain)
    if len(menus) > HOUTMAN_MAKS_CAP:
        raise CapacityError(
            f"menu-removal search is exact only up to {HOUTMAN_MAKS_CAP} menus; "
            f"got {len(menus)}"
        )
    if is_rational(c):
        return 0
    for k in range(1, len(menus) + 1):
        for removed in itertools.combinations(menus, k):
            if is_rational(c.without(removed)):
                return k
    # Unreachable: the empty domain is vacuously rational.
    raise AssertionError("removal search fell through")
