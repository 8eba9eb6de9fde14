"""Generators for standard stochastic choice models, with closed forms.

Every generator returns a fully validated
:class:`~stochrat.scf.StochasticChoiceFunction`, so model output can be
fed straight into the measurement pipeline.  Where a model family has a
known closed-form irrationality set (trembles, two-ranking mixtures) the
closed form is exposed next to the generator so tests can pit one against
the other.

Utilities are mappings from labels to rationals.  A model that breaks
ties by maximization (ranking mixtures, trembles) requires injective
utilities; proportional models (Luce and friends) only require positive
ones.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .choice import Preorder
from .intervals import IntervalUnion
from .menus import Menu, as_menu, menu_str
from .prng import SplitMix64
from .rationals import RationalLike, to_fraction, to_probability
from .scf import DomainKind, StochasticChoiceFunction, check_universe, required_menus

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)

Utility = dict[str, Fraction]


# -- utility plumbing -----------------------------------------------------


def as_utility(values: Mapping[str, RationalLike]) -> Utility:
    if not values:
        raise ValueError("utility must cover at least one alternative")
    return {
        str(label): to_fraction(value, "utility", f" of {label!r}")
        for label, value in values.items()
    }


def _require_positive(utility: Utility) -> None:
    for label, value in utility.items():
        if value <= _ZERO:
            raise ValueError(f"utility of {label!r} must be positive, got {value}")


def _require_injective(utility: Utility) -> None:
    if len(set(utility.values())) != len(utility):
        raise ValueError("utility must be injective (no ties)")


def _require_same_universe(utilities: Sequence[Utility]) -> tuple[str, ...]:
    keys = {tuple(sorted(u)) for u in utilities}
    if len(keys) != 1:
        raise ValueError("all utilities must cover the same alternatives")
    return keys.pop()


def _domain_menu(raw_menu: Iterable[str], labels: tuple[str, ...], what: str) -> Menu:
    """A menu a model's parameter is given for, which must lie in the full
    domain on ``labels``; ``what`` names the parameter in errors."""
    menu = as_menu(raw_menu)
    if len(menu) < 2 or not menu <= set(labels):
        raise ValueError(
            f"{what} for {menu_str(menu)}: not a menu of the full domain on "
            f"{menu_str(frozenset(labels))}"
        )
    return menu


def _argmax(utility: Utility, menu: Menu) -> str:
    """The first label, in sorted order, of greatest utility."""
    return max(sorted(menu), key=utility.__getitem__)


# -- proportional models ---------------------------------------------------


def luce(
    utility: Mapping[str, RationalLike], max_universe: Optional[int] = None
) -> StochasticChoiceFunction:
    """Proportional choice: P(x, S) = u(x) / sum of u over S."""
    return general_luce(utility, {}, max_universe=max_universe)


def general_luce(
    utility: Mapping[str, RationalLike],
    consideration: Mapping[Iterable[str], Iterable[str]],
    max_universe: Optional[int] = None,
) -> StochasticChoiceFunction:
    """Luce restricted to a consideration set per menu.

    ``consideration`` maps menus to the nonempty subsets actually
    weighed; menus not listed default to the whole menu.  Alternatives
    outside the consideration set get probability zero.
    """
    u = as_utility(utility)
    _require_positive(u)
    labels = tuple(sorted(u))
    chosen_sets: dict[Menu, frozenset[str]] = {}
    for raw_menu, raw_subset in consideration.items():
        menu = _domain_menu(raw_menu, labels, "consideration set")
        subset = frozenset(raw_subset)
        if not subset or not subset <= menu:
            raise ValueError(
                f"consideration set for {menu_str(menu)} must be a nonempty subset"
            )
        chosen_sets[menu] = subset
    table = {}
    for menu in required_menus(labels, DomainKind.FULL, max_universe):
        focus = chosen_sets.get(menu, menu)
        total = sum(u[x] for x in focus)
        table[menu] = {x: (u[x] / total if x in focus else _ZERO) for x in menu}
    return StochasticChoiceFunction(table, max_universe=max_universe)


def two_stage_luce(
    utility: Mapping[str, RationalLike],
    dominance: Iterable[tuple[str, str]],
    max_universe: Optional[int] = None,
) -> tuple[StochasticChoiceFunction, bool]:
    """Luce over the undominated part of each menu.

    ``dominance`` lists strict pairs (a, b): a dominates b.  The
    transitive closure is taken; a cycle is an error.  The second return
    value reports whether the utility is increasing along the dominance
    relation (the "proper" case, which forces an empty irrationality
    set).
    """
    u = as_utility(utility)
    _require_positive(u)
    labels = tuple(sorted(u))
    members = set(labels)
    strict = {(str(a), str(b)) for a, b in dominance}
    # in sorted order, so that the least pair outside is named
    for a, b in sorted(strict):
        if a not in members or b not in members:
            raise ValueError(f"dominance pair ({a},{b}) outside the universe")
    # the closure is reflexive, so a self-pair is checked apart
    order = Preorder.closure(labels, strict)
    if any(a == b or order.geq(b, a) for a, b in strict):
        raise ValueError("dominance relation has a cycle")

    # utility increases along the closure exactly when along every pair
    proper = all(u[a] > u[b] for a, b in strict)

    # the undominated members of each menu (nonempty: the relation is acyclic)
    focus = {
        menu: order.maximal(menu)
        for menu in required_menus(labels, DomainKind.FULL, max_universe)
    }
    return general_luce(u, focus, max_universe=max_universe), proper


# -- ranking mixtures -------------------------------------------------------


def uniform_drum(
    first: Mapping[str, RationalLike],
    second: Mapping[str, RationalLike],
    weight: RationalLike,
    max_universe: Optional[int] = None,
) -> StochasticChoiceFunction:
    """Two-ranking mixture with a menu-independent weight on the first."""
    theta = to_probability(weight, "mixture weight")
    menus = required_menus(as_utility(first), DomainKind.FULL, max_universe)
    weights = dict.fromkeys(menus, theta)
    return drum(first, second, weights, max_universe=max_universe)


def drum(
    first: Mapping[str, RationalLike],
    second: Mapping[str, RationalLike],
    weights: Mapping[Iterable[str], RationalLike],
    max_universe: Optional[int] = None,
) -> StochasticChoiceFunction:
    """Two-ranking mixture with a menu-dependent weight on the first.

    ``weights`` must cover every menu of the full domain explicitly;
    there is no default fill.
    """
    u = as_utility(first)
    v = as_utility(second)
    _require_injective(u)
    _require_injective(v)
    labels = _require_same_universe([u, v])
    theta_map: dict[Menu, Fraction] = {}
    for raw_menu, value in weights.items():
        menu = _domain_menu(raw_menu, labels, "weight")
        theta_map[menu] = to_probability(value, "weight", f" for {menu_str(menu)}")
    table = {}
    for menu in required_menus(labels, DomainKind.FULL, max_universe):
        if menu not in theta_map:
            raise ValueError(f"no weight given for menu {menu_str(menu)}")
        theta = theta_map[menu]
        row = {x: _ZERO for x in menu}
        row[_argmax(u, menu)] += theta
        row[_argmax(v, menu)] += _ONE - theta
        table[menu] = row
    return StochasticChoiceFunction(table, max_universe=max_universe)


def rum(
    components: Sequence[tuple[Mapping[str, RationalLike], RationalLike]],
    max_universe: Optional[int] = None,
) -> StochasticChoiceFunction:
    """Finite mixture of rankings: each component is (utility, weight).

    Weights must be positive and sum to one.  Components are sorted by
    decreasing weight (stable), matching the convention that the first
    component carries the largest weight.
    """
    if not components:
        raise ValueError("a ranking mixture needs at least one component")
    parsed: list[tuple[Utility, Fraction]] = []
    for index, (raw_utility, raw_weight) in enumerate(components):
        utility = as_utility(raw_utility)
        _require_injective(utility)
        weight = to_fraction(raw_weight, "weight", f" of component {index}")
        if weight <= _ZERO:
            raise ValueError(f"component weight {weight} must be positive")
        parsed.append((utility, weight))
    labels = _require_same_universe([u for u, _ in parsed])
    total = sum(w for _, w in parsed)
    if total != _ONE:
        raise ValueError(f"component weights sum to {total}, not 1")
    order = sorted(range(len(parsed)), key=lambda i: (-parsed[i][1], i))
    parsed = [parsed[i] for i in order]
    table = {}
    for menu in required_menus(labels, DomainKind.FULL, max_universe):
        row = {x: _ZERO for x in menu}
        for utility, weight in parsed:
            row[_argmax(utility, menu)] += weight
        table[menu] = row
    return StochasticChoiceFunction(table, max_universe=max_universe)


# -- consistency predicates for ranking mixtures ----------------------------


def consistent_over_triplets(
    first: Mapping[str, RationalLike], second: Mapping[str, RationalLike]
) -> bool:
    """No triple is ranked x > y > z by the first utility and exactly
    reversed by the second, which is :func:`consistent_over_tuples` for
    two utilities."""
    return consistent_over_tuples([first, second])


def consistent_over_tuples(utilities: Sequence[Mapping[str, RationalLike]]) -> bool:
    """Generalization to n utilities over (n+1)-tuples.

    Fails when distinct x, x_1, ..., x_n exist such that every utility j
    puts its own x_j strictly above x and x strictly above all the other
    x_i.  Vacuously true when the universe is too small.
    """
    parsed = [as_utility(u) for u in utilities]
    labels = _require_same_universe(parsed)
    n = len(parsed)
    if len(labels) < n + 1:
        return True
    for x in labels:
        others = [lab for lab in labels if lab != x]
        for assignment in itertools.permutations(others, n):
            ok = True
            for j, u in enumerate(parsed):
                if u[assignment[j]] <= u[x]:
                    ok = False
                    break
                if any(u[x] <= u[assignment[i]] for i in range(n) if i != j):
                    ok = False
                    break
            if ok:
                return False
    return True


def lead_consistent_over_triplets(
    utilities: Sequence[Mapping[str, RationalLike]],
) -> bool:
    """No triple is ranked x > y > z by the first utility and exactly
    reversed by all the remaining utilities at once."""
    parsed = [as_utility(u) for u in utilities]
    if len(parsed) < 2:
        return True
    labels = _require_same_universe(parsed)
    lead = parsed[0]
    for x, y, z in itertools.permutations(labels, 3):
        if lead[x] > lead[y] > lead[z] and all(
            u[z] > u[y] > u[x] for u in parsed[1:]
        ):
            return False
    return True


def lead_chain_consistent(utilities: Sequence[Mapping[str, RationalLike]]) -> bool:
    """Whenever the first utility ranks x > y > z, every utility ranks x
    strictly above z."""
    parsed = [as_utility(u) for u in utilities]
    labels = _require_same_universe(parsed)
    lead = parsed[0]
    for x, y, z in itertools.permutations(labels, 3):
        if lead[x] > lead[y] > lead[z]:
            if any(u[x] <= u[z] for u in parsed):
                return False
    return True


def uniform_drum_irrationality(
    first: Mapping[str, RationalLike],
    second: Mapping[str, RationalLike],
    weight: RationalLike,
) -> IntervalUnion:
    """Closed-form irrationality set of a two-ranking mixture.

    Requires the weight on the first ranking to be at least one half
    (swap the rankings otherwise).  Consistent rankings give the empty
    set; inconsistent ones give (0, (1-w)/w].
    """
    theta = to_fraction(weight, "mixture weight")
    if theta < _HALF or theta > _ONE:
        raise ValueError(
            "closed form needs the first-ranking weight in [1/2, 1]; "
            "swap the rankings otherwise"
        )
    if consistent_over_triplets(first, second):
        return IntervalUnion.empty()
    return IntervalUnion.single(_ZERO, (_ONE - theta) / theta)


# -- trembles ---------------------------------------------------------------


def tremble(
    utility: Mapping[str, RationalLike],
    alpha: RationalLike,
    max_universe: Optional[int] = None,
) -> StochasticChoiceFunction:
    """Maximize with probability alpha, otherwise pick uniformly."""
    u = as_utility(utility)
    _require_injective(u)
    a = to_probability(alpha, "tremble weight")
    table = {}
    for menu in required_menus(u, DomainKind.FULL, max_universe):
        noise = (_ONE - a) / len(menu)
        row = {x: noise for x in menu}
        row[_argmax(u, menu)] += a
        table[menu] = row
    return StochasticChoiceFunction(table, max_universe=max_universe)


def tremble_irrationality(size: int, alpha: RationalLike) -> IntervalUnion:
    """Closed-form irrationality set of a tremble on ``size`` alternatives:
    ((1-a)/(1+(size-1)a), (1-a)/(1+a)].  Empty exactly at a in {0, 1}."""
    if size < 3:
        raise ValueError("closed form needs at least 3 alternatives")
    a = to_probability(alpha, "tremble weight")
    lo = (_ONE - a) / (_ONE + (size - 1) * a)
    hi = (_ONE - a) / (_ONE + a)
    return IntervalUnion.single(lo, hi)


def tremble_index(size: int, alpha: RationalLike) -> Fraction:
    """Closed-form rationality index of a tremble."""
    return _ONE - tremble_irrationality(size, alpha).measure()


# -- pairwise moderate-utility models ----------------------------------------


def mum_response_table(
    arguments: Iterable[RationalLike],
) -> dict[Fraction, Fraction]:
    """Build a strictly increasing odd response table covering ``arguments``.

    The table always contains 0 -> 1/2 and, for the i-th largest positive
    magnitude t, t -> 1/2 + i/(2(m+1)) with the mirrored value at -t.
    Handy for constructing pairwise models whose response function only
    ever gets evaluated on finitely many points.
    """
    magnitudes = sorted(
        {abs(to_fraction(a, "response argument")) for a in arguments} - {_ZERO}
    )
    table = {_ZERO: _HALF}
    m = len(magnitudes)
    for i, t in enumerate(magnitudes, start=1):
        step = Fraction(i, 2 * (m + 1))
        table[t] = _HALF + step
        table[-t] = _HALF - step
    return table


def mum_pairwise(
    utility: Mapping[str, RationalLike],
    metric: Mapping[Iterable[str], RationalLike],
    response: Mapping[RationalLike, RationalLike],
    max_universe: Optional[int] = None,
) -> StochasticChoiceFunction:
    """Pairwise choice driven by utility differences scaled by similarity.

    P(x over y) = F((u(x) - u(y)) / d(x, y)) where d is a metric on the
    alternatives and F is strictly increasing with F(t) + F(-t) = 1.  The
    response table must contain every realized argument exactly; there is
    no interpolation.
    """
    u = as_utility(utility)
    labels = tuple(sorted(u))

    distances: dict[Menu, Fraction] = {}
    for raw_pair, value in metric.items():
        pair = as_menu(raw_pair)
        if len(pair) != 2:
            raise ValueError(f"metric key {menu_str(pair)} is not a pair")
        d = to_fraction(value, "distance", f" of {menu_str(pair)}")
        if d <= _ZERO:
            raise ValueError(f"distance of {menu_str(pair)} must be positive")
        distances[pair] = d
    for x, y in itertools.combinations(labels, 2):
        if frozenset((x, y)) not in distances:
            raise ValueError(f"metric is missing the pair {menu_str(frozenset((x, y)))}")
    check_universe(len(labels), DomainKind.PAIRWISE, max_universe)
    for x, y, z in itertools.permutations(labels, 3):
        if (
            distances[frozenset((x, z))]
            > distances[frozenset((x, y))] + distances[frozenset((y, z))]
        ):
            raise ValueError(
                f"triangle inequality fails on ({x},{y},{z})"
            )

    table_f: dict[Fraction, Fraction] = {}
    for raw_arg, raw_value in response.items():
        arg = to_fraction(raw_arg, "response argument")
        table_f[arg] = to_probability(raw_value, "response value", f" at {arg}")
    for arg, value in table_f.items():
        if -arg not in table_f or table_f[-arg] != _ONE - value:
            raise ValueError(
                f"response table is not odd-symmetric at argument {arg}"
            )
    args_sorted = sorted(table_f)
    for a, b in zip(args_sorted, args_sorted[1:]):
        if table_f[a] >= table_f[b]:
            raise ValueError("response table must be strictly increasing")

    table = {}
    for x, y in itertools.combinations(labels, 2):
        pair = frozenset((x, y))
        arg = (u[x] - u[y]) / distances[pair]
        if arg not in table_f:
            raise ValueError(
                f"response table has no entry for realized argument {arg} "
                f"on {menu_str(pair)}"
            )
        table[pair] = {x: table_f[arg], y: _ONE - table_f[arg]}
    return StochasticChoiceFunction(table, max_universe=max_universe)


# -- seeded random instances --------------------------------------------------


def random_scf(
    seed: int,
    universe: Iterable[str],
    denominator_bound: int = 20,
    domain_kind: DomainKind = DomainKind.FULL,
    max_universe: Optional[int] = None,
) -> StochasticChoiceFunction:
    """Seeded random stochastic choice function.

    Menus are visited in canonical order; each member (in label order)
    draws an integer weight in [0, denominator_bound] and the menu is
    normalized exactly.  An all-zero draw puts weight one on the first
    member.  A bound below 2 is rejected as degenerate.  The stream comes
    from :class:`~stochrat.prng.SplitMix64`, so a seed pins the instance.
    """
    if denominator_bound < 2:
        raise ValueError("denominator_bound below 2 is degenerate")
    menus = required_menus(universe, DomainKind(domain_kind), max_universe)
    gen = SplitMix64(seed)
    table = {}
    for menu in menus:
        members = sorted(menu)
        weights = [gen.below(denominator_bound + 1) for _ in members]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        table[menu] = {x: Fraction(w, total) for x, w in zip(members, weights)}
    return StochasticChoiceFunction(table, max_universe=max_universe)


def random_ranking_utility(gen: SplitMix64, universe: Iterable[str]) -> Utility:
    """Random injective utility: a shuffled ranking encoded as 1..n."""
    labels = sorted({str(x) for x in universe})
    ranks = list(range(1, len(labels) + 1))
    gen.shuffle(ranks)
    return {label: Fraction(rank) for label, rank in zip(labels, ranks)}


def random_positive_utility(
    gen: SplitMix64, universe: Iterable[str], bound: int = 30
) -> Utility:
    """Random positive (not necessarily injective) utility with values in
    1..bound."""
    labels = sorted({str(x) for x in universe})
    return {label: Fraction(1 + gen.below(bound)) for label in labels}
