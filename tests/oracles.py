"""Independent reference implementations used to cross-check the library.

Everything here trades speed for obviousness: exhaustive enumeration over
preorders, permutations, or menus.  Keep these free of imports from the
modules they are meant to check (stochrat.choice internals, the swap DP),
so a bug cannot cancel itself out.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from fractions import Fraction

from stochrat import (
    ChoiceCorrespondence,
    DomainKind,
    IntervalUnion,
    SplitMix64,
    StochasticChoiceFunction,
)
from stochrat.core import SubjectCore
from stochrat.menus import MenuLayout

Relation = frozenset[tuple[str, str]]


def all_preorders(labels: tuple[str, ...]) -> list[Relation]:
    """Every reflexive transitive relation on the labels, by brute force.

    Feasible for up to 4 labels (2^12 candidate relations).
    """
    assert len(labels) <= 4, "preorder enumeration is exponential"
    reflexive = {(a, a) for a in labels}
    off_diagonal = [
        (a, b) for a in labels for b in labels if a != b
    ]
    found = []
    for bits in range(1 << len(off_diagonal)):
        relation = set(reflexive)
        for i, pair in enumerate(off_diagonal):
            if bits & (1 << i):
                relation.add(pair)
        if _is_transitive(relation, labels):
            found.append(frozenset(relation))
    return found


def _is_transitive(relation: set[tuple[str, str]], labels: tuple[str, ...]) -> bool:
    for a, b in relation:
        for c in labels:
            if (b, c) in relation and (a, c) not in relation:
                return False
    return True


def maximals(menu: frozenset[str], relation: Relation) -> frozenset[str]:
    return frozenset(
        x
        for x in menu
        if not any(
            (y, x) in relation and (x, y) not in relation for y in menu
        )
    )


def rationalized_by(corr: ChoiceCorrespondence, relation: Relation) -> bool:
    return all(corr.choice(menu) == maximals(menu, relation) for menu in corr.menus())


def rationalizable_bruteforce(corr: ChoiceCorrespondence) -> bool:
    """Ground truth for rationalizability on universes of up to 4 labels."""
    labels = tuple(sorted(corr.universe))
    return any(rationalized_by(corr, rel) for rel in all_preorders(labels))


@functools.lru_cache(maxsize=None)
def weak_order_levels(universe: tuple[str, ...]) -> tuple[dict[str, int], ...]:
    """Every complete preorder on the universe, as label -> level maps.

    Level 0 is the best indifference class; each map is onto a contiguous
    level range, so the count for n labels is the n-th Fubini number.
    Kept per universe, since the differential tests reuse a few universes.
    """
    n = len(universe)
    return tuple(
        dict(zip(universe, assignment))
        for depth in range(n + 1)
        for assignment in itertools.product(range(depth), repeat=n)
        if len(set(assignment)) == depth
    )


def totally_rational_bruteforce(corr: ChoiceCorrespondence) -> bool:
    """Ground truth for total rationality: some weak order on the universe
    chooses its best level from every menu (4,683 weak orders at six
    labels, 47,293 at seven)."""
    # the largest menus first: they rule out the most weak orders
    targets = [(menu, corr.choice(menu)) for menu in corr.menus()[::-1]]
    for levels in weak_order_levels(corr.universe):
        for menu, chosen in targets:
            best = min(levels[x] for x in menu)
            if frozenset(x for x in menu if levels[x] == best) != chosen:
                break
        else:
            return True
    return False


def random_preorder(gen: SplitMix64, labels: tuple[str, ...]) -> Relation:
    """Transitive-reflexive closure of a random sprinkling of pairs."""
    return fixpoint_closure(
        labels, [(a, b) for a in labels for b in labels if a != b and gen.below(3) == 0]
    )


def fixpoint_closure(labels: tuple[str, ...], pairs) -> Relation:
    """The smallest reflexive transitive relation on the labels that holds
    ``pairs``, by a fixpoint over pairs x labels."""
    relation = {(a, a) for a in labels} | set(pairs)
    changed = True
    while changed:
        changed = False
        for a, b in list(relation):
            for c in labels:
                if (b, c) in relation and (a, c) not in relation:
                    relation.add((a, c))
                    changed = True
    return frozenset(relation)


def transitivity_error(labels: tuple[str, ...], pairs):
    """The message for the least (a, b, c) in label order with (a, b) and
    (b, c) in the pairs or the diagonal but (a, c) in neither; None when
    there is none."""
    relation = {(a, a) for a in labels} | set(pairs)
    for a, b, c in itertools.product(sorted(labels), repeat=3):
        if (a, b) in relation and (b, c) in relation and (a, c) not in relation:
            return (
                f"relation is not transitive: ({a},{b}) and ({b},{c}) "
                f"present but ({a},{c}) missing"
            )
    return None


def naive_swap_value(scf: StochasticChoiceFunction) -> Fraction:
    """Swap index by direct enumeration of all linear orders."""
    labels = sorted(scf.universe)
    best = None
    for order in itertools.permutations(labels):
        position = {label: i for i, label in enumerate(order)}
        cost = Fraction(0)
        for menu in scf.menus():
            for member, prob in scf.menu_probs(menu).items():
                above = sum(
                    1 for other in menu if position[other] < position[member]
                )
                cost += prob * above
        if best is None or cost < best:
            best = cost
    assert best is not None
    return best


def naive_swap_minimizers(
    scf: StochasticChoiceFunction,
) -> tuple[Fraction, list[tuple[str, ...]]]:
    """Swap index plus every optimal order, by direct enumeration."""
    labels = sorted(scf.universe)
    best = None
    winners: list[tuple[str, ...]] = []
    for order in itertools.permutations(labels):
        position = {label: i for i, label in enumerate(order)}
        cost = Fraction(0)
        for menu in scf.menus():
            for member, prob in scf.menu_probs(menu).items():
                above = sum(
                    1 for other in menu if position[other] < position[member]
                )
                cost += prob * above
        if best is None or cost < best:
            best = cost
            winners = [order]
        elif cost == best:
            winners.append(order)
    assert best is not None
    return best, winners


# -- the direct axiom scans and the dominance closure, written out -----------


def axiom_violations(corr: ChoiceCorrespondence) -> tuple[list, list, list]:
    """Every contraction, pairwise-winner and cycle violation, each list in
    the order of the library's scans (menus in menu_key order, labels
    sorted).  A dropped x violates the pairwise-winner axiom when each
    head-to-head pair with another member is absent or chooses x."""
    table = {menu: corr.choice(menu) for menu in sorted(corr.domain, key=sorted)}
    chernoff = [
        (small, large, x)
        for small in table
        for large in table
        if small < large
        for x in sorted((table[large] & small) - table[small])
    ]
    condorcet = []
    for menu, chosen in table.items():
        for x in sorted(menu - chosen):
            heads = (table.get(frozenset((x, y))) for y in menu if y != x)
            if all(pair is None or x in pair for pair in heads):
                condorcet.append((menu, x))

    def alone(x, y):
        return table.get(frozenset((x, y))) == {x}

    cycle = [
        (a, b, z)
        for a, b, z in itertools.product(corr.universe, repeat=3)
        if len({a, b, z}) == 3
        and alone(a, b)
        and alone(b, z)
        and not alone(a, z)
        and frozenset((a, z)) in table
    ]
    return chernoff, condorcet, cycle


def two_stage_focus(
    utility: dict[str, Fraction], dominance: list[tuple[str, str]]
) -> tuple[dict, bool]:
    """The undominated members of every menu and the "proper" flag of a
    two-stage Luce model, by a fixpoint closure of the strict pairs; the
    errors read as the library's."""
    labels = tuple(sorted(utility))
    strict = {(str(a), str(b)) for a, b in dominance}
    for a, b in strict:
        if a not in labels or b not in labels:
            raise ValueError(f"dominance pair ({a},{b}) outside the universe")
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(strict), repeat=2):
            if b == c and (a, d) not in strict:
                strict.add((a, d))
                changed = True
    if any(a == b for a, b in strict):
        raise ValueError("dominance relation has a cycle")
    focus = {
        frozenset(menu): [x for x in menu if not any((y, x) in strict for y in menu)]
        for size in range(2, len(labels) + 1)
        for menu in itertools.combinations(labels, size)
    }
    return focus, all(utility[a] > utility[b] for a, b in strict)


# -- threshold sets by the interval formulas, over Fractions ------------------
#
# These are the formulas and the exhaustive witness scans that the rank-coded
# core in stochrat.measure replaced.  They read only public accessors of the
# subject and never import stochrat.measure.


def chernoff_pairs(scf: StochasticChoiceFunction, full_pairs: bool = False) -> list:
    """(nlik(x, S), nlik(x, T)) for nested S within T and x in S; with
    ``full_pairs`` False only |T| = |S| + 1."""
    if scf.domain_kind is DomainKind.PAIRWISE:
        return []
    menus = scf.menus()
    pairs = []
    for large in menus:
        if len(large) < 3:
            continue
        row_large = scf.likelihood_row(large)
        smalls = (
            [small for small in menus if small < large]
            if full_pairs
            else [large - {dropped} for dropped in large]
        )
        for small in smalls:
            row_small = scf.likelihood_row(small)
            for x in small:
                pairs.append((row_small[x], row_large[x]))
    return pairs


def _condorcet_bound(scf: StochasticChoiceFunction, menu, x: str) -> Fraction:
    return min(scf.normalized_likelihood(x, (x, y)) for y in menu if y != x)


def condorcet_pairs(scf: StochasticChoiceFunction) -> list:
    if scf.domain_kind is DomainKind.PAIRWISE:
        return []
    pairs = []
    for menu in scf.menus():
        if len(menu) < 3:
            continue
        row = scf.likelihood_row(menu)
        for x in menu:
            pairs.append((row[x], _condorcet_bound(scf, menu, x)))
    return pairs


def _transitivity_span(scf: StochasticChoiceFunction, x: str, y: str, z: str):
    nlik = scf.normalized_likelihood
    return max(nlik(y, (x, y)), nlik(z, (y, z))), nlik(z, (x, z))


def transitivity_pairs(scf: StochasticChoiceFunction) -> list:
    return [
        _transitivity_span(scf, x, y, z)
        for x, y, z in itertools.permutations(scf.universe, 3)
    ]


def _menu_key(menu) -> tuple[str, ...]:
    return tuple(sorted(menu))


def least_chernoff_violation(scf: StochasticChoiceFunction, lam: Fraction):
    """Lexicographically least (S, T, x) by (menu_key(S), menu_key(T), x),
    scanning every ordered pair of menus."""
    best = None
    menus = scf.menus()
    for small in menus:
        row_small = scf.likelihood_row(small)
        for large in menus:
            if not small < large:
                continue
            row_large = scf.likelihood_row(large)
            for x in small:
                if row_small[x] < lam <= row_large[x]:
                    key = (_menu_key(small), _menu_key(large), x)
                    if best is None or key < best[0]:
                        best = (key, (small, large, x))
    return None if best is None else best[1]


def least_condorcet_violation(scf: StochasticChoiceFunction, lam: Fraction):
    best = None
    for menu in scf.menus():
        if len(menu) < 3:
            continue
        row = scf.likelihood_row(menu)
        for x in menu:
            if row[x] < lam <= _condorcet_bound(scf, menu, x):
                key = (_menu_key(menu), x)
                if best is None or key < best[0]:
                    best = (key, (menu, x))
    return None if best is None else best[1]


def least_transitivity_violation(scf: StochasticChoiceFunction, lam: Fraction):
    for x, y, z in itertools.permutations(scf.universe, 3):
        lo, hi = _transitivity_span(scf, x, y, z)
        if lo < lam <= hi:
            return (x, y, z)
    return None


def lambda_grid(scf: StochasticChoiceFunction) -> list[Fraction]:
    """The distinct positive normalized likelihoods (the cuts), read menu by
    menu, with the midpoints between consecutive ones and half the first:
    a point inside and the right end of every threshold region."""
    cuts = sorted(
        {
            value
            for menu in scf.menus()
            for value in scf.likelihood_row(menu).values()
            if value
        }
    )
    midpoints = [(a + b) / 2 for a, b in zip(cuts, cuts[1:])]
    return sorted([cuts[0] / 2, *cuts, *midpoints])


def reference_sets(scf: StochasticChoiceFunction) -> dict:
    """Per-axiom sets, their union and one (interval, axiom, detail)
    witness per maximal interval, tried in the order contraction,
    pairwise winner, cycle composition at the right endpoint."""
    ch = IntervalUnion.from_pairs(chernoff_pairs(scf))
    con = IntervalUnion.from_pairs(condorcet_pairs(scf))
    st = IntervalUnion.from_pairs(transitivity_pairs(scf))
    union = ch | con | st
    witnesses = []
    for lo, hi in union:
        if ch.contains(hi):
            witnesses.append(((lo, hi), "chernoff", least_chernoff_violation(scf, hi)))
        elif con.contains(hi):
            witnesses.append(((lo, hi), "condorcet", least_condorcet_violation(scf, hi)))
        else:
            witnesses.append(
                ((lo, hi), "transitivity", least_transitivity_violation(scf, hi))
            )
    return {
        "chernoff": ch,
        "condorcet": con,
        "transitivity": st,
        "union": union,
        "witnesses": tuple(witnesses),
    }


def _ratio_test(scf: StochasticChoiceFunction, contractions: bool) -> bool:
    if scf.domain_kind is DomainKind.PAIRWISE:
        return True
    menus = scf.menus()
    for large in menus:
        if len(large) < 3:
            continue
        for small in menus:
            if not small < large:
                continue
            probs_large = scf.menu_probs(large)
            probs_small = scf.menu_probs(small)
            ref, other = (
                (probs_large, probs_small) if contractions else (probs_small, probs_large)
            )
            for x, y in itertools.permutations(sorted(small), 2):
                if ref[x] > ref[y] and ref[y] * other[x] < other[y] * ref[x]:
                    return False
    return True


def selective_in_contractions(scf: StochasticChoiceFunction) -> bool:
    return _ratio_test(scf, contractions=True)


def selective_in_expansions(scf: StochasticChoiceFunction) -> bool:
    return _ratio_test(scf, contractions=False)


def transitivity_flags(scf: StochasticChoiceFunction) -> tuple[bool, ...]:
    """(weak, almost weak, moderate, almost moderate, strong) from the
    definitions, one Fraction lookup per pair probability."""
    half = Fraction(1, 2)
    flags = [True] * 5
    for x, y, z in itertools.permutations(scf.universe, 3):
        p_xy, p_yz, p_xz = scf.pair_prob(x, y), scf.pair_prob(y, z), scf.pair_prob(x, z)
        for strict, checks in ((False, (0, 2, 4)), (True, (1, 3))):
            premise = (p_xy > half and p_yz > half) if strict else (
                p_xy >= half and p_yz >= half
            )
            if not premise:
                continue
            bounds = {0: half, 1: half, 2: min(p_xy, p_yz), 3: min(p_xy, p_yz), 4: max(p_xy, p_yz)}
            for flag in checks:
                if p_xz < bounds[flag]:
                    flags[flag] = False
    return tuple(flags)


def triangular_witness(scf: StochasticChoiceFunction):
    """First ordered triple with P(x,y) + P(y,z) + P(z,x) > 2, or None."""
    for x, y, z in itertools.permutations(scf.universe, 3):
        if scf.pair_prob(x, y) + scf.pair_prob(y, z) + scf.pair_prob(z, x) > 2:
            return (x, y, z)
    return None


# -- pairwise structure by brute force over the core's tables ------------------
#
# The same formulas as above, on ``scf.core.pair_rank`` and on a table of the
# pair probabilities read once, so that every ordered triple can be scanned at
# n = 64.  These are the triple loops that stochrat.measure replaced by bitset
# sweeps, rank keys and a float filter.


def core_transitivity_set(scf: StochasticChoiceFunction) -> IntervalUnion:
    """Union over ordered (x, z) of (min over y of max(r[y][x], r[z][y]),
    r[z][x]] on the core's cuts."""
    core = scf.core
    r, cuts, n = core.pair_rank, core.cuts, core.n
    pairs = []
    for x, z in itertools.permutations(range(n), 2):
        middles = [max(r[y][x], r[z][y]) for y in range(n) if y != x and y != z]
        if middles and min(middles) < r[z][x]:
            pairs.append((cuts[min(middles)], cuts[r[z][x]]))
    return IntervalUnion.from_pairs(pairs)


def core_transitivity_witness(scf: StochasticChoiceFunction, hi: Fraction):
    """First ordered (x, y, z) with max(r[y][x], r[z][y]) < h <= r[z][x],
    where h is the rank of ``hi``."""
    core = scf.core
    r, h = core.pair_rank, core.cuts.index(hi)
    for x, y, z in itertools.permutations(range(core.n), 3):
        if max(r[y][x], r[z][y]) < h <= r[z][x]:
            return core.labels[x], core.labels[y], core.labels[z]
    return None


def pair_table(scf: StochasticChoiceFunction) -> list[list[Fraction]]:
    """``p[i][j]``: P(labels[i] over labels[j]) as a Fraction, from the
    pair's own row; 0 on the diagonal."""
    labels = sorted(scf.universe)
    return [
        [scf.pair_prob(x, z) if x != z else Fraction(0) for z in labels] for x in labels
    ]


def core_transitivity_flags(scf: StochasticChoiceFunction) -> tuple[bool, ...]:
    """(weak, almost weak, moderate, almost moderate, strong) over every
    ordered triple of the pair probabilities."""
    p, half = pair_table(scf), Fraction(1, 2)
    flags = [True] * 5
    for x, y, z in itertools.permutations(range(len(p)), 3):
        p_xy, p_yz, p_xz = p[x][y], p[y][z], p[x][z]
        if p_xy >= half and p_yz >= half:
            bounds = [half, None, min(p_xy, p_yz), None, max(p_xy, p_yz)]
            if p_xy > half and p_yz > half:
                bounds[1], bounds[3] = half, min(p_xy, p_yz)
            for flag, bound in enumerate(bounds):
                if bound is not None and p_xz < bound:
                    flags[flag] = False
    return tuple(flags)


def core_triangular_witness(scf: StochasticChoiceFunction):
    """First ordered triple whose cyclic sum of pair probabilities exceeds
    two, or None.  The sum a/A + b/B + c/C > 2 is cross-multiplied by the
    three pairs' denominators."""
    p = pair_table(scf)
    labels = sorted(scf.universe)
    for x, y, z in itertools.permutations(range(len(p)), 3):
        (a, A), (b, B), (c, C) = (
            (v.numerator, v.denominator) for v in (p[x][y], p[y][z], p[z][x])
        )
        if a * B * C + b * A * C + c * A * B > 2 * A * B * C:
            return labels[x], labels[y], labels[z]
    return None


def core_pairwise_reference(scf: StochasticChoiceFunction) -> dict:
    """Cycle set, its witnesses, the five flags and the triangular witness
    of a pairwise subject, by brute force on the integer tables."""
    cycle = core_transitivity_set(scf)
    return {
        "transitivity": cycle,
        "witnesses": tuple(
            ((lo, hi), "transitivity", core_transitivity_witness(scf, hi))
            for lo, hi in cycle
        ),
        "flags": core_transitivity_flags(scf),
        "triangular": core_triangular_witness(scf),
    }


# -- full-domain scans over the core's tables ----------------------------------
#
# The nested-menu loops that stochrat.measure replaced by first hits,
# one-element steps and menu bitsets, on the same rank-coded core, so that they
# run at n = 10.


def core_condorcet_set(scf: StochasticChoiceFunction) -> IntervalUnion:
    """The pairwise-winner set on the core, each bound the minimum of x's
    head-to-head ranks against the other members of the menu."""
    core = scf.core
    spans = []
    for menu in core.by_key:
        members = core.members[menu]
        if len(members) >= 3:
            row, pair = core.rank[menu], core.pair_rank
            spans += [(row[x], min(pair[x][y] for y in members if y != x)) for x in members]
    return core.union_of(spans)


def core_chernoff_set(scf: StochasticChoiceFunction) -> IntervalUnion:
    """The contraction part on the core, one span (rank(x, S), rank(x, T))
    for each wide T, each dropped member d and each x of S = T - {d}."""
    core = scf.core
    rank = core.rank
    spans = []
    for large in core.by_key:
        members = core.members[large]
        if len(members) >= 3:
            for dropped in members:
                row_small = rank[large ^ (1 << dropped)]
                spans += [(row_small[x], rank[large][x]) for x in members if x != dropped]
    return core.union_of(spans)


def core_chernoff_witness(scf: StochasticChoiceFunction, hi: Fraction):
    """Least (S, T, x) by (menu_key(S), menu_key(T), x) with rank(x, S) <
    h <= rank(x, T), where h is the rank of ``hi``: every superset of every
    menu in key order until the first S with a hit."""
    core = scf.core
    rank, members, h = core.rank, core.members, core.cuts.index(hi)
    for small in core.by_key:
        below = [x for x in members[small] if rank[small][x] < h]
        if not below:
            continue
        best = None
        for large in core.supersets(small):
            if best is None or members[large] < members[best]:
                if any(rank[large][x] >= h for x in below):
                    best = large
        if best is not None:
            x = next(x for x in below if rank[best][x] >= h)
            return core.menu_set[small], core.menu_set[best], core.labels[x]
    return None


def nested_ratios_kept(scf: StochasticChoiceFunction, contractions: bool) -> bool:
    """The selectivity scan over every nested pair S within T, on the
    subject's integer rows over the whole universe, for every subject: the
    route ``measure`` keeps for rows with zeros."""
    if scf.domain_kind is DomainKind.PAIRWISE:
        return True
    core = scf.core
    dense = dense_rows(scf)
    scaled = {m: dense[core.menu_set[m]] for m in core.by_key}
    for small in core.by_key:
        row_small = scaled[small]
        pairs = list(itertools.permutations(core.members[small], 2))
        for large in core.supersets(small):
            ref, other = (
                (scaled[large], row_small) if contractions else (row_small, scaled[large])
            )
            for x, y in pairs:
                if ref[x] > ref[y] and ref[y] * other[x] < other[y] * ref[x]:
                    return False
    return True


# -- the core on dense rows -----------------------------------------------------
#
# A dense row holds one entry per label of the universe, zero off the menu.
# The core built on dense rows, with a keying loop that reads each member at its
# index, is the reference for the core on member rows.


def dense_rows(scf: StochasticChoiceFunction) -> dict:
    """menu -> its integer row over the whole sorted universe: the menu's
    probabilities over the lcm of their denominators, zero off the menu."""
    rows = {}
    for menu in scf.menus():
        probs = scf.menu_probs(menu)
        scale = math.lcm(*(p.denominator for p in probs.values()))
        rows[menu] = tuple(
            int(probs[x] * scale) if x in menu else 0 for x in scf.universe
        )
    return rows


class DenseCore(SubjectCore):
    """:class:`~stochrat.core.SubjectCore` built on dense rows: ``scaled``
    holds them as they are, and each likelihood is read at its member's
    index.  Every other method is the core's own."""

    def __init__(self, layout: MenuLayout, rows: dict) -> None:
        n = layout.n
        self.labels, self.index, self.n, self.full = (
            layout.labels, layout.index, n, layout.full
        )
        mask, self.menu_set, self.members, self.by_key, pairs = layout.tables
        members = self.members

        self.scaled = {}
        keyed = {}
        for menu, row in rows.items():
            m = mask[menu]
            self.scaled[m] = row
            top = max(row)
            row_keys = []
            for i in members[m]:
                num = row[i]
                if num:
                    g = math.gcd(num, top)
                    row_keys.append((i, (num // g, top // g)))
            keyed[m] = row_keys

        distinct = dict.fromkeys(key for row in keyed.values() for _, key in row)
        order = sorted(distinct, key=lambda key: Fraction(*key))
        self.cuts = (Fraction(0), *itertools.starmap(Fraction, order))
        rank_of = {key: r for r, key in enumerate(order, 1)}
        self.rank = {}
        for m, row_keys in keyed.items():
            row_rank = [0] * n
            for i, key in row_keys:
                row_rank[i] = rank_of[key]
            self.rank[m] = row_rank

        self.pair_rank = [[0] * n for _ in range(n)]
        for i, j, m in pairs:
            row_rank = self.rank[m]
            self.pair_rank[i][j], self.pair_rank[j][i] = row_rank[i], row_rank[j]


def dense_core(scf: StochasticChoiceFunction) -> DenseCore:
    """The reference core of ``scf``, on its own layout and dense rows."""
    rows = dense_rows(scf)
    return DenseCore(MenuLayout(scf.universe, rows), rows)


# -- subject tables by plain Fraction formulas ----------------------------------
#
# What a subject built from the table ``probs`` (menu -> member -> Fraction,
# omitted members at zero) must hold, written out from the definitions:
# likelihood = probability / the menu's best probability, cuts = 0 and the
# sorted distinct positive likelihoods, ranks = positions among the cuts.


def likelihoods(probs: dict) -> dict:
    """menu -> member -> normalized likelihood, every member listed."""
    out = {}
    for menu, row in probs.items():
        full = {x: Fraction(row.get(x, 0)) for x in sorted(menu)}
        top = max(full.values())
        out[menu] = {x: p / top for x, p in full.items()}
    return out


def core_tables(probs: dict) -> dict:
    """Every table of the subject's rank-coded core, from ``probs``."""
    labels = tuple(sorted(set().union(*probs)))
    bit = {x: 1 << i for i, x in enumerate(labels)}
    mask_of = {menu: sum(bit[x] for x in menu) for menu in probs}
    lik = likelihoods(probs)
    cuts = (Fraction(0),) + tuple(
        sorted({v for row in lik.values() for v in row.values() if v > 0})
    )
    rank, scaled = {}, {}
    for menu, row in probs.items():
        dens = [Fraction(p).denominator for p in row.values()]
        scale = 1
        for d in dens:
            scale = scale * d // math.gcd(scale, d)
        rank[mask_of[menu]] = [
            cuts.index(lik[menu][x]) if x in menu else 0 for x in labels
        ]
        scaled[mask_of[menu]] = tuple(
            int(Fraction(row.get(x, 0)) * scale) for x in sorted(menu)
        )
    n = len(labels)
    pair_prob = [[None] * n for _ in range(n)]
    pair_rank = [[0] * n for _ in range(n)]
    for i, j in itertools.permutations(range(n), 2):
        menu = frozenset((labels[i], labels[j]))
        if menu in probs:
            pair_prob[i][j] = Fraction(probs[menu].get(labels[i], 0))
            pair_rank[i][j] = cuts.index(lik[menu][labels[i]])
    by_key = sorted(probs, key=lambda m: sorted(m))
    return {
        "labels": labels,
        "by_key": tuple(mask_of[m] for m in by_key),
        "menu_set": {mask_of[m]: m for m in probs},
        "members": {
            mask_of[m]: tuple(i for i, x in enumerate(labels) if x in m) for m in probs
        },
        "cuts": cuts,
        "rank": rank,
        "scaled": scaled,
        "pair_rank": pair_rank,
        "pair_prob": pair_prob,
    }


# the verdict from (left inside right, right inside left)
_VERDICT_NAMES = {
    (True, True): "Equivalent",
    (True, False): "LeftMoreRational",
    (False, True): "RightMoreRational",
    (False, False): "Incomparable",
}


def is_inside(small, big) -> bool:
    """Whether one interval union lies inside another, by membership alone:
    ``big`` must contain each endpoint of the two unions that ``small``
    contains.  That is exhaustive, because membership is constant on each
    (e, e'] between consecutive endpoints e < e', and neither union
    reaches below the least endpoint."""
    ends = {end for union in (small, big) for pair in union for end in pair}
    return all(big.contains(end) for end in ends if small.contains(end))


def compare_many_reference(unions: dict) -> dict:
    """Brute-force panel comparison of named irrationality sets.

    Classes group names whose sets contain each other, ordered by least
    member; inclusion is :func:`is_inside`; a cover edge (a, b) joins class
    representatives with a's set strictly inside b's and no class strictly
    between; each verdict of a pair in name order is judged from the two
    inclusions."""
    names = sorted(unions)

    def inside(a, b):
        return is_inside(unions[a], unions[b])

    classes: list[list[str]] = []
    for name in names:
        for group in classes:
            if inside(group[0], name) and inside(name, group[0]):
                group.append(name)
                break
        else:
            classes.append([name])
    reps = [group[0] for group in classes]

    def below(a, b):
        return inside(a, b) and not inside(b, a)

    edges = sorted(
        (a, b)
        for a, b in itertools.permutations(reps, 2)
        if below(a, b) and not any(below(a, c) and below(c, b) for c in reps)
    )
    verdicts = [
        (left, right, _VERDICT_NAMES[inside(left, right), inside(right, left)])
        for left, right in itertools.combinations(names, 2)
    ]
    return {
        "classes": tuple(map(tuple, classes)),
        "hasse_edges": tuple(edges),
        "verdicts": verdicts,
    }


def _exact(value: Fraction) -> str:
    return str(Fraction(value))


def _six_places(value: Fraction) -> str:
    """A value in [0, 1] to six places, half rounded up."""
    scaled = (2 * value.numerator * 10**6 + value.denominator) // (2 * value.denominator)
    return f"{scaled // 10**6}.{scaled % 10**6:06d}"


def _witness_json(witness) -> dict:
    lo, hi = witness.interval
    out: dict = {"interval": [_exact(lo), _exact(hi)], "axiom": witness.axiom}
    if witness.axiom == "chernoff":
        small, large, alternative = witness.detail
        out["menu"] = list(_menu_key(small))
        out["larger_menu"] = list(_menu_key(large))
        out["alternative"] = alternative
    elif witness.axiom == "condorcet":
        menu, alternative = witness.detail
        out["menu"] = list(_menu_key(menu))
        out["alternative"] = alternative
    else:
        out["triple"] = list(witness.detail)
    return out


def _subject_json(entry) -> dict:
    if not hasattr(entry, "sets"):
        return {
            "subject": entry.subject,
            "status": "error",
            "error": {"kind": entry.kind, "message": entry.message},
        }
    sets = entry.sets
    union = sets.union
    flags = entry.transitivity
    return {
        "subject": entry.subject,
        "status": "ok",
        "domain": entry.domain.value,
        "universe": list(entry.universe),
        "sets": {
            name: [[_exact(lo), _exact(hi)] for lo, hi in part]
            for name, part in (
                ("chernoff", sets.chernoff),
                ("condorcet", sets.condorcet),
                ("transitivity", sets.transitivity),
                ("irrationality", union),
            )
        },
        "rationality_index": {
            "exact": _exact(entry.index),
            "decimal": _six_places(entry.index),
        },
        "flags": {
            "maximally_rational": not union.intervals,
            "minimally_rational": union.measure() == 1,
            "weak_s_transitive": flags.weak,
            "almost_weak_s_transitive": flags.almost_weak,
            "moderate_s_transitive": flags.moderate,
            "almost_moderate_s_transitive": flags.almost_moderate,
            "strong_s_transitive": flags.strong,
            "triangular_condition": entry.triangular.holds,
            "selective_contractions": entry.selective_contractions,
            "selective_expansions": entry.selective_expansions,
        },
        "triangular_witness": (
            list(entry.triangular.witness) if entry.triangular.witness else None
        ),
        "witnesses": [_witness_json(w) for w in sets.witnesses],
    }


def report_json(report) -> str:
    """The JSON report as one ``json.dumps(doc, indent=2, ensure_ascii=False)``
    of the whole document, built from the report's records without
    ``stochrat.report``.  Each verdict is judged here from the inclusion of
    the two subjects' irrationality sets, pair by pair in name order; the
    classes and cover edges are taken as given."""
    config = report.config
    doc: dict = {
        "schema_version": 1,
        "settings": {
            "digits": 6,
            "oracle": config.oracle,
            "max_universe": config.max_universe,
        },
        "subjects": [_subject_json(entry) for entry in report.subjects],
    }
    comparison = report.comparison
    if comparison is not None:
        unions = {
            entry.subject: entry.sets.union
            for entry in report.subjects
            if hasattr(entry, "sets")
        }
        verdicts = []
        for left, right in itertools.combinations(sorted(unions), 2):
            verdict = _VERDICT_NAMES[
                is_inside(unions[left], unions[right]),
                is_inside(unions[right], unions[left]),
            ]
            verdicts.append({"left": left, "right": right, "verdict": verdict})
        doc["comparisons"] = {
            "verdicts": verdicts,
            "equivalence_classes": [list(group) for group in comparison.classes],
            "hasse_edges": [
                {"more_rational": above, "less_rational": below}
                for above, below in comparison.hasse_edges
            ],
        }
    return json.dumps(doc, indent=2, ensure_ascii=False) + "\n"
