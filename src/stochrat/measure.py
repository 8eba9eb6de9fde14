"""Threshold-set analysis of stochastic choice functions.

For each of the three rationality axioms there is an exactly computable
union of half-open intervals: the set of thresholds at which the
threshold correspondence violates that axiom.  Their union is the
*irrationality set*; its complement in (0, 1] is where the correspondence
is rational, and one minus its length is the *rationality index*.

Every endpoint is a normalized likelihood or 0, so all work runs on the
subject's rank-coded core (:mod:`stochrat.core`): likelihoods become their
ranks among the subject's distinct values and menus become bitmasks.  Each
axiom emits rank pairs (lo, hi]; a difference array over the ranks marks
the covered cells, and only runs of covered cells become exact Fraction
intervals.  A witness is the least violating tuple at the right end of a
maximal interval, with menus tried in ``menu_key`` order.  On the full
domain every mask of two or more bits is a menu, so the contraction part
and its witnesses read sets of menus as ints, bit T for menu T.

The selectivity checks walk nested menus on integer rows: each side of an
inequality multiplies one entry of each menu, so scaling a row by a
positive constant scales both sides alike and the comparison is exact.
With every row positive on its menu, one-element steps decide: a strict
premise P(x, .) > P(y, .) carries down each contraction step and up each
expansion step of a chain, and the ratio inequalities compose.  If every
row is the full menu's row scaled (Luce's IIA), no ratio moves at all.

No two menus share a denominator.  One side of each pair {x, z} has
likelihood 1, of rank top = len(cuts) - 1.  If x's side does, P(x over z) =
1 / (1 + z's likelihood) >= 1/2 falls as z's rank rises; otherwise it is
x's likelihood / (1 + x's likelihood) < 1/2 and rises with x's rank.  So
the key 2 top - rank(z) or rank(x) orders every P exactly, and P is 1/2 at
key top: the transitivity flags read only these keys.  The triangular test
P(y over z) - P(x over z) > 1 - P(x over y) adds values, so it reads each
pair's own row, as correctly rounded floats within 2^-54 of their values.
Each side takes one or two more float steps (a difference, a margin m off
or onto the bound), each rounding by at most 2^-53 as every operand lies in
[-1, 2], so each side is within 2^-51 of its exact value.  Outside m = 2^-48
of the bound the floats decide; inside it the test is exact, with the
three rows' sums cross-multiplied.
"""

from __future__ import annotations

import bisect
import itertools
from enum import Enum
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from .core import SubjectCore
from .intervals import IntervalUnion, cell_masks
from .menus import bits
from .record import Record
from .scf import DomainKind, StochasticChoiceFunction

_ONE = Fraction(1)


# -- the three axiom threshold sets --------------------------------------


def chernoff_set(
    scf: StochasticChoiceFunction, tables: Optional[tuple] = None
) -> IntervalUnion:
    """Thresholds at which contraction consistency fails.

    For nested menus S within T and x in S the violating thresholds are
    (nlik(x, S), nlik(x, T)].  Only pairs with |T| = |S| + 1 are needed:
    along any chain of one-element steps from S to T the steps' intervals
    cover (nlik(x, S), nlik(x, T)], so the union is the same.  The steps
    are tested on the core's menu bitsets, ``tables`` when the caller has
    built them (``SubjectCore.menu_bitsets``).
    """
    core = scf.core
    return core.union_of(_contraction_spans(tables or core.menu_bitsets()))


def _contraction_spans(tables: tuple) -> Iterator[tuple[int, int]]:
    """(the next lower rank or 0, r) for each distinct rank r of each x at
    which a one-element step violates: with K the menus T of rank(x, T) >=
    r, some wide T in K holds a d != x whose S = T - {d} is not in K.  The
    shift by 1 << d maps each T holding d to T - {d}."""
    has, wide, ladders = tables
    for x, ladder in enumerate(ladders):
        steps = [(with_d, 1 << d) for d, with_d in enumerate(has) if d != x]
        lower = 0
        for r, k in ladder:
            k_wide = k & wide
            for with_d, shift in steps:
                smaller = (k_wide & with_d) >> shift
                if smaller & k != smaller:
                    yield lower, r
                    break
            lower = r


def _wide_menus(core: SubjectCore) -> list[int]:
    """The menus of three or more members, in key order."""
    return [menu for menu in core.by_key if len(core.members[menu]) >= 3]


def _condorcet_spans(core: SubjectCore, menus: list[int]) -> Iterator[tuple[int, int]]:
    """(rank of x on S, least rank of x head to head within S) for each x
    of each menu S in turn: the rank against x's first opponent in S."""
    pair, n = core.pair_rank, core.n
    # x's (rank over y, bit of y), ascending; no menus need none
    opponents = [
        sorted((pair[x][y], 1 << y) for y in range(n) if y != x)
        for x in range(n if menus else 0)
    ]
    for menu in menus:
        row = core.rank[menu]
        for x in core.members[menu]:
            for least, bit in opponents[x]:
                if menu & bit:
                    break
            yield row[x], least


def condorcet_set(scf: StochasticChoiceFunction) -> IntervalUnion:
    """Thresholds at which the pairwise-winner axiom fails.

    For a menu S and x in S the violating thresholds run from nlik(x, S)
    up to the smallest head-to-head normalized likelihood of x against
    the other members of S; on a two-element menu that is the start.
    """
    core = scf.core
    return core.union_of(_condorcet_spans(core, _wide_menus(core)))


def transitivity_set(scf: StochasticChoiceFunction) -> IntervalUnion:
    """Thresholds at which strict pairwise preference fails to compose.

    For an ordered triple (x, y, z): above both nlik(y, {x,y}) and
    nlik(z, {y,z}) the correspondence reveals x over y over z strictly, so
    any threshold still keeping z against x, i.e. up to nlik(z, {x,z}),
    witnesses a cycle.  For fixed (x, z) the triples share their right
    end, so one interval per ordered pair starts at the least left end,
    min over y of max(rank(y, {x,y}), rank(z, {y,z})); one sweep over the
    pair ranks finds them all (``_cycle_spans``).
    """
    core = scf.core
    return core.union_of(_cycle_spans(core))


def _cycle_spans(core: SubjectCore) -> Iterator[tuple[int, int]]:
    """(least left end, rank(z, {x,z})) for every ordered pair (x, z).

    Edge (a, b), "a over b", is revealed above rank(b, {a,b}).  The edges
    are taken in ascending rank; bitsets hold, per alternative, whom it is
    revealed over (``over``) and under (``under``), and per row x and
    column z the pairs (x, z) already resolved.  When (a, b) is revealed
    at rank t, the new pairs are (a, z) for z under b and (x, b) for x
    over a, minus those resolved: each pair is resolved once, at the
    least such t.
    """
    r = core.pair_rank
    n = core.n
    over = [0] * n
    under = [0] * n
    row_done = [1 << x for x in range(n)]  # z with (x, z) resolved, x itself
    col_done = [1 << z for z in range(n)]  # x with (x, z) resolved, z itself
    edges = sorted((r[b][a], a, b) for a, b in itertools.permutations(range(n), 2))
    for t, a, b in edges:
        fresh = over[b] & ~row_done[a]
        if fresh:
            row_done[a] |= fresh
            for z in bits(fresh):
                col_done[z] |= 1 << a
                yield t, r[z][a]
        fresh = under[a] & ~col_done[b]
        if fresh:
            col_done[b] |= fresh
            for x in bits(fresh):
                row_done[x] |= 1 << b
                yield t, r[b][x]
        over[a] |= 1 << b
        under[b] |= 1 << a


# -- decomposition and index ---------------------------------------------


class Witness(Record):
    """A concrete violation pinned to one maximal irrationality interval.

    ``axiom`` is "chernoff", "condorcet" or "transitivity"; ``detail`` is
    the lexicographically least violating tuple of that axiom evaluated at
    the interval's right endpoint.  Tuple shapes follow
    :class:`stochrat.choice.AxiomReport`.
    """

    interval: tuple[Fraction, Fraction]
    axiom: str
    detail: tuple


class IrrationalitySets(Record):
    """Per-axiom threshold sets, their union, and one witness per part."""

    chernoff: IntervalUnion
    condorcet: IntervalUnion
    transitivity: IntervalUnion
    union: IntervalUnion
    witnesses: tuple[Witness, ...]

    @property
    def maximally_rational(self) -> bool:
        return self.union.is_empty

    @property
    def minimally_rational(self) -> bool:
        return self.union.measure() == _ONE


def _chernoff_witness(core: SubjectCore, tables: tuple, h: int) -> Optional[tuple]:
    """Least (S, T, x) by (menu_key(S), menu_key(T), x) with
    rank(x, S) < h <= rank(x, T).  With K the menus T of rank(x, T) >= h,
    the S that violate for x are the menus below some T in K (K's
    down-closure) that hold x and are not in K.  The first such S in key
    order decides, and among its supersets the one earliest in key order."""
    has, _, ladders = tables
    candidates = 0
    for x, ladder in enumerate(ladders):
        i = bisect.bisect_left(ladder, (h,))
        if i < len(ladder):
            k = down = ladder[i][1]
            for d, with_d in enumerate(has):
                down |= (down & with_d) >> (1 << d)
            candidates |= down & has[x] & ~k
    small = next((menu for menu in core.by_key if candidates >> menu & 1), None)
    if small is None:
        return None
    rank, members = core.rank, core.members
    below = [x for x in members[small] if rank[small][x] < h]
    best = None
    for large in core.supersets(small):
        if best is None or members[large] < members[best]:
            if any(rank[large][x] >= h for x in below):
                best = large
    x = next(x for x in below if rank[best][x] >= h)
    return core.menu_set[small], core.menu_set[best], core.labels[x]


def _condorcet_witness(core: SubjectCore, h: int) -> Optional[tuple]:
    menus = _wide_menus(core)
    places = ((menu, x) for menu in menus for x in core.members[menu])
    for (menu, x), (lo, hi) in zip(places, _condorcet_spans(core, menus)):
        if lo < h <= hi:
            return core.menu_set[menu], core.labels[x]
    return None


def _transitivity_witness(core: SubjectCore, h: int) -> Optional[tuple]:
    r = core.pair_rank
    n = core.n
    for x, y in itertools.permutations(range(n), 2):
        if r[y][x] < h:
            for z in range(n):
                if z != x and z != y and r[z][y] < h <= r[z][x]:
                    return core.labels[x], core.labels[y], core.labels[z]
    return None


def irrationality_sets(scf: StochasticChoiceFunction) -> IrrationalitySets:
    """Compute the three axiom threshold sets and their union.

    Each maximal interval of the union gets one witness, found at the
    interval's right endpoint; axioms are tried in the fixed order
    contraction, pairwise winner, cycle composition.
    """
    core = scf.core
    tables = core.menu_bitsets()
    ch = chernoff_set(scf, tables)
    con = condorcet_set(scf)
    st = transitivity_set(scf)
    union = ch | con | st
    witnesses = []
    for lo, hi in union:
        h = bisect.bisect_left(core.cuts, hi)
        if ch.contains(hi):
            axiom, detail = "chernoff", _chernoff_witness(core, tables, h)
        elif con.contains(hi):
            axiom, detail = "condorcet", _condorcet_witness(core, h)
        else:
            axiom, detail = "transitivity", _transitivity_witness(core, h)
        if detail is None:
            raise RuntimeError(f"witness requested at a non-violating threshold {hi}")
        witnesses.append(Witness((lo, hi), axiom, detail))
    return IrrationalitySets(ch, con, st, union, tuple(witnesses))


def _irrationality_union(scf: StochasticChoiceFunction) -> IntervalUnion:
    """The union of the three axiom sets, without witnesses."""
    return chernoff_set(scf) | condorcet_set(scf) | transitivity_set(scf)


def rationality_index(scf: StochasticChoiceFunction) -> Fraction:
    """One minus the length of the irrationality set.  1 means rational at
    every threshold, 0 means rational at none."""
    return _ONE - _irrationality_union(scf).measure()


# -- comparisons -----------------------------------------------------------


class Verdict(str, Enum):
    LEFT_MORE_RATIONAL = "LeftMoreRational"
    RIGHT_MORE_RATIONAL = "RightMoreRational"
    EQUIVALENT = "Equivalent"
    INCOMPARABLE = "Incomparable"

    @classmethod
    def from_inclusion(cls, left_inside: bool, right_inside: bool) -> "Verdict":
        """Verdict from whether each set lies inside the other."""
        return _VERDICTS[2 * bool(left_inside) + bool(right_inside)]


# The verdict at 2 * (left inside right) + (right inside left).
_VERDICTS = (
    Verdict.INCOMPARABLE,
    Verdict.RIGHT_MORE_RATIONAL,
    Verdict.LEFT_MORE_RATIONAL,
    Verdict.EQUIVALENT,
)


class ComparisonResult(Record):
    """Outcome of an inclusion comparison between two threshold sets.

    ``left_minus_right`` collects the thresholds where the left subject is
    strictly worse (irrational while the right is not), and symmetrically
    for ``right_minus_left``.  The verdict is derived purely from which of
    the two differences is empty.
    """

    verdict: Verdict
    left_minus_right: IntervalUnion
    right_minus_left: IntervalUnion

    @classmethod
    def from_differences(
        cls, lmr: IntervalUnion, rml: IntervalUnion
    ) -> "ComparisonResult":
        """Result from the two differences, however a comparator found them."""
        return cls(Verdict.from_inclusion(lmr.is_empty, rml.is_empty), lmr, rml)

    @classmethod
    def from_sets(
        cls, left: IntervalUnion, right: IntervalUnion
    ) -> "ComparisonResult":
        return cls.from_differences(left.difference(right), right.difference(left))


def compare(
    left: StochasticChoiceFunction, right: StochasticChoiceFunction
) -> ComparisonResult:
    """Inclusion comparison of irrationality sets.  The two subjects may
    live on different universes; only the threshold sets matter."""
    return ComparisonResult.from_sets(
        _irrationality_union(left), _irrationality_union(right)
    )


class MultiComparison(Record):
    """All pairwise verdicts for a batch of named subjects.

    ``classes`` groups names whose irrationality sets are equal, ordered
    by least member; ``hasse_edges`` lists the cover pairs of the strict
    more-rational order on classes, each edge as (more rational
    representative, less rational representative).  Verdicts are read
    from ``class_of`` (each name's class index) and ``inside``, where
    bit j of ``inside[i]`` is set when class i's set lies strictly inside
    class j's; no table of name pairs is kept.
    """

    names: tuple[str, ...]
    classes: tuple[tuple[str, ...], ...]
    hasse_edges: tuple[tuple[str, str], ...]
    class_of: Mapping[str, int]
    inside: tuple[int, ...]

    def verdict(self, left: str, right: str) -> Verdict:
        i, j = self.class_of[left], self.class_of[right]
        return Verdict.from_inclusion(
            i == j or self.inside[i] >> j & 1, i == j or self.inside[j] >> i & 1
        )

    def verdict_rows(self) -> list[list[Verdict]]:
        """``rows[i][j]``: the verdict of class i against class j."""
        # bit j of within[i]: class i's set lies inside class j's, or i == j
        within = [bits | 1 << i for i, bits in enumerate(self.inside)]
        return [
            [_VERDICTS[2 * (a >> j & 1) + (b >> i & 1)] for j, b in enumerate(within)]
            for i, a in enumerate(within)
        ]

    def pairs(self) -> Iterator[tuple[str, str, Verdict]]:
        """(left, right, verdict) for every pair of names, left before
        right in ``names``, in ``itertools.combinations(names, 2)`` order.
        Each pair of classes is judged once."""
        names = self.names
        index = [self.class_of[name] for name in names]
        rows = self.verdict_rows()
        for a, left in enumerate(names):
            row = rows[index[a]]
            for right, j in zip(names[a + 1 :], index[a + 1 :]):
                yield left, right, row[j]


def compare_many(
    subjects: (
        Mapping[str, StochasticChoiceFunction | IrrationalitySets]
        | Sequence[tuple[str, StochasticChoiceFunction | IrrationalitySets]]
    ),
) -> MultiComparison:
    """Verdicts, equivalence classes and cover edges for named subjects.

    Each value is a subject or its already computed
    :class:`IrrationalitySets`.  Verdicts and edges are read from one
    inclusion matrix between the classes' sets, as cell bitsets.
    """
    pairs = list(subjects.items()) if isinstance(subjects, Mapping) else list(subjects)
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        raise ValueError("subject names must be distinct")
    order = sorted(names)
    unions = {
        name: (
            value.union
            if isinstance(value, IrrationalitySets)
            else _irrationality_union(value)
        )
        for name, value in pairs
    }

    # Equivalence classes by equality of the threshold sets; names are
    # visited in order, so classes come out ordered by least member.
    classes: dict[tuple, list[str]] = {}
    for name in order:
        classes.setdefault(unions[name].intervals, []).append(name)
    class_tuples = tuple(tuple(group) for group in classes.values())
    class_of = {name: c for c, group in enumerate(class_tuples) for name in group}

    # inside[i] has bit j when class i's set is strictly inside class j's
    # (distinct classes have distinct sets); holds[j] is the transpose.
    _, masks = cell_masks([unions[group[0]] for group in class_tuples])
    count = len(masks)
    inside = [0] * count
    holds = [0] * count
    for i, j in itertools.permutations(range(count), 2):
        if not masks[i] & ~masks[j]:
            inside[i] |= 1 << j
            holds[j] |= 1 << i

    # Cover edges: i below j with no class strictly between them.
    edges = sorted(
        (class_tuples[i][0], class_tuples[j][0])
        for i, j in itertools.permutations(range(count), 2)
        if inside[i] >> j & 1 and not inside[i] & holds[j]
    )
    return MultiComparison(
        tuple(order), class_tuples, tuple(edges), class_of, tuple(inside)
    )


# -- pairwise structure diagnostics ---------------------------------------


class TransitivityFlags(Record):
    """Which head-to-head transitivity notions the subject satisfies.

    Premises quantify over ordered triples (x, y, z) with P(x over y) and
    P(y over z) at least one half; the "almost" variants require the
    premises strictly above one half.  Conclusions bound P(x over z) below
    by one half (weak), the smaller premise (moderate), or the larger
    premise (strong).
    """

    weak: bool
    almost_weak: bool
    moderate: bool
    almost_moderate: bool
    strong: bool


def classify_transitivity(scf: StochasticChoiceFunction) -> TransitivityFlags:
    """Evaluate the five notions on the relations W[x] = {z : P(x over z)
    >= 1/2} and S[x] = {z : P(x over z) > 1/2} (z != x), as bitsets.

    Weak transitivity fails exactly when some y in W[x] has W[y] outside
    W[x] and {x}; almost-weak when some y in S[x] has S[y] outside them.
    Moderate, almost-moderate and strong compare values, so for each
    premise pair (x, y) they walk only z in W[y] minus x.  The walk stops
    once every flag is false.  Each P is read as its pair-rank key.
    """
    core = scf.core
    r, n = core.pair_rank, core.n
    # p[x][z] is the key of P(x over z) (see the module docstring), and
    # one half's is ``half``
    half = len(core.cuts) - 1
    p = [[2 * half - r[z][x] if r[x][z] == half else r[x][z] for z in range(n)]
         for x in range(n)]
    at_least = [0] * n
    above = [0] * n
    for x, z in itertools.permutations(range(n), 2):
        if p[x][z] >= half:
            at_least[x] |= 1 << z
            if p[x][z] > half:
                above[x] |= 1 << z
    weak = almost_weak = moderate = almost_moderate = strong = True
    for x in range(n):
        p_x = p[x]
        kept = at_least[x] | 1 << x
        for y in bits(at_least[x]):
            p_xy = p_x[y]
            strict = p_xy > half
            if at_least[y] & ~kept:
                weak = False
                if strict and above[y] & ~kept:
                    almost_weak = False
            if not (moderate or almost_moderate or strong):
                continue
            p_y = p[y]
            for z in bits(at_least[y] & ~(1 << x)):
                p_xz, p_yz = p_x[z], p_y[z]
                if p_xz < p_xy or p_xz < p_yz:
                    strong = False
                    if p_xz < p_xy and p_xz < p_yz:
                        moderate = False
                        if strict and p_yz > half:
                            almost_moderate = False
        if not (weak or almost_weak or moderate or almost_moderate or strong):
            break
    return TransitivityFlags(weak, almost_weak, moderate, almost_moderate, strong)


class TriangularResult(Record):
    holds: bool
    witness: Optional[tuple[str, str, str]]


def triangular_condition(scf: StochasticChoiceFunction) -> TriangularResult:
    """Check P(x over y) + P(y over z) + P(z over x) <= 2 on every ordered
    triple.  The condition is necessary for mixtures of rankings (binary
    random utility) at every universe size, and sufficient only when the
    universe has at most five alternatives.

    The witness is the first violating triple in
    ``itertools.permutations`` order.  The three rotations of a triple
    have the same sum, so that triple starts with its least alternative,
    and only x < y, z is scanned.  With P(z over x) = 1 - P(x over z) the
    test reads off two rows: P(y over z) - P(x over z) > 1 - P(x over y),
    on floats and, within their error bound, exactly.
    """
    core = scf.core
    n = core.n
    # num[a][b] / den[a][b] = P(a over b), from the pair's own row, and p
    # its float (see the module docstring for the margin m)
    num, den = [[0] * n for _ in range(n)], [[1] * n for _ in range(n)]
    for i, j in itertools.combinations(range(n), 2):
        num[i][j], num[j][i] = a, b = core.scaled[1 << i | 1 << j]
        den[i][j] = den[j][i] = a + b
    p = [[a / b for a, b in zip(*rows)] for rows in zip(num, den)]
    m = 2.0**-48
    for x in range(n):
        p_x = p[x]
        for y in range(x + 1, n):
            p_y, low, high = p[y], 1 - p_x[y] - m, 1 - p_x[y] + m
            for z in range(x + 1, n):
                # z == y never passes: its left side is -P(x over y)
                if p_y[z] - p_x[z] > low and (
                    p_y[z] - p_x[z] > high
                    or (num[y][z] * den[x][z] - num[x][z] * den[y][z]) * den[x][y]
                    > (den[x][y] - num[x][y]) * den[y][z] * den[x][z]
                ):
                    witness = core.labels[x], core.labels[y], core.labels[z]
                    return TriangularResult(False, witness)
    return TriangularResult(True, None)


# -- selectivity -----------------------------------------------------------


def _scaled_alike(row: Sequence[int], top: Sequence[int], menu: Sequence[int]) -> bool:
    """Whether a menu's row is the full menu's row ``top`` scaled on the
    menu's members: |menu| cross products."""
    a, b = row[0], top[menu[0]]
    return [v * b for v in row] == [top[x] * a for x in menu]


def _ratios_kept(scf: StochasticChoiceFunction, contractions: bool) -> bool:
    """Over nested S within T and x, y in S: when x beats y on the reference
    menu (T for contractions, S for expansions), y's likelihood relative to
    x's must not be lower there than on the other menu.  Zero-free rows
    need only |T| = |S| + 1, and none under IIA (see the module docstring)."""
    if scf.domain_kind is DomainKind.PAIRWISE:
        return True
    core = scf.core
    scaled, members = core.scaled, core.members
    steps = all(0 not in row for row in scaled.values())
    top = scaled[core.full]
    if steps and all(_scaled_alike(row, top, members[m]) for m, row in scaled.items()):
        return True  # Luce's IIA: every step keeps every ratio
    wide: dict[int, list[int]] = {}

    def widened(m: int) -> list[int]:
        """The menu's row, one entry per alternative, made at its first read."""
        if m not in wide:
            wide[m] = [0] * core.n
            for i, v in zip(members[m], scaled[m]):
                wide[m][i] = v
        return wide[m]

    for small in core.by_key:
        row_small = widened(small)
        pairs = list(itertools.permutations(members[small], 2))
        larges = core.supersets(small)
        if steps:  # only S + {y}
            larges = [small | 1 << y for y in bits(core.full ^ small)]
        for large in larges:
            ref, other = widened(large), row_small
            if not contractions:
                ref, other = other, ref
            for x, y in pairs:
                if ref[x] > ref[y] and ref[y] * other[x] < other[y] * ref[x]:
                    return False
    return True


def is_selective_in_contractions(scf: StochasticChoiceFunction) -> bool:
    """Relative likelihood of a worse against a better alternative never
    rises when the menu shrinks.  Ratios are compared by cross
    multiplication, so zero probabilities need no special casing.
    Vacuously true on the pairwise domain."""
    return _ratios_kept(scf, contractions=True)


def is_selective_in_expansions(scf: StochasticChoiceFunction) -> bool:
    """Relative likelihood of a worse against a better alternative never
    rises when the menu grows.  Vacuously true on the pairwise domain."""
    return _ratios_kept(scf, contractions=False)
