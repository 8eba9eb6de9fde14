"""Differential test of the rank-coded core against the Fraction formulas.

``stochrat.measure`` works on integer ranks and bitmasks; ``oracles`` keeps
the interval formulas and exhaustive witness scans over Fractions.  On
seeded subjects of both domains every set, witness and flag must agree, and
the union must agree with direct axiom checking on the critical grid.
"""

import itertools
import math
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import FIXTURES
from stochrat import (
    DomainKind,
    IntervalUnion,
    SplitMix64,
    StochasticChoiceFunction,
    chernoff_set,
    classify_transitivity,
    condorcet_set,
    irrationality_sets,
    is_lambda_rational,
    is_selective_in_contractions,
    is_selective_in_expansions,
    luce,
    random_ranking_utility,
    random_scf,
    rum,
    transitivity_set,
    triangular_condition,
    tremble,
)
from stochrat import measure as measure_module
from stochrat.core import SubjectCore
from stochrat.dataset import parse_dataset

LABELS = "abcdefghij"


def _subjects():
    for n in range(3, 8):
        for seed in range(3 if n < 7 else 1):
            yield f"full-n{n}-s{seed}", random_scf(100 * n + seed, LABELS[:n])
    for n in range(3, 11):
        for seed in range(2):
            yield f"pairwise-n{n}-s{seed}", random_scf(
                100 * n + seed, LABELS[:n], domain_kind=DomainKind.PAIRWISE
            )
    gen = SplitMix64(2024)
    for n in (3, 4, 5, 6):
        utility = {x: 1 + gen.below(9) for x in LABELS[:n]}
        yield f"luce-n{n}", luce(utility)
        ranking = list(range(1, n + 1))
        gen.shuffle(ranking)
        alpha = Fraction(1 + gen.below(9), 10)
        yield f"tremble-n{n}", tremble(dict(zip(LABELS[:n], ranking)), alpha)


SUBJECTS = dict(_subjects())


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_rank_core_matches_fraction_reference(name):
    scf = SUBJECTS[name]
    sets = irrationality_sets(scf)
    expected = oracles.reference_sets(scf)
    assert chernoff_set(scf) == sets.chernoff == expected["chernoff"]
    assert condorcet_set(scf) == sets.condorcet == expected["condorcet"]
    assert transitivity_set(scf) == sets.transitivity == expected["transitivity"]
    assert sets.union == expected["union"]
    assert tuple((w.interval, w.axiom, w.detail) for w in sets.witnesses) == (
        expected["witnesses"]
    )
    all_nested = oracles.chernoff_pairs(scf, full_pairs=True)
    assert IntervalUnion.from_pairs(all_nested) == sets.chernoff
    assert is_selective_in_contractions(scf) == oracles.selective_in_contractions(scf)
    assert is_selective_in_expansions(scf) == oracles.selective_in_expansions(scf)
    flags = classify_transitivity(scf)
    assert (
        flags.weak,
        flags.almost_weak,
        flags.moderate,
        flags.almost_moderate,
        flags.strong,
    ) == oracles.transitivity_flags(scf)
    assert triangular_condition(scf).witness == oracles.triangular_witness(scf)


@pytest.mark.parametrize("name", sorted(SUBJECTS))
def test_union_agrees_with_axiom_checks_on_critical_grid(name):
    scf = SUBJECTS[name]
    union = irrationality_sets(scf).union
    for lam in oracles.lambda_grid(scf):
        assert union.contains(lam) != bool(is_lambda_rational(scf, lam))


# (lower, higher) likelihoods whose floats tie, as ``_FLOAT_TIES`` in
# test_intervals; the last pair needs 31-digit counts
FLOAT_TIES = [
    (Fraction(1 / 3), Fraction(1, 3)),
    (Fraction(1, 10), Fraction(1 / 10)),
    (Fraction(2, 3), Fraction(2, 3) + Fraction(1, 10**30)),
]


@pytest.mark.parametrize("higher_first", [False, True])
def test_cuts_order_likelihoods_whose_floats_tie(higher_first):
    # a pairwise subject from count rows puts each tie on two menus, in rows
    # order; the cuts sort by float, so the higher-first rows need the exact
    # order
    values = [v for tie in FLOAT_TIES for v in (tie[::-1] if higher_first else tie)]
    assert (sorted(values, key=float) != sorted(values)) == higher_first
    labels = "abcd"
    rows, probs = {}, {}
    for (x, y), v in zip(itertools.combinations(labels, 2), values):
        count = {x: v.numerator, y: v.denominator}
        rows[frozenset(count)] = tuple(count[label] for label in sorted(count))
        probs[frozenset(count)] = {x: v / (1 + v), y: 1 / (1 + v)}
    assert max(len(str(c)) for row in rows.values() for c in row) == 31
    core = StochasticChoiceFunction.from_rows(rows).core
    want = oracles.core_tables(probs)
    assert all(a < b for a, b in zip(core.cuts, core.cuts[1:]))
    for field in ("cuts", "rank", "pair_rank"):
        assert getattr(core, field) == want[field], field


# cores with many cuts, a pairwise one and one with few cuts
UNION_CORES = {
    "full-n5": random_scf(505, LABELS[:5]).core,
    "pairwise-n6": random_scf(606, LABELS[:6], domain_kind=DomainKind.PAIRWISE).core,
    "luce-n3": luce({"a": 1, "b": 2, "c": 4}).core,
}


def _check_union_of(core, spans):
    """``union_of`` is the union of the intervals (cuts[lo], cuts[hi]], and
    it holds each cell's cut and midpoint exactly when a span covers it."""
    cuts = core.cuts
    got = core.union_of(spans)
    assert got == IntervalUnion.from_pairs((cuts[lo], cuts[hi]) for lo, hi in spans)
    for c in range(1, len(cuts)):
        covered = any(lo < c <= hi for lo, hi in spans)
        assert got.contains(cuts[c]) == covered, c
        assert got.contains((cuts[c - 1] + cuts[c]) / 2) == covered, c
    return got


@pytest.mark.parametrize("name", sorted(UNION_CORES))
def test_union_of_on_edge_spans(name):
    core = UNION_CORES[name]
    top = len(core.cuts) - 1
    mid = top // 2
    assert top >= 3
    empty = [[], [(mid, mid)], [(0, 0), (top, top)], [(top, 0), (mid, mid - 1)]]
    for spans in empty:
        assert _check_union_of(core, spans).is_empty, spans
    # spans that cover every cell, touch or overlap give one interval
    for spans in [
        [(0, top)],
        [(0, mid), (mid, top)],
        [(mid, top), (0, mid)],
        [(0, mid + 1), (mid - 1, top)],
        [(c, c + 1) for c in range(top)],
        [(0, top), (1, 2), (mid, mid), (top, 0)],
    ]:
        assert _check_union_of(core, spans).intervals == ((0, 1),), spans
    gap = _check_union_of(core, [(0, 1), (2, top), (1, 1), (3, 2)])
    assert gap.intervals == ((0, core.cuts[1]), (core.cuts[2], 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_union_of_matches_the_union_of_its_intervals(data):
    core = UNION_CORES[data.draw(st.sampled_from(sorted(UNION_CORES)))]
    ranks = st.integers(0, len(core.cuts) - 1)
    _check_union_of(core, data.draw(st.lists(st.tuples(ranks, ranks), max_size=8)))


def test_subjects_cover_both_selectivity_outcomes():
    full = [s for s in SUBJECTS.values() if s.domain_kind is DomainKind.FULL]
    assert any(is_selective_in_contractions(s) and is_selective_in_expansions(s) for s in full)
    assert any(not is_selective_in_contractions(s) for s in full)
    assert any(not is_selective_in_expansions(s) for s in full)
    assert any(not irrationality_sets(s).maximally_rational for s in full)


# -- one-element steps, first-hit bounds and menu bitsets -----------------------
#
# Zero-free subjects near the independence of irrelevant alternatives (Luce,
# Luce with some menus nudged or one menu off, trembles) take the one-element
# route of the selectivity checks, exact Luce subjects no walk at all, and
# subjects with zeros the nested scan.  All must agree with the nested scan
# of ``oracles``, the pairwise-winner set with the minimum over each menu's
# head-to-head ranks, and the contraction part and its witnesses, read off
# menu bitsets, with the loop over every one-element step and the scan over
# every nested pair.

STEP_KINDS = ("luce", "noisy", "tremble", "zeros", "dominated", "masked", "off")


def near_iia(seed: int, n: int, kind: str) -> StochasticChoiceFunction:
    """A full-domain subject over n labels: Luce on utilities 1..30 in
    ascending label order, times 4 ("luce"), with a third of its menus
    nudged by at most 2/4 of a utility
    ("noisy"), a tremble, or noisy Luce with zeros: on one member of a
    quarter of its menus ("zeros"), or on the first label wherever the
    second is on the menu ("dominated").  "masked" is Luce in the shape of
    the pinned subject of ``test_measure`` that fails contraction
    selectivity on no one-element step: the two least labels are at zero
    on the menus that hold one of the next two, and their pair is
    reversed.  "off" is :func:`luce_off` on a drawn menu and direction."""
    gen = SplitMix64(seed)
    labels = LABELS[:n]
    if kind == "off":
        menus = [
            m for size in range(2, n + 1) for m in itertools.combinations(range(n), size)
        ]
        return luce_off(n, menus[gen.below(len(menus))], gen.below(2) == 1)
    if kind == "tremble":
        alpha = Fraction(1 + gen.below(9), 10)
        return tremble(random_ranking_utility(gen, labels), alpha)
    u = sorted(4 + 4 * gen.below(30) for _ in range(n))
    rows = {}
    for size in range(2, n + 1):
        for menu in itertools.combinations(range(n), size):
            row = [u[i] if i in menu else 0 for i in range(n)]
            if kind not in ("luce", "masked") and gen.below(3) == 0:
                row[menu[gen.below(size)]] += gen.below(5) - 2
            if kind == "zeros" and gen.below(4) == 0:
                row[menu[gen.below(size)]] = 0
            if kind == "dominated" and 1 in menu:
                row[0] = 0
            if kind == "masked" and (2 in menu) != (3 in menu):
                row[0] = row[1] = 0
            if kind == "masked" and menu == (0, 1):
                row[0], row[1] = row[1], row[0]
            g = math.gcd(*row)
            rows[frozenset(labels[i] for i in menu)] = tuple(row[i] // g for i in menu)
    return StochasticChoiceFunction.from_rows(rows)


def luce_off(n: int, off: tuple[int, ...], up: bool) -> StochasticChoiceFunction:
    """Luce on utilities 1..n in label order, from count rows, except on the
    menu ``off``: there the last member's count is three times as large
    (``up``), or the other members' counts are.  So only steps into or out
    of ``off`` break proportionality; at n = 3, with ``off`` a pair, exactly
    one step does."""
    rows = {}
    for size in range(2, n + 1):
        for menu in itertools.combinations(range(n), size):
            row = [i + 1 if i in menu else 0 for i in range(n)]
            if menu == off:
                row = [3 * v if (i == off[-1]) == up else v for i, v in enumerate(row)]
            g = math.gcd(*row)
            rows[frozenset(LABELS[i] for i in menu)] = tuple(row[i] // g for i in menu)
    return StochasticChoiceFunction.from_rows(rows)


# The menu taken off Luce's IIA comes first, in the middle or last in
# ``menu_key`` order (the walk's order), or is the full menu.
OFF_MENUS = {
    3: [(0, 1), (0, 2), (1, 2), (0, 1, 2)],
    6: [(0, 1), (0, 4), (4, 5), tuple(range(6))],
}


def luce_counts(seed: int, n: int) -> StochasticChoiceFunction:
    """A full-domain Luce subject on utilities 1..1000, written as counts:
    each member of each menu gets round(10^7 P), at least 1.  The rounding
    breaks the product rule a little on every menu, so the subject is
    near-rational, with thousands of cuts and many maximal intervals."""
    gen = SplitMix64(seed)
    u = [1 + gen.below(1000) for _ in range(n)]
    rows = {}
    for size in range(2, n + 1):
        for menu in itertools.combinations(range(n), size):
            total = sum(u[i] for i in menu)
            row = [
                max(1, round(Fraction(10**7 * u[i], total))) if i in menu else 0
                for i in range(n)
            ]
            g = math.gcd(*row)
            rows[frozenset(LABELS[i] for i in menu)] = tuple(row[i] // g for i in menu)
    return StochasticChoiceFunction.from_rows(rows)


STEP_SUBJECTS = {
    f"{kind}-n{n}-s{seed}": near_iia(100 * n + seed, n, kind)
    for kind in STEP_KINDS
    for n in range(3, 9)
    for seed in range(3 if n < 7 else 2 if n < 8 else 1)
}
STEP_SUBJECTS["luce-n10-s0"] = near_iia(1000, 10, "luce")
STEP_SUBJECTS.update(
    (f"off-n{n}-{''.join(map(str, off))}-{'up' if up else 'down'}", luce_off(n, off, up))
    for n, menus in OFF_MENUS.items()
    for off in menus
    for up in (True, False)
)


def _scans_agree(scf):
    for contractions, flag in (
        (True, is_selective_in_contractions),
        (False, is_selective_in_expansions),
    ):
        assert flag(scf) == oracles.nested_ratios_kept(scf, contractions)
    assert condorcet_set(scf) == oracles.core_condorcet_set(scf)
    sets = irrationality_sets(scf)
    assert chernoff_set(scf) == sets.chernoff == oracles.core_chernoff_set(scf)
    for w in sets.witnesses:
        if w.axiom == "chernoff":
            assert w.detail == oracles.core_chernoff_witness(scf, w.interval[1])


@pytest.mark.parametrize("name", sorted(STEP_SUBJECTS))
def test_step_scans_match_the_full_scans(name):
    _scans_agree(STEP_SUBJECTS[name])


def test_step_subjects_reach_every_selectivity_outcome():
    outcomes = {
        (
            all(scf.support(menu) == menu for menu in scf.menus()),
            is_selective_in_contractions(scf),
            is_selective_in_expansions(scf),
        )
        for scf in STEP_SUBJECTS.values()
    }
    for zero_free in (True, False):
        for k in (1, 2):
            assert {o[k] for o in outcomes if o[0] == zero_free} == {True, False}


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(3, 7), st.integers(0, 2**32 - 1), st.sampled_from(STEP_KINDS))
@example(4, 0, "masked")  # masked subjects tell the two scans apart only at n = 4
def test_step_scans_match_the_full_scans_on_drawn_subjects(n, seed, kind):
    _scans_agree(near_iia(seed, n, kind))


def _broken_steps(scf):
    """The steps S -> S + {y}, by their menus, on which the larger menu's
    probabilities on S are not the smaller's scaled, by Fractions."""
    broken = []
    for small in scf.menus():
        for y in sorted(set(scf.universe) - small):
            ratios = {scf.prob(x, small | {y}) / scf.prob(x, small) for x in small}
            if len(ratios) > 1:
                broken.append((small, small | {y}))
    return broken


@pytest.mark.parametrize("n", sorted(OFF_MENUS))
def test_off_subjects_break_only_the_steps_at_their_menu(n):
    outcomes = set()
    for off in OFF_MENUS[n]:
        menu = frozenset(LABELS[i] for i in off)
        for up in (True, False):
            scf = luce_off(n, off, up)
            broken = _broken_steps(scf)
            assert broken and all(menu in step for step in broken)
            if n == 3 and len(off) == 2:
                assert len(broken) == 1
            flags = is_selective_in_contractions(scf), is_selective_in_expansions(scf)
            outcomes.add(flags)
    # each fails a check, so no walk that passes over its menu agrees
    assert (True, True) not in outcomes and len(outcomes) >= 2


def test_luce_rows_pass_both_checks_without_a_walk(monkeypatch):
    # every row is the full menu's row scaled, so no step can move a ratio;
    # a row off that takes the walk, which lists each step's menus by bits
    def walked(mask):
        raise AssertionError("walked the steps")

    monkeypatch.setattr(measure_module, "bits", walked)
    for name in ("luce-n3-s0", "luce-n8-s0", "luce-n10-s0"):
        scf = STEP_SUBJECTS[name]
        assert is_selective_in_contractions(scf) and is_selective_in_expansions(scf)
    for off in OFF_MENUS[6]:
        for check in (is_selective_in_contractions, is_selective_in_expansions):
            with pytest.raises(AssertionError, match="walked"):
                check(luce_off(6, off, True))


def test_step_subjects_reach_several_contraction_witnesses():
    counts = [
        sum(w.axiom == "chernoff" for w in irrationality_sets(scf).witnesses)
        for scf in STEP_SUBJECTS.values()
    ]
    assert 0 in counts
    assert max(counts) >= 3


def test_contraction_bitsets_match_the_nested_scans_at_n10():
    scf = luce_counts(10, 10)
    sets = irrationality_sets(scf)
    assert chernoff_set(scf) == sets.chernoff == oracles.core_chernoff_set(scf)
    assert len(sets.witnesses) == 44
    for w in sets.witnesses:
        assert w.axiom == "chernoff"
        assert w.detail == oracles.core_chernoff_witness(scf, w.interval[1])


def test_contraction_witnesses_walk_one_menu_s_supersets_each(monkeypatch):
    # each witness walks only the supersets of its own S, of which there
    # are at most 2^(n-2) - 1
    scf = luce_counts(10, 10)
    scf.core
    walked = 0
    supersets = SubjectCore.supersets

    def counted(core, mask):
        nonlocal walked
        for large in supersets(core, mask):
            walked += 1
            yield large

    monkeypatch.setattr(SubjectCore, "supersets", counted)
    witnesses = irrationality_sets(scf).witnesses
    assert 0 < walked <= len(witnesses) * 2 ** (10 - 2)


# -- pairwise subjects at scale -------------------------------------------------
#
# Random pairwise tables are minimally rational from n = 10 or so, which tests
# one witness at the top cut.  These seeded subjects keep most pairs
# transitive, so their cycle sets break into several maximal intervals, and
# they put exact halves and zero probabilities into the pair table.


def _label(i: int) -> str:
    return f"a{i:02d}"


def _pairwise(n: int, win) -> StochasticChoiceFunction:
    """Pairwise subject with P(a_i over a_j) = win(i, j) for i < j."""
    table = {}
    for i, j in itertools.combinations(range(n), 2):
        p = win(i, j)
        table[frozenset((_label(i), _label(j)))] = {_label(i): p, _label(j): 1 - p}
    return StochasticChoiceFunction(table)


def _utilities(gen: SplitMix64, n: int, top: int) -> list[int]:
    return [1 + gen.below(top) for _ in range(n)]


def noisy_ranking(seed: int, n: int) -> StochasticChoiceFunction:
    """Pairwise Luce on utilities 1..30 (rational at every threshold), one
    pair in four moved by at most 2/40 without changing its winner: each
    move breaks the product rule and can open an interior interval."""
    gen = SplitMix64(seed)
    u = _utilities(gen, n, 30)
    half = Fraction(1, 2)

    def win(i, j):
        p = Fraction(u[i], u[i] + u[j])
        if gen.below(4) == 0:
            q = p + Fraction(gen.below(5) - 2, 40)
            if 0 < q < 1 and (q > half) == (p > half):
                p = q
        return p

    return _pairwise(n, win)


def planted_cycle(seed: int, n: int) -> StochasticChoiceFunction:
    """Pairwise Luce on distinct utilities 1..n with the pair a > c of one
    chain a > b > c reversed: a cycle a > b > c > a inside a ranking."""
    gen = SplitMix64(seed)
    u = list(range(1, n + 1))
    gen.shuffle(u)
    order = sorted(range(n), key=lambda i: -u[i])
    k = gen.below(n - 2)
    a, c = order[k], order[k + 2]

    def win(i, j):
        p = Fraction(u[i], u[i] + u[j])
        return 1 - p if {i, j} == {a, c} else p

    return _pairwise(n, win)


def ties_and_zeros(seed: int, n: int) -> StochasticChoiceFunction:
    """Four tiers: a higher tier wins with probability 1, and within a
    tier Luce on utilities 1 and 2, so equal utilities tie at exactly 1/2.
    That much is strongly transitive; then seed mod 3 pairs are redrawn
    from 0, 1/4, 1/2, 3/4 and 1."""
    gen = SplitMix64(seed)
    tier = _utilities(gen, n, 4)
    u = _utilities(gen, n, 2)
    pairs = list(itertools.combinations(range(n), 2))
    redrawn = {
        pairs[gen.below(len(pairs))]: Fraction(gen.below(5), 4) for _ in range(seed % 3)
    }

    def win(i, j):
        if (i, j) in redrawn:
            return redrawn[i, j]
        if tier[i] != tier[j]:
            return Fraction(int(tier[i] < tier[j]))
        return Fraction(u[i], u[i] + u[j])

    return _pairwise(n, win)


WIDE_KINDS = {"noisy": noisy_ranking, "cycle": planted_cycle, "ties": ties_and_zeros}
WIDE = {
    f"{kind}-n{n}-s{seed}": make(1000 * n + seed, n)
    for kind, make in WIDE_KINDS.items()
    for n in (16, 24, 64)
    for seed in range(3)
}


def _pairwise_outputs(scf):
    sets = irrationality_sets(scf)
    flags = classify_transitivity(scf)
    return {
        "transitivity": transitivity_set(scf),
        "witnesses": tuple((w.interval, w.axiom, w.detail) for w in sets.witnesses),
        "flags": (
            flags.weak,
            flags.almost_weak,
            flags.moderate,
            flags.almost_moderate,
            flags.strong,
        ),
        "triangular": triangular_condition(scf).witness,
    }


@pytest.mark.parametrize("name", sorted(WIDE))
def test_wide_pairwise_matches_brute_force(name):
    scf = WIDE[name]
    got = _pairwise_outputs(scf)
    assert got == oracles.core_pairwise_reference(scf)
    assert got["transitivity"] == irrationality_sets(scf).union
    if scf.core.n <= 24:
        fractions = oracles.reference_sets(scf)
        assert got["transitivity"] == fractions["transitivity"] == fractions["union"]
        assert got["witnesses"] == fractions["witnesses"]
        assert got["flags"] == oracles.transitivity_flags(scf)
        assert got["triangular"] == oracles.triangular_witness(scf)


def test_pairwise_contraction_builds_no_menu_bitsets():
    # bit T of a pairwise mask at n = 64 would need 2^64 bits, so the guard
    # is checked first at n = 10, where such a table would still fit
    assert noisy_ranking(10005, 10).core.menu_bitsets() == ([], 0, [])
    scf = noisy_ranking(64005, 64)
    scf.core
    tracemalloc.start()
    try:
        part, sets = chernoff_set(scf), irrationality_sets(scf)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert part.is_empty and sets.chernoff.is_empty
    assert peak < 4 * 2**20


def test_wide_subjects_reach_interior_endpoints():
    """The seeded subjects reach what random tables do not: cycle sets of
    several maximal intervals, every flag both ways, both triangular
    outcomes, exact halves and zero-probability pairs."""
    pieces = [len(transitivity_set(scf).intervals) for scf in WIDE.values()]
    assert sum(count >= 2 for count in pieces) >= 5
    assert 0 in pieces
    flags = [_pairwise_outputs(scf)["flags"] for scf in WIDE.values()]
    for k in range(5):
        assert {f[k] for f in flags} == {True, False}
    assert {triangular_condition(scf).holds for scf in WIDE.values()} == {True, False}
    # each pair's own row: equal entries are a half, a zero entry a zero
    pair_rows = [
        core.scaled[1 << i | 1 << j]
        for core in (scf.core for scf in WIDE.values() if scf.core.n <= 24)
        for i, j in itertools.combinations(range(core.n), 2)
    ]
    assert any(a == b for a, b in pair_rows)
    assert any(0 in row for row in pair_rows)


@st.composite
def pair_tables(draw):
    """Pairwise subjects at n = 3..12 whose pair probabilities have
    denominators 2, 4 and 10, so ties, halves and zeros are common."""
    n = draw(st.integers(3, 12))
    cells = {}
    for i, j in itertools.combinations(range(n), 2):
        den = draw(st.sampled_from((2, 4, 10)))
        cells[i, j] = Fraction(draw(st.integers(0, den)), den)
    return _pairwise(n, lambda i, j: cells[i, j])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair_tables())
def test_sweeps_match_brute_force_on_drawn_tables(scf):
    assert _pairwise_outputs(scf) == oracles.core_pairwise_reference(scf)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(pair_tables())
def test_pair_rank_keys_order_the_pair_probabilities(scf):
    # the key the transitivity flags read for P(x over z), with one half at
    # ``top``, the rank of likelihood 1
    core = scf.core
    r, top = core.pair_rank, len(core.cuts) - 1
    ordered = list(itertools.permutations(range(core.n), 2))
    key = {(x, z): 2 * top - r[z][x] if r[x][z] == top else r[x][z] for x, z in ordered}
    prob = {
        (x, z): scf.pair_prob(core.labels[x], core.labels[z]) for x, z in ordered
    }
    half = Fraction(1, 2)
    for a in ordered:
        assert (key[a] > top, key[a] == top) == (prob[a] > half, prob[a] == half)
    # both orders are total: along the pairs sorted by P the key must rise
    # exactly where P does
    ordered.sort(key=prob.__getitem__)
    for a, b in zip(ordered, ordered[1:]):
        assert key[a] <= key[b] and (key[a] < key[b]) == (prob[a] < prob[b])


def _three_pairs(xy, yz, xz):
    """Pairwise subject on x, y, z from each pair's two long counts."""
    table = {}
    for (a, b), counts in zip(("xy", "yz", "xz"), (xy, yz, xz)):
        total = sum(counts)
        table[frozenset((a, b))] = {a: Fraction(counts[0], total),
                                    b: Fraction(counts[1], total)}
    return StochasticChoiceFunction(table)


LONG = 10**40
TRIANGLES = {
    # x over y over z for certain: every cyclic sum is 1 or 2
    "exactly 2 on 0/1 pairs": (_three_pairs((LONG, 0), (LONG, 0), (LONG, 0)), None),
    # P(x over z) + P(z over y) + P(y over x) = 2/3 + 2/3 + 2/3: no float of
    # these thirds is exact
    "exactly 2 on thirds": (
        _three_pairs((LONG, 2 * LONG), (LONG, 2 * LONG), (2 * LONG, LONG)), None
    ),
    # the same with P(x over z) moved up or down by 10^-40
    "2 + 10^-40": (
        _three_pairs((LONG, 2 * LONG), (LONG, 2 * LONG), (2 * LONG + 3, LONG - 3)),
        ("x", "z", "y"),
    ),
    "2 - 10^-40": (
        _three_pairs((LONG, 2 * LONG), (LONG, 2 * LONG), (2 * LONG - 3, LONG + 3)), None
    ),
}


@pytest.mark.parametrize("name", sorted(TRIANGLES))
def test_triangular_sums_within_the_float_margin_are_decided_exactly(name):
    scf, witness = TRIANGLES[name]
    assert triangular_condition(scf).witness == witness
    assert oracles.triangular_witness(scf) == witness
    assert triangular_condition(scf).holds == (witness is None)


# -- relabelling invariance ----------------------------------------------
#
# Renaming the alternatives must leave every threshold set where it is.  A
# witness is the least violation in label order, so a bijection that
# changes the sorted order may move it, but only to the least violation of
# the same axiom, at the same threshold, in the new order.


def _relabel_subjects():
    gen = SplitMix64(4242)
    for n in range(4, 8):
        for k in range(3):
            alpha = Fraction(1 + gen.below(9), 10)
            utility = random_ranking_utility(gen, LABELS[:n])
            yield f"tremble-n{n}-{k}", tremble(utility, alpha)
    for n in (4, 5, 6):
        for k in range(3):
            for weights in ((3, 2), (1, 1, 1)):
                parts = [
                    (random_ranking_utility(gen, LABELS[:n]), Fraction(w, sum(weights)))
                    for w in weights
                ]
                yield f"mixture{len(weights)}-n{n}-{k}", rum(parts)
    yield "demo", parse_dataset(FIXTURES / "demo_full3.csv").scf("s1")
    for n in (3, 4):
        for seed in range(10):
            yield f"full-n{n}-s{seed}", random_scf(700 + 10 * n + seed, LABELS[:n])
    for n in range(4, 11):
        for seed in range(3):
            yield f"pairwise-n{n}-s{seed}", random_scf(
                800 + 10 * n + seed, LABELS[:n], domain_kind=DomainKind.PAIRWISE
            )
    for n in (8, 12, 16):
        for seed in range(8):
            yield f"noisy-n{n}-s{seed}", noisy_ranking(900 + 10 * n + seed, n)
    for name, scf in WIDE.items():
        if scf.core.n <= 24:
            yield name, scf


RELABEL = dict(_relabel_subjects())


def _relabelled(scf: StochasticChoiceFunction, seed: int):
    """The subject under a seeded renaming that changes the label order."""
    gen = SplitMix64(seed)
    labels = scf.universe
    order = list(range(len(labels)))
    while order == sorted(order):
        gen.shuffle(order)
    rename = {x: f"r{k:02d}" for x, k in zip(labels, order)}
    table = {
        frozenset(map(rename.get, menu)): {
            rename[x]: p for x, p in scf.menu_probs(menu).items()
        }
        for menu in scf.menus()
    }
    return StochasticChoiceFunction(table)


@pytest.mark.parametrize("name", sorted(RELABEL))
def test_relabelling_keeps_sets_and_moves_witnesses_to_the_least(name):
    scf = RELABEL[name]
    renamed = _relabelled(scf, sum(map(ord, name)))
    assert renamed.universe != scf.universe
    before, after = irrationality_sets(scf), irrationality_sets(renamed)
    for part in ("chernoff", "condorcet", "transitivity", "union"):
        assert getattr(after, part) == getattr(before, part), part
    assert [(w.interval, w.axiom) for w in after.witnesses] == [
        (w.interval, w.axiom) for w in before.witnesses
    ]
    for witness in after.witnesses:
        failures = dict(is_lambda_rational(renamed, witness.interval[1]).failures)
        assert witness.detail == failures[witness.axiom]


def test_relabelling_checks_many_witnesses():
    count = sum(len(irrationality_sets(scf).witnesses) for scf in RELABEL.values())
    assert count >= 100


# -- member rows against the dense-row core -------------------------------------
#
# A menu's row holds one entry per member.  ``oracles.DenseCore`` is the core
# on rows over the whole universe, zero off the menu, reading each member at
# its index; on full subjects with and without zeros and on pairwise subjects
# up to n = 64, both must give the same cuts, ranks and sets.


def _member_row_subjects():
    for n in range(3, 9):
        for seed in range(2):
            yield f"random-n{n}-s{seed}", random_scf(3000 + 10 * n + seed, LABELS[:n])
        for kind in ("luce", "noisy", "zeros", "dominated"):
            yield f"{kind}-n{n}", near_iia(3100 + n, n, kind)
    for n in (2, 3, 8, 32, 64):
        labels = [_label(i) for i in range(n)]
        yield f"pairwise-n{n}", random_scf(
            3200 + n, labels, domain_kind=DomainKind.PAIRWISE
        )
    for kind, make in WIDE_KINDS.items():
        yield f"{kind}-n64", make(3300, 64)


MEMBER_ROWS = dict(_member_row_subjects())


@pytest.mark.parametrize("name", sorted(MEMBER_ROWS))
def test_member_rows_give_the_dense_core(name):
    scf = MEMBER_ROWS[name]
    core, dense = scf.core, oracles.dense_core(scf)
    assert all(len(core.scaled[m]) == len(core.members[m]) for m in core.by_key)
    for field in ("cuts", "rank", "pair_rank"):
        assert getattr(core, field) == getattr(dense, field), field
    # the measures read nothing of a subject but its core
    on_dense = types.SimpleNamespace(core=dense)
    for part in (chernoff_set, condorcet_set, transitivity_set, classify_transitivity):
        assert part(on_dense) == part(scf), part.__name__
    assert irrationality_sets(on_dense) == irrationality_sets(scf)


def test_member_row_subjects_have_rows_with_and_without_zeros():
    full = [s for s in MEMBER_ROWS.values() if s.domain_kind is DomainKind.FULL]
    zeros = {any(0 in row for row in s.core.scaled.values()) for s in full}
    assert zeros == {True, False}
    assert {len(s.universe) for s in full} == set(range(3, 9))


def test_a_pairwise_subject_at_n64_holds_two_entries_per_menu():
    scf = MEMBER_ROWS["pairwise-n64"]
    assert sum(map(len, scf.core.scaled.values())) == 2016 * 2 == 4032
    assert sum(map(len, oracles.dense_rows(scf).values())) == 2016 * 64 == 129024


# -- selectivity on rows with zeros ---------------------------------------------
#
# A row with a zero sends both selectivity checks down the walk over every
# nested pair, not the one-element steps.


def zero_rows(seed: int, n: int, kind: str) -> StochasticChoiceFunction:
    """A full-domain subject over n labels from count rows with zeros on
    some menus: counts 0..3 drawn per member, at least one positive, and
    the two least labels' pair at (0, 1) ("random"), or Luce on utilities 1..9 in which a drawn set of labels
    gets zero on every menu that holds another label ("null")."""
    gen = SplitMix64(seed)
    u = [1 + gen.below(9) for _ in range(n)]
    order = list(range(n))
    gen.shuffle(order)
    null = set(order[: 1 + gen.below(n - 1)])
    rows = {}
    for size in range(2, n + 1):
        for menu in itertools.combinations(range(n), size):
            if kind == "random":
                row = [gen.below(4) for _ in menu]
                row[gen.below(size)] += 1
                if menu == (0, 1):
                    row = [0, 1]
            else:
                live = [i for i in menu if i not in null] or menu
                row = [u[i] if i in live else 0 for i in menu]
            g = math.gcd(*row)
            rows[frozenset(LABELS[i] for i in menu)] = tuple(v // g for v in row)
    return StochasticChoiceFunction.from_rows(rows)


ZERO_SUBJECTS = {
    f"{kind}-n{n}-s{seed}": zero_rows(3400 + 10 * n + seed, n, kind)
    for kind in ("random", "null")
    for n in range(3, 8)
    for seed in range(4)
}


@pytest.mark.parametrize("name", sorted(ZERO_SUBJECTS))
def test_selectivity_walk_matches_the_nested_scan_on_rows_with_zeros(name):
    scf = ZERO_SUBJECTS[name]
    assert any(0 in row for row in scf.core.scaled.values())
    assert is_selective_in_contractions(scf) == oracles.nested_ratios_kept(scf, True)
    assert is_selective_in_expansions(scf) == oracles.nested_ratios_kept(scf, False)


def test_zero_subjects_reach_both_selectivity_outcomes():
    for check in (is_selective_in_contractions, is_selective_in_expansions):
        assert {check(scf) for scf in ZERO_SUBJECTS.values()} == {True, False}
