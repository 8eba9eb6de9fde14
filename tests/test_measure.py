import itertools
from fractions import Fraction

import pytest

from stochrat import measure
from stochrat import (
    DomainKind,
    IntervalUnion,
    SplitMix64,
    StochasticChoiceFunction,
    Verdict,
    chernoff_set,
    classify_transitivity,
    compare,
    compare_many,
    condorcet_set,
    irrationality_sets,
    is_lambda_rational,
    is_selective_in_contractions,
    is_selective_in_expansions,
    luce,
    random_scf,
    rationality_index,
    transitivity_set,
    triangular_condition,
    tremble,
    uniform_drum,
)
from stochrat.dataset import ChoiceDataset, parse_dataset
from stochrat.intervals import cell_masks
from stochrat.report import AnalysisConfig, run_analyze

import oracles
from conftest import FIXTURES, seeded_panel

F = Fraction


def iu(*pairs):
    return IntervalUnion.from_pairs([(F(a), F(b)) for a, b in pairs])


# -- the demo subject, exact values ----------------------------------------------


def test_demo_axiom_sets(demo_scf):
    assert chernoff_set(demo_scf) == iu(("1/2", 1))
    assert condorcet_set(demo_scf) == iu(("1/6", "1/4"))
    assert transitivity_set(demo_scf) == iu(("1/2", 1))


def test_demo_union_and_index(demo_scf):
    sets = irrationality_sets(demo_scf)
    assert sets.union == iu(("1/6", "1/4"), ("1/2", 1))
    assert rationality_index(demo_scf) == F(5, 12)
    assert not sets.maximally_rational
    assert not sets.minimally_rational


def test_demo_rational_set_complement(demo_scf):
    sets = irrationality_sets(demo_scf)
    assert sets.union.complement() == iu((0, "1/6"), ("1/4", "1/2"))


def test_demo_witnesses(demo_scf):
    sets = irrationality_sets(demo_scf)
    assert len(sets.witnesses) == 2
    first, second = sets.witnesses
    # low interval: a pairwise-winner violation at lambda = 1/4
    assert first.interval == (F(1, 6), F(1, 4))
    assert first.axiom == "condorcet"
    # high interval: a contraction violation at lambda = 1
    assert second.interval == (F(1, 2), F(1))
    assert second.axiom == "chernoff"


def test_witnesses_really_violate(demo_scf):
    # the reported interval endpoints must fail direct axiom checking
    for witness in irrationality_sets(demo_scf).witnesses:
        assert not is_lambda_rational(demo_scf, witness.interval[1])


def test_adjacent_and_full_pair_chernoff_agree(demo_scf):
    all_nested = oracles.chernoff_pairs(demo_scf, full_pairs=True)
    assert chernoff_set(demo_scf) == IntervalUnion.from_pairs(all_nested)


# -- interval route vs direct route ----------------------------------------------


def test_union_matches_direct_checking_on_demo(demo_scf):
    union = irrationality_sets(demo_scf).union
    probe = [F(k, 48) for k in range(1, 49)]
    for lam in probe:
        assert union.contains(lam) == (not is_lambda_rational(demo_scf, lam))


def test_union_matches_direct_checking_on_random_scfs():
    for seed in range(12):
        scf = random_scf(seed, ["a", "b", "c", "d"])
        union = irrationality_sets(scf).union
        for lam in [F(k, 24) for k in range(1, 25)]:
            assert union.contains(lam) == (not is_lambda_rational(scf, lam))


# -- pairwise domain ---------------------------------------------------------------


def test_pairwise_union_is_transitivity_set(pairwise_cycle_23, pairwise_cycle_07):
    for scf in (pairwise_cycle_23, pairwise_cycle_07):
        sets = irrationality_sets(scf)
        assert sets.chernoff.is_empty
        assert sets.condorcet.is_empty
        assert sets.union == sets.transitivity


def test_cycle_23_values(pairwise_cycle_23):
    sets = irrationality_sets(pairwise_cycle_23)
    assert sets.union == iu(("1/2", 1))
    assert rationality_index(pairwise_cycle_23) == F(1, 2)
    assert sets.witnesses[0].axiom == "transitivity"


def test_cycle_07_values(pairwise_cycle_07):
    sets = irrationality_sets(pairwise_cycle_07)
    assert sets.union == iu(("3/7", 1))
    assert rationality_index(pairwise_cycle_07) == F(3, 7)


# -- transitivity flags and triangular condition -----------------------------------


def test_luce_has_every_transitivity_flag():
    scf = luce({"x": 20, "y": 19, "z": 18})
    flags = classify_transitivity(scf)
    assert flags.weak and flags.almost_weak
    assert flags.moderate and flags.almost_moderate
    assert flags.strong


def test_cycle_fails_every_transitivity_flag(pairwise_cycle_23):
    flags = classify_transitivity(pairwise_cycle_23)
    assert not (
        flags.weak
        or flags.almost_weak
        or flags.moderate
        or flags.almost_moderate
        or flags.strong
    )


def test_flag_implications_on_random_scfs():
    for seed in range(40):
        scf = random_scf(seed, ["a", "b", "c", "d"], domain_kind=DomainKind.PAIRWISE)
        flags = classify_transitivity(scf)
        if flags.strong:
            assert flags.moderate
        if flags.moderate:
            assert flags.weak and flags.almost_moderate
        if flags.weak:
            assert flags.almost_weak


def test_triangular_condition(pairwise_cycle_23, pairwise_cycle_07):
    assert triangular_condition(pairwise_cycle_23).holds
    result = triangular_condition(pairwise_cycle_07)
    assert not result.holds
    assert result.witness == ("x", "y", "z")


# -- selectivity -------------------------------------------------------------------


def test_luce_is_selective_both_ways():
    scf = luce({"x": 3, "y": 2, "z": 1})
    assert is_selective_in_contractions(scf)
    assert is_selective_in_expansions(scf)


def test_tremble_contraction_set_empty_despite_ratio_test():
    # two non-best members of a submenu collapse to equal shares in the
    # larger menu, so the pair-ratio test fails; the contraction set is
    # empty all the same, which is the property that matters downstream
    scf = tremble({"x": 3, "y": 2, "z": 1}, F(1, 2))
    assert not is_selective_in_expansions(scf)
    assert chernoff_set(scf).is_empty


def test_demo_not_selective(demo_scf):
    assert not is_selective_in_contractions(demo_scf)


def test_contraction_selectivity_with_zeros_needs_more_than_one_element_steps():
    # x is ahead of y on {a,b,x,y}, yet P(y,S)/P(x,S) = 3 on S = {x,y}
    # against 1/2 there.  Each one-element step up from {x,y} reaches a
    # menu where a or b takes all, so x and y tie at zero there and the
    # chain of steps breaks: no single step fails.
    scf = StochasticChoiceFunction(
        {
            "abxy": {"a": F(7, 20), "b": F(7, 20), "x": F(1, 5), "y": F(1, 10)},
            "axy": {"a": 1},
            "bxy": {"b": 1},
            "abx": {"a": F(7, 18), "b": F(7, 18), "x": F(2, 9)},
            "aby": {"a": F(7, 16), "b": F(7, 16), "y": F(1, 8)},
            "xy": {"x": F(1, 4), "y": F(3, 4)},
            "ax": {"a": 1},
            "ay": {"a": 1},
            "bx": {"b": 1},
            "by": {"b": 1},
            "ab": {"a": F(1, 2), "b": F(1, 2)},
        }
    )
    assert is_selective_in_contractions(scf) is False
    steps = 0
    for large in scf.menus():
        for z in large:
            small = large - {z}
            if len(small) < 2:
                continue
            for x, y in itertools.permutations(small, 2):
                p_xt, p_yt = scf.prob(x, large), scf.prob(y, large)
                if p_xt > p_yt:
                    steps += 1
                    assert p_yt * scf.prob(x, small) >= scf.prob(y, small) * p_xt
    assert steps > 0


# -- comparisons -------------------------------------------------------------------


def test_compare_verdicts():
    maximal = uniform_drum({"x": 3, "y": 2, "z": 1}, {"x": 30, "y": 20, "z": 10}, F(2, 3))
    u = {"x": 3, "y": 2, "z": 1}
    v = {"z": 3, "y": 2, "x": 1}
    low = uniform_drum(u, v, F(2, 3))
    lower = uniform_drum(u, v, F(5, 9))
    assert compare(maximal, low).verdict is Verdict.LEFT_MORE_RATIONAL
    assert compare(low, maximal).verdict is Verdict.RIGHT_MORE_RATIONAL
    assert compare(low, low).verdict is Verdict.EQUIVALENT
    assert compare(low, lower).verdict is Verdict.LEFT_MORE_RATIONAL


def test_compare_incomparable():
    left = tremble({"x": 3, "y": 2, "z": 1}, F(1, 4))
    right = tremble({"x": 3, "y": 2, "z": 1}, F(3, 4))
    result = compare(left, right)
    assert result.verdict is Verdict.INCOMPARABLE
    assert not result.left_minus_right.is_empty
    assert not result.right_minus_left.is_empty


def test_compare_reports_set_differences(demo_scf):
    maximal = luce({"x": 1, "y": 1, "z": 1})
    result = compare(demo_scf, maximal)
    assert result.verdict is Verdict.RIGHT_MORE_RATIONAL
    assert result.left_minus_right == irrationality_sets(demo_scf).union
    assert result.right_minus_left.is_empty


def test_compare_many_chain():
    u = {"x": 3, "y": 2, "z": 1}
    v = {"z": 3, "y": 2, "x": 1}
    named = {
        "d1": uniform_drum(u, v, F(3, 4)),
        "d2": uniform_drum(u, v, F(2, 3)),
        "d3": uniform_drum(u, v, F(5, 9)),
    }
    multi = compare_many(named)
    assert multi.names == ("d1", "d2", "d3")
    assert multi.verdict("d1", "d2") is Verdict.LEFT_MORE_RATIONAL
    assert multi.verdict("d2", "d1") is Verdict.RIGHT_MORE_RATIONAL
    assert multi.classes == (("d1",), ("d2",), ("d3",))
    assert multi.hasse_edges == (("d1", "d2"), ("d2", "d3"))


def test_compare_many_merges_equivalent_subjects():
    u = {"x": 3, "y": 2, "z": 1}
    v = {"z": 3, "y": 2, "x": 1}
    named = {
        "a": uniform_drum(u, v, F(2, 3)),
        "b": uniform_drum({"x": 9, "y": 5, "z": 2}, {"z": 7, "y": 6, "x": 1}, F(2, 3)),
        "c": uniform_drum(u, v, F(3, 4)),
    }
    multi = compare_many(named)
    # already computed sets may stand in for the subjects
    assert compare_many({k: irrationality_sets(v) for k, v in named.items()}) == multi
    assert multi.classes == (("a", "b"), ("c",))
    # the hasse diagram runs between classes, naming least members
    assert multi.hasse_edges == (("c", "a"),)


def test_comparison_table_matches_direct_inclusion():
    # the 26-subject panel, with several classes, plus subjects whose sets
    # repeat a panel set or contain one another
    dataset = parse_dataset(FIXTURES / "pairwise5_panel26.csv")
    named = {name: dataset.scf(name) for name in dataset.subject_ids()}
    u = {"x": 3, "y": 2, "z": 1}
    v = {"z": 3, "y": 2, "x": 1}
    for k, weight in enumerate([F(3, 4), F(2, 3), F(5, 9), F(2, 3)]):
        named[f"drum{k}"] = uniform_drum(u, v, weight)
    for seed in range(4):
        named[f"random{seed}"] = random_scf(seed, ["a", "b", "c"])
    multi = compare_many(named)
    unions = {name: irrationality_sets(scf).union for name, scf in named.items()}
    assert 3 < len(multi.classes) < len(named)
    for left, right in itertools.permutations(named, 2):
        expected = Verdict.from_inclusion(
            oracles.is_inside(unions[left], unions[right]),
            oracles.is_inside(unions[right], unions[left]),
        )
        assert multi.verdict(left, right) is expected, (left, right)
    listed = list(multi.pairs())
    assert [(left, right) for left, right, _ in listed] == list(
        itertools.combinations(multi.names, 2)
    )
    assert all(multi.verdict(left, right) is v for left, right, v in listed)


# (lower, higher) pairs of distinct values with the same float
_FLOAT_TIES = [
    (F(1 / 3), F(1, 3)),
    (F(1, 7), F(1, 7) + F(1, 10**30)),
    (F(5, 7) - F(1, 10**30), F(5, 7)),
    (F(2, 3), F(2, 3) + F(1, 10**30)),
    (F(1, 10), F(1 / 10)),
    (F(9, 10), F(0.9)),
]

# endpoints for drawn sets, the float ties among them
_ENDS = [F(0), F(2, 5), F(1, 2), F(1), *(end for pair in _FLOAT_TIES for end in pair)]


def _drawn_unions(seed, count):
    """``count`` named unions of up to three intervals between drawn ends."""
    gen = SplitMix64(seed)
    unions = {}
    for k in range(count):
        pairs = [
            sorted((_ENDS[gen.below(len(_ENDS))], _ENDS[gen.below(len(_ENDS))]))
            for _ in range(gen.below(4))
        ]
        unions[f"s{k:02d}"] = IntervalUnion.from_pairs(pairs)
    return unions


def _as_sets(union):
    empty = IntervalUnion.empty()
    return measure.IrrationalitySets(empty, empty, empty, union, ())


@pytest.mark.parametrize("seed", range(12))
def test_compare_many_matches_the_brute_force_reference(seed):
    unions = _drawn_unions(seed, 30)
    if seed == 0:  # the seeded panel's subjects too
        config = AnalysisConfig(max_universe=7)
        report = run_analyze(ChoiceDataset(seeded_panel()), config)
        unions.update((e.subject, e.sets.union) for e in report.ok_subjects())
    multi = compare_many({name: _as_sets(union) for name, union in unions.items()})
    expected = oracles.compare_many_reference(unions)
    assert multi.classes == expected["classes"]
    assert multi.hasse_edges == expected["hasse_edges"]
    assert [(l, r, v.value) for l, r, v in multi.pairs()] == expected["verdicts"]


@pytest.mark.parametrize("low,high", _FLOAT_TIES)
def test_cell_masks_order_endpoints_whose_floats_tie(low, high):
    assert float(low) == float(high) and low < high
    wide, narrow = iu((low, 1)), iu((high, 1))
    ends, masks = cell_masks([narrow, wide, iu((0, low))])
    assert ends == [0, low, high, 1]
    assert masks == [0b100, 0b110, 0b1]
    multi = compare_many({"narrow": _as_sets(narrow), "wide": _as_sets(wide)})
    assert multi.verdict("narrow", "wide") is Verdict.LEFT_MORE_RATIONAL


def test_compare_many_of_one_or_no_subject_has_no_pairs():
    assert list(compare_many({}).pairs()) == []
    single = compare_many({"only": luce({"x": 1, "y": 2, "z": 3})})
    assert single.classes == (("only",),)
    assert list(single.pairs()) == []
    assert single.verdict("only", "only") is Verdict.EQUIVALENT


# -- seeded sweeps ------------------------------------------------------------------


def test_union_contains_all_three_sets():
    for seed in range(25):
        scf = random_scf(seed, ["a", "b", "c", "d"])
        sets = irrationality_sets(scf)
        assert sets.chernoff.is_subset(sets.union)
        assert sets.condorcet.is_subset(sets.union)
        assert sets.transitivity.is_subset(sets.union)
        merged = sets.chernoff | sets.condorcet | sets.transitivity
        assert merged == sets.union


def test_index_between_zero_and_one():
    for seed in range(25):
        scf = random_scf(seed, ["a", "b", "c"])
        index = rationality_index(scf)
        assert 0 <= index <= 1


def test_index_and_comparisons_never_search_witnesses(demo_scf, monkeypatch):
    other = random_scf(3, ["x", "y", "z"])
    subjects = {"demo": demo_scf, "other": other}
    expected = (
        rationality_index(demo_scf),
        compare(demo_scf, other),
        compare_many(subjects),
    )

    def refuse(*args):
        raise RuntimeError("witness search run for a set-only result")

    for name in ("_chernoff_witness", "_condorcet_witness", "_transitivity_witness"):
        monkeypatch.setattr(measure, name, refuse)
    assert (
        rationality_index(demo_scf),
        compare(demo_scf, other),
        compare_many(subjects),
    ) == expected
