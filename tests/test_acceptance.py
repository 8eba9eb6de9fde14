"""Acceptance battery.

Thirteen end-to-end checks covering the headline behaviors: exact interval
sets and indices on worked examples, closed forms for mixture and tremble
models, maximality guarantees for well-behaved models, dual-route agreement
between interval arithmetic and direct axiom checking, ordering properties
of the comparison relation, and the committed data fixtures.  Every check
prints a single pass line; a failure surfaces as a normal test failure.

All values are exact rationals; there are no tolerances anywhere.
"""

import itertools
import json
from fractions import Fraction as F

from stochrat import (
    DomainKind,
    IntervalUnion,
    SplitMix64,
    StochasticChoiceFunction,
    Verdict,
    classify_transitivity,
    compare,
    compare_many,
    general_luce,
    irrationality_sets,
    is_lambda_rational,
    is_selective_in_contractions,
    is_selective_in_expansions,
    lead_chain_consistent,
    luce,
    mum_pairwise,
    mum_response_table,
    random_positive_utility,
    random_ranking_utility,
    random_scf,
    rum,
    swap_index,
    totally_rational_regions,
    tremble,
    tremble_index,
    tremble_irrationality,
    triangular_condition,
    two_stage_luce,
    uniform_drum,
    uniform_drum_irrationality,
)
from stochrat.dataset import parse_dataset
from stochrat.report import render_json, run_analyze

import oracles
from conftest import FIXTURES, fraction_table


def _passed(number, label):
    print(f"ACCEPTANCE {number:2d} PASS: {label}")


def _dual_route_agrees(scf):
    sets = irrationality_sets(scf)
    for lam in oracles.lambda_grid(scf):
        if sets.union.contains(lam) == bool(is_lambda_rational(scf, lam)):
            return False
    return True


def _demo_scf():
    table = fraction_table(
        [
            (("x", "y"), {"x": F(4, 5), "y": F(1, 5)}),
            (("y", "z"), {"y": F(2, 3), "z": F(1, 3)}),
            (("x", "z"), {"x": F(1, 3), "z": F(2, 3)}),
            (("x", "y", "z"), {"x": F(6, 13), "y": F(1, 13), "z": F(6, 13)}),
        ]
    )
    return StochasticChoiceFunction(table)


def test_01_demo_subject_interval_set_and_index():
    scf = _demo_scf()
    sets = irrationality_sets(scf)
    assert str(sets.union) == "(1/6,1/4] ∪ (1/2,1]"
    assert F(1) - sets.union.measure() == F(5, 12)
    assert str(sets.union.complement()) == "(0,1/6] ∪ (1/4,1/2]"
    assert _dual_route_agrees(scf)
    _passed(1, "demo subject: exact interval set, index 5/12, rational region")


def test_02_three_ranking_mixture_interval():
    scf = rum(
        [
            ({"x": 3, "y": 2, "z": 1}, F(2, 3)),
            ({"y": 3, "x": 2, "z": 1}, F(1, 6)),
            ({"z": 3, "x": 2, "y": 1}, F(1, 6)),
        ]
    )
    assert irrationality_sets(scf).union == IntervalUnion.single(F(1, 5), F(1, 4))
    _passed(2, "three-ranking mixture has irrationality set (1/5,1/4]")


def test_03_general_luce_minimal_rationality():
    scf = general_luce(
        {"x": 3, "y": 2, "z": 1},
        {
            ("x", "y"): ("y",),
            ("y", "z"): ("y",),
            ("x", "y", "z"): ("x", "z"),
        },
    )
    sets = irrationality_sets(scf)
    assert str(sets.condorcet) == "(0,1]"
    assert str(sets.union) == "(0,1]"
    assert sets.minimally_rational
    assert F(1) - sets.union.measure() == F(0)
    _passed(3, "consideration-set model is minimally rational with index 0")


def test_04_tremble_closed_forms_and_incomparability():
    alphas = [F(1, 10), F(1, 4), F(1, 3), F(1, 2), F(2, 3), F(9, 10)]
    labels = [chr(ord("a") + i) for i in range(8)]
    for size in range(3, 9):
        utility = {label: size - i for i, label in enumerate(labels[:size])}
        subjects = []
        for alpha in alphas:
            scf = tremble(utility, alpha)
            sets = irrationality_sets(scf)
            assert sets.union == tremble_irrationality(size, alpha)
            assert F(1) - sets.union.measure() == tremble_index(size, alpha)
            subjects.append((f"alpha={alpha}", scf))
        result = compare_many(subjects)
        for left, right in itertools.combinations(result.names, 2):
            assert result.verdict(left, right) is Verdict.INCOMPARABLE
    _passed(4, "tremble closed forms exact for 6 sizes x 6 weights; all pairs incomparable")


def test_05_two_ranking_mixtures_match_closed_form_and_are_ordered():
    sizes = {3: 1001, 4: 1002, 5: 1003, 6: 1004}
    consistent_count = 0
    inconsistent_count = 0
    for size, seed in sizes.items():
        labels = [chr(ord("a") + i) for i in range(size)]
        gen = SplitMix64(seed)
        subjects = []
        for i in range(50):
            u = random_ranking_utility(gen, labels)
            v = random_ranking_utility(gen, labels)
            den = 2 + gen.below(8)
            low = (den + 1) // 2
            num = low + gen.below(den - low + 1)
            theta = F(num, den)
            scf = uniform_drum(u, v, theta)
            closed = uniform_drum_irrationality(u, v, theta)
            assert irrationality_sets(scf).union == closed
            if closed.is_empty:
                consistent_count += 1
            else:
                inconsistent_count += 1
            subjects.append((f"d{i:02d}", scf))
        result = compare_many(subjects)
        for left, right in itertools.combinations(result.names, 2):
            assert result.verdict(left, right) is not Verdict.INCOMPARABLE
    assert consistent_count >= 5 and inconsistent_count >= 5

    # more weight on the leading ranking never hurts
    u = {"x": 3, "y": 2, "z": 1}
    v = {"x": 1, "y": 2, "z": 3}
    thetas = [F(1, 2), F(5, 9), F(3, 5), F(2, 3), F(3, 4), F(9, 10), F(1)]
    mixtures = [uniform_drum(u, v, theta) for theta in thetas]
    for i, j in itertools.combinations(range(len(thetas)), 2):
        verdict = compare(mixtures[j], mixtures[i]).verdict
        assert verdict is not Verdict.RIGHT_MORE_RATIONAL
        assert verdict is not Verdict.INCOMPARABLE
    _passed(5, "200 two-ranking mixtures match the closed form; weight order respected")


def test_06_constructed_mixtures_hit_known_sets():
    favorites = {
        "a": {"a": 4, "w": 3, "b": 2, "c": 1},
        "b": {"b": 4, "w": 3, "a": 2, "c": 1},
        "c": {"c": 4, "w": 3, "a": 2, "b": 1},
    }
    hub = rum([(favorites[f], F(1, 3)) for f in "abc"])
    assert str(irrationality_sets(hub).union) == "(0,1]"

    lead = {"x": 3, "y": 2, "z": 1}
    reversal = {"x": 1, "y": 2, "z": 3}
    outvoted = rum([(lead, F(3, 5)), (reversal, F(1, 5)), (dict(reversal), F(1, 5))])
    assert irrationality_sets(outvoted).union == IntervalUnion.single(F(0), F(2, 3))
    _passed(6, "constructed mixtures: hub voters give (0,1], outvoted lead gives (0,2/3]")


def _sample_chain_consistent_mixture(gen, labels):
    for _ in range(500):
        lead = random_ranking_utility(gen, labels)
        followers = [
            random_ranking_utility(gen, labels)
            for _ in range(1 + gen.below(2))
        ]
        if lead_chain_consistent([lead, *followers]):
            den = 3 + gen.below(7)
            low = den // 2 + 1
            num = low + gen.below(den - low)
            theta = F(num, den)
            rest = (F(1) - theta) / len(followers)
            return rum([(lead, theta)] + [(f, rest) for f in followers])
    raise AssertionError("no chain-consistent mixture found in 500 draws")


def test_07_well_behaved_models_are_maximally_rational():
    gen = SplitMix64(77001)
    for i in range(100):
        labels = ["a", "b", "c", "d"][: 3 + i % 2]
        scf = _sample_chain_consistent_mixture(gen, labels)
        assert irrationality_sets(scf).union.is_empty

    gen = SplitMix64(77002)
    for i in range(100):
        labels = ["a", "b", "c", "d"][: 3 + i % 2]
        utility = random_ranking_utility(gen, labels)
        dominance = [
            (better, worse)
            for better, worse in itertools.permutations(labels, 2)
            if utility[better] > utility[worse] and gen.below(2)
        ]
        scf, proper = two_stage_luce(utility, dominance)
        assert proper
        assert irrationality_sets(scf).union.is_empty
    _passed(7, "100 chain-consistent mixtures and 100 proper two-stage models: empty sets")


def test_08_interval_sets_agree_with_direct_axiom_checks():
    seed = 0
    for size in [3, 4, 5]:
        labels = [chr(ord("a") + i) for i in range(size)]
        count = 34 if size == 3 else 33
        for _ in range(count):
            scf = random_scf(seed, labels, denominator_bound=9)
            seed += 1
            assert _dual_route_agrees(scf)
            all_nested = IntervalUnion.from_pairs(
                oracles.chernoff_pairs(scf, full_pairs=True)
            )
            assert irrationality_sets(scf).chernoff == all_nested
    _passed(8, "100 random subjects: interval membership matches direct axiom checks")


def test_09_structure_flags_imply_empty_parts():
    moderate_seen = 0
    selective_seen = 0

    def check(scf):
        nonlocal moderate_seen, selective_seen
        sets = irrationality_sets(scf)
        flags = classify_transitivity(scf)
        if flags.moderate:
            moderate_seen += 1
            assert sets.transitivity.is_empty
        if scf.domain_kind is DomainKind.FULL:
            if is_selective_in_contractions(scf):
                selective_seen += 1
                assert sets.condorcet.is_empty
            if is_selective_in_expansions(scf):
                assert sets.chernoff.is_empty

    gen = SplitMix64(99001)
    for i in range(20):
        labels = ["a", "b", "c", "d"][: 3 + i % 2]
        check(luce(random_positive_utility(gen, labels)))
    for i in range(18):
        labels = ["a", "b", "c", "d"][: 3 + i % 2]
        alpha = F(1 + gen.below(9), 10)
        check(tremble(random_ranking_utility(gen, labels), alpha))

    utility = {"a": F(4), "b": F(2), "c": F(1)}
    metric = {("a", "b"): F(3, 2), ("b", "c"): F(1), ("a", "c"): F(2)}
    arguments = [
        (utility[x] - utility[y]) / metric[(x, y)] for x, y in metric
    ]
    check(mum_pairwise(utility, metric, mum_response_table(arguments)))
    wide = {("a", "b"): F(2), ("b", "c"): F(2), ("a", "c"): F(3)}
    wide_args = [(utility[x] - utility[y]) / wide[(x, y)] for x, y in wide]
    check(mum_pairwise(utility, wide, mum_response_table(wide_args)))

    assert moderate_seen >= 30 and selective_seen >= 20
    _passed(9, "moderate/selective structure flags imply the matching empty parts")


def test_10_almost_moderate_failures_are_never_maximal():
    failures = 0
    for seed in range(60):
        size = 3 + seed % 4
        labels = [chr(ord("a") + i) for i in range(size)]
        scf = random_scf(
            seed + 5000, labels, denominator_bound=9, domain_kind=DomainKind.PAIRWISE
        )
        if not classify_transitivity(scf).almost_moderate:
            failures += 1
            assert not irrationality_sets(scf).union.is_empty
    assert failures >= 5
    _passed(10, "subjects failing almost-moderate transitivity are never maximal")


def test_11_swap_index_values_and_order_reversal():
    coin = StochasticChoiceFunction({frozenset(("x", "y")): {"x": F(1, 2), "y": F(1, 2)}})
    coin_swap = swap_index(coin)
    assert coin_swap.value == F(1, 2)
    assert coin_swap.optimal_orders == 2

    smooth = luce({"x": 20, "y": 19, "z": 18})
    cycle = StochasticChoiceFunction(
        fraction_table(
            [
                (("x", "y"), {"x": F(7, 10), "y": F(3, 10)}),
                (("y", "z"), {"y": F(7, 10), "z": F(3, 10)}),
                (("x", "z"), {"x": F(3, 10), "z": F(7, 10)}),
                (("x", "y", "z"), {"x": F(1, 3), "y": F(1, 3), "z": F(1, 3)}),
            ]
        ),
    )
    assert swap_index(smooth).value == F(66137, 27417)
    assert swap_index(cycle).value == F(23, 10)
    # the swap index ranks the cyclic subject higher ...
    assert swap_index(cycle).value < swap_index(smooth).value
    # ... while set inclusion ranks the smooth one higher
    assert compare(smooth, cycle).verdict is Verdict.LEFT_MORE_RATIONAL
    _passed(11, "swap index exact on worked cases and reverses the inclusion order")


def test_12_committed_fixtures_analyze_deterministically():
    cycles = parse_dataset(FIXTURES / "pairwise_cycles.csv")
    soft = cycles.scf("cyc23")
    soft_sets = irrationality_sets(soft)
    assert triangular_condition(soft).holds
    assert not classify_transitivity(soft).weak
    assert str(soft_sets.union) == "(1/2,1]"
    assert soft_sets.union == soft_sets.transitivity
    hard = cycles.scf("cyc07")
    hard_sets = irrationality_sets(hard)
    assert not triangular_condition(hard).holds
    assert str(hard_sets.union) == "(3/7,1]"
    assert hard_sets.union == hard_sets.transitivity

    utility = {"a": F(4), "b": F(2), "c": F(1)}
    metric = {("a", "b"): F(3, 2), ("b", "c"): F(1), ("a", "c"): F(2)}
    arguments = [(utility[x] - utility[y]) / metric[(x, y)] for x, y in metric]
    moderate = mum_pairwise(utility, metric, mum_response_table(arguments))
    assert irrationality_sets(moderate).union.is_empty

    panel = parse_dataset(FIXTURES / "pairwise5_panel26.csv")
    report = run_analyze(panel)
    again = run_analyze(panel)
    assert render_json(report) == render_json(again)
    assert len(report.ok_subjects()) == 26
    by_subject = {entry.subject: entry for entry in report.ok_subjects()}
    assert by_subject["s01"].sets.maximally_rational
    assert str(by_subject["s03"].sets.union) == "(7/13,1]"
    assert str(by_subject["s04"].sets.union) == "(3/7,1]"
    edges = report.comparison.hasse_edges
    assert edges
    assert ("s01", "s03") in edges and ("s03", "s04") in edges
    _passed(12, "fixture datasets give frozen sets, flags and a stable panel report")


def test_13_maximal_rationality_without_total_rationality():
    twin = StochasticChoiceFunction(
        fraction_table(
            [
                (("x", "y"), {"x": F(1, 2), "y": F(1, 2)}),
                (("x", "xp"), {"xp": F(1)}),
                (("xp", "y"), {"xp": F(1, 2), "y": F(1, 2)}),
            ]
        ),
    )
    sets = irrationality_sets(twin)
    assert sets.maximally_rational
    assert totally_rational_regions(twin).is_empty
    _passed(13, "a maximally rational subject can fail total rationality everywhere")
