"""Differential test of the rank-coded core against the Fraction formulas.

``stochrat.measure`` works on integer ranks and bitmasks; ``oracles`` keeps
the interval formulas and exhaustive witness scans over Fractions.  On
seeded subjects of both domains every set, witness and flag must agree, and
the union must agree with direct axiom checking on the critical grid.
"""

from fractions import Fraction

import pytest

import oracles
from stochrat import (
    DomainKind,
    IntervalUnion,
    SplitMix64,
    chernoff_set,
    classify_transitivity,
    condorcet_set,
    critical_lambdas,
    irrationality_sets,
    is_lambda_rational,
    is_selective_in_contractions,
    is_selective_in_expansions,
    luce,
    random_scf,
    transitivity_set,
    triangular_condition,
    tremble,
)

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
    for lam in critical_lambdas(scf):
        assert union.contains(lam) != bool(is_lambda_rational(scf, lam))


def test_subjects_cover_both_selectivity_outcomes():
    full = [s for s in SUBJECTS.values() if s.domain_kind is DomainKind.FULL]
    assert any(is_selective_in_contractions(s) and is_selective_in_expansions(s) for s in full)
    assert any(not is_selective_in_contractions(s) for s in full)
    assert any(not is_selective_in_expansions(s) for s in full)
    assert any(not irrationality_sets(s).maximally_rational for s in full)
