import itertools
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import stochrat
from stochrat import (
    DomainKind,
    SplitMix64,
    StochasticChoiceFunction,
    classify_transitivity,
    consistent_over_triplets,
    consistent_over_tuples,
    drum,
    general_luce,
    irrationality_sets,
    lead_chain_consistent,
    lead_consistent_over_triplets,
    luce,
    mum_pairwise,
    mum_response_table,
    random_positive_utility,
    random_ranking_utility,
    random_scf,
    rationality_index,
    rum,
    tremble,
    tremble_index,
    tremble_irrationality,
    two_stage_luce,
    uniform_drum,
    uniform_drum_irrationality,
)

from stochrat.scf import required_menus

from oracles import two_stage_focus

F = Fraction
XYZ = frozenset(("x", "y", "z"))
U321 = {"x": 3, "y": 2, "z": 1}
REV = {"z": 3, "y": 2, "x": 1}
# a drum weight for each menu on {x, y, z}
FULL_WEIGHTS = {("x", "y"): F(1, 2), ("y", "z"): F(1, 4), ("x", "z"): F(1), XYZ: F(3, 4)}


# -- luce -------------------------------------------------------------------------


def test_luce_probabilities():
    scf = luce({"x": 20, "y": 19, "z": 18})
    assert scf.pair_prob("x", "y") == F(20, 39)
    assert scf.prob("x", XYZ) == F(20, 57)


def test_luce_is_maximally_rational():
    scf = luce({"x": 20, "y": 19, "z": 18})
    assert irrationality_sets(scf).union.is_empty
    assert rationality_index(scf) == 1


def test_luce_requires_positive_utility():
    with pytest.raises(ValueError):
        luce({"x": 1, "y": 0, "z": 2})


# -- general luce -------------------------------------------------------------------


def test_general_luce_zero_outside_consideration():
    scf = general_luce(U321, {XYZ: frozenset(("x", "z"))})
    assert scf.prob("y", XYZ) == 0
    assert scf.prob("x", XYZ) == F(3, 4)


def test_general_luce_defaults_to_plain_luce():
    assert general_luce(U321, {}) == luce(U321)


def test_general_luce_consideration_must_be_subset():
    with pytest.raises(ValueError):
        general_luce(U321, {frozenset(("x", "y")): frozenset(("z",))})


@pytest.mark.parametrize(
    "build,menu",
    [
        (lambda: general_luce(U321, {("x", "q"): ("q",)}), "consideration set for {q,x}"),
        (lambda: general_luce(U321, {("x",): ("x",)}), "consideration set for {x}"),
        (lambda: drum(U321, REV, {**FULL_WEIGHTS, ("x", "zz"): F(7, 8)}), "weight for {x,zz}"),
        (lambda: drum(U321, REV, {**FULL_WEIGHTS, ("z",): F(1, 2)}), "weight for {z}"),
    ],
    ids=["luce-outside", "luce-singleton", "drum-outside", "drum-singleton"],
)
def test_a_parameter_for_a_menu_outside_the_full_domain_is_refused(build, menu):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == f"{menu}: not a menu of the full domain on {{x,y,z}}"


def test_general_luce_minimal_example():
    scf = general_luce(
        U321,
        {
            frozenset(("x", "y")): frozenset(("y",)),
            frozenset(("y", "z")): frozenset(("y",)),
            XYZ: frozenset(("x", "z")),
        },
    )
    sets = irrationality_sets(scf)
    assert sets.condorcet == sets.union
    assert str(sets.union) == "(0,1]"
    assert rationality_index(scf) == 0
    assert sets.minimally_rational


# -- two-stage luce ------------------------------------------------------------------


def test_two_stage_luce_restricts_to_undominated():
    scf, proper = two_stage_luce(U321, [("x", "y")])
    assert proper
    assert scf.prob("y", frozenset(("x", "y"))) == 0
    assert scf.prob("y", XYZ) == 0
    assert scf.prob("x", XYZ) == F(3, 4)


def test_two_stage_luce_dominance_closure():
    scf, _ = two_stage_luce(U321, [("x", "y"), ("y", "z")])
    # x dominates z through the closure
    assert scf.prob("z", frozenset(("x", "z"))) == 0


def test_two_stage_luce_improper_when_utility_disagrees():
    scf, proper = two_stage_luce(U321, [("y", "x")])
    assert not proper
    assert scf.prob("x", frozenset(("x", "y"))) == 0


def test_two_stage_luce_rejects_cycles():
    with pytest.raises(ValueError, match="cycle"):
        two_stage_luce(U321, [("x", "y"), ("y", "x")])


def test_two_stage_luce_names_the_least_pair_outside_under_every_hash_seed():
    # the pairs form a set: checked in its iteration order, the named pair
    # changed with PYTHONHASHSEED
    code = (
        "from stochrat import two_stage_luce\n"
        "try:\n"
        "    two_stage_luce({'a': 1, 'b': 2, 'c': 3},"
        " [('a', 'q'), ('r', 'b'), ('s', 'c'), ('b', 't')])\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(stochrat.__file__).resolve().parent.parent)
    for seed in range(1, 7):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.stdout == "dominance pair (a,q) outside the universe\n", (
            seed,
            done.stderr,
        )


def _random_dominance(gen, labels):
    """Pairs along a shuffled order (acyclic), then one fault or none: a
    reversed pair, a three-cycle, a self-pair or a label outside (with a
    self-pair, so that the first error is the one that counts)."""
    order = list(labels)
    gen.shuffle(order)
    pairs = [p for p in itertools.combinations(order, 2) if gen.below(3) == 0]
    fault = ("reversed", "three-cycle", "self-pair", "outside", "none", "none")[
        gen.below(6)
    ]
    if fault == "reversed" and pairs:
        a, b = pairs[gen.below(len(pairs))]
        pairs.append((b, a))
    elif fault == "three-cycle":
        a, b, c = order[:3]
        pairs += [(b, c), (c, a), (a, b)]
    elif fault == "self-pair":
        pairs.append((order[0], order[0]))
    elif fault == "outside":
        pairs += [(order[0], "q"), (order[1], order[1])]
    gen.shuffle(pairs)
    return fault, pairs


def test_two_stage_luce_matches_the_fixpoint_closure():
    gen = SplitMix64(77)
    seen = Counter()
    for _ in range(400):
        labels = "abcdef"[: 3 + gen.below(4)]
        utility = random_positive_utility(gen, labels, bound=5)
        fault, dominance = _random_dominance(gen, labels)
        try:
            focus, proper = two_stage_focus(utility, dominance)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                two_stage_luce(utility, dominance)
            assert str(raised.value) == str(exc)
            seen[fault, str(exc)] += 1
            continue
        scf, got_proper = two_stage_luce(utility, dominance)
        assert scf == general_luce(utility, focus)
        assert got_proper == proper
        seen[fault, proper] += 1
    cycle = "dominance relation has a cycle"
    for key in [("self-pair", cycle), ("three-cycle", cycle), ("none", True)]:
        assert seen[key] >= 20, key
    assert seen["none", False] >= 20
    assert sum(n for (fault, _), n in seen.items() if fault == "outside") >= 20


# -- dRUM -----------------------------------------------------------------------------


def test_uniform_drum_mixture():
    scf = uniform_drum(U321, REV, F(2, 3))
    assert scf.prob("x", XYZ) == F(2, 3)
    assert scf.prob("z", XYZ) == F(1, 3)
    assert scf.pair_prob("y", "z") == F(2, 3)


def test_uniform_drum_agreement_collapses():
    scf = uniform_drum(U321, {"x": 9, "y": 8, "z": 7}, F(2, 3))
    assert scf.prob("x", XYZ) == 1


def test_uniform_drum_requires_injective_utilities():
    with pytest.raises(ValueError):
        uniform_drum({"x": 1, "y": 1, "z": 2}, REV, F(1, 2))


def test_drum_menu_dependent_weights():
    theta = {
        frozenset(("x", "y")): F(1, 2),
        frozenset(("y", "z")): F(1, 4),
        frozenset(("x", "z")): F(1),
        XYZ: F(3, 4),
    }
    scf = drum(U321, REV, theta)
    assert scf.prob("x", XYZ) == F(3, 4)
    assert scf.pair_prob("y", "z") == F(1, 4)


def test_drum_requires_weight_for_every_menu():
    with pytest.raises(ValueError, match="no weight"):
        drum(U321, REV, {XYZ: F(1, 2)})


def test_uniform_drum_closed_form_consistent_case():
    scf = uniform_drum(U321, {"x": 5, "y": 1, "z": 3}, F(3, 5))
    assert consistent_over_triplets(U321, {"x": 5, "y": 1, "z": 3})
    assert irrationality_sets(scf).union.is_empty
    assert uniform_drum_irrationality(U321, {"x": 5, "y": 1, "z": 3}, F(3, 5)).is_empty


def test_uniform_drum_closed_form_inconsistent_case():
    for theta in (F(1, 2), F(5, 9), F(2, 3), F(3, 4), F(9, 10)):
        scf = uniform_drum(U321, REV, theta)
        expected = uniform_drum_irrationality(U321, REV, theta)
        assert irrationality_sets(scf).union == expected
        assert str(expected) == f"(0,{(1 - theta) / theta}]"


def test_uniform_drum_closed_form_requires_majority_weight():
    with pytest.raises(ValueError, match="swap"):
        uniform_drum_irrationality(U321, REV, F(1, 3))


# -- RUM ------------------------------------------------------------------------------


def test_rum_mixture_weights():
    u1 = U321
    u2 = {"y": 3, "x": 2, "z": 1}
    u3 = {"z": 3, "x": 2, "y": 1}
    scf = rum([(u1, F(2, 3)), (u2, F(1, 6)), (u3, F(1, 6))])
    assert scf.prob("x", XYZ) == F(2, 3)
    assert scf.pair_prob("x", "y") == F(5, 6)
    assert irrationality_sets(scf).union == irrationality_sets(scf).chernoff


def test_rum_weights_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        rum([(U321, F(1, 2)), (REV, F(1, 3))])


def test_rum_weights_must_be_positive():
    with pytest.raises(ValueError):
        rum([(U321, F(3, 2)), (REV, F(-1, 2))])


def test_rum_single_ranking_is_deterministic():
    scf = rum([(U321, F(1))])
    assert scf.prob("x", XYZ) == 1


# -- consistency predicates ------------------------------------------------------------


def test_consistent_over_triplets():
    assert consistent_over_triplets(U321, {"x": 5, "y": 1, "z": 3})
    assert not consistent_over_triplets(U321, REV)


def test_consistent_over_tuples_matches_pairwise_case():
    assert consistent_over_tuples([U321, {"x": 5, "y": 1, "z": 3}])
    assert not consistent_over_tuples([U321, REV])


def test_consistent_over_tuples_three_utilities():
    u1 = {"w": 3, "a": 4, "b": 2, "c": 1}
    u2 = {"w": 3, "b": 4, "c": 2, "a": 1}
    u3 = {"w": 3, "c": 4, "a": 2, "b": 1}
    assert not consistent_over_tuples([u1, u2, u3])
    # small universes cannot host an (n+1)-tuple violation
    assert consistent_over_tuples([U321, REV, U321])


def test_lead_consistency_needs_every_follower_to_reverse():
    assert not lead_consistent_over_triplets([U321, REV, {"z": 9, "y": 6, "x": 3}])
    assert lead_consistent_over_triplets([U321, REV, U321])


def _no_reversed_triple(u, v):
    return not any(
        u[x] > u[y] > u[z] and v[z] > v[y] > v[x]
        for x, y, z in itertools.permutations(u, 3)
    )


def _utility(gen, labels, tied):
    """Values in {0, 1, 2} (ties likely), or a shuffled injective ranking."""
    if tied:
        return {x: gen.below(3) for x in labels}
    values = list(range(len(labels)))
    gen.shuffle(values)
    return dict(zip(labels, values))


@pytest.mark.parametrize("tied", [False, True])
def test_two_ranking_predicates_agree(tied):
    gen = SplitMix64(17 + tied)
    outcomes = set()
    for _ in range(500):
        labels = "abcdef"[: 1 + gen.below(6)]
        u, v = (_utility(gen, labels, tied) for _ in range(2))
        expected = _no_reversed_triple(u, v)
        assert consistent_over_triplets(u, v) is expected
        assert consistent_over_tuples([u, v]) is expected
        assert lead_consistent_over_triplets([u, v]) is expected
        outcomes.add(expected)
    assert outcomes == {True, False}


def test_lead_chain_consistency():
    assert lead_chain_consistent([U321, {"x": 9, "z": 8, "y": 7}])
    assert not lead_chain_consistent([U321, REV])


# -- tremble -----------------------------------------------------------------------------


def test_tremble_probabilities():
    scf = tremble(U321, F(1, 2))
    assert scf.prob("x", XYZ) == F(2, 3)
    assert scf.prob("y", XYZ) == F(1, 6)
    assert scf.pair_prob("y", "x") == F(1, 4)


def test_tremble_degenerate_weights():
    assert tremble(U321, F(0)).prob("x", XYZ) == F(1, 3)
    assert tremble(U321, F(1)).prob("x", XYZ) == 1


def test_tremble_closed_form_matches_pipeline():
    for alpha in (F(1, 10), F(1, 3), F(1, 2), F(9, 10)):
        scf = tremble(U321, alpha)
        assert irrationality_sets(scf).union == tremble_irrationality(3, alpha)
        assert rationality_index(scf) == tremble_index(3, alpha)


def test_tremble_closed_form_edges():
    assert tremble_irrationality(3, F(0)).is_empty
    assert tremble_irrationality(3, F(1)).is_empty
    assert tremble_index(3, F(0)) == 1
    assert tremble_index(3, F(1)) == 1


def test_tremble_closed_form_requires_unpaired_universe():
    with pytest.raises(ValueError):
        tremble_irrationality(2, F(1, 2))
    with pytest.raises(ValueError):
        tremble_irrationality(3, F(3, 2))


# -- MUM ---------------------------------------------------------------------------------


def mum_inputs():
    utility = {"a": F(4), "b": F(2), "c": F(1)}
    metric = {("a", "b"): F(3, 2), ("b", "c"): F(1), ("a", "c"): F(2)}
    arguments = [
        (utility["a"] - utility["b"]) / metric[("a", "b")],
        (utility["b"] - utility["c"]) / metric[("b", "c")],
        (utility["a"] - utility["c"]) / metric[("a", "c")],
    ]
    return utility, metric, mum_response_table(arguments)


def test_mum_response_table_is_odd_and_increasing():
    _, _, table = mum_inputs()
    points = sorted(table)
    values = [table[p] for p in points]
    assert values == sorted(values)
    assert table[F(0)] == F(1, 2)
    for p in points:
        assert table[p] + table[-p] == 1


def test_mum_pairwise_probabilities():
    utility, metric, table = mum_inputs()
    scf = mum_pairwise(utility, metric, table)
    assert scf.pair_prob("a", "b") == table[F(4 - 2, 1) / F(3, 2)]
    assert scf.domain_kind is DomainKind.PAIRWISE


def test_mum_is_maximally_rational():
    utility, metric, table = mum_inputs()
    scf = mum_pairwise(utility, metric, table)
    assert irrationality_sets(scf).union.is_empty
    flags = classify_transitivity(scf)
    assert flags.strong


def test_mum_metric_must_satisfy_triangle_inequality():
    utility, _, table = mum_inputs()
    bad = {("a", "b"): F(1), ("b", "c"): F(1), ("a", "c"): F(5)}
    with pytest.raises(ValueError, match="triangle"):
        mum_pairwise(utility, bad, table)


def test_mum_response_must_cover_realized_arguments():
    utility, metric, table = mum_inputs()
    table = dict(table)
    removed = (utility["a"] - utility["c"]) / metric[("a", "c")]
    del table[removed]
    del table[-removed]
    with pytest.raises(ValueError):
        mum_pairwise(utility, metric, table)


def test_mum_response_must_be_odd():
    utility, metric, table = mum_inputs()
    table = dict(table)
    point = next(p for p in table if p > 0)
    table[-point] = table[point]  # breaks q(-d) = 1 - q(d)
    with pytest.raises(ValueError):
        mum_pairwise(utility, metric, table)


# -- seeded generators ----------------------------------------------------------------------


def test_random_ranking_utility_is_permutation():
    gen = SplitMix64(11)
    u = random_ranking_utility(gen, ["a", "b", "c", "d"])
    assert sorted(u.values()) == [1, 2, 3, 4]


def test_random_positive_utility_in_bounds():
    gen = SplitMix64(11)
    u = random_positive_utility(gen, ["a", "b", "c"], bound=30)
    assert all(1 <= v <= 30 for v in u.values())


def test_random_scf_pairwise_domain():
    scf = random_scf(3, ["a", "b", "c", "d"], domain_kind=DomainKind.PAIRWISE)
    assert scf.domain_kind is DomainKind.PAIRWISE
    assert len(scf.menus()) == 6


def test_generator_reproducibility():
    assert random_ranking_utility(SplitMix64(7), ["p", "q"]) == random_ranking_utility(
        SplitMix64(7), ["p", "q"]
    )


def _generated(n: int, seed: int):
    """(expected kind, subject) for every generator of the library at n
    labels, each drawn from a seed; full-domain generators need n >= 3."""
    labels = [f"a{i}" for i in range(n)]
    gen = SplitMix64(seed)
    u, v = random_ranking_utility(gen, labels), random_ranking_utility(gen, labels)
    positive = random_positive_utility(gen, labels)
    pairs = [frozenset(pair) for pair in itertools.combinations(labels, 2)]
    realized = [u[x] - u[y] for x, y in itertools.permutations(labels, 2)]
    subjects = [
        (DomainKind.PAIRWISE, random_scf(seed, labels, domain_kind=DomainKind.PAIRWISE)),
        (DomainKind.PAIRWISE,
         mum_pairwise(u, dict.fromkeys(pairs, 1), mum_response_table(realized))),
    ]
    if n >= 3:
        full = [
            random_scf(seed, labels),
            luce(positive),
            general_luce(positive, {tuple(labels[:3]): labels[1:3]}),
            two_stage_luce(positive, [(labels[0], labels[1])])[0],
            uniform_drum(u, v, F(1, 3)),
            drum(u, v, {m: F(len(m), n + 1) for m in required_menus(labels, DomainKind.FULL)}),
            rum([(u, F(1, 2)), (v, F(1, 4)), (random_ranking_utility(gen, labels), F(1, 4))]),
            tremble(u, F(2, 5)),
        ]
        subjects += [(DomainKind.FULL, scf) for scf in full]
    return subjects


@pytest.mark.parametrize("n", range(2, 8))
def test_every_generator_round_trips_through_the_inferring_constructor(n):
    # the constructor reads the domain kind off the menus alone
    for seed in (n, 100 + n):
        for kind, scf in _generated(n, seed):
            rebuilt = StochasticChoiceFunction({m: scf.menu_probs(m) for m in scf.menus()})
            assert scf.domain_kind is kind
            assert rebuilt == scf
            assert rebuilt.domain_kind is kind
