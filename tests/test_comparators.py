import itertools
import math
from fractions import Fraction

import pytest

from stochrat import (
    CapacityError,
    DomainKind,
    IntervalUnion,
    StochasticChoiceFunction,
    SwapResult,
    Verdict,
    compare,
    fishburn_correspondence,
    general_luce,
    houtman_maks,
    hybrid_compare,
    luce,
    random_scf,
    rum,
    swap_index,
    threshold_cuts,
    total_compare,
    totally_rational_regions,
    tremble,
    tremble_irrationality,
    uniform_drum,
)

from oracles import naive_swap_minimizers, naive_swap_value, totally_rational_bruteforce

F = Fraction


def coin():
    return StochasticChoiceFunction({frozenset(("x", "y")): {"x": F(1, 2), "y": F(1, 2)}})


def cycle_scf(p):
    p = F(p)
    return StochasticChoiceFunction(
        {
            frozenset(("x", "y")): {"x": p, "y": 1 - p},
            frozenset(("y", "z")): {"y": p, "z": 1 - p},
            frozenset(("x", "z")): {"x": 1 - p, "z": p},
            frozenset(("x", "y", "z")): {
                "x": F(1, 3),
                "y": F(1, 3),
                "z": F(1, 3),
            },
        },
    )


# -- swap index -----------------------------------------------------------------


def test_swap_index_of_coin():
    result = swap_index(coin())
    assert result.value == F(1, 2)
    assert result.optimal_orders == 2
    assert result.order == ("x", "y")


def test_swap_index_of_luce_20_19_18():
    scf = luce({"x": 20, "y": 19, "z": 18})
    result = swap_index(scf)
    assert result.value == F(66137, 27417)
    assert result.order == ("x", "y", "z")
    assert result.optimal_orders == 1


def test_swap_index_of_07_cycle():
    result = swap_index(cycle_scf("7/10"))
    assert result.value == F(23, 10)
    assert result.optimal_orders == 3


def test_swap_disagrees_with_set_inclusion():
    # the strongly transitive subject has the larger swap index, yet the
    # threshold comparison puts it strictly first
    strong = luce({"x": 20, "y": 19, "z": 18})
    cyclic = cycle_scf("7/10")
    assert swap_index(cyclic).value < swap_index(strong).value
    assert compare(strong, cyclic).verdict is Verdict.LEFT_MORE_RATIONAL


def test_swap_matches_naive_enumeration():
    for seed in range(15):
        scf = random_scf(seed, ["a", "b", "c", "d"])
        assert swap_index(scf).value == naive_swap_value(scf)


def test_swap_minimizer_is_lex_least_and_counted():
    # with bound 2 the weights are 0, 1 or 2, so orders often tie
    cases = [("abc", DomainKind.FULL, 20, seed) for seed in range(8)]
    for labels, kind in [
        ("abcd", DomainKind.FULL),
        ("abcde", DomainKind.FULL),
        ("ab", DomainKind.PAIRWISE),
        ("abcd", DomainKind.PAIRWISE),
        ("abcdef", DomainKind.PAIRWISE),
    ]:
        cases += [(labels, kind, bound, seed) for bound in (2, 20) for seed in range(3)]
    subjects = [
        random_scf(seed, labels, denominator_bound=bound, domain_kind=kind)
        for labels, kind, bound, seed in cases
    ]
    # models that give members probability zero by construction
    models = [
        general_luce(
            {"a": 2, "b": 3, "c": 1, "d": 3},
            {"abc": "ab", "bd": "d", "abcd": "cd", "acd": "a"},
        ),
        tremble({"a": 1, "b": 4, "c": 2, "d": 3}, 1),
        rum([({"a": 1, "b": 2, "c": 3}, F(1, 2)), ({"a": 3, "b": 1, "c": 2}, F(1, 2))]),
        uniform_drum(
            {"a": 1, "b": 2, "c": 3, "d": 4}, {"a": 4, "b": 3, "c": 1, "d": 2}, F(3, 5)
        ),
    ]
    for scf in models:
        assert any(0 in scf.menu_probs(menu).values() for menu in scf.menus())
    for scf in subjects + models:
        result = swap_index(scf)
        value, winners = naive_swap_minimizers(scf)
        assert result.value == value
        assert result.optimal_orders == len(winners)
        assert result.order == min(winners)


def coin_pairs(labels):
    return StochasticChoiceFunction(
        {
            frozenset(pair): dict.fromkeys(pair, F(1, 2))
            for pair in itertools.combinations(labels, 2)
        },
    )


def test_swap_of_all_coin_pairwise_subject():
    # every order passes over one alternative in each of the 10 pairs
    # with probability 1/2, so all 5! orders tie at 5
    result = swap_index(coin_pairs("abcde"))
    assert result == SwapResult(F(5), ("a", "b", "c", "d", "e"), 120)


def test_swap_is_label_invariant():
    scf = random_scf(4, ["a", "b", "c"])
    relabeled = StochasticChoiceFunction(
        {
            frozenset("p" + x for x in menu): {
                "p" + x: scf.prob(x, menu) for x in menu
            }
            for menu in scf.menus()
        },
    )
    assert swap_index(scf).value == swap_index(relabeled).value


def test_swap_capacity():
    labels = [f"a{i:02d}" for i in range(13)]
    with pytest.raises(CapacityError, match="up to 12 alternatives; got 13"):
        swap_index(coin_pairs(labels))
    # as in the five-coin case: all 12! orders tie at 66 * 1/2
    result = swap_index(coin_pairs(labels[:12]))
    assert result == SwapResult(F(33), tuple(labels[:12]), math.factorial(12))


def ranked_pairs(reversed_pair=()):
    """Pairwise subject on seven alternatives from the weak order with
    levels {a0,a1} > {a2,a3} > {a4,a5} > {a6}: 1/2 within a level, 2/3 for
    the better one across levels, except that the pair ``reversed_pair``
    gives its worse member 2/3."""
    labels = [f"a{i}" for i in range(7)]
    table = {}
    for x, y in itertools.combinations(labels, 2):
        if int(x[1:]) // 2 == int(y[1:]) // 2:
            table[frozenset((x, y))] = {x: F(1, 2), y: F(1, 2)}
        else:
            better, worse = (y, x) if (x, y) == reversed_pair else (x, y)
            table[frozenset((x, y))] = {better: F(2, 3), worse: F(1, 3)}
    return StochasticChoiceFunction(table)


def oracle_total_regions(scf):
    cuts = threshold_cuts(scf)
    return IntervalUnion.from_pairs(
        (lo, hi)
        for lo, hi in zip((F(0),) + cuts, cuts)
        if totally_rational_bruteforce(fishburn_correspondence(scf, hi))
    )


def test_region_comparator_capacity():
    # seven alternatives were above the old weak-order enumeration's cap
    ranked = ranked_pairs()
    cycled = ranked_pairs(("a0", "a6"))  # a0 > a2 > a6 > a0 above 1/2
    assert str(totally_rational_regions(ranked)) == "(0,1]"
    assert str(totally_rational_regions(cycled)) == "(0,1/2]"
    for scf in (ranked, cycled):
        assert totally_rational_regions(scf) == oracle_total_regions(scf)
    result = total_compare(ranked, cycled)
    assert result.verdict is Verdict.LEFT_MORE_RATIONAL
    assert result.left_minus_right.is_empty
    assert result.right_minus_left == oracle_total_regions(ranked).difference(
        oracle_total_regions(cycled)
    )
    five = random_scf(1, "abcde")  # 26 menus
    with pytest.raises(CapacityError, match="up to 20 menus; got 26"):
        hybrid_compare(five, five)


@pytest.mark.parametrize("alpha", [F(1, 3), F(3, 5)])
@pytest.mark.parametrize("n", range(3, 13))
def test_tremble_is_totally_rational_off_its_irrationality_set(n, alpha):
    scf = tremble({f"a{i:02d}": i + 1 for i in range(n)}, alpha)
    assert totally_rational_regions(scf) == tremble_irrationality(n, alpha).complement()


def test_coin_has_maximal_swap_value_among_two_alternative_scfs():
    # on two alternatives the swap index is min(p, 1-p) <= 1/2
    target = swap_index(coin()).value
    for seed in range(30):
        scf = random_scf(seed, ["x", "y"], domain_kind=DomainKind.PAIRWISE)
        assert swap_index(scf).value <= target


# -- threshold-region comparators ---------------------------------------------------


def twin_pairwise():
    return StochasticChoiceFunction(
        {
            frozenset(("x", "y")): {"x": F(1, 2), "y": F(1, 2)},
            frozenset(("x", "xp")): {"xp": F(1)},
            frozenset(("xp", "y")): {"xp": F(1, 2), "y": F(1, 2)},
        },
    )


def uniform_pairwise():
    return StochasticChoiceFunction(
        {
            frozenset(("x", "y")): {"x": F(1, 2), "y": F(1, 2)},
            frozenset(("x", "xp")): {"x": F(1, 2), "xp": F(1, 2)},
            frozenset(("xp", "y")): {"xp": F(1, 2), "y": F(1, 2)},
        },
    )


def test_totally_rational_regions_of_twin_is_empty():
    assert totally_rational_regions(twin_pairwise()).is_empty
    assert str(totally_rational_regions(uniform_pairwise())) == "(0,1]"


def test_total_compare_uniform_beats_twin():
    result = total_compare(twin_pairwise(), uniform_pairwise())
    assert result.verdict is Verdict.RIGHT_MORE_RATIONAL
    assert str(result.left_minus_right) == "(0,1]"


def test_hybrid_compare_ties_twin_and_uniform():
    # neither subject ever needs a menu removed
    assert hybrid_compare(twin_pairwise(), uniform_pairwise()).verdict is (
        Verdict.EQUIVALENT
    )


def test_hybrid_compare_detects_cycle_cost():
    smooth = luce({"x": 3, "y": 2, "z": 1})
    result = hybrid_compare(smooth, cycle_scf("7/10"))
    assert result.verdict is Verdict.LEFT_MORE_RATIONAL
    assert result.left_minus_right.is_empty
    assert not result.right_minus_left.is_empty


def test_total_compare_never_contradicts_strict_verdicts():
    u = {"x": 3, "y": 2, "z": 1}
    v = {"z": 3, "y": 2, "x": 1}
    pairs = [
        (luce(u), uniform_drum(u, v, F(2, 3))),
        (uniform_drum(u, v, F(3, 4)), uniform_drum(u, v, F(2, 3))),
        (luce(u), cycle_scf("7/10")),
    ]
    for left, right in pairs:
        inclusion = compare(left, right).verdict
        regional = total_compare(left, right).verdict
        assert not (
            inclusion is Verdict.LEFT_MORE_RATIONAL
            and regional is Verdict.RIGHT_MORE_RATIONAL
        )
        assert not (
            inclusion is Verdict.RIGHT_MORE_RATIONAL
            and regional is Verdict.LEFT_MORE_RATIONAL
        )


def test_comparators_on_identical_subjects_are_equivalent():
    scf = random_scf(9, ["a", "b", "c"])
    assert hybrid_compare(scf, scf).verdict is Verdict.EQUIVALENT
    assert total_compare(scf, scf).verdict is Verdict.EQUIVALENT


def worse_regions(left, right, worse):
    """Union of the merged threshold regions (lo, hi] on which
    ``worse(left correspondence, right correspondence)`` holds at hi."""
    cuts = sorted(set(threshold_cuts(left)) | set(threshold_cuts(right)))
    return IntervalUnion.from_pairs(
        (lo, hi)
        for lo, hi in zip([F(0)] + cuts, cuts)
        if worse(fishburn_correspondence(left, hi), fishburn_correspondence(right, hi))
    )


@pytest.mark.parametrize(
    "seeds, verdict",
    [
        ((0, 2), Verdict.INCOMPARABLE),
        ((0, 7), Verdict.LEFT_MORE_RATIONAL),
        ((0, 1), Verdict.RIGHT_MORE_RATIONAL),
        ((2, 2), Verdict.EQUIVALENT),
    ],
)
def test_region_comparators_reach_every_verdict(seeds, verdict):
    left, right = (random_scf(seed, ["a", "b", "c"]) for seed in seeds)

    def more_removals(c_left, c_right):
        return houtman_maks(c_left) > houtman_maks(c_right)

    hybrid = hybrid_compare(left, right)
    assert hybrid.verdict is verdict
    assert hybrid.left_minus_right == worse_regions(left, right, more_removals)
    assert hybrid.right_minus_left == worse_regions(right, left, more_removals)

    total = total_compare(left, right)
    assert total.verdict is verdict
    left_total = totally_rational_regions(left)
    right_total = totally_rational_regions(right)
    assert total.left_minus_right == right_total.difference(left_total)
    assert total.right_minus_left == left_total.difference(right_total)
