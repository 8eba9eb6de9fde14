import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochrat import (
    CapacityError,
    ChoiceCorrespondence,
    Preorder,
    check_axioms,
    houtman_maks,
    is_rational,
    is_totally_rational,
    max_correspondence,
    SplitMix64,
)
from stochrat import choice

from oracles import (
    all_preorders,
    axiom_violations,
    fixpoint_closure,
    random_preorder,
    rationalizable_bruteforce,
    rationalized_by,
    totally_rational_bruteforce,
    transitivity_error,
    weak_order_levels,
)


def corr(mapping):
    return ChoiceCorrespondence(
        {frozenset(menu): frozenset(chosen) for menu, chosen in mapping.items()}
    )


XYZ = ("x", "y", "z")
FULL3 = {("x", "y"), ("y", "z"), ("x", "z"), ("x", "y", "z")}


def full3(choices):
    return corr({menu: choices[menu] for menu in FULL3})


# -- validation ----------------------------------------------------------------


def test_choice_must_be_nonempty_subset():
    with pytest.raises(ValueError):
        corr({("x", "y"): ()})
    with pytest.raises(ValueError):
        corr({("x", "y"): ("z",)})


def test_frozenset_menus_after_valid_ones_are_still_validated():
    ok = frozenset(("x", "y"))
    for bad in (frozenset(("x", 1)), frozenset(("y", "")), frozenset()):
        with pytest.raises(ValueError):
            ChoiceCorrespondence({ok: ok, bad: ok})
    with pytest.raises(ValueError, match="duplicate menu"):
        ChoiceCorrespondence({ok: ok, ("y", "x"): ("x",)})
    with pytest.raises(ValueError, match="not in menu"):
        ChoiceCorrespondence({ok: ok, frozenset(("y",)): ("x",)})
    with pytest.raises(ValueError, match="universe"):
        ChoiceCorrespondence({ok: ok, frozenset(("y",)): ("y",)}, universe=("x",))


def test_table_kept_in_menu_key_order_whatever_the_input_order():
    menus = [frozenset(m) for m in ("xyz", "yz", "xz", "xy", "z", "x")]
    forward = ChoiceCorrespondence({m: m for m in menus})
    backward = ChoiceCorrespondence({m: m for m in reversed(menus)})
    assert repr(forward) == repr(backward)
    assert repr(forward).startswith("ChoiceCorrespondence({x}->{x}, {x,y}->{x,y}, {x,y,z}")
    assert forward.universe == ("x", "y", "z")


def test_singleton_menus_are_trivial():
    c = corr({("x",): ("x",), ("x", "y"): ("y",)})
    assert c.choice(frozenset(("x",))) == {"x"}
    assert is_rational(c)
    with pytest.raises(ValueError):
        corr({("x",): ("y",)})


# -- axioms on hand-built correspondences ---------------------------------------


def test_utility_maximizer_is_rational():
    c = full3(
        {
            ("x", "y"): ("x",),
            ("y", "z"): ("y",),
            ("x", "z"): ("x",),
            ("x", "y", "z"): ("x",),
        }
    )
    report = check_axioms(c)
    assert report.all_hold
    assert is_rational(c)


def test_contraction_violation_detected():
    # chosen from the big menu but not from a submenu it belongs to
    c = full3(
        {
            ("x", "y"): ("y",),
            ("y", "z"): ("y",),
            ("x", "z"): ("x",),
            ("x", "y", "z"): ("x",),
        }
    )
    report = check_axioms(c)
    assert not report.chernoff
    menu, larger, alternative = report.chernoff_witness
    assert alternative == "x"
    assert menu == frozenset({"x", "y"})
    assert larger == frozenset({"x", "y", "z"})


def test_pairwise_winner_violation_detected():
    # x beats everything head-to-head yet loses the full menu
    c = full3(
        {
            ("x", "y"): ("x",),
            ("y", "z"): ("y",),
            ("x", "z"): ("x",),
            ("x", "y", "z"): ("y",),
        }
    )
    report = check_axioms(c)
    assert not report.condorcet
    menu, alternative = report.condorcet_witness
    assert menu == frozenset(XYZ)
    assert alternative == "x"


def test_cycle_violation_detected():
    c = corr(
        {
            ("x", "y"): ("x",),
            ("y", "z"): ("y",),
            ("x", "z"): ("z",),
        }
    )
    report = check_axioms(c)
    assert not report.no_cycle
    assert report.no_cycle_witness == ("x", "y", "z")
    assert not is_rational(c)


def test_indifference_is_allowed():
    c = full3(
        {
            ("x", "y"): ("x", "y"),
            ("y", "z"): ("y", "z"),
            ("x", "z"): ("x", "z"),
            ("x", "y", "z"): ("x", "y", "z"),
        }
    )
    assert is_rational(c)
    assert is_totally_rational(c)


def test_twin_correspondence_rational_but_not_totally():
    # y is incomparable to both x and x_plus, while x_plus dominates x
    c = corr(
        {
            ("x", "y"): ("x", "y"),
            ("x", "xp"): ("xp",),
            ("xp", "y"): ("xp", "y"),
            ("x", "xp", "y"): ("xp", "y"),
        }
    )
    assert is_rational(c)
    assert not is_totally_rational(c)


# -- preorders and generated correspondences ------------------------------------


def test_preorder_requires_transitivity():
    with pytest.raises(ValueError):
        Preorder(XYZ, {("x", "y"), ("y", "z")})


def test_preorder_error_is_the_least_violation_under_every_hash_seed():
    # the pairs are a set, so a scan in set order would name a different
    # violation under different hash seeds
    code = (
        "from stochrat import Preorder\n"
        "try:\n"
        "    Preorder('abcde', {('a','b'), ('b','c'), ('c','d'), ('d','e')})\n"
        "except ValueError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(choice.__file__).resolve().parent.parent)
    messages = set()
    for seed in range(1, 7):
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed)),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert done.returncode == 0, (seed, done.stderr)
        messages.add(done.stdout.strip())
    assert messages == {
        "relation is not transitive: (a,b) and (b,c) present but (a,c) missing"
    }


@pytest.mark.parametrize("seed", range(6))
def test_preorder_matches_the_fixpoint_closure(seed):
    # seeded relations on 1-12 labels, sparse to dense (27 of the 72 are
    # transitive): the closure and, on the raw pairs, the least violation's
    # message
    gen = SplitMix64(seed)
    for n in range(1, 13):
        names = [f"l{i:02d}" for i in range(n)]
        gen.shuffle(names)
        labels = tuple(names)
        density = 1 + gen.below(6)
        pairs = [
            (a, b)
            for a in labels
            for b in labels
            if a != b and gen.below(2 + density * n // 4) == 0
        ]
        closed = fixpoint_closure(labels, pairs)

        def relation(order):
            return {(a, b) for a in labels for b in labels if order.geq(a, b)}

        assert relation(Preorder.closure(labels, pairs)) == closed
        assert relation(Preorder(labels, closed)) == closed
        message = transitivity_error(labels, pairs)
        if message is None:
            assert relation(Preorder(labels, pairs)) == closed
        else:
            with pytest.raises(ValueError) as info:
                Preorder(labels, pairs)
            assert str(info.value) == message


def test_preorder_names_the_least_pair_outside_the_universe():
    for build in (Preorder, Preorder.closure):
        with pytest.raises(ValueError) as info:
            build(XYZ, {("x", "y"), ("y", "w"), ("v", "x")})
        assert str(info.value) == "pair (v,x) outside the universe"


def test_preorder_closure():
    p = Preorder.closure(XYZ, {("x", "y"), ("y", "z")})
    assert p.geq("x", "z")
    assert p.strictly_better("x", "z")
    assert not p.geq("z", "x")


def test_max_correspondence_of_weak_order():
    p = Preorder.closure(XYZ, {("x", "y"), ("y", "x"), ("x", "z"), ("y", "z")})
    c = max_correspondence(p, [frozenset(m) for m in FULL3])
    assert c.choice(frozenset(("x", "y"))) == {"x", "y"}
    assert c.choice(frozenset(XYZ)) == {"x", "y"}
    assert c.choice(frozenset(("y", "z"))) == {"y"}


def test_max_correspondence_always_rational():
    gen = SplitMix64(17)
    labels = ("a", "b", "c", "d", "e")
    menus = [
        frozenset(m)
        for k in range(2, 6)
        for m in itertools.combinations(labels, k)
    ]
    for _ in range(60):
        relation = random_preorder(gen, labels)
        pairs = {(a, b) for a, b in relation if a != b}
        p = Preorder(labels, pairs)
        c = max_correspondence(p, menus)
        assert is_rational(c)


def test_axioms_match_bruteforce_rationalizability():
    # every 4-menu correspondence on three alternatives, both routes
    menus = [frozenset(m) for m in FULL3]
    options = {
        menu: [
            frozenset(s)
            for k in range(1, len(menu) + 1)
            for s in itertools.combinations(sorted(menu), k)
        ]
        for menu in menus
    }
    agree = 0
    for picks in itertools.product(*(options[m] for m in menus)):
        c = ChoiceCorrespondence(dict(zip(menus, picks)))
        assert is_rational(c) == rationalizable_bruteforce(c)
        agree += 1
    assert agree == 3 * 3 * 3 * 7


def _random_correspondence(gen):
    """Three to five labels, sometimes a universe wider than the menus;
    every menu of size two or more (full) or a random part of them
    (restricted), some singletons, and random nonempty choice sets."""
    labels = "abcde"[: 3 + gen.below(3)]
    universe = labels + "vw"[: gen.below(3)]
    full = gen.below(2) == 0
    table = {}
    for k in range(1, len(labels) + 1):
        for menu in itertools.combinations(labels, k):
            if (full and k > 1) or gen.below(3) == 0:
                chosen = [x for x in menu if gen.below(2)] or [menu[gen.below(k)]]
                table[frozenset(menu)] = frozenset(chosen)
    return ChoiceCorrespondence(table, universe=universe)


def test_scans_yield_every_violation_of_the_written_out_reference():
    gen = SplitMix64(31)
    found = [0, 0, 0]
    for _ in range(600):
        c = _random_correspondence(gen)
        beats = choice._beats(c)
        got = tuple(list(scan(c._table, beats)) for scan in choice._SCANS)
        assert got == axiom_violations(c)
        report = check_axioms(c)
        assert (
            report.chernoff_witness,
            report.condorcet_witness,
            report.no_cycle_witness,
        ) == tuple(part[0] if part else None for part in got)
        assert is_rational(c) == (not any(got))
        found = [have + bool(part) for have, part in zip(found, got)]
    assert 50 <= min(found) and max(found) < 600


# -- total rationality -----------------------------------------------------------


def test_weak_order_levels_counts():
    # 3 alternatives admit 13 weak orders
    assert len(weak_order_levels(("a", "b", "c"))) == 13
    assert len(weak_order_levels(("a", "b"))) == 3


def test_totally_rational_implies_rational():
    menus = [frozenset(m) for m in FULL3]
    options = {
        menu: [
            frozenset(s)
            for k in range(1, len(menu) + 1)
            for s in itertools.combinations(sorted(menu), k)
        ]
        for menu in menus
    }
    seen_gap = False
    for picks in itertools.product(*(options[m] for m in menus)):
        c = ChoiceCorrespondence(dict(zip(menus, picks)))
        if is_totally_rational(c):
            assert is_rational(c)
        elif is_rational(c):
            seen_gap = True
    assert seen_gap  # rationality is strictly weaker


def _weak_order_correspondence(gen):
    """Two to six labels, all of them in menus or some left outside; every
    menu of size two or more (full) or a random part of all menus
    (restricted); each choice set the best level of a random weak order,
    and in about half the cases one or two of them replaced by a random
    nonempty subset of the menu."""
    labels = "abcdef"[: 2 + gen.below(5)]
    universe = labels + "vw"[: gen.below(7 - len(labels))]
    levels = {x: gen.below(len(labels)) for x in labels}
    full = gen.below(2) == 0
    table = {}
    for k in range(1, len(labels) + 1):
        for menu in itertools.combinations(labels, k):
            if (full and k > 1) or gen.below(3) == 0:
                best = min(levels[x] for x in menu)
                table[menu] = frozenset(x for x in menu if levels[x] == best)
    menus = list(table)
    for _ in range(gen.below(3) if menus else 0):
        menu = menus[gen.below(len(menus))]
        table[menu] = frozenset(
            [x for x in menu if gen.below(2)] or [menu[gen.below(len(menu))]]
        )
    return ChoiceCorrespondence(table, universe=universe)


def test_congruence_matches_weak_order_enumeration():
    gen = SplitMix64(11)
    outcomes = [0, 0]
    for _ in range(700):
        c = _weak_order_correspondence(gen)
        holds = is_totally_rational(c)
        assert holds == totally_rational_bruteforce(c), c
        outcomes[holds] += 1
    assert min(outcomes) >= 200


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.integers(0, 2**64 - 1))
def test_congruence_matches_weak_order_enumeration_on_drawn_seeds(seed):
    c = _weak_order_correspondence(SplitMix64(seed))
    assert is_totally_rational(c) == totally_rational_bruteforce(c)


def test_total_rationality_capacity():
    # seven alternatives were above the old enumeration's cap
    labels = [f"a{i}" for i in range(7)]
    everything = ChoiceCorrespondence({frozenset(labels): frozenset(labels)})
    level = {x: i // 2 for i, x in enumerate(labels)}
    pairs = {
        pair: frozenset(x for x in pair if level[x] == min(map(level.get, pair)))
        for pair in itertools.combinations(labels, 2)
    }
    ranked = ChoiceCorrespondence(pairs)
    pairs[("a0", "a6")] = frozenset(("a6",))
    reversed_pair = ChoiceCorrespondence(pairs)
    for c, holds in ((everything, True), (ranked, True), (reversed_pair, False)):
        assert is_totally_rational(c) is holds
        assert totally_rational_bruteforce(c) is holds


# -- Houtman-Maks ----------------------------------------------------------------


def test_houtman_maks_zero_iff_rational():
    c = full3(
        {
            ("x", "y"): ("x",),
            ("y", "z"): ("y",),
            ("x", "z"): ("x",),
            ("x", "y", "z"): ("x",),
        }
    )
    assert houtman_maks(c) == 0


def test_houtman_maks_single_removal():
    cycle = corr(
        {
            ("x", "y"): ("x",),
            ("y", "z"): ("y",),
            ("x", "z"): ("z",),
        }
    )
    assert houtman_maks(cycle) == 1

    # same cycle plus a triple menu; dropping one pair menu still fixes it
    with_triple = corr(
        {
            ("x", "y"): ("x",),
            ("y", "z"): ("y",),
            ("x", "z"): ("z",),
            ("x", "y", "z"): ("x",),
        }
    )
    assert houtman_maks(with_triple) == 1


def test_houtman_maks_capacity():
    menus = {
        frozenset((f"m{i}", f"m{i+1}")): frozenset((f"m{i}",)) for i in range(25)
    }
    with pytest.raises(CapacityError):
        houtman_maks(ChoiceCorrespondence(menus))


# -- oracle sanity ----------------------------------------------------------------


def test_preorder_counts():
    assert len(all_preorders(("a",))) == 1
    assert len(all_preorders(("a", "b"))) == 4
    assert len(all_preorders(("a", "b", "c"))) == 29


def test_random_preorders_are_preorders():
    gen = SplitMix64(5)
    labels = ("a", "b", "c", "d")
    for _ in range(50):
        rel = random_preorder(gen, labels)
        for a, b in rel:
            for c in labels:
                if (b, c) in rel:
                    assert (a, c) in rel


def test_rationalized_by_matches_max():
    p = Preorder.closure(XYZ, {("x", "y")})
    menus = [frozenset(m) for m in FULL3]
    c = max_correspondence(p, menus)
    relation = frozenset(
        (a, b) for a in XYZ for b in XYZ if p.geq(a, b)
    )
    assert rationalized_by(c, relation)
