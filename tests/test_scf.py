import itertools
from fractions import Fraction

import pytest

from stochrat import (
    CapacityError,
    ChoiceDataset,
    DomainKind,
    SplitMix64,
    StochasticChoiceFunction,
    classify_transitivity,
    fishburn_correspondence,
    irrationality_sets,
    is_lambda_rational,
    is_selective_in_contractions,
    is_selective_in_expansions,
    lambda_floor,
    random_scf,
    render_json,
    run_analyze,
    threshold_cuts,
    triangular_condition,
)
from stochrat.menus import menu_str

import oracles
from conftest import integer_rows

F = Fraction
XYZ = frozenset(("x", "y", "z"))


def make_full3(pxy, pyz, pxz, px_full, py_full):
    """Full-domain SCF on {x,y,z} from winner probabilities."""
    return StochasticChoiceFunction(
        {
            frozenset(("x", "y")): {"x": pxy, "y": 1 - F(pxy)},
            frozenset(("y", "z")): {"y": pyz, "z": 1 - F(pyz)},
            frozenset(("x", "z")): {"x": pxz, "z": 1 - F(pxz)},
            XYZ: {"x": px_full, "y": py_full, "z": 1 - F(px_full) - F(py_full)},
        },
    )


# -- construction and validation -------------------------------------------------


def test_accepts_mixed_value_types():
    scf = make_full3("4/5", F(2, 3), "0.5", F(1, 3), "1/3")
    assert scf.prob("x", frozenset(("x", "y"))) == F(4, 5)
    assert scf.prob("x", frozenset(("x", "z"))) == F(1, 2)


XY, YZ, XZ = frozenset("xy"), frozenset("yz"), frozenset("xz")
HALF = {"x": F(1, 2), "y": F(1, 2)}


PAIRS_WXYZ = {frozenset(pair): {pair[0]: 1} for pair in itertools.combinations("wxyz", 2)}


@pytest.mark.parametrize(
    "table,kind,message",
    [
        ({XY: HALF, YZ: {"y": 1}, XZ: {"x": 1}, XYZ: {"x": F(3, 2), "y": F(-1, 2)}},
         "full", "probability 3/2 for 'x' in {x,y,z} outside [0, 1]"),
        ({XY: {"x": "-1/2", "y": "3/2"}}, "pairwise",
         "probability -1/2 for 'x' in {x,y} outside [0, 1]"),
        ({XY: {"x": [1], "y": 1}}, "pairwise", "bad probability [1] for 'x' in {x,y}"),
        ({XY: {"x": "abc"}}, "pairwise",
         "bad probability 'abc' for 'x' in {x,y}: not a rational number: 'abc'"),
        ({XY: {"x": F(2, 5), "y": F(2, 5)}}, "pairwise",
         "menu {x,y}: probabilities sum to 4/5, not 1"),
        ({XY: {}}, "pairwise", "menu {x,y}: probabilities sum to 0, not 1"),
        ({XY: {"z": 1}}, "pairwise", "alternative 'z' not a member of menu {x,y}"),
        ({("x", "y"): HALF, ("y", "x"): HALF}, "pairwise", "duplicate menu {x,y}"),
        ({frozenset("x"): {"x": 1}}, "pairwise",
         "menu {x} has a single member; singleton menus are implicit and must "
         "not be supplied"),
        ({frozenset(["x", 1]): {"x": 1}}, "pairwise",
         "alternative labels must be nonempty strings: 1"),
        ({}, "pairwise", "pairwise domain needs at least 2 alternatives; got 0"),
        ({XY: HALF, XYZ: {"x": 1}}, "full", "incomplete full domain: missing menu {x,z} and 1 more"),
        ({XY: HALF, YZ: {"y": 1}}, "pairwise",
         "incomplete pairwise domain: missing menu {x,z}"),
        # every pair over four labels beside one triple is a full domain
        ({**PAIRS_WXYZ, XYZ: {"x": 1}}, "pairwise",
         "incomplete full domain: missing menu {w,x,y} and 3 more"),
    ],
)
def test_constructor_error_messages(table, kind, message):
    with pytest.raises(ValueError) as info:
        StochasticChoiceFunction(table)
    assert str(info.value) == message
    # ``kind`` is the argument that calls written for the older signature
    # pass: it is refused before the table is read
    with pytest.raises(TypeError):
        StochasticChoiceFunction(table, kind)


def test_a_positional_domain_kind_is_a_type_error():
    # the kind is read off the menus; a stale positional kind is not taken
    # for the keyword-only cap
    with pytest.raises(TypeError):
        StochasticChoiceFunction({XY: HALF}, DomainKind.FULL)
    with pytest.raises(TypeError):
        StochasticChoiceFunction.from_rows({XY: (1, 1)}, "pairwise")


def test_from_rows_builds_the_subject_the_constructor_builds():
    rows = {XY: (1, 1), YZ: (1, 0), XZ: [1, 2], XYZ: (6, 1, 6)}
    table = {
        XY: HALF,
        YZ: {"y": 1},
        XZ: {"x": F(1, 3), "z": F(2, 3)},
        XYZ: {"x": F(6, 13), "y": F(1, 13), "z": F(6, 13)},
    }
    scf = StochasticChoiceFunction.from_rows(rows)
    assert scf == StochasticChoiceFunction(table)
    assert scf.menu_probs(XYZ) == {"x": F(6, 13), "y": F(1, 13), "z": F(6, 13)}
    assert scf.support(YZ) == {"y"}
    # a row follows its members' sorted labels, however its menu is written
    given = StochasticChoiceFunction.from_rows(
        {("y", "x"): (1, 1), ("x", "w"): (3, 1), ("y", "w"): (0, 1)}
    )
    assert given == StochasticChoiceFunction(
        {XY: HALF, frozenset("wx"): {"w": F(3, 4), "x": F(1, 4)}, frozenset("wy"): {"y": 1}}
    )


BAD_ROW = "row of menu {x,y} is not %d nonnegative integers in lowest terms, one per member"


@pytest.mark.parametrize(
    "rows,message",
    [
        ({XY: (1, 1, 0)}, BAD_ROW % 2),
        ({XY: (1, -1)}, BAD_ROW % 2),
        ({XY: (1, True)}, BAD_ROW % 2),
        ({XY: (F(1, 2), F(1, 2))}, BAD_ROW % 2),
        ({XY: (2, 2)}, BAD_ROW % 2),
        ({XY: (0, 0)}, BAD_ROW % 2),
        ({XY: (1, 1, 1), YZ: (0, 1, 1), XZ: (1, 0, 1)}, BAD_ROW % 2),
        ({frozenset("x"): (1,)},
         "menu {x} has a single member; singleton menus are implicit and must "
         "not be supplied"),
        ({("x", "y"): (1, 1), ("y", "x"): (1, 1)}, "duplicate menu {x,y}"),
        ({XY: (1, 1), YZ: (1, 1)}, "incomplete pairwise domain: missing menu {x,z}"),
        ({}, "pairwise domain needs at least 2 alternatives; got 0"),
    ],
)
def test_from_rows_error_messages(rows, message):
    with pytest.raises(ValueError) as info:
        StochasticChoiceFunction.from_rows(rows)
    assert str(info.value) == message


@pytest.mark.parametrize("n", [3, 4, 5])
def test_a_row_over_the_whole_universe_names_its_menu_and_count(n):
    # rows hold one entry per member; a row over every label of the
    # universe is refused on each menu it does not fill, never misread
    scf = random_scf(n, "vwxyz"[:n], denominator_bound=6)
    member_rows = integer_rows({menu: scf.menu_probs(menu) for menu in scf.menus()})
    assert StochasticChoiceFunction.from_rows(member_rows) == scf
    dense = oracles.dense_rows(scf)
    for menu in scf.menus()[:-1]:
        with pytest.raises(ValueError) as info:
            StochasticChoiceFunction.from_rows({**member_rows, menu: dense[menu]})
        assert str(info.value) == (
            f"row of menu {menu_str(menu)} is not {len(menu)} nonnegative "
            "integers in lowest terms, one per member"
        )
    # the full menu's row is the same in both forms
    full = scf.menus()[-1]
    assert dense[full] == member_rows[full]
    with pytest.raises(ValueError, match=r"^row of menu \{v,w\} is not 2 "):
        StochasticChoiceFunction.from_rows(dense)


def test_zero_fill_for_missing_members():
    scf = StochasticChoiceFunction(
        {
            frozenset(("x", "y")): {"x": 1},
            frozenset(("y", "z")): {"y": F(1, 2), "z": F(1, 2)},
            frozenset(("x", "z")): {"x": F(1, 2), "z": F(1, 2)},
            XYZ: {"x": 1},
        },
    )
    assert scf.prob("y", frozenset(("x", "y"))) == 0
    assert scf.prob("z", XYZ) == 0


def test_probabilities_must_sum_to_one():
    with pytest.raises(ValueError, match="sum"):
        StochasticChoiceFunction(
            {
                frozenset(("x", "y")): {"x": F(2, 5), "y": F(2, 5)},
                frozenset(("y", "z")): {"y": F(1, 2), "z": F(1, 2)},
                frozenset(("x", "z")): {"x": F(1, 2), "z": F(1, 2)},
                XYZ: {"x": F(1, 3), "y": F(1, 3), "z": F(1, 3)},
            },
        )


def test_negative_probability_rejected():
    with pytest.raises(ValueError):
        StochasticChoiceFunction({frozenset(("x", "y")): {"x": F(3, 2), "y": F(-1, 2)}})


def test_singleton_menu_rejected():
    with pytest.raises(ValueError, match="singleton"):
        StochasticChoiceFunction({frozenset(("x",)): {"x": 1}})


def test_full_domain_completeness_enforced():
    with pytest.raises(ValueError, match="missing"):
        StochasticChoiceFunction(
            {
                frozenset(("x", "y")): {"x": F(1, 2), "y": F(1, 2)},
                XYZ: {"x": 1},
            },
        )


def test_pairwise_domain_rejects_larger_menus():
    # a larger menu beside the pairs makes the domain full, which these
    # menus leave incomplete; over three labels they complete it
    with pytest.raises(ValueError, match="incomplete full domain"):
        StochasticChoiceFunction({**PAIRS_WXYZ, XYZ: {"x": 1}})
    pairs = {XY: {"x": 1}, YZ: {"y": 1}, XZ: {"x": 1}}
    assert StochasticChoiceFunction(pairs).domain_kind is DomainKind.PAIRWISE
    scf = StochasticChoiceFunction({**pairs, XYZ: {"x": 1}})
    assert scf.domain_kind is DomainKind.FULL
    assert scf.menus() == [XY, XZ, YZ, XYZ]


def test_minimum_universe_sizes():
    # two alternatives make a pairwise subject, the one kind with one menu
    for table in ({XY: {"x": 1}}, {XY: HALF}):
        coin = StochasticChoiceFunction(table)
        assert coin.universe == ("x", "y")
        assert coin.domain_kind is DomainKind.PAIRWISE
        assert coin.menus() == [XY]


def test_universe_cap():
    labels = [f"a{i:02d}" for i in range(13)]
    menus = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            menus[frozenset((a, b))] = {a: 1}
    with pytest.raises(CapacityError):
        StochasticChoiceFunction(menus, max_universe=12)
    # the default cap of the kind the menus make
    wide = [f"b{i:02d}" for i in range(65)]
    pairs = {frozenset(pair): {pair[0]: 1} for pair in itertools.combinations(wide, 2)}
    with pytest.raises(CapacityError, match="pairwise-domain cap of 64"):
        StochasticChoiceFunction(pairs)


def test_pairwise_cap_override():
    labels = [f"a{i:02d}" for i in range(5)]
    menus = {}
    for i, a in enumerate(labels):
        for b in labels[i + 1 :]:
            menus[frozenset((a, b))] = {a: 1}
    with pytest.raises(CapacityError):
        StochasticChoiceFunction(menus, max_universe=4)


# -- accessors -------------------------------------------------------------------


def test_singleton_choice_is_certain(demo_scf):
    assert demo_scf.prob("x", frozenset(("x",))) == 1


def test_pair_prob(demo_scf):
    assert demo_scf.pair_prob("x", "y") == F(4, 5)
    assert demo_scf.pair_prob("y", "x") == F(1, 5)


def test_normalized_likelihood(demo_scf):
    assert demo_scf.normalized_likelihood("y", XYZ) == F(1, 6)
    assert demo_scf.normalized_likelihood("x", XYZ) == 1
    assert demo_scf.normalized_likelihood("z", XYZ) == 1


def test_support(demo_scf):
    assert demo_scf.support(XYZ) == XYZ
    lop = make_full3(1, "2/3", "1/2", "1/2", "1/2")
    assert lop.support(frozenset(("x", "y"))) == {"x"}


# -- threshold correspondences ---------------------------------------------------


def test_correspondence_at_thresholds(demo_scf):
    c_half = fishburn_correspondence(demo_scf, F(1, 2))
    assert c_half.choice(XYZ) == {"x", "z"}
    assert c_half.choice(frozenset(("x", "y"))) == {"x"}
    c_low = fishburn_correspondence(demo_scf, F(1, 6))
    assert c_low.choice(XYZ) == XYZ


def test_zero_threshold_gives_support(demo_scf):
    c = fishburn_correspondence(demo_scf, F(0))
    for menu in demo_scf.menus():
        assert c.choice(menu) == demo_scf.support(menu)


def test_family_is_decreasing(demo_scf):
    cuts = threshold_cuts(demo_scf)
    previous = None
    for cut in cuts:
        current = fishburn_correspondence(demo_scf, cut)
        if previous is not None:
            for menu in demo_scf.menus():
                assert current.choice(menu) <= previous.choice(menu)
        previous = current


def test_correspondence_never_empty(demo_scf):
    for lam in oracles.lambda_grid(demo_scf):
        c = fishburn_correspondence(demo_scf, lam)
        for menu in demo_scf.menus():
            assert c.choice(menu)
            assert c.choice(menu) <= menu


def test_top_threshold_keeps_argmax(demo_scf):
    c = fishburn_correspondence(demo_scf, F(1))
    assert c.choice(XYZ) == {"x", "z"}
    assert c.choice(frozenset(("y", "z"))) == {"y"}


def test_lambda_floor(demo_scf):
    assert lambda_floor(demo_scf) == F(1, 6)
    c = fishburn_correspondence(demo_scf, F(1, 6))
    for menu in demo_scf.menus():
        assert c.choice(menu) == demo_scf.support(menu)


def test_likelihood_accessors_read_the_row_not_the_core():
    scf = random_scf(5, "abcde")
    rows = {menu: scf.likelihood_row(menu) for menu in scf.menus()}
    assert scf.normalized_likelihood("a", "ab") == rows[frozenset("ab")]["a"]
    assert scf.normalized_likelihood("a", "a") == 1
    assert "core" not in vars(scf)
    core = scf.core
    for menu, row in rows.items():
        mask = sum(1 << core.index[x] for x in menu)
        assert row == {x: core.cuts[core.rank[mask][core.index[x]]] for x in row}


def test_core_orders_likelihoods_whose_floats_tie_by_their_exact_values():
    tiny = Fraction(1, 10**30)
    # the lower member of each pair has this likelihood; three of them
    # share one float
    lower = {"wx": Fraction(1, 3), "wy": Fraction(1, 3) + tiny,
             "xy": Fraction(1, 3) - tiny, "wz": Fraction(1, 2),
             "xz": Fraction(1), "yz": Fraction(1, 3) + tiny}
    assert len({float(v) for v in lower.values()}) == 3
    table = {
        pair: {pair[0]: v / (1 + v), pair[1]: 1 / (1 + v)} for pair, v in lower.items()
    }
    scf = StochasticChoiceFunction(table)
    core = scf.core
    assert all(a < b for a, b in zip(core.cuts, core.cuts[1:]))
    exact = sorted({Fraction(0), *lower.values()})
    assert list(core.cuts) == exact
    for pair, v in lower.items():
        mask = sum(1 << core.index[x] for x in pair)
        row = core.rank[mask]
        assert row[core.index[pair[0]]] == exact.index(v)
        assert row[core.index[pair[1]]] == exact.index(Fraction(1))


def test_threshold_cuts(demo_scf):
    assert threshold_cuts(demo_scf) == (F(1, 6), F(1, 4), F(1, 2), F(1))


def test_degenerate_scf_has_constant_family():
    det = make_full3(1, 1, 1, 1, 0)
    assert threshold_cuts(det) == (F(1),)
    c = fishburn_correspondence(det, F(1))
    assert c.choice(XYZ) == {"x"}
    assert is_lambda_rational(det, F(1))


# -- direct axiom checking at a threshold ----------------------------------------


def test_lambda_rationality_demo(demo_scf):
    assert is_lambda_rational(demo_scf, F(1, 8))
    assert is_lambda_rational(demo_scf, F(1, 2))
    fail_con = is_lambda_rational(demo_scf, F(1, 5))
    assert not fail_con
    assert fail_con.failures[0][0] == "condorcet"
    fail_top = is_lambda_rational(demo_scf, F(1))
    assert not fail_top
    axioms = {name for name, _ in fail_top.failures}
    assert axioms == {"chernoff", "transitivity"}


def test_lambda_rationality_bool_protocol(demo_scf):
    result = is_lambda_rational(demo_scf, F(1, 2))
    assert bool(result) is True
    assert result.failures == ()


# -- deterministic generation ----------------------------------------------------


def test_random_scf_is_reproducible():
    a = random_scf(99, ["a", "b", "c", "d"])
    b = random_scf(99, ["a", "b", "c", "d"])
    assert a == b
    assert a.domain_kind is DomainKind.FULL
    assert len(a.menus()) == 11


def test_random_scf_seeds_differ():
    a = random_scf(1, ["a", "b", "c"])
    b = random_scf(2, ["a", "b", "c"])
    assert a != b


def test_random_scf_rejects_degenerate_bound():
    with pytest.raises(ValueError):
        random_scf(1, ["a", "b", "c"], denominator_bound=1)


@pytest.mark.parametrize(
    "seed, labels, kind",
    [
        (3, "abcd", DomainKind.FULL),
        (8, "abcde", DomainKind.FULL),
        (5, "abcdef", DomainKind.PAIRWISE),
    ],
)
def test_menu_order_of_the_table_changes_nothing(seed, labels, kind):
    reference = random_scf(seed, labels, domain_kind=kind)
    canonical = {menu: reference.menu_probs(menu) for menu in reference.menus()}
    menus = list(canonical)
    SplitMix64(seed).shuffle(menus)
    assert menus != list(canonical)
    shuffled = {menu: canonical[menu] for menu in menus}
    built = [StochasticChoiceFunction(table) for table in (canonical, shuffled)]
    left, right = built
    assert left.menus() == right.menus() == list(canonical)
    assert left.core.by_key == right.core.by_key
    assert left.core.rank == right.core.rank
    for analysis in (
        irrationality_sets,
        classify_transitivity,
        triangular_condition,
        is_selective_in_contractions,
        is_selective_in_expansions,
    ):
        assert analysis(left) == analysis(right)
    assert irrationality_sets(left).witnesses
    reports = [
        render_json(run_analyze(ChoiceDataset({"s": integer_rows(table)})))
        for table in (canonical, shuffled)
    ]
    assert reports[0] == reports[1]
