"""Dataset ingest against plain Fraction formulas.

Seeded datasets mix every row shape a file may use: count rows split into
duplicates that must be summed, with zero counts and with a common factor
the ingest divides out, ``p/q`` cells not in lowest terms, decimal cells,
and menus whose zero-probability members are omitted or written out.
Each is read as CSV and as JSON, and the subjects built from it must hold
exactly the probabilities, likelihoods, cuts and core tables that
``oracles.core_tables`` computes from the generating table.  Subjects on
equal menu sets must share one menu layout and still get the cores and the
error messages of subjects built alone.  A last part pins the message of
every dataset error.
"""

import functools
import itertools
import json
from fractions import Fraction

import pytest

from stochrat import (
    ChoiceDataset,
    DomainKind,
    SplitMix64,
    StochasticChoiceFunction,
    parse_dataset,
    random_scf,
    run_analyze,
    scf_to_rows,
    threshold_cuts,
    write_dataset_csv,
)

from stochrat import dataset as dataset_module
from stochrat.menus import MenuLayout
from stochrat.rationals import probability_pair, to_probability

from conftest import FIXTURES
from oracles import core_tables, likelihoods

LABELS = ["a", "b", "c", "d", "e", "f", "g"]
DECIMAL_TOTALS = (2, 4, 5, 8, 10, 20, 25, 40, 125)  # divisors of 1000


def _split(gen, total, parts):
    """``parts`` nonnegative integers summing to ``total``."""
    cuts = sorted(gen.below(total + 1) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def random_dataset(seed):
    """(rows, expected): rows as (subject, menu labels, alternative, count,
    prob text) in shuffled order; expected maps each subject to its domain
    kind and its probability table with zero members omitted."""
    gen = SplitMix64(seed)
    rows, expected = [], {}
    for k in range(4):
        subject = f"s{k}"
        full = gen.below(2) == 0
        n = 3 + gen.below(3) if full else 3 + gen.below(5)
        labels = list(LABELS)
        gen.shuffle(labels)
        labels = sorted(labels[:n])
        sizes = range(2, n + 1) if full else (2,)
        table = {}
        for size in sizes:
            for combo in itertools.combinations(labels, size):
                members = list(combo)
                gen.shuffle(members)  # the written order of a menu is free
                shape = gen.below(3)
                if shape == 2:
                    total = DECIMAL_TOTALS[gen.below(len(DECIMAL_TOTALS))]
                else:
                    total = 1 + gen.below(15)
                weights = dict(zip(members, _split(gen, total, len(members))))
                factor = 1 + gen.below(4)  # counts with a common factor
                for x, w in weights.items():
                    if shape == 0:  # counts, split into duplicate rows
                        if w == 0 and gen.below(2):
                            continue  # an omitted zero count, else written
                        for part in _split(gen, w * factor, 1 + gen.below(3)):
                            rows.append((subject, members, x, part, None))
                    elif w == 0 and gen.below(3):
                        continue  # an omitted zero-probability member
                    elif shape == 1:  # p/q, often not in lowest terms
                        m = 1 + gen.below(3)
                        rows.append((subject, members, x, None, f"{w * m}/{total * m}"))
                    else:  # exact decimal
                        milli = w * (1000 // total)
                        rows.append((subject, members, x, None, f"{milli // 1000}.{milli % 1000:03d}"))
                table[frozenset(combo)] = {
                    x: Fraction(w, total) for x, w in weights.items() if w
                }
        kind = DomainKind.FULL if full else DomainKind.PAIRWISE
        expected[subject] = (kind, table)
    gen.shuffle(rows)
    return rows, expected


def write(rows, path):
    if path.suffix == ".csv":
        lines = ["subject,menu,alternative,count,prob"]
        for subject, menu, x, count, prob in rows:
            lines.append(
                f"{subject},{'|'.join(menu)},{x},"
                f"{'' if count is None else count},{'' if prob is None else prob}"
            )
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return
    subjects = {}
    for subject, menu, x, count, prob in rows:
        obs = {"menu": menu, "alternative": x}
        obs.update({"count": count} if prob is None else {"prob": prob})
        subjects.setdefault(subject, []).append(obs)
    doc = {"subjects": [{"subject": s, "observations": o} for s, o in subjects.items()]}
    path.write_text(json.dumps(doc), encoding="utf-8")


@pytest.mark.parametrize("suffix", [".csv", ".json"])
@pytest.mark.parametrize("seed", range(8))
def test_ingest_matches_fraction_formulas(tmp_path, seed, suffix):
    rows, expected = random_dataset(seed)
    path = tmp_path / f"data{suffix}"
    write(rows, path)
    dataset = parse_dataset(path)
    assert dataset.subject_ids() == sorted(expected)
    for subject, (kind, table) in expected.items():
        scf = dataset.scf(subject)
        assert scf.domain_kind is kind
        assert scf == StochasticChoiceFunction(table)
        lik = likelihoods(table)
        for menu, row in table.items():
            assert scf.menu_probs(menu) == {x: row.get(x, 0) for x in sorted(menu)}
            assert scf.likelihood_row(menu) == lik[menu]
            assert scf.support(menu) == frozenset(row)
            for x in menu:
                assert scf.prob(x, menu) == row.get(x, 0)
                assert scf.normalized_likelihood(x, menu) == lik[menu][x]
        want = core_tables(table)
        assert threshold_cuts(scf) == want["cuts"][1:]
        core = scf.core
        for field in ("labels", "by_key", "menu_set", "members",
                      "cuts", "rank", "scaled", "pair_rank"):
            assert getattr(core, field) == want[field], field
        for i, j in itertools.permutations(range(core.n), 2):
            if want["pair_prob"][i][j] is not None:
                x, y = core.labels[i], core.labels[j]
                assert scf.pair_prob(x, y) == want["pair_prob"][i][j]


def _fractions_in(value, seen=None):
    """Every Fraction reachable from ``value`` through containers and
    object attributes."""
    seen = set() if seen is None else seen
    if id(value) in seen:
        return []
    seen.add(id(value))
    if isinstance(value, Fraction):
        return [value]
    if isinstance(value, dict):
        items = [*value.keys(), *value.values()]
    elif isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
    elif hasattr(value, "__dict__") and not isinstance(value, type):
        items = list(vars(value).values())
    else:
        return []
    return [f for item in items for f in _fractions_in(item, seen)]


@pytest.mark.parametrize("seed", range(4))
def test_a_parsed_dataset_and_its_subjects_hold_integer_rows_only(tmp_path, seed):
    rows, expected = random_dataset(seed)
    path = tmp_path / "data.csv"
    write(rows, path)
    dataset = parse_dataset(path)
    assert _fractions_in(dataset) == []
    for subject in expected:
        scf = dataset.scf(subject)
        assert _fractions_in(scf) == []
        assert all(type(v) is int for row in scf.core.scaled.values() for v in row)


def test_the_core_keeps_the_datasets_rows_without_copying():
    table = {
        frozenset("ab"): (2, 1),
        frozenset("ac"): (1, 0),
        frozenset("bc"): (1, 1),
        frozenset("abc"): (1, 1, 1),
    }
    core = ChoiceDataset({"s1": table}).scf("s1").core
    for mask, menu in core.menu_set.items():
        assert core.scaled[mask] is table[menu]


def test_a_dataset_row_over_every_label_names_its_menu_and_count():
    # rows hold one entry per member; a table whose rows cover every label
    # of the subject, zero off the menu, is refused when its subject is
    # built, and so by analyze, never misread
    dense = {
        frozenset("ab"): (2, 1, 0),
        frozenset("ac"): (1, 0, 0),
        frozenset("bc"): (0, 1, 1),
        frozenset("abc"): (1, 1, 1),
    }
    dataset = ChoiceDataset({"s1": dense})
    message = (
        "subject 's1': row of menu {a,b} is not 2 nonnegative integers in "
        "lowest terms, one per member"
    )
    for run in (lambda: dataset.scf("s1"), lambda: run_analyze(dataset)):
        with pytest.raises(ValueError) as info:
            run()
        assert str(info.value) == message
    # one such row among member rows is named the same way
    rows = {frozenset("ab"): (2, 1), frozenset("ac"): (1, 0),
            frozenset("bc"): (0, 1, 1), frozenset("abc"): (1, 1, 1)}
    with pytest.raises(ValueError) as info:
        ChoiceDataset({"s1": rows}).scf("s1")
    assert str(info.value) == (
        "subject 's1': row of menu {b,c} is not 2 nonnegative integers in "
        "lowest terms, one per member"
    )


# -- menu layouts shared by subjects on equal menu sets ---------------------------

CORE_FIELDS = {"labels", "index", "n", "full", "menu_set", "members", "by_key",
               "scaled", "cuts", "rank", "pair_rank"}


def mixed_panel(tmp_path):
    """A parsed seeded panel: pairwise n = 5 subjects on two label sets and
    full-domain subjects at n = 4-6, several of them on equal menu sets."""
    plan = [("pairwise", "abcde")] * 4 + [("pairwise", "vwxyz"), ("full", "abcd"),
            ("full", "abcd"), ("full", "abcde"), ("full", "abcde"), ("full", "abcdef")]
    rows = []
    for k, (kind, labels) in enumerate(plan):
        scf = random_scf(2400 + k, labels, 10 + k, DomainKind(kind))
        rows += scf_to_rows(scf, subject=f"p{k:02d}")
    write_dataset_csv(tmp_path / "panel.csv", rows)
    return parse_dataset(tmp_path / "panel.csv")


@pytest.mark.parametrize("source", ["fixture", "mixed"])
def test_subjects_on_equal_menus_share_one_layout_and_keep_their_cores(
    tmp_path, source
):
    if source == "fixture":
        dataset = parse_dataset(FIXTURES / "pairwise5_panel26.csv")
    else:
        dataset = mixed_panel(tmp_path)
    subjects = dataset.subject_ids()
    built = {subject: dataset.scf(subject) for subject in subjects}
    by_menus: dict = {}
    for subject, scf in built.items():
        by_menus.setdefault(frozenset(scf.menus()), []).append(scf)
        rows = dataset._table[subject]
        alone = StochasticChoiceFunction.from_rows(rows)
        assert alone._layout is not scf._layout
        assert set(vars(scf.core)) == CORE_FIELDS
        assert vars(scf.core) == vars(alone.core), subject
    assert len(dataset._layouts) == len(by_menus)
    for shared in by_menus.values():
        assert len({id(scf._layout) for scf in shared}) == 1
    if source == "fixture":
        assert len(by_menus) == 1 and len(subjects) == 26
    else:
        assert sorted(map(len, by_menus.values())) == [1, 1, 2, 2, 4]


def test_subjects_build_no_menu_tables_before_their_first_core(tmp_path, monkeypatch):
    built = []
    tables = MenuLayout.tables.func

    def counted(layout):
        built.append(layout)
        return tables(layout)

    monkeypatch.setattr(MenuLayout, "tables", functools.cached_property(counted))
    MenuLayout.tables.__set_name__(MenuLayout, "tables")
    dataset = mixed_panel(tmp_path)
    subjects = [dataset.scf(subject) for subject in dataset.subject_ids()]
    assert built == []
    subjects[0].core
    assert built == [subjects[0]._layout]
    for scf in subjects:
        scf.core
    assert len(built) == len(dataset._layouts) == 5


def _shared_pairs(labels, bad_row=None):
    """Two subjects on the pairwise menus over ``labels``; the second's row
    of the first menu is ``bad_row`` when given."""
    menus = [frozenset(pair) for pair in itertools.combinations(labels, 2)]
    good = dict.fromkeys(menus, (1, 1))
    second = dict(good)
    if bad_row is not None:
        second[menus[0]] = bad_row
    return good, second


@pytest.mark.parametrize(
    "labels,bad_row,message",
    [
        (("", "a", "b"), None, "alternative labels must be nonempty strings: ''"),
        (("a", "b", 3), None, "alternative labels must be nonempty strings: 3"),
        ("abc", (2, 2),
         "row of menu {a,b} is not 2 nonnegative integers in lowest terms, "
         "one per member"),
        ("abc", (1, 1, 1),
         "row of menu {a,b} is not 2 nonnegative integers in lowest terms, "
         "one per member"),
    ],
    ids=["empty-label", "int-label", "not-lowest-terms", "nonzero-off-menu"],
)
@pytest.mark.parametrize("first", ["s1", "s2"])
def test_shared_menus_are_checked_for_every_subject(labels, bad_row, message, first):
    good, second = _shared_pairs(labels, bad_row)
    dataset = ChoiceDataset({"s1": good, "s2": second})
    order = [first, "s2" if first == "s1" else "s1"]
    for subject in order:
        if bad_row is None or subject == "s2":
            with pytest.raises(ValueError) as info:
                dataset.scf(subject)
            assert str(info.value) == f"subject {subject!r}: {message}"
        else:
            dataset.scf(subject).core


def test_a_parse_time_sum_error_comes_before_an_incomplete_subject(tmp_path):
    # subject a lacks menu {x,z}; subject b's probabilities sum to 6/5.  The
    # sum is checked as the file is read, the domain only when a subject
    # is built.
    path = tmp_path / "data.csv"
    path.write_text(
        HEADER
        + "a,x|y,x,3,\na,y|z,y,1,\n"
        + "b,x|y,x,,0.6\nb,x|y,y,,0.6\n",
        encoding="utf-8",
    )
    with pytest.raises(ValueError) as info:
        parse_dataset(path)
    assert str(info.value) == "subject 'b', menu {x,y}: probabilities sum to 6/5, not 1"
    path.write_text(HEADER + "a,x|y,x,3,\na,y|z,y,1,\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        parse_dataset(path).scf("a")
    assert str(info.value) == "subject 'a': incomplete pairwise domain: missing menu {x,z}"


def test_each_distinct_cell_is_parsed_once(tmp_path, monkeypatch):
    rows, _ = random_dataset(3)
    path = tmp_path / "data.csv"
    write(rows, path)
    parsed = []

    def counting(text):
        parsed.append(text)
        return probability_pair(text)

    monkeypatch.setattr(dataset_module, "probability_pair", counting)
    parse_dataset(path)
    cells = [prob for *_, prob in rows if prob is not None]
    assert len(cells) > len(set(cells))
    assert sorted(parsed) == sorted(set(cells))


def test_equal_digit_cells_give_equal_integer_rows(tmp_path):
    rows = {}
    for cell in ("2/4", "1/2", "01/02"):
        path = tmp_path / "data.csv"
        path.write_text(f"{HEADER}s1,a|b,a,,{cell}\ns1,a|b,b,,1/2\n", encoding="utf-8")
        rows[cell] = parse_dataset(path).scf("s1").core.scaled[0b11]
    assert rows == dict.fromkeys(rows, (1, 1))
    assert all(type(v) is int for row in rows.values() for v in row)


# -- every dataset error, with its message ----------------------------------------

HEADER = "subject,menu,alternative,count,prob\n"

# (header and body, message); "{path}" stands for the file's full path.  The
# rational-cell messages gained the row's place; the oversized field and
# the malformed JSON structures below were uncaught exceptions before.
CSV_ERRORS = [
    ("", "{path}: empty file"),
    ("subject,menu\n",
     "{path}: header must contain subject, menu, alternative and count or prob columns"),
    ("subject,menu,alternative\n", "{path}: header needs a count or prob column"),
    (HEADER, "dataset contains no observations"),
    (HEADER + ",a|b,a,1,\n", "data.csv:2: empty subject id"),
    (HEADER + "s1,a|,a,1,\n", "data.csv:2: empty label in menu field 'a|'"),
    (HEADER + "s1,a|a,a,1,\n", "data.csv:2: duplicate label in menu field 'a|a'"),
    (HEADER + "s1,a,a,1,\n",
     "data.csv:2: menu 'a' has a single member; singleton menus are implicit "
     "and must not appear in data"),
    (HEADER + "s1,a|b,,1,\n", "data.csv:2: empty alternative"),
    (HEADER + "s1,a|b,c,1,\n", "data.csv:2: alternative 'c' not in menu {a,b}"),
    (HEADER + "s1,a|b,a,1,0.5\n", "data.csv:2: each row needs exactly one of count/prob"),
    (HEADER + "s1,a|b,a,1,\ns1,a|b,b,,\n",
     "data.csv:3: each row needs exactly one of count/prob"),
    (HEADER + "s1,a|b,a,2.5,\n", "data.csv:2: count '2.5' is not an integer"),
    (HEADER + "s1,a|b,a,-3,\n", "data.csv:2: count -3 is negative"),
    (HEADER + "s1,a|b,a,,3/2\n", "data.csv:2: probability 3/2 outside [0, 1]"),
    (HEADER + "s1,a|b,a,,-0.5\n", "data.csv:2: probability -1/2 outside [0, 1]"),
    (HEADER + "s1,a|b,a,,abc\n", "data.csv:2: not a rational number: 'abc'"),
    (HEADER + "s1,a|b,a,,1/0\n", "data.csv:2: not a rational number: '1/0'"),
    (HEADER + "s1,a|b,a,,1e-1001\n",
     "data.csv:2: decimal exponent in '1e-1001' exceeds the cap of 1000 in magnitude"),
    (HEADER + "s1,a|b,a,," + "1" * 1001 + "\n",
     "data.csv:2: rational text of 1001 characters exceeds the cap of 1000"),
    (HEADER + "s1,a|b,a," + "1" * 200_000 + ",\n",
     "data.csv:2: field larger than field limit (131072)"),
    (HEADER + "s1,a|b,a,3,\ns1,a|b,b,,0.5\n",
     "subject 's1', menu {a,b}: count and prob rows are mixed"),
    (HEADER + "s1,a|b,a,,0.5\ns1,a|b,a,,0.5\n",
     "subject 's1', menu {a,b}: duplicate probability row for 'a'"),
    (HEADER + "s1,a|b,a,0,\ns1,a|b,b,0,\n", "subject 's1', menu {a,b}: all counts zero"),
    (HEADER + "s1,a|b,a,,0.6\ns1,a|b,b,,0.6\n",
     "subject 's1', menu {a,b}: probabilities sum to 6/5, not 1"),
    # Python literal syntax is not data: digit separators, non-ASCII digits
    (HEADER + "s1,a|b,a,1_0,\n", "data.csv:2: count '1_0' is not an integer"),
    (HEADER + "s1,a|b,a,\uff15,\n", "data.csv:2: count '\uff15' is not an integer"),
    (HEADER + "s1,a|b,a,,1_0/2_0\n", "data.csv:2: not a rational number: '1_0/2_0'"),
    (HEADER + "s1,a|b,a,,\uff11/\uff12\n",
     "data.csv:2: not a rational number: '\uff11/\uff12'"),    # digit cells that the integer cell route leaves to the Fraction parser
    (HEADER + "s1,a|b,a,,6/4\n", "data.csv:2: probability 3/2 outside [0, 1]"),
    (HEADER + "s1,a|b,a,,0/0\n", "data.csv:2: not a rational number: '0/0'"),
    (HEADER + "s1,a|b,a,,+1/2\ns1,a|b,b,,1/3\n",
     "subject 's1', menu {a,b}: probabilities sum to 5/6, not 1"),
    (HEADER + "s1,a|b,a,," + "1" * 500 + "/" + "2" * 500 + "\n",
     "data.csv:2: rational text of 1001 characters exceeds the cap of 1000"),
]


@pytest.mark.parametrize(
    "text,message", CSV_ERRORS, ids=[f"csv{i:02d}" for i in range(len(CSV_ERRORS))]
)
def test_csv_error_messages(tmp_path, text, message):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        parse_dataset(path)
    assert str(info.value) == message.replace("{path}", str(path))


# The reader checks a row's subject and menu only when its raw fields differ
# from the row before; a fault still names its own row.
GOOD_ROWS = "s1,a|b,a,,1/2\ns1,a|c,a,,1/3\ns1,a|b,b,,1/2\ns1,a|c,c,,2/3\n"
REPEATED_FIELD_FAULTS = [
    # after good rows of the same (subject, menu)
    ("s1,a|b,a,,1/4\ns1,a|b,b,,abc\n", "data.csv:3: not a rational number: 'abc'"),
    ("s1,a|b,a,1,\ns1,a|b,b,2,\ns1,a|b,c,1,\n",
     "data.csv:4: alternative 'c' not in menu {a,b}"),
    ("s1,a|b,a,1,\ns1,a|b,,2,\n", "data.csv:3: empty alternative"),
    ("s1,a|b,a,1,\ns1,a|b,b,1,1/2\n", "data.csv:3: each row needs exactly one of count/prob"),
    # two menus interleaved line by line
    (GOOD_ROWS + "s1,a|b,c,,0\n", "data.csv:6: alternative 'c' not in menu {a,b}"),
    (GOOD_ROWS + "s1,a|c,b,,0\n", "data.csv:6: alternative 'b' not in menu {a,c}"),
    (GOOD_ROWS + "s1,a|a,a,,0\n", "data.csv:6: duplicate label in menu field 'a|a'"),
    (GOOD_ROWS + ",a|b,a,,0\n", "data.csv:6: empty subject id"),
    (GOOD_ROWS + "s1,a|c,a,,-1\n", "data.csv:6: probability -1 outside [0, 1]"),
]


@pytest.mark.parametrize("body,message", REPEATED_FIELD_FAULTS)
def test_csv_faults_name_their_row_when_fields_repeat(tmp_path, body, message):
    path = tmp_path / "data.csv"
    path.write_text(HEADER + body, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        parse_dataset(path)
    assert str(info.value) == message


def test_interleaved_menus_read_as_grouped_menus(tmp_path):
    interleaved, grouped = tmp_path / "interleaved.csv", tmp_path / "grouped.csv"
    interleaved.write_text(HEADER + GOOD_ROWS + "s1,b|c,b,3,\ns1,b|c,c,1,\n", encoding="utf-8")
    lines = GOOD_ROWS.splitlines(keepends=True)
    grouped.write_text(
        HEADER + "".join(lines[0::2] + lines[1::2]) + "s1,b|c,c,1,\ns1,b|c,b,3,\n",
        encoding="utf-8",
    )
    assert parse_dataset(interleaved).scf("s1") == parse_dataset(grouped).scf("s1")


def _json_doc(*observations, subject="s1"):
    return {"subjects": [{"subject": subject, "observations": list(observations)}]}


AB = ["a", "b"]
JSON_ERRORS = [
    ({"rows": []}, "{path}: expected a top-level object with 'subjects'"),
    ({"subjects": 5}, "{path}: expected a top-level object with 'subjects'"),
    ({"subjects": [1]},
     "data.json: subjects[0]: expected an object with an 'observations' list"),
    ({"subjects": [{"subject": "s1", "observations": 3}]},
     "data.json: subjects[0]: expected an object with an 'observations' list"),
    (_json_doc(3), "data.json: subjects[0].observations[0]: expected an object"),
    (_json_doc({"menu": "a|b", "alternative": "a", "count": 1}),
     "data.json: subjects[0].observations[0]: menu must be a list of labels"),
    (_json_doc({"menu": AB, "alternative": "a", "count": 1}, subject=""),
     "data.json: subjects[0].observations[0]: empty subject id"),
    (_json_doc({"menu": [], "alternative": "a", "count": 1}),
     "data.json: subjects[0].observations[0]: empty label in menu field ''"),
    (_json_doc({"menu": ["a", " "], "alternative": "a", "count": 1}),
     "data.json: subjects[0].observations[0]: empty label in menu field 'a| '"),
    (_json_doc({"menu": ["a|b", "c"], "alternative": "c", "count": 1}),
     "data.json: subjects[0].observations[0]: label 'a|b' contains '|', which a "
     "CSV menu field cannot hold"),
    (_json_doc({"menu": AB, "alternative": "a", "count": 1, "prob": "1"}),
     "data.json: subjects[0].observations[0]: each row needs exactly one of count/prob"),
    (_json_doc({"menu": AB, "alternative": "a", "count": 1},
               {"menu": AB, "alternative": "b", "prob": "x"}),
     "data.json: subjects[0].observations[1]: not a rational number: 'x'"),
    # JSON null is a missing value, not the label "None"
    (_json_doc({"menu": AB, "alternative": "a", "count": 1}, subject=None),
     "data.json: subjects[0].observations[0]: empty subject id"),
    (_json_doc({"menu": AB, "alternative": None, "count": 1}),
     "data.json: subjects[0].observations[0]: empty alternative"),
    (_json_doc({"menu": ["a", None], "alternative": "a", "count": 1}),
     "data.json: subjects[0].observations[0]: empty label in menu field 'a|'"),
    # Python literal syntax is not data: digit separators, non-ASCII digits
    (_json_doc({"menu": AB, "alternative": "a", "count": "1_0"}),
     "data.json: subjects[0].observations[0]: count '1_0' is not an integer"),
    (_json_doc({"menu": AB, "alternative": "a", "count": "\u0665"}),
     "data.json: subjects[0].observations[0]: count '\u0665' is not an integer"),
    (_json_doc({"menu": AB, "alternative": "a", "prob": "1_0/2_0"}),
     "data.json: subjects[0].observations[0]: not a rational number: '1_0/2_0'"),
]


@pytest.mark.parametrize(
    "doc,message", JSON_ERRORS, ids=[f"json{i:02d}" for i in range(len(JSON_ERRORS))]
)
def test_json_error_messages(tmp_path, doc, message):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    with pytest.raises(ValueError) as info:
        parse_dataset(path)
    assert str(info.value) == message.replace("{path}", str(path))


PAIRS_30 = list(itertools.combinations([f"l{i:02d}" for i in range(30)], 2))


@pytest.mark.parametrize(
    "body,message",
    [
        ("s1,x|y,x,,1\ns1,y|z,y,,1\ns1,x|y|z,x,,1\n",
         "subject 's1': incomplete full domain: missing menu {x,z}"),
        ("s1,w|x,w,1,\ns1,y|z,y,1,\n",
         "subject 's1': incomplete pairwise domain: missing menu {w,y} and 3 more"),
        ("s1,w|x|y,w,1,\n",
         "subject 's1': incomplete full domain: missing menu {w,x} and 2 more"),
        ("".join(f"s1,{m},{m[0]},1,\n" for m in ("w|x", "w|y", "w|z", "x|y", "x|z", "y|z", "w|x|y")),
         "subject 's1': incomplete full domain: missing menu {w,x,z} and 3 more"),
        # 30 labels: all pairs but one, and the same pairs beside one triple.
        ("".join(f"s1,{a}|{b},{a},1,\n" for a, b in PAIRS_30[1:]),
         "subject 's1': incomplete pairwise domain: missing menu {l00,l01}"),
        ("".join(f"s1,{a}|{b},{a},1,\n" for a, b in PAIRS_30[1:]) + "s1,l00|l01|l02,l00,1,\n",
         "subject 's1': incomplete full domain: missing menu {l00,l01} and "
         f"{2**30 - 30 - 1 - 435 - 1} more"),
    ],
)
def test_incomplete_domain_messages(tmp_path, body, message):
    path = tmp_path / "data.csv"
    path.write_text(HEADER + body, encoding="utf-8")
    with pytest.raises(ValueError) as info:
        parse_dataset(path).scf("s1")
    assert str(info.value) == message


@pytest.mark.parametrize(
    "menu", [frozenset("a"), ("a", "b"), frozenset()], ids=["singleton", "tuple", "empty"]
)
def test_dataset_table_menus_must_be_frozensets_of_two_or_more(menu):
    # {a,b}, {a,c}, {b,c} and {a} count as many menus as the full domain over
    # {a,b,c}; the table is refused rather than read as one.
    one = (1, 0, 0)
    table = {frozenset("ab"): one, frozenset("ac"): one, frozenset("bc"): one, menu: one}
    with pytest.raises(ValueError) as info:
        ChoiceDataset({"s1": table})
    assert str(info.value) == (
        f"subject 's1': menu {menu!r} is not a frozenset of at least two alternatives"
    )


def test_unknown_subject_and_format_messages(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(HEADER + "s1,a|b,a,1,\n", encoding="utf-8")
    with pytest.raises(ValueError) as info:
        parse_dataset(path).scf("nobody")
    assert str(info.value) == "unknown subject 'nobody'"
    with pytest.raises(ValueError) as info:
        parse_dataset(tmp_path / "data.xml")
    assert str(info.value) == "unsupported dataset format 'xml'"
