"""Hostile input: malformed model specs and data files exit 2 or 3 with a
message, never a traceback.

Each spec error names the file first (``error: <path>: …``), then the
field.  JSON numbers are read from their text, so a spec's numbers are as
exact as its rational strings.
"""

import copy
import itertools
import json
import random
import sys
from fractions import Fraction

import pytest

import oracles
from conftest import FIXTURES
from stochrat import classify_transitivity, triangular_condition
from stochrat.dataset import parse_dataset
from test_cli import run_cli
from test_golden import MODEL_SPECS
from test_rank_core import noisy_ranking

UTILITY = {"x": "3", "y": "2", "z": "1"}
# number tokens that ``write_spec`` writes bare in place of the string "@token"
RAW = ("7.9", "0.1", "-1e400", "1e400", "-Infinity", "Infinity", "NaN")


def write_spec(path, spec):
    """Write ``spec`` as JSON, with each string ``"@token"`` for a token of
    ``RAW`` written as that bare token; return the path as text."""
    text = json.dumps(spec)
    for token in RAW:
        text = text.replace(f'"@{token}"', token)
    path.write_text(text, encoding="utf-8")
    return str(path)


def nested(depth):
    return "[" * depth + "]" * depth


# name -> (spec, a part of its error message)
BAD_SPECS = {
    "rum-utility-string": (
        {"kind": "rum", "components": [{"utility": "0", "weight": "1"}]},
        "components[0] field 'utility' must be a nonempty object, got '0'",
    ),
    "general-luce-allowed-true": (
        {"kind": "general_luce", "utility": UTILITY,
         "consideration": [{"menu": ["x", "y"], "allowed": True}]},
        "consideration[0] field 'allowed' must be a list of one or more labels, "
        "got True",
    ),
    "general-luce-menu-number": (
        {"kind": "general_luce", "utility": UTILITY,
         "consideration": [{"menu": -1, "allowed": ["x"]}]},
        "consideration[0] field 'menu' must be a list of one or more labels, got -1",
    ),
    "general-luce-menu-nested": (
        {"kind": "general_luce", "utility": UTILITY,
         "consideration": [{"menu": [["x"], "y"], "allowed": ["y"]}]},
        "consideration[0] field 'menu' must be a list of one or more labels",
    ),
    "drum-weights-menu-number": (
        {"kind": "drum", "first": UTILITY, "second": UTILITY,
         "weights": [{"menu": 4, "weight": "1/2"}]},
        "weights[0] field 'menu' must be a list of one or more labels, got 4",
    ),
    "mum-metric-pair-number": (
        {"kind": "mum", "utility": UTILITY,
         "metric": [{"pair": 3, "distance": "1"}], "response": []},
        "metric[0] field 'pair' must be a list of 2 labels, got 3",
    ),
    "dominance-number": (
        {"kind": "two_stage_luce", "utility": UTILITY, "dominance": 7},
        "model spec field 'dominance' must be a list, got 7",
    ),
    "dominance-pair-number": (
        {"kind": "two_stage_luce", "utility": UTILITY, "dominance": [5]},
        "dominance[0] must be a list of 2 labels, got 5",
    ),
    "dominance-triple": (
        {"kind": "two_stage_luce", "utility": UTILITY, "dominance": [["x", "y", "z"]]},
        "dominance[0] must be a list of 2 labels, got ['x', 'y', 'z']",
    ),
    "alpha-1e400": (
        {"kind": "tremble", "utility": UTILITY, "alpha": "@1e400"},
        f"tremble weight {10**400} outside [0, 1]",
    ),
    "weight-1e400": (
        {"kind": "uniform_drum", "first": UTILITY, "second": UTILITY,
         "weight": "@1e400"},
        f"mixture weight {10**400} outside [0, 1]",
    ),
    "alpha-infinity": (
        {"kind": "tremble", "utility": UTILITY, "alpha": "@Infinity"},
        "not a rational number: 'Infinity'",
    ),
    "utility-infinity": (
        {"kind": "luce", "utility": {"x": "@Infinity", "y": "1"}},
        "not a rational number: 'Infinity'",
    ),
    "rum-weight-minus-infinity": (
        {"kind": "rum", "components": [{"utility": UTILITY, "weight": "@-Infinity"}]},
        "not a rational number: '-Infinity'",
    ),
    "mum-distance-infinity": (
        {"kind": "mum", "utility": {"x": "1", "y": "0"},
         "metric": [{"pair": ["x", "y"], "distance": "@Infinity"}],
         "response": [{"arg": "0", "value": "1/2"}]},
        "not a rational number: 'Infinity'",
    ),
    "mum-arg-nan": (
        {"kind": "mum", "utility": {"x": "1", "y": "0"},
         "metric": [{"pair": ["x", "y"], "distance": "1"}],
         "response": [{"arg": "@NaN", "value": "1/2"}]},
        "not a rational number: 'NaN'",
    ),
    "general-luce-menu-outside": (
        {"kind": "general_luce", "utility": UTILITY,
         "consideration": [{"menu": ["x", "q"], "allowed": ["q"]}]},
        "consideration set for {q,x}: not a menu of the full domain on {x,y,z}",
    ),
    "drum-weights-menu-outside": (
        {"kind": "drum", "first": UTILITY, "second": {"x": "1", "y": "2", "z": "3"},
         "weights": [
             {"menu": menu, "weight": "1/2"}
             for menu in (["x", "y"], ["x", "z"], ["y", "z"], ["x", "y", "z"],
                          ["x", "zz"])
         ]},
        "weight for {x,zz}: not a menu of the full domain on {x,y,z}",
    ),
    "utility-true": (
        {"kind": "luce", "utility": {"x": True, "y": "2", "z": "1"}},
        "bad utility True of 'x'",
    ),
    "seed-fraction": (
        {"kind": "random", "universe": ["x", "y", "z"], "seed": "@7.9"},
        "model spec field 'seed' must be an integer, got '7.9'",
    ),
    # rational text that does not parse is named by its field and label
    "utility-infinity-named": (
        {"kind": "luce", "utility": {"x": "@Infinity", "y": "1"}},
        "bad utility 'Infinity' of 'x': not a rational number: 'Infinity'",
    ),
    "utility-text-named": (
        {"kind": "luce", "utility": {"x": "3", "y": "abc", "z": "1"}},
        "bad utility 'abc' of 'y': not a rational number: 'abc'",
    ),
    "rum-weight-named": (
        {"kind": "rum", "components": [{"utility": UTILITY, "weight": "@-Infinity"}]},
        "bad weight '-Infinity' of component 0: not a rational number: '-Infinity'",
    ),
    "drum-weight-named": (
        {"kind": "drum", "first": UTILITY, "second": UTILITY,
         "weights": [{"menu": ["x", "y"], "weight": "1/0"}]},
        "bad weight '1/0' for {x,y}: not a rational number: '1/0'",
    ),
    "mum-distance-named": (
        {"kind": "mum", "utility": {"x": "1", "y": "0"},
         "metric": [{"pair": ["x", "y"], "distance": "@Infinity"}],
         "response": [{"arg": "0", "value": "1/2"}]},
        "bad distance 'Infinity' of {x,y}: not a rational number: 'Infinity'",
    ),
    "mum-value-named": (
        {"kind": "mum", "utility": {"x": "1", "y": "0"},
         "metric": [{"pair": ["x", "y"], "distance": "1"}],
         "response": [{"arg": "0", "value": "half"}]},
        "bad response value 'half' at 0: not a rational number: 'half'",
    ),
}


@pytest.mark.parametrize("name", sorted(BAD_SPECS))
def test_malformed_spec_exits_2_naming_the_file_and_field(capsys, tmp_path, name):
    spec, message = BAD_SPECS[name]
    path = write_spec(tmp_path / "spec.json", spec)
    code, out, err = run_cli(capsys, "model", path)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
    assert message in err


def test_1e400_as_a_utility_is_read_exactly(capsys, tmp_path):
    spec = {"kind": "luce", "utility": {"x": "@1e400", "y": "1", "z": "1"}}
    path, rows = write_spec(tmp_path / "s.json", spec), tmp_path / "rows.csv"
    code, _, _ = run_cli(capsys, "model", path, "--emit-dataset", str(rows))
    assert code == 0
    assert f"model,x|y,x,{10**400}/{10**400 + 1}" in rows.read_text().splitlines()


def test_json_numbers_are_read_from_their_text(capsys, tmp_path):
    outputs = [
        run_cli(capsys, "model", write_spec(
            tmp_path / "s.json", {"kind": "tremble", "utility": UTILITY, "alpha": alpha}
        ))
        for alpha in ("0.1", "@0.1")
    ]
    assert outputs[0] == outputs[1]
    assert "irrationality set: (3/4,9/11]" in outputs[0][1]


def test_over_nested_spec_and_dataset_exit_2(capsys, tmp_path):
    spec = tmp_path / "deep.json"
    spec.write_text('{"kind": "luce", "utility": ' + nested(1100) + "}")
    data = tmp_path / "deep_data.json"
    data.write_text('{"subjects": ' + nested(1100) + "}")
    for command, path in [("model", spec), ("analyze", data)]:
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out, err) == (2, "", f"error: {path}: JSON nested too deeply\n")


@pytest.mark.parametrize(
    "field,value", [("count", "1e400"), ("prob", "1e400"), ("prob", "Infinity")]
)
def test_dataset_numbers_beyond_a_float_exit_2(capsys, tmp_path, field, value):
    data = tmp_path / "data.json"
    rows = ", ".join(
        f'{{"menu": ["x", "y"], "alternative": "{x}", "{field}": {value}}}'
        for x in "xy"
    )
    data.write_text(
        f'{{"subjects": [{{"subject": "s", "observations": [{rows}]}}]}}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", str(data))
    assert (code, out) == (2, "")
    assert err.startswith("error: data.json: subjects[0].observations[0]: ")


# -- seeded fuzz ---------------------------------------------------------------

HOSTILE = [
    None, True, False, 0, -1, "@7.9", "@1e400", "@-1e400", "@Infinity", "@NaN",
    "", "x", "0", "-1/2", "1/0", "1e9999", [], {}, [5], [[]], [["x", "y", "z"]],
    {"x": "1"}, {"x": []}, [{"menu": 4}], 10**1001,
]
FIELDS = ["kind", "utility", "weight", "menu", "pair", "seed", "domain", "first",
          "dominance", "universe", "allowed", "denominator_bound", "zz"]


def _slots(doc, found):
    """Every (container, key) place in a JSON document."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        found.append((doc, key))
        if isinstance(value, (dict, list)):
            _slots(value, found)
    return found


def _mutate(spec, rng):
    """``spec`` with one to three fields dropped, replaced by a hostile value
    or added."""
    spec = copy.deepcopy(spec)
    for _ in range(rng.randint(1, 3)):
        slots = _slots(spec, [])
        if not slots:
            break
        container, key = rng.choice(slots)
        action = rng.randrange(3)
        hostile = copy.deepcopy(rng.choice(HOSTILE))
        if action == 0:
            del container[key]
        elif action == 1:
            container[key] = hostile
        elif isinstance(container, dict):
            container[rng.choice(FIELDS)] = hostile
        else:
            container.append(hostile)
    return spec


def test_fuzzed_specs_exit_0_2_or_3(capsys, tmp_path):
    rng = random.Random(1611)
    kinds = sorted(MODEL_SPECS)
    codes = set()
    for i in range(300):
        spec = _mutate(MODEL_SPECS[kinds[i % len(kinds)]], rng)
        path = write_spec(tmp_path / f"spec{i}.json", spec)
        code, out, err = run_cli(capsys, "model", path)
        assert code in (0, 2, 3), (spec, err)
        if code == 2:
            assert err.startswith(f"error: {path}: "), (spec, err)
        codes.add(code)
    assert codes >= {0, 2}


@pytest.mark.parametrize(
    "fixture",
    ["demo_full3.csv", "pairwise_cycles.csv", "pairwise5_panel26.csv",
     "pairwise5_panel26.json"],
)
def test_byte_mutated_data_files_exit_0_2_or_3(capsys, tmp_path, fixture):
    rng = random.Random(fixture)
    source = (FIXTURES / fixture).read_bytes()
    digits = [i for i, byte in enumerate(source) if chr(byte).isdigit()]
    for n in range(6):
        data = bytearray(source)
        for _ in range(rng.randint(1, 2)):
            at = rng.randrange(len(data))
            byte = rng.choice(b'0123456789"[]{},:|.-x\n\xff')
            action = rng.randrange(4)
            if action == 0:  # a digit for a digit: often still valid data
                data[rng.choice(digits)] = rng.choice(b"0123456789")
            elif action == 1:
                data[at] = byte
            elif action == 2:
                del data[at]
            else:
                data.insert(at, byte)
        path = tmp_path / f"copy{n}{(FIXTURES / fixture).suffix}"
        path.write_bytes(bytes(data))
        for command in ("analyze", "compare", "check", "swap"):
            code, _, err = run_cli(capsys, command, str(path))
            assert code in (0, 2, 3), (command, bytes(data), err)


# -- long counts ---------------------------------------------------------------
#
# Every count may have up to a cell's 1000 characters.  No work may grow with
# the product of many such counts: the pairwise tables read each pair's own
# row, and a value too long to print is a capacity error.


def write_counts(path, rows):
    """Write (subject, menu members, member -> count) rows as a count file."""
    lines = ["subject,menu,alternative,count,prob"]
    for subject, menu, counts in rows:
        field = "|".join(menu)
        lines += [f"{subject},{field},{x},{counts[x]}," for x in menu]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def long_count(rng, digits):
    return rng.randrange(10 ** (digits - 1), 10**digits)


def test_swap_value_too_long_to_print_exits_3(capsys, tmp_path):
    rng = random.Random(8)
    labels = [f"a{i}" for i in range(8)]
    rows = [
        ("s", menu, {x: long_count(rng, 50) for x in menu})
        for size in range(2, 9)
        for menu in itertools.combinations(labels, size)
    ]
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, "swap", write_counts(tmp_path / "d.csv", rows))
    assert (code, out) == (3, "")
    assert err.startswith("capacity error: ") and err.count("\n") == 1
    assert f"of {limit} digits" in err
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.parametrize("earlier", [None, b'{"earlier": "report"}\n'])
def test_report_too_long_to_print_leaves_out_as_it_was(capsys, tmp_path, earlier):
    # a noisy Luce subject at n = 16 with every pair moved by a few units of
    # 10**-900: its exact index is too long to print, which only shows once
    # the report's first bytes are written
    scf = noisy_ranking(16005, 16)
    total = 10**900
    rows = []
    for k, (x, y) in enumerate(itertools.combinations(scf.universe, 2)):
        p = scf.pair_prob(x, y)
        count = p.numerator * total // p.denominator + 1 + k % 3
        rows.append(("s", (x, y), {x: count, y: total - count}))
    data = write_counts(tmp_path / "d.csv", rows)
    out = tmp_path / "reports" / "R.json"
    out.parent.mkdir()
    if earlier is not None:
        out.write_bytes(earlier)
    code, stdout, err = run_cli(capsys, "analyze", data, "--out", str(out))
    assert (code, stdout) == (3, "")
    assert err.startswith("capacity error: an exact value's numerator")
    left = [path.name for path in out.parent.iterdir()]
    assert left == ([] if earlier is None else ["R.json"])
    if earlier is not None:
        assert out.read_bytes() == earlier


def _int_bits(value, seen):
    """Bit lengths of every int reachable from ``value`` through containers,
    Fractions and object attributes."""
    if id(value) in seen or isinstance(value, (str, bool)):
        return []
    seen.add(id(value))
    if isinstance(value, int):
        return [value.bit_length()]
    if isinstance(value, Fraction):
        return [value.numerator.bit_length(), value.denominator.bit_length()]
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    elif hasattr(value, "__dict__"):
        value = list(vars(value).values())
    if isinstance(value, (list, tuple, set, frozenset)):
        return [b for item in value for b in _int_bits(item, seen)]
    return []


@pytest.fixture(scope="module")
def long_pairwise(tmp_path_factory):
    """A random and a Luce subject at n = 32 with 400-digit counts."""
    rng = random.Random(32)
    labels = [f"a{i:02d}" for i in range(32)]
    utility = {x: long_count(rng, 400) for x in labels}
    rows = []
    for menu in itertools.combinations(labels, 2):
        rows.append(("luce", menu, {x: utility[x] for x in menu}))
        rows.append(("random", menu, {x: long_count(rng, 400) for x in menu}))
    path = write_counts(tmp_path_factory.mktemp("long") / "pairs.csv", rows)
    return path, max(c.bit_length() for *_, counts in rows for c in counts.values())


def test_long_pairwise_counts_match_the_fraction_formulas(long_pairwise):
    path, longest = long_pairwise
    dataset = parse_dataset(path)
    triangular = {}
    for subject in dataset.subject_ids():
        scf = dataset.scf(subject)
        flags = classify_transitivity(scf)
        assert (
            flags.weak,
            flags.almost_weak,
            flags.moderate,
            flags.almost_moderate,
            flags.strong,
        ) == oracles.core_transitivity_flags(scf)
        triangular[subject] = triangular_condition(scf).witness
        assert triangular[subject] == oracles.core_triangular_witness(scf)
        core = scf.core
        top = len(core.cuts)
        assert all(r < top for row in core.rank.values() for r in row)
        assert all(r < top for row in core.pair_rank for r in row)
        assert max(_int_bits(core, set())) <= longest
    # Luce is a mixture of rankings; independent draws break the triangle
    assert triangular["luce"] is None and triangular["random"] is not None


def test_long_pairwise_counts_run_every_command(capsys, long_pairwise):
    path, _ = long_pairwise
    for command in ("analyze", "check", "compare"):
        code, out, err = run_cli(capsys, command, path)
        assert (code, err) == (0, ""), command
        assert out
