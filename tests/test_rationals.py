import json
import math
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stochrat import (
    StochasticChoiceFunction,
    format_decimal,
    format_rational,
    models,
    parse_dataset,
    parse_rational,
)
from stochrat.errors import CapacityError
from stochrat.intervals import IntervalUnion
from stochrat.rationals import (
    DECIMAL_EXPONENT_CAP,
    RATIONAL_TEXT_CAP,
    probability_pair,
    probability_row,
    to_fraction,
    to_probability,
)


def test_parse_fraction_form():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("-7/2") == Fraction(-7, 2)


def test_parse_integer_and_decimal():
    assert parse_rational("4") == Fraction(4)
    assert parse_rational("0.25") == Fraction(1, 4)
    # decimals are exact, not float round-trips
    assert parse_rational("0.1") == Fraction(1, 10)


def test_parse_strips_whitespace():
    assert parse_rational(" 1/2 ") == Fraction(1, 2)


@pytest.mark.parametrize("bad", ["", "abc", "1/0", "1//2", "1.2.3", "1e3/2"])
def test_parse_rejects_garbage(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


@pytest.mark.parametrize(
    "quirk", ["1_0/2_0", "1_000", "0.2_5", "1e1_0", "\uff15", "\u0663/\u0664", "1/2\u00b2"]
)
def test_parse_rejects_python_literal_quirks(quirk):
    # Fraction reads digit separators and any Unicode digit; data may not
    with pytest.raises(ValueError) as info:
        parse_rational(quirk)
    assert str(info.value) == f"not a rational number: {quirk!r}"


# ASCII digits, leading zeros included; "p/q" of two stays within the cap
NUMERALS = st.text(alphabet="0123456789", min_size=1, max_size=RATIONAL_TEXT_CAP // 2 - 1)


@settings(max_examples=200, deadline=None)
@given(NUMERALS, st.none() | NUMERALS.filter(lambda text: int(text) != 0))
def test_digit_text_parses_as_fraction_parses_it(num, den):
    text = num if den is None else f"{num}/{den}"
    assert parse_rational(text) == Fraction(text)
    assert parse_rational(f" {text} ") == Fraction(text)


@pytest.mark.parametrize(
    "text",
    ["0/7", "007/0014", "0", "000", "9" * RATIONAL_TEXT_CAP, "1/" + "9" * (RATIONAL_TEXT_CAP - 2)],
)
def test_digit_text_edge_cases(text):
    assert parse_rational(text) == Fraction(text)


@pytest.mark.parametrize(
    "text,result",
    [
        ("5/0", "not a rational number: '5/0'"),
        ("0/0", "not a rational number: '0/0'"),
        ("+1/2", Fraction(1, 2)),
        ("1/-2", "not a rational number: '1/-2'"),
        ("1/", "not a rational number: '1/'"),
        ("/2", "not a rational number: '/2'"),
        ("\uff11/\uff12", "not a rational number: '\uff11/\uff12'"),
        ("1" * (RATIONAL_TEXT_CAP + 1),
         f"rational text of {RATIONAL_TEXT_CAP + 1} characters exceeds the cap of "
         f"{RATIONAL_TEXT_CAP}"),
    ],
)
def test_text_beside_the_digit_forms_keeps_its_result(text, result):
    if isinstance(result, Fraction):
        assert parse_rational(text) == result
    else:
        with pytest.raises(ValueError) as info:
            parse_rational(text)
        assert str(info.value) == result


def _read(parse, text):
    """(pair, None) or (None, the error's message and its cause's)."""
    try:
        value = parse(text)
    except ValueError as exc:
        return None, (str(exc), str(exc.__cause__))
    if isinstance(value, Fraction):
        value = value.numerator, value.denominator
    return value, None


# digit runs with leading zeros, long enough that "p/q" passes the cap, and
# texts beside the digit forms
DIGITS = st.text(alphabet="0123456789", min_size=1, max_size=RATIONAL_TEXT_CAP // 2 + 50)
CELLS = st.builds(
    lambda sign, num, slash, den, pad: f"{pad}{sign}{num}{slash}{den}{pad}",
    st.sampled_from(["", "", "+", "-"]),
    DIGITS | st.just("0") | st.just(""),
    st.sampled_from(["/", "/", ""]),
    DIGITS | st.sampled_from(["0", "000", "", "-2", "x"]),
    st.sampled_from(["", "", " "]),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(CELLS)
@example("6/4")
@example("0/0")
@example("+1/2")
@example("01/02")
@example("1" * 500 + "/" + "2" * 500)
@example("1/" + "9" * (RATIONAL_TEXT_CAP - 2))
def test_probability_cells_read_as_to_probability_reads_them(text):
    assert _read(probability_pair, text) == _read(
        lambda t: to_probability(t, "probability"), text
    )


def test_format_rational():
    assert format_rational(Fraction(2, 3)) == "2/3"
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(0)) == "0"
    widest = 10 ** sys.get_int_max_str_digits() - 1
    assert format_rational(Fraction(-widest, widest - 1)) == f"-{widest}/{widest - 1}"


@pytest.mark.parametrize("digits", [1, 2, 3, 10, 100])
def test_format_rational_names_the_digits_beyond_the_print_limit(digits):
    limit = sys.get_int_max_str_digits()
    longest = limit + digits
    for value in (Fraction(10 ** (longest - 1)), Fraction(1, 10**longest - 1),
                  Fraction(-(10**longest) + 1, 7)):
        with pytest.raises(CapacityError) as info:
            format_rational(value)
        assert str(info.value) == (
            f"an exact value's numerator or denominator of {longest} digits exceeds "
            f"Python's limit of {limit} digits for printing an integer"
        )


def test_format_decimal_fixed_width():
    assert format_decimal(Fraction(5, 12)) == "0.416667"
    assert format_decimal(Fraction(1, 2)) == "0.500000"
    assert format_decimal(Fraction(1)) == "1.000000"
    assert format_decimal(Fraction(0)) == "0.000000"


def test_format_decimal_rounds_half_away_from_zero():
    assert format_decimal(Fraction(1, 2_000_000)) == "0.000001"
    assert format_decimal(Fraction(25, 10**7)) == "0.000003"
    assert format_decimal(Fraction(-1, 2_000_000)) == "-0.000001"
    assert format_decimal(Fraction(1, 2_000_001)) == "0.000000"
    assert format_decimal(Fraction(-1, 3_000_000)) == "0.000000"


def test_round_trip_exactness():
    for text in ["5/12", "7/13", "1", "0.416667"]:
        value = parse_rational(text)
        assert parse_rational(format_rational(value)) == value


def test_parse_accepts_exponents_up_to_the_cap():
    assert parse_rational("2.5e-1") == Fraction(1, 4)
    power = 10**DECIMAL_EXPONENT_CAP
    assert parse_rational(f"1e-{DECIMAL_EXPONENT_CAP}") == Fraction(1, power)
    assert parse_rational(f"1E+{DECIMAL_EXPONENT_CAP}") == power


@pytest.mark.parametrize(
    "text",
    [
        "1e-1000000",
        f"1e{DECIMAL_EXPONENT_CAP + 1}",
        f"0.5E-{DECIMAL_EXPONENT_CAP + 1}",
        "1" * (RATIONAL_TEXT_CAP + 1),
        "1/" + "3" * RATIONAL_TEXT_CAP,
    ],
)
def test_parse_rejects_oversized_text(text):
    with pytest.raises(ValueError, match="exceeds the cap"):
        parse_rational(text)


def test_parse_length_cap_ignores_surrounding_space():
    text = "1" * RATIONAL_TEXT_CAP
    assert parse_rational(f"  {text}  ") == int(text)


def test_to_fraction_accepts_text_and_numbers():
    assert to_fraction("3/4", "weight") == Fraction(3, 4)
    assert to_fraction(2, "weight") == 2
    assert to_fraction(Fraction(1, 3), "weight") == Fraction(1, 3)
    with pytest.raises(ValueError, match=r"^bad weight \[1\] for \{x,y\}$"):
        to_fraction([1], "weight", " for {x,y}")


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: models.tremble({"x": "2", "y": "1"}, float("inf")), "tremble weight"),
        (lambda: models.luce({"x": float("inf"), "y": "1"}), "utility"),
        (lambda: IntervalUnion.single(0, float("inf")), "interval endpoint"),
    ],
    ids=["tremble", "luce", "interval"],
)
def test_an_infinite_float_is_a_value_error(build, message):
    with pytest.raises(ValueError, match=rf"^bad {message} inf"):
        build()


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: to_fraction(True, "weight"), "weight True"),
        (lambda: to_probability(False, "weight", " for {x}"), "weight False for {x}"),
        (lambda: models.luce({"x": True, "y": "1", "z": "2"}), "utility True of 'x'"),
    ],
    ids=["to_fraction", "to_probability", "luce"],
)
def test_a_bool_is_not_a_number(build, message):
    with pytest.raises(ValueError, match=rf"^bad {message}$"):
        build()


def test_to_probability_checks_the_unit_interval():
    assert to_probability("0", "weight") == 0
    assert to_probability(1, "weight") == 1
    with pytest.raises(ValueError, match=r"^weight 3/2 for \{x,y\} outside \[0, 1\]$"):
        to_probability("3/2", "weight", " for {x,y}")
    with pytest.raises(ValueError, match=r"^threshold -1 outside \[0, 1\]$"):
        to_probability(-1, "threshold")


BIG = 10**40


def fraction_row(cells, members):
    """The integer row of the cells, computed on ``Fraction``s: each
    member's probability (0 without a cell) times the lcm of their reduced
    denominators."""
    probs = [Fraction(*cells[x]) if x in cells else Fraction(0) for x in members]
    scale = math.lcm(*(p.denominator for p in probs))
    return tuple(int(p * scale) for p in probs)


@pytest.mark.parametrize(
    "cells,members,row",
    [
        # a member without a cell gets 0
        ({"b": (1, 1)}, "abc", (0, 1, 0)),
        ({"a": (1, 3), "c": (2, 3)}, "abc", (1, 0, 2)),
        # denominators of 1
        ({"a": (0, 1), "b": (1, 1)}, "ab", (0, 1)),
        # 40-digit denominators
        ({"a": (1, BIG - 1), "b": (BIG - 2, BIG - 1)}, "ab", (1, BIG - 2)),
        ({"a": (1, 3 * BIG), "b": (2, 3), "c": ((BIG - 1) // 3, BIG)}, "abcd",
         (1, 2 * BIG, BIG - 1, 0)),
    ],
)
def test_probability_row_puts_the_cells_over_their_lcm(cells, members, row):
    assert probability_row(cells, members) == row == fraction_row(cells, members)


@given(
    st.lists(
        st.tuples(st.integers(0, 50), st.integers(1, BIG), st.booleans()),
        min_size=2,
        max_size=8,
    ).filter(lambda draws: any(weight for weight, _, _ in draws)),
    st.integers(2, BIG),
    st.sampled_from([-1, 1]),
)
@settings(max_examples=200, deadline=None)
def test_probability_row_matches_fractions(draws, off_den, sign):
    weights = [Fraction(weight, den) for weight, den, _ in draws]
    total = sum(weights)
    members = [f"x{k}" for k in range(len(draws))]
    # a zero probability is a (0, 1) cell or no cell at all
    cells = {
        x: ((w / total).numerator, (w / total).denominator)
        for x, w, (_, _, keep) in zip(members, weights, draws)
        if w or keep
    }
    row = probability_row(cells, members)
    assert row == fraction_row(cells, members)
    assert math.gcd(*row) == 1
    assert [Fraction(num, sum(row)) for num in row] == [w / total for w in weights]

    # the same cells with the largest off by at most 1/2, down to 10^-40,
    # in the drawn direction where the cell stays within [0, 1]
    x = max(cells, key=lambda x: Fraction(*cells[x]))
    off = sign * Fraction(1, off_den)
    if not 0 <= Fraction(*cells[x]) + off <= 1:
        off = -off
    p = Fraction(*cells[x]) + off
    with pytest.raises(ValueError) as info:
        probability_row({**cells, x: (p.numerator, p.denominator)}, members)
    assert str(info.value) == f"probabilities sum to {1 + off}, not 1"


@pytest.mark.parametrize("off", [Fraction(1, BIG), -Fraction(1, BIG)], ids=["over", "under"])
def test_a_sum_off_one_by_ten_to_the_minus_40_is_refused(tmp_path, off):
    # the same text from the row builder, the constructor and a data file
    message = f"probabilities sum to {1 + off}, not 1"
    half, rest = Fraction(1, 2), Fraction(1, 2) + off
    with pytest.raises(ValueError) as info:
        probability_row({"x": (1, 2), "y": (rest.numerator, rest.denominator)}, "xy")
    assert str(info.value) == message
    with pytest.raises(ValueError) as info:
        StochasticChoiceFunction({("x", "y"): {"x": half, "y": rest}})
    assert str(info.value) == f"menu {{x,y}}: {message}"
    csv_path = tmp_path / "data.csv"
    csv_path.write_text(
        f"subject,menu,alternative,prob\ns1,a|b,a,1/2\ns1,a|b,b,{rest}\n",
        encoding="utf-8",
    )
    json_path = tmp_path / "data.json"
    observations = [
        {"menu": ["a", "b"], "alternative": x, "prob": str(p)}
        for x, p in (("a", half), ("b", rest))
    ]
    json_path.write_text(
        json.dumps({"subjects": [{"subject": "s1", "observations": observations}]}),
        encoding="utf-8",
    )
    for path in (csv_path, json_path):
        with pytest.raises(ValueError) as info:
            parse_dataset(path)
        assert str(info.value) == f"subject 's1', menu {{a,b}}: {message}"
