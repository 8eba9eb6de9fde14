import json
from fractions import Fraction
from pathlib import Path

import pytest

from stochrat import (
    CapacityError,
    DomainKind,
    parse_dataset,
    scf_to_rows,
    write_dataset_csv,
)

from conftest import FIXTURES

F = Fraction

HEADER = "subject,menu,alternative,count,prob\n"

FULL3_PROB = """s1,x|y,x,,0.8
s1,x|y,y,,0.2
s1,y|z,y,,2/3
s1,y|z,z,,1/3
s1,x|z,x,,1/3
s1,x|z,z,,2/3
s1,x|y|z,x,,6/13
s1,x|y|z,y,,1/13
s1,x|y|z,z,,6/13
"""

PAIRWISE_COUNTS = """s1,a|b,a,14,
s1,a|b,b,6,
s1,b|c,b,12,
s1,b|c,c,8,
s1,a|c,a,10,
s1,a|c,c,10,
"""


@pytest.fixture
def parse_csv(tmp_path):
    def run(body, name="data.csv", header=HEADER):
        path = tmp_path / name
        path.write_text(header + body, encoding="utf-8")
        return parse_dataset(path)

    return run


@pytest.fixture
def parse_json_doc(tmp_path):
    def run(doc):
        path = tmp_path / "data.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return parse_dataset(path)

    return run


# -- CSV happy paths ---------------------------------------------------------------


def test_parse_probability_rows(parse_csv):
    ds = parse_csv(FULL3_PROB)
    assert ds.subject_ids() == ["s1"]
    scf = ds.scf("s1")
    assert scf.domain_kind is DomainKind.FULL
    assert scf.pair_prob("x", "y") == F(4, 5)
    assert scf.prob("y", frozenset(("x", "y", "z"))) == F(1, 13)


def test_parse_count_rows(parse_csv):
    ds = parse_csv(PAIRWISE_COUNTS)
    scf = ds.scf("s1")
    assert scf.domain_kind is DomainKind.PAIRWISE
    assert scf.pair_prob("a", "b") == F(7, 10)
    assert scf.pair_prob("a", "c") == F(1, 2)


def test_counts_accumulate_over_repeated_rows(parse_csv):
    body = """s1,a|b,a,3,
s1,a|b,a,4,
s1,a|b,b,3,
"""
    ds = parse_csv(body)
    assert ds.scf("s1").pair_prob("a", "b") == F(7, 10)


def test_zero_count_members_allowed(parse_csv):
    body = """s1,a|b,a,5,
s1,a|b,b,0,
"""
    ds = parse_csv(body)
    assert ds.scf("s1").pair_prob("a", "b") == 1


def test_multiple_subjects_with_distinct_domains(parse_csv):
    body = FULL3_PROB + PAIRWISE_COUNTS.replace("s1", "s2")
    ds = parse_csv(body)
    assert ds.subject_ids() == ["s1", "s2"]
    assert ds.scf("s1").domain_kind is DomainKind.FULL
    assert ds.scf("s2").domain_kind is DomainKind.PAIRWISE


def test_two_alternative_subject_is_pairwise(parse_csv):
    ds = parse_csv("s1,a|b,a,,0.5\ns1,a|b,b,,0.5\n")
    assert ds.scf("s1").domain_kind is DomainKind.PAIRWISE


# -- CSV validation -----------------------------------------------------------------


def test_missing_header_column(parse_csv):
    with pytest.raises(ValueError, match="header"):
        parse_csv("", header="subject,menu,alternative\n")


def test_row_with_both_count_and_prob(parse_csv):
    with pytest.raises(ValueError, match="data.csv:2"):
        parse_csv("s1,a|b,a,3,0.5\n")


def test_row_with_neither_count_nor_prob(parse_csv):
    with pytest.raises(ValueError, match="data.csv:3"):
        parse_csv("s1,a|b,a,3,\ns1,a|b,b,,\n")


def test_alternative_outside_menu(parse_csv):
    with pytest.raises(ValueError, match="not in menu"):
        parse_csv("s1,a|b,c,3,\n")


def test_singleton_menu_rejected(parse_csv):
    with pytest.raises(ValueError, match="singleton"):
        parse_csv("s1,a,a,3,\n")


def test_duplicate_menu_label(parse_csv):
    with pytest.raises(ValueError, match="duplicate label"):
        parse_csv("s1,a|a,a,3,\n")


def test_negative_count(parse_csv):
    with pytest.raises(ValueError, match="negative"):
        parse_csv("s1,a|b,a,-3,\n")


def test_fractional_count(parse_csv):
    with pytest.raises(ValueError, match="integer"):
        parse_csv("s1,a|b,a,2.5,\n")


def test_probabilities_must_sum_to_one_per_menu(parse_csv):
    body = """s1,a|b,a,,0.6
s1,a|b,b,,0.6
"""
    with pytest.raises(ValueError, match="sum"):
        parse_csv(body)


def test_duplicate_probability_row_rejected(parse_csv):
    body = """s1,a|b,a,,0.5
s1,a|b,a,,0.5
"""
    with pytest.raises(ValueError, match="duplicate probability"):
        parse_csv(body)


def test_mixed_modes_within_menu_rejected(parse_csv):
    body = """s1,a|b,a,3,
s1,a|b,b,,0.5
"""
    with pytest.raises(ValueError, match="mixed"):
        parse_csv(body)


def test_all_zero_counts_rejected(parse_csv):
    body = """s1,a|b,a,0,
s1,a|b,b,0,
"""
    with pytest.raises(ValueError, match="zero"):
        parse_csv(body)


def test_incomplete_full_domain_names_missing_menu(parse_csv):
    body = """s1,x|y,x,,1
s1,y|z,y,,1
s1,x|y|z,x,,1
"""
    ds = parse_csv(body)
    with pytest.raises(ValueError, match=r"\{x,z\}"):
        ds.scf("s1")


def test_probability_out_of_range(parse_csv):
    with pytest.raises(ValueError, match="outside"):
        parse_csv("s1,a|b,a,,1.5\n")


def test_unknown_subject(parse_csv):
    ds = parse_csv(PAIRWISE_COUNTS)
    with pytest.raises(ValueError, match="unknown subject"):
        ds.scf("nobody")


# -- JSON ---------------------------------------------------------------------------


def test_parse_json_document(parse_json_doc):
    ds = parse_json_doc(
        {
            "subjects": [
                {
                    "subject": "s1",
                    "observations": [
                        {"menu": ["a", "b"], "alternative": "a", "count": 14},
                        {"menu": ["a", "b"], "alternative": "b", "count": 6},
                    ],
                }
            ]
        }
    )
    assert ds.scf("s1").pair_prob("a", "b") == F(7, 10)


def test_json_prob_observations(parse_json_doc):
    ds = parse_json_doc(
        {
            "subjects": [
                {
                    "subject": "s1",
                    "observations": [
                        {"menu": ["a", "b"], "alternative": "a", "prob": "2/3"},
                        {"menu": ["a", "b"], "alternative": "b", "prob": "1/3"},
                    ],
                }
            ]
        }
    )
    assert ds.scf("s1").pair_prob("a", "b") == F(2, 3)


def test_json_rejects_both_count_and_prob(parse_json_doc):
    with pytest.raises(ValueError, match="exactly one"):
        parse_json_doc(
            {
                "subjects": [
                    {
                        "subject": "s1",
                        "observations": [
                            {
                                "menu": ["a", "b"],
                                "alternative": "a",
                                "count": 1,
                                "prob": "1",
                            }
                        ],
                    }
                ]
            }
        )


def test_json_requires_subjects_key(parse_json_doc):
    with pytest.raises(ValueError, match="subjects"):
        parse_json_doc({"rows": []})


def test_json_menu_must_be_list(parse_json_doc):
    with pytest.raises(ValueError, match="list"):
        parse_json_doc(
            {
                "subjects": [
                    {
                        "subject": "s1",
                        "observations": [
                            {"menu": "a|b", "alternative": "a", "count": 1}
                        ],
                    }
                ]
            }
        )


# -- files and round trips -------------------------------------------------------------


def test_parse_dataset_unknown_suffix(tmp_path):
    path = tmp_path / "data.xml"
    path.write_text("<data/>")
    with pytest.raises(ValueError, match="format"):
        parse_dataset(path)


def test_scf_round_trip_through_csv(tmp_path, parse_csv):
    scf = parse_csv(FULL3_PROB).scf("s1")
    path = tmp_path / "echo.csv"
    write_dataset_csv(path, scf_to_rows(scf, subject="s1"))
    again = parse_dataset(path).scf("s1")
    assert again == scf


def test_scf_to_rows_omits_zero_probabilities(parse_csv):
    ds = parse_csv("s1,a|b,a,5,\ns1,a|b,b,0,\n")
    rows = scf_to_rows(ds.scf("s1"), subject="s1")
    assert all(row["alternative"] != "b" for row in rows)
    assert {row["menu"] for row in rows} == {"a|b"}
    assert all(row["subject"] == "s1" for row in rows)


def test_max_universe_threaded_through(parse_csv):
    ds = parse_csv(PAIRWISE_COUNTS)
    with pytest.raises(CapacityError) as info:
        ds.scf("s1", max_universe=2)
    # not a ValueError, so the dataset passes it on as it is
    assert str(info.value) == "universe of 3 alternatives exceeds the pairwise-domain cap of 2"


def test_panel_fixture_script_is_reproducible(tmp_path):
    # the committed 26-subject panel must match a fresh run of its generator
    import subprocess
    import sys

    out = tmp_path / "panel.csv"
    script = Path(__file__).parent.parent / "scripts" / "make_panel_fixture.py"
    subprocess.run([sys.executable, str(script), str(out)], check=True)
    committed = FIXTURES / "pairwise5_panel26.csv"
    assert out.read_bytes() == committed.read_bytes()


def test_panel_json_fixture_script_is_reproducible(tmp_path):
    # the JSON copy of the panel must match a fresh run of the same generator
    import subprocess
    import sys

    out = tmp_path / "panel.json"
    script = Path(__file__).parent.parent / "scripts" / "make_panel_fixture.py"
    subprocess.run([sys.executable, str(script), str(out)], check=True)
    committed = FIXTURES / "pairwise5_panel26.json"
    assert out.read_bytes() == committed.read_bytes()
