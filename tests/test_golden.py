"""Byte-identity gate for ``stochrat analyze`` reports.

The hashes pin the exact bytes of each committed fixture's report in every
output format, so a refactor that changes any set, witness, flag, verdict
or class shows up here even when every semantic test still passes.
``pairwise5_panel26.json`` is the CSV panel in the JSON dataset format, so
both ingest routes are pinned to the same bytes.  Update a hash only for an
intended change of the report, and say so in CHANGES.md.

``seeded_panel()`` (in ``conftest``) is a panel built in process from
seeded models over both domains; its reports are pinned the same way.

``MODEL_SPECS`` holds one model spec of each kind, at three or four
alternatives, with rational strings and JSON integers only; their
``stochrat model`` output is pinned the same way.
"""

import hashlib
import json

import pytest

from stochrat import DomainKind
from stochrat.cli import main
from stochrat.dataset import ChoiceDataset
from stochrat.report import (
    AnalysisConfig,
    SubjectError,
    render_csv,
    render_json,
    render_plotdata,
    run_analyze,
)

from conftest import FIXTURES, seeded_panel

GOLDEN = {
    "demo_full3.csv": "8e12223f99a410311d9aa822b3201758a2fc0577b168a988088b85eade03a8dc",
    "pairwise_cycles.csv": "c8fcbe89e0e1e83b15c89669631e21782d57e8d45972872c84aad0b2de3635e6",
    "pairwise5_panel26.csv": "31dc216c87e6ab8fd1d16217af7728e3b4d07e3f50258d51a660171797811e4a",
    "pairwise5_panel26.json": "31dc216c87e6ab8fd1d16217af7728e3b4d07e3f50258d51a660171797811e4a",
}

# (fixture, format) -> SHA-256 of the report; for plotdata, of the index
# bars file followed by the segments file
GOLDEN_TABLES = {
    ("demo_full3.csv", "csv"): "d2dfefe63f2ea38d44631070797b4569e53e389719da74b05dfaec5bae924a4f",
    ("demo_full3.csv", "plotdata"): "bde5eac6e2dee1ec05d43923b4133b7f15f44368c9f333c00511ae3716f6e96f",
    ("pairwise_cycles.csv", "csv"): "f4a1f25467891f988703cc352dae9aa9dc03982f3a425393b8903b113c7b1b92",
    ("pairwise_cycles.csv", "plotdata"): "f58843f1ebbd8449874e1045aa9b4f955bdfc419a592a530816fbab4d8666e54",
    ("pairwise5_panel26.csv", "csv"): "19f659b771c8c1e93afc8e872fee13657cea46c4eef7baf30304d5b3c43efb11",
    ("pairwise5_panel26.csv", "plotdata"): "848ea6e0f7ce752726a265dcf9be1b0719ba86ebf25ae9c2b91bba327f6c716d",
    ("pairwise5_panel26.json", "csv"): "19f659b771c8c1e93afc8e872fee13657cea46c4eef7baf30304d5b3c43efb11",
    ("pairwise5_panel26.json", "plotdata"): "848ea6e0f7ce752726a265dcf9be1b0719ba86ebf25ae9c2b91bba327f6c716d",
}

# fixture -> SHA-256 of ``stochrat compare`` stdout
GOLDEN_COMPARE = {
    "pairwise5_panel26.csv": "cae35e5fb409ecd0e182ab4a1f95e3645a391a0be24ffdbc3292243fa55c4e67",
    "pairwise_cycles.csv": "05643b5eac6caa3fc863bc46a9eae15a514823c3ecd6518d0a50aed2edfa0464",
}

# format -> SHA-256 of the report of ``seeded_panel()`` under a universe cap
# of 7; for plotdata, of the index bars followed by the segments
GOLDEN_PANEL = {
    "json": "0ad6f8f718b57c0b3fbf184da362355a63379922a6f8d38f9f3298b1de9e9942",
    "csv": "f2a218b2b408ed5c3310a4a736076d658d8958b5fffde95f066f6ededdecc303",
    "plotdata": "7ddef42f108ebdd6f8200a10c2e5fdb0c519473ee00e911e2765ca1f7042c733",
}

# kind -> a spec of that kind
MODEL_SPECS = {
    "luce": {"kind": "luce", "utility": {"a": 3, "b": "2", "c": "1", "d": "1/2"}},
    "general_luce": {
        "kind": "general_luce",
        "utility": {"a": "3", "b": "2", "c": "1"},
        "consideration": [
            {"menu": ["a", "b", "c"], "allowed": ["a", "c"]},
            {"menu": ["b", "c"], "allowed": ["c"]},
        ],
    },
    "two_stage_luce": {
        "kind": "two_stage_luce",
        "utility": {"a": "1", "b": "2", "c": "3", "d": 4},
        "dominance": [["a", "b"], ["c", "d"]],
    },
    "uniform_drum": {
        "kind": "uniform_drum",
        "first": {"a": "3", "b": "2", "c": "1", "d": "0"},
        "second": {"a": "1", "b": "3", "c": "0", "d": "2"},
        "weight": "2/3",
    },
    "drum": {
        "kind": "drum",
        "first": {"a": 3, "b": 2, "c": 1},
        "second": {"a": 1, "b": 2, "c": 3},
        "weights": [
            {"menu": ["a", "b"], "weight": "1/2"},
            {"menu": ["a", "c"], "weight": "3/4"},
            {"menu": ["b", "c"], "weight": "0.4"},
            {"menu": ["a", "b", "c"], "weight": "1/3"},
        ],
    },
    "rum": {
        "kind": "rum",
        "components": [
            {"utility": {"a": "4", "b": "3", "c": "2", "d": "1"}, "weight": "1/2"},
            {"utility": {"a": "1", "b": "4", "c": "3", "d": "2"}, "weight": "1/3"},
            {"utility": {"a": "2", "b": "1", "c": "4", "d": "3"}, "weight": "1/6"},
        ],
    },
    "tremble": {
        "kind": "tremble",
        "utility": {"a": "4", "b": "3", "c": "2", "d": "1"},
        "alpha": "2/5",
    },
    "mum": {
        "kind": "mum",
        "utility": {"a": "4", "b": "2", "c": "0"},
        "metric": [
            {"pair": ["a", "b"], "distance": 1},
            {"pair": ["b", "c"], "distance": "4"},
            {"pair": ["a", "c"], "distance": "5"},
        ],
        "response": [
            {"arg": "0", "value": "1/2"},
            {"arg": "1/2", "value": "3/5"},
            {"arg": "4/5", "value": "2/3"},
            {"arg": 2, "value": "9/10"},
            {"arg": "-1/2", "value": "2/5"},
            {"arg": "-4/5", "value": "1/3"},
            {"arg": -2, "value": "1/10"},
        ],
    },
    "random": {
        "kind": "random",
        "universe": ["a", "b", "c", "d"],
        "seed": 5,
        "denominator_bound": 9,
        "domain": "pairwise",
    },
}

# kind -> SHA-256 of ``stochrat model`` stdout on ``MODEL_SPECS[kind]``
GOLDEN_MODELS = {
    "drum": "57fe621ee6279794742151b7469152008655f52659b7829010e271728d9ee542",
    "general_luce": "c310e8f6895c6bf1edcf76a8e2becf4c2a3d67b19c63fbe325b3069d1d96715e",
    "luce": "0acd2069093f5b7c72c4322e5759930597de45f6bf5733bdfac766fd4de33617",
    "mum": "d0744ad1f5f96df2c402f40278dd04c03b80d4ae917a99481821cfd22e7e3848",
    "random": "4f5502cbfe37e344e6efb3daff10602a21925651a5995a15485df743e81fa471",
    "rum": "5fd165832c9025c9560648950a59cfd561b4f635af471107f9900949e965a751",
    "tremble": "c06dec0bfb2d9c26d16358d244b9fc92564f21b2286daaa6211d6776ce1bbb5b",
    "two_stage_luce": "823fc7432c5436526d820e71f48837683db508e11a15934cc96a72f6fd8670a0",
    "uniform_drum": "7f6521f4de6cfa8ef9c0b4e3f5a5db48a56425112554efee83de609015ccd029",
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_analyze_json_report_is_byte_identical(fixture, tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(FIXTURES / fixture), "--format", "json", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[fixture]


@pytest.mark.parametrize("fixture,fmt", sorted(GOLDEN_TABLES))
def test_analyze_table_reports_are_byte_identical(fixture, fmt, tmp_path):
    out = tmp_path / "report.csv"
    code = main(["analyze", str(FIXTURES / fixture), "--format", fmt, "--out", str(out)])
    assert code == 0
    if fmt == "plotdata":
        written = [tmp_path / "report_index_bars.csv", tmp_path / "report_segments.csv"]
    else:
        written = [out]
    digest = hashlib.sha256(b"".join(path.read_bytes() for path in written))
    assert digest.hexdigest() == GOLDEN_TABLES[(fixture, fmt)]


@pytest.mark.parametrize("fixture", sorted(GOLDEN_COMPARE))
def test_compare_output_is_byte_identical(fixture, capsys):
    assert main(["compare", str(FIXTURES / fixture)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_COMPARE[fixture]


@pytest.mark.parametrize("kind", sorted(GOLDEN_MODELS))
def test_model_output_is_byte_identical(kind, tmp_path, capsys):
    spec = tmp_path / f"{kind}.json"
    spec.write_text(json.dumps(MODEL_SPECS[kind]), encoding="utf-8")
    assert main(["model", str(spec)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_MODELS[kind]


def test_seeded_panel_reports_are_byte_identical():
    report = run_analyze(ChoiceDataset(seeded_panel()), AnalysisConfig(max_universe=7))
    # the panel reaches every shape the report writes
    full = [e for e in report.ok_subjects() if e.domain is DomainKind.FULL]
    assert {w.axiom for e in full for w in e.sets.witnesses} == {
        "chernoff",
        "condorcet",
        "transitivity",
    }
    assert any(len(e.sets.union.intervals) >= 2 for e in full)
    assert [e.subject for e in report.subjects if isinstance(e, SubjectError)] == [
        "over the cap"
    ]
    assert len(report.comparison.classes) > 20
    texts = {
        "json": render_json(report),
        "csv": render_csv(report),
        "plotdata": "".join(render_plotdata(report)),
    }
    for fmt, text in texts.items():
        assert hashlib.sha256(text.encode("utf-8")).hexdigest() == GOLDEN_PANEL[fmt], fmt
