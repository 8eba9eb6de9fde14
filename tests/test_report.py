"""Batch analysis and rendering: JSON/CSV/plotdata shape and byte stability."""

import json
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from stochrat import DomainKind, measure
from stochrat.cli import main
from stochrat.dataset import (
    ChoiceDataset,
    parse_dataset,
    scf_to_rows,
    write_dataset_csv,
)
from stochrat.errors import OracleMismatch
from stochrat.intervals import IntervalUnion
from stochrat.measure import compare_many
from stochrat.models import random_scf
from stochrat.report import (
    AnalysisConfig,
    AnalysisReport,
    SubjectAnalysis,
    SubjectError,
    analyze_scf,
    emit_report,
    render_csv,
    render_json,
    render_plotdata,
    run_analyze,
)

from conftest import FIXTURES, PANEL_LABELS, integer_rows


@pytest.fixture()
def demo_report():
    ds = parse_dataset(FIXTURES / "demo_full3.csv")
    return run_analyze(ds)


@pytest.fixture()
def cycles_report():
    ds = parse_dataset(FIXTURES / "pairwise_cycles.csv")
    return run_analyze(ds)


def test_analyze_scf_bundle(demo_scf):
    entry = analyze_scf(demo_scf, subject="demo")
    assert entry.subject == "demo"
    assert entry.universe == ("x", "y", "z")
    assert entry.index == Fraction(5, 12)
    assert str(entry.sets.union) == "(1/6,1/4] ∪ (1/2,1]"
    assert entry.selective_contractions is False
    assert entry.triangular.holds is False


def test_analyze_scf_oracle_mode_agrees(demo_scf):
    fast = analyze_scf(demo_scf, subject="demo")
    checked = analyze_scf(demo_scf, subject="demo", config=AnalysisConfig(oracle=True))
    assert checked.sets.union == fast.sets.union
    assert checked.index == fast.index


def test_oracle_checks_each_part_not_only_the_union(monkeypatch):
    # The true cycle part, (1/2,8/9], lies inside the other two parts, so
    # emptying it leaves the union as it was.
    scf = random_scf(0, "abc", denominator_bound=9)
    config = AnalysisConfig(oracle=True)
    assert str(analyze_scf(scf, config=config).sets.transitivity) == "(1/2,8/9]"
    monkeypatch.setattr(measure, "transitivity_set", lambda scf: IntervalUnion.empty())
    with pytest.raises(
        OracleMismatch,
        match="^subject model, cycle set and axiom checking disagree at 8/9$",
    ):
        analyze_scf(scf, config=config)


@pytest.mark.parametrize(
    "producer, message",
    [
        ("chernoff_set", "contraction set and axiom checking disagree at 1"),
        ("condorcet_set", "pairwise-winner set and axiom checking disagree at 1/4"),
        ("transitivity_set", "cycle set and axiom checking disagree at 1"),
    ],
)
def test_oracle_names_the_part_that_disagrees(monkeypatch, producer, message):
    # each part is checked and named on its own, not only the cycle part
    scf = parse_dataset(FIXTURES / "demo_full3.csv").scf("s1")
    empty = IntervalUnion.empty()
    monkeypatch.setattr(measure, producer, lambda scf, tables=None: empty)
    with pytest.raises(OracleMismatch) as caught:
        analyze_scf(scf, subject="s1", config=AnalysisConfig(oracle=True))
    assert str(caught.value) == f"subject s1, {message}"


def test_run_analyze_demo(demo_report):
    assert [s.subject for s in demo_report.subjects] == ["s1"]
    (entry,) = demo_report.ok_subjects()
    assert isinstance(entry, SubjectAnalysis)
    assert entry.index == Fraction(5, 12)
    assert demo_report.comparison is not None
    assert demo_report.comparison.names == ("s1",)


def test_json_document_shape(demo_report):
    doc = json.loads(render_json(demo_report))
    assert doc["schema_version"] == 1
    assert doc["settings"] == {"digits": 6, "oracle": False, "max_universe": None}
    (subject,) = doc["subjects"]
    assert subject["subject"] == "s1"
    assert subject["status"] == "ok"
    assert subject["domain"] == "full"
    assert subject["universe"] == ["x", "y", "z"]
    assert subject["sets"]["irrationality"] == [["1/6", "1/4"], ["1/2", "1"]]
    assert subject["sets"]["condorcet"] == [["1/6", "1/4"]]
    assert subject["rationality_index"] == {"exact": "5/12", "decimal": "0.416667"}
    flags = subject["flags"]
    assert flags["maximally_rational"] is False
    assert flags["weak_s_transitive"] is False
    assert flags["triangular_condition"] is False
    assert subject["triangular_witness"] == ["x", "y", "z"]


def test_json_witness_shapes(demo_report):
    (subject,) = json.loads(render_json(demo_report))["subjects"]
    by_axiom = {w["axiom"]: w for w in subject["witnesses"]}
    condorcet = by_axiom["condorcet"]
    assert condorcet["interval"] == ["1/6", "1/4"]
    assert condorcet["menu"] == ["x", "y", "z"]
    assert condorcet["alternative"] == "y"
    chernoff = by_axiom["chernoff"]
    assert chernoff["interval"] == ["1/2", "1"]
    assert chernoff["menu"] == ["x", "z"]
    assert chernoff["larger_menu"] == ["x", "y", "z"]
    assert chernoff["alternative"] == "x"


def test_json_transitivity_witness_shape(cycles_report):
    doc = json.loads(render_json(cycles_report))
    subjects = {s["subject"]: s for s in doc["subjects"]}
    witnesses = subjects["cyc23"]["witnesses"]
    assert witnesses and witnesses[0]["axiom"] == "transitivity"
    assert sorted(witnesses[0]["triple"]) == ["x", "y", "z"]
    # pairwise subjects never get contraction or expansion selectivity flags
    assert subjects["cyc23"]["flags"]["selective_contractions"] is None
    assert subjects["cyc23"]["flags"]["selective_expansions"] is None


def test_json_comparison_block(cycles_report):
    doc = json.loads(render_json(cycles_report))
    comparisons = doc["comparisons"]
    # cyc07's set (3/7,1] strictly contains cyc23's (1/2,1]
    assert comparisons["verdicts"] == [
        {"left": "cyc07", "right": "cyc23", "verdict": "RightMoreRational"}
    ]
    assert comparisons["equivalence_classes"] == [["cyc07"], ["cyc23"]]
    assert comparisons["hasse_edges"] == [
        {"more_rational": "cyc23", "less_rational": "cyc07"}
    ]


def test_csv_rendering(cycles_report):
    lines = render_csv(cycles_report).splitlines()
    assert lines[0].startswith("subject,status,rationality_index,irrationality_set")
    rows = {line.split(",")[0]: line for line in lines[1:]}
    assert rows["cyc23"].split(",")[2] == "0.500000"
    assert "(1/2,1]" in rows["cyc23"]
    assert rows["cyc07"].split(",")[2] == "0.428571"
    # pairwise domain leaves the selectivity columns empty
    assert rows["cyc23"].endswith(",,")


def test_plotdata_ordering(cycles_report):
    bars, segments = render_plotdata(cycles_report)
    assert bars.splitlines() == [
        "subject,rationality_index",
        "cyc07,0.428571",
        "cyc23,0.500000",
    ]
    assert segments.splitlines() == [
        "subject,lo,hi,lo_decimal,hi_decimal",
        "cyc07,3/7,1,0.428571,1.000000",
        "cyc23,1/2,1,0.500000,1.000000",
    ]


def test_rendering_is_byte_stable():
    ds = parse_dataset(FIXTURES / "pairwise5_panel26.csv")
    first = run_analyze(ds)
    second = run_analyze(ds)
    assert render_json(first) == render_json(second)
    assert render_csv(first) == render_csv(second)
    assert render_plotdata(first) == render_plotdata(second)


def test_capacity_error_isolated_per_subject(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text(
        "subject,menu,alternative,count,prob\n"
        "small,x|y,x,,1/2\n"
        "small,x|y,y,,1/2\n"
        "big,a|b,a,,1/2\n"
        "big,a|b,b,,1/2\n"
        "big,a|c,a,,1/2\n"
        "big,a|c,c,,1/2\n"
        "big,a|d,a,,1/2\n"
        "big,a|d,d,,1/2\n"
        "big,b|c,b,,1/2\n"
        "big,b|c,c,,1/2\n"
        "big,b|d,b,,1/2\n"
        "big,b|d,d,,1/2\n"
        "big,c|d,c,,1/2\n"
        "big,c|d,d,,1/2\n",
        encoding="utf-8",
    )
    report = run_analyze(parse_dataset(path), AnalysisConfig(max_universe=3))
    by_subject = {entry.subject: entry for entry in report.subjects}
    assert isinstance(by_subject["big"], SubjectError)
    assert by_subject["big"].kind == "capacity"
    assert by_subject["big"].message == (
        "universe of 4 alternatives exceeds the pairwise-domain cap of 3"
    )
    assert isinstance(by_subject["small"], SubjectAnalysis)
    # the surviving subject still gets compared (with itself only)
    assert report.comparison.names == ("small",)
    doc = json.loads(render_json(report))
    error_entry = next(s for s in doc["subjects"] if s["subject"] == "big")
    assert error_entry["status"] == "error"
    assert error_entry["error"]["kind"] == "capacity"
    csv_lines = render_csv(report).splitlines()
    big_line = next(line for line in csv_lines if line.startswith("big,"))
    assert big_line.split(",")[1] == "error:capacity"
    assert len(big_line.split(",")) == len(csv_lines[0].split(","))


def test_emit_report_files(tmp_path, cycles_report):
    json_path = tmp_path / "out.json"
    written = emit_report(cycles_report, "json", json_path)
    assert written == [json_path]
    assert json_path.read_text(encoding="utf-8") == render_json(cycles_report)

    csv_path = tmp_path / "out.csv"
    assert emit_report(cycles_report, "csv", csv_path) == [csv_path]
    assert csv_path.read_text(encoding="utf-8") == render_csv(cycles_report)

    plot_path = tmp_path / "plot.csv"
    bars_path, segments_path = emit_report(cycles_report, "plotdata", plot_path)
    assert bars_path == tmp_path / "plot_index_bars.csv"
    assert segments_path == tmp_path / "plot_segments.csv"
    bars, segments = render_plotdata(cycles_report)
    assert bars_path.read_text(encoding="utf-8") == bars
    assert segments_path.read_text(encoding="utf-8") == segments
    # each file was moved into place whole, and no partial file is left
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "out.csv",
        "out.json",
        "plot_index_bars.csv",
        "plot_segments.csv",
    ]


def test_emit_report_stdout(capsys, cycles_report):
    assert emit_report(cycles_report, "json", None) == []
    assert capsys.readouterr().out == render_json(cycles_report)
    assert emit_report(cycles_report, "plotdata", None) == []
    out = capsys.readouterr().out
    assert out.startswith("# index_bars\n")
    assert "# segments\n" in out


def test_emit_report_rejects_unknown_format(cycles_report):
    with pytest.raises(ValueError, match="format"):
        emit_report(cycles_report, "yaml", None)


def _pairwise_panel(size):
    """Subject name -> subject of a seeded pairwise panel on five labels;
    names and labels need JSON escapes or are not ASCII."""
    return {
        f'pair "{k}" \u00e9': random_scf(
            k, PANEL_LABELS[:5], denominator_bound=20, domain_kind=DomainKind.PAIRWISE
        )
        for k in range(size)
    }


def test_json_report_streams_into_its_file(tmp_path):
    # 300 subjects make 44,850 verdicts and a report of about 6 MB
    table = {
        name: integer_rows({m: scf.menu_probs(m) for m in scf.menus()})
        for name, scf in _pairwise_panel(300).items()
    }
    report = run_analyze(ChoiceDataset(table))
    path = tmp_path / "report.json"
    tracemalloc.start()
    try:
        assert emit_report(report, "json", path) == [path]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < path.stat().st_size / 4
    assert path.read_text(encoding="utf-8") == render_json(report)


def test_json_report_on_stdout_has_the_bytes_of_the_file(tmp_path, capsys):
    data, out = tmp_path / "panel.csv", tmp_path / "report.json"
    rows = [
        row for name, scf in _pairwise_panel(40).items() for row in scf_to_rows(scf, name)
    ]
    write_dataset_csv(data, rows)
    assert main(["analyze", str(data), "--format", "json", "--out", str(out)]) == 0
    assert main(["analyze", str(data), "--format", "json"]) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def test_panel_report_has_expected_anchors():
    ds = parse_dataset(FIXTURES / "pairwise5_panel26.csv")
    report = run_analyze(ds)
    assert len(report.ok_subjects()) == 26
    by_subject = {entry.subject: entry for entry in report.ok_subjects()}
    assert by_subject["s01"].sets.maximally_rational
    assert by_subject["s02"].sets.maximally_rational
    assert str(by_subject["s03"].sets.union) == "(7/13,1]"
    assert str(by_subject["s04"].sets.union) == "(3/7,1]"
    edges = report.comparison.hasse_edges
    assert ("s01", "s03") in edges
    assert ("s03", "s04") in edges


# -- the JSON report against one json.dumps of the whole document -----------

# label pieces: JSON escapes, non-ASCII, DEL, line and paragraph separators,
# and text that looks like a splice marker or a piece of the report
_LABEL_PIECES = [
    "a", "b", "Z", "0", '"', "\\", "/", "\u00e9", "\u6f22", "\U0001f600",
    "\x7f", "\x00", "\x1f", " ", "\t", "\n", "\u00a0", "\u2028", "\u2029",
    "\x00comparisons\x00", "\x00VERDICTS\x00", '"verdicts": []', "},\n  {", "%s",
]
_labels = st.lists(st.sampled_from(_LABEL_PIECES), max_size=4).map("".join)
_HEAD_TO_HEAD = [Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4)]


def _pairwise_rows(labels, probs):
    """Pairwise rows over ``labels``: the first of each pair wins with the
    next probability of ``probs``."""
    pairs = [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
    return {
        frozenset((a, b)): {a: p, b: 1 - p} for (a, b), p in zip(pairs, probs)
    }


@st.composite
def _panels(draw):
    """A report over 0, 1, 2 or 30 analysed subjects with drawn labels and
    head-to-head rows from a few values (so several subjects share a set),
    with or without a subject over the universe cap."""
    count = draw(st.sampled_from([0, 1, 2, 30]))
    with_error = count == 0 or draw(st.booleans())
    size = count + with_error
    names = draw(st.lists(_labels, min_size=size, max_size=size, unique=True))
    draw_rows = st.lists(st.sampled_from(_HEAD_TO_HEAD), min_size=3, max_size=3)
    table = {name: _pairwise_rows("xyz", draw(draw_rows)) for name in names[:count]}
    if with_error:
        table[names[-1]] = _pairwise_rows("wxyz", [Fraction(1, 2)] * 6)
    table = {name: integer_rows(rows) for name, rows in table.items()}
    return run_analyze(ChoiceDataset(table), AnalysisConfig(max_universe=3))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_panels())
def test_render_json_matches_one_json_dumps_of_the_document(report):
    assert render_json(report) == oracles.report_json(report)


def test_render_json_of_a_panel_with_several_classes_matches_the_reference():
    report = run_analyze(parse_dataset(FIXTURES / "pairwise5_panel26.csv"))
    assert len(report.comparison.classes) > 3
    assert render_json(report) == oracles.report_json(report)


def test_render_json_with_an_empty_comparison():
    report = AnalysisReport(AnalysisConfig(), (), compare_many({}))
    text = render_json(report)
    assert '    "verdicts": [],\n    "equivalence_classes": [],\n' in text
    assert text == oracles.report_json(report)


def test_render_json_runs_no_pure_python_encoder(monkeypatch):
    table = {
        "ok": _pairwise_rows("xyz", _HEAD_TO_HEAD[:3]),
        "cycle": _pairwise_rows("xyz", _HEAD_TO_HEAD[1:]),
        "over the cap": _pairwise_rows("wxyz", [Fraction(1, 2)] * 6),
    }
    table = {name: integer_rows(rows) for name, rows in table.items()}
    reports = [
        run_analyze(ChoiceDataset(table), AnalysisConfig(max_universe=3, oracle=True)),
        run_analyze(parse_dataset(FIXTURES / "demo_full3.csv")),
        run_analyze(parse_dataset(FIXTURES / "pairwise5_panel26.csv")),
        AnalysisReport(AnalysisConfig(), (), compare_many({})),
    ]
    assert any(isinstance(e, SubjectError) for e in reports[0].subjects)
    expected = [oracles.report_json(report) for report in reports]

    def refuse(*args, **kwargs):
        raise AssertionError("the pure-Python JSON encoder ran")

    monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
    assert [render_json(report) for report in reports] == expected
