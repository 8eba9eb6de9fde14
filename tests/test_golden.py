"""Byte-identity gate for ``stochrat analyze`` reports.

The hashes pin the exact bytes of each committed fixture's report in every
output format, so a refactor that changes any set, witness, flag, verdict
or class shows up here even when every semantic test still passes.
``pairwise5_panel26.json`` is the CSV panel in the JSON dataset format, so
both ingest routes are pinned to the same bytes.  Update a hash only for an
intended change of the report, and say so in CHANGES.md.
"""

import hashlib

import pytest

from stochrat.cli import main

from conftest import FIXTURES

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
