"""Byte-identity gate for ``stochrat analyze`` JSON reports.

The hashes pin the exact bytes of each committed fixture's report, so a
refactor that changes any set, witness, flag, verdict or class shows up
here even when every semantic test still passes.  Update a hash only for
an intended change of the report, and say so in CHANGES.md.
"""

import hashlib

import pytest

from stochrat.cli import main

from conftest import FIXTURES

GOLDEN = {
    "demo_full3.csv": "8e12223f99a410311d9aa822b3201758a2fc0577b168a988088b85eade03a8dc",
    "pairwise_cycles.csv": "c8fcbe89e0e1e83b15c89669631e21782d57e8d45972872c84aad0b2de3635e6",
    "pairwise5_panel26.csv": "31dc216c87e6ab8fd1d16217af7728e3b4d07e3f50258d51a660171797811e4a",
}


@pytest.mark.parametrize("fixture", sorted(GOLDEN))
def test_analyze_json_report_is_byte_identical(fixture, tmp_path):
    out = tmp_path / "report.json"
    code = main(["analyze", str(FIXTURES / fixture), "--format", "json", "--out", str(out)])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[fixture]
