"""The benchmark's self-test and its layer tracer, run as part of the test suite.

``perfbench/selftest.py`` checks the benchmark's reference computations
against the documented fixture answers and closed forms, and shows that
single alterations of a real ``analyze`` report are flagged; it imports
nothing from stochrat except through the ``analyze`` command it runs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_selftest_passes():
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selftest.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr


def _traced_metrics(tmp_path, fixture):
    """The per-layer metrics of a traced ``analyze`` run on the fixture."""
    done = subprocess.run(
        [
            sys.executable,
            str(ROOT / "perfbench" / "layers.py"),
            "traced",
            str(ROOT / "fixtures" / fixture),
            str(tmp_path / "report.json"),
            str(tmp_path / "spans.json"),
        ],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout)
    assert result["exit"] == 0
    return result["metrics"]


def test_layer_tracer_attaches_to_the_analyze_path(tmp_path):
    # the tracer wraps every module binding of each traced function; a
    # binding it cannot see would leave that layer's time at zero
    metrics = _traced_metrics(tmp_path, "pairwise5_panel26.csv")
    assert metrics["report.render_json_s"] > 0
    assert metrics["measure.compare_many_s"] > 0
    assert metrics["measure.verdict_pairs"] == 325


def test_layer_tracer_attaches_to_the_full_domain_parts(tmp_path):
    # on a pairwise panel the contraction and pairwise-winner parts are
    # vacuous; the full-domain demo has two witnesses to find
    metrics = _traced_metrics(tmp_path, "demo_full3.csv")
    for layer in ("chernoff_set", "condorcet_set", "transitivity_set", "selectivity"):
        assert metrics[f"measure.{layer}_s"] > 0, layer
    assert metrics["measure.witnesses"] == 2
