"""End-to-end command line behavior: output text, files, exit codes."""

import itertools
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import stochrat
from stochrat import measure
from stochrat.cli import main
from stochrat.dataset import parse_dataset
from stochrat.intervals import IntervalUnion
from stochrat.models import mum_response_table
from stochrat.rationals import RATIONAL_TEXT_CAP

from conftest import FIXTURES

DEMO = str(FIXTURES / "demo_full3.csv")
CYCLES = str(FIXTURES / "pairwise_cycles.csv")
PANEL = str(FIXTURES / "pairwise5_panel26.csv")
SRC = Path(stochrat.__file__).resolve().parent.parent


def checkout_env(bin_dir=None):
    """Environment that imports stochrat from this checkout's ``src``,
    with ``bin_dir`` (if given) first on ``PATH``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    if bin_dir is not None:
        env["PATH"] = os.pathsep.join([str(bin_dir), env.get("PATH", "")])
    return env


def console_script_target(pyproject: Path, name: str) -> str:
    """The ``module:function`` target of console script ``name``: its
    ``name = "..."`` line in the ``[project.scripts]`` table of
    ``pyproject``.  Read line by line, since ``tomllib`` is new in Python
    3.11 and the package supports 3.10."""
    table = None
    for line in pyproject.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line.startswith("["):
            table = line
        elif table == "[project.scripts]":
            key, eq, value = line.partition("=")
            if eq and key.strip() == name:
                return json.loads(value)
    raise LookupError(f"no console script {name!r} in {pyproject}")


def test_console_script_target_is_read_from_the_scripts_table(tmp_path):
    assert console_script_target(SRC.parent / "pyproject.toml", "stochrat") == (
        "stochrat.cli:main"
    )
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text(
        '[project]\nstochrat = "elsewhere:main"\n\n'
        '[project.scripts]\nother = "other:main"\n  stochrat  =  "pkg.cli:run"\n\n'
        '[tool.x]\nstochrat = "tool:main"\n',
        encoding="utf-8",
    )
    assert console_script_target(pyproject, "stochrat") == "pkg.cli:run"
    with pytest.raises(LookupError, match="no console script 'absent'"):
        console_script_target(pyproject, "absent")


@pytest.fixture
def console_script_env(tmp_path):
    """Write the ``stochrat`` console script declared in this checkout's
    ``pyproject.toml`` the way an installer does, and return an environment
    that runs it by that name."""
    target = console_script_target(SRC.parent / "pyproject.toml", "stochrat")
    module, _, attr = target.partition(":")
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    script = bin_dir / "stochrat"
    script.write_text(
        f"#!{sys.executable}\n"
        "import sys\n"
        f"from {module} import {attr}\n"
        f"sys.exit({attr}())\n",
        encoding="utf-8",
    )
    script.chmod(0o755)
    return checkout_env(bin_dir)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err



@pytest.mark.parametrize("name", ["pairwise5_panel26.csv", "pairwise5_panel26.json"])
def test_byte_order_mark_is_skipped(capsys, tmp_path, name):
    # spreadsheet programs save "CSV UTF-8" with a BOM in front
    plain = FIXTURES / name
    marked = tmp_path / name
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    want, got = parse_dataset(plain), parse_dataset(marked)
    assert got.subject_ids() == want.subject_ids()
    assert all(got.scf(s) == want.scf(s) for s in want.subject_ids())
    outputs = [run_cli(capsys, "analyze", str(path)) for path in (plain, marked)]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0

def test_analyze_json_stdout(capsys):
    code, out, err = run_cli(capsys, "analyze", DEMO)
    assert code == 0
    assert err == ""
    doc = json.loads(out)
    assert doc["schema_version"] == 1
    assert doc["subjects"][0]["rationality_index"]["exact"] == "5/12"


def test_analyze_csv_to_file(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(capsys, "analyze", DEMO, "--format", "csv", "--out", str(out_path))
    assert code == 0
    assert out == ""
    lines = out_path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("subject,status,rationality_index")
    assert lines[1].startswith("s1,ok,0.416667,")


def test_analyze_plotdata_files(capsys, tmp_path):
    out_path = tmp_path / "plot.csv"
    code, _, _ = run_cli(
        capsys, "analyze", PANEL, "--format", "plotdata", "--out", str(out_path)
    )
    assert code == 0
    bars = (tmp_path / "plot_index_bars.csv").read_text(encoding="utf-8")
    segments = (tmp_path / "plot_segments.csv").read_text(encoding="utf-8")
    assert bars.splitlines()[0] == "subject,rationality_index"
    assert len(bars.splitlines()) == 27
    assert segments.splitlines()[0] == "subject,lo,hi,lo_decimal,hi_decimal"


def test_analyze_oracle_flag(capsys):
    code, out, _ = run_cli(capsys, "--oracle", "analyze", DEMO)
    assert code == 0
    assert json.loads(out)["settings"]["oracle"] is True


def test_compare_output(capsys):
    code, out, _ = run_cli(capsys, "compare", CYCLES)
    assert code == 0
    assert out.splitlines() == [
        "cyc07 vs cyc23: RightMoreRational",
        "class: cyc07",
        "class: cyc23",
        "edge: cyc23 -> cyc07",
    ]


def test_model_tremble(capsys):
    code, out, _ = run_cli(capsys, "model", str(FIXTURES / "model_tremble.json"))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "model kind: tremble"
    assert "irrationality set: (1/4,1/3]" in lines
    assert "rationality index: 11/12 (0.916667)" in lines
    assert "triangular condition: PASS" in lines


def test_model_general_luce_minimal(capsys):
    code, out, _ = run_cli(capsys, "model", str(FIXTURES / "model_general_luce.json"))
    assert code == 0
    assert "irrationality set: (0,1]" in out
    assert "minimally rational: yes" in out
    assert "rationality index: 0 (0.000000)" in out


def test_model_emit_dataset_round_trip(capsys, tmp_path):
    out_path = tmp_path / "tremble.csv"
    code, out, _ = run_cli(
        capsys,
        "model",
        str(FIXTURES / "model_tremble.json"),
        "--emit-dataset",
        str(out_path),
    )
    assert code == 0
    assert f"dataset written: {out_path}" in out
    ds = parse_dataset(out_path)
    assert ds.subject_ids() == ["model"]
    code, round_trip, _ = run_cli(capsys, "analyze", str(out_path))
    subject = json.loads(round_trip)["subjects"][0]
    assert subject["sets"]["irrationality"] == [["1/4", "1/3"]]


def test_model_random_seed_reproducible(capsys, tmp_path):
    spec = tmp_path / "random.json"
    spec.write_text(
        json.dumps(
            {
                "kind": "random",
                "universe": ["a", "b", "c"],
                "denominator_bound": 12,
                "domain": "full",
            }
        ),
        encoding="utf-8",
    )
    first = run_cli(capsys, "--seed", "7", "model", str(spec))
    second = run_cli(capsys, "--seed", "7", "model", str(spec))
    other = run_cli(capsys, "--seed", "8", "model", str(spec))
    assert first == second
    assert first[0] == other[0] == 0
    assert first[1] != other[1]


UTILITY = {"a": "3", "b": "2", "c": "1"}


@pytest.mark.parametrize(
    "spec,field",
    [
        ({"kind": "tremble", "utility": UTILITY}, "lacks field 'alpha'"),
        (
            {"kind": "general_luce", "utility": UTILITY,
             "consideration": [{"menu": ["a", "b"]}]},
            "consideration[0] lacks field 'allowed'",
        ),
        (
            {"kind": "random", "universe": ["a", "b", "c"], "denominator_bound": None},
            "field 'denominator_bound' must be an integer, got None",
        ),
        (
            {"kind": "drum", "first": UTILITY, "second": UTILITY, "weights": ["a"]},
            "weights[0] must be an object",
        ),
    ],
    ids=["tremble-alpha", "consideration-allowed", "null-denominator-bound", "weights-entry"],
)
def test_bad_model_spec_exits_2(capsys, tmp_path, spec, field):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")
    code, out, err = run_cli(capsys, "model", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {path}: ") and field in err


def test_max_universe_replaces_both_domain_caps(capsys):
    code, out, _ = run_cli(capsys, "--max-universe", "4", "analyze", PANEL, "--format", "csv")
    assert code == 0
    rows = out.splitlines()[1:]
    assert len(rows) == 26
    assert all(row.split(",")[1] == "error:capacity" for row in rows)
    with pytest.raises(SystemExit):
        main(["--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "12 alternatives on the full domain, 64 on the pairwise domain" in help_text


def test_lambda_rational_threshold(capsys):
    code, out, _ = run_cli(capsys, "lambda", DEMO, "--subject", "s1", "--lambda", "1/2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "subject: s1, threshold: 1/2"
    assert "  {x,y,z} -> {x,z}" in lines
    assert lines[-1] == "lambda-rational: yes"


def test_lambda_condorcet_violation(capsys):
    code, out, _ = run_cli(capsys, "lambda", DEMO, "--subject", "s1", "--lambda", "1/5")
    assert code == 0
    assert "not lambda-rational: pairwise-winner violation at ({x,y,z}, y)" in out


def test_lambda_multiple_violations(capsys):
    code, out, _ = run_cli(capsys, "lambda", DEMO, "--subject", "s1", "--lambda", "1")
    assert code == 0
    lines = out.splitlines()
    assert "not lambda-rational: contraction violation at ({x,z} in {x,y,z}, x)" in lines
    assert "not lambda-rational: cycle violation at (x,y,z)" in lines


def test_check_output(capsys):
    code, out, _ = run_cli(capsys, "check", CYCLES)
    assert code == 0
    lines = out.splitlines()
    assert "subject: cyc07" in lines
    assert "  triangular condition: FAIL (x,y,z)" in lines
    assert "  triangular condition: PASS" in lines
    assert (
        "  s-transitivity: weak=no almost-weak=no moderate=no "
        "almost-moderate=no strong=no" in lines
    )


def test_swap_output(capsys):
    code, out, _ = run_cli(capsys, "swap", CYCLES)
    assert code == 0
    assert out.splitlines() == [
        "cyc07: swap index 13/10 (1.300000), order x > y > z, optimal orders 3",
        "cyc23: swap index 4/3 (1.333333), order x > y > z, optimal orders 3",
    ]


def test_missing_file_exits_2(capsys):
    code, out, err = run_cli(capsys, "analyze", "no_such_file.csv")
    assert code == 2
    assert err.startswith("error:")


def test_malformed_data_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        "subject,menu,alternative,count,prob\ns,x|y,x,,3/4\ns,x|y,y,,3/4\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert "error:" in err


def test_oversized_rational_cell_exits_2(capsys, tmp_path):
    huge = tmp_path / "huge.csv"
    huge.write_text(
        "subject,menu,alternative,prob\ns,x|y,x,1e-1000000\ns,x|y,y,1\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", str(huge))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "exponent" in err


@pytest.mark.parametrize(
    "cell,detail",
    [
        ("abc", "not a rational number: 'abc'"),
        ("1e-1000000", "exponent"),
    ],
)
def test_bad_rational_cell_names_its_row(capsys, tmp_path, cell, detail):
    bad = tmp_path / "bad.csv"
    bad.write_text(
        f"subject,menu,alternative,prob\ns,x|y,x,{cell}\ns,x|y,y,1\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad.csv:2: ") and detail in err


def test_bad_rational_json_cell_names_its_observation(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    observations = [
        {"menu": ["x", "y"], "alternative": "x", "prob": "1/2"},
        {"menu": ["x", "y"], "alternative": "y", "prob": "abc"},
    ]
    bad.write_text(
        json.dumps({"subjects": [{"subject": "s", "observations": observations}]}),
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert err.startswith("error: bad.json: subjects[0].observations[1]: not a rational")


def test_oversized_count_cell_names_its_row_and_the_cap(capsys, tmp_path):
    # 5000 digits: past the interpreter's integer-string limit as well
    bad = tmp_path / "bad.csv"
    bad.write_text(
        f"subject,menu,alternative,count\ns,x|y,x,3\ns,x|y,y,{'1' * 5000}\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad.csv:3: count '11111111111111111111…' ")
    assert f"of 5000 characters exceeds the cap of {RATIONAL_TEXT_CAP}" in err
    assert len(err) < 200


@pytest.mark.parametrize("quoted", [False, True])
def test_oversized_json_count_names_its_observation(capsys, tmp_path, quoted):
    digits = "1" * 5000
    cell = f'"{digits}"' if quoted else digits
    observations = (
        '{"menu": ["x", "y"], "alternative": "x", "count": 3}, '
        f'{{"menu": ["x", "y"], "alternative": "y", "count": {cell}}}'
    )
    bad = tmp_path / "bad.json"
    bad.write_text(
        f'{{"subjects": [{{"subject": "s", "observations": [{observations}]}}]}}',
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: bad.json: subjects[0].observations[1]: count '1111")
    assert f"exceeds the cap of {RATIONAL_TEXT_CAP}" in err
    assert len(err) < 200


def test_json_label_with_pipe_exits_2(capsys, tmp_path):
    bad = tmp_path / "pipe.json"
    observations = [
        {"menu": ["a|b", "c"], "alternative": "c", "count": 1},
        {"menu": ["a|b", "c"], "alternative": "a|b", "count": 1},
    ]
    bad.write_text(
        json.dumps({"subjects": [{"subject": "s", "observations": observations}]}),
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "analyze", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("error: pipe.json: subjects[0].observations[0]: label 'a|b'")


def test_bad_threshold_exits_2(capsys):
    code, _, err = run_cli(capsys, "lambda", DEMO, "--subject", "s1", "--lambda", "3/2")
    assert code == 2
    assert "error:" in err


def test_unknown_subject_exits_2(capsys):
    code, _, err = run_cli(capsys, "lambda", DEMO, "--subject", "nobody", "--lambda", "1/2")
    assert code == 2
    assert "error:" in err


def test_capacity_exits_3(capsys):
    code, _, err = run_cli(capsys, "--max-universe", "2", "compare", DEMO)
    assert code == 3
    assert err.startswith("capacity error:")


def test_oracle_mismatch_exits_4(capsys, monkeypatch):
    monkeypatch.setattr(measure, "transitivity_set", lambda scf: IntervalUnion.empty())
    code, out, err = run_cli(capsys, "--oracle", "analyze", CYCLES)
    assert code == 4
    assert out == ""
    assert err == (
        "oracle mismatch: subject cyc07, cycle set and axiom checking "
        "disagree at 1\n"
    )


def test_oracle_rejects_an_endpoint_between_cuts(capsys, monkeypatch):
    # cyc07's cycle part is (3/7,1] and its cuts are 3/7 and 1.  The part
    # (1/2,1] agrees with axiom checking at both cuts and at the midpoint
    # 5/7, yet claims no cycle on (3/7,1/2].
    half = IntervalUnion.single(Fraction(1, 2), Fraction(1))
    monkeypatch.setattr(measure, "transitivity_set", lambda scf: half)
    code, out, err = run_cli(capsys, "--oracle", "analyze", CYCLES)
    assert code == 4
    assert out == ""
    assert err == (
        "oracle mismatch: subject cyc07, cycle set has endpoint 1/2, "
        "which is neither 0 nor a cut\n"
    )


def test_analyze_json_does_not_depend_on_the_hash_seed():
    outputs = [
        subprocess.run(
            [sys.executable, "-m", "stochrat.cli", "analyze", PANEL, "--format", "json"],
            capture_output=True,
            check=True,
            timeout=60,
            env=dict(checkout_env(), PYTHONHASHSEED=seed),
        ).stdout
        for seed in ("1", "2")
    ]
    assert outputs[0] == outputs[1]
    assert len(json.loads(outputs[0])["subjects"]) == 26


@pytest.mark.parametrize(
    "kind",
    [
        "luce",
        "general_luce",
        "two_stage_luce",
        "uniform_drum",
        "drum",
        "rum",
        "tremble",
        "mum",
        "random",
    ],
)
def test_model_spec_above_the_cap_exits_3_before_building_menus(tmp_path, kind):
    domain, cap = ("pairwise", 64) if kind == "mum" else ("full", 12)
    labels = [f"a{i:02d}" for i in range(cap + 1 if kind == "mum" else 40)]
    utility = {x: str(i + 1) for i, x in enumerate(labels)}
    if kind == "mum":
        # complete and valid, so that only the cap refuses it
        differences = range(1 - len(labels), len(labels))
        spec = {
            "utility": utility,
            "metric": [
                {"pair": list(pair), "distance": "1"}
                for pair in itertools.combinations(labels, 2)
            ],
            "response": [
                {"arg": str(arg), "value": str(value)}
                for arg, value in mum_response_table(differences).items()
            ],
        }
    else:
        spec = {
            "luce": {"utility": utility},
            "general_luce": {
                "utility": utility,
                "consideration": [{"menu": ["a00", "a01", "a02"], "allowed": ["a00"]}],
            },
            "two_stage_luce": {"utility": utility, "dominance": [["a01", "a00"]]},
            "uniform_drum": {"first": utility, "second": utility, "weight": "1/2"},
            "drum": {"first": utility, "second": utility, "weights": []},
            "rum": {"components": [{"utility": utility, "weight": "1"}]},
            "tremble": {"utility": utility, "alpha": "1/2"},
            "random": {"universe": labels, "seed": 1},
        }[kind]
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"kind": kind, **spec}), encoding="utf-8")
    # the full domain over 40 labels has 2**40 menus: only a check made
    # before the first menu is built can answer within the timeout
    result = subprocess.run(
        [sys.executable, "-m", "stochrat.cli", "model", str(path)],
        capture_output=True,
        text=True,
        timeout=10,
        env=checkout_env(),
    )
    assert result.returncode == 3
    assert result.stderr == (
        f"capacity error: universe of {len(labels)} alternatives exceeds the "
        f"{domain}-domain cap of {cap}\n"
    )


def test_analyze_isolates_capacity_per_subject(capsys, tmp_path):
    data = tmp_path / "mixed.csv"
    data.write_text(
        "subject,menu,alternative,count,prob\n"
        "small,x|y,x,,1/2\n"
        "small,x|y,y,,1/2\n"
        "big,a|b,a,,1/2\n"
        "big,a|b,b,,1/2\n"
        "big,a|c,a,,1/2\n"
        "big,a|c,c,,1/2\n"
        "big,b|c,b,,1/2\n"
        "big,b|c,c,,1/2\n"
        "big,a|d,a,,1/2\n"
        "big,a|d,d,,1/2\n"
        "big,b|d,b,,1/2\n"
        "big,b|d,d,,1/2\n"
        "big,c|d,c,,1/2\n"
        "big,c|d,d,,1/2\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "--max-universe", "3", "analyze", str(data))
    assert code == 0
    doc = json.loads(out)
    statuses = {s["subject"]: s["status"] for s in doc["subjects"]}
    assert statuses == {"big": "error", "small": "ok"}


def test_entry_point_installed(console_script_env):
    result = subprocess.run(
        ["stochrat", "--help"],
        capture_output=True,
        text=True,
        check=False,
        env=console_script_env,
    )
    assert result.returncode == 0
    for command in ["analyze", "compare", "model", "lambda", "check", "swap"]:
        assert command in result.stdout


def test_entry_point_runs_analysis(console_script_env):
    result = subprocess.run(
        ["stochrat", "analyze", DEMO, "--format", "csv"],
        capture_output=True,
        text=True,
        check=False,
        env=console_script_env,
    )
    assert result.returncode == 0
    assert result.stdout.splitlines()[1].startswith("s1,ok,0.416667,")


def test_module_help_matches_entry_point(console_script_env):
    def help_text(argv):
        return subprocess.run(
            argv + ["--help"],
            capture_output=True,
            text=True,
            check=True,
            env=console_script_env,
        ).stdout

    assert help_text([sys.executable, "-m", "stochrat"]) == help_text(["stochrat"])


def test_usage_error_exits_2():
    result = subprocess.run(
        [sys.executable, "-c", "from stochrat.cli import main; raise SystemExit(main(['analyze']))"],
        capture_output=True,
        text=True,
        check=False,
        env=checkout_env(),
    )
    assert result.returncode == 2
