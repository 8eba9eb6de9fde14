"""Byte-identity gate for ``stochrat analyze`` reports.

The hashes pin the exact bytes of each committed fixture's report in every
output format, so a refactor that changes any set, witness, flag, verdict
or class shows up here even when every semantic test still passes.
``pairwise5_panel26.json`` is the CSV panel in the JSON dataset format, so
both ingest routes are pinned to the same bytes.  Update a hash only for an
intended change of the report, and say so in CHANGES.md.

``seeded_panel()`` (in ``conftest``) is a panel built in process from
seeded models over both domains; its reports are pinned the same way.

``wide_dataset()`` writes, with ``write_dataset_csv``, one full-domain file
of seeded models at n = 8 (Luce, a tremble, a random table, a two-stage
Luce with zero probabilities, and Luce with one flat pair, which has two
maximal intervals) and the four-alternative subject with zeros of
``test_measure``, and one pairwise file with a random table at n = 24.
``analyze`` in every format, ``--oracle analyze``, ``compare``, ``check``
and ``swap`` are pinned on them.  Two more files, a pairwise random table
at n = 32 and a full-domain mixture of three rankings at n = 6, have
``analyze`` pinned in every format, as do a full-domain file at n = 9 and a
pairwise file with a planted cycle at n = 24.  The n = 9 file holds a Luce
subject, which passes both selectivity checks, the mean of that Luce
subject and a tremble, which has no zero yet fails them, and a subject with
zeros: a maximizer on the menus that hold a and b, Luce elsewhere.  A
full-domain file at n = 10 holds ``luce_counts(10, 10)``, Luce written as
rounded counts, whose 44 maximal intervals each have a contraction witness;
its ``analyze`` json is pinned.

``MODEL_SPECS`` holds one model spec of each kind, at three or four
alternatives, with rational strings and JSON integers only; their
``stochrat model`` output is pinned the same way.
"""

import hashlib
import json

import pytest

from stochrat import (
    DomainKind,
    StochasticChoiceFunction,
    is_selective_in_contractions,
    is_selective_in_expansions,
    transitivity_set,
)
from stochrat.cli import main
from stochrat.dataset import (
    ChoiceDataset,
    parse_dataset,
    scf_to_rows,
    write_dataset_csv,
)
from stochrat.models import luce, random_scf, rum, tremble, two_stage_luce
from stochrat.report import (
    AnalysisConfig,
    SubjectError,
    render_csv,
    render_json,
    render_plotdata,
    run_analyze,
)

from conftest import FIXTURES, seeded_panel
from test_rank_core import luce_counts, planted_cycle

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

# command line, with FULL, PAIRWISE, PAIRWISE32, RUM6, FULL9, CYCLE24 and
# LUCE10 for the files of ``wide_dataset()`` -> SHA-256 of stdout; for plotdata, of the index bars
# followed by the segments
GOLDEN_WIDE = {
    "analyze FULL": "d167d5a1f1c0ed1faf22e6ac47b61ca25f5fac9096c4eb9653e75b6880611922",
    "analyze FULL --format csv": "a7acefe6abad281ffeeabab766bbc6e8c3b710aa294db2f692a60b2915d67951",
    "analyze FULL --format plotdata": "21870a85b4c85c11ea5527ebbce668ca6ea3cc910b91d13889614d64027840e9",
    "analyze PAIRWISE": "7345f7205cf62638ec6facd3f0a0591673865b8a60baa114c4f3aee9e1527137",
    "analyze PAIRWISE --format csv": "d26a344c064d1264e9c540005490877af98e1fb619c99b6fc69e168504f8e96c",
    "analyze PAIRWISE --format plotdata": "c9e8acc17d8ac257b78aba622c8f290f4f90ad29bac1df5880f21e369b2cc054",
    "--oracle analyze FULL": "c2f3f0c36173a38cf7b7ef34a9c9ef998cb4c4348f8027843d9b8290f7de8785",
    "compare FULL": "8a470b8963ad3a3c5cfaecab04d280da1d783eeaf0317983ee8ba9eec687f2de",
    "check FULL": "40165e8d9a8602f7273be0d9365d59424f5a5a64f6d5f15c2a65403d438a6eba",
    "swap FULL": "8450de92a4da804327a0a11bd0a588960f0ac1cef0a1b4aecb92224ce6203078",
    "analyze PAIRWISE32": "6ff26220f81199da1a3392061549335d8e5adafd7f280ea34d8721012604f7a9",
    "analyze PAIRWISE32 --format csv": "d26a344c064d1264e9c540005490877af98e1fb619c99b6fc69e168504f8e96c",
    "analyze PAIRWISE32 --format plotdata": "c9e8acc17d8ac257b78aba622c8f290f4f90ad29bac1df5880f21e369b2cc054",
    "analyze RUM6": "239f117c7a7fea86b274676ae98686973b231b764a2b080f02b8f86c0ca95ae0",
    "analyze RUM6 --format csv": "d608a2a3d37da5f4f6849134f9c9f05c658381b6572d63a9785e18bc11fcee44",
    "analyze RUM6 --format plotdata": "529666063798bcdfb72c14fabe90a0c46028cf901d116adcc97029978d1752ea",
    "analyze FULL9": "299f6a65293a6f22d97c2898a40f3b3c0e8bded800fe75a53e65e90f8239041d",
    "analyze FULL9 --format csv": "a665c2e6f919770669dddaefc4aa5bd9716a5aeab2524c24f62b6e11e99073b9",
    "analyze FULL9 --format plotdata": "cab4b97f532c57ec5da8dae7f9fbc669082bb30fee19f090958bd90170238a79",
    "analyze CYCLE24": "239d03fb0b6d7a275266209ac7a8208e0ee98197f8a9341e37051b2dbd7ae77d",
    "analyze CYCLE24 --format csv": "b25fcf013c312247839a3debd8abd8767880fac02ef1b37d1c26c17bc5502125",
    "analyze CYCLE24 --format plotdata": "8f2afe282f9bc3101fd6210ce3620b07e45941d76eea8fc87c9b0b4783088352",
    "analyze LUCE10": "551bdd365ed286d2ed6e786191d7fd408e5889eab30c572ebc5de27f3bd5ed9d",
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


@pytest.fixture(scope="module")
def wide_dataset(tmp_path_factory):
    """The full-domain files at n = 8, 9 and 10, the pairwise files at
    n = 24 and 32, the planted cycle at n = 24 and the ranking mixture at
    n = 6."""
    labels = tuple("abcdefgh")
    base = luce(dict(zip(labels, (20, 13, 12, 11, 10, 9, 8, 1))))
    flat = luce(dict.fromkeys(labels, 1))
    flat_pair = frozenset(("a", "h"))
    full = {
        "luce": luce(dict(zip(labels, range(1, 9)))),
        "tremble": tremble(dict(zip(labels, range(8, 0, -1))), "1/4"),
        "random": random_scf(8, labels, denominator_bound=9),
        "two-stage": two_stage_luce(
            dict(zip(labels, range(1, 9))), [("a", "b"), ("c", "d")]
        )[0],
        "flat pair": StochasticChoiceFunction(
            {m: (flat if m == flat_pair else base).menu_probs(m) for m in base.menus()},
        ),
        # contraction selectivity fails here, yet no one-element step does
        "zeros abxy": StochasticChoiceFunction(
            {
                "abxy": {"a": "7/20", "b": "7/20", "x": "1/5", "y": "1/10"},
                "axy": {"a": 1},
                "bxy": {"b": 1},
                "abx": {"a": "7/18", "b": "7/18", "x": "2/9"},
                "aby": {"a": "7/16", "b": "7/16", "y": "1/8"},
                "xy": {"x": "1/4", "y": "3/4"},
                "ax": {"a": 1},
                "ay": {"a": 1},
                "bx": {"b": 1},
                "by": {"b": 1},
                "ab": {"a": "1/2", "b": "1/2"},
            }
        ),
    }
    pairwise = random_scf(
        24, [f"p{i:02d}" for i in range(24)], domain_kind=DomainKind.PAIRWISE
    )
    pairwise32 = random_scf(
        32, [f"q{i:02d}" for i in range(32)], domain_kind=DomainKind.PAIRWISE
    )
    mixture = rum(
        [
            (dict(zip(labels[:6], (6, 5, 4, 3, 2, 1))), "1/2"),
            (dict(zip(labels[:6], (2, 6, 1, 5, 4, 3))), "1/3"),
            (dict(zip(labels[:6], (1, 2, 3, 4, 6, 5))), "1/6"),
        ]
    )
    labels9 = tuple("abcdefghi")
    luce9 = luce(dict(zip(labels9, (9, 14, 2, 30, 7, 11, 5, 21, 3))))
    tremble9 = tremble(dict(zip(labels9, range(9, 0, -1))), "1/3")
    maximizer9 = tremble(dict(zip(labels9, range(9, 0, -1))), 1)
    top = frozenset("ab")
    full9 = {
        "luce": luce9,
        "noisy luce": StochasticChoiceFunction(
            {
                m: {x: (p + tremble9.prob(x, m)) / 2 for x, p in luce9.menu_probs(m).items()}
                for m in luce9.menus()
            },
        ),
        "zeros": StochasticChoiceFunction(
            {m: (maximizer9 if top <= m else luce9).menu_probs(m) for m in luce9.menus()},
        ),
    }
    folder = tmp_path_factory.mktemp("wide")
    files = {
        "FULL": folder / "full8.csv",
        "PAIRWISE": folder / "pairwise24.csv",
        "PAIRWISE32": folder / "pairwise32.csv",
        "RUM6": folder / "rum6.csv",
        "FULL9": folder / "full9.csv",
        "CYCLE24": folder / "cycle24.csv",
        "LUCE10": folder / "luce10.csv",
    }
    rows = [row for name, scf in full.items() for row in scf_to_rows(scf, name)]
    write_dataset_csv(files["FULL"], rows)
    write_dataset_csv(files["PAIRWISE"], scf_to_rows(pairwise, "random"))
    write_dataset_csv(files["PAIRWISE32"], scf_to_rows(pairwise32, "random"))
    write_dataset_csv(files["RUM6"], scf_to_rows(mixture, "rum"))
    rows = [row for name, scf in full9.items() for row in scf_to_rows(scf, name)]
    write_dataset_csv(files["FULL9"], rows)
    write_dataset_csv(files["CYCLE24"], scf_to_rows(planted_cycle(24, 24), "cycle"))
    write_dataset_csv(files["LUCE10"], scf_to_rows(luce_counts(10, 10), "luce"))
    return files


@pytest.mark.parametrize("command", sorted(GOLDEN_WIDE))
def test_wide_dataset_outputs_are_byte_identical(
    command, wide_dataset, tmp_path, capsys
):
    args = [str(wide_dataset.get(word, word)) for word in command.split()]
    if "plotdata" in args:
        args += ["--out", str(tmp_path / "report.csv")]
    assert main(args) == 0
    out = capsys.readouterr().out.encode("utf-8")
    if "plotdata" in args:
        out = b"".join(
            (tmp_path / name).read_bytes()
            for name in ("report_index_bars.csv", "report_segments.csv")
        )
    assert hashlib.sha256(out).hexdigest() == GOLDEN_WIDE[command]


def test_wide_files_reach_both_selectivity_routes_and_a_cycle(wide_dataset):
    full9 = parse_dataset(wide_dataset["FULL9"])
    flags = {}
    for subject in full9.subject_ids():
        scf = full9.scf(subject)
        flags[subject] = (
            any(scf.support(menu) != menu for menu in scf.menus()),
            is_selective_in_contractions(scf),
            is_selective_in_expansions(scf),
        )
    assert flags == {
        "luce": (False, True, True),
        "noisy luce": (False, False, False),
        "zeros": (True, False, False),
    }
    cycle = parse_dataset(wide_dataset["CYCLE24"]).scf("cycle")
    assert not transitivity_set(cycle).is_empty
    assert transitivity_set(cycle).measure() < 1
