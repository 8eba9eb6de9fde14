"""Seeded hostile-input fuzz through the command line, in process.

Mutated copies of the fixtures (datasets and model specs) and small
generated datasets run under every command.  Each run must exit 0, 2 or 3;
exit 2 or 3 comes with an ``error:`` or ``capacity error:`` message and no
traceback, and ``--oracle`` never reports a mismatch (exit 4).  The inputs
come from ``SplitMix64``, so a failing case reruns from its seed alone.
"""

import itertools

import pytest

from stochrat import SplitMix64
from stochrat.cli import main

from conftest import FIXTURES

# fixture -> a subject it holds, for ``lambda``
DATASETS = {
    "demo_full3.csv": "s1",
    "pairwise_cycles.csv": "cyc07",
    "pairwise5_panel26.csv": "s01",
    "pairwise5_panel26.json": "s01",
}
SPECS = ("model_general_luce.json", "model_rum_cycle.json", "model_tremble.json")
# characters an edit inserts: separators of both formats, digits, signs,
# quotes, brackets, a space, a newline and a non-ASCII letter
INSERTED = ',|/.-+e0123456789"[]{}: \né'
LABELS = ("a", "b", "c d", "é", "x1", "Ω")


def pick(rng, items):
    return items[rng.below(len(items))]


def mutate(text, rng):
    """``text`` after one to three random edits: a character inserted or
    deleted, a line duplicated, or a run of lines shuffled."""
    for _ in range(1 + rng.below(3)):
        edit = rng.below(4)
        at = rng.below(len(text) + 1)
        if edit == 0:
            text = text[:at] + pick(rng, INSERTED) + text[at:]
        elif edit == 1:
            text = text[:at] + text[at + 1 :]
        else:
            lines = text.split("\n")
            i = rng.below(len(lines))
            if edit == 2:
                lines.insert(i, lines[i])
            else:
                j = i + 2 + rng.below(len(lines))
                run = lines[i:j]
                rng.shuffle(run)
                lines[i:j] = run
            text = "\n".join(lines)
    return text


def count_text(rng):
    """A count: now and then zero, usually small, sometimes of up to 30
    digits."""
    kind = rng.below(10)
    if kind < 1:
        return "0"
    if kind < 9:
        return str(rng.below(12))
    return str(rng.below(10 ** (1 + rng.below(30))))


def cells(rng, size):
    """One menu's cells as (count, prob) texts: counts, or probabilities
    written as p/q or as decimal text."""
    if rng.below(2):
        return [(count_text(rng), "") for _ in range(size)]
    weights = [rng.below(5) for _ in range(size - 1)] + [1 + rng.below(4)]
    total = sum(weights)
    if rng.below(3):
        return [("", f"{w}/{total}") for w in weights]
    return [("", repr(w / total)) for w in weights]


def small_dataset(rng):
    """CSV text of one or two subjects over n = 2..6 labels, on the full or
    the pairwise domain, with now and then a menu or a row left out."""
    n = 2 + rng.below(5)
    labels = list(LABELS)
    rng.shuffle(labels)
    labels = sorted(labels[:n])
    full = n >= 3 and rng.below(2)
    sizes = range(2, n + 1) if full else (2,)
    lines = ["subject,menu,alternative,count,prob"]
    subjects = ["s1", "s 2"][: 1 + rng.below(2)]
    for subject in subjects:
        for size in sizes:
            for menu in itertools.combinations(labels, size):
                if rng.below(60) == 0:
                    continue
                for x, (count, prob) in zip(menu, cells(rng, size)):
                    if rng.below(60):
                        lines.append(f"{subject},{'|'.join(menu)},{x},{count},{prob}")
    return "\n".join(lines) + "\n", subjects[0]


def run(capsys, *argv):
    code = main(list(argv))
    err = capsys.readouterr().err
    assert code in (0, 2, 3), (argv, code, err)
    if code:
        assert err.startswith(("error: ", "capacity error: ")), (argv, err)
        assert "Traceback" not in err, (argv, err)


def run_data_commands(capsys, path, subject):
    for command in (
        ["analyze", path],
        ["--oracle", "analyze", path],
        ["analyze", path, "--format", "csv"],
        ["--max-universe", "4", "compare", path],
        ["check", path],
        ["swap", path],
        ["lambda", path, "--subject", subject, "--lambda", "1/2"],
    ):
        run(capsys, *command)


@pytest.mark.parametrize("seed", range(32))
def test_mutated_fixtures_fail_cleanly(capsys, tmp_path, seed):
    rng = SplitMix64(4100 + seed)
    name = pick(rng, sorted(DATASETS))
    path = tmp_path / name
    text = mutate((FIXTURES / name).read_text(encoding="utf-8"), rng)
    path.write_text(text, encoding="utf-8")
    run_data_commands(capsys, str(path), DATASETS[name])
    spec = tmp_path / "spec.json"
    text = (FIXTURES / pick(rng, SPECS)).read_text(encoding="utf-8")
    spec.write_text(mutate(text, rng), encoding="utf-8")
    run(capsys, "model", str(spec))
    run(capsys, "--oracle", "model", str(spec))


@pytest.mark.parametrize("seed", range(48))
def test_small_generated_datasets_fail_cleanly(capsys, tmp_path, seed):
    text, subject = small_dataset(SplitMix64(5200 + seed))
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    run_data_commands(capsys, str(path), subject)
