#!/usr/bin/env python3
"""Regenerate fixtures/pairwise5_panel26.csv.

A synthetic pairwise-choice panel shaped like a classic repeated binary
choice experiment: 26 subjects, 5 gambles, every pair presented 20 times.
The first four subjects are hand-built anchors:

* s01 flips a fair coin on every pair (maximally rational),
* s02 follows a fixed ranking with a 16/4 split (strongly transitive),
* s03 carries a mild 13/7 cycle on the first three gambles,
* s04 carries a harder 14/6 cycle, nested strictly inside s03's
  irrationality interval so the comparison order is never trivial.

The remaining 22 subjects draw their winner counts from SplitMix64 with a
fixed seed, so the file is reproducible byte for byte.

The same panel in the JSON dataset format (fixtures/pairwise5_panel26.json)
is written when the output path ends in ``.json``.

Usage: python3 scripts/make_panel_fixture.py [out.csv | out.json]
"""

import itertools
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from stochrat import SplitMix64

GAMBLES = ["g1", "g2", "g3", "g4", "g5"]
TRIALS = 20
SEED = 26052
CYCLE = {("g1", "g2"), ("g2", "g3"), ("g3", "g1")}


def anchor_counts(subject: str, a: str, b: str) -> tuple[int, int]:
    if subject == "s01":
        return 10, 10
    if subject == "s02":
        return (16, 4) if a < b else (4, 16)
    wins = {"s03": 13, "s04": 14}[subject]
    if (a, b) in CYCLE:
        return wins, TRIALS - wins
    if (b, a) in CYCLE:
        return TRIALS - wins, wins
    return (wins, TRIALS - wins) if a < b else (TRIALS - wins, wins)


def rows() -> list[tuple[str, str, str, int]]:
    gen = SplitMix64(SEED)
    out = []
    for index in range(1, 27):
        subject = f"s{index:02d}"
        for a, b in itertools.combinations(GAMBLES, 2):
            if index <= 4:
                wins_a, wins_b = anchor_counts(subject, a, b)
            else:
                wins_a = gen.below(TRIALS + 1)
                wins_b = TRIALS - wins_a
            out.append((subject, f"{a}|{b}", a, wins_a))
            out.append((subject, f"{a}|{b}", b, wins_b))
    return out


def json_document(data: list[tuple[str, str, str, int]]) -> str:
    """The rows as a ``{"subjects": [...]}`` document, one observation per
    line, subjects in the order of their first row."""
    by_subject: dict[str, list[str]] = {}
    for subject, menu, alternative, count in data:
        observation = {
            "menu": menu.split("|"),
            "alternative": alternative,
            "count": count,
        }
        by_subject.setdefault(subject, []).append(json.dumps(observation))
    blocks = []
    for subject, observations in by_subject.items():
        body = ",\n    ".join(observations)
        blocks.append(
            f'  {{"subject": {json.dumps(subject)}, "observations": [\n    {body}\n  ]}}'
        )
    return '{"subjects": [\n' + ",\n".join(blocks) + "\n]}\n"


def main() -> None:
    target = Path(sys.argv[1]) if len(sys.argv) > 1 else (
        Path(__file__).resolve().parent.parent / "fixtures" / "pairwise5_panel26.csv"
    )
    data = rows()
    if target.suffix == ".json":
        text = json_document(data)
    else:
        lines = ["subject,menu,alternative,count,prob"]
        for subject, menu, alternative, count in data:
            lines.append(f"{subject},{menu},{alternative},{count},")
        text = "\n".join(lines) + "\n"
    target.write_text(text, encoding="utf-8")
    print(f"wrote {target} ({len(data)} rows)")


if __name__ == "__main__":
    main()
