"""Self-test of the benchmark's reference code and report checks.

Usage (from the repository root): python3 perfbench/selftest.py

1. The reference reproduces the answers documented for the repository's
   fixtures: ``demo_full3.csv`` gives (1/6,1/4] u (1/2,1] with index 5/12,
   ``pairwise_cycles.csv`` gives (1/2,1] for cyc23 and (3/7,1] for cyc07, and
   ``pairwise5_panel26.csv`` gives an empty set for s01, (7/13,1] for s03
   and (3/7,1] for s04.
2. On small generated subjects of every kind, the reference's two routes
   (candidate intervals, and the axioms tested region by region) agree,
   and the closed forms hold.
3. A real ``stochrat analyze`` report of a mixed dataset passes every
   check, and each single alteration of it (an interval endpoint, a
   verdict, a cover edge, a witness, the index, a flag) is flagged on the
   subject it touches.

Exits 1 and lists the failures if any step fails.
"""

from __future__ import annotations

import copy
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import gen
from check import check_report
from reference import (
    AXIOMS,
    DEMO_SET,
    Reference,
    load_csv,
    tremble_set,
    two_ranking_set,
)

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
F = Fraction

failures: list[str] = []


def expect(condition: bool, message: str) -> None:
    if not condition:
        failures.append(message)


def reference_union(ref: Reference):
    return ref.exact_sets()["irrationality"]


def fixture_answers() -> None:
    documented = {
        ("demo_full3.csv", "s1"): DEMO_SET,
        ("pairwise_cycles.csv", "cyc23"): ((F(1, 2), F(1)),),
        ("pairwise_cycles.csv", "cyc07"): ((F(3, 7), F(1)),),
        ("pairwise5_panel26.csv", "s01"): (),
        ("pairwise5_panel26.csv", "s03"): ((F(7, 13), F(1)),),
        ("pairwise5_panel26.csv", "s04"): ((F(3, 7), F(1)),),
    }
    loaded = {name: {s.name: s for s in load_csv(FIXTURES / name)} for name, _ in documented}
    for (name, subject), expected in documented.items():
        union = reference_union(Reference(loaded[name][subject]))
        expect(union == expected, f"{name} {subject}: reference gives {union}")
    demo = reference_union(Reference(loaded["demo_full3.csv"]["s1"]))
    index = 1 - sum(hi - lo for lo, hi in demo)
    expect(index == F(5, 12), f"demo_full3.csv: reference index {index}, expected 5/12")


def small_subjects(seed: int) -> list[gen.Subject]:
    rng = gen.SplitMix64(seed)
    x5, g6 = gen._labels("x", 5), gen._labels("g", 6)
    return [
        gen.random_table(rng, "a_random", x5),
        gen.embedded_demo(rng, "b_embedded", x5),
        gen.luce(rng, "c_luce", x5),
        gen.tremble(rng, "d_tremble", x5),
        gen.two_ranking_mixture(rng, "e_two_rankings", x5),
        gen.ranking_mixture(rng, "f_three_rankings", x5, [F(1, 2), F(3, 10), F(1, 5)]),
        gen.pairwise_random(rng, "g_pair_random", g6, trials=20),
        gen.pairwise_ranking(rng, "h_pair_ranking", g6),
        gen.pairwise_cycle(rng, "i_pair_cycle", g6),
    ]


def routes_and_closed_forms() -> None:
    for seed in range(1, 6):
        for s in small_subjects(seed):
            ref = Reference(s)
            regions = ref.axiom_regions()
            for k in range(1, ref.K + 1):
                direct = ref.direct_violations(k)
                if direct != tuple(regions[a][k] for a in AXIOMS):
                    failures.append(f"seed {seed} {s.name}: routes disagree at {ref.threshold(k)}")
                    break
            union = reference_union(ref)
            kind = s.meta["kind"]
            if kind == "tremble":
                expect(union == tremble_set(len(s.labels), s.meta["alpha"]), f"{s.name}: tremble")
            elif kind == "mixture" and len(s.meta["weights"]) == 2:
                first, second = s.meta["rankings"]
                closed = two_ranking_set(first, second, s.meta["weights"][0])
                expect(union == closed, f"seed {seed} {s.name}: two-ranking closed form")
            elif kind == "embedded_demo":
                expect(union == DEMO_SET, f"seed {seed} {s.name}: embedded demo")
            elif kind == "luce":
                expect(not union and ref.selectivity() == (True, True), f"{s.name}: Luce")
            elif kind == "pairwise_ranking":
                expect(not union and ref.transitivity_flags()[0]["strong"], f"{s.name}: ranking")
            elif kind == "pairwise_cycle":
                expect(bool(union), f"seed {seed} {s.name}: planted cycle")


def analyze(subjects: list[gen.Subject], workdir: Path) -> dict:
    data, out = workdir / "selftest.csv", workdir / "selftest.json"
    gen.write_csv(subjects, data)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "stochrat.cli", "analyze", str(data), "--format", "json",
         "--out", str(out)],
        env=env, check=True,
    )
    return json.loads(out.read_text(encoding="utf-8"))


def first_with(doc: dict, predicate) -> dict:
    return next(e for e in doc["subjects"] if predicate(e))


def alterations(doc: dict):
    """(description, subjects that must be flagged, altered report)."""
    def endpoint(new):
        entry = first_with(new, lambda e: e["sets"]["irrationality"])
        lo, hi = map(Fraction, entry["sets"]["irrationality"][0])
        entry["sets"]["irrationality"][0][0] = str((lo + hi) / 2)
        return [entry["subject"]], new

    def part_endpoint(new):
        entry = first_with(new, lambda e: e["sets"]["transitivity"])
        lo, hi = map(Fraction, entry["sets"]["transitivity"][-1])
        entry["sets"]["transitivity"][-1][1] = str((lo + hi) / 2)
        return [entry["subject"]], new

    def verdict(new):
        v = new["comparisons"]["verdicts"][0]
        v["verdict"] = "Incomparable" if v["verdict"] != "Incomparable" else "Equivalent"
        return [v["left"], v["right"]], new

    def edge(new):
        e = new["comparisons"]["hasse_edges"].pop(0)
        return [e["more_rational"], e["less_rational"]], new

    def witness(new):
        entry = first_with(new, lambda e: any(w["axiom"] == "transitivity" for w in e["witnesses"]))
        w = next(w for w in entry["witnesses"] if w["axiom"] == "transitivity")
        w["triple"] = w["triple"][::-1]
        return [entry["subject"]], new

    def index(new):
        entry = new["subjects"][0]
        decimal = entry["rationality_index"]["decimal"]
        entry["rationality_index"]["decimal"] = decimal[:-1] + ("2" if decimal[-1] == "1" else "1")
        return [entry["subject"]], new

    def flag(new):
        entry = new["subjects"][-1]
        entry["flags"]["strong_s_transitive"] = not entry["flags"]["strong_s_transitive"]
        return [entry["subject"]], new

    for name, edit in [
        ("interval endpoint", endpoint),
        ("cycle-part endpoint", part_endpoint),
        ("verdict", verdict),
        ("cover edge", edge),
        ("witness", witness),
        ("index decimal", index),
        ("flag", flag),
    ]:
        touched, new = edit(copy.deepcopy(doc))
        yield name, touched, new


def report_checks() -> None:
    subjects = small_subjects(7)
    for fixture in ("demo_full3.csv", "pairwise_cycles.csv"):
        for s in load_csv(FIXTURES / fixture):
            s.name = f"z_{s.name}"
            subjects.append(s)
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        doc = analyze(subjects, Path(tmp))
    clean = check_report(doc, subjects, seed=7)
    for name, problems in clean.items():
        for problem in problems:
            failures.append(f"unaltered report: {name}: {problem}")
    for what, touched, altered in alterations(doc):
        found = check_report(altered, subjects, seed=7)
        for name in touched:
            expect(bool(found[name]), f"altered {what} on {name} was not flagged")


def main() -> int:
    fixture_answers()
    routes_and_closed_forms()
    report_checks()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
