"""Run ``stochrat analyze --format json`` in process, with or without spans.

Usage (with ``src`` on PYTHONPATH):

    python3 perfbench/layers.py plain  DATA OUT
    python3 perfbench/layers.py traced DATA OUT SPANS.json

Both modes time ``stochrat.cli.main`` after the imports and print one JSON
line with ``total_s``.  The traced mode first wraps the public calls of the
``dataset``, ``scf``, ``measure``, ``intervals``, ``report`` and ``cli``
layers (every module binding of each function is replaced, so calls through
``from .x import f`` names are caught too).  Each call becomes a span
(name, start, end, parent) kept in flat arrays; counters are noted at the
same boundaries after the span closes, and the costly ones are computed
once the run is over.  Spans are written to SPANS.json at the end, and the
per-layer metrics are printed under ``metrics``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from pathlib import Path

import stochrat.cli as cli
from stochrat import dataset, intervals, measure, report, scf

# (module or class, attribute, span name)
TARGETS = [
    (dataset, "parse_dataset", "dataset.parse_dataset"),
    (scf.StochasticChoiceFunction, "__init__", "scf.build"),
    (report, "run_analyze", "report.run_analyze"),
    (report, "analyze_scf", "report.analyze_scf"),
    (report, "emit_report", "report.emit_report"),
    (report, "render_json", "report.render_json"),
    (measure, "irrationality_sets", "measure.irrationality_sets"),
    (measure, "chernoff_set", "measure.chernoff_set"),
    (measure, "condorcet_set", "measure.condorcet_set"),
    (measure, "transitivity_set", "measure.transitivity_set"),
    (measure, "classify_transitivity", "measure.classify_transitivity"),
    (measure, "triangular_condition", "measure.triangular_condition"),
    (measure, "is_selective_in_contractions", "measure.selective_contractions"),
    (measure, "is_selective_in_expansions", "measure.selective_expansions"),
    (measure, "compare_many", "measure.compare_many"),
    (intervals.IntervalUnion, "difference", "intervals.difference"),
]


class Tracer:
    """Spans in flat arrays: name id, start, end (perf_counter seconds) and
    parent span index (-1 for a root).  All spans share one trace id."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.notes: dict[str, list] = {}

    def wrap(self, name: str, fn, note=None):
        name_id = len(self.names)
        self.names.append(name)
        notes = self.notes.setdefault(name, [])

        def traced(*args, **kwargs):
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(self.stack[-1] if self.stack else -1)
            self.end.append(0.0)
            self.stack.append(index)
            self.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = time.perf_counter()
                self.stack.pop()
            if note is not None:
                notes.append(note(result, *args))
            return result

        return traced

    def totals(self) -> dict[str, float]:
        out = dict.fromkeys(self.names, 0.0)
        for name_id, start, end in zip(self.name, self.start, self.end):
            out[self.names[name_id]] += end - start
        return out

    def counts(self) -> dict[str, int]:
        out = dict.fromkeys(self.names, 0)
        for name_id in self.name:
            out[self.names[name_id]] += 1
        return out

    def dump(self, path: Path, trace_id: str) -> None:
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "trace_id": trace_id,
            "names": self.names,
            "spans": {
                "name": list(self.name),
                "start_us": [round((t - t0) * 1e6) for t in self.start],
                "end_us": [round((t - t0) * 1e6) for t in self.end],
                "parent": list(self.parent),
            },
        }
        path.write_text(json.dumps(doc, separators=(",", ":")), encoding="utf-8")


def _one_gap_triples(n: int) -> int:
    """(S, T, x) with T of size >= 3, S = T minus one element, x in S."""
    return sum(math.comb(n, k) * k * (k - 1) for k in range(3, n + 1))


def _ordered_triples(n: int) -> int:
    return n * (n - 1) * (n - 2)


NOTES = {
    "scf.build": lambda _result, self, *rest: self,
    "measure.chernoff_set": lambda _result, s, *rest: (
        _one_gap_triples(len(s.universe)) if s.domain_kind is scf.DomainKind.FULL else 0
    ),
    "measure.irrationality_sets": lambda result, *rest: len(result.witnesses),
    "measure.transitivity_set": lambda _result, s, *rest: _ordered_triples(len(s.universe)),
    "measure.classify_transitivity": lambda _result, s, *rest: _ordered_triples(len(s.universe)),
    "measure.compare_many": lambda result, *rest: result,
}


def install(tracer: Tracer) -> None:
    loaded = [m for name, m in sys.modules.items() if name.split(".")[0] == "stochrat"]
    for owner, attr, name in TARGETS:
        original = getattr(owner, attr)
        wrapper = tracer.wrap(name, original, NOTES.get(name))
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            continue
        for module in loaded:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


def layer_metrics(tracer: Tracer, data: Path, out: Path) -> dict[str, float]:
    t = tracer.totals()
    calls = tracer.counts()
    notes = tracer.notes
    built = notes["scf.build"]
    comparisons = notes["measure.compare_many"]
    with data.open(encoding="utf-8") as handle:
        rows = sum(1 for _ in handle) - 1
    sets_parts = t["measure.chernoff_set"] + t["measure.condorcet_set"] + t["measure.transitivity_set"]
    return {
        "cli.main_s": t["cli.main"],
        "dataset.parse_s": t["dataset.parse_dataset"],
        "dataset.rows": rows,
        "scf.build_s": t["scf.build"],
        "scf.menus": sum(len(s.menus()) for s in built),
        "scf.cuts": sum(len(scf.threshold_cuts(s)) for s in built),
        "measure.chernoff_set_s": t["measure.chernoff_set"],
        "measure.chernoff_candidates": sum(notes["measure.chernoff_set"]),
        "measure.condorcet_set_s": t["measure.condorcet_set"],
        "measure.witness_s": t["measure.irrationality_sets"] - sets_parts,
        "measure.witnesses": sum(notes["measure.irrationality_sets"]),
        "measure.selectivity_s": t["measure.selective_contractions"] + t["measure.selective_expansions"],
        "measure.transitivity_set_s": t["measure.transitivity_set"],
        "measure.classify_transitivity_s": t["measure.classify_transitivity"],
        "measure.triangular_s": t["measure.triangular_condition"],
        "measure.triples": sum(notes["measure.transitivity_set"]) + sum(notes["measure.classify_transitivity"]),
        "measure.compare_many_s": t["measure.compare_many"],
        "measure.verdict_pairs": sum(math.comb(len(c.names), 2) for c in comparisons),
        "measure.classes": sum(len(c.classes) for c in comparisons),
        "measure.hasse_edges": sum(len(c.hasse_edges) for c in comparisons),
        "intervals.difference_s": t["intervals.difference"],
        "intervals.difference_calls": calls["intervals.difference"],
        "report.analyze_scf_s": t["report.analyze_scf"],
        "report.render_json_s": t["report.render_json"],
        "report.output_bytes": out.stat().st_size,
    }


def main(argv: list[str]) -> int:
    mode, data, out = argv[0], Path(argv[1]), Path(argv[2])
    args = ["analyze", str(data), "--format", "json", "--out", str(out)]
    run = cli.main
    tracer = None
    if mode == "traced":
        tracer = Tracer()
        install(tracer)
        run = tracer.wrap("cli.main", cli.main)
    start = time.perf_counter()
    code = run(args)
    total = time.perf_counter() - start
    result: dict = {"exit": code, "total_s": total}
    if tracer is not None:
        result["metrics"] = layer_metrics(tracer, data, out)
        tracer.dump(Path(argv[3]), trace_id=out.stem)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
