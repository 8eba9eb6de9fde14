"""Batch analysis and report emission.

:func:`run_analyze` turns a dataset into an :class:`AnalysisReport`:
per-subject threshold sets, rationality index, structure flags and
witnesses, plus the cross-subject comparison (verdicts, equivalence
classes, cover edges).  A capacity failure on one subject is recorded on
that subject and the rest of the batch proceeds.

Reports render to JSON (one document), CSV (one row per subject) or
"plotdata" (two CSV tables: index bars sorted ascending, and the
irrationality segments per subject in the same order).  Rendering is
deliberately byte-stable: fixed key order, exact rationals plus
fixed-width decimals, no timestamps.
"""

from __future__ import annotations

import csv
import io
import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, TextIO, Union

from .errors import CapacityError, OracleMismatch
from .dataset import ChoiceDataset
from .intervals import IntervalUnion
from .measure import (
    IrrationalitySets,
    MultiComparison,
    TransitivityFlags,
    TriangularResult,
    Verdict,
    Witness,
    classify_transitivity,
    compare_many,
    irrationality_sets,
    is_selective_in_contractions,
    is_selective_in_expansions,
    triangular_condition,
)
from .menus import menu_key
from .rationals import DECIMAL_PLACES, format_decimal, format_rational
from .record import Record
from .scf import (
    DomainKind,
    StochasticChoiceFunction,
    is_lambda_rational,
    threshold_cuts,
)

SCHEMA_VERSION = 1

_ONE = Fraction(1)


class AnalysisConfig(Record):
    max_universe: Optional[int] = None
    oracle: bool = False


class SubjectAnalysis(Record):
    subject: str
    domain: DomainKind
    universe: tuple[str, ...]
    sets: IrrationalitySets
    index: Fraction
    transitivity: TransitivityFlags
    triangular: TriangularResult
    selective_contractions: Optional[bool]
    selective_expansions: Optional[bool]


class SubjectError(Record):
    subject: str
    kind: str
    message: str


class AnalysisReport(Record):
    config: AnalysisConfig
    subjects: tuple[Union[SubjectAnalysis, SubjectError], ...]
    comparison: Optional[MultiComparison]

    def ok_subjects(self) -> list[SubjectAnalysis]:
        return [s for s in self.subjects if isinstance(s, SubjectAnalysis)]


def analyze_scf(
    scf: StochasticChoiceFunction,
    subject: str = "model",
    config: AnalysisConfig = AnalysisConfig(),
) -> SubjectAnalysis:
    """Full single-subject analysis bundle.

    With ``config.oracle`` each printed set must end only at 0 and cuts,
    so it is fixed on each region (cuts[c-1], cuts[c]], as the
    correspondence is, and is checked against direct axiom checking at
    each cut.  A mismatch is a bug, raised as :class:`OracleMismatch`.
    """
    sets = irrationality_sets(scf)
    if config.oracle:
        parts = (
            ("contraction", sets.chernoff, "chernoff"),
            ("pairwise-winner", sets.condorcet, "condorcet"),
            ("cycle", sets.transitivity, "no_cycle"),
            ("irrationality", sets.union, "all_hold"),
        )
        cuts = threshold_cuts(scf)
        for name, part, _ in parts:
            stray = {end for pair in part.intervals for end in pair} - {0, *cuts}
            if stray:
                raise OracleMismatch(
                    f"subject {subject}, {name} set has endpoint {min(stray)}, "
                    "which is neither 0 nor a cut"
                )
        for lam in cuts:
            axioms = is_lambda_rational(scf, lam)
            for name, part, axiom in parts:
                if part.contains(lam) == getattr(axioms, axiom):
                    raise OracleMismatch(
                        f"subject {subject}, {name} set and axiom checking "
                        f"disagree at {lam}"
                    )
    if scf.domain_kind is DomainKind.FULL:
        contractions: Optional[bool] = is_selective_in_contractions(scf)
        expansions: Optional[bool] = is_selective_in_expansions(scf)
    else:
        contractions = None
        expansions = None
    return SubjectAnalysis(
        subject=subject,
        domain=scf.domain_kind,
        universe=scf.universe,
        sets=sets,
        index=_ONE - sets.union.measure(),
        transitivity=classify_transitivity(scf),
        triangular=triangular_condition(scf),
        selective_contractions=contractions,
        selective_expansions=expansions,
    )


def run_analyze(
    dataset: ChoiceDataset, config: AnalysisConfig = AnalysisConfig()
) -> AnalysisReport:
    subjects: list[Union[SubjectAnalysis, SubjectError]] = []
    for subject in dataset.subject_ids():
        try:
            scf = dataset.scf(subject, max_universe=config.max_universe)
            subjects.append(analyze_scf(scf, subject=subject, config=config))
        except CapacityError as exc:
            subjects.append(SubjectError(subject, "capacity", str(exc)))
    analysed = [(s.subject, s.sets) for s in subjects if isinstance(s, SubjectAnalysis)]
    comparison = compare_many(analysed) if analysed else None
    return AnalysisReport(config=config, subjects=tuple(subjects), comparison=comparison)


# -- serialization -------------------------------------------------------------
#
# ``render_json`` writes the text of ``json.dumps(doc, indent=2,
# ensure_ascii=False)`` from templates: with ``indent`` that call runs the
# pure-Python encoder over every member.  Strings are quoted by
# ``encode_basestring``, the quoting ``json.dumps`` itself uses without
# ``ensure_ascii``, and no quoted string holds a raw newline.  A template
# starts at its opening bracket; the list around it writes the indent.
# The document is a stream of pieces, each made as it is reached, so no
# more than one subject entry or one left name's verdicts is held at once.

_JSON_CONSTANT = {True: "true", False: "false", None: "null"}


def _list_parts(items: Iterable[str], depth: int) -> Iterator[str]:
    """The pieces of a JSON list of written items whose brackets sit at
    ``depth`` spaces."""
    pad = "\n" + " " * (depth + 2)
    separator = "["
    for item in items:
        yield separator + pad
        yield item
        separator = ","
    yield "[]" if separator == "[" else "\n" + " " * depth + "]"


def _json_list(items: Iterable[str], depth: int) -> str:
    return "".join(_list_parts(items, depth))


def _strings(values, depth: int) -> str:
    return _json_list([encode_basestring(v) for v in values], depth)


def _interval_list(union: IntervalUnion, depth: int) -> str:
    """The union as a list of [lo, hi] pairs of exact rationals."""
    if not union.intervals:
        return "[]"
    return _json_list(
        [
            _strings((format_rational(lo), format_rational(hi)), depth + 2)
            for lo, hi in union.intervals
        ],
        depth,
    )


# The report's flags in output order, each with its reader; the JSON
# "flags" object and the CSV columns both follow this table.
_FLAGS: tuple[tuple[str, Callable[[SubjectAnalysis], Optional[bool]]], ...] = (
    ("maximally_rational", lambda e: e.sets.maximally_rational),
    # the index is 1 minus the set's length: no second sum of the lengths
    ("minimally_rational", lambda e: e.index == 0),
    ("weak_s_transitive", lambda e: e.transitivity.weak),
    ("almost_weak_s_transitive", lambda e: e.transitivity.almost_weak),
    ("moderate_s_transitive", lambda e: e.transitivity.moderate),
    ("almost_moderate_s_transitive", lambda e: e.transitivity.almost_moderate),
    ("strong_s_transitive", lambda e: e.transitivity.strong),
    ("triangular_condition", lambda e: e.triangular.holds),
    ("selective_contractions", lambda e: e.selective_contractions),
    ("selective_expansions", lambda e: e.selective_expansions),
)

# An item of the "subjects" list, by status.
_SUBJECT_OK = (
    """{
      "subject": %s,
      "status": "ok",
      "domain": %s,
      "universe": %s,
      "sets": {
        "chernoff": %s,
        "condorcet": %s,
        "transitivity": %s,
        "irrationality": %s
      },
      "rationality_index": {
        "exact": %s,
        "decimal": %s
      },
      "flags": {
"""
    + ",\n".join(f"        {encode_basestring(name)}: %s" for name, _ in _FLAGS)
    + """
      },
      "triangular_witness": %s,
      "witnesses": %s
    }"""
)
_SUBJECT_ERROR = """{
      "subject": %s,
      "status": "error",
      "error": {
        "kind": %s,
        "message": %s
      }
    }"""

# An item of a subject's "witnesses" list: the head, then the rest by axiom.
_WITNESS_HEAD = '{\n          "interval": %s,\n          "axiom": '
_WITNESS_REST = {
    "chernoff": (
        '"chernoff",\n          "menu": %s,\n          "larger_menu": %s,\n'
        '          "alternative": %s\n        }'
    ),
    "condorcet": (
        '"condorcet",\n          "menu": %s,\n          "alternative": %s\n        }'
    ),
    "transitivity": '"transitivity",\n          "triple": %s\n        }',
}


def _witness_item(witness: Witness) -> str:
    if witness.axiom == "chernoff":
        small, large, alternative = witness.detail
        detail: tuple = (
            _strings(menu_key(small), 10),
            _strings(menu_key(large), 10),
            encode_basestring(alternative),
        )
    elif witness.axiom == "condorcet":
        menu, alternative = witness.detail
        detail = (_strings(menu_key(menu), 10), encode_basestring(alternative))
    else:
        detail = (_strings(witness.detail, 10),)
    lo, hi = witness.interval
    interval = _strings((format_rational(lo), format_rational(hi)), 10)
    return _WITNESS_HEAD % interval + _WITNESS_REST[witness.axiom] % detail


def _subject_item(entry: Union[SubjectAnalysis, SubjectError]) -> str:
    if isinstance(entry, SubjectError):
        return _SUBJECT_ERROR % (
            encode_basestring(entry.subject),
            encode_basestring(entry.kind),
            encode_basestring(entry.message),
        )
    sets = entry.sets
    witness = entry.triangular.witness
    return _SUBJECT_OK % (
        encode_basestring(entry.subject),
        encode_basestring(entry.domain.value),
        _strings(entry.universe, 6),
        _interval_list(sets.chernoff, 8),
        _interval_list(sets.condorcet, 8),
        _interval_list(sets.transitivity, 8),
        _interval_list(sets.union, 8),
        encode_basestring(format_rational(entry.index)),
        encode_basestring(format_decimal(entry.index)),
        *(_JSON_CONSTANT[flag(entry)] for _, flag in _FLAGS),
        _strings(witness, 6) if witness else "null",
        _json_list([_witness_item(w) for w in sets.witnesses], 6),
    )


# One item of the "comparisons.verdicts" list, split where the right name
# starts.
_VERDICT_HEAD = '{\n        "left": %s,\n        "right": '
_VERDICT_TAIL = '%s,\n        "verdict": %s\n      }'
_HASSE_EDGE = '{\n        "more_rational": %s,\n        "less_rational": %s\n      }'


def _verdict_groups(comparison: MultiComparison) -> Iterator[str]:
    """The items of the verdicts list, in ``comparison.pairs()`` order, one
    string per left name.

    Each right name has one finished tail per verdict, and each class one
    row of its verdicts against every class, so the items of one left name
    are one ``join`` of looked-up tails."""
    names = comparison.names
    index = [comparison.class_of[name] for name in names]
    quoted = [encode_basestring(name) for name in names]
    tails = {
        v: [_VERDICT_TAIL % (right, encode_basestring(v.value)) for right in quoted]
        for v in Verdict
    }
    # rows[i][j]: the tails of the verdict of class i against class j
    rows = [[tails[v] for v in row] for row in comparison.verdict_rows()]
    for a in range(len(names) - 1):
        head = _VERDICT_HEAD % quoted[a]
        row = rows[index[a]]
        yield head + f",\n      {head}".join(
            [row[j][b] for b, j in enumerate(index[a + 1 :], a + 1)]
        )


def _comparisons_parts(comparison: MultiComparison) -> Iterator[str]:
    """The pieces of the "comparisons" member, a top-level key."""
    yield '  "comparisons": {\n    "verdicts": '
    yield from _list_parts(_verdict_groups(comparison), 4)
    yield ',\n    "equivalence_classes": '
    yield from _list_parts((_strings(group, 6) for group in comparison.classes), 4)
    yield ',\n    "hasse_edges": '
    yield from _list_parts(
        (
            _HASSE_EDGE % (encode_basestring(above), encode_basestring(below))
            for above, below in comparison.hasse_edges
        ),
        4,
    )
    yield "\n  }"


# The document up to the subjects list.
_HEAD = (
    "{\n"
    f'  "schema_version": {SCHEMA_VERSION},\n'
    '  "settings": {\n'
    f'    "digits": {DECIMAL_PLACES},\n'
    '    "oracle": %s,\n'
    '    "max_universe": %s\n'
    "  },\n"
    '  "subjects": '
)


def _json_parts(report: AnalysisReport) -> Iterator[str]:
    """The pieces of the JSON document, in order."""
    config = report.config
    yield _HEAD % (json.dumps(config.oracle), json.dumps(config.max_universe))
    yield from _list_parts(map(_subject_item, report.subjects), 2)
    if report.comparison is not None:
        yield ",\n"
        yield from _comparisons_parts(report.comparison)
    yield "\n}\n"


def render_json(report: AnalysisReport, out: Optional[TextIO] = None) -> Optional[str]:
    """The report as one JSON document.  With ``out`` None the text is
    returned; given a text handle, the pieces are written there as they are
    made, so the whole text is never held, and None is returned."""
    parts = _json_parts(report)
    if out is None:
        return "".join(parts)
    out.writelines(parts)
    return None


_CSV_COLUMNS = [
    "subject",
    "status",
    "rationality_index",
    "irrationality_set",
    *(name for name, _ in _FLAGS),
]


def _csv_flag(value: Optional[bool]) -> str:
    if value is None:
        return ""
    return "true" if value else "false"


def render_csv(report: AnalysisReport) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS)
    for entry in report.subjects:
        if isinstance(entry, SubjectError):
            padding = [""] * (len(_CSV_COLUMNS) - 2)
            writer.writerow([entry.subject, f"error:{entry.kind}"] + padding)
            continue
        writer.writerow(
            [
                entry.subject,
                "ok",
                format_decimal(entry.index),
                str(entry.sets.union),
                *(_csv_flag(flag(entry)) for _, flag in _FLAGS),
            ]
        )
    return buffer.getvalue()


def render_plotdata(report: AnalysisReport) -> tuple[str, str]:
    """Two CSV tables: rationality-index bars (ascending) and threshold
    segments per subject, in bar order."""
    ok = report.ok_subjects()
    ordered = sorted(ok, key=lambda s: (s.index, s.subject))

    bars = io.StringIO()
    writer = csv.writer(bars, lineterminator="\n")
    writer.writerow(["subject", "rationality_index"])
    for entry in ordered:
        writer.writerow([entry.subject, format_decimal(entry.index)])

    segments = io.StringIO()
    writer = csv.writer(segments, lineterminator="\n")
    writer.writerow(["subject", "lo", "hi", "lo_decimal", "hi_decimal"])
    for entry in ordered:
        for lo, hi in entry.sets.union:
            writer.writerow(
                [
                    entry.subject,
                    format_rational(lo),
                    format_rational(hi),
                    format_decimal(lo),
                    format_decimal(hi),
                ]
            )
    return bars.getvalue(), segments.getvalue()


def emit_report(
    report: AnalysisReport, fmt: str, out: Optional[Union[str, Path]] = None
) -> list[Path]:
    """Write the report in the requested format; return written paths.

    With ``out`` None the content goes to stdout and no paths are
    returned.  The plotdata format writes ``<stem>_index_bars.csv`` and
    ``<stem>_segments.csv`` next to the given path.  Each file is replaced
    whole or not at all.
    """
    if fmt == "plotdata":
        bars, segments = render_plotdata(report)
        if out is None:
            print("# index_bars")
            print(bars, end="")
            print("# segments")
            print(segments, end="")
            return []
        out = Path(out)
        bars_path = out.with_name(out.stem + "_index_bars.csv")
        segments_path = out.with_name(out.stem + "_segments.csv")
        _write_whole(bars_path, lambda handle: handle.write(bars))
        _write_whole(segments_path, lambda handle: handle.write(segments))
        return [bars_path, segments_path]
    if fmt == "json":

        def write(handle: TextIO) -> None:
            render_json(report, handle)

    elif fmt == "csv":
        content = render_csv(report)

        def write(handle: TextIO) -> None:
            handle.write(content)

    else:
        raise ValueError(f"unknown report format {fmt!r}")
    if out is None:
        write(sys.stdout)
        return []
    out = Path(out)
    _write_whole(out, write)
    return [out]


def _write_whole(path: Path, write: Callable[[TextIO], object]) -> None:
    """Stream ``write``'s output into a sibling moved onto ``path`` once
    complete; on any failure the sibling is removed and ``path`` untouched."""
    partial = path.with_name(path.name + ".partial")
    try:
        with partial.open("w", encoding="utf-8") as handle:
            write(handle)
        partial.replace(path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise
