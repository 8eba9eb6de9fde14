"""Command line front end.

Subcommands:

* ``analyze <data>``   full per-subject analysis and cross-subject report
* ``compare <data>``   verdict matrix, equivalence classes and cover edges
* ``model <spec>``     build a model from a JSON spec and analyze it
* ``lambda <data>``    threshold correspondence and axiom diagnostics
* ``check <data>``     head-to-head transitivity and triangular condition
* ``swap <data>``      exact swap index per subject

Exit codes: 0 success, 2 usage or data error, 3 capacity cap hit,
4 ``--oracle`` found a wrong threshold set (a bug; one stderr line names
the subject, the set and the threshold or endpoint).
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterator, Optional, Sequence

from .dataset import parse_dataset, scf_to_rows, write_dataset_csv
from .errors import CapacityError, OracleMismatch
from .measure import (
    TransitivityFlags,
    TriangularResult,
    classify_transitivity,
    compare_many,
    triangular_condition,
)
from .menus import menu_str, sort_menus
from .rationals import format_decimal, format_rational, parse_rational
from .report import AnalysisConfig, analyze_scf, emit_report, run_analyze
from .scf import FULL_UNIVERSE_CAP, PAIRWISE_UNIVERSE_CAP, StochasticChoiceFunction


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stochrat",
        description="Threshold-based rationality analysis of stochastic choice data",
    )
    parser.add_argument(
        "--max-universe",
        type=int,
        default=None,
        metavar="N",
        help=(
            "override the universe-size caps (defaults: %d alternatives on the "
            "full domain, %d on the pairwise domain)"
            % (FULL_UNIVERSE_CAP, PAIRWISE_UNIVERSE_CAP)
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=0,
        metavar="S",
        help="seed for model specs of kind 'random' that omit one",
    )
    parser.add_argument(
        "--oracle",
        action="store_true",
        help="check each threshold set by direct axiom checks (analyze, model)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze every subject in a dataset")
    analyze.add_argument("data")
    analyze.add_argument(
        "--format", choices=["json", "csv", "plotdata"], default="json"
    )
    analyze.add_argument("--out", default=None, metavar="PATH")

    compare = sub.add_parser("compare", help="pairwise rationality comparisons")
    compare.add_argument("data")

    model = sub.add_parser("model", help="build and analyze a model spec")
    model.add_argument("spec")
    model.add_argument(
        "--emit-dataset",
        default=None,
        metavar="PATH",
        help="also write the model as a probability dataset CSV",
    )

    lam = sub.add_parser(
        "lambda", help="threshold correspondence and rationality at one threshold"
    )
    lam.add_argument("data")
    lam.add_argument("--subject", required=True)
    lam.add_argument(
        "--lambda", dest="threshold", required=True, metavar="P/Q",
        help="threshold in [0, 1], as an exact rational",
    )

    check = sub.add_parser(
        "check", help="transitivity flags and the triangular condition"
    )
    check.add_argument("data")

    swap = sub.add_parser("swap", help="exact swap index per subject")
    swap.add_argument("data")
    return parser


def _flag_text(value: Optional[bool]) -> str:
    if value is None:
        return "n/a"
    return "yes" if value else "no"


def _print_flags(
    trans: TransitivityFlags, triangular: TriangularResult, indent: str = ""
) -> None:
    print(
        f"{indent}s-transitivity: "
        f"weak={_flag_text(trans.weak)} "
        f"almost-weak={_flag_text(trans.almost_weak)} "
        f"moderate={_flag_text(trans.moderate)} "
        f"almost-moderate={_flag_text(trans.almost_moderate)} "
        f"strong={_flag_text(trans.strong)}"
    )
    if triangular.holds:
        print(f"{indent}triangular condition: PASS")
    else:
        x, y, z = triangular.witness
        print(f"{indent}triangular condition: FAIL ({x},{y},{z})")


def _print_analysis(analysis) -> None:
    sets = analysis.sets
    print(f"subject: {analysis.subject}")
    print(f"domain: {analysis.domain.value} over {len(analysis.universe)} alternatives")
    print(f"irrationality set: {sets.union}")
    print(f"  contraction part: {sets.chernoff}")
    print(f"  pairwise-winner part: {sets.condorcet}")
    print(f"  cycle part: {sets.transitivity}")
    print(
        "rationality index: "
        f"{format_rational(analysis.index)} "
        f"({format_decimal(analysis.index)})"
    )
    print(f"maximally rational: {_flag_text(sets.maximally_rational)}")
    print(f"minimally rational: {_flag_text(sets.minimally_rational)}")
    _print_flags(analysis.transitivity, analysis.triangular)
    print(f"selective in contractions: {_flag_text(analysis.selective_contractions)}")
    print(f"selective in expansions: {_flag_text(analysis.selective_expansions)}")


def _subjects(
    path: str, config: AnalysisConfig
) -> Iterator[tuple[str, StochasticChoiceFunction]]:
    """Each subject of the dataset at ``path``, built as it is reached."""
    dataset = parse_dataset(path)
    for subject in dataset.subject_ids():
        yield subject, dataset.scf(subject, max_universe=config.max_universe)


def _cmd_analyze(args: argparse.Namespace, config: AnalysisConfig) -> int:
    dataset = parse_dataset(args.data)
    report = run_analyze(dataset, config)
    emit_report(report, args.format, args.out)
    return 0


def _cmd_compare(args: argparse.Namespace, config: AnalysisConfig) -> int:
    result = compare_many(list(_subjects(args.data, config)))
    for left, right, verdict in result.pairs():
        print(f"{left} vs {right}: {verdict.value}")
    for group in result.classes:
        print("class: " + " ".join(group))
    if result.hasse_edges:
        for above, below in result.hasse_edges:
            print(f"edge: {above} -> {below}")
    else:
        print("edge: (none)")
    return 0


def _cmd_model(args: argparse.Namespace, config: AnalysisConfig) -> int:
    from .modelspec import load_model_spec

    loaded = load_model_spec(
        args.spec, default_seed=args.seed, max_universe=config.max_universe
    )
    print(f"model kind: {loaded.kind}")
    for note in loaded.notes:
        print(f"note: {note}")
    analysis = analyze_scf(loaded.scf, subject=loaded.kind, config=config)
    _print_analysis(analysis)
    if args.emit_dataset:
        write_dataset_csv(args.emit_dataset, scf_to_rows(loaded.scf))
        print(f"dataset written: {args.emit_dataset}")
    return 0


def _cmd_lambda(args: argparse.Namespace, config: AnalysisConfig) -> int:
    from .choice import AXIOM_NAMES, check_axioms, fishburn_correspondence

    dataset = parse_dataset(args.data)
    scf = dataset.scf(args.subject, max_universe=config.max_universe)
    lam = parse_rational(args.threshold)
    correspondence = fishburn_correspondence(scf, lam)
    print(f"subject: {args.subject}, threshold: {format_rational(lam)}")
    for menu in sort_menus(correspondence.domain):
        print(f"  {menu_str(menu)} -> {menu_str(correspondence.choice(menu))}")
    report = check_axioms(correspondence)
    if report:
        print("lambda-rational: yes")
    else:
        for axiom, witness in report.failures:
            if axiom == "chernoff":
                small, large, alternative = witness
                where = f"({menu_str(small)} in {menu_str(large)}, {alternative})"
            elif axiom == "condorcet":
                menu, alternative = witness
                where = f"({menu_str(menu)}, {alternative})"
            else:
                where = "(" + ",".join(witness) + ")"
            print(f"not lambda-rational: {AXIOM_NAMES[axiom]} violation at {where}")
    return 0


def _cmd_check(args: argparse.Namespace, config: AnalysisConfig) -> int:
    for subject, scf in _subjects(args.data, config):
        print(f"subject: {subject}")
        _print_flags(classify_transitivity(scf), triangular_condition(scf), "  ")
    return 0


def _cmd_swap(args: argparse.Namespace, config: AnalysisConfig) -> int:
    from .comparators import swap_index

    for subject, scf in _subjects(args.data, config):
        result = swap_index(scf)
        print(
            f"{subject}: swap index {format_rational(result.value)} "
            f"({format_decimal(result.value)}), "
            f"order {' > '.join(result.order)}, "
            f"optimal orders {result.optimal_orders}"
        )
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "compare": _cmd_compare,
    "model": _cmd_model,
    "lambda": _cmd_lambda,
    "check": _cmd_check,
    "swap": _cmd_swap,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = AnalysisConfig(max_universe=args.max_universe, oracle=args.oracle)
    try:
        return _COMMANDS[args.command](args, config)
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except OracleMismatch as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
