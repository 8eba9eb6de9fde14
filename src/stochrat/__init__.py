"""Exact threshold-based rationality analysis for stochastic choice data.

Importing the package loads none of its modules: each name in ``__all__``
is imported from its home module on first use (PEP 562), so a command that
never builds a model never loads ``models``.
"""

from importlib import import_module

__version__ = "0.1.0"

# home module -> the public names it defines
_EXPORTS = {
    "choice": (
        "AxiomReport",
        "ChoiceCorrespondence",
        "Preorder",
        "check_axioms",
        "fishburn_correspondence",
        "houtman_maks",
        "is_lambda_rational",
        "is_rational",
        "is_totally_rational",
        "max_correspondence",
    ),
    "comparators": (
        "SwapResult",
        "hybrid_compare",
        "swap_index",
        "total_compare",
        "totally_rational_regions",
    ),
    "dataset": ("ChoiceDataset", "parse_dataset", "scf_to_rows", "write_dataset_csv"),
    "errors": ("CapacityError", "OracleMismatch"),
    "intervals": ("IntervalUnion",),
    "measure": (
        "ComparisonResult",
        "IrrationalitySets",
        "MultiComparison",
        "TransitivityFlags",
        "TriangularResult",
        "Verdict",
        "Witness",
        "chernoff_set",
        "classify_transitivity",
        "compare",
        "compare_many",
        "condorcet_set",
        "irrationality_sets",
        "is_selective_in_contractions",
        "is_selective_in_expansions",
        "rationality_index",
        "transitivity_set",
        "triangular_condition",
    ),
    "models": (
        "as_utility",
        "consistent_over_triplets",
        "consistent_over_tuples",
        "drum",
        "general_luce",
        "lead_chain_consistent",
        "lead_consistent_over_triplets",
        "luce",
        "mum_pairwise",
        "mum_response_table",
        "random_positive_utility",
        "random_ranking_utility",
        "random_scf",
        "rum",
        "tremble",
        "tremble_index",
        "tremble_irrationality",
        "two_stage_luce",
        "uniform_drum",
        "uniform_drum_irrationality",
    ),
    "prng": ("SplitMix64",),
    "rationals": ("format_decimal", "format_rational", "parse_rational"),
    "report": (
        "AnalysisConfig",
        "AnalysisReport",
        "SubjectAnalysis",
        "analyze_scf",
        "emit_report",
        "render_csv",
        "render_json",
        "render_plotdata",
        "run_analyze",
    ),
    "scf": ("DomainKind", "StochasticChoiceFunction", "threshold_cuts"),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
