"""Checks on the library source itself."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

import stochrat

from conftest import FIXTURES

PACKAGE = Path(stochrat.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # invariants must raise explicit errors: ``python -O`` strips asserts
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _used_names(tree: ast.Module) -> set[str]:
    """Names the module reads, counting those inside string annotations."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    annotations = [
        node.annotation
        for node in ast.walk(tree)
        if isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation
    ] + [
        node.returns
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns
    ]
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def test_library_modules_use_every_name_they_import():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = _used_names(tree)
        found += [
            f"{path.name}:{line} {name}"
            for name, line in imported.items()
            if name not in used
        ]
    assert found == []


def test_library_modules_read_only_their_own_private_attributes():
    # ``obj._name`` may be read only in the module that assigns or defines
    # ``_name``: no module reaches into another's private fields
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                defined.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                defined.add(node.attr)
        found += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)
            and node.attr.startswith("_")
            and not node.attr.startswith("__")
            and node.attr not in defined
        ]
    assert found == []


def test_library_keeps_no_function_cache():
    # ``functools.cache`` and ``lru_cache`` hold their arguments and results
    # for the life of the process, shared by every caller; state shared
    # between subjects belongs to an object the caller creates, as a
    # dataset's menu layouts belong to the dataset
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "functools" else []
            else:
                continue
            found += [
                f"{path.name}:{node.lineno} {name}"
                for name in names
                if name in ("cache", "lru_cache")
            ]
    assert found == []


def test_json_is_parsed_only_by_dataset_read_json():
    # one reader keeps every JSON number's text and turns nesting too deep
    # to decode into a data error, for datasets and model specs alike
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        functions = [
            node
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "json":
                found.append(f"{path.name}:{node.lineno} imports from json")
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in ("load", "loads")
                and isinstance(node.value, ast.Name)
                and node.value.id == "json"
            ):
                inside = [
                    f.name for f in functions if f.lineno <= node.lineno <= f.end_lineno
                ]
                found.append(f"{path.name} {'.'.join(inside)}")
    assert found == ["dataset.py read_json"]


def test_only_the_ingest_touches_its_slots_and_cells():
    # rows reach a slot only through ``_Ingest.place`` and ``_Ingest.add``,
    # so that the CSV and JSON readers share one per-row route
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        inside = {
            id(node)
            for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and cls.name == "_Ingest"
            for method in cls.body
            if isinstance(method, ast.FunctionDef)
            for node in ast.walk(method)
        }
        found += [
            f"{path.name}:{node.lineno} {node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and node.attr in ("slots", "cells")
            and id(node) not in inside
        ]
    assert found == []


def test_only_intervals_calls_the_raw_interval_union_constructor():
    # ``IntervalUnion(...)`` stores its pieces as given, unchecked and
    # unmerged; every other module gets its sets from ``from_pairs``,
    # ``from_cells``, ``single``, ``empty`` or the set algebra
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "intervals.py"
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call)
        and "IntervalUnion"
        in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert found == []


def _modules_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after running ``statement``."""
    done = subprocess.run(
        [sys.executable, "-c", f"{statement}\nimport sys\nprint(sorted(sys.modules))"],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return set(ast.literal_eval(done.stdout))


def test_cli_import_loads_only_what_analyze_runs():
    loaded = _modules_after("import stochrat.cli")
    assert "stochrat.cli" in loaded
    for unused in ("models", "comparators", "modelspec", "prng"):
        assert f"stochrat.{unused}" not in loaded
    # dataclasses imports inspect, and its decorator compiles code for each
    # class: both would cost every run before it reads its input
    setup = _modules_after("from stochrat.dataset import parse_dataset")
    for modules in (loaded, setup):
        assert not modules & {"dataclasses", "inspect"}
        # the correspondence code is loaded only by what builds a
        # correspondence: --oracle, lambda and the comparators
        assert "stochrat.choice" not in modules


def test_reading_a_dataset_loads_only_the_ingest():
    # parsing a CSV dataset and building its subjects compiles neither the
    # rank-coded core, nor the interval algebra and its records, nor json:
    # a subject loads the core when its .core is first read
    setup = (
        "from stochrat.dataset import parse_dataset\n"
        f"data = parse_dataset({str(FIXTURES / 'pairwise5_panel26.csv')!r})\n"
        "subjects = [data.scf(subject) for subject in data.subject_ids()]\n"
    )
    loaded = _modules_after(setup)
    assert "stochrat.scf" in loaded
    for unused in ("stochrat.core", "stochrat.intervals", "stochrat.record", "json"):
        assert unused not in loaded
    assert "stochrat.core" in _modules_after(setup + "subjects[0].core\n")
    # the JSON form, read with json loaded on demand, gives the same table
    from_csv = stochrat.parse_dataset(FIXTURES / "pairwise5_panel26.csv")
    from_json = stochrat.parse_dataset(FIXTURES / "pairwise5_panel26.json")
    assert from_json.subject_ids() == from_csv.subject_ids()
    for subject in from_csv.subject_ids():
        assert from_json.scf(subject) == from_csv.scf(subject)


def test_library_modules_do_not_import_dataclasses():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import)
        and any(alias.name.split(".")[0] == "dataclasses" for alias in node.names)
        or isinstance(node, ast.ImportFrom)
        and (node.module or "").split(".")[0] == "dataclasses"
    ]
    assert found == []


def test_every_exported_name_is_its_home_modules_object():
    for name in stochrat.__all__:
        value = getattr(stochrat, name)
        home = importlib.import_module(value.__module__)
        assert home.__name__.startswith("stochrat."), name
        assert getattr(home, name) is value, name


def test_package_namespace_lists_and_star_imports_all():
    assert set(stochrat.__all__) <= set(dir(stochrat))
    namespace: dict = {}
    exec("from stochrat import *", namespace)
    assert {name for name in namespace if not name.startswith("__")} == set(
        stochrat.__all__
    )
    with pytest.raises(AttributeError, match="no_such_name"):
        stochrat.no_such_name


def _uses(name: str) -> list[str]:
    """Where the package reads ``name``: ``module.function`` (or
    ``module.Class.method``, or ``module.<module>``) for each name or
    attribute of that name, and ``module imports name`` for each import
    of it; sorted."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        scopes = [
            (f"{cls.name}.{node.name}" if cls is not tree else node.name, node)
            for cls in [tree, *(n for n in tree.body if isinstance(n, ast.ClassDef))]
            for node in cls.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [
                    f"{path.stem} imports {alias.name}"
                    for alias in node.names
                    if alias.name == name
                ]
            elif (isinstance(node, ast.Attribute) and node.attr == name) or (
                isinstance(node, ast.Name) and node.id == name
            ):
                inside = [
                    scope_name
                    for scope_name, scope in scopes
                    if scope.lineno <= node.lineno <= scope.end_lineno
                ]
                found.append(f"{path.stem}.{'.'.join(inside) or '<module>'}")
    return sorted(found)


def test_lcm_is_taken_only_per_row_and_by_the_swap_index():
    # a denominator common to several menus grows with the number of menus,
    # not with any one row; rows are scaled by their one builder, and only
    # the swap index's exact value needs a common denominator
    assert _uses("lcm") == ["comparators.swap_index", "rationals.probability_row"]


def test_probability_cells_become_rows_in_one_helper():
    # the subject's constructor and the dataset's ingest both build their
    # probability rows with rationals.probability_row
    assert _uses("probability_row") == [
        "dataset imports probability_row",
        "dataset._Ingest.table",
        "scf imports probability_row",
        "scf.StochasticChoiceFunction.__init__",
    ]


def test_the_subject_infers_its_domain_kind():
    # the menus say whether a domain is full or pairwise, so neither entry
    # point takes a kind, and a positional argument cannot pass for the cap
    subject = stochrat.StochasticChoiceFunction
    for entry in (subject.__init__, subject.from_rows):
        parameters = inspect.signature(entry).parameters
        assert "domain_kind" not in parameters, entry.__qualname__
        assert parameters["max_universe"].kind is inspect.Parameter.KEYWORD_ONLY
    assert not hasattr(stochrat.ChoiceDataset, "domain_kind")


def test_measure_module_stays_below_the_compile_step():
    # every analyze run compiles measure.py, the largest module, when no
    # bytecode is cached; under tracemalloc its compile peak rose by about
    # 0.23 MiB between 4,089 and 4,113 tokens, a step every run pays in
    # peak memory.  Tokens are counted without comments and blank lines.
    with open(PACKAGE / "measure.py", encoding="utf-8") as handle:
        tokens = [
            token
            for token in tokenize.generate_tokens(handle.readline)
            if token.type not in (tokenize.COMMENT, tokenize.NL)
        ]
    assert len(tokens) <= 4000
