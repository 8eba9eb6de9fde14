"""Model specifications as JSON documents.

A model spec is a JSON object with a ``kind`` tag and kind-specific
parameters; all numeric parameters are rational strings so nothing passes
through floats.  Supported kinds:

* ``luce``: {"utility": {label: rational}}
* ``general_luce``: adds {"consideration": [{"menu": [...], "allowed": [...]}]}
* ``two_stage_luce``: adds {"dominance": [[better, worse], ...]}
* ``uniform_drum``: {"first": utility, "second": utility, "weight": rational}
* ``drum``: {"first", "second", "weights": [{"menu": [...], "weight": r}]}
* ``rum``: {"components": [{"utility": {...}, "weight": r}, ...]}
* ``tremble``: {"utility": {...}, "alpha": rational}
* ``mum``: {"utility", "metric": [{"pair": [a, b], "distance": r}],
  "response": [{"arg": r, "value": r}]}
* ``random``: {"universe": [...], "seed": int, "denominator_bound": int,
  "domain": "full"|"pairwise"}
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterator, Optional, Union

from . import models
from .rationals import parse_rational
from .record import Record
from .scf import DomainKind, StochasticChoiceFunction


class LoadedModel(Record):
    kind: str
    scf: StochasticChoiceFunction
    notes: tuple[str, ...] = ()


def _required(path: Path, doc: dict, key: str):
    if key not in doc:
        raise ValueError(f"{path}: model spec lacks field {key!r}")
    return doc[key]


def _entries(path: Path, doc: dict, key: str, *fields: str) -> Iterator[tuple]:
    """The values of ``fields`` in each object of the list under ``key``
    (no objects when ``key`` is absent)."""
    entries = doc.get(key, [])
    if not isinstance(entries, list):
        raise ValueError(f"{path}: field {key!r} must be a list of objects")
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: {key}[{i}] must be an object")
        for field in fields:
            if field not in entry:
                raise ValueError(f"{path}: {key}[{i}] lacks field {field!r}")
        yield tuple(entry[field] for field in fields)


def _integer(path: Path, doc: dict, key: str, default: int) -> int:
    value = doc.get(key, default)
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(
            f"{path}: field {key!r} must be an integer, got {value!r}"
        ) from None


def _utility(path: Path, doc: dict, key: str = "utility") -> dict:
    value = doc.get(key)
    if not isinstance(value, dict) or not value:
        raise ValueError(f"{path}: model spec needs a nonempty {key!r} mapping")
    return value


def load_model_spec(
    path: Union[str, Path],
    default_seed: int = 0,
    max_universe: Optional[int] = None,
) -> LoadedModel:
    path = Path(path)
    with path.open(encoding="utf-8") as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: model spec must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise ValueError(f"{path}: missing model kind")

    if kind == "luce":
        return LoadedModel(
            kind, models.luce(_utility(path, doc), max_universe=max_universe)
        )

    if kind == "general_luce":
        consideration = {
            tuple(menu): tuple(allowed)
            for menu, allowed in _entries(path, doc, "consideration", "menu", "allowed")
        }
        return LoadedModel(
            kind,
            models.general_luce(
                _utility(path, doc), consideration, max_universe=max_universe
            ),
        )

    if kind == "two_stage_luce":
        dominance = [tuple(pair) for pair in doc.get("dominance", [])]
        scf, proper = models.two_stage_luce(
            _utility(path, doc), dominance, max_universe=max_universe
        )
        note = "proper: utility increases along dominance" if proper else (
            "improper: utility does not increase along dominance"
        )
        return LoadedModel(kind, scf, (note,))

    if kind == "uniform_drum":
        return LoadedModel(
            kind,
            models.uniform_drum(
                _utility(path, doc, "first"),
                _utility(path, doc, "second"),
                _required(path, doc, "weight"),
                max_universe=max_universe,
            ),
        )

    if kind == "drum":
        weights = {
            tuple(menu): weight
            for menu, weight in _entries(path, doc, "weights", "menu", "weight")
        }
        return LoadedModel(
            kind,
            models.drum(
                _utility(path, doc, "first"),
                _utility(path, doc, "second"),
                weights,
                max_universe=max_universe,
            ),
        )

    if kind == "rum":
        components = list(_entries(path, doc, "components", "utility", "weight"))
        return LoadedModel(kind, models.rum(components, max_universe=max_universe))

    if kind == "tremble":
        return LoadedModel(
            kind,
            models.tremble(
                _utility(path, doc),
                _required(path, doc, "alpha"),
                max_universe=max_universe,
            ),
        )

    if kind == "mum":
        metric = {
            tuple(pair): distance
            for pair, distance in _entries(path, doc, "metric", "pair", "distance")
        }
        response = {
            parse_rational(str(arg)): value
            for arg, value in _entries(path, doc, "response", "arg", "value")
        }
        return LoadedModel(
            kind,
            models.mum_pairwise(
                _utility(path, doc), metric, response, max_universe=max_universe
            ),
        )

    if kind == "random":
        universe = doc.get("universe")
        if not isinstance(universe, list) or not universe:
            raise ValueError(f"{path}: random model needs a universe list")
        return LoadedModel(
            kind,
            models.random_scf(
                _integer(path, doc, "seed", default_seed),
                [str(x) for x in universe],
                denominator_bound=_integer(path, doc, "denominator_bound", 20),
                domain_kind=DomainKind(doc.get("domain", "full")),
                max_universe=max_universe,
            ),
        )

    raise ValueError(f"{path}: unknown model kind {kind!r}")
