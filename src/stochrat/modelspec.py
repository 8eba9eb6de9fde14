"""Model specifications as JSON documents.

A model spec is a JSON object with a ``kind`` tag and kind-specific
parameters.  Numbers are rational strings or JSON numbers, both read
exactly from their text, so nothing passes through floats; ``seed`` and
``denominator_bound`` are JSON integers; a label is a string, or a number
read as its text.  Every error a spec causes is a ``ValueError`` that names
the file; a field of the wrong shape is named too.  Supported kinds:

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

import reprlib
from pathlib import Path
from typing import Optional, Union

from . import models
from .dataset import read_json
from .record import Record
from .scf import DomainKind, StochasticChoiceFunction


class LoadedModel(Record):
    kind: str
    scf: StochasticChoiceFunction
    notes: tuple[str, ...] = ()


_REQUIRED = object()


def _is_scalar(value: object) -> bool:
    """A JSON string or number, as :func:`read_json` returns them."""
    return isinstance(value, (str, int)) and not isinstance(value, bool)


def _checked(value, where: str, shape: str, test):
    if not test(value):
        raise ValueError(f"{where} must be {shape}, got {reprlib.repr(value)}")
    return value


def _labels(value: object, where: str, size: Optional[int] = None) -> tuple[str, ...]:
    """A list of labels, ``size`` of them if given, else one or more; a
    number is read as its text."""
    _checked(value, where, f"a list of {size or 'one or more'} labels", lambda v: (
        isinstance(v, list)
        and (len(v) == size if size else bool(v))
        and all(map(_is_scalar, v))
    ))
    return tuple(map(str, value))


class _Spec:
    """Checked reads of one spec object's fields, one method per field
    shape.  ``name`` is the object in errors: ``model spec``, or
    ``key[i]`` for the i-th item of the list under ``key``."""

    def __init__(self, doc: object, name: str = "model spec") -> None:
        self.doc = _checked(doc, name, "an object", lambda v: isinstance(v, dict))
        self.name = name

    def _field(self, key: str, shape: str = "", test=None, default: object = _REQUIRED):
        """The field ``key``, checked by ``test`` if one is given."""
        if key not in self.doc:
            if default is _REQUIRED:
                raise ValueError(f"{self.name} lacks field {key!r}")
            return default
        if test is None:
            return self.doc[key]
        return _checked(self.doc[key], f"{self.name} field {key!r}", shape, test)

    def value(self, key: str, default: object = _REQUIRED) -> Union[str, int]:
        """A string or a number: an ``int``, or the text of any other."""
        return self._field(key, "a string or a number", _is_scalar, default)

    def integer(self, key: str, default: int) -> int:
        return self._field(key, "an integer", lambda v: type(v) is int, default)

    def utility(self, key: str = "utility") -> dict:
        return self._field(
            key, "a nonempty object", lambda v: isinstance(v, dict) and bool(v)
        )

    def labels(self, key: str, size: Optional[int] = None) -> tuple[str, ...]:
        return _labels(self._field(key), f"{self.name} field {key!r}", size)

    def items(self, key: str) -> list[tuple[str, object]]:
        """Each item of the list under ``key`` (none if absent), named."""
        items = self._field(key, "a list", lambda v: isinstance(v, list), [])
        return [(f"{key}[{i}]", item) for i, item in enumerate(items)]

    def objects(self, key: str) -> list["_Spec"]:
        return [_Spec(item, where) for where, item in self.items(key)]


def load_model_spec(
    path: Union[str, Path],
    default_seed: int = 0,
    max_universe: Optional[int] = None,
) -> LoadedModel:
    path = Path(path)
    doc = read_json(path)
    try:
        return _build(_Spec(doc), default_seed, {"max_universe": max_universe})
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _build(spec: _Spec, default_seed: int, cap: dict) -> LoadedModel:
    kind = spec.value("kind")
    notes: tuple[str, ...] = ()
    if kind == "luce":
        scf = models.luce(spec.utility(), **cap)
    elif kind == "general_luce":
        consideration = {
            e.labels("menu"): e.labels("allowed") for e in spec.objects("consideration")
        }
        scf = models.general_luce(spec.utility(), consideration, **cap)
    elif kind == "two_stage_luce":
        dominance = [_labels(pair, where, 2) for where, pair in spec.items("dominance")]
        scf, proper = models.two_stage_luce(spec.utility(), dominance, **cap)
        notes = (
            "proper: utility increases along dominance" if proper
            else "improper: utility does not increase along dominance",
        )
    elif kind == "uniform_drum":
        first, second = spec.utility("first"), spec.utility("second")
        scf = models.uniform_drum(first, second, spec.value("weight"), **cap)
    elif kind == "drum":
        weights = {e.labels("menu"): e.value("weight") for e in spec.objects("weights")}
        scf = models.drum(spec.utility("first"), spec.utility("second"), weights, **cap)
    elif kind == "rum":
        components = [
            (e.utility(), e.value("weight")) for e in spec.objects("components")
        ]
        scf = models.rum(components, **cap)
    elif kind == "tremble":
        scf = models.tremble(spec.utility(), spec.value("alpha"), **cap)
    elif kind == "mum":
        metric = {
            e.labels("pair", 2): e.value("distance") for e in spec.objects("metric")
        }
        response = {e.value("arg"): e.value("value") for e in spec.objects("response")}
        scf = models.mum_pairwise(spec.utility(), metric, response, **cap)
    elif kind == "random":
        scf = models.random_scf(
            spec.integer("seed", default_seed),
            spec.labels("universe"),
            denominator_bound=spec.integer("denominator_bound", 20),
            domain_kind=DomainKind(spec.value("domain", "full")),
            **cap,
        )
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    return LoadedModel(kind, scf, notes)
