"""Choice-data ingestion: CSV and JSON observation tables.

The CSV schema has columns ``subject``, ``menu``, ``alternative`` and one
of ``count`` / ``prob`` per row; ``menu`` is a ``|``-separated label list.
Count rows are trial tallies and get normalized exactly; prob rows carry
rational strings ("0.8", "2/3") that are parsed exactly.  The JSON format
mirrors the same fields:

    {"subjects": [{"subject": "s1",
                   "observations": [{"menu": ["x","y"],
                                     "alternative": "x",
                                     "count": 16}, ...]}, ...]}

Per subject and menu the rows must be all-count or all-prob; duplicate
count rows are summed, duplicate prob rows are rejected.  Each subject
must cover a complete domain: every two-element menu (pairwise) or every
menu of size at least two (full).  There is no imputation of missing
menus.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Union

from .choice import Menu, as_menu, menu_key, menu_str, sort_menus
from .rationals import format_rational, to_probability
from .scf import DomainKind, StochasticChoiceFunction, required_menus

_ONE = Fraction(1)


@dataclass(frozen=True)
class Observation:
    """One parsed data row."""

    subject: str
    menu: Menu
    alternative: str
    kind: str  # "count" | "prob"
    value: Union[int, Fraction]


def _parse_menu_field(field: str, where: str) -> Menu:
    labels = [part.strip() for part in field.split("|")]
    if any(not label for label in labels):
        raise ValueError(f"{where}: empty label in menu field {field!r}")
    if len(set(labels)) != len(labels):
        raise ValueError(f"{where}: duplicate label in menu field {field!r}")
    menu = as_menu(labels)
    if len(menu) < 2:
        raise ValueError(
            f"{where}: menu {field!r} has a single member; singleton menus "
            "are implicit and must not appear in data"
        )
    return menu


def _observation_from_fields(
    subject: str,
    menu_field: str,
    alternative: str,
    count_field: Optional[str],
    prob_field: Optional[str],
    where: str,
) -> Observation:
    if not subject:
        raise ValueError(f"{where}: empty subject id")
    menu = (
        _parse_menu_field(menu_field, where)
        if isinstance(menu_field, str)
        else as_menu(menu_field)
    )
    if not alternative:
        raise ValueError(f"{where}: empty alternative")
    if alternative not in menu:
        raise ValueError(
            f"{where}: alternative {alternative!r} not in menu {menu_str(menu)}"
        )
    has_count = count_field is not None and str(count_field).strip() != ""
    has_prob = prob_field is not None and str(prob_field).strip() != ""
    if has_count == has_prob:
        raise ValueError(f"{where}: each row needs exactly one of count/prob")
    if has_count:
        text = str(count_field).strip()
        try:
            count = int(text)
        except ValueError:
            raise ValueError(f"{where}: count {text!r} is not an integer") from None
        if count < 0:
            raise ValueError(f"{where}: count {count} is negative")
        return Observation(subject, menu, alternative, "count", count)
    prob = to_probability(str(prob_field), f"{where}: probability")
    return Observation(subject, menu, alternative, "prob", prob)


class ChoiceDataset:
    """Validated per-subject choice probabilities.

    Construction normalizes counts, enforces the one-mode-per-menu rule,
    and checks exact probability sums; :meth:`scf` additionally checks
    domain completeness when building a
    :class:`~stochrat.scf.StochasticChoiceFunction`.
    """

    def __init__(self, observations: Iterable[Observation]) -> None:
        modes: dict[tuple[str, Menu], str] = {}
        counts: dict[tuple[str, Menu], dict[str, int]] = {}
        probs: dict[tuple[str, Menu], dict[str, Fraction]] = {}
        for obs in observations:
            slot = (obs.subject, obs.menu)
            mode = modes.get(slot)
            if mode is None:
                modes[slot] = obs.kind
            elif mode != obs.kind:
                raise ValueError(
                    f"subject {obs.subject!r}, menu {menu_str(obs.menu)}: "
                    "count and prob rows are mixed"
                )
            if obs.kind == "count":
                row = counts.setdefault(slot, {})
                row[obs.alternative] = row.get(obs.alternative, 0) + int(obs.value)
            else:
                row = probs.setdefault(slot, {})
                if obs.alternative in row:
                    raise ValueError(
                        f"subject {obs.subject!r}, menu {menu_str(obs.menu)}: "
                        f"duplicate probability row for {obs.alternative!r}"
                    )
                row[obs.alternative] = Fraction(obs.value)

        table: dict[str, dict[Menu, dict[str, Fraction]]] = {}
        for (subject, menu), row in counts.items():
            total = sum(row.values())
            if total == 0:
                raise ValueError(
                    f"subject {subject!r}, menu {menu_str(menu)}: all counts zero"
                )
            dist = {x: Fraction(c, total) for x, c in row.items()}
            table.setdefault(subject, {})[menu] = dist
        for (subject, menu), dist in probs.items():
            total = sum(dist.values())
            if total != _ONE:
                raise ValueError(
                    f"subject {subject!r}, menu {menu_str(menu)}: probabilities "
                    f"sum to {total}, not 1"
                )
            table.setdefault(subject, {})[menu] = dict(dist)
        if not table:
            raise ValueError("dataset contains no observations")
        self._table = {
            subject: dict(sorted(menus.items(), key=lambda kv: menu_key(kv[0])))
            for subject, menus in sorted(table.items())
        }

    def subject_ids(self) -> list[str]:
        return list(self._table)

    def menus(self, subject: str) -> list[Menu]:
        return sort_menus(self._subject(subject))

    def _subject(self, subject: str) -> dict[Menu, dict[str, Fraction]]:
        try:
            return self._table[subject]
        except KeyError:
            raise ValueError(f"unknown subject {subject!r}") from None

    def domain_kind(self, subject: str) -> DomainKind:
        """Infer the domain kind from the menus present.

        All two-element menus over the subject's labels means pairwise
        (this wins for a two-label universe, where the kinds coincide);
        the complete family of larger menus means full.  Anything else is
        an incomplete domain and an error.
        """
        menus = self._subject(subject)
        labels = sorted(set().union(*menus.keys()))
        present = set(menus)
        if present == set(required_menus(labels, DomainKind.PAIRWISE)):
            return DomainKind.PAIRWISE
        full = required_menus(labels, DomainKind.FULL)
        if present == set(full):
            return DomainKind.FULL
        missing = [m for m in full if m not in present]
        if missing:
            raise ValueError(
                f"subject {subject!r} covers an incomplete domain: missing "
                f"menu {menu_str(missing[0])}"
                + (f" and {len(missing) - 1} more" if len(missing) > 1 else "")
            )
        raise ValueError(f"subject {subject!r} covers an inconsistent menu family")

    def scf(
        self, subject: str, max_universe: Optional[int] = None
    ) -> StochasticChoiceFunction:
        menus = self._subject(subject)
        kind = self.domain_kind(subject)
        return StochasticChoiceFunction(
            menus, kind, max_universe=max_universe
        )


# -- file front ends ---------------------------------------------------------


def _parse_csv(path: Path) -> list[Observation]:
    observations = []
    with path.open(newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty file")
        fields = [name.strip() for name in reader.fieldnames]
        required = {"subject", "menu", "alternative"}
        if not required <= set(fields):
            raise ValueError(
                f"{path}: header must contain subject, menu, alternative and "
                "count or prob columns"
            )
        if "count" not in fields and "prob" not in fields:
            raise ValueError(f"{path}: header needs a count or prob column")
        for row in reader:
            where = f"{path.name}:{reader.line_num}"
            observations.append(
                _observation_from_fields(
                    (row.get("subject") or "").strip(),
                    (row.get("menu") or "").strip(),
                    (row.get("alternative") or "").strip(),
                    row.get("count"),
                    row.get("prob"),
                    where,
                )
            )
    return observations


def _parse_json(path: Path) -> list[Observation]:
    with path.open(encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "subjects" not in data:
        raise ValueError(f"{path}: expected a top-level object with 'subjects'")
    observations = []
    for s_idx, entry in enumerate(data["subjects"]):
        subject = str(entry.get("subject", "")).strip()
        for o_idx, obs in enumerate(entry.get("observations", [])):
            where = f"{path.name}: subjects[{s_idx}].observations[{o_idx}]"
            menu = obs.get("menu")
            if not isinstance(menu, list):
                raise ValueError(f"{where}: menu must be a list of labels")
            count = obs.get("count")
            prob = obs.get("prob")
            observations.append(
                _observation_from_fields(
                    subject,
                    "|".join(str(x) for x in menu),
                    str(obs.get("alternative", "")).strip(),
                    None if count is None else str(count),
                    None if prob is None else str(prob),
                    where,
                )
            )
    return observations


def parse_dataset(path: Union[str, Path], fmt: Optional[str] = None) -> ChoiceDataset:
    """Load a dataset from CSV or JSON.  ``fmt`` defaults to the suffix."""
    path = Path(path)
    if fmt is None:
        fmt = path.suffix.lstrip(".").lower()
    if fmt == "csv":
        observations = _parse_csv(path)
    elif fmt == "json":
        observations = _parse_json(path)
    else:
        raise ValueError(f"unsupported dataset format {fmt!r}")
    return ChoiceDataset(observations)


def scf_to_rows(
    scf: StochasticChoiceFunction, subject: str = "model"
) -> list[dict[str, str]]:
    """Render an SCF as probability rows (zero-probability members are
    implied by the menu field and omitted)."""
    rows = []
    for menu in scf.menus():
        field = "|".join(sorted(menu))
        for alternative in sorted(menu):
            prob = scf.prob(alternative, menu)
            if prob == 0:
                continue
            rows.append(
                {
                    "subject": subject,
                    "menu": field,
                    "alternative": alternative,
                    "prob": format_rational(prob),
                }
            )
    return rows


def write_dataset_csv(path: Union[str, Path], rows: Iterable[dict[str, str]]) -> None:
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(
            handle, fieldnames=["subject", "menu", "alternative", "prob"]
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
