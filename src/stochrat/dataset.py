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

JSON menu labels may not contain ``|``, which the CSV form cannot hold.
Per subject and menu the rows must be all-count or all-prob; duplicate
count rows are summed, duplicate prob rows are rejected.  Each subject
must cover a complete domain: every two-element menu (pairwise) or every
menu of size at least two (full).  There is no imputation of missing
menus.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Mapping, Optional, Sequence, Union

from .menus import Menu, MenuLayout, as_menu, menu_str, menu_table
from .rationals import (
    RATIONAL_TEXT_CAP, format_rational, probability_pair, probability_row
)
from .scf import StochasticChoiceFunction


class _RowFault(ValueError):
    """A fault of one data row.  The reader that walks the rows adds the
    row's place to the message, so no place is written for a sound row."""


def _json_text(value: object) -> str:
    """A JSON label as text; null reads as a missing value, like an empty
    CSV cell."""
    return "" if value is None else str(value)


class _Ingest:
    """The one route from data rows to per-subject probability rows.

    Each distinct menu and each distinct probability cell (as its reduced
    integer pair) of a file is parsed once.  :meth:`place` checks a row's
    subject and menu and names its (subject, menu) slot, which a reader may
    reuse while those fields repeat; :meth:`add` sums (counts) or collects
    (probabilities) the rest of the row there.  :meth:`table` then turns
    each slot into the one integer row that the dataset and the subject
    keep, over its counts' gcd or its cells' common denominator.

    Each distinct subject and label is kept as one ``str`` in ``names``,
    however many rows name it, and :meth:`table` releases each (subject,
    menu) slot as it builds that slot's row.
    """

    def __init__(self) -> None:
        self.names: dict[str, str] = {}
        self.menus: dict[Union[str, tuple[str, ...]], Menu] = {}
        self.cells: dict[str, tuple[int, int]] = {}
        # (subject, menu) -> (kind, alternative -> count or (num, den))
        self.slots: dict[tuple[str, Menu], tuple[str, dict]] = {}

    def menu(self, written: Union[str, list]) -> Menu:
        """A CSV menu field (``|``-separated) or a JSON label list."""
        key = written if isinstance(written, str) else tuple(map(_json_text, written))
        menu = self.menus.get(key)
        if menu is not None:
            return menu
        if isinstance(key, str):
            labels, field = key.split("|"), key
        else:
            for label in key:
                if "|" in label:
                    raise _RowFault(
                        f"label {label!r} contains '|', which a CSV "
                        "menu field cannot hold"
                    )
            labels, field = key, "|".join(key)
        labels = [label.strip() for label in labels]
        if not labels or any(not label for label in labels):
            raise _RowFault(f"empty label in menu field {field!r}")
        if len(set(labels)) != len(labels):
            raise _RowFault(f"duplicate label in menu field {field!r}")
        menu = as_menu([self.names.setdefault(label, label) for label in labels])
        if len(menu) < 2:
            raise _RowFault(
                f"menu {field!r} has a single member; singleton menus "
                "are implicit and must not appear in data"
            )
        self.menus[key] = menu
        return menu

    def place(self, subject: str, written_menu: Union[str, list]) -> tuple[str, Menu]:
        """Check a row's subject and menu; the row's (subject, menu) slot."""
        if not subject:
            raise _RowFault("empty subject id")
        menu = self.menu(written_menu)
        return self.names.setdefault(subject, subject), menu

    def add(
        self,
        slot: tuple[str, Menu],
        alternative: str,
        count_field: Optional[str],
        prob_field: Optional[str],
    ) -> None:
        """Validate the rest of a row of the slot and fold it in."""
        subject, menu = slot
        if not alternative:
            raise _RowFault("empty alternative")
        if alternative not in menu:
            raise _RowFault(f"alternative {alternative!r} not in menu {menu_str(menu)}")
        alternative = self.names[alternative]
        count_text = "" if count_field is None else count_field.strip()
        prob_text = "" if prob_field is None else prob_field.strip()
        if bool(count_text) == bool(prob_text):
            raise _RowFault("each row needs exactly one of count/prob")
        if count_text:
            kind = "count"
            if len(count_text) > RATIONAL_TEXT_CAP:
                raise _RowFault(
                    f"count {count_text[:20] + '…'!r} of {len(count_text)} "
                    f"characters exceeds the cap of {RATIONAL_TEXT_CAP}"
                )
            digits = count_text[1:] if count_text[0] in "+-" else count_text
            if not (digits.isascii() and digits.isdigit()):
                raise _RowFault(f"count {count_text!r} is not an integer")
            value: Union[int, tuple[int, int]] = int(count_text)
            if value < 0:
                raise _RowFault(f"count {value} is negative")
        else:
            kind = "prob"
            value = self.cells.get(prob_text)
            if value is None:
                try:
                    value = self.cells[prob_text] = probability_pair(prob_text)
                except ValueError as exc:
                    # the row's place names the cell: text that does not
                    # parse gets the parser's own message, its cause
                    raise _RowFault(str(exc.__cause__ or exc)) from None
        entry = self.slots.get(slot)
        if entry is None:
            entry = self.slots[slot] = (kind, {})
        elif entry[0] != kind:
            raise ValueError(
                f"subject {subject!r}, menu {menu_str(menu)}: "
                "count and prob rows are mixed"
            )
        row = entry[1]
        if kind == "count":
            row[alternative] = row.get(alternative, 0) + value
        elif alternative in row:
            raise ValueError(
                f"subject {subject!r}, menu {menu_str(menu)}: "
                f"duplicate probability row for {alternative!r}"
            )
        else:
            row[alternative] = value

    def table(self) -> dict[str, dict[Menu, tuple[int, ...]]]:
        """Each subject's menus and their integer rows, one entry per member
        in sorted label order: counts over their gcd, probabilities over
        the lcm of their denominators."""
        members: dict[Menu, tuple[str, ...]] = {}  # each menu's sorted labels
        table: dict[str, dict[Menu, tuple[int, ...]]] = {}
        for subject, menu in list(self.slots):
            kind, cells = self.slots.pop((subject, menu))
            order = members.get(menu)
            if order is None:
                order = members[menu] = tuple(sorted(menu))
            if kind == "count":
                divisor = math.gcd(*cells.values())
                if not divisor:
                    raise ValueError(
                        f"subject {subject!r}, menu {menu_str(menu)}: all counts zero"
                    )
                row = tuple(cells.get(x, 0) // divisor for x in order)
            else:
                try:
                    row = probability_row(cells, order)
                except ValueError as exc:
                    raise ValueError(
                        f"subject {subject!r}, menu {menu_str(menu)}: {exc}"
                    ) from None
            table.setdefault(subject, {})[menu] = row
        return table


class ChoiceDataset:
    """Per-subject choice data, as read by :func:`parse_dataset`.

    ``table`` maps each subject to its menus and their integer rows: one
    nonnegative integer per member of the menu in sorted label order, in
    lowest terms, so that a member's probability on the menu is its entry
    over the row's sum.  Every menu is a frozenset of at least two
    alternatives.  A row of any other length, such as one entry per label
    of the subject, fails at :meth:`scf` with a message that names the
    menu and the count it needs.  :meth:`scf` builds a
    :class:`~stochrat.scf.StochasticChoiceFunction` on these rows
    (:meth:`~stochrat.scf.StochasticChoiceFunction.from_rows`), which
    validates them and the domain.

    Subjects on equal menu sets share one
    :class:`~stochrat.menus.MenuLayout`, made at the first :meth:`scf` on
    those menus: its labels are checked once, and its menu tables are built
    at the first core that reads them.
    """

    def __init__(self, table: Mapping[str, Mapping[Menu, Sequence[int]]]) -> None:
        if not table:
            raise ValueError("dataset contains no observations")
        for subject, menus in table.items():
            for menu in menus:
                if not isinstance(menu, frozenset) or len(menu) < 2:
                    raise ValueError(
                        f"subject {subject!r}: menu {menu!r} is not a frozenset "
                        "of at least two alternatives"
                    )
        self._table = {subject: table[subject] for subject in sorted(table)}
        self._layouts: dict[frozenset[Menu], MenuLayout] = {}

    def subject_ids(self) -> list[str]:
        return list(self._table)

    def scf(
        self, subject: str, max_universe: Optional[int] = None
    ) -> StochasticChoiceFunction:
        """The subject's :class:`~stochrat.scf.StochasticChoiceFunction`,
        which infers its domain kind from its menus; a ``ValueError`` from
        building it names the subject."""
        try:
            menus = self._table[subject]
        except KeyError:
            raise ValueError(f"unknown subject {subject!r}") from None
        key = frozenset(menus)
        try:
            layout = self._layouts.get(key)
            if layout is None:
                layout = self._layouts[key] = MenuLayout(menu_table(menus)[1], menus)
            return StochasticChoiceFunction.from_rows(
                menus, max_universe=max_universe, layout=layout
            )
        except ValueError as exc:
            raise ValueError(f"subject {subject!r}: {exc}") from None


# -- file front ends ---------------------------------------------------------


def _read_csv(path: Path, ingest: _Ingest) -> None:
    with path.open(newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            _read_csv_rows(path, reader, ingest)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise ValueError(f"{path.name}:{reader.line_num}: {exc}") from None


def _read_csv_rows(path: Path, reader, ingest: _Ingest) -> None:
    header = next(reader, None)
    if header is None:
        raise ValueError(f"{path}: empty file")
    fields = [name.strip() for name in header]
    required = {"subject", "menu", "alternative"}
    if not required <= set(fields):
        raise ValueError(
            f"{path}: header must contain subject, menu, alternative and "
            "count or prob columns"
        )
    if "count" not in fields and "prob" not in fields:
        raise ValueError(f"{path}: header needs a count or prob column")
    column = {name: i for i, name in enumerate(fields)}
    width = len(fields)
    subject_at, menu_at, alternative_at = (
        column[name] for name in ("subject", "menu", "alternative")
    )
    count_at, prob_at = column.get("count"), column.get("prob")
    # the slot of the last row, kept while the raw subject and menu fields
    # repeat
    written = slot = None
    try:
        for row in reader:
            if not row:
                continue
            if len(row) < width:  # a short row's missing cells read as empty
                row += [""] * (width - len(row))
            fields = row[subject_at], row[menu_at]
            if fields != written:
                slot = ingest.place(fields[0].strip(), fields[1].strip())
                written = fields
            ingest.add(
                slot,
                row[alternative_at].strip(),
                None if count_at is None else row[count_at],
                None if prob_at is None else row[prob_at],
            )
    except _RowFault as exc:
        raise ValueError(f"{path.name}:{reader.line_num}: {exc}") from None


def _json_int(text: str) -> Union[int, str]:
    """A JSON integer literal, kept as text beyond the rational text cap so
    that the cell's own check, not the interpreter's digit limit, rejects
    it with its place."""
    return int(text) if len(text) <= RATIONAL_TEXT_CAP else text


def read_json(path: Path) -> object:
    """The JSON document in ``path``, with a byte-order mark skipped.
    Integers within the rational text cap are ``int``s; every other number,
    ``NaN`` and ``Infinity`` included, stays as its source text, so that the
    exact rational parser reads it and no binary float comes between.
    ``json`` is loaded here, so reading a CSV dataset never loads it."""
    import json

    with path.open(encoding="utf-8-sig") as handle:
        try:
            return json.load(
                handle, parse_int=_json_int, parse_float=str, parse_constant=str
            )
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _read_json(path: Path, ingest: _Ingest) -> None:
    data = read_json(path)
    if not isinstance(data, dict) or not isinstance(data.get("subjects"), list):
        raise ValueError(f"{path}: expected a top-level object with 'subjects'")
    for s_idx, entry in enumerate(data["subjects"]):
        place = f"{path.name}: subjects[{s_idx}]"
        if not isinstance(entry, dict) or not isinstance(
            entry.get("observations", []), list
        ):
            raise ValueError(f"{place}: expected an object with an 'observations' list")
        subject = _json_text(entry.get("subject")).strip()
        for o_idx, obs in enumerate(entry.get("observations", [])):
            try:
                if not isinstance(obs, dict):
                    raise _RowFault("expected an object")
                menu = obs.get("menu")
                if not isinstance(menu, list):
                    raise _RowFault("menu must be a list of labels")
                count = obs.get("count")
                prob = obs.get("prob")
                ingest.add(
                    ingest.place(subject, menu),
                    _json_text(obs.get("alternative")).strip(),
                    None if count is None else str(count),
                    None if prob is None else str(prob),
                )
            except _RowFault as exc:
                raise ValueError(f"{place}.observations[{o_idx}]: {exc}") from None


def parse_dataset(path: Union[str, Path]) -> ChoiceDataset:
    """Load a dataset from CSV or JSON, as the file suffix says.  A byte-order
    mark at the start of the file is skipped."""
    path = Path(path)
    fmt = path.suffix.lstrip(".").lower()
    ingest = _Ingest()
    if fmt == "csv":
        _read_csv(path, ingest)
    elif fmt == "json":
        _read_json(path, ingest)
    else:
        raise ValueError(f"unsupported dataset format {fmt!r}")
    return ChoiceDataset(ingest.table())


def scf_to_rows(
    scf: StochasticChoiceFunction, subject: str = "model"
) -> list[dict[str, str]]:
    """Render an SCF as probability rows (zero-probability members are
    implied by the menu field and omitted)."""
    rows = []
    for menu in scf.menus():
        field = "|".join(sorted(menu))
        for alternative, prob in scf.menu_probs(menu).items():
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
