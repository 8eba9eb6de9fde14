import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stochrat import DomainKind, StochasticChoiceFunction
from stochrat.models import luce, random_scf, tremble

sys.path.insert(0, str(Path(__file__).parent))

FIXTURES = Path(__file__).parent.parent / "fixtures"


def fraction_table(rows):
    """Build the probabilities mapping from (menu, {label: value}) pairs."""
    return {
        frozenset(menu): {label: Fraction(v) for label, v in probs.items()}
        for menu, probs in rows
    }


def integer_rows(probs):
    """A probability table (menu -> member -> value, omitted members at
    zero) as the integer rows a dataset holds: each menu's numerators over
    the lcm of its denominators, one per member of the menu, sorted."""
    rows = {}
    for menu, row in probs.items():
        values = {x: Fraction(p) for x, p in row.items()}
        scale = math.lcm(*(p.denominator for p in values.values()))
        rows[menu] = tuple(int(values.get(x, 0) * scale) for x in sorted(menu))
    return rows


# Labels that need JSON escapes or are not ASCII: a quote, a backslash, an
# accented letter and the line separator U+2028.
PANEL_LABELS = ('a"', "b\\", "c\u00e9", "d\u2028", "e", "f", "g", "h")


def _luce_with_a_flat_pair(size):
    """Luce on the first ``size`` panel labels with one pair, top against
    bottom, replaced by an even split: two maximal intervals, a
    pairwise-winner witness at the first and a cycle witness at the second."""
    labels = PANEL_LABELS[:size]
    base = luce(dict(zip(labels, (20, 13, 12, 11, 10, 9)[: size - 1] + (1,))))
    flat = luce(dict.fromkeys(labels, 1))
    pair = frozenset((labels[0], labels[-1]))
    return StochasticChoiceFunction(
        {m: (flat if m == pair else base).menu_probs(m) for m in base.menus()},
    )


def seeded_panel():
    """Subject name -> integer rows of a seeded panel over both domains.

    Thirty pairwise subjects on five labels; full-domain subjects at n = 6
    and 7 (random tables, Luce, a tremble and Luce with a flat pair), whose
    witnesses cover all three axioms; and one random subject at n = 8, over
    a universe cap of 7.  Subject names and labels need JSON escapes."""
    subjects = {}
    for k in range(30):
        subjects[f'pair "{k}"'] = random_scf(
            k, PANEL_LABELS[:5], denominator_bound=20, domain_kind=DomainKind.PAIRWISE
        )
    for size in (6, 7):
        labels = PANEL_LABELS[:size]
        subjects[f"random\\{size}"] = random_scf(size, labels, denominator_bound=9)
        subjects[f"luce\u00e9{size}"] = luce(dict(zip(labels, range(1, size + 1))))
        subjects[f"tremble\u2028{size}"] = tremble(
            dict(zip(labels, range(size, 0, -1))), Fraction(1, 3)
        )
        subjects[f"flat pair {size}"] = _luce_with_a_flat_pair(size)
    subjects["over the cap"] = random_scf(8, PANEL_LABELS, denominator_bound=5)
    return {
        name: integer_rows({m: scf.menu_probs(m) for m in scf.menus()})
        for name, scf in subjects.items()
    }


@pytest.fixture
def demo_scf():
    """Full-domain subject on {x, y, z} with one nested inconsistency and
    one pairwise cycle; the workhorse example for the interval machinery."""
    table = fraction_table(
        [
            (("x", "y"), {"x": Fraction(4, 5), "y": Fraction(1, 5)}),
            (("y", "z"), {"y": Fraction(2, 3), "z": Fraction(1, 3)}),
            (("x", "z"), {"x": Fraction(1, 3), "z": Fraction(2, 3)}),
            (
                ("x", "y", "z"),
                {"x": Fraction(6, 13), "y": Fraction(1, 13), "z": Fraction(6, 13)},
            ),
        ]
    )
    return StochasticChoiceFunction(table)


@pytest.fixture
def pairwise_cycle_23():
    """2/3-probability cycle on three alternatives, pairwise domain."""
    table = fraction_table(
        [
            (("x", "y"), {"x": Fraction(2, 3), "y": Fraction(1, 3)}),
            (("y", "z"), {"y": Fraction(2, 3), "z": Fraction(1, 3)}),
            (("x", "z"), {"x": Fraction(1, 3), "z": Fraction(2, 3)}),
        ]
    )
    return StochasticChoiceFunction(table)


@pytest.fixture
def pairwise_cycle_07():
    """7/10-probability cycle; strong enough to break the triangular
    condition."""
    table = fraction_table(
        [
            (("x", "y"), {"x": Fraction(7, 10), "y": Fraction(3, 10)}),
            (("y", "z"), {"y": Fraction(7, 10), "z": Fraction(3, 10)}),
            (("x", "z"), {"x": Fraction(3, 10), "z": Fraction(7, 10)}),
        ]
    )
    return StochasticChoiceFunction(table)
