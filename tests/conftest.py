import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from stochrat import DomainKind, StochasticChoiceFunction

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
    the lcm of its denominators, one per label of the table, sorted."""
    labels = sorted(set().union(*probs))
    rows = {}
    for menu, row in probs.items():
        values = {x: Fraction(p) for x, p in row.items()}
        scale = math.lcm(*(p.denominator for p in values.values()))
        rows[menu] = tuple(int(values.get(x, 0) * scale) for x in labels)
    return rows


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
    return StochasticChoiceFunction(table, DomainKind.FULL)


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
    return StochasticChoiceFunction(table, DomainKind.PAIRWISE)


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
    return StochasticChoiceFunction(table, DomainKind.PAIRWISE)
