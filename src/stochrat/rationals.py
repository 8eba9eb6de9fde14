"""Exact rational parsing and rendering, and a menu's integer row.

All quantitative work in this package happens on ``fractions.Fraction``
with arbitrary-precision integers, or on integer rows that stand for
them: :func:`probability_row` puts a menu's probability cells over their
least common denominator.  Floats appear as presentation, via
:func:`format_decimal`, and as filters that decide only where their error
bound allows and leave every closer case to an exact comparison
(``intervals.cell_masks``, ``measure.triangular_condition``).
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .errors import CapacityError

# Bounds on rational text.  Every digit, written or implied by an exponent,
# becomes a digit of an exact numerator or denominator that every later
# comparison carries; "1e-1000000" alone would be a 3.3M-bit denominator.
RATIONAL_TEXT_CAP = 1000
DECIMAL_EXPONENT_CAP = 1000
# Places after the point in every decimal that reports write.
DECIMAL_PLACES = 6

RationalLike = Union[Fraction, int, str]


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"``, ``"n"`` or a decimal literal into an exact Fraction.

    Decimal strings convert exactly: ``"0.8"`` becomes 4/5, not the binary
    float nearest to 0.8.  Text that is not ASCII or holds ``_``, text
    longer than :data:`RATIONAL_TEXT_CAP` characters and decimal exponents
    beyond :data:`DECIMAL_EXPONENT_CAP` in magnitude are rejected.
    """
    if not isinstance(text, str):
        raise ValueError(f"expected a rational string, got {text!r}")
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty rational string")
    if len(stripped) > RATIONAL_TEXT_CAP:
        raise ValueError(
            f"rational text of {len(stripped)} characters exceeds the cap of "
            f"{RATIONAL_TEXT_CAP}"
        )
    if "_" in stripped or not stripped.isascii():
        # digit separators and non-ASCII digits are Python literal syntax,
        # not data
        raise ValueError(f"not a rational number: {text!r}")
    _, marker, exponent = stripped.lower().partition("e")
    try:
        too_large = bool(marker) and abs(int(exponent)) > DECIMAL_EXPONENT_CAP
    except ValueError:
        too_large = False  # not an exponent; Fraction judges the text
    if too_large:
        raise ValueError(
            f"decimal exponent in {stripped!r} exceeds the cap of "
            f"{DECIMAL_EXPONENT_CAP} in magnitude"
        )
    try:
        return Fraction(stripped)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text!r}") from exc


def to_fraction(value: RationalLike, name: str, where: str = "") -> Fraction:
    """Exact Fraction from a rational string (see :func:`parse_rational`) or
    a number other than a bool.  ``name`` and ``where`` describe the value
    in errors, as in ``"bad weight 'x' for {a,b}"``; the error for text
    that does not parse ends with, and is caused by, the parser's."""
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except ValueError as exc:
            raise ValueError(f"bad {name} {value!r}{where}: {exc}") from exc
    if isinstance(value, bool):  # Fraction(True) is 1, but a flag is no number
        raise ValueError(f"bad {name} {value!r}{where}")
    try:
        return Fraction(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"bad {name} {value!r}{where}") from exc


def to_probability(value: RationalLike, name: str, where: str = "") -> Fraction:
    """:func:`to_fraction`, checked to lie in [0, 1]."""
    prob = to_fraction(value, name, where)
    if prob < 0 or prob > 1:
        raise ValueError(f"{name} {prob}{where} outside [0, 1]")
    return prob


def probability_pair(text: str) -> tuple[int, int]:
    """A probability cell's reduced (numerator, denominator): one gcd for
    digits within [0, 1], and :func:`to_probability` for any other text."""
    num, slash, den = text.partition("/")
    if len(text) <= RATIONAL_TEXT_CAP and text.isascii() and num.isdigit():
        p, q = int(num), int(den) if den.isdigit() else 0 if slash else 1
        if 0 < q and p <= q:
            g = math.gcd(p, q)
            return p // g, q // g
    prob = to_probability(text, "probability")
    return prob.numerator, prob.denominator


def probability_row(
    cells: Mapping[str, tuple[int, int]], members: Sequence[str]
) -> tuple[int, ...]:
    """A menu's integer row from its members' (numerator, denominator)
    probability cells, one entry per member of ``members``, in one pass:
    the list of the members' cells (a member without a cell reads as
    (0, 1)), one ``math.lcm`` of their denominators and one list of the
    numerators over it, whose sum is checked.  Cells that do not sum to one
    raise a ``ValueError``, to which the caller adds the menu's place."""
    pairs = [cells.get(x, (0, 1)) for x in members]
    scale = math.lcm(*[den for _, den in pairs])
    row = [num * (scale // den) for num, den in pairs]
    total = sum(row)
    if total != scale:
        raise ValueError(f"probabilities sum to {Fraction(total, scale)}, not 1")
    return tuple(row)


def format_rational(value: Fraction) -> str:
    """Canonical text form: ``"p/q"`` in lowest terms, or ``"n"`` for integers.

    A numerator or denominator longer than Python prints (see
    ``sys.get_int_max_str_digits``) raises :class:`CapacityError`.
    """
    if type(value) is not Fraction and type(value) is not int:
        value = Fraction(value)
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:
        longest = max(abs(value.numerator), value.denominator)
        # floor(log10 longest) or one more, as 0.30103 just exceeds log10 2
        digits = longest.bit_length() * 30103 // 100000
        digits += longest >= 10**digits
        raise CapacityError(
            f"an exact value's numerator or denominator of {digits} digits "
            f"exceeds Python's limit of {sys.get_int_max_str_digits()} digits "
            "for printing an integer"
        ) from None


def format_decimal(value: Fraction) -> str:
    """Fixed-point decimal rendering with :data:`DECIMAL_PLACES` places.

    Rounding is half away from zero, done in integer arithmetic so the
    output is identical on every platform.
    """
    if type(value) is not Fraction and type(value) is not int:
        value = Fraction(value)
    negative = value < 0
    num = abs(value.numerator)
    den = value.denominator
    scale = 10**DECIMAL_PLACES
    quo, rem = divmod(num * scale, den)
    if 2 * rem >= den:
        quo += 1
    whole, frac = divmod(quo, scale)
    sign = "-" if negative and quo else ""
    return f"{sign}{whole}.{frac:0{DECIMAL_PLACES}d}"
