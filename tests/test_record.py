"""The immutable record base behaves as the frozen dataclasses it replaced."""

import dataclasses
from fractions import Fraction

import pytest

from stochrat import AnalysisConfig, IntervalUnion
from stochrat.record import Record

F = Fraction


class Point(Record):
    x: int
    y: int = 0
    label: str = "p"


@dataclasses.dataclass(frozen=True)
class DataPoint:
    x: int
    y: int = 0
    label: str = "p"


class Pair(Record):
    x: int
    y: int


class OtherPair(Record):
    x: int
    y: int


def test_construction_by_position_keyword_and_default():
    assert Point(1, 2, "q") == Point(x=1, y=2, label="q") == Point(1, label="q", y=2)
    point = Point(1)
    assert (point.x, point.y, point.label) == (1, 0, "p")
    assert AnalysisConfig() == AnalysisConfig(None, False)
    assert AnalysisConfig(oracle=True).max_universe is None
    assert IntervalUnion().intervals == () and IntervalUnion().is_empty


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((), {}, "missing required argument 'x'"),
        ((1, 2, "q", 4), {}, "takes 3 positional arguments but 4 were given"),
        ((1,), {"z": 2}, "unexpected keyword argument 'z'"),
        ((1,), {"x": 2}, "multiple values for argument 'x'"),
    ],
)
def test_bad_arguments_raise_type_error(args, kwargs, message):
    with pytest.raises(TypeError, match=message):
        Point(*args, **kwargs)


def test_interval_union_keeps_the_dataclass_signature():
    with pytest.raises(TypeError):
        IntervalUnion((), ())
    with pytest.raises(TypeError):
        IntervalUnion(pairs=())


def test_equality_only_between_instances_of_one_class():
    assert Pair(1, 2) == Pair(1, 2)
    assert Pair(1, 2) != Pair(2, 1)
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2) != Point(1, 2)
    assert Pair(1, 2) != (1, 2)


def test_hash_is_the_hash_of_the_fields_in_order():
    assert hash(Pair(1, 2)) == hash((1, 2))
    assert hash(Point(1, 2, "q")) == hash(DataPoint(1, 2, "q"))
    assert len({Pair(1, 2), Pair(1, 2), Pair(2, 1)}) == 2
    assert hash(IntervalUnion.single(F(1, 3), F(1, 2))) == hash(
        (((F(1, 3), F(1, 2)),),)
    )


def test_repr_is_the_dataclass_repr():
    assert repr(Point(1, 2, "q")) == repr(DataPoint(1, 2, "q")).replace(
        "DataPoint", "Point"
    )
    assert repr(AnalysisConfig()) == "AnalysisConfig(max_universe=None, oracle=False)"
    assert (
        repr(IntervalUnion.single(F(0), F(1, 2)))
        == "IntervalUnion(intervals=((Fraction(0, 1), Fraction(1, 2)),))"
    )


def test_fields_refuse_assignment_and_deletion():
    point = Point(1)
    with pytest.raises(AttributeError, match="cannot assign to field 'x'"):
        point.x = 2
    with pytest.raises(AttributeError):
        point.other = 2
    with pytest.raises(AttributeError):
        del point.x
    with pytest.raises(AttributeError):
        IntervalUnion().intervals = ()
    assert point == Point(1)
