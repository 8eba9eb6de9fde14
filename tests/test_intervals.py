from fractions import Fraction

import pytest

from stochrat import IntervalUnion, SplitMix64

F = Fraction


def iu(*pairs):
    return IntervalUnion.from_pairs([(F(a), F(b)) for a, b in pairs])


def test_empty():
    assert IntervalUnion.empty().is_empty
    assert iu().is_empty
    assert iu((1, 1)).is_empty
    assert str(iu()) == "(empty)"


def test_single_interval_membership():
    u = iu(("1/4", "1/2"))
    # half-open on the left, closed on the right
    assert not u.contains(F(1, 4))
    assert u.contains(F(1, 3))
    assert u.contains(F(1, 2))
    assert not u.contains(F(3, 5))


def test_merging_adjacent_and_overlapping():
    assert iu((0, "1/2"), ("1/2", 1)) == iu((0, 1))
    assert iu((0, "2/3"), ("1/3", 1)) == iu((0, 1))
    assert iu(("1/4", "1/2"), ("3/4", 1)).intervals == (
        (F(1, 4), F(1, 2)),
        (F(3, 4), F(1)),
    )


def test_canonical_form_ignores_insertion_order():
    a = iu((0, "1/6"), ("1/4", "1/2"))
    b = iu(("1/4", "1/2"), (0, "1/6"))
    assert a == b
    assert a.intervals == b.intervals


def test_insert():
    single = IntervalUnion.single
    u = IntervalUnion.empty() | single(F(1, 2), F(3, 4)) | single(F(0), F(1, 2))
    # touching intervals merge
    assert u == iu((0, "3/4"))
    assert u.intervals == ((F(0), F(3, 4)),)
    # adding an empty interval is a no-op
    assert u | single(F(1, 4), F(1, 4)) == u


def test_union_and_intersection_operators():
    a = iu((0, "1/2"))
    b = iu(("1/4", "3/4"))
    assert (a | b) == iu((0, "3/4"))
    assert (a & b) == iu(("1/4", "1/2"))
    assert (a & iu(("1/2", 1))).is_empty


def test_complement_within_unit():
    assert iu(("1/6", "1/4"), ("1/2", 1)).complement() == iu((0, "1/6"), ("1/4", "1/2"))
    assert iu().complement() == iu((0, 1))
    assert iu((0, 1)).complement().is_empty


def test_difference():
    a = iu((0, 1))
    b = iu(("1/3", "2/3"))
    assert a.difference(b) == iu((0, "1/3"), ("2/3", 1))
    assert b.difference(a).is_empty


def test_subset():
    small = iu(("1/3", "1/2"))
    big = iu((0, "1/2"), ("3/4", 1))
    assert small.is_subset(big)
    assert not big.is_subset(small)
    assert IntervalUnion.empty().is_subset(small)


def test_measure():
    assert iu().measure() == 0
    assert iu((0, 1)).measure() == 1
    assert iu(("1/6", "1/4"), ("1/2", 1)).measure() == F(1, 12) + F(1, 2)


def test_str_rendering():
    assert str(iu(("1/6", "1/4"), ("1/2", 1))) == "(1/6,1/4] ∪ (1/2,1]"


def test_out_of_range_bounds_rejected():
    with pytest.raises(ValueError):
        iu(("-1/2", "1/2"))
    with pytest.raises(ValueError):
        iu((0, "3/2"))


def test_inverted_bounds_mean_empty():
    # formulas produce (lo, hi] with lo >= hi when no violation occurs
    assert iu(("1/2", "1/4")).is_empty


def random_union(gen, parts):
    pairs = []
    for _ in range(parts):
        a = F(gen.below(60), 60)
        b = F(gen.below(60), 60)
        if a > b:
            a, b = b, a
        pairs.append((a, b))
    return IntervalUnion.from_pairs(pairs)


def test_algebra_on_random_unions():
    gen = SplitMix64(2024)
    grid = [F(k, 120) for k in range(1, 121)]
    for _ in range(40):
        a = random_union(gen, 3)
        b = random_union(gen, 3)
        union = a | b
        inter = a & b
        diff = a.difference(b)
        for lam in grid:
            assert union.contains(lam) == (a.contains(lam) or b.contains(lam))
            assert inter.contains(lam) == (a.contains(lam) and b.contains(lam))
            assert diff.contains(lam) == (a.contains(lam) and not b.contains(lam))
        # inclusion-exclusion keeps the measures consistent
        assert union.measure() + inter.measure() == a.measure() + b.measure()
        # subset agrees with an empty difference and with pointwise inclusion
        assert a.is_subset(b) == diff.is_empty
        assert a.is_subset(b) == all(b.contains(lam) for lam in grid if a.contains(lam))
        assert a.is_subset(union) and inter.is_subset(a) and inter.is_subset(b)
        # the merged intersection is already canonical
        assert inter.intervals == IntervalUnion.from_pairs(inter.intervals).intervals
        # the merged union, one interval at a time or at once, equals the
        # sorted-and-merged canonical form
        assert union == IntervalUnion.from_pairs(a.intervals + b.intervals)
        inserted = a
        for lo, hi in b:
            inserted = inserted | IntervalUnion.single(lo, hi)
        assert inserted == union
        assert a.complement().measure() == 1 - a.measure()


# (lower, higher) pairs of distinct endpoints whose floats tie
_FLOAT_TIES = [
    (F(1 / 3), F(1, 3)),
    (F(1, 10), F(1 / 10)),
    (F(2, 3), F(2, 3) + F(1, 10**30)),
]
_POINTS = [F(0), F(1, 4), F(1, 2), F(1), *(end for pair in _FLOAT_TIES for end in pair)]


def _member(pairs, point):
    """Whether some raw pair (lo, hi] holds the point; inverted pairs hold none."""
    return any(lo < point <= hi for lo, hi in pairs)


def _draw_pairs(gen):
    """Up to four (lo, hi) pairs between drawn points, in drawn order."""
    return [
        (_POINTS[gen.below(len(_POINTS))], _POINTS[gen.below(len(_POINTS))])
        for _ in range(gen.below(5))
    ]


def _is_canonical(union):
    pieces = union.intervals
    return all(lo < hi for lo, hi in pieces) and all(
        left[1] < right[0] for left, right in zip(pieces, pieces[1:])
    )


def test_algebra_agrees_with_pointwise_membership_at_every_endpoint():
    # Every set here has its endpoints among _POINTS, and membership is
    # constant on each (e, e'] between consecutive points, so checking each
    # point decides every set exactly.
    gen = SplitMix64(18)
    cases = [(_draw_pairs(gen), _draw_pairs(gen)) for _ in range(300)]
    drawn = [pair for a_pairs, b_pairs in cases for pair in a_pairs + b_pairs]
    # the draws reach inverted, touching and overlapping pairs
    assert any(lo > hi for lo, hi in drawn)
    assert any(x[1] == y[0] and x[0] < x[1] < y[1] for x in drawn for y in drawn)
    assert any(x[0] < y[0] < x[1] < y[1] for x in drawn for y in drawn)
    for a_pairs, b_pairs in cases:
        a = IntervalUnion.from_pairs(a_pairs)
        b = IntervalUnion.from_pairs(b_pairs)
        results = a | b, a & b, a.difference(b), a.complement()
        assert all(_is_canonical(union) for union in (a, b, *results))
        for point in _POINTS:
            in_a, in_b = _member(a_pairs, point), _member(b_pairs, point)
            assert [union.contains(point) for union in (a, *results)] == [
                in_a,
                in_a or in_b,
                in_a and in_b,
                in_a and not in_b,
                point > 0 and not in_a,
            ]
        assert a.is_subset(b) == all(
            _member(b_pairs, point) for point in _POINTS if _member(a_pairs, point)
        )
