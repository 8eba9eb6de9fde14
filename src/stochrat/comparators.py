"""Alternative rationality comparators.

Three ways of ranking subjects besides inclusion of irrationality sets:

* the *swap index*: the smallest expected number of better-ranked
  alternatives passed over, minimized over linear orders of the universe;
* a *menu-removal* comparator: compare the Houtman-Maks counts of the two
  threshold correspondences region by region;
* a *complete-preorder* comparator: compare the threshold regions on
  which each subject's correspondence can be generated by a complete
  preorder, decided by Richter's congruence axiom.

The threshold comparators exploit that the correspondence family is
piecewise constant between consecutive normalized-likelihood values, so
evaluating one point per region is exact.  The swap index runs up to
the full-domain universe cap on either domain and the complete-preorder
regions up to the domain caps; the menu-removal count is NP-hard and
stays capped at 20 menus.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from .choice import fishburn_correspondence, houtman_maks, is_totally_rational
from .errors import CapacityError
from .intervals import IntervalUnion
from .measure import ComparisonResult
from .menus import bits
from .record import Record
from .scf import FULL_UNIVERSE_CAP, StochasticChoiceFunction, threshold_cuts

_ZERO = Fraction(0)


class SwapResult(Record):
    """Exact swap index together with its minimizers.

    ``order`` is the lexicographically least optimal linear order, best
    alternative first; ``optimal_orders`` counts how many linear orders
    achieve the minimum.
    """

    value: Fraction
    order: tuple[str, ...]
    optimal_orders: int


def swap_index(scf: StochasticChoiceFunction) -> SwapResult:
    """Minimize the expected number of passed-over alternatives.

    For a linear order the cost is the sum over menus S and members x of
    P(x, S) times the number of members ranked above x.  The cost of
    placing x below a prefix set decomposes over pairs, so the minimum
    over all n! orders is found exactly with a subset dynamic program
    in 2^n * n^2 steps, up to the full-domain universe cap.
    """
    n = len(scf.universe)
    if n > FULL_UNIVERSE_CAP:
        raise CapacityError(
            f"swap index is exact only up to {FULL_UNIVERSE_CAP} alternatives; "
            f"got {n}"
        )

    # cost[a][b]: cost incurred by ranking a above b, i.e. the total
    # probability of b being chosen from menus containing both, on the
    # common scale of every menu's integer row (a row sums to its scale).
    core = scf.core
    scale = math.lcm(*(sum(core.scaled[mask]) for mask in core.by_key))
    cost = [[0] * n for _ in range(n)]
    for mask in core.by_key:
        row = core.scaled[mask]
        up = scale // sum(row)
        for (a, _), (b, num) in itertools.permutations(zip(core.members[mask], row), 2):
            cost[a][b] += num * up

    full = (1 << n) - 1
    # completion[mask]: minimal remaining cost when `mask` is already
    # placed on top; ties[mask]: number of optimal completions;
    # first[mask]: the least alternative that starts an optimal completion.
    completion = [0] * (full + 1)
    ties = [1] * (full + 1)
    first = [0] * (full + 1)
    for mask in range(full - 1, -1, -1):
        best = None
        for x in range(n):
            if mask & (1 << x):
                continue
            below = mask | (1 << x)
            total = sum(cost[a][x] for a in bits(mask)) + completion[below]
            if best is None or total < best:
                best, count, first[mask] = total, ties[below], x
            elif total == best:
                count += ties[below]
        completion[mask] = best
        ties[mask] = count

    # Following `first` from the empty prefix gives the lexicographically
    # least optimal order.
    order: list[str] = []
    mask = 0
    while mask != full:
        order.append(core.labels[first[mask]])
        mask |= 1 << first[mask]

    return SwapResult(
        value=Fraction(completion[0], scale),
        order=tuple(order),
        optimal_orders=ties[0],
    )


# -- threshold-region comparators ---------------------------------------------


def hybrid_compare(
    left: StochasticChoiceFunction, right: StochasticChoiceFunction
) -> ComparisonResult:
    """Compare threshold-wise Houtman-Maks counts (fewer removals wins).

    The left subject dominates when its count is no larger on every
    threshold region; the reported interval sets collect the regions
    where each side is strictly worse.
    """
    cuts = sorted(set(threshold_cuts(left)) | set(threshold_cuts(right)))
    left_worse = []
    right_worse = []
    for lower, cut in zip((_ZERO, *cuts), cuts):
        hl = houtman_maks(fishburn_correspondence(left, cut))
        hr = houtman_maks(fishburn_correspondence(right, cut))
        if hl > hr:
            left_worse.append((lower, cut))
        elif hl < hr:
            right_worse.append((lower, cut))
    return ComparisonResult.from_differences(
        IntervalUnion.from_pairs(left_worse), IntervalUnion.from_pairs(right_worse)
    )


def total_compare(
    left: StochasticChoiceFunction, right: StochasticChoiceFunction
) -> ComparisonResult:
    """Compare the regions where each threshold correspondence can be
    generated by a complete preorder.  The left subject dominates when it
    is complete-preorder-consistent wherever the right one is."""
    left_tr = totally_rational_regions(left)
    right_tr = totally_rational_regions(right)
    return ComparisonResult.from_sets(right_tr, left_tr)


def totally_rational_regions(scf: StochasticChoiceFunction) -> IntervalUnion:
    """Thresholds at which the correspondence has a complete-preorder
    generator, as an interval union over (0, 1]."""
    cuts = threshold_cuts(scf)
    return IntervalUnion.from_pairs(
        (lower, cut)
        for lower, cut in zip((_ZERO, *cuts), cuts)
        if is_totally_rational(fishburn_correspondence(scf, cut))
    )
