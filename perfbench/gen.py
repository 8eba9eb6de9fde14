"""Seeded input generator for the stochrat benchmark.

Every input is one CSV dataset in the ``subject,menu,alternative,count,prob``
schema that ``stochrat analyze`` reads; a run of a workload measures
``DATASETS`` of them.  The stream comes from the benchmark's own SplitMix64,
so a seed pins the file byte for byte.  The
exact probability rows of the model subjects (Luce, tremble, ranking
mixtures) are computed here, without calling ``stochrat.models``, and each
subject carries the parameters its closed-form check needs.

Usage: python3 perfbench/gen.py WORKLOAD RUN_SEED OUT_DIR

writes the inputs of the run with ``--seed RUN_SEED``, one CSV per generator
seed of ``dataset_seeds``, as OUT_DIR/WORKLOAD-J.csv.
"""

from __future__ import annotations

import itertools
import sys
from fractions import Fraction
from pathlib import Path

from reference import Subject, bits, fmt_rational, popcount

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """The SplitMix64 update rule; outputs are 64-bit integers."""

    def __init__(self, seed: int) -> None:
        self.state = seed & _MASK64

    def next(self) -> int:
        self.state = (self.state + 0x9E3779B97F4B9C15) & _MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        return self.next() % n

    def shuffled(self, items: list) -> list:
        items = list(items)
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
        return items


def full_masks(n: int) -> list[int]:
    return [m for m in range(1, 1 << n) if popcount(m) >= 2]


def pair_masks(n: int) -> list[int]:
    return [(1 << i) | (1 << j) for i, j in itertools.combinations(range(n), 2)]


# -- full-domain subjects ---------------------------------------------------


def random_table(rng: SplitMix64, name: str, labels: list[str], bound: int = 20) -> Subject:
    """Integer weights in [0, bound] per member, normalized per menu."""
    probs = {}
    for mask in full_masks(len(labels)):
        members = bits(mask)
        weights = [rng.below(bound + 1) for _ in members]
        if not any(weights):
            weights[0] = 1
        total = sum(weights)
        probs[mask] = {i: Fraction(w, total) for i, w in zip(members, weights)}
    return Subject(name, "full", tuple(labels), probs, {"kind": "random"})


def luce(rng: SplitMix64, name: str, labels: list[str]) -> Subject:
    """P(x, S) = u(x) / sum of u over S, with positive integer utilities."""
    u = [1 + rng.below(99) for _ in labels]
    probs = {}
    for mask in full_masks(len(labels)):
        members = bits(mask)
        total = sum(u[i] for i in members)
        probs[mask] = {i: Fraction(u[i], total) for i in members}
    return Subject(name, "full", tuple(labels), probs, {"kind": "luce"})


def _ranking(rng: SplitMix64, n: int) -> list[int]:
    """A ranking as position -> label index, best first."""
    return rng.shuffled(list(range(n)))


def _best(ranking: list[int], mask: int) -> int:
    return next(i for i in ranking if mask >> i & 1)


def tremble(rng: SplitMix64, name: str, labels: list[str]) -> Subject:
    """Maximize a ranking with probability a, otherwise pick uniformly."""
    n = len(labels)
    a = Fraction(1 + rng.below(8), 10)
    ranking = _ranking(rng, n)
    probs = {}
    for mask in full_masks(n):
        members = bits(mask)
        noise = (1 - a) / len(members)
        row = {i: noise for i in members}
        row[_best(ranking, mask)] += a
        probs[mask] = row
    return Subject(name, "full", tuple(labels), probs, {"kind": "tremble", "alpha": a})


def ranking_mixture(
    rng: SplitMix64, name: str, labels: list[str], weights: list[Fraction]
) -> Subject:
    """Mixture of random rankings; each menu's best under ranking r gets w_r."""
    n = len(labels)
    rankings = [_ranking(rng, n) for _ in weights]
    probs = {}
    for mask in full_masks(n):
        row = {i: Fraction(0) for i in bits(mask)}
        for ranking, w in zip(rankings, weights):
            row[_best(ranking, mask)] += w
        probs[mask] = row
    meta = {"kind": "mixture", "rankings": rankings, "weights": weights}
    return Subject(name, "full", tuple(labels), probs, meta)


def two_ranking_mixture(rng: SplitMix64, name: str, labels: list[str]) -> Subject:
    w = Fraction(5 + rng.below(4), 10)
    return ranking_mixture(rng, name, labels, [w, 1 - w])


def embedded_demo(rng: SplitMix64, name: str, labels: list[str]) -> Subject:
    """Three core alternatives carry the demo table of ``fixtures/demo_full3.csv``;
    the rest are never chosen next to a core member and follow a Luce model
    among themselves.  The irrationality set is then the demo's,
    (1/6,1/4] u (1/2,1], whatever the seed places where."""
    n = len(labels)
    core = rng.shuffled(list(range(n)))[:3]
    x, y, z = core
    demo = {
        (1 << x) | (1 << y): {x: Fraction(4, 5), y: Fraction(1, 5)},
        (1 << y) | (1 << z): {y: Fraction(2, 3), z: Fraction(1, 3)},
        (1 << x) | (1 << z): {x: Fraction(1, 3), z: Fraction(2, 3)},
        (1 << x) | (1 << y) | (1 << z): {
            x: Fraction(6, 13), y: Fraction(1, 13), z: Fraction(6, 13)
        },
    }
    core_mask = sum(1 << i for i in core)
    u = [1 + rng.below(99) for _ in labels]
    probs = {}
    for mask in full_masks(n):
        members = bits(mask)
        row = {i: Fraction(0) for i in members}
        inside = mask & core_mask
        if popcount(inside) >= 2:
            row.update(demo[inside])
        elif inside:
            row[bits(inside)[0]] = Fraction(1)
        else:
            total = sum(u[i] for i in members)
            row = {i: Fraction(u[i], total) for i in members}
        probs[mask] = row
    return Subject(name, "full", tuple(labels), probs, {"kind": "embedded_demo"})


# -- pairwise subjects --------------------------------------------------------


def _pairwise_from_counts(
    name: str, labels: list[str], counts: dict[int, dict[int, int]], meta: dict
) -> Subject:
    probs = {}
    for mask, row in counts.items():
        total = sum(row.values())
        probs[mask] = {i: Fraction(c, total) for i, c in row.items()}
    return Subject(name, "pairwise", tuple(labels), probs, meta, counts=counts)


def pairwise_random(rng: SplitMix64, name: str, labels: list[str], trials: int) -> Subject:
    counts = {}
    for mask in pair_masks(len(labels)):
        i, j = bits(mask)
        wins = rng.below(trials + 1)
        counts[mask] = {i: wins, j: trials - wins}
    return _pairwise_from_counts(name, labels, counts, {"kind": "pairwise_random"})


def _distinct_utilities(rng: SplitMix64, n: int) -> list[int]:
    return rng.shuffled(list(range(1, 10 * n + 1)))[:n]


def pairwise_ranking(rng: SplitMix64, name: str, labels: list[str]) -> Subject:
    """Pairwise Luce: x beats y in u(x) of u(x) + u(y) trials."""
    u = _distinct_utilities(rng, len(labels))
    counts = {}
    for mask in pair_masks(len(labels)):
        i, j = bits(mask)
        counts[mask] = {i: u[i], j: u[j]}
    return _pairwise_from_counts(name, labels, counts, {"kind": "pairwise_ranking"})


def pairwise_cycle(rng: SplitMix64, name: str, labels: list[str]) -> Subject:
    """Pairwise Luce with one reversed pair: for a seeded a > b > c the pair
    {a, c} is won by c with a's count, which plants the cycle a > b > c > a."""
    n = len(labels)
    u = _distinct_utilities(rng, n)
    a, b, c = sorted(rng.shuffled(list(range(n)))[:3], key=lambda i: -u[i])
    counts = {}
    for mask in pair_masks(n):
        i, j = bits(mask)
        counts[mask] = {i: u[i], j: u[j]}
    counts[(1 << a) | (1 << c)] = {a: u[c], c: u[a]}
    meta = {"kind": "pairwise_cycle", "triple": (a, b, c)}
    return _pairwise_from_counts(name, labels, counts, meta)


# -- workloads ------------------------------------------------------------------


def _labels(prefix: str, n: int) -> list[str]:
    width = len(str(n))
    return [f"{prefix}{i + 1:0{width}d}" for i in range(n)]


def full_domain(rng: SplitMix64) -> list[Subject]:
    return [
        random_table(rng, "f1_random", _labels("x", 9)),
        embedded_demo(rng, "f2_embedded_demo", _labels("x", 9)),
        luce(rng, "f3_luce", _labels("x", 8)),
        tremble(rng, "f4_tremble", _labels("x", 9)),
        two_ranking_mixture(rng, "f5_two_rankings", _labels("x", 8)),
        ranking_mixture(
            rng, "f6_three_rankings", _labels("x", 8),
            [Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)],
        ),
    ]


def pairwise_wide(rng: SplitMix64) -> list[Subject]:
    return [
        pairwise_random(rng, "w1_random", _labels("g", 32), trials=100),
        pairwise_ranking(rng, "w2_ranking", _labels("g", 32)),
        pairwise_cycle(rng, "w3_cycle", _labels("g", 24)),
    ]


PANEL_PAIRWISE = 200
PANEL_FULL = 20


def panel_many(rng: SplitMix64) -> list[Subject]:
    gambles = _labels("g", 5)
    subjects = [
        pairwise_random(rng, f"p{k:03d}", gambles, trials=100)
        for k in range(1, PANEL_PAIRWISE + 1)
    ]
    for k in range(1, PANEL_FULL + 1):
        n = 4 + k % 3
        subjects.append(random_table(rng, f"q{k:03d}", _labels("x", n), bound=10))
    return subjects


WORKLOADS = {
    "full_domain": full_domain,
    "pairwise_wide": pairwise_wide,
    "panel_many": panel_many,
}


# A run measures this many inputs of its workload, so that one input's
# seed-driven cost (panel_many's class count, for one) weighs an eighth.
DATASETS = 8


def dataset_seeds(seed: int) -> list[int]:
    """Generator seeds of the inputs of the run with seed ``seed``."""
    return [seed * DATASETS + j for j in range(DATASETS)]


def generate(workload: str, seed: int) -> list[Subject]:
    return WORKLOADS[workload](SplitMix64(seed))


def write_csv(subjects: list[Subject], path: Path) -> int:
    """Write the dataset; count subjects become count rows, the rest exact
    probability rows with every member listed.  Returns the row count."""
    lines = ["subject,menu,alternative,count,prob"]
    for s in subjects:
        for mask in sorted(s.probs):
            members = bits(mask)
            field = "|".join(s.labels[i] for i in members)
            for i in members:
                if s.counts is not None:
                    lines.append(f"{s.name},{field},{s.labels[i]},{s.counts[mask][i]},")
                else:
                    lines.append(f"{s.name},{field},{s.labels[i]},,{fmt_rational(s.probs[mask][i])}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return len(lines) - 1


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: gen.py {{{','.join(WORKLOADS)}}} RUN_SEED OUT_DIR")
    workload, out_dir = sys.argv[1], Path(sys.argv[3])
    out_dir.mkdir(parents=True, exist_ok=True)
    for j, seed in enumerate(dataset_seeds(int(sys.argv[2]))):
        path = out_dir / f"{workload}-{j}.csv"
        rows = write_csv(generate(workload, seed), path)
        print(f"wrote {path} (generator seed {seed}, {rows} rows)")
