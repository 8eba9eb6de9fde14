"""Reference computations the benchmark checks stochrat's reports against.

Nothing here imports stochrat.  A subject is a table of exact choice
probabilities over menus written as bitmasks of sorted label indices.  All
thresholds are handled as ranks: the distinct positive normalized
likelihoods c_1 < ... < c_K of a subject are its cuts, region k is the
threshold interval (c_{k-1}, c_k] (c_0 = 0), and the threshold
correspondence is constant on each region, with x kept in S exactly when
rank(nlik(x, S)) >= k.  So a threshold set is a set of regions, and checking
every region checks every threshold.

Two routes are kept apart on purpose:

* ``direct_violations`` builds the correspondence of one region and tests
  the three axioms from their definitions on bitmasks (contraction over all
  nested menu pairs up to 7 alternatives, over one-element steps above
  that, which is equivalent because a lost alternative is lost at some step
  of any chain of menus);
* ``axiom_regions`` marks, per axiom, the regions covered by the violation
  interval of every candidate: one-step menu pairs, (menu, alternative)
  pairs and ordered triples.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Optional

AXIOMS = ("chernoff", "condorcet", "transitivity")
Intervals = tuple[tuple[Fraction, Fraction], ...]


def popcount(mask: int) -> int:
    return bin(mask).count("1")


def bits(mask: int) -> list[int]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


@dataclass
class Subject:
    """Exact choice probabilities: ``probs[menu mask][label index]``."""

    name: str
    domain: str  # "full" | "pairwise"
    labels: tuple[str, ...]
    probs: dict[int, dict[int, Fraction]]
    meta: dict = field(default_factory=dict)
    counts: Optional[dict[int, dict[int, int]]] = None


def load_csv(path: Path) -> list[Subject]:
    """Read a dataset file in the stochrat CSV schema (count or prob rows)."""
    cells: dict[str, dict[tuple[str, ...], dict[str, Fraction]]] = {}
    with Path(path).open(newline="", encoding="utf-8") as handle:
        for row in csv.DictReader(handle):
            menu = tuple(sorted(part.strip() for part in row["menu"].split("|")))
            count = (row.get("count") or "").strip()
            value = Fraction(int(count)) if count else Fraction(row["prob"].strip())
            slot = cells.setdefault(row["subject"].strip(), {}).setdefault(menu, {})
            alt = row["alternative"].strip()
            slot[alt] = slot.get(alt, Fraction(0)) + value
    subjects = []
    for name in sorted(cells):
        menus = cells[name]
        labels = tuple(sorted({x for menu in menus for x in menu}))
        index = {x: i for i, x in enumerate(labels)}
        probs = {}
        for menu, row in menus.items():
            total = sum(row.values())
            mask = sum(1 << index[x] for x in menu)
            probs[mask] = {index[x]: row.get(x, Fraction(0)) / total for x in menu}
        domain = "pairwise" if max(len(m) for m in menus) == 2 else "full"
        subjects.append(Subject(name, domain, labels, probs))
    return subjects


# -- rationals and interval unions --------------------------------------------


def fmt_rational(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def fmt_decimal(value: Fraction, digits: int) -> str:
    """Fixed-point rendering, rounding half away from zero (value >= 0)."""
    scaled = value * 10**digits
    whole, rest = divmod(scaled.numerator, scaled.denominator)
    if 2 * rest >= scaled.denominator:
        whole += 1
    head, tail = divmod(whole, 10**digits)
    return f"{head}.{tail:0{digits}d}" if digits else str(head)


def parse_union(pairs: list) -> Intervals:
    return tuple((Fraction(lo), Fraction(hi)) for lo, hi in pairs)


def union_measure(union: Intervals) -> Fraction:
    return sum((hi - lo for lo, hi in union), Fraction(0))


def contains(union: Intervals, point: Fraction) -> bool:
    return any(lo < point <= hi for lo, hi in union)


def tremble_set(n: int, alpha: Fraction) -> Intervals:
    """Closed form ((1-a)/(1+(n-1)a), (1-a)/(1+a)] of a tremble on n labels."""
    lo = (1 - alpha) / (1 + (n - 1) * alpha)
    hi = (1 - alpha) / (1 + alpha)
    return ((lo, hi),) if lo < hi else ()


def two_ranking_set(first: list[int], second: list[int], w: Fraction) -> Intervals:
    """Closed form of a two-ranking mixture with weight w >= 1/2 on the
    first: empty when no triple is ordered x > y > z by the first ranking and
    exactly reversed by the second, else (0, (1-w)/w]."""
    pos1 = {x: p for p, x in enumerate(first)}
    pos2 = {x: p for p, x in enumerate(second)}
    for x, y, z in itertools.permutations(first, 3):
        if pos1[x] < pos1[y] < pos1[z] and pos2[z] < pos2[y] < pos2[x]:
            return ((Fraction(0), (1 - w) / w),)
    return ()


DEMO_SET: Intervals = (
    (Fraction(1, 6), Fraction(1, 4)),
    (Fraction(1, 2), Fraction(1)),
)


# -- per-subject reference ------------------------------------------------------


class Reference:
    """Rank-coded view of one subject, and the computations checks need."""

    def __init__(self, subject: Subject) -> None:
        self.subject = subject
        self.n = n = len(subject.labels)
        self.masks = sorted(subject.probs)
        nlik: dict[int, dict[int, Fraction]] = {}
        for mask, row in subject.probs.items():
            top = max(row.values())
            nlik[mask] = {i: p / top for i, p in row.items()}
        self.cuts = sorted({v for row in nlik.values() for v in row.values() if v > 0})
        rank = {v: k for k, v in enumerate(self.cuts, start=1)}
        rank[Fraction(0)] = 0
        self.rank_of = rank
        self.K = len(self.cuts)
        self.ranks = {m: [(i, rank[v]) for i, v in row.items()] for m, row in nlik.items()}
        self.rank_row = {m: dict(items) for m, items in self.ranks.items()}
        never = self.K + 1
        self.pair_rank = [[never] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            row = self.rank_row[(1 << i) | (1 << j)]
            self.pair_rank[i][j] = row[i]
            self.pair_rank[j][i] = row[j]

    # -- thresholds as regions ---------------------------------------------

    def region_of(self, value: Fraction) -> Optional[int]:
        """Rank of a cut (0 for 0); None if ``value`` is no cut."""
        return self.rank_of.get(value)

    def threshold(self, k: int) -> Fraction:
        return self.cuts[k - 1]

    def regions_to_union(self, marked: list[bool]) -> Intervals:
        out = []
        k = 1
        while k <= self.K:
            if marked[k]:
                start = k
                while k + 1 <= self.K and marked[k + 1]:
                    k += 1
                lo = self.cuts[start - 2] if start > 1 else Fraction(0)
                out.append((lo, self.cuts[k - 1]))
            k += 1
        return tuple(out)

    def axiom_regions(self) -> dict[str, list[bool]]:
        """Regions at which each axiom fails, from the candidate intervals."""
        K = self.K
        diffs = {axiom: [0] * (K + 2) for axiom in AXIOMS}

        def mark(diff: list[int], lo: int, hi: int) -> None:
            if lo < hi:
                diff[lo + 1] += 1
                diff[hi + 1] -= 1

        if self.subject.domain == "full":
            ch, con = diffs["chernoff"], diffs["condorcet"]
            for large in self.masks:
                if popcount(large) < 3:
                    continue
                row_large = self.rank_row[large]
                for dropped in row_large:
                    row_small = self.rank_row[large & ~(1 << dropped)]
                    for x, r_small in row_small.items():
                        mark(ch, r_small, row_large[x])
                for x, r_x in row_large.items():
                    bound = min(self.pair_rank[x][y] for y in row_large if y != x)
                    mark(con, r_x, bound)
        cyc = diffs["transitivity"]
        pr = self.pair_rank
        for x in range(self.n):
            column = [pr[y][x] for y in range(self.n)]
            for z in range(self.n):
                if z != x:
                    # y = x and y = z hit the diagonal (K + 1) and drop out.
                    mark(cyc, min(map(max, column, pr[z])), pr[z][x])
        out = {}
        for axiom, diff in diffs.items():
            level = 0
            marked = [False] * (K + 1)
            for k in range(1, K + 1):
                level += diff[k]
                marked[k] = level > 0
            out[axiom] = marked
        return out

    def exact_sets(self) -> dict[str, Intervals]:
        """Each axiom's threshold set and their union ("irrationality")."""
        regions = self.axiom_regions()
        sets = {axiom: self.regions_to_union(regions[axiom]) for axiom in AXIOMS}
        any_axiom = [any(regions[a][k] for a in AXIOMS) for k in range(self.K + 1)]
        sets["irrationality"] = self.regions_to_union(any_axiom)
        return sets

    # -- the correspondence of one region, tested from the definitions -----

    def chosen(self, k: int) -> dict[int, int]:
        return {m: sum(1 << i for i, r in items if r >= k) for m, items in self.ranks.items()}

    def strict_beats(self, chosen: dict[int, int]) -> list[int]:
        """beats[a]: labels b with C({a, b}) == {a}."""
        beats = [0] * self.n
        for a, b in itertools.combinations(range(self.n), 2):
            c = chosen[(1 << a) | (1 << b)]
            if c == 1 << a:
                beats[a] |= 1 << b
            elif c == 1 << b:
                beats[b] |= 1 << a
        return beats

    def direct_violations(self, k: int) -> tuple[bool, bool, bool]:
        """(contraction, pairwise winner, cycle) failures at region k."""
        chosen = self.chosen(k)
        contraction = winner = False
        if self.subject.domain == "full":
            all_pairs = self.n <= 7
            for large in self.masks:
                if popcount(large) < 3:
                    continue
                kept = chosen[large]
                if all_pairs:
                    small = (large - 1) & large
                    while small:
                        if popcount(small) >= 2 and kept & small & ~chosen[small]:
                            contraction = True
                            break
                        small = (small - 1) & large
                else:
                    for d in bits(large):
                        small = large & ~(1 << d)
                        if kept & small & ~chosen[small]:
                            contraction = True
                            break
                if contraction:
                    break
            wins = [0] * self.n  # wins[x]: y with x in C({x, y})
            for a, b in itertools.combinations(range(self.n), 2):
                c = chosen[(1 << a) | (1 << b)]
                if c >> a & 1:
                    wins[a] |= 1 << b
                if c >> b & 1:
                    wins[b] |= 1 << a
            for menu in self.masks:
                if popcount(menu) < 3:
                    continue
                for x in bits(menu & ~chosen[menu]):
                    if menu & ~(1 << x) & ~wins[x] == 0:
                        winner = True
                        break
                if winner:
                    break
        beats = self.strict_beats(chosen)
        cycle = any(
            beats[b] & ~beats[a] & ~(1 << a)
            for a in range(self.n)
            for b in bits(beats[a])
        )
        return contraction, winner, cycle

    def witness_holds(self, axiom: str, detail: tuple, k: int) -> bool:
        """Does ``detail`` violate ``axiom`` at region k, from the raw table?"""
        chosen = self.chosen(k)
        if axiom == "chernoff":
            small, large, x = detail
            return (
                small in chosen and large in chosen and small & ~large == 0
                and small != large and small >> x & 1
                and chosen[large] >> x & 1 and not chosen[small] >> x & 1
            )
        if axiom == "condorcet":
            menu, x = detail
            return (
                menu in chosen and popcount(menu) >= 3 and menu >> x & 1
                and not chosen[menu] >> x & 1
                and all(chosen[(1 << x) | (1 << y)] >> x & 1 for y in bits(menu) if y != x)
            )
        a, b, z = detail
        if len({a, b, z}) != 3:
            return False
        beats = self.strict_beats(chosen)
        return bool(beats[a] >> b & 1 and beats[b] >> z & 1 and not beats[a] >> z & 1)

    # -- head-to-head structure --------------------------------------------

    def pair_scaled(self) -> tuple[list[list[int]], int]:
        """P(i over j) times the common denominator L of all pairs, and L."""
        n = self.n
        probs = self.subject.probs
        L = 1
        for i, j in itertools.combinations(range(n), 2):
            L = math.lcm(L, probs[(1 << i) | (1 << j)][i].denominator)
        q = [[0] * n for _ in range(n)]
        for i, j in itertools.combinations(range(n), 2):
            row = probs[(1 << i) | (1 << j)]
            q[i][j] = int(row[i] * L)
            q[j][i] = int(row[j] * L)
        return q, L

    def transitivity_flags(self) -> tuple[dict[str, bool], Optional[tuple[int, int, int]]]:
        """Weak/moderate/strong stochastic transitivity (and the 'almost'
        variants with strict premises), plus the first ordered triple
        breaking P(x,y) + P(y,z) + P(z,x) <= 2, if any."""
        q, L = self.pair_scaled()
        flags = dict.fromkeys(
            ("weak", "almost_weak", "moderate", "almost_moderate", "strong"), True
        )
        tri = None
        for x, y, z in itertools.permutations(range(self.n), 3):
            xy, yz, xz = q[x][y], q[y][z], q[x][z]
            if tri is None and xy + yz + q[z][x] > 2 * L:
                tri = (x, y, z)
            if 2 * xy >= L and 2 * yz >= L:
                low, high = min(xy, yz), max(xy, yz)
                if 2 * xz < L:
                    flags["weak"] = False
                if xz < low:
                    flags["moderate"] = False
                if xz < high:
                    flags["strong"] = False
                if 2 * xy > L and 2 * yz > L:
                    if 2 * xz < L:
                        flags["almost_weak"] = False
                    if xz < low:
                        flags["almost_moderate"] = False
        return flags, tri

    def selectivity(self) -> tuple[bool, bool]:
        """(selective in contractions, selective in expansions) over every
        nested pair S < T, each ratio compared by cross multiplication."""
        rows = {}
        for mask, row in self.subject.probs.items():
            scale = math.lcm(*(p.denominator for p in row.values()))
            rows[mask] = {i: int(p * scale) for i, p in row.items()}
        contractions = expansions = True
        for large in self.masks:
            if popcount(large) < 3:
                continue
            p_large = rows[large]
            small = (large - 1) & large
            while small:
                if popcount(small) >= 2:
                    p_small = rows[small]
                    for x, y in itertools.permutations(p_small, 2):
                        if contractions and p_large[x] > p_large[y]:
                            if p_large[y] * p_small[x] < p_small[y] * p_large[x]:
                                contractions = False
                        if expansions and p_small[x] > p_small[y]:
                            if p_small[y] * p_large[x] < p_large[y] * p_small[x]:
                                expansions = False
                    if not (contractions or expansions):
                        return False, False
                small = (small - 1) & large
        return contractions, expansions
