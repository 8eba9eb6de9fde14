"""Checks of a ``stochrat analyze --format json`` report against the
reference computations in :mod:`reference`.

``check_report`` returns the problems found per subject; a subject with no
problem is a correct operation.  A problem in the cross-subject comparison
is charged to every subject it names.
"""

from __future__ import annotations

import itertools

from gen import SplitMix64
from reference import (
    AXIOMS,
    DEMO_SET,
    Reference,
    Subject,
    contains,
    fmt_decimal,
    fmt_rational,
    parse_union,
    tremble_set,
    two_ranking_set,
    union_measure,
)

# Direct axiom checks cost about (regions x menus); above this budget a
# seeded sample of regions is checked, plus the regions at every boundary
# of the reported set.
DIRECT_BUDGET = 200_000

_FLAG_KEYS = {
    "weak": "weak_s_transitive",
    "almost_weak": "almost_weak_s_transitive",
    "moderate": "moderate_s_transitive",
    "almost_moderate": "almost_moderate_s_transitive",
    "strong": "strong_s_transitive",
}


def _regions_to_check(ref: Reference, union, rng: SplitMix64) -> list[int]:
    if ref.K * len(ref.masks) <= DIRECT_BUDGET:
        return list(range(1, ref.K + 1))
    picked = {1 + rng.below(ref.K) for _ in range(max(8, DIRECT_BUDGET // len(ref.masks)))}
    for lo, hi in union:
        for value in (lo, hi):
            k = ref.region_of(value)
            if k is not None:
                picked.update(r for r in (k, k + 1) if 1 <= r <= ref.K)
    return sorted(picked)


def _witness_detail(w: dict, index: dict[str, int]):
    def mask(labels: list[str]) -> int:
        return sum(1 << index[x] for x in labels)

    if w["axiom"] == "chernoff":
        return mask(w["menu"]), mask(w["larger_menu"]), index[w["alternative"]]
    if w["axiom"] == "condorcet":
        return mask(w["menu"]), index[w["alternative"]]
    return tuple(index[x] for x in w["triple"])


def check_subject(entry: dict, subject: Subject, digits: int, rng: SplitMix64) -> list[str]:
    problems: list[str] = []
    if entry.get("status") != "ok":
        return [f"status {entry.get('status')!r}: {entry.get('error')}"]
    if entry["domain"] != subject.domain or tuple(entry["universe"]) != subject.labels:
        return ["domain or universe differs from the input"]
    ref = Reference(subject)
    parts = {axiom: parse_union(entry["sets"][axiom]) for axiom in AXIOMS}
    union = parse_union(entry["sets"]["irrationality"])

    # Exact sets from the candidate intervals.
    exact = ref.exact_sets()
    for name, reported in [*parts.items(), ("irrationality", union)]:
        if reported != exact[name]:
            problems.append(f"{name} set differs from the reference")

    # The axioms themselves, tested region by region.
    for k in _regions_to_check(ref, union, rng):
        lam = ref.threshold(k)
        for axiom, fails in zip(AXIOMS, ref.direct_violations(k)):
            if contains(parts[axiom], lam) != fails:
                problems.append(f"{axiom} set disagrees with the axiom at {lam}")

    # One witness per maximal interval, re-verified at its right endpoint.
    index = {x: i for i, x in enumerate(subject.labels)}
    witnesses = entry["witnesses"]
    if [parse_union([w["interval"]])[0] for w in witnesses] != list(union):
        problems.append("witness intervals are not the maximal intervals")
    for w in witnesses:
        hi = parse_union([w["interval"]])[0][1]
        k = ref.region_of(hi)
        first = next((a for a in AXIOMS if contains(parts[a], hi)), None)
        if k is None:
            problems.append(f"witness interval ends at {hi}, which is no cut")
        elif w["axiom"] != first:
            problems.append(f"witness at {hi} names axiom {w['axiom']}, expected {first}")
        elif not ref.witness_holds(w["axiom"], _witness_detail(w, index), k):
            problems.append(f"witness at {hi} does not violate {w['axiom']}")

    # Index and flags.
    index_value = 1 - union_measure(union)
    reported_index = entry["rationality_index"]
    if reported_index["exact"] != fmt_rational(index_value) or reported_index[
        "decimal"
    ] != fmt_decimal(index_value, digits):
        problems.append("rationality index is not 1 - measure")
    flags = entry["flags"]
    if flags["maximally_rational"] != (not union) or flags["minimally_rational"] != (
        index_value == 0
    ):
        problems.append("maximal/minimal rationality flags disagree with the set")
    trans, tri = ref.transitivity_flags()
    for name, key in _FLAG_KEYS.items():
        if flags[key] != trans[name]:
            problems.append(f"{key} is {flags[key]}, expected {trans[name]}")
    expected_tri = None if tri is None else [subject.labels[i] for i in tri]
    if flags["triangular_condition"] != (tri is None) or entry["triangular_witness"] != expected_tri:
        problems.append(f"triangular condition disagrees (expected witness {expected_tri})")
    selective = ref.selectivity() if subject.domain == "full" else (None, None)
    if (flags["selective_contractions"], flags["selective_expansions"]) != selective:
        problems.append(f"selectivity flags disagree, expected {selective}")

    problems += _closed_form_problems(subject, union, parts, flags)
    return problems


def _closed_form_problems(subject: Subject, union, parts, flags) -> list[str]:
    kind = subject.meta.get("kind")
    n = len(subject.labels)
    if kind == "luce":
        if union or not (
            flags["selective_contractions"] and flags["selective_expansions"]
            and flags["strong_s_transitive"] and flags["triangular_condition"]
        ):
            return ["Luce subject is not rational, selective and strongly transitive"]
    elif kind == "tremble":
        if union != tremble_set(n, subject.meta["alpha"]):
            return ["tremble set differs from its closed form"]
    elif kind == "mixture" and len(subject.meta["weights"]) == 2:
        first, second = subject.meta["rankings"]
        if union != two_ranking_set(first, second, subject.meta["weights"][0]):
            return ["two-ranking mixture set differs from its closed form"]
    elif kind == "embedded_demo":
        if union != DEMO_SET:
            return ["embedded demo set is not (1/6,1/4] u (1/2,1]"]
    elif kind == "pairwise_ranking":
        if parts["transitivity"] or not flags["strong_s_transitive"]:
            return ["planted ranking has a cycle or is not strongly transitive"]
    elif kind == "pairwise_cycle":
        if not parts["transitivity"]:
            return ["planted cycle gives an empty cycle set"]
    return []


def _comparison_problems(doc: dict, unions: dict[str, tuple]) -> dict[str, list[str]]:
    """Verdicts, classes and cover edges recomputed from the reported sets."""
    problems: dict[str, list[str]] = {}

    def charge(names, message: str) -> None:
        for name in names:
            problems.setdefault(name, []).append(message)

    comparison = doc.get("comparisons")
    names = sorted(unions)
    if comparison is None:
        charge(names, "report has no comparison section")
        return problems
    # Each union as a bitmask over the elementary segments between all
    # endpoints, so inclusion is a mask test.
    points = sorted({p for u in unions.values() for iv in u for p in iv})
    where = {p: i for i, p in enumerate(points)}
    masks = {}
    for name, union in unions.items():
        m = 0
        for lo, hi in union:
            m |= ((1 << where[hi]) - 1) & ~((1 << where[lo]) - 1)
        masks[name] = m

    def verdict(a: str, b: str) -> str:
        a_minus_b, b_minus_a = masks[a] & ~masks[b], masks[b] & ~masks[a]
        if not a_minus_b and not b_minus_a:
            return "Equivalent"
        if not a_minus_b:
            return "LeftMoreRational"
        if not b_minus_a:
            return "RightMoreRational"
        return "Incomparable"

    reported = comparison["verdicts"]
    pairs = list(itertools.combinations(names, 2))
    if [(v["left"], v["right"]) for v in reported] != pairs:
        charge(names, "verdict list does not cover every pair once, in order")
    else:
        for v in reported:
            if v["verdict"] != verdict(v["left"], v["right"]):
                charge((v["left"], v["right"]), f"verdict {v['left']} vs {v['right']} is wrong")

    groups: dict[int, list[str]] = {}
    for name in names:
        groups.setdefault(masks[name], []).append(name)
    classes = sorted(groups.values(), key=lambda g: g[0])
    expected_class = {name: tuple(g) for g in classes for name in g}
    reported_class = {name: tuple(g) for g in comparison["equivalence_classes"] for name in g}
    charge(
        [n for n in names if reported_class.get(n) != expected_class[n]],
        "equivalence class is wrong",
    )

    reps = [g[0] for g in classes]
    rep_mask = [masks[r] for r in reps]
    count = len(reps)
    below = [0] * count  # below[i]: classes j strictly less rational than i
    for i, j in itertools.permutations(range(count), 2):
        if rep_mask[i] & ~rep_mask[j] == 0:
            below[i] |= 1 << j
    above = [0] * count
    for i in range(count):
        for j in range(count):
            if below[i] >> j & 1:
                above[j] |= 1 << i
    expected_edges = {
        (reps[i], reps[j])
        for i in range(count)
        for j in range(count)
        if below[i] >> j & 1 and not below[i] & above[j]
    }
    reported_edges = [(e["more_rational"], e["less_rational"]) for e in comparison["hasse_edges"]]
    if reported_edges != sorted(reported_edges):
        charge(names, "cover edges are not sorted")
    for a, b in expected_edges.symmetric_difference(reported_edges):
        charge((a, b), f"cover edge {a} -> {b} is wrong")
    return problems


def check_report(doc: dict, subjects: list[Subject], seed: int) -> dict[str, list[str]]:
    """Problems per subject name (every subject gets an entry)."""
    problems: dict[str, list[str]] = {s.name: [] for s in subjects}
    entries = doc.get("subjects", [])
    if doc.get("schema_version") != 1 or [e.get("subject") for e in entries] != sorted(problems):
        for messages in problems.values():
            messages.append("report does not list the input's subjects in order")
        return problems
    digits = doc["settings"]["digits"]
    by_name = {s.name: s for s in subjects}
    unions = {}
    for position, entry in enumerate(entries):
        subject = by_name[entry["subject"]]
        rng = SplitMix64(seed * 1_000_003 + position)
        problems[subject.name] += check_subject(entry, subject, digits, rng)
        if entry.get("status") == "ok":
            unions[subject.name] = parse_union(entry["sets"]["irrationality"])
    for name, messages in _comparison_problems(doc, unions).items():
        problems.setdefault(name, []).extend(messages)
    return problems
