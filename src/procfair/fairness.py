"""Group-fairness verdicts, expected contingency tables, and justice metrics.

Fairness here compares conviction probabilities between groups within each
merit class: two groups are treated fairly when, among the guilty, both face
the same conviction probability, and likewise among the innocent. Groups may
differ in composition, so a merit class can be empty on one side; such a
class is incomparable and imposes no constraint (a vacuously fair class).

Comparisons are exact rational arithmetic whenever the rates are exact.
Empirical (simulated) rates carry sampling noise and should be compared with
a positive tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, islice
from typing import Iterator, Mapping

import numpy as np

from . import theorem
from .errors import SizeLimitError
from .population import (
    GUILTY,
    INNOCENT,
    MISSING,
    ExplicitIdSet,
    GroupSpec,
    Population,
    Singleton,
)
from .procedure import (
    ConditionalRates,
    Procedure,
    _probability_codes,
    as_rational,
    conviction_sums,
)

__all__ = [
    "ClassComparison",
    "FairnessVerdict",
    "GroupPairViolation",
    "AbsoluteFairnessReport",
    "ContingencyCell",
    "ContingencyTable",
    "GroupJustice",
    "JusticeMetrics",
    "ConditionalRates",
    "check_pairwise_fairness",
    "check_absolute_fairness",
    "expected_contingency",
    "justice_metrics",
]


@dataclass(frozen=True)
class ClassComparison:
    """Rate comparison between two groups within one merit class."""

    merit: int
    rate_a: Fraction | None
    rate_b: Fraction | None
    difference: Fraction | None  # |rate_a - rate_b| when comparable
    comparable: bool
    violation: bool


@dataclass(frozen=True)
class FairnessVerdict:
    """Outcome of a pairwise group-fairness check.

    ``fair`` is true iff every comparable merit class differs by at most the
    tolerance; it is vacuously true when no class is comparable.
    """

    group_a: GroupSpec | None
    group_b: GroupSpec | None
    comparisons: tuple[ClassComparison, ClassComparison]
    tolerance: Fraction
    fair: bool

    def violated_merit_classes(self) -> tuple[int, ...]:
        return tuple(c.merit for c in self.comparisons if c.violation)


def check_pairwise_fairness(
    rates_a: ConditionalRates,
    rates_b: ConditionalRates,
    tolerance=0,
    group_a: GroupSpec | None = None,
    group_b: GroupSpec | None = None,
) -> FairnessVerdict:
    """Compare two groups' conviction rates class by class.

    A merit class is comparable iff both groups have members in it. With
    tolerance 0 and exact rates the comparison is an exact rational equality
    test; no floating point is involved.
    """
    tol = as_rational(tolerance)
    if tol < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance!r}")
    comparisons = []
    for merit, a, b in (
        (GUILTY, rates_a.h, rates_b.h),
        (INNOCENT, rates_a.k, rates_b.k),
    ):
        comparable = a is not None and b is not None
        difference = abs(a - b) if comparable else None
        violation = comparable and difference > tol
        comparisons.append(ClassComparison(merit, a, b, difference, comparable, violation))
    fair = not any(c.violation for c in comparisons)
    return FairnessVerdict(group_a, group_b, tuple(comparisons), tol, fair)


# --- absolute fairness ------------------------------------------------------


@dataclass(frozen=True)
class GroupPairViolation:
    """A pair of morally arbitrary groups on which fairness fails."""

    group_a: GroupSpec
    group_b: GroupSpec
    merit_classes: tuple[int, ...]


@dataclass(frozen=True)
class AbsoluteFairnessReport:
    mode: str  # "singletons" or "bipartitions"
    fair: bool
    violations: tuple[GroupPairViolation, ...]
    truncated: bool


def _singleton_violations(
    pop: Population, codes: np.ndarray, probs: list[Fraction], tol: Fraction
) -> Iterator[GroupPairViolation]:
    """Lazily yield each pair of same-class members whose probabilities differ
    by more than ``tol``, class by class, pairs in member order."""
    ids = pop.ids()
    member_probs = [probs[c] for c in codes.tolist()]
    merit_of = pop.merit.tolist()
    for merit in (GUILTY, INNOCENT):
        in_class = [(ids[i], p) for i, p in enumerate(member_probs) if merit_of[i] == merit]
        class_probs = [p for _, p in in_class]
        if not in_class or max(class_probs) - min(class_probs) <= tol:
            continue  # whole class within tolerance: no pair can violate
        for (id_a, p_a), (id_b, p_b) in combinations(in_class, 2):
            if abs(p_a - p_b) > tol:
                yield GroupPairViolation(Singleton(id_a), Singleton(id_b), (merit,))


def check_absolute_fairness(
    proc: Procedure,
    pop: Population,
    mode: str = "singletons",
    tolerance=0,
    max_n: int = theorem.DEFAULT_MAX_N,
    max_violations: int = 100,
) -> AbsoluteFairnessReport:
    """Test fairness against every group of the requested kind.

    ``singletons`` mode checks all one-member groups: the procedure is fair
    iff individuals sharing a merit label share a conviction probability
    (within ``tolerance``). ``bipartitions`` mode tests every nontrivial
    subset against its complement through the enumerator behind
    ``theorem.exhaustive_search``: a merit class is violated when the two
    sides' mean conviction probabilities differ by more than ``tolerance``,
    compared exactly in integers. It refuses ``max_n`` above
    ``theorem.MAX_SEARCH_N``, the ceiling it shares with
    ``exhaustive_search`` and ``witness --max-n``, and populations larger
    than ``max_n`` (suggest singletons mode instead, which is linear).
    Both modes yield violations lazily in a deterministic order and share one
    truncation rule: the first ``max_violations`` are listed (none if it is not
    positive), ``truncated`` says a further one exists, ``fair`` that none does.
    """
    tol = as_rational(tolerance)
    if tol < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance!r}")
    codes, probs = _probability_codes(proc, pop)

    if mode == "singletons":
        stream = _singleton_violations(pop, codes, probs, tol)
    elif mode == "bipartitions":
        theorem._check_search_limit(max_n)
        n = len(pop)
        if n > max_n:
            raise SizeLimitError(
                f"population of {n} exceeds bipartition limit {max_n}; "
                "use singletons mode for large populations"
            )
        violations = theorem._bipartition_violations(pop, codes, probs, tol)
        stream = (
            GroupPairViolation(ExplicitIdSet(subset), ExplicitIdSet(complement), violated)
            for subset, complement, violated in violations
        )
    else:
        raise ValueError(f"mode must be 'singletons' or 'bipartitions', got {mode!r}")

    limit = max(max_violations, 0)
    found = list(islice(stream, limit + 1))
    return AbsoluteFairnessReport(mode, not found, tuple(found[:limit]), len(found) > limit)


# --- contingency tables and justice metrics ---------------------------------


@dataclass(frozen=True)
class ContingencyCell:
    """Expected outcome split for one (group value, merit class) cell."""

    count: int
    expected_convictions: Fraction

    @property
    def expected_acquittals(self) -> Fraction:
        return self.count - self.expected_convictions


@dataclass(frozen=True)
class ContingencyTable:
    """Expected convictions per attribute value and merit class, plus totals."""

    attribute: str
    cells: Mapping[str, Mapping[int, ContingencyCell]]

    def values(self) -> tuple[str, ...]:
        return tuple(self.cells)

    def cell(self, value: str, merit: int) -> ContingencyCell:
        return self.cells[value][merit]

    def totals(self) -> Mapping[int, ContingencyCell]:
        out = {}
        for merit in (GUILTY, INNOCENT):
            count = sum(group[merit].count for group in self.cells.values())
            expected = sum(
                (group[merit].expected_convictions for group in self.cells.values()),
                Fraction(0),
            )
            out[merit] = ContingencyCell(count, expected)
        return out


def expected_contingency(pop: Population, proc: Procedure, attribute: str) -> ContingencyTable:
    """Expected conviction counts per (attribute value, merit class).

    Each cell's expectation is the exact rational sum of its members'
    conviction probabilities, so cells always satisfy
    convictions + acquittals = count, and group cells sum to the totals.
    Raises if any member lacks the attribute or an applicable rate.
    """
    column = pop.attributes.get(attribute)
    codes = np.full(len(pop), MISSING) if column is None else column.codes
    missing = np.flatnonzero(codes == MISSING)
    if missing.size:
        first = int(missing[0])
        before = np.zeros(len(pop), dtype=np.int8)
        before[first:] = -1
        conviction_sums(proc, pop, before)  # raises for an earlier member without a rate
        raise ValueError(
            f"individual {pop.ids()[first]!r} has no value for attribute {attribute!r}"
        )
    if column is None:  # an empty population
        return ContingencyTable(attribute, {})
    sums = conviction_sums(proc, pop, codes, len(column.values))
    return ContingencyTable(
        attribute,
        {
            value: {GUILTY: ContingencyCell(*guilty), INNOCENT: ContingencyCell(*innocent)}
            for value, (guilty, innocent) in zip(column.values, sums)
        },
    )


@dataclass(frozen=True)
class GroupJustice:
    """How just the expected outcomes are for one group."""

    convictions: Fraction  # expected total convictions
    mistaken_convictions: Fraction  # expected innocent convictions
    guilty_share: Fraction | None  # guilty among the convicted; None if no convictions


@dataclass(frozen=True)
class JusticeMetrics:
    per_group: Mapping[str, GroupJustice]
    overall: GroupJustice


def _group_justice(by_merit: Mapping[int, ContingencyCell]) -> GroupJustice:
    convicted_guilty = by_merit[GUILTY].expected_convictions
    convicted_innocent = by_merit[INNOCENT].expected_convictions
    total = convicted_guilty + convicted_innocent
    share = convicted_guilty / total if total else None
    return GroupJustice(total, convicted_innocent, share)


def justice_metrics(table: ContingencyTable) -> JusticeMetrics:
    """Convictions, mistaken convictions, and the guilty share per group."""
    per_group = {value: _group_justice(table.cells[value]) for value in table.values()}
    return JusticeMetrics(per_group, _group_justice(table.totals()))
