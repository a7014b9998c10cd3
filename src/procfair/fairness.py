"""Group-fairness verdicts, expected contingency tables, and justice metrics.

Fairness here compares conviction probabilities between groups within each
merit class: two groups are treated fairly when, among the guilty, both face
the same conviction probability, and likewise among the innocent. Groups may
differ in composition, so a merit class can be empty on one side; such a
class is incomparable and imposes no constraint (a vacuously fair class).

Comparisons are exact rational arithmetic whenever the rates are exact.
Empirical (simulated) rates carry sampling noise and should be compared with
a positive tolerance. :func:`_checked_tolerance` is the one tolerance rule,
shared by both checks and ``audit --tolerance``.
"""

from __future__ import annotations

import heapq
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator, Mapping

import numpy as np

from . import theorem
from .population import (
    GUILTY,
    INNOCENT,
    MISSING,
    ExplicitIdSet,
    GroupSpec,
    Population,
    Singleton,
    _partition_rows,
    _ReadOnlyDict,
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


def _checked_tolerance(tolerance) -> Fraction:
    """``tolerance`` as an exact rational; raises unless it lies in [0, 1].
    Two probabilities never differ by more than 1, so no larger tolerance
    gives other verdicts than 1."""
    tol = as_rational(tolerance)
    if tol.numerator < 0:
        raise ValueError(f"tolerance must be non-negative, got {tolerance!r}")
    if tol.numerator > tol.denominator:  # the denominator is positive
        raise ValueError(f"tolerance must be at most 1, got {tolerance!r}")
    return tol


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
    tol = _checked_tolerance(tolerance)
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
    pop: Population, proc: Procedure, tol: Fraction
) -> Iterator[GroupPairViolation]:
    """Lazily yield each pair of same-class members whose probabilities under
    ``proc`` differ by more than ``tol``, class by class, pairs in member order;
    every member's probability is read on first use. A class's codes
    are its non-empty slices of one stable partition of the rows by ``2 * code
    + merit``, sorted once by probability into a ladder; each member is paired
    only with the later rows of the codes farther than ``tol`` from its own, the
    ladder's two ends beyond ``tol``, found by bisection and merged. Probabilities
    are compared in integers, on the scale of ``theorem``'s enumerator. Ids are
    decoded only to name a pair."""
    codes, probs = _probability_codes(proc, pop)
    *units, tol_units = theorem._integer_units(*probs, tol)
    order, offsets = _partition_rows(2 * codes + pop.merit, 2 * len(probs))
    for merit in (GUILTY, INNOCENT):
        slices = zip(offsets[merit + 1 :: 2].tolist(), offsets[merit + 2 :: 2].tolist())
        holders = {code: order[start:stop] for code, (start, stop) in enumerate(slices) if start < stop}
        ladder = sorted(holders, key=units.__getitem__)  # the class's codes, least probable first
        rungs = [units[code] for code in ladder]
        if not rungs or rungs[-1] - rungs[0] <= tol_units:
            continue  # whole class within tolerance: no pair can violate
        members = np.flatnonzero(pop.merit == merit)
        far: dict[int, list[np.ndarray]] = {}
        for a, code in zip(members.tolist(), codes[members].tolist()):
            if code not in far:  # the rungs more than tol_units below or above the code's own
                lo, hi = bisect_left(rungs, units[code] - tol_units), bisect_right(rungs, units[code] + tol_units)
                far[code] = [holders[d] for d in ladder[:lo] + ladder[hi:]]
            for b in heapq.merge(*(held[np.searchsorted(held, a, "right"):] for held in far[code])):
                yield GroupPairViolation(Singleton(pop._id(a)), Singleton(pop._id(b)), (merit,))


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
    (within ``tolerance``); it sorts each class's probabilities once, finds each
    one's far probabilities by bisection and ignores ``max_n``. ``bipartitions``
    mode tests every nontrivial subset against its complement through
    ``theorem._exhaustive_violations``, the front door of ``exhaustive_search``
    and ``witness``: a merit class is violated when the two sides' mean
    conviction probabilities differ by more than ``tolerance``, compared exactly
    in integers. One order holds: ``tolerance`` and ``mode`` first, then the
    bipartition size rule of ``theorem._check_search_limit``, then probabilities.
    Both modes yield violations lazily in a deterministic order and share one
    truncation rule: the first ``max_violations`` are listed (none if it is not
    positive), ``truncated`` says a further one exists, ``fair`` that none does.
    """
    tol = _checked_tolerance(tolerance)
    if mode == "singletons":
        stream = _singleton_violations(pop, proc, tol)
    elif mode == "bipartitions":
        violations = theorem._exhaustive_violations(pop, max_n, proc, tol)
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

    def __post_init__(self):
        cells = _ReadOnlyDict((value, _ReadOnlyDict(by_merit)) for value, by_merit in self.cells.items())
        object.__setattr__(self, "cells", cells)

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
    missing = range(len(pop)) if column is None else np.flatnonzero(column.codes == MISSING)
    if len(missing):
        first = int(missing[0])
        _probability_codes(proc, pop, slice(first))  # earlier members' errors first
        raise ValueError(
            f"individual {pop._id(first)!r} has no value for attribute {attribute!r}"
        )
    values = pop.attribute_values(attribute)  # none without a column: no member to count
    sums = conviction_sums(proc, pop, 0 if column is None else column.codes, len(values))
    return ContingencyTable(
        attribute,
        {
            value: {GUILTY: ContingencyCell(*guilty), INNOCENT: ContingencyCell(*innocent)}
            for value, (guilty, innocent) in zip(values, sums)
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

    def __post_init__(self):
        object.__setattr__(self, "per_group", _ReadOnlyDict(self.per_group))


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
