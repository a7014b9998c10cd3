"""Witness construction and exhaustive checks of the impossibility result.

For a deterministic procedure the criterion label X fully determines the
outcome, so the groups {X=0} and {X=1} are defined by features other than
merit and are therefore morally arbitrary. Whenever some merit class has
members on both sides of the split, those equally deserving individuals face
conviction probabilities of exactly 1 (X=0 side) and 0 (X=1 side): the split
witnesses that the procedure is group-unfair. Only a perfect procedure
(X = J everywhere) escapes, and only because no class straddles the split.

``exhaustive_search`` realizes the "every logically possible group"
quantifier at desk scale by enumerating all bipartitions of a small
population, which doubles as an independent check of the constructed
witness. The enumeration is :func:`_bipartition_violations`, the one
bipartition loop of the package, which
``fairness.check_absolute_fairness(mode="bipartitions")`` shares: it takes
the caller's probability codes and yields each violating split as two sorted
id tuples. Every probability becomes an integer numerator over a common
denominator, and class means are compared by cross multiplication against an
integer tolerance bound. Both callers refuse a search limit above
:data:`MAX_SEARCH_N`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import SizeLimitError
from .population import (
    GUILTY,
    INNOCENT,
    CriterionEquals,
    Individual,
    Population,
)
from .procedure import (
    DeterministicProcedure,
    Procedure,
    _probability_codes,
    exact_rates,
)
from .roc import ProcedureClass, RocPoint, classify

__all__ = [
    "WitnessReport",
    "Bipartition",
    "PropertyReport",
    "construct_witness",
    "exhaustive_search",
    "verify_theorem",
]

DEFAULT_MAX_N = 15
# Ceiling on any exhaustive search: 2^19 - 1 (about 5 * 10^5) bipartitions.
MAX_SEARCH_N = 20


def _check_search_limit(max_n: int) -> None:
    """Refuse a search limit above :data:`MAX_SEARCH_N` before any work."""
    if max_n > MAX_SEARCH_N:
        raise SizeLimitError(
            f"search limit {max_n} exceeds the exhaustive-search ceiling {MAX_SEARCH_N}"
        )


@dataclass(frozen=True)
class WitnessReport:
    """The {X=1}/{X=0} split and the merit classes on which fairness fails.

    For every violated class the conviction probabilities are forced:
    ``class_probabilities[j] == (1, 0)`` for the (X=0, X=1) sides. A report
    with no violated classes means the procedure is either perfect on this
    population or imperfect but unwitnessable here (every merit class lies
    entirely on one side of the split), which ``unwitnessable`` flags.
    """

    group_x1: CriterionEquals
    group_x0: CriterionEquals
    violated_merit_classes: tuple[int, ...]
    class_probabilities: Mapping[int, tuple[Fraction, Fraction]]
    procedure_class: ProcedureClass | None
    perfect: bool
    unwitnessable: bool


def construct_witness(pop: Population) -> WitnessReport:
    """Build the criterion-split witness for a deterministic procedure.

    Requires a non-empty population with criterion labels throughout. Merit
    class j is violated iff both {X=0} and {X=1} contain a member with J=j;
    the probabilities then follow from U = X without any search.
    """
    if not len(pop):
        raise ValueError("cannot construct a witness for an empty population")
    # Under U = X a merit class's conviction rate is its share of members at
    # X=0, so the class straddles the split iff the rate lies strictly inside (0, 1).
    rates = exact_rates(DeterministicProcedure(), pop)
    by_class = ((GUILTY, rates.h), (INNOCENT, rates.k))
    violated = tuple(j for j, rate in by_class if rate is not None and 0 < rate < 1)
    class_probabilities = {j: (Fraction(1), Fraction(0)) for j in violated}
    perfect = rates.h in (None, 1) and rates.k in (None, 0)

    procedure_class = (
        classify(RocPoint(rates.h, rates.k))
        if rates.h is not None and rates.k is not None
        else None
    )
    return WitnessReport(
        group_x1=CriterionEquals(1),
        group_x0=CriterionEquals(0),
        violated_merit_classes=violated,
        class_probabilities=class_probabilities,
        procedure_class=procedure_class,
        perfect=perfect,
        unwitnessable=not perfect and not violated,
    )


@dataclass(frozen=True)
class Bipartition:
    """An unordered population split that violates fairness.

    ``subset`` is the side not containing the first population member; both
    sides are reported as sorted id lists.
    """

    subset: tuple[str, ...]
    complement: tuple[str, ...]
    violated_merit_classes: tuple[int, ...]


def _bipartition_violations(
    pop: Population, codes: np.ndarray, probs: Sequence[Fraction], tolerance: Fraction = Fraction(0)
) -> Iterator[tuple[tuple[str, ...], tuple[str, ...], tuple[int, ...]]]:
    """Lazily yield ``(subset ids, complement ids, violated merit classes)``, id
    tuples sorted, per unfair bipartition; member i's conviction probability is
    ``probs[codes[i]]``, as from :func:`~procfair.procedure._probability_codes`.

    The first member always stays in the complement, so each unordered
    bipartition is tested once, in increasing order of the subset's bitmask
    over population order. A merit class with members on both sides is
    violated when its mean conviction probabilities differ by more than ``tolerance``.
    """
    n = len(pop)
    if n < 2:
        return
    # Integer-only setup: member i's probability is numer[i] / denom, and a class
    # with (count, numerator sum) = (c_a, t_a) on one side and (c_b, t_b) on the
    # other is violated iff |t_a * c_b - t_b * c_a| > tol_units * c_a * c_b.
    denom = math.lcm(tolerance.denominator, *(p.denominator for p in probs))
    numer_by_code = [p.numerator * (denom // p.denominator) for p in probs]
    numer = [numer_by_code[c] for c in codes.tolist()]
    tol_units = tolerance.numerator * (denom // tolerance.denominator)
    merit = pop.merit.tolist()
    ids = pop.ids()
    class_total_count = [merit.count(GUILTY), merit.count(INNOCENT)]
    class_total_sum = [sum(v for v, m in zip(numer, merit) if m == j) for j in (GUILTY, INNOCENT)]

    for mask in range(1, 1 << (n - 1)):
        subset_mask = mask << 1  # first member always stays in the complement
        count = [0, 0]
        total = [0, 0]
        bits = subset_mask
        while bits:
            low = bits & -bits
            i = low.bit_length() - 1
            count[merit[i]] += 1
            total[merit[i]] += numer[i]
            bits ^= low
        violated = []
        for j in (GUILTY, INNOCENT):
            count_other = class_total_count[j] - count[j]
            if count[j] and count_other:
                total_other = class_total_sum[j] - total[j]
                difference = total[j] * count_other - total_other * count[j]
                if abs(difference) > tol_units * count[j] * count_other:
                    violated.append(j)
        if violated:
            sides = ([], [])
            for i in range(n):
                sides[subset_mask >> i & 1].append(ids[i])
            yield tuple(sorted(sides[1])), tuple(sorted(sides[0])), tuple(violated)


def exhaustive_search(
    pop: Population, max_n: int = DEFAULT_MAX_N, proc: Procedure | None = None
) -> tuple[Bipartition, ...]:
    """All fairness-violating bipartitions of a small population.

    Tests every subset S with 1 <= |S| < n against its complement at
    tolerance 0 on exact conviction probabilities; each unordered
    bipartition is reported once, ordered by the canonical (bitmask over
    population order) encoding of the side that excludes the first member.
    ``proc`` defaults to the deterministic procedure, which requires
    criterion labels on every member of a population of two or more.
    ``max_n`` may not exceed :data:`MAX_SEARCH_N`.
    """
    _check_search_limit(max_n)
    n = len(pop)
    if n > max_n:
        raise SizeLimitError(f"population of {n} exceeds exhaustive-search limit {max_n}")
    if n < 2:
        return ()  # no bipartition, so no member needs a probability
    codes, probs = _probability_codes(proc or DeterministicProcedure(), pop)
    return tuple(Bipartition(*found) for found in _bipartition_violations(pop, codes, probs))


@dataclass(frozen=True)
class PropertyReport:
    """Result of randomized verification over many small populations."""

    n_individuals: int
    n_trials: int
    seed: int
    perfect_instances: int
    witnessed_instances: int
    unwitnessable_instances: int
    counterexamples: tuple[str, ...]
    passed: bool


def verify_theorem(n_individuals: int, n_trials: int, seed: int) -> PropertyReport:
    """Stress the impossibility claim on random deterministic instances.

    Draws ``n_trials`` populations of ``n_individuals`` with uniformly random
    (merit, criterion) labels. For every imperfect instance with a populated
    comparison, the constructed criterion split must itself appear among the
    exhaustively enumerated violations (with the same violated classes); for
    every perfect instance, and for imperfect ones where the split is
    vacuous, no bipartition may violate. Expected outcome: zero
    counterexamples.
    """
    if n_individuals < 1:
        raise ValueError(f"n_individuals must be >= 1, got {n_individuals}")
    if n_individuals > DEFAULT_MAX_N:
        raise SizeLimitError(
            f"n_individuals {n_individuals} exceeds exhaustive-search limit {DEFAULT_MAX_N}"
        )
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")

    rng = random.Random(seed)
    perfect_instances = witnessed = unwitnessable = 0
    counterexamples: list[str] = []

    for trial in range(n_trials):
        labels = [(rng.getrandbits(1), rng.getrandbits(1)) for _ in range(n_individuals)]
        pop = Population(
            Individual(f"i{idx}", merit=j, criterion=x) for idx, (j, x) in enumerate(labels)
        )
        witness = construct_witness(pop)
        found = exhaustive_search(pop, max_n=n_individuals)

        def fail(reason: str) -> None:
            counterexamples.append(f"trial {trial} labels={labels}: {reason}")

        if witness.perfect:
            perfect_instances += 1
            if witness.violated_merit_classes:
                fail("perfect instance reported violated classes")
            if found:
                fail("perfect instance has violating bipartitions")
        elif witness.violated_merit_classes:
            witnessed += 1
            if not found:
                fail("witnessed instance but exhaustive search found nothing")
            split = frozenset(
                ind.id for ind in pop if ind.criterion != pop.members[0].criterion
            )
            matches = [b for b in found if frozenset(b.subset) == split]
            if not matches:
                fail("criterion split missing from exhaustive search results")
            elif set(matches[0].violated_merit_classes) != set(witness.violated_merit_classes):
                fail("criterion split violates different classes than the witness")
        else:
            unwitnessable += 1
            if found:
                fail("unwitnessable instance still has violating bipartitions")

    return PropertyReport(
        n_individuals=n_individuals,
        n_trials=n_trials,
        seed=seed,
        perfect_instances=perfect_instances,
        witnessed_instances=witnessed,
        unwitnessable_instances=unwitnessable,
        counterexamples=tuple(counterexamples),
        passed=not counterexamples,
    )
