"""Witness construction and exhaustive checks of the impossibility result.

For a deterministic procedure the criterion label X fully determines the
outcome, so the groups {X=0} and {X=1} are defined by features other than
merit and are therefore morally arbitrary. Whenever some merit class has
members on both sides of the split, those equally deserving individuals face
conviction probabilities of exactly 1 (X=0 side) and 0 (X=1 side): the split
witnesses that the procedure is group-unfair. Only a perfect procedure
(X = J everywhere) escapes, and only because no class straddles the split.

Every bipartition search, the desk-scale check of the paper's "every
logically possible group" quantifier, enters through
:func:`_exhaustive_violations`: ``exhaustive_search``, the CLI's ``witness``
and ``fairness.check_absolute_fairness(mode="bipartitions")``. It checks the
size rule of :func:`_check_search_limit`, then reads the members'
probabilities, then hands them to :func:`_bipartition_violations`, the one
enumerator, which finds the violating splits in increasing order of their
bitmask. Every probability becomes an integer numerator over a common
denominator (:func:`_integer_units`, which ``fairness``' singleton search
shares), and class means are compared by cross multiplication against an
integer tolerance bound, in numpy chunks of ``BIPARTITION_CHUNK`` masks: in
``int64`` when the products fit and on exact Python ints otherwise. The
search is a :class:`_Violations`: each chunk's violating sides as masks over
the members in sorted id order, with their violated classes. Each caller
builds what it reports from those masks and two half-tables of its own
per-member pieces, once per violation: ``exhaustive_search`` and
bipartitions mode their sorted id tuples, ``witness`` its JSON listing text
(``serialize.Listing``) or, as text, only the count.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import starmap
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence, TypeVar

import numpy as np

from .errors import SizeLimitError
from .population import (
    GUILTY,
    INNOCENT,
    CriterionEquals,
    Population,
    _ReadOnlyDict,
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


def _check_search_limit(max_n: int, n: int = 0) -> None:
    """Refuse a search limit outside ``[0, MAX_SEARCH_N]``, then a population of
    ``n`` members larger than ``max_n``: the one size rule of every bipartition search."""
    if max_n < 0:
        raise SizeLimitError(f"search limit must be non-negative, got {max_n}")
    if max_n > MAX_SEARCH_N:
        raise SizeLimitError(
            f"search limit {max_n} exceeds the exhaustive-search ceiling {MAX_SEARCH_N}"
        )
    if n > max_n:
        raise SizeLimitError(
            f"population of {n} exceeds bipartition search limit {max_n}; "
            "use singletons mode for large populations"
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

    def __post_init__(self):
        object.__setattr__(self, "class_probabilities", _ReadOnlyDict(self.class_probabilities))


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


# Bipartition masks tested per numpy pass of :func:`_bipartition_violations`.
BIPARTITION_CHUNK = 1 << 12
# What a bipartition side is joined from, one piece per member: a tuple or a str.
Piece = TypeVar("Piece", tuple, str)
# Violated merit classes by the class bits of :func:`_violated_classes`.
_CLASSES_BY_BITS = ((), (GUILTY,), (INNOCENT,), (GUILTY, INNOCENT))


@functools.cache
def _subset_bits(width: int) -> np.ndarray:
    """The read-only 0/1 table of ``width`` rows whose column ``m`` holds the
    bits of ``m``: ``2 ** width`` columns, made once per width."""
    bits = np.arange(1 << width) >> np.arange(width)[:, None] & 1
    bits.flags.writeable = False
    return bits


def _subset_sums(weights: np.ndarray) -> np.ndarray:
    """Column ``m`` is the sum of the columns ``i`` of ``weights`` whose bit
    ``i`` is set in ``m``: one integer matrix product, exact for ``int64`` and
    ``object`` weights alike."""
    return weights @ _subset_bits(weights.shape[1])


def _subset_joins(pieces: Sequence[Piece]) -> list[Piece]:
    """Entry ``m`` joins the ``pieces[k]`` whose bit ``k`` is set in ``m``, in
    order, with ``+``, built by doubling: ``2 ** len(pieces)`` entries. Entry 0
    is the empty slice of the first piece; no pieces give no entries."""
    table = [pieces[0][:0]] if pieces else []
    for piece in pieces:
        table += [entry + piece for entry in table]
    return table


def _integer_units(*values: Fraction) -> list[int]:
    """Each of ``values`` as its numerator over their least common denominator,
    so that sums and differences of them compare exactly as integers."""
    denom = math.lcm(*(value.denominator for value in values))
    return [value.numerator * (denom // value.denominator) for value in values]


def _violated_classes(sums: np.ndarray, totals: np.ndarray, tol_units: int) -> np.ndarray:
    """For each column ``(c_0, c_1, t_0, t_1, ...)`` of one side's counts
    ``c_j`` and numerator sums ``t_j`` per merit class, the bits ``1 << j`` of
    the classes whose two sides' means differ by more than ``tol_units`` over
    the common denominator; ``totals`` is the same column for the whole
    population.

    A class on one side only has ``t_j * c'_j == t'_j * c_j == 0`` and is never
    violated.
    """
    count, total = sums[0:2], sums[2:4]
    count_other, total_other = totals[0:2] - count, totals[2:4] - total
    difference = np.abs(total * count_other - total_other * count)
    violated = difference > tol_units * (count * count_other)
    return violated[0] | violated[1] << 1


class _Violations(NamedTuple):
    """The violating bipartitions of one search, as the enumerator finds them.

    ``ids`` are the members' ids in sorted order, and bit ``k`` of a side's
    mask is ``ids[k]``. Each call of ``chunks`` runs the enumeration afresh
    and yields, one numpy pass at a time and only when advanced, ``(sides,
    classes)``: the ``int64`` masks of the chunk's violating subsets, each the
    side without the first member in population order, and their violated
    classes as bits (``_CLASSES_BY_BITS``). A side joins one entry of each
    half-table that :meth:`tables` builds, at the indices :meth:`entries` gives.
    """

    ids: tuple[str, ...]
    chunks: Callable[[], Iterator[tuple[np.ndarray, np.ndarray]]]

    def tables(self, pieces: Sequence[Piece]) -> tuple[list[Piece], list[Piece]]:
        """The half-tables of ``pieces``, one per member in sorted id order: the
        joins of the pieces below ``len(ids) // 2`` and of those from it on."""
        half = len(self.ids) // 2
        return _subset_joins(pieces[:half]), _subset_joins(pieces[half:])

    def entries(self, sides: np.ndarray) -> tuple[np.ndarray, ...]:
        """The indices into :meth:`tables` of each of ``sides`` and of its
        complement: subset low, subset high, complement low, complement high."""
        half = len(self.ids) // 2
        below = (1 << half) - 1
        others = ((1 << len(self.ids)) - 1) ^ sides
        return sides & below, sides >> half, others & below, others >> half

    def tuples(self) -> Iterator[tuple[tuple[str, ...], tuple[str, ...], tuple[int, ...]]]:
        """Each violation as ``(subset, complement, violated merit classes)``,
        each side the tuple of its ids in sorted order, built a chunk at a time."""
        low, high = self.tables([(ident,) for ident in self.ids])
        for sides, bits in self.chunks():
            subset_low, subset_high, other_low, other_high = (array.tolist() for array in self.entries(sides))
            for a, b, c, d, classes in zip(subset_low, subset_high, other_low, other_high, bits.tolist()):
                yield low[a] + high[b], low[c] + high[d], _CLASSES_BY_BITS[classes]


def _bipartition_violations(
    pop: Population,
    codes: np.ndarray,
    probs: Sequence[Fraction],
    tolerance: Fraction,
) -> _Violations:
    """The unfair bipartitions of a population of two or more members, whose
    member i's conviction probability is ``probs[codes[i]]``, as from
    :func:`~procfair.procedure._probability_codes`.

    The first member always stays in the complement, so each unordered
    bipartition is tested once, in increasing order of the subset's bitmask
    over population order. A merit class with members on both sides is
    violated when its mean conviction probabilities differ by more than ``tolerance``.

    numpy tests ``BIPARTITION_CHUNK`` masks per pass, and a chunk is tested only
    when the caller advances ``chunks()`` to it, so a caller that stops early
    tests no further chunk. A mask's per-class counts and numerator sums, and
    its subset as a bitmask over sorted id order, are the sum of two table
    columns, one for its low bits and one for its high bits.
    """
    n = len(pop)
    # Integer-only setup: member i's probability is numer[i] / denom, and a class
    # with (count, numerator sum) = (c_a, t_a) on one side and (c_b, t_b) on the
    # other is violated iff |t_a * c_b - t_b * c_a| > tol_units * c_a * c_b.
    *numer_by_code, tol_units = _integer_units(*probs, tolerance)
    # Both products are at most max(numerator, tol_units) * n^2 / 4, so int64
    # holds them and their difference below 2^62; larger ones are computed
    # exactly on Python ints in object arrays, by the same code.
    fits = max(numer_by_code + [tol_units]) * n * n < 1 << 62
    dtype = np.int64 if fits else object
    ids = pop.ids()
    order = sorted(range(n), key=ids.__getitem__)
    sorted_bit = [0] * n
    for position, i in enumerate(order):
        sorted_bit[i] = 1 << position
    in_class = np.eye(2, dtype=dtype)[pop.merit]
    numer = np.array(numer_by_code, dtype=dtype)[codes, None]
    # one column per member: its class counts, class numerators and sorted-order bit
    weights = np.concatenate(
        (in_class, in_class * numer, np.array(sorted_bit, dtype=dtype)[:, None]), axis=1
    ).T
    totals = weights.sum(axis=1, keepdims=True)
    # Mask bit i is member i + 1, as the first member always stays in the
    # complement. Each table covers the bits below ``half`` or those from it on.
    half = n // 2
    low = _subset_sums(weights[:, 1 : 1 + half])
    high = _subset_sums(weights[:, 1 + half :])

    def chunks() -> Iterator[tuple[np.ndarray, np.ndarray]]:
        below, end = (1 << half) - 1, 1 << (n - 1)
        for start in range(1, end, BIPARTITION_CHUNK):
            masks = np.arange(start, min(start + BIPARTITION_CHUNK, end))
            sums = np.take(low, masks & below, axis=1)
            sums += np.take(high, masks >> half, axis=1)
            bits = _violated_classes(sums, totals, tol_units)
            hits = np.flatnonzero(bits)
            if len(hits):
                yield np.asarray(sums[4, hits], dtype=np.int64), bits[hits]

    return _Violations(tuple(ids[i] for i in order), chunks)


def _exhaustive_violations(
    pop: Population,
    max_n: int,
    proc: Procedure | None = None,
    tolerance: Fraction = Fraction(0),
) -> _Violations:
    """The front door of every bipartition search: the :class:`_Violations` of
    :func:`_bipartition_violations` at ``tolerance``. At the call, not on first
    use, it checks the size rule, then returns an empty search for a population
    of fewer than two members, reading no probability, and only then reads
    every member's probability under ``proc`` (the deterministic procedure by
    default); nothing raises once it has returned."""
    _check_search_limit(max_n, len(pop))
    if len(pop) < 2:
        return _Violations((), lambda: iter(()))
    codes, probs = _probability_codes(proc or DeterministicProcedure(), pop)
    return _bipartition_violations(pop, codes, probs, tolerance)


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
    ``max_n`` and ``len(pop)`` must pass :func:`_check_search_limit`.
    """
    return tuple(starmap(Bipartition, _exhaustive_violations(pop, max_n, proc).tuples()))


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
    _check_search_limit(DEFAULT_MAX_N, n_individuals)
    if n_trials < 1:
        raise ValueError(f"n_trials must be >= 1, got {n_trials}")

    rng = random.Random(seed)
    perfect_instances = witnessed = unwitnessable = 0
    counterexamples: list[str] = []
    ids = tuple(f"i{idx}" for idx in range(n_individuals))

    for trial in range(n_trials):
        labels = [(rng.getrandbits(1), rng.getrandbits(1)) for _ in range(n_individuals)]
        merit, criterion = np.array(labels, dtype=np.int8).T
        pop = Population._from_columns(ids, merit, criterion, {})
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
            # the side without member 0, as exhaustive_search lists it: sorted ids
            split = tuple(sorted(ident for ident, (_, x) in zip(ids, labels) if x != labels[0][1]))
            matches = [b for b in found if b.subset == split]
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
