"""Decision procedures: exact conviction rates and seeded simulation.

Two procedure families are modeled. A deterministic procedure convicts
exactly when the individual's criterion label is 0 (outcome equals
criterion). A randomized procedure convicts by chance, with conviction
probabilities conditioned on merit: ``h = P(U=0 | J=0)`` for the guilty and
``k = P(U=0 | J=1)`` for the innocent, configured either globally or per
value of one attribute. A global procedure's :class:`GlobalRates` is its
:class:`RocPoint`, the point that ``roc`` exports and classifies.

All exact rates are computed with :class:`fractions.Fraction`; floating
point enters only in Monte-Carlo simulation, which is fully determined by
its seed.
"""

from __future__ import annotations

import json
import numbers
import operator
import re
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import IO, Iterable, Mapping, Sequence, Union

import numpy as np

from .errors import (
    AmbiguousRateError,
    MissingCriterionError,
    MissingRateError,
    ProcedureSpecError,
    ProcfairError,
)
from .population import (
    ALL,
    GUILTY,
    INNOCENT,
    MISSING,
    GroupSpec,
    Population,
    _ReadOnlyDict,
    _file_bytes,
    cell_counts,
    group_rows,
)

__all__ = [
    "as_rational",
    "as_probability",
    "DeterministicProcedure",
    "GlobalRates",
    "PerGroupRates",
    "RandomizedProcedure",
    "Procedure",
    "global_procedure",
    "per_group_procedure",
    "make_group_fair",
    "Simulation",
    "simulate",
    "ConditionalRates",
    "exact_rates",
    "empirical_rates",
    "load_procedure",
]

MAX_DECIMAL_DIGITS = 4300  # sys.int_info.default_max_str_digits, which bounds "a/b" too
# Fraction's "a/b" text once stripped; int() reads each side, under the interpreter's
# digit limit (Python 3.10 before 3.10.7 has none)
_RATIO = re.compile(r"[-+]?(\d+(?:_\d+)*)/(\d+(?:_\d+)*)")


def as_rational(value: int | float | str | Fraction | Decimal) -> Fraction:
    """Parse an exact rational from a number or a decimal / ``a/b`` string.

    Floats are read through their shortest decimal representation, so
    ``0.1`` becomes exactly 1/10 rather than its binary expansion. A decimal
    needing more than :data:`MAX_DECIMAL_DIGITS` digits plus exponent is refused,
    as is an ``a/b`` string with a side past the interpreter's digit limit.
    """
    kind = type(value)
    if kind is Fraction:
        return value
    if kind is int:
        return Fraction(value)
    if kind is str and value.isascii():  # ASCII digits, or digits "/" digits, read by int()
        numerator, slash, denominator = value.strip().partition("/")
        if numerator.isdigit() and (denominator.isdigit() if slash else len(numerator) <= MAX_DECIMAL_DIGITS):
            try:
                return Fraction(int(numerator), int(denominator) if slash else 1)
            except (ValueError, ZeroDivisionError):  # past the digit limit, or "a/0": said below
                pass
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"cannot interpret {value!r} as a rational")
    if isinstance(value, numbers.Integral):
        return Fraction(int(value))
    decimal = value if isinstance(value, Decimal) else None
    try:
        if isinstance(value, numbers.Real):  # floats, including numpy scalars
            return Fraction(Decimal(repr(float(value))))
        if isinstance(value, str):
            text = value.strip()
            if "/" in text:
                return Fraction(text)
            decimal = Decimal(text)
        if decimal is not None:
            _, digits, exponent = decimal.as_tuple()
            if not decimal.is_finite() or len(digits) + abs(exponent) <= MAX_DECIMAL_DIGITS:
                return Fraction(decimal)
    # infinities overflow, NaN is a ValueError
    except (ValueError, ZeroDivisionError, InvalidOperation, OverflowError) as exc:
        ratio = isinstance(value, str) and _RATIO.fullmatch(text)
        limit = getattr(sys, "get_int_max_str_digits", int)()
        if ratio and limit and max(len(side) - side.count("_") for side in ratio.groups()) > limit:
            raise ValueError(f"cannot interpret {value!r} as a rational: needs more than {limit} digits") from exc
        raise ValueError(f"cannot interpret {value!r} as a rational") from exc
    too_long = "" if decimal is None else f": needs more than {MAX_DECIMAL_DIGITS} digits"
    raise ValueError(f"cannot interpret {value!r} as a rational{too_long}")


def as_probability(value: int | float | str | Fraction | Decimal) -> Fraction:
    """Like :func:`as_rational` but rejects values outside [0, 1]."""
    frac = as_rational(value)
    if not 0 <= frac.numerator <= frac.denominator:  # the denominator is positive
        raise ValueError(f"probability out of range [0, 1]: {value!r}")
    return frac


# --- procedures ------------------------------------------------------------


@dataclass(frozen=True)
class DeterministicProcedure:
    """Outcome equals each individual's criterion label: U = X."""


@dataclass(frozen=True)
class RocPoint:
    """A procedure's conviction rates: h = P(U=0|J=0), k = P(U=0|J=1)."""

    h: Fraction
    k: Fraction

    def __init__(self, h, k):
        object.__setattr__(self, "h", as_probability(h))
        object.__setattr__(self, "k", as_probability(k))


@dataclass(frozen=True, init=False)  # keeps RocPoint's checked __init__
class GlobalRates(RocPoint):
    """One conviction-rate pair for everybody: the procedure's point."""


@dataclass(frozen=True)
class PerGroupRates:
    """Conviction-rate pairs keyed by the values of one attribute.

    ``table`` is read-only. ``_pairs`` holds its distinct pairs in their first
    order, and ``_pair_of`` each value's index into them. Both are resolved
    once, here, for :func:`_probability_codes`, and are not fields: equality
    and ``repr`` see ``attribute`` and ``table`` only.
    """

    attribute: str
    table: Mapping[str, tuple[Fraction, Fraction]]

    def __init__(self, attribute: str, table: Mapping[str, tuple]):
        if not attribute:
            raise ValueError("attribute name must be non-empty")
        if not table:
            raise ValueError("per-group rate table must be non-empty")
        normalized = {
            str(value): (as_probability(pair[0]), as_probability(pair[1]))
            for value, pair in table.items()
        }
        object.__setattr__(self, "attribute", attribute)
        object.__setattr__(self, "table", _ReadOnlyDict(normalized))
        index = {pair: i for i, pair in enumerate(dict.fromkeys(normalized.values()))}
        object.__setattr__(self, "_pairs", tuple(index))
        object.__setattr__(self, "_pair_of", {value: index[pair] for value, pair in normalized.items()})


@dataclass(frozen=True)
class RandomizedProcedure:
    """Convicts by chance with merit-conditional rates (global or per group)."""

    rates: GlobalRates | PerGroupRates


Procedure = Union[DeterministicProcedure, RandomizedProcedure]


def global_procedure(h, k) -> RandomizedProcedure:
    return RandomizedProcedure(GlobalRates(h, k))


def per_group_procedure(attribute: str, table: Mapping[str, tuple]) -> RandomizedProcedure:
    return RandomizedProcedure(PerGroupRates(attribute, table))


def make_group_fair(h, k, attribute: str, values: Iterable[str]) -> RandomizedProcedure:
    """A per-group procedure that gives every listed value the same (h, k) pair.

    This is the constructive way to satisfy pairwise group fairness for the
    listed groups while keeping the overall rates of an imperfect procedure.
    """
    values = tuple(values)
    if not values:
        raise ValueError("make_group_fair requires at least one attribute value")
    pair = (as_probability(h), as_probability(k))
    return per_group_procedure(attribute, {value: pair for value in values})


# Deterministic probability code 1 - X, indexed by the criterion column (-1 is MISSING).
_DETERMINISTIC_CODES = np.array([1, 0, MISSING])


def _probability_codes(
    proc: Procedure, pop: Population, rows: np.ndarray | slice = ALL
) -> tuple[np.ndarray, tuple[Fraction, ...]]:
    """The conviction probability of each member at ``rows`` (sorted row
    indices or a slice, as from :func:`group_rows`; ``ALL`` is every member)
    as a code into a tuple of distinct exact probabilities.

    Deterministic: code ``1 - X`` into ``(0, 1)``. Randomized: code
    ``2 * pair + merit`` into the flattened distinct ``(h, k)`` pairs (a global
    procedure has one pair), so attribute values sharing a pair share codes.
    Raises for the first of those members, in population order, that has no
    probability: :class:`MissingCriterionError` for a deterministic procedure,
    :class:`MissingRateError` for a per-group one.
    """
    if isinstance(proc, DeterministicProcedure):
        codes = _DETERMINISTIC_CODES[pop.criterion[rows]]
        probs = (Fraction(0), Fraction(1))
    else:
        merit = pop.merit[rows]
        rates = proc.rates
        if isinstance(rates, GlobalRates):
            return merit, (rates.h, rates.k)
        column = pop.attributes.get(rates.attribute)
        if column is None:
            pair_codes = np.full(len(merit), MISSING)
        else:
            # -2 marks a value without configured rates; the trailing entry maps
            # the code MISSING of a member without a value to MISSING
            lookup = [2 * rates._pair_of.get(v, -1) for v in column.values]
            pair_codes = np.array(lookup + [MISSING], dtype=np.intp)[column.codes[rows]]
        codes = pair_codes + (pair_codes >= 0) * merit
        probs = tuple(rate for pair in rates._pairs for rate in pair)
    invalid = np.flatnonzero(codes < 0)
    if not invalid.size:
        return codes, probs
    at = int(invalid[0])
    first = range(len(pop))[rows][at] if isinstance(rows, slice) else int(rows[at])
    ident = pop._id(first)
    if isinstance(proc, DeterministicProcedure):
        raise MissingCriterionError(
            f"individual {ident!r} has no criterion label; deterministic procedures require X"
        )
    if codes[at] == MISSING:
        raise MissingRateError(
            f"individual {ident!r} has no value for attribute {rates.attribute!r}"
        )
    value = column.values[column.codes[first]]
    raise MissingRateError(
        f"no configured rates for {rates.attribute}={value!r} (individual {ident!r})"
    )


def _count_and_sum(counts: Sequence[int], probs: Sequence[Fraction]) -> tuple[int, Fraction]:
    """Members and their exact sum of conviction probabilities, from counts per code."""
    return sum(counts), sum((n * p for n, p in zip(counts, probs) if n), Fraction(0))


def conviction_sums(
    proc: Procedure, pop: Population, cells: np.ndarray | int = 0, n_cells: int = 1
) -> list[tuple[tuple[int, Fraction], tuple[int, Fraction]]]:
    """``(count, exact sum of conviction probabilities)`` per cell and merit class.

    ``cells`` assigns each member a cell in ``[0, n_cells)``, or is one int, the
    cell of every member (0 when omitted). Members are counted per (cell, merit,
    probability code) in one pass, and each count is multiplied by its exact
    probability only at the end. Raises for the first member that has no conviction
    probability.
    """
    codes, probs = _probability_codes(proc, pop)
    counts = cell_counts(pop.merit, codes, len(probs), cells, n_cells).tolist()
    return [tuple(_count_and_sum(row, probs) for row in by_merit) for by_merit in counts]


# --- simulation ------------------------------------------------------------


@dataclass(frozen=True, eq=False)  # an array field has no single truth value to compare by
class Simulation:
    """Per-member conviction counts over ``trials`` seeded trials.

    ``convictions[i]`` is how many of the trials convicted member ``i`` of
    the population the simulation was drawn for, in population order; the
    array is read-only. The ``n × trials`` member-trials must fit in int64,
    the range in which counts are drawn and summed. Counts of a non-integer
    dtype (``bool`` included) raise ``TypeError``, as a non-integer ``trials`` does.
    """

    seed: int
    trials: int
    convictions: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.convictions)
        if counts.ndim != 1:
            raise ValueError("one conviction count required per member")
        object.__setattr__(self, "trials", self._check_trials(counts.size, self.trials))
        if counts.size and counts.dtype.kind not in "iu":  # bools, floats and strings alike
            raise TypeError(f"conviction counts must have an integer dtype, got {counts.dtype}")
        convictions = counts.astype(np.int64)  # a wrapped uint64 count is negative, so refused
        if convictions.size and not 0 <= convictions.min() <= convictions.max() <= self.trials:
            raise ValueError(f"conviction counts must lie in [0, {self.trials}]")
        convictions.flags.writeable = False
        object.__setattr__(self, "convictions", convictions)

    @staticmethod
    def _check_trials(n: int, trials: int) -> int:
        """``trials`` as a Python int. Refuse a ``bool`` or non-integer ``trials``
        (``TypeError``), one below 1, or so many that ``n × trials``
        member-trials (``trials`` alone for an empty population) exceed 2**63 - 1."""
        if isinstance(trials, bool):
            raise TypeError("trials must be an integer, got a bool")
        trials = operator.index(trials)
        if trials < 1:
            raise ValueError(f"trials must be >= 1, got {trials}")
        if max(n, 1) * trials > np.iinfo(np.int64).max:
            raise ValueError(f"{trials} trials of {n} members exceed 2**63 - 1 member-trials")
        return trials


def simulate(proc: Procedure, pop: Population, seed: int, trials: int) -> Simulation:
    """Count each member's convictions over ``trials`` independent trials.

    Each individual is convicted with probability equal to their applicable
    rate, independently across individuals and trials, so a member's count
    is one ``binomial(trials, p)`` draw and time and memory are O(n) whatever
    ``trials`` is. The generator is numpy's seeded PCG64, so identical
    (procedure, population, seed, trials) inputs reproduce identical counts.
    ``trials`` is checked against :class:`Simulation`'s rule before anything
    is drawn.
    """
    trials = Simulation._check_trials(len(pop), trials)
    codes, exact = _probability_codes(proc, pop)
    probs = np.array([float(p) for p in exact])[codes]
    return Simulation(seed, trials, np.random.default_rng(seed).binomial(trials, probs))


# --- conditional rates -----------------------------------------------------


@dataclass(frozen=True)
class ConditionalRates:
    """Conviction rates for a (sub)population: h = P(U=0|J=0), k = P(U=0|J=1).

    ``support`` holds the (guilty, innocent) member counts behind the rates;
    a rate is ``None`` exactly when its merit class is empty.
    """

    h: Fraction | None
    k: Fraction | None
    support: tuple[int, int]

    def __post_init__(self):
        n_guilty, n_innocent = self.support
        if (self.h is None) != (n_guilty == 0) or (self.k is None) != (n_innocent == 0):
            raise ValueError("a rate must be present exactly when its class has support")

    @classmethod
    def from_sums(cls, sums: Iterable[tuple[int, Fraction]]) -> ConditionalRates:
        """Mean rate per merit class from its ``(count, sum of conviction
        probabilities)`` pair, guilty first; a class with no members gets ``None``."""
        (n_guilty, sum_guilty), (n_innocent, sum_innocent) = sums
        return cls(
            sum_guilty / n_guilty if n_guilty else None,
            sum_innocent / n_innocent if n_innocent else None,
            (n_guilty, n_innocent),
        )

    @property
    def acquittal_h(self) -> Fraction | None:
        """P(U=1 | J=0), the complement of h."""
        return None if self.h is None else 1 - self.h

    @property
    def acquittal_k(self) -> Fraction | None:
        """P(U=1 | J=1), the complement of k."""
        return None if self.k is None else 1 - self.k


def exact_rates(
    proc: Procedure, pop: Population, g: GroupSpec | None = None
) -> ConditionalRates:
    """Exact conviction rates of ``proc`` on group ``g`` (``None`` = everyone).

    Deterministic procedures count criterion labels per merit class in
    rational arithmetic. Randomized procedures report their configured rates;
    a group spanning members with different configured pairs raises
    :class:`AmbiguousRateError`. A merit class with no members yields ``None``
    for its rate. The work is in proportion to the group's size, after
    :func:`group_rows` has found its rows.
    """
    rows = group_rows(pop, g)
    codes, probs = _probability_codes(proc, pop, rows)
    by_merit = cell_counts(pop.merit[rows], codes, len(probs))[0].tolist()
    # codes 2 * pair and 2 * pair + 1 belong to one configured pair, and distinct
    # pairs have distinct indices; deterministic and global codes are 0 and 1,
    # so only a per-group procedure can span two
    present = {code // 2 for code, n in enumerate(map(sum, zip(*by_merit))) if n}
    if len(present) > 1:
        pairs = sorted(probs[2 * pair : 2 * pair + 2] for pair in present)
        raise AmbiguousRateError(
            "group spans members with different configured rates: "
            + ", ".join(f"({h}, {k})" for h, k in pairs)
        )
    return ConditionalRates.from_sums(_count_and_sum(row, probs) for row in by_merit)


def empirical_rates(
    pop: Population, simulation: Simulation, g: GroupSpec | None = None
) -> ConditionalRates:
    """Observed conviction frequencies of a simulation of ``pop``.

    Rates are exact ratios of counts (convictions over member-trials), so
    they can be fed to the same comparisons as configured rates; compare
    them with a positive tolerance, since they carry sampling noise.
    """
    convictions = simulation.convictions
    if len(convictions) != len(pop):
        raise ValueError(
            f"simulation has {len(convictions)} members, population has {len(pop)}"
        )
    rows = group_rows(pop, g)
    merit, convictions = pop.merit[rows], convictions[rows]
    sums = []
    for label in (GUILTY, INNOCENT):
        members = merit == label
        convicted = int(convictions.sum(where=members))
        sums.append((int(np.count_nonzero(members)), Fraction(convicted, simulation.trials)))
    return ConditionalRates.from_sums(sums)


# --- procedure description files -------------------------------------------


class _JsonNumber(Decimal):
    """A JSON number with a fraction or an exponent, held exactly as written;
    messages show its value, ``1.5``, not ``Decimal('1.5')``."""

    __repr__ = Decimal.__str__


def _parse_json(source: str | bytes | IO[str] | IO[bytes], error: type[ProcfairError] = ProcfairError):
    """The package's one JSON reader of input documents, which reads ``source``
    as its UTF-8 file (:func:`~procfair.population._file_bytes`) and each number
    with a fraction or an exponent as an exact :class:`_JsonNumber`, never through
    a binary float. Malformed text, an integer past the interpreter's digit limit,
    an exponent past decimal's range, nesting too deep for the parser, or a name
    given twice in one object raises ``error`` with a one-line message; text that
    is not UTF-8 raises ``UnicodeError``, as ``Path.read_text`` does."""

    def unique_names(pairs):
        doc = dict(pairs)
        if len(doc) < len(pairs):  # the first name whose second occurrence comes first
            seen = set()
            for name, _ in pairs:
                if name in seen:
                    raise error(f"invalid JSON: name {name!r} given twice in one object")
                seen.add(name)
        return doc

    text = _file_bytes(source).decode()
    try:
        return json.loads(text, object_pairs_hook=unique_names, parse_float=_JsonNumber)
    except (ValueError, RecursionError) as exc:  # a JSONDecodeError or an over-long integer
        raise error(f"invalid JSON: {exc}") from exc
    except ArithmeticError as exc:  # an exponent past decimal's range, so past any digit limit
        raise error(f"invalid JSON: a number needs more than {MAX_DECIMAL_DIGITS} digits") from exc


def load_procedure(source: str | bytes | IO[str] | IO[bytes]) -> Procedure:
    """Parse a procedure description document.

    Accepted forms::

        {"type": "deterministic"}
        {"type": "randomized", "rates": {"global": [h, k]}}
        {"type": "randomized", "attribute": "sex", "rates": {"M": [h, k], "F": [h, k]}}

    Probabilities may be JSON numbers, decimal strings, or ``"a/b"`` strings.
    ``source`` is a ``str``, ``bytes``, a text file or a binary file, read as
    its UTF-8 file, as :func:`~procfair.population.load_population` reads one.
    """
    doc = _parse_json(source, ProcedureSpecError)
    if not isinstance(doc, dict):
        raise ProcedureSpecError("procedure description must be a JSON object")
    kind = doc.get("type")
    if kind == "deterministic":
        return DeterministicProcedure()
    if kind != "randomized":
        raise ProcedureSpecError(f"unknown procedure type {kind!r}")
    rates = doc.get("rates")
    if not isinstance(rates, dict) or not rates:
        raise ProcedureSpecError("randomized procedure needs a non-empty 'rates' object")

    def pair(raw, where: str) -> tuple[Fraction, Fraction]:
        if not isinstance(raw, (list, tuple)) or len(raw) != 2:
            raise ProcedureSpecError(f"rates for {where} must be a [h, k] pair")
        try:
            return as_probability(raw[0]), as_probability(raw[1])
        except ValueError as exc:
            raise ProcedureSpecError(f"bad probability for {where}: {exc}") from exc

    attribute = doc.get("attribute")
    if attribute is None:
        if set(rates) != {"global"}:
            raise ProcedureSpecError(
                "rates must be keyed 'global', or an 'attribute' must be named"
            )
        h, k = pair(rates["global"], "global")
        return global_procedure(h, k)
    if not isinstance(attribute, str) or not attribute:
        raise ProcedureSpecError(f"'attribute' must be a non-empty string, got {attribute!r}")
    if "global" in rates:
        raise ProcedureSpecError("per-attribute rates cannot also contain 'global'")
    table = {value: pair(raw, f"{attribute}={value}") for value, raw in rates.items()}
    return per_group_procedure(attribute, table)
