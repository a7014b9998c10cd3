"""Built-in demonstration scenario: a two-stage audit of a 10000-person population.

The dataset is a male/female split with unequal guilt ratios (M: 2000 guilty
/ 4000 innocent; F: 500 / 3500). Stage one applies one global randomized
procedure convicting the guilty with probability 3/4 and the innocent with
probability 1/10; stage two applies the corresponding group-fair procedure
that fixes those same rates per sex. The expected tables come out exact:
1875 guilty and 750 innocent convictions overall, 1500/400 for men and
375/350 for women, so among convicted women barely half are guilty while for
men 400 of 1900 convictions are mistaken. The scenario shows fairness and
imperfect justice coexisting when only a limited set of groups is protected.
Each stage is read off the ``audit --attribute sex`` document of the population.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator, Mapping

import numpy as np

from .population import GUILTY, INNOCENT, MISSING, AttributeColumn, Population
from .procedure import RandomizedProcedure, global_procedure, make_group_fair
from .roc import RocPoint, classify

SEX = "sex"
GROUP_SIZES: Mapping[str, Mapping[int, int]] = {
    "M": {GUILTY: 2000, INNOCENT: 4000},
    "F": {GUILTY: 500, INNOCENT: 3500},
}
RATE_GUILTY = Fraction(3, 4)  # P(U=0 | J=0)
RATE_INNOCENT = Fraction(1, 10)  # P(U=0 | J=1)

# The scenario's headline population size (12000) does not match its group
# tables, which sum to 10000; the tables are authoritative here.
POPULATION_NOTE = (
    "data note: the scenario is described as 12000 individuals, but its group "
    "tables sum to 10000 (M 6000 + F 4000); this reproduction follows the tables"
)


class _DemoIds:
    """The member ids of :func:`demo_population`: per group, its lower-case
    value and a four-digit serial from 1 (``m0001`` … ``m6000``, ``f0001`` …
    ``f4000``), each formatted only when it is read."""

    def __getitem__(self, i: int) -> str:
        row = i
        for value, by_merit in GROUP_SIZES.items():
            size = sum(by_merit.values())
            if row < size:
                return f"{value.lower()}{row + 1:04d}"
            row -= size
        raise IndexError(f"no member {i}")

    def __iter__(self) -> Iterator[str]:
        for value, by_merit in GROUP_SIZES.items():
            prefix = value.lower()
            yield from (f"{prefix}{serial:04d}" for serial in range(1, sum(by_merit.values()) + 1))


def demo_population() -> Population:
    """The 10000-member population, grouped by sex with fixed guilt counts:
    each group's guilty members, then its innocent ones."""
    labels = (GUILTY, INNOCENT)
    counts = [by_merit[label] for by_merit in GROUP_SIZES.values() for label in labels]
    sizes = [sum(by_merit.values()) for by_merit in GROUP_SIZES.values()]
    return Population._from_columns(
        _DemoIds(),
        np.repeat(np.array(labels * len(GROUP_SIZES), dtype=np.int8), counts),
        np.full(sum(sizes), MISSING, dtype=np.int8),
        {SEX: AttributeColumn(tuple(GROUP_SIZES), np.repeat(np.arange(len(sizes), dtype=np.int32), sizes))},
    )


def demo_global_procedure() -> RandomizedProcedure:
    return global_procedure(RATE_GUILTY, RATE_INNOCENT)


def demo_group_fair_procedure() -> RandomizedProcedure:
    return make_group_fair(RATE_GUILTY, RATE_INNOCENT, SEX, GROUP_SIZES)


def demo_report() -> dict:
    """The ``example1`` report: each stage is read off its ``audit --attribute sex`` document."""
    from .cli import _audit_document  # cli imports this module at its top

    pop = demo_population()
    stages = []
    for name, proc in (
        ("global", demo_global_procedure()),
        ("group-fair", demo_group_fair_procedure()),
    ):
        audit = _audit_document(pop, proc, SEX, Fraction(0))
        h, k = (audit["rates"]["overall"][rate]["ratio"] for rate in "hk")
        stages.append(
            {
                "name": name,
                "procedure": audit["procedure"],
                "rates_by_group": audit["rates"]["by_group"],
                "verdict": audit["verdicts"][0],
                "contingency": audit["contingency"],
                "justice": audit["justice"],
                "classification": classify(RocPoint(h, k)).value,
            }
        )
    return {
        "note": POPULATION_NOTE,
        "population": {
            "size": len(pop),
            "groups": {
                value: {"guilty": sizes[GUILTY], "innocent": sizes[INNOCENT]}
                for value, sizes in GROUP_SIZES.items()
            },
        },
        "stages": stages,
    }
