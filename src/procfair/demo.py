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
from typing import Mapping

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


def demo_population() -> Population:
    """The 10000-member population, grouped by sex with fixed guilt counts."""
    ids, merit, sex = [], [], []
    for code, (value, by_merit) in enumerate(GROUP_SIZES.items()):
        serial = 0
        for label in (GUILTY, INNOCENT):
            for _ in range(by_merit[label]):
                serial += 1
                ids.append(f"{value.lower()}{serial:04d}")
                merit.append(label)
                sex.append(code)
    return Population._from_columns(
        ids,
        np.array(merit, dtype=np.int8),
        np.full(len(ids), MISSING, dtype=np.int8),
        {SEX: AttributeColumn(tuple(GROUP_SIZES), np.array(sex, dtype=np.int32))},
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
