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
The population is plain data: :data:`GROUP_SIZES` written as population-CSV
text and read by :func:`load_population`, so that only ``population`` knows
the column layout. Each stage is read off the ``audit --attribute sex``
document of the population, which :func:`demo_report` loads once per process.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Mapping

from .population import CSV_HEADER, GUILTY, INNOCENT, Population, csv_text, load_population
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
    """A new copy of the 10000-member population, grouped by sex with fixed
    guilt counts, on every call: :data:`GROUP_SIZES` written as population-CSV
    text and read back by :func:`load_population`. Each group holds its guilty
    members, then its innocent ones, and each id is the group's lower-case
    value and a four-digit serial from 1 (``m0001`` … ``m6000``, ``f0001`` …
    ``f4000``)."""
    rows = (
        (f"{value.lower()}{serial:04d}", label, "", f"{SEX}={value}")
        for value, by_merit in GROUP_SIZES.items()
        for serial, label in enumerate([GUILTY] * by_merit[GUILTY] + [INNOCENT] * by_merit[INNOCENT], 1)
    )
    return load_population(csv_text(chain([CSV_HEADER], rows)))


_report_population = cache(demo_population)  # demo_report's own copy: loaded once, never handed out


def demo_global_procedure() -> RandomizedProcedure:
    return global_procedure(RATE_GUILTY, RATE_INNOCENT)


def demo_group_fair_procedure() -> RandomizedProcedure:
    return make_group_fair(RATE_GUILTY, RATE_INNOCENT, SEX, GROUP_SIZES)


def demo_report() -> dict:
    """The ``example1`` report: each stage is read off its ``audit --attribute sex`` document."""
    from .cli import _audit_document  # cli imports this module at its top

    pop = _report_population()
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
