"""The columnar aggregates against per-member Fraction sums written out here.

Every exact quantity (member counts, rates, conviction sums, contingency cells,
empirical rates, merit counts, attribute values and the criterion-split
witness) is recomputed member by member with :class:`fractions.Fraction`,
including which error is raised and its message, and compared with the library
on the same population built two ways: from :class:`Individual` objects and
loaded from CSV. The ``audit`` command is compared with the same sums through
files it reads.
"""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from procfair.cli import main
from procfair.errors import (
    AmbiguousRateError,
    MissingCriterionError,
    MissingRateError,
    ProcfairError,
)
from procfair.fairness import expected_contingency
from procfair.population import (
    AttributeEquals,
    CriterionEquals,
    ExplicitIdSet,
    Individual,
    Population,
    Singleton,
    cell_counts,
    dump_population,
    group_members,
    load_population,
    merit_counts,
)
from procfair.procedure import (
    DeterministicProcedure,
    GlobalRates,
    Simulation,
    conviction_sums,
    empirical_rates,
    exact_rates,
    global_procedure,
    per_group_procedure,
)
from procfair.roc import RocPoint, classify
from procfair.theorem import construct_witness

NAMES = ("sex", "region", "town")
VALUES = ("a", "b", "c")
RATES = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)])


@st.composite
def populations(draw):
    members = []
    for i in range(draw(st.integers(0, 9))):
        attrs = draw(st.dictionaries(st.sampled_from(NAMES), st.sampled_from(VALUES), max_size=3))
        members.append(
            Individual(
                f"m{i}",
                merit=draw(st.integers(0, 1)),
                criterion=draw(st.sampled_from([None, 0, 1])),
                attributes=attrs,
            )
        )
    return Population(members)


@st.composite
def procedures(draw):
    kind = draw(st.sampled_from(["deterministic", "global", "equal", "unequal"]))
    if kind == "deterministic":
        return DeterministicProcedure()
    if kind == "global":
        return global_procedure(draw(RATES), draw(RATES))
    # a table over some of the values, so some members may lack a configured rate
    values = draw(st.lists(st.sampled_from(VALUES), min_size=1, unique=True))
    if kind == "equal":
        pair = (draw(RATES), draw(RATES))
        table = {value: pair for value in values}
    else:
        table = {value: (draw(RATES), draw(RATES)) for value in values}
    return per_group_procedure(draw(st.sampled_from(NAMES)), table)


@st.composite
def audit_inputs(draw):
    """A population, a procedure and the attribute to audit; half the time every
    member has a value for that attribute, so the audit can get past its
    contingency table."""
    pop, proc, attribute = draw(populations()), draw(procedures()), draw(st.sampled_from(NAMES))
    if draw(st.booleans()):
        members = []
        for ind in pop.members:
            attrs = {attribute: draw(st.sampled_from(VALUES)), **ind.attributes}
            members.append(Individual(ind.id, ind.merit, ind.criterion, attrs))
        pop = Population(members)
    return pop, proc, attribute


# --- the per-member oracle ----------------------------------------------------------


def member_pair(proc, ind):
    """(h, k) governing ``ind``, or the (error type, message) its lookup raises."""
    if isinstance(proc, DeterministicProcedure):
        if ind.criterion is None:
            return MissingCriterionError, (
                f"individual {ind.id!r} has no criterion label; deterministic procedures require X"
            )
        p = Fraction(1 - ind.criterion)
        return p, p
    rates = proc.rates
    if isinstance(rates, GlobalRates):
        return rates.h, rates.k
    value = ind.attributes.get(rates.attribute)
    if value is None:
        return MissingRateError, (
            f"individual {ind.id!r} has no value for attribute {rates.attribute!r}"
        )
    if value not in rates.table:
        return MissingRateError, (
            f"no configured rates for {rates.attribute}={value!r} (individual {ind.id!r})"
        )
    return rates.table[value]


def is_error(pair) -> bool:
    return isinstance(pair[0], type)


def oracle_exact_rates(proc, members):
    """(h, k, support) or the (error type, message) exact_rates must raise."""
    pairs = set()
    sums, counts = [Fraction(0), Fraction(0)], [0, 0]
    for ind in members:
        pair = member_pair(proc, ind)
        if is_error(pair):
            return pair
        pairs.add(pair)
        sums[ind.merit] += pair[ind.merit]
        counts[ind.merit] += 1
    if not isinstance(proc, DeterministicProcedure) and len(pairs) > 1:
        return AmbiguousRateError, (
            "group spans members with different configured rates: "
            + ", ".join(f"({h}, {k})" for h, k in sorted(pairs))
        )
    rates = tuple(s / c if c else None for s, c in zip(sums, counts))
    return rates + (tuple(counts),)


def oracle_contingency(proc, members, attribute):
    cells: dict[str, list] = {}
    for ind in members:
        value = ind.attributes.get(attribute)
        if value is None:
            return ValueError, f"individual {ind.id!r} has no value for attribute {attribute!r}"
        pair = member_pair(proc, ind)
        if is_error(pair):
            return pair
        cell = cells.setdefault(value, [[0, Fraction(0)], [0, Fraction(0)]])[ind.merit]
        cell[0] += 1
        cell[1] += pair[ind.merit]
    return {value: [tuple(c) for c in by_merit] for value, by_merit in cells.items()}


def oracle_audit(proc, pop, attribute):
    """Rates per attribute value, in first-appearance order, or the first
    (error type, message) in the order ``audit`` meets them: each value's
    group, then everyone, then the contingency table."""
    values = dict.fromkeys(ind.attributes.get(attribute) for ind in pop.members)
    values.pop(None, None)
    if not values:
        return ProcfairError, f"no member has a value for attribute {attribute!r}"
    by_value = {}
    for value in values:
        members = [ind for ind in pop.members if ind.attributes.get(attribute) == value]
        by_value[value] = oracle_exact_rates(proc, members)
        if is_error(by_value[value]):
            return by_value[value]
    overall = oracle_exact_rates(proc, pop.members)
    if is_error(overall):
        return overall
    contingency = oracle_contingency(proc, pop.members, attribute)
    return contingency if isinstance(contingency, tuple) else by_value


def procedure_doc(proc) -> dict:
    """``proc`` as a procedure file, each rate an exact ``a/b`` string."""
    if isinstance(proc, DeterministicProcedure):
        return {"type": "deterministic"}
    rates = proc.rates
    if isinstance(rates, GlobalRates):
        return {"type": "randomized", "rates": {"global": [str(rates.h), str(rates.k)]}}
    table = {value: [str(h), str(k)] for value, (h, k) in rates.table.items()}
    return {"type": "randomized", "attribute": rates.attribute, "rates": table}


def groups(pop):
    ids = [ind.id for ind in pop.members]
    out = [None, CriterionEquals(0), CriterionEquals(1)]
    out += [AttributeEquals(name, value) for name in NAMES for value in VALUES]
    out += [ExplicitIdSet(ids[::2]), ExplicitIdSet(ids[1::3])]
    out += [Singleton(ident) for ident in ids[:2]]
    return out


def in_group(ind, g) -> bool:
    """Row-level membership, written out per group kind apart from ``group_rows``."""
    if g is None:
        return True
    if isinstance(g, AttributeEquals):
        return ind.attributes.get(g.name) == g.value
    if isinstance(g, CriterionEquals):
        return ind.criterion == g.value
    if isinstance(g, ExplicitIdSet):
        return ind.id in g.ids
    return ind.id == g.id  # Singleton


def both_ways(pop):
    """The population as built from Individuals and as loaded from its CSV."""
    loaded = load_population(dump_population(pop))
    assert loaded == pop
    assert loaded.members == pop.members
    return pop, loaded


def expect_raises(expected, call):
    error, message = expected
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# --- properties ------------------------------------------------------------------

# m0, outside the groups region=a and sex=a, comes first and lacks X and a
# configured rate for region or sex; m2 (region=a) lacks X, m3 (sex=a) lacks
# region and m1 (in both) has sex=a, which has no rate under SEX_B. The
# error of each group must name its own first offending member.
EARLIER_OFFENDER = Population(
    [
        Individual("m0", merit=0, criterion=None, attributes={"region": "b"}),
        Individual("m1", merit=1, criterion=1, attributes={"region": "a", "sex": "a"}),
        Individual("m2", merit=0, criterion=None, attributes={"region": "a"}),
        Individual("m3", merit=1, criterion=0, attributes={"sex": "a"}),
    ]
)
REGION_A = per_group_procedure("region", {"a": (Fraction(1, 4), Fraction(1, 2))})
SEX_B = per_group_procedure("sex", {"b": (Fraction(1, 3), Fraction(1))})


@settings(max_examples=100, deadline=None)
@given(populations(), procedures())
@example(EARLIER_OFFENDER, DeterministicProcedure())
@example(EARLIER_OFFENDER, REGION_A)
@example(EARLIER_OFFENDER, SEX_B)
def test_exact_rates_match_member_sums(pop, proc):
    for p in both_ways(pop):
        for g in groups(pop):
            members = [ind for ind in pop.members if in_group(ind, g)]
            expected = oracle_exact_rates(proc, members)
            if is_error(expected):
                expect_raises(expected, lambda: exact_rates(proc, p, g))
            else:
                rates = exact_rates(proc, p, g)
                assert (rates.h, rates.k, rates.support) == expected


@settings(max_examples=100, deadline=None)
@given(populations(), procedures(), st.sampled_from(NAMES))
@example(EARLIER_OFFENDER, DeterministicProcedure(), "region")
def test_contingency_matches_member_sums(pop, proc, attribute):
    expected = oracle_contingency(proc, pop.members, attribute)
    for p in both_ways(pop):
        if isinstance(expected, tuple):
            expect_raises(expected, lambda: expected_contingency(p, proc, attribute))
            continue
        table = expected_contingency(p, proc, attribute)
        got = {
            value: [(cell.count, cell.expected_convictions) for cell in (by[0], by[1])]
            for value, by in table.cells.items()
        }
        assert got == expected
        assert list(got) == list(expected)  # first-appearance order


@settings(max_examples=200, deadline=None)
@given(audit_inputs())
@example((EARLIER_OFFENDER, DeterministicProcedure(), "region"))
@example((EARLIER_OFFENDER, REGION_A, "sex"))
@example((EARLIER_OFFENDER, global_procedure(Fraction(1, 2), Fraction(1, 4)), "sex"))
def test_audit_matches_member_sums(inputs):
    pop, proc, attribute = inputs
    overall = oracle_exact_rates(proc, pop.members)
    assume(not (is_error(overall) and overall[0] is AmbiguousRateError))
    expected = oracle_audit(proc, pop, attribute)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        population, procedure = Path(tmp, "pop.csv"), Path(tmp, "proc.json")
        population.write_text(dump_population(pop), encoding="utf-8")
        procedure.write_text(json.dumps(procedure_doc(proc)), encoding="utf-8")
        argv = ["audit", "--population", str(population), "--procedure", str(procedure)]
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv + ["--attribute", attribute, "--format", "json"])
    if isinstance(expected, tuple):
        assert (code, err.getvalue()) == (1, f"error: {expected[1]}\n")
        return
    assert (code, err.getvalue()) == (0, "")
    doc = json.loads(out.getvalue())

    def ratios(r):
        return tuple(None if r[key] is None else Fraction(r[key]["ratio"]) for key in "hk")

    by_group = {value: ratios(r) for value, r in doc["rates"]["by_group"].items()}
    assert by_group == {value: (h, k) for value, (h, k, _) in expected.items()}
    assert list(by_group) == list(expected)
    support = doc["rates"]["overall"]["support"]
    assert ratios(doc["rates"]["overall"]) + ((support["guilty"], support["innocent"]),) == overall
    table = {
        value: [
            (cell["count"], Fraction(cell["expected_convictions"]["ratio"]))
            for cell in (by_merit["0"], by_merit["1"])
        ]
        for value, by_merit in doc["contingency"]["groups"].items()
    }
    contingency = oracle_contingency(proc, pop.members, attribute)
    assert table == contingency
    assert list(table) == list(contingency)
    pairs = list(combinations(expected, 2))
    assert len(doc["verdicts"]) == len(pairs)
    fair = []
    for verdict, (a, b) in zip(doc["verdicts"], pairs):
        assert (verdict["group_a"]["value"], verdict["group_b"]["value"]) == (a, b)
        rates = zip(expected[a][:2], expected[b][:2])
        fair.append(all(x is None or y is None or x == y for x, y in rates))
        assert verdict["fair"] == fair[-1]
    assert doc["fair"] == all(fair)


@settings(max_examples=60, deadline=None)
@given(populations(), st.integers(1, 5), st.integers(0, 2**32 - 1))
@example(EARLIER_OFFENDER, 3, 7)
def test_empirical_rates_merit_counts_and_values_match_member_counts(pop, trials, seed):
    outcomes = np.random.default_rng(seed).integers(0, 2, (trials, len(pop)))
    simulation = Simulation(seed, trials, (outcomes == 0).sum(axis=0))
    for p in both_ways(pop):
        for g in groups(pop):
            positions = [i for i, ind in enumerate(pop.members) if in_group(ind, g)]
            counts = [0, 0]
            convicted = [0, 0]
            for i in positions:
                merit = pop.members[i].merit
                counts[merit] += 1
                convicted[merit] += sum(1 for row in outcomes if row[i] == 0)
            rates = empirical_rates(p, simulation, g)
            assert rates.support == tuple(counts)
            assert (rates.h, rates.k) == tuple(
                Fraction(v, c * trials) if c else None for v, c in zip(convicted, counts)
            )
            assert merit_counts(p, g) == tuple(counts)
        for name in NAMES + ("absent",):
            seen = []
            for ind in pop.members:
                value = ind.attributes.get(name)
                if value is not None and value not in seen:
                    seen.append(value)
            assert p.attribute_values(name) == tuple(seen)


@settings(max_examples=100, deadline=None)
@given(populations())
def test_witness_matches_member_scan(pop):
    for p in both_ways(pop):
        if not len(pop):
            with pytest.raises(ValueError):
                construct_witness(p)
            continue
        missing = [ind for ind in pop.members if ind.criterion is None]
        if missing:
            expect_raises(
                member_pair(DeterministicProcedure(), missing[0]), lambda: construct_witness(p)
            )
            continue
        present = {(ind.merit, ind.criterion) for ind in pop.members}
        violated = tuple(j for j in (0, 1) if (j, 0) in present and (j, 1) in present)
        perfect = all(ind.criterion == ind.merit for ind in pop.members)
        h, k, _ = oracle_exact_rates(DeterministicProcedure(), pop.members)
        report = construct_witness(p)
        assert report.violated_merit_classes == violated
        assert report.perfect == perfect
        assert report.unwitnessable == (not perfect and not violated)
        assert report.procedure_class == (
            classify(RocPoint(h, k)) if h is not None and k is not None else None
        )



@settings(max_examples=100, deadline=None)
@given(populations())
def test_group_members_match_member_scan_and_decode_only_their_ids(pop):
    loaded = load_population(dump_population(pop))
    for g in [CriterionEquals(0), CriterionEquals(1)] + [
        AttributeEquals(name, value) for name in pop.attributes for value in pop.attribute_values(name)
    ]:
        listed = group_members(loaded, g)
        assert "_ids" not in loaded.__dict__
        assert listed == group_members(pop, g) == tuple(m for m in pop.members if in_group(m, g))


@st.composite
def scalar_cells(draw):
    """Merit labels, and a code and a cell shared by every member."""
    merit = draw(st.lists(st.integers(0, 1), max_size=20))
    n_codes, n_cells = draw(st.integers(1, 300)), draw(st.integers(1, 5))
    return merit, draw(st.integers(0, n_codes - 1)), n_codes, draw(st.integers(0, n_cells - 1)), n_cells


@settings(max_examples=100, deadline=None)
@given(scalar_cells())
@example(([], 0, 1, 0, 1))
@example(([], 299, 300, 4, 5))
@example(([1, 0, 1], 299, 300, 4, 5))  # codes past int8, the merit column's dtype
def test_one_int_cell_or_code_counts_as_that_value_for_every_member(inputs):
    labels, code, n_codes, cell, n_cells = inputs
    expected = np.zeros((n_cells, 2, n_codes), dtype=np.intp)
    for label in labels:
        expected[cell, label, code] += 1
    merit = np.array(labels, dtype=np.int8)
    codes, cells = np.full(len(merit), code, dtype=np.intp), np.full(len(merit), cell, dtype=np.int32)
    for every_code in (code, codes):
        for every_cell in (cell, cells):
            assert np.array_equal(cell_counts(merit, every_code, n_codes, every_cell, n_cells), expected)
    assert cell_counts(merit).tolist() == [[[labels.count(0)], [labels.count(1)]]]


# 72 regions, each with its own (h, k) pair: 144 probability codes, past int8
MANY_PAIRS = per_group_procedure(
    "region", {f"r{i}": (Fraction(i + 1, 97), Fraction(i, 89)) for i in range(72)}
)
MANY_PAIRS_POPULATION = Population(
    Individual(
        f"m{i}",
        merit=i * 7 % 3 % 2,
        criterion=i % 2,
        attributes={"region": f"r{i * 5 % 72}", "sex": "ab"[i % 2]},
    )
    for i in range(300)
)


def member_sums(proc, members):
    """(count, exact sum of conviction probabilities) per merit class."""
    sums = [[0, Fraction(0)], [0, Fraction(0)]]
    for ind in members:
        sums[ind.merit][0] += 1
        sums[ind.merit][1] += member_pair(proc, ind)[ind.merit]
    return tuple(map(tuple, sums))


def test_many_probability_codes_match_member_sums():
    pop, proc = MANY_PAIRS_POPULATION, MANY_PAIRS
    assert len(set(proc.rates.table.values())) == 72
    for p in both_ways(pop):
        assert conviction_sums(proc, p) == [member_sums(proc, pop.members)]
        for name in ("region", "sex"):
            column = p.attributes[name]
            by_value = [[ind for ind in pop.members if ind.attributes[name] == v] for v in column.values]
            sums = conviction_sums(proc, p, column.codes, len(column.values))
            assert sums == [member_sums(proc, members) for members in by_value]
            table = expected_contingency(p, proc, name)
            got = {
                value: [(cell.count, cell.expected_convictions) for cell in (by[0], by[1])]
                for value, by in table.cells.items()
            }
            assert got == oracle_contingency(proc, pop.members, name)
            for value, members in zip(column.values, by_value):
                expected = oracle_exact_rates(proc, members)
                g = AttributeEquals(name, value)
                if is_error(expected):  # each sex spans many pairs
                    expect_raises(expected, lambda: exact_rates(proc, p, g))
                else:
                    rates = exact_rates(proc, p, g)
                    assert (rates.h, rates.k, rates.support) == expected
