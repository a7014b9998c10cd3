import random
from types import SimpleNamespace
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procfair import theorem
from procfair.errors import MissingCriterionError, SizeLimitError
from procfair.fairness import check_absolute_fairness, check_pairwise_fairness
from procfair.population import (
    GUILTY,
    INNOCENT,
    CriterionEquals,
    ExplicitIdSet,
    Individual,
    Population,
    dump_population,
    load_population,
)
from procfair.procedure import (
    ConditionalRates,
    DeterministicProcedure,
    PerGroupRates,
    exact_rates,
    global_procedure,
    per_group_procedure,
)
from procfair.roc import ProcedureClass
from procfair.theorem import construct_witness, exhaustive_search, verify_theorem


def pop_of(labels):
    """Population from (merit, criterion) pairs, ids a, b, c, ..."""
    return Population(
        Individual(chr(ord("a") + i), merit=j, criterion=x) for i, (j, x) in enumerate(labels)
    )


def side_rates(proc, pop, ids):
    """Exact rates of the members ``ids``.

    ``exact_rates`` refuses a group spanning several configured rate pairs, so
    a per-group side is split by attribute value and the parts' rates are
    pooled, weighted by their support.
    """
    rates = getattr(proc, "rates", None)
    if not isinstance(rates, PerGroupRates):
        return exact_rates(proc, pop, ExplicitIdSet(ids))
    parts = {}
    for ident in ids:
        parts.setdefault(pop.by_id[ident].attributes[rates.attribute], []).append(ident)
    counts, sums = [0, 0], [Fraction(0), Fraction(0)]
    for part in parts.values():
        part_rates = exact_rates(proc, pop, ExplicitIdSet(part))
        for j, rate in ((GUILTY, part_rates.h), (INNOCENT, part_rates.k)):
            if rate is not None:
                counts[j] += part_rates.support[j]
                sums[j] += rate * part_rates.support[j]
    h, k = (total / count if count else None for total, count in zip(sums, counts))
    return ConditionalRates(h, k, tuple(counts))


def brute_force_violations(pop, proc=None, tolerance=0):
    """Oracle: test every unordered bipartition through the fairness module."""
    if proc is None:
        proc = DeterministicProcedure()
    ids = list(pop.ids())
    rest = ids[1:]
    found = []
    for size in range(1, len(ids)):
        for subset in combinations(rest, size):  # first id pinned to the complement
            complement = tuple(i for i in ids if i not in subset)
            verdict = check_pairwise_fairness(
                side_rates(proc, pop, subset),
                side_rates(proc, pop, complement),
                tolerance,
            )
            if not verdict.fair:
                found.append(
                    (frozenset(subset), tuple(sorted(verdict.violated_merit_classes())))
                )
    return found


# --- construct_witness -----------------------------------------------------------


def test_witness_on_straddling_innocents(witness_pop):
    report = construct_witness(witness_pop)
    assert report.group_x1 == CriterionEquals(1)
    assert report.group_x0 == CriterionEquals(0)
    assert report.violated_merit_classes == (INNOCENT,)
    assert report.class_probabilities[INNOCENT] == (Fraction(1), Fraction(0))
    assert not report.perfect
    assert not report.unwitnessable


def test_witness_perfect_population_has_no_violations():
    report = construct_witness(pop_of([(1, 1), (0, 0), (1, 1), (0, 0)]))
    assert report.perfect
    assert report.violated_merit_classes == ()
    assert report.procedure_class is ProcedureClass.PERFECTLY_JUST


def test_witness_semi_perfect_violates_only_guilty_class():
    # all innocents satisfy the criterion; the guilty straddle it
    report = construct_witness(pop_of([(1, 1), (1, 1), (0, 1), (0, 0)]))
    assert report.violated_merit_classes == (GUILTY,)
    assert report.class_probabilities[GUILTY] == (Fraction(1), Fraction(0))


def test_witness_unwitnessable_population_is_flagged():
    # imperfect (an innocent is convicted) but nobody straddles the split
    report = construct_witness(pop_of([(1, 0), (0, 0)]))
    assert not report.perfect
    assert report.violated_merit_classes == ()
    assert report.unwitnessable


def test_witness_requires_criterion_labels():
    with pytest.raises(MissingCriterionError):
        construct_witness(Population([Individual("a", 1)]))


def test_witness_rejects_empty_population():
    with pytest.raises(ValueError):
        construct_witness(Population([]))


def test_witness_probabilities_are_exactly_zero_and_one():
    rng = random.Random(4)
    for _ in range(25):
        labels = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(6)]
        report = construct_witness(pop_of(labels))
        for p0, p1 in report.class_probabilities.values():
            assert (p0, p1) == (Fraction(1), Fraction(0))


# --- exhaustive_search -------------------------------------------------------------


def test_search_perfect_population_finds_nothing():
    assert exhaustive_search(pop_of([(1, 1), (0, 0), (1, 1)])) == ()


def test_search_three_member_example_matches_brute_force(witness_pop):
    found = exhaustive_search(witness_pop)
    # frozen expectation from enumerating all three bipartitions by hand:
    # {b} vs {a,c} and {b,c} vs {a} both split the innocents a and b
    assert [(b.subset, b.complement, b.violated_merit_classes) for b in found] == [
        (("b",), ("a", "c"), (INNOCENT,)),
        (("b", "c"), ("a",), (INNOCENT,)),
    ]
    oracle = brute_force_violations(witness_pop)
    assert [(frozenset(b.subset), b.violated_merit_classes) for b in found] == oracle
    # the criterion split is among them
    x1 = frozenset(i.id for i in witness_pop if i.criterion == 1)
    assert any(frozenset(b.subset) == x1 or frozenset(b.complement) == x1 for b in found)


def test_search_two_innocents_splits_singletons():
    found = exhaustive_search(pop_of([(1, 1), (1, 0)]))
    assert len(found) == 1
    assert found[0].subset == ("b",)
    assert found[0].violated_merit_classes == (INNOCENT,)


def test_search_agrees_with_fairness_oracle_on_random_instances():
    rng = random.Random(17)
    for _ in range(30):
        n = rng.randint(2, 6)
        labels = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(n)]
        pop = pop_of(labels)
        found = [
            (frozenset(b.subset), tuple(sorted(b.violated_merit_classes)))
            for b in exhaustive_search(pop)
        ]
        oracle = brute_force_violations(pop)
        assert len(found) == len(oracle)
        assert set(found) == set(oracle)


def test_search_size_limit():
    labels = [(i % 2, (i + 1) % 2) for i in range(16)]
    with pytest.raises(SizeLimitError):
        exhaustive_search(pop_of(labels))


def test_search_subset_never_contains_first_member():
    rng = random.Random(23)
    labels = [(rng.randint(0, 1), rng.randint(0, 1)) for _ in range(7)]
    pop = pop_of(labels)
    first = pop.members[0].id
    for b in exhaustive_search(pop):
        assert first not in b.subset
        assert first in b.complement


def test_search_is_deterministic():
    pop = pop_of([(1, 1), (1, 0), (0, 0), (0, 1), (1, 0)])
    assert exhaustive_search(pop) == exhaustive_search(pop)


def test_search_with_global_randomized_rates_finds_nothing():
    rng = random.Random(3)
    proc = global_procedure("1/2", "1/2")
    for n in (2, 5, 8):
        labels = [(rng.randint(0, 1), None) for _ in range(n)]
        pop = pop_of(labels)
        assert exhaustive_search(pop, proc=proc) == ()


def test_search_with_per_group_rates_finds_violations():
    pop = Population(
        [
            Individual("a", INNOCENT, attributes={"sex": "M"}),
            Individual("b", INNOCENT, attributes={"sex": "F"}),
            Individual("c", GUILTY, attributes={"sex": "M"}),
        ]
    )
    proc = per_group_procedure("sex", {"M": ("1/2", "1/2"), "F": ("1/2", "1/4")})
    found = exhaustive_search(pop, proc=proc)
    # the M and F innocents face 1/2 vs 1/4, so every split separating them violates
    assert [(b.subset, b.violated_merit_classes) for b in found] == [
        (("b",), (INNOCENT,)),
        (("b", "c"), (INNOCENT,)),
    ]


RATES = st.sampled_from([Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(1)])


@st.composite
def audited_populations(draw):
    """A population of at most 8 members and a procedure of one of the three kinds."""
    members = [
        Individual(
            chr(ord("a") + i),
            merit=draw(st.integers(0, 1)),
            criterion=draw(st.integers(0, 1)),
            attributes={"sex": draw(st.sampled_from("MF"))},
        )
        for i in range(draw(st.integers(0, 8)))
    ]
    pop = Population(members)
    if draw(st.booleans()):
        pop = load_population(dump_population(pop))
    kind = draw(st.sampled_from(["deterministic", "global", "per-group"]))
    if kind == "deterministic":
        proc = DeterministicProcedure()
    elif kind == "global":
        proc = global_procedure(draw(RATES), draw(RATES))
    else:
        proc = per_group_procedure("sex", {v: (draw(RATES), draw(RATES)) for v in "MF"})
    return pop, proc


# Rates about 10^-78 apart with 40-digit denominators: the integer test outgrows
# int64 here and is made on Python ints.
NEAR = per_group_procedure(
    "sex",
    {
        "M": (Fraction(1, 10**39 + 1), Fraction(1, 10**39 + 3)),
        "F": (Fraction(1, 10**39 + 3), Fraction(1, 10**39 + 1)),
    },
)
NEAR_POP = Population(
    Individual(ident, merit, 0, {"sex": sex})
    for ident, merit, sex in [("a", 1, "M"), ("b", 1, "F"), ("c", 0, "F"), ("d", 0, "M"), ("e", 1, "F")]
)


@settings(max_examples=300, deadline=None)
@given(
    audited_populations(),
    st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 4), Fraction(1, 2)]),
    st.integers(1, 4),
)
@example((NEAR_POP, NEAR), Fraction(0), 2)
@example((NEAR_POP, NEAR), Fraction(1, 10), 1)
def test_bipartition_mode_matches_brute_force_oracle(case, tolerance, max_violations):
    pop, proc = case
    ids = pop.ids()
    position = {ident: i for i, ident in enumerate(ids)}

    def mask(group_ids):
        return sum(1 << position[ident] for ident in group_ids)

    # the oracle's (subset, classes) pairs in the library's order: by subset mask
    expected = sorted(
        (mask(subset), classes)
        for subset, classes in brute_force_violations(pop, proc, tolerance)
    )

    def listed(report):
        for v in report.violations:
            assert v.group_a.ids | v.group_b.ids == set(ids)
            assert not v.group_a.ids & v.group_b.ids
        return [(mask(v.group_a.ids), v.merit_classes) for v in report.violations]

    full = check_absolute_fairness(proc, pop, "bipartitions", tolerance, max_violations=1 << 8)
    assert listed(full) == expected
    assert full.fair == (not expected)
    assert not full.truncated
    cut = check_absolute_fairness(
        proc, pop, "bipartitions", tolerance, max_violations=max_violations
    )
    assert listed(cut) == expected[:max_violations]
    assert cut.truncated == (len(expected) > max_violations)
    if tolerance == 0:
        # some bipartition is unfair iff two members of one merit class differ
        assert full.fair == check_absolute_fairness(proc, pop, "singletons").fair
        found = exhaustive_search(pop, max_n=8, proc=proc)
        assert [(mask(b.subset), b.violated_merit_classes) for b in found] == expected


@pytest.mark.parametrize("chunk", [1, 3])
def test_bipartition_oracle_holds_across_chunk_seams(monkeypatch, chunk):
    """Chunks of 1 and 3 masks put seams between every few masks tested."""
    monkeypatch.setattr(theorem, "BIPARTITION_CHUNK", chunk)
    test_bipartition_mode_matches_brute_force_oracle()


def test_truncated_verdict_tests_only_the_chunks_it_lists_from(monkeypatch):
    chunks = []

    def counted(*args):
        chunks.append(args)
        return violated_classes(*args)

    violated_classes = theorem._violated_classes
    monkeypatch.setattr(theorem, "_violated_classes", counted)
    pop = pop_of([(i % 2, i // 2 % 2) for i in range(20)])
    report = check_absolute_fairness(
        DeterministicProcedure(), pop, mode="bipartitions", max_n=20, max_violations=1
    )
    assert not report.fair and report.truncated and len(report.violations) == 1
    assert len(chunks) == 1


# --- verify_theorem -------------------------------------------------------------


def test_verify_theorem_holds_on_random_instances():
    report = verify_theorem(8, 200, seed=42)
    assert report.passed
    assert report.counterexamples == ()
    assert (
        report.perfect_instances + report.witnessed_instances + report.unwitnessable_instances
        == 200
    )


def test_verify_theorem_single_individual_is_vacuous():
    report = verify_theorem(1, 20, seed=5)
    assert report.passed
    # one individual admits no nontrivial bipartition, so nothing is witnessed
    assert report.witnessed_instances == 0


def test_verify_theorem_is_seed_deterministic():
    assert verify_theorem(6, 50, seed=9) == verify_theorem(6, 50, seed=9)


def test_verify_theorem_rejects_out_of_range_sizes():
    with pytest.raises(SizeLimitError):
        verify_theorem(16, 1, seed=0)
    with pytest.raises(ValueError):
        verify_theorem(0, 1, seed=0)
    with pytest.raises(ValueError):
        verify_theorem(3, 0, seed=0)


def _stray(pop, max_n):
    """One violation whose side is no member's."""
    return (theorem.Bipartition(("nobody",), (), (0,)),)


def _split_on_other_classes(pop, max_n):
    """The criterion split, reported as violating class 1 only."""
    first = pop.members[0].criterion
    split = sorted(ind.id for ind in pop if ind.criterion != first)
    return (theorem.Bipartition(tuple(split), (), (1,)),)


@pytest.mark.parametrize(
    ("perfect", "violated", "search", "reasons", "kind"),
    [
        (True, (0,), lambda pop, max_n: (), ["perfect instance reported violated classes"], 0),
        (True, (), _stray, ["perfect instance has violating bipartitions"], 0),
        (False, (0,), lambda pop, max_n: (),
         ["witnessed instance but exhaustive search found nothing",
          "criterion split missing from exhaustive search results"], 1),
        (False, (0,), _stray, ["criterion split missing from exhaustive search results"], 1),
        (False, (0,), _split_on_other_classes,
         ["criterion split violates different classes than the witness"], 1),
        (False, (), _stray, ["unwitnessable instance still has violating bipartitions"], 2),
    ],
)
def test_verify_theorem_reports_each_failure(monkeypatch, perfect, violated, search, reasons, kind):
    witness = SimpleNamespace(perfect=perfect, violated_merit_classes=violated)
    monkeypatch.setattr(theorem, "construct_witness", lambda pop: witness)
    monkeypatch.setattr(theorem, "exhaustive_search", search)
    report = verify_theorem(4, 2, seed=3)
    assert report.passed is False
    got = [(c.split(" labels=")[0], c.split(": ", 1)[1]) for c in report.counterexamples]
    assert got == [(f"trial {trial}", reason) for trial in range(2) for reason in reasons]
    counters = [
        report.perfect_instances, report.witnessed_instances, report.unwitnessable_instances
    ]
    assert counters == [2 if i == kind else 0 for i in range(3)]


def test_theorem_holds_on_every_label_profile_up_to_ten_members():
    """Under U = X a population's verdict depends only on its counts n(J, X),
    so checking one population per profile covers every population of 2..10."""
    profiles = 0
    for n in range(2, 11):
        for counts in product(range(n + 1), repeat=3):
            if sum(counts) > n:
                continue
            count = dict(zip([(0, 0), (0, 1), (1, 0)], counts))
            count[1, 1] = n - sum(counts)
            profiles += 1
            pop = pop_of([jx for jx in sorted(count) for _ in range(count[jx])])
            violated = tuple(j for j in (GUILTY, INNOCENT) if count[j, 0] and count[j, 1])
            witness = construct_witness(pop)
            assert witness.violated_merit_classes == violated, count
            assert witness.perfect == (count[GUILTY, 1] == count[INNOCENT, 0] == 0), count
            verdict = check_absolute_fairness(
                DeterministicProcedure(), pop, "bipartitions", max_n=10, max_violations=0
            )
            assert verdict.fair == (not violated), count
            if violated:
                first = pop.members[0].criterion
                split = tuple(ind.id for ind in pop if ind.criterion != first)
                found = {b.subset: b.violated_merit_classes for b in exhaustive_search(pop, max_n=10)}
                assert found[split] == violated, count
    assert profiles == 996


# one probability-code pass per bipartition search


def _count_probability_code_calls(monkeypatch):
    import procfair.fairness as fairness
    import procfair.theorem as theorem
    from procfair.procedure import _probability_codes

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return _probability_codes(*args, **kwargs)

    monkeypatch.setattr(theorem, "_probability_codes", counted)
    monkeypatch.setattr(fairness, "_probability_codes", counted)
    return calls


def test_bipartition_searches_compute_probability_codes_once(monkeypatch):
    calls = _count_probability_code_calls(monkeypatch)
    pop = pop_of([(i % 2, i // 2 % 2) for i in range(8)])
    report = check_absolute_fairness(DeterministicProcedure(), pop, mode="bipartitions")
    assert not report.fair
    assert len(calls) == 1
    calls.clear()
    assert exhaustive_search(pop)
    assert len(calls) == 1


def test_search_of_one_member_without_criterion_finds_nothing(monkeypatch):
    calls = _count_probability_code_calls(monkeypatch)
    assert exhaustive_search(Population([Individual("a", INNOCENT)])) == ()
    assert calls == []


def test_search_refuses_a_negative_max_n():
    for pop in (Population([]), Population([Individual("a", INNOCENT, 1)])):
        with pytest.raises(SizeLimitError, match="non-negative, got -5"):
            exhaustive_search(pop, max_n=-5)


def test_search_checks_size_before_criterion_labels():
    pop = Population([Individual("a", INNOCENT), Individual("b", GUILTY)])
    with pytest.raises(SizeLimitError):
        exhaustive_search(pop, max_n=1)
    with pytest.raises(MissingCriterionError):
        exhaustive_search(pop)
