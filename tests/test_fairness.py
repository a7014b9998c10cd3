import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procfair.errors import MissingRateError, SizeLimitError
from procfair.fairness import (
    _checked_tolerance,
    check_absolute_fairness,
    check_pairwise_fairness,
    expected_contingency,
    justice_metrics,
)
from procfair.population import (
    GUILTY,
    INNOCENT,
    AttributeEquals,
    CriterionEquals,
    Individual,
    Population,
    load_population,
)
from procfair.procedure import (
    ConditionalRates,
    DeterministicProcedure,
    exact_rates,
    global_procedure,
    per_group_procedure,
)


def rates(h, k, support=(10, 10)):
    return ConditionalRates(
        None if h is None else Fraction(h),
        None if k is None else Fraction(k),
        support,
    )


# --- pairwise verdicts --------------------------------------------------------


def test_equal_rates_are_fair():
    verdict = check_pairwise_fairness(rates("3/4", "1/10"), rates("3/4", "1/10"))
    assert verdict.fair
    assert verdict.violated_merit_classes() == ()


def test_unequal_innocent_rates_are_unfair():
    verdict = check_pairwise_fairness(rates(1, 1), rates(1, 0))
    assert not verdict.fair
    assert verdict.violated_merit_classes() == (INNOCENT,)
    innocent = verdict.comparisons[1]
    assert innocent.difference == 1


def test_vacuous_class_is_fair():
    # second group has no innocent members: the innocent class is incomparable
    verdict = check_pairwise_fairness(rates(1, 1), rates(1, None, support=(10, 0)))
    assert verdict.fair
    assert not verdict.comparisons[1].comparable


def test_fully_vacuous_comparison_is_fair():
    verdict = check_pairwise_fairness(
        rates(None, 1, support=(0, 5)), rates(1, None, support=(5, 0))
    )
    assert verdict.fair
    assert all(not c.comparable for c in verdict.comparisons)


def test_verdict_is_symmetric():
    a, b = rates("2/3", "1/5"), rates("1/3", "1/5")
    ab = check_pairwise_fairness(a, b, "1/10")
    ba = check_pairwise_fairness(b, a, "1/10")
    assert ab.fair == ba.fair
    assert [c.difference for c in ab.comparisons] == [c.difference for c in ba.comparisons]
    assert ab.violated_merit_classes() == ba.violated_merit_classes()


def test_tolerance_is_inclusive_and_exact():
    # difference exactly equal to the tolerance is not a violation
    assert check_pairwise_fairness(rates("1/2", 0), rates("2/5", 0), "1/10").fair
    # one atom beyond it is
    assert not check_pairwise_fairness(
        rates("1/2", 0), rates(Fraction(2, 5) - Fraction(1, 10**30), 0), "1/10"
    ).fair


def test_zero_tolerance_distinguishes_tiny_exact_differences():
    delta = Fraction(1, 10**40)
    verdict = check_pairwise_fairness(rates("1/3", 0), rates(Fraction(1, 3) + delta, 0), 0)
    assert not verdict.fair
    assert verdict.comparisons[0].difference == delta


def test_negative_tolerance_rejected():
    with pytest.raises(ValueError):
        check_pairwise_fairness(rates(1, 0), rates(1, 0), -1)


def test_tolerance_above_one_rejected():
    # 1 already accepts the widest gap two probabilities can have
    assert check_pairwise_fairness(rates(1, 0), rates(0, 1), 1).fair
    with pytest.raises(ValueError, match="tolerance must be at most 1, got '1e400'"):
        check_pairwise_fairness(rates(1, 0), rates(1, 0), "1e400")
    with pytest.raises(ValueError, match="at most 1"):
        check_absolute_fairness(global_procedure(0, 1), Population([]), tolerance=Fraction(3, 2))


def test_tolerance_bounds_are_exact():
    tiny = Fraction(1, 10**100)
    assert _checked_tolerance(1) == 1 and _checked_tolerance("0") == 0
    with pytest.raises(ValueError, match="^tolerance must be at most 1, got "):
        _checked_tolerance(1 + tiny)
    with pytest.raises(ValueError, match="^tolerance must be non-negative, got "):
        _checked_tolerance(-tiny)


def test_global_rates_fair_across_every_attribute_pair(demo_pop, demo_proc):
    values = demo_pop.attribute_values("sex")
    fetched = {v: exact_rates(demo_proc, demo_pop, AttributeEquals("sex", v)) for v in values}
    for a in values:
        for b in values:
            if a < b:
                assert check_pairwise_fairness(fetched[a], fetched[b], 0).fair


# --- absolute fairness ---------------------------------------------------------


def _mixed_pop(n_guilty=3, n_innocent=3, criteria=None):
    members = []
    for i in range(n_guilty):
        members.append(Individual(f"g{i}", GUILTY, criterion=None if criteria is None else criteria[i]))
    for i in range(n_innocent):
        c = None if criteria is None else criteria[n_guilty + i]
        members.append(Individual(f"i{i}", INNOCENT, criterion=c))
    return Population(members)


def test_coin_toss_is_absolutely_fair_in_both_modes():
    pop = _mixed_pop()
    proc = global_procedure("1/2", "1/2")
    for mode in ("singletons", "bipartitions"):
        report = check_absolute_fairness(proc, pop, mode=mode)
        assert report.fair
        assert report.violations == ()


def test_imperfect_deterministic_yields_criterion_split_violation():
    # innocents straddle the split: i0 has X=0, i1 has X=1
    pop = _mixed_pop(n_guilty=2, n_innocent=2, criteria=[0, 0, 0, 1])
    report = check_absolute_fairness(DeterministicProcedure(), pop, mode="bipartitions")
    assert not report.fair
    x0_ids = frozenset(i.id for i in pop if i.criterion == 0)
    x1_ids = frozenset(i.id for i in pop if i.criterion == 1)
    split_found = any(
        {frozenset(v.group_a.ids), frozenset(v.group_b.ids)} == {x0_ids, x1_ids}
        for v in report.violations
    )
    assert split_found
    singles = check_absolute_fairness(DeterministicProcedure(), pop, mode="singletons")
    assert not singles.fair


def test_perfect_deterministic_is_absolutely_fair():
    pop = _mixed_pop(n_guilty=2, n_innocent=2, criteria=[0, 0, 1, 1])
    for mode in ("singletons", "bipartitions"):
        assert check_absolute_fairness(DeterministicProcedure(), pop, mode=mode).fair


def test_bipartitions_size_limit():
    pop = _mixed_pop(n_guilty=9, n_innocent=8)
    with pytest.raises(SizeLimitError, match="singletons"):
        check_absolute_fairness(global_procedure(0, 0), pop, mode="bipartitions", max_n=15)


def test_bipartitions_refuse_max_n_above_ceiling_before_enumerating(monkeypatch):
    import procfair.theorem as theorem

    def no_search(*args):
        raise AssertionError("the bipartition loop started")

    monkeypatch.setattr(theorem, "_bipartition_violations", no_search)
    pop = _mixed_pop(n_guilty=1, n_innocent=2)
    with pytest.raises(SizeLimitError, match="ceiling 20"):
        check_absolute_fairness(global_procedure(0, 0), pop, mode="bipartitions", max_n=40)


def test_bipartitions_refuse_a_negative_max_n(monkeypatch):
    import procfair.theorem as theorem

    def no_search(*args):
        raise AssertionError("the bipartition loop started")

    monkeypatch.setattr(theorem, "_bipartition_violations", no_search)
    pop = _mixed_pop(n_guilty=1, n_innocent=2)
    with pytest.raises(SizeLimitError, match="non-negative, got -1"):
        check_absolute_fairness(global_procedure(0, 0), pop, mode="bipartitions", max_n=-1)


def test_bipartitions_check_size_before_missing_probability():
    pop = Population([Individual("a", INNOCENT), Individual("b", GUILTY)])
    proc = per_group_procedure("sex", {"M": (0, 0)})
    for max_n in (1, 40):
        with pytest.raises(SizeLimitError):
            check_absolute_fairness(proc, pop, mode="bipartitions", max_n=max_n)
    with pytest.raises(MissingRateError, match="'a' has no value for attribute 'sex'"):
        check_absolute_fairness(proc, pop, mode="bipartitions", max_n=2)


def test_unknown_mode_is_refused():
    pop = Population([Individual("a", GUILTY)])
    with pytest.raises(ValueError, match="mode must be 'singletons' or 'bipartitions', got 'pairs'"):
        check_absolute_fairness(global_procedure(1, 0), pop, mode="pairs")


def test_singleton_violations_truncate():
    pop = _mixed_pop(n_guilty=0, n_innocent=6, criteria=[0, 0, 0, 1, 1, 1])
    report = check_absolute_fairness(
        DeterministicProcedure(), pop, mode="singletons", max_violations=2
    )
    assert not report.fair
    assert report.truncated
    assert len(report.violations) == 2


@pytest.mark.parametrize("mode", ["singletons", "bipartitions"])
def test_no_listed_violation_is_still_unfair(mode):
    # two innocents on either side of the criterion split
    pop = Population([Individual("a", INNOCENT, 1), Individual("b", INNOCENT, 0)])
    report = check_absolute_fairness(DeterministicProcedure(), pop, mode=mode, max_violations=0)
    assert (report.fair, report.violations, report.truncated) == (False, (), True)


def test_per_group_rate_differences_violate_absolutely():
    pop = Population(
        [
            Individual("a", INNOCENT, attributes={"sex": "M"}),
            Individual("b", INNOCENT, attributes={"sex": "F"}),
        ]
    )
    proc = per_group_procedure("sex", {"M": (0, 0), "F": (0, "1/2")})
    report = check_absolute_fairness(proc, pop, mode="bipartitions")
    assert not report.fair
    assert report.violations[0].merit_classes == (INNOCENT,)


@st.composite
def many_code_cases(draw):
    """129-136 innocent members, each in a group of its own rate k, and 0-9
    more members of either class, under a per-group procedure: the innocent
    class holds more than 128 probability codes, so the rows' partition by
    ``2 * code + merit`` has more than 256 keys."""
    values = [f"g{i}" for i in range(draw(st.integers(129, 136)))]
    rows = [(INNOCENT, value) for value in values]
    rows += draw(st.lists(st.tuples(st.integers(0, 1), st.sampled_from(values)), max_size=9))
    rng = draw(st.randoms(use_true_random=False))  # cheaper to draw than 130-odd values
    rng.shuffle(rows)
    members = [Individual(f"m{i}", merit, attributes={"group": value}) for i, (merit, value) in enumerate(rows)]
    levels = draw(st.lists(st.fractions(0, 1, max_denominator=6), min_size=1, max_size=3, unique=True))
    pairs = {value: (rng.choice(levels), Fraction(i, len(values))) for i, value in enumerate(values)}
    probs = [pairs[m.attributes["group"]][m.merit] for m in members]
    return members, probs, per_group_procedure("group", pairs)


@st.composite
def singleton_cases(draw):
    """A population of 0-9 members with a sex attribute, and a global or a
    per-sex procedure whose rates come from 1-3 probability levels; one case
    in eight is instead one of :func:`many_code_cases`."""
    if draw(st.integers(0, 7)) == 0:
        return draw(many_code_cases())
    levels = draw(st.lists(st.fractions(0, 1, max_denominator=6), min_size=1, max_size=3, unique=True))
    rate = st.sampled_from(levels)
    members = [
        Individual(f"m{i}", draw(st.integers(0, 1)), attributes={"sex": draw(st.sampled_from("MF"))})
        for i in range(draw(st.integers(0, 9)))
    ]
    if draw(st.booleans()):
        pairs = dict.fromkeys("MF", (draw(rate), draw(rate)))
        proc = global_procedure(*pairs["M"])
    else:
        pairs = {value: (draw(rate), draw(rate)) for value in "MF"}
        proc = per_group_procedure("sex", pairs)
    # member i's conviction probability: h of its group for the guilty, k for the innocent
    probs = [pairs[m.attributes["sex"]][m.merit] for m in members]
    return members, probs, proc


def level_case(pairs, rows):
    """A case as :func:`singleton_cases` draws one: members ``m0, m1, ...`` of
    the ``(merit, group)`` ``rows`` under the per-group procedure ``pairs``."""
    members = [Individual(f"m{i}", merit, attributes={"g": g}) for i, (merit, g) in enumerate(rows)]
    probs = [pairs[m.attributes["g"]][m.merit] for m in members]
    return members, probs, per_group_procedure("g", pairs)


# innocent levels 0, 1/2 and 1, members of each spread through the class
LADDER = {"a": (0, 0), "b": (0, Fraction(1, 2)), "c": (0, 1)}
LADDER_ROWS = [(INNOCENT, g) for g in "cabbcaab"] + [(GUILTY, "a"), (GUILTY, "c")]
# innocent probability 1/2 under two codes, since the pairs (0, 1/2) and (1/3, 1/2) differ
TWINS = {"a": (0, Fraction(1, 2)), "b": (Fraction(1, 3), Fraction(1, 2)), "c": (0, 0)}
TWIN_ROWS = [(INNOCENT, g) for g in "abcba"] + [(GUILTY, g) for g in "ba"]


@settings(max_examples=200, deadline=None)
@given(
    singleton_cases(),
    # 1/7 shares no factor with the levels' denominators
    st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(1, 2), Fraction(1, 7)]),
    st.sampled_from([0, 1, 3, 1000]),
)
# levels exactly the tolerance apart, at the foot and at the top of a class: not violations
@example(level_case(LADDER, LADDER_ROWS), Fraction(1, 2), 1000)
@example(level_case(LADDER, [(INNOCENT, g) for g in "babba"]), Fraction(1, 2), 1000)
# the same levels one step past the tolerance on their common scale (0, 6 and 12 twelfths): violations
@example(level_case(LADDER, LADDER_ROWS), Fraction(5, 12), 1000)
@example(level_case(LADDER, LADDER_ROWS), Fraction(5, 12), 3)
# two codes with one probability: never each other's far level, on either side of the tolerance
@example(level_case(TWINS, TWIN_ROWS), Fraction(0), 1000)
@example(level_case(TWINS, TWIN_ROWS), Fraction(1, 2), 1000)
@example(level_case(TWINS, TWIN_ROWS), Fraction(1, 3), 1000)
def test_singletons_mode_lists_every_differing_pair(case, tolerance, max_violations):
    members, probs, proc = case
    # the exact test on integers: each probability and the tolerance as a numerator
    # over one common denominator, so that 130-odd members cost no Fraction per pair
    scale = math.lcm(tolerance.denominator, *(p.denominator for p in probs))
    units = [p.numerator * (scale // p.denominator) for p in probs]
    bound = tolerance.numerator * (scale // tolerance.denominator)
    merits = [m.merit for m in members]
    expected = []
    for merit in (GUILTY, INNOCENT):
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                same_class = merits[i] == merits[j] == merit
                if same_class and abs(units[i] - units[j]) > bound:
                    expected.append((members[i].id, members[j].id, merit))
    report = check_absolute_fairness(
        proc, Population(members), tolerance=tolerance, max_violations=max_violations
    )
    listed = [(v.group_a.id, v.group_b.id, *v.merit_classes) for v in report.violations]
    assert listed == expected[:max_violations]
    assert report.truncated == (len(expected) > max_violations)
    assert report.fair == (not expected)



def test_singleton_search_compares_integers_not_fractions(monkeypatch):
    """Listing every pair of 200 one-member codes takes fewer Fraction
    subtractions than there are codes: distances are compared on integer
    numerators, not by a Fraction subtraction per pair of codes."""
    groups = [f"g{i}" for i in range(200)]
    pop = Population([Individual(f"m{i}", INNOCENT, attributes={"group": g}) for i, g in enumerate(groups)])
    proc = per_group_procedure("group", {g: (0, Fraction(i, 200)) for i, g in enumerate(groups)})
    subtract, calls = Fraction.__sub__, []

    def counted(a, b):
        calls.append(None)
        return subtract(a, b)

    monkeypatch.setattr(Fraction, "__sub__", counted)
    report = check_absolute_fairness(proc, pop, tolerance=Fraction(1, 10), max_violations=10**5)
    monkeypatch.undo()
    # members i < j differ by (j - i) / 200, more than 1/10 when j - i > 20
    assert [(v.group_a.id, v.group_b.id) for v in report.violations] == [
        (f"m{i}", f"m{j}") for i in range(200) for j in range(i + 21, 200)
    ]
    assert len(calls) < 200


def test_singleton_search_time_grows_with_its_levels_not_their_square():
    """n innocents, member i at level i / (10n), tolerance (n - 3) / (10n): the
    only far levels are the ladder's two ends, so finding them by bisection keeps
    10,000 levels within 40 times 500 levels, where a scan of every level per
    level took some 350 times as long."""
    elapsed = {}
    for n in (500, 10_000):
        groups = [f"g{i}" for i in range(n)]
        pop = Population([Individual(f"m{i}", INNOCENT, attributes={"group": g}) for i, g in enumerate(groups)])
        proc = per_group_procedure("group", {g: (0, Fraction(i, 10 * n)) for i, g in enumerate(groups)})
        start = time.perf_counter()
        report = check_absolute_fairness(proc, pop, tolerance=Fraction(n - 3, 10 * n))
        elapsed[n] = time.perf_counter() - start
        pairs = [(v.group_a.id, v.group_b.id) for v in report.violations]
        assert pairs == [("m0", f"m{n - 2}"), ("m0", f"m{n - 1}"), ("m1", f"m{n - 1}")]
        assert not report.truncated
    assert elapsed[10_000] < 40 * elapsed[500] + 0.2


def test_singleton_listing_does_not_slow_down_when_the_differing_member_is_last():
    # one F among 4 * 10^5 innocent M: 100 listed pairs, whichever end the F sits at
    n = 400_000
    proc = per_group_procedure("sex", {"M": ("1/2", "1/10"), "F": ("1/2", "1/5")})
    elapsed = {}
    for odd in (0, n - 1):
        rows = "".join(f"m{i},1,1,sex={'F' if i == odd else 'M'}\n" for i in range(n))
        pop = load_population("id,J,X,attrs\n" + rows)
        start = time.perf_counter()
        report = check_absolute_fairness(proc, pop, mode="singletons")
        elapsed[odd] = time.perf_counter() - start
        assert report.truncated and "_ids" not in pop.__dict__
        pairs = [(v.group_a.id, v.group_b.id) for v in report.violations]
        if odd == 0:
            assert pairs == [("m0", f"m{i}") for i in range(1, 101)]
        else:
            assert pairs == [(f"m{i}", f"m{odd}") for i in range(100)]
    # pairing each leading member with every later one made the late case many times slower
    assert elapsed[n - 1] < 10 * elapsed[0] + 0.2


# --- contingency and justice ---------------------------------------------------


def test_expected_contingency_reproduces_scenario(demo_pop, demo_proc):
    table = expected_contingency(demo_pop, demo_proc, "sex")
    totals = table.totals()
    assert totals[GUILTY].expected_convictions == 1875
    assert totals[INNOCENT].expected_convictions == 750
    assert table.cell("M", GUILTY).expected_convictions == 1500
    assert table.cell("M", INNOCENT).expected_convictions == 400
    assert table.cell("F", GUILTY).expected_convictions == 375
    assert table.cell("F", INNOCENT).expected_convictions == 350


def test_contingency_cells_respect_count_identity(demo_pop, demo_proc):
    table = expected_contingency(demo_pop, demo_proc, "sex")
    for value in table.values():
        for merit in (GUILTY, INNOCENT):
            cell = table.cell(value, merit)
            assert cell.expected_convictions + cell.expected_acquittals == cell.count


def test_contingency_groups_sum_to_totals(demo_pop, demo_proc):
    table = expected_contingency(demo_pop, demo_proc, "sex")
    totals = table.totals()
    for merit in (GUILTY, INNOCENT):
        assert totals[merit].expected_convictions == sum(
            table.cell(v, merit).expected_convictions for v in table.values()
        )


def test_contingency_requires_applicable_rates():
    pop = Population([Individual("a", GUILTY, attributes={"sex": "M"})])
    proc = per_group_procedure("sex", {"F": ("1/2", "1/2")})
    with pytest.raises(MissingRateError):
        expected_contingency(pop, proc, "sex")


def test_contingency_requires_attribute_everywhere():
    pop = Population([Individual("a", GUILTY)])
    with pytest.raises(ValueError, match="attribute"):
        expected_contingency(pop, global_procedure(1, 0), "sex")


def test_justice_metrics_reproduce_scenario(demo_pop, demo_proc):
    metrics = justice_metrics(expected_contingency(demo_pop, demo_proc, "sex"))
    male = metrics.per_group["M"]
    assert male.convictions == 1900
    assert male.mistaken_convictions == 400
    female = metrics.per_group["F"]
    assert female.guilty_share == Fraction(375, 725)
    assert Fraction(1, 2) < female.guilty_share < Fraction(6, 10)  # little over one half
    assert metrics.overall.convictions == 1875 + 750


def test_justice_share_undefined_without_convictions():
    pop = Population([Individual("a", GUILTY, attributes={"sex": "M"})])
    metrics = justice_metrics(expected_contingency(pop, global_procedure(0, 0), "sex"))
    assert metrics.per_group["M"].guilty_share is None


def test_deterministic_contingency_uses_exact_outcomes(four_member_pop):
    pop = Population(
        [
            Individual(i.id, i.merit, i.criterion, {"grp": "only"})
            for i in four_member_pop
        ]
    )
    table = expected_contingency(pop, DeterministicProcedure(), "grp")
    assert table.cell("only", GUILTY).expected_convictions == 2
    assert table.cell("only", INNOCENT).expected_convictions == 1
