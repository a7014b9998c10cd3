from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from procfair.errors import (
    AmbiguousRateError,
    MissingCriterionError,
    MissingRateError,
    ProcedureSpecError,
)
from procfair.population import (
    AttributeEquals,
    CriterionEquals,
    ExplicitIdSet,
    Individual,
    Population,
    Singleton,
    load_population,
)
from procfair.procedure import (
    ConditionalRates,
    DeterministicProcedure,
    PerGroupRates,
    Simulation,
    _probability_codes,
    as_probability,
    as_rational,
    empirical_rates,
    exact_rates,
    global_procedure,
    load_procedure,
    make_group_fair,
    per_group_procedure,
    simulate,
)


# --- probability parsing ---------------------------------------------------


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("3/4", Fraction(3, 4)),
        ("0.75", Fraction(3, 4)),
        (0.75, Fraction(3, 4)),
        (0.1, Fraction(1, 10)),  # via decimal repr, not the float's binary expansion
        ("1e-3", Fraction(1, 1000)),
        (1, Fraction(1)),
        (Fraction(2, 5), Fraction(2, 5)),
    ],
)
def test_as_probability_parses(raw, expected):
    assert as_probability(raw) == expected


@pytest.mark.parametrize("raw", ["5/4", -0.1, 2, "1.01"])
def test_as_probability_rejects_out_of_range(raw):
    with pytest.raises(ValueError, match="out of range"):
        as_probability(raw)


@pytest.mark.parametrize("raw", ["abc", "1/0", None, True])
def test_as_rational_rejects_garbage(raw):
    with pytest.raises(ValueError):
        as_rational(raw)


@pytest.mark.parametrize(
    "raw", ["1e-4301", "1e4301", " 1e-999999999 ", Decimal("1e-999999999"), "0e-99999"]
)
def test_as_rational_refuses_decimals_past_the_digit_limit(raw):
    with pytest.raises(ValueError, match="needs more than 4300 digits"):
        as_rational(raw)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 10**40), st.integers(-4400, 4400), st.booleans())
def test_as_rational_digit_limit_counts_digits_and_exponent(mantissa, exponent, as_decimal):
    text = f"{mantissa}e{exponent}"
    raw = Decimal(text) if as_decimal else text
    if len(str(mantissa)) + abs(exponent) > 4300:
        with pytest.raises(ValueError, match="needs more than 4300 digits"):
            as_rational(raw)
    else:
        assert as_rational(raw) == mantissa * Fraction(10) ** exponent


def test_as_rational_parses_up_to_the_digit_limit():
    assert as_rational("1e-4299") == Fraction(1, 10**4299)
    assert as_rational(Decimal("1e4299")) == 10**4299


# --- deterministic evaluation ----------------------------------------------


def test_deterministic_convicts_exactly_the_criterion_zero_members():
    pop = Population([Individual("a", 1, criterion=1), Individual("b", 0, criterion=0)])
    proc = DeterministicProcedure()
    assert exact_rates(proc, pop, Singleton("a")).k == 0
    assert exact_rates(proc, pop, Singleton("b")).h == 1
    assert simulate(proc, pop, seed=0, trials=3).convictions.tolist() == [0, 3]


def test_missing_criterion_names_id():
    pop = Population([Individual("a", 1, criterion=1), Individual("nope", 0)])
    with pytest.raises(MissingCriterionError, match="'nope'"):
        exact_rates(DeterministicProcedure(), pop)
    with pytest.raises(MissingCriterionError, match="'nope'"):
        simulate(DeterministicProcedure(), pop, seed=0, trials=1)


def test_deterministic_on_empty_population():
    pop = Population([])
    assert exact_rates(DeterministicProcedure(), pop).support == (0, 0)
    assert len(simulate(DeterministicProcedure(), pop, seed=0, trials=2).convictions) == 0


def test_exact_rates_deterministic_counts(four_member_pop):
    # by direct enumeration: both guilty convicted, one of two innocents convicted
    rates = exact_rates(DeterministicProcedure(), four_member_pop)
    assert rates.h == Fraction(1)
    assert rates.k == Fraction(1, 2)
    assert rates.support == (2, 2)


def test_exact_rates_empty_class_is_undefined():
    pop = Population([Individual("a", 1, criterion=0)])
    rates = exact_rates(DeterministicProcedure(), pop)
    assert rates.h is None  # no guilty members
    assert rates.k == Fraction(1)
    assert rates.support == (0, 1)


# --- randomized rates --------------------------------------------------------


def test_exact_rates_global_applies_to_any_group(demo_pop, demo_proc):
    expected = (Fraction(3, 4), Fraction(1, 10))
    for g in (None, AttributeEquals("sex", "M"), AttributeEquals("sex", "F")):
        rates = exact_rates(demo_proc, demo_pop, g)
        assert (rates.h, rates.k) == expected


def test_exact_rates_global_identical_for_singletons(demo_pop, demo_proc):
    some_guilty = next(i for i in demo_pop if i.merit == 0)
    rates = exact_rates(demo_proc, demo_pop, Singleton(some_guilty.id))
    assert rates.h == Fraction(3, 4)
    assert rates.k is None  # singleton has no innocent member


def test_exact_rates_heterogeneous_group_is_ambiguous():
    pop = Population(
        [
            Individual("a", 0, attributes={"sex": "M"}),
            Individual("b", 0, attributes={"sex": "F"}),
        ]
    )
    proc = per_group_procedure("sex", {"M": ("1/2", "1/2"), "F": ("1/4", "1/4")})
    with pytest.raises(AmbiguousRateError):
        exact_rates(proc, pop)
    # but a group within one rate class is fine
    rates = exact_rates(proc, pop, AttributeEquals("sex", "F"))
    assert rates.h == Fraction(1, 4)


def test_missing_rate_for_observed_value():
    pop = Population([Individual("a", 0, attributes={"sex": "M"})])
    proc = per_group_procedure("sex", {"F": ("1/2", "1/2")})
    with pytest.raises(MissingRateError, match="sex=.?M"):
        exact_rates(proc, pop)


def test_make_group_fair_assigns_identical_pairs():
    proc = make_group_fair("3/4", "1/10", "sex", {"M", "F"})
    assert proc.rates.table["M"] == proc.rates.table["F"] == (Fraction(3, 4), Fraction(1, 10))


@pytest.mark.parametrize(
    "attribute,table,message",
    [("", {"M": (0, 0)}, "attribute name must be non-empty"),
     ("sex", {}, "per-group rate table must be non-empty")],
)
def test_per_group_rates_need_an_attribute_and_a_table(attribute, table, message):
    with pytest.raises(ValueError, match=message):
        PerGroupRates(attribute, table)


def test_make_group_fair_rejects_empty_values():
    with pytest.raises(ValueError):
        make_group_fair("1/2", "1/2", "sex", [])


@given(st.fractions(min_value=0, max_value=1), st.fractions(min_value=0, max_value=1))
def test_acquittal_rates_complement_conviction_rates(h, k):
    pop = Population([Individual("a", 0), Individual("b", 1)])
    rates = exact_rates(global_procedure(h, k), pop)
    assert rates.acquittal_h == 1 - rates.h
    assert rates.acquittal_k == 1 - rates.k


# --- simulation --------------------------------------------------------------


def _tiny_pop():
    return Population(
        [Individual(f"g{i}", 0) for i in range(5)] + [Individual(f"i{i}", 1) for i in range(5)]
    )


def test_simulate_degenerate_all_convicted():
    sim = simulate(global_procedure(1, 1), _tiny_pop(), seed=3, trials=4)
    assert (sim.convictions == 4).all()


def test_simulate_degenerate_all_acquitted():
    sim = simulate(global_procedure(0, 0), _tiny_pop(), seed=3, trials=4)
    assert (sim.convictions == 0).all()


def test_simulate_same_seed_bit_identical():
    pop = _tiny_pop()
    proc = global_procedure("1/3", "2/3")
    first = simulate(proc, pop, seed=99, trials=6)
    second = simulate(proc, pop, seed=99, trials=6)
    assert np.array_equal(first.convictions, second.convictions)
    third = simulate(proc, pop, seed=100, trials=6)
    assert not np.array_equal(first.convictions, third.convictions)


def test_simulate_provenance_and_order():
    pop = Population(
        [
            Individual("never", 0, attributes={"sex": "F"}),
            Individual("always", 0, attributes={"sex": "M"}),
            Individual("coin", 0, attributes={"sex": "X"}),
        ]
    )
    proc = per_group_procedure("sex", {"F": (0, 0), "M": (1, 1), "X": ("1/2", "1/2")})
    sim = simulate(proc, pop, seed=1, trials=3)
    assert (sim.seed, sim.trials) == (1, 3)
    assert sim.convictions.tolist()[:2] == [0, 3]
    assert not sim.convictions.flags.writeable


RATES = ["0", "1", "1/10", "1/3", "1/2", "3/4"]
SIM_PROCEDURES = st.one_of(
    st.just(DeterministicProcedure()),
    st.builds(global_procedure, st.sampled_from(RATES), st.sampled_from(RATES)),
    # equal pairs for every value (or all but an unconfigured "c")
    st.builds(
        lambda h, k, values: make_group_fair(h, k, "g", values),
        st.sampled_from(RATES),
        st.sampled_from(RATES),
        st.sampled_from([("a", "b", "c"), ("a", "b")]),
    ),
    # unequal pairs per value, possibly leaving some value unconfigured
    st.dictionaries(
        st.sampled_from("abc"), st.tuples(st.sampled_from(RATES), st.sampled_from(RATES)),
        min_size=1,
    ).map(lambda table: per_group_procedure("g", table)),
)


@st.composite
def sim_populations(draw):
    """Populations of up to 30 members, rarely one without X or without a value of "g"."""
    n = draw(st.integers(0, 30))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    holes = draw(st.sampled_from([0.0, 0.0, 1 / max(n, 1)]))
    lines = ["id,J,X,attrs"]
    for i, (j, x, v, hole) in enumerate(
        zip(rng.integers(0, 2, n), rng.integers(0, 2, n), rng.integers(0, 3, n), rng.random(n))
    ):
        x_text, attrs = ("", "") if hole < holes else (str(x), f"g={'abc'[v]}")
        lines.append(f"m{i},{j},{x_text},{attrs}")
    return load_population("\n".join(lines) + "\n")


def _outcome(f):
    try:
        return f()
    except Exception as exc:  # noqa: BLE001 - the type and message are compared
        return type(exc), str(exc)


@settings(max_examples=60, deadline=None)
@given(
    SIM_PROCEDURES,
    sim_populations(),
    st.integers(1, 2**40) | st.integers(1, 5),
    st.integers(0, 2**32 - 1),
)
def test_simulate_counts_lie_in_range_and_follow_the_seed(proc, pop, trials, seed):
    expected = _outcome(lambda: _probability_codes(proc, pop))
    got = _outcome(lambda: simulate(proc, pop, seed, trials).convictions)
    if isinstance(expected[0], type):  # the member without a probability
        assert isinstance(got, tuple) and got == expected
        return
    assert isinstance(got, np.ndarray)
    codes, probs = expected
    p = np.array(probs, dtype=object)[codes]
    assert ((got >= 0) & (got <= trials)).all()
    assert (got[p == 0] == 0).all()
    assert (got[p == 1] == trials).all()
    assert np.array_equal(simulate(proc, pop, seed, trials).convictions, got)


def test_simulate_counts_follow_the_binomial_distribution():
    # 30,000 members at p = 1/3 over 50 trials: the counts' mean and variance
    # are those of Binomial(50, 1/3), which a count of 0 or 50 (one Bernoulli
    # draw scaled by the trials) or a rounded mean would not have
    n, trials, p = 30_000, 50, 1 / 3
    pop = load_population("id,J,X,attrs\n" + "".join(f"m{i},{i % 2},,\n" for i in range(n)))
    counts = simulate(global_procedure("1/3", "1/3"), pop, seed=8, trials=trials).convictions
    mean, variance = trials * p, trials * p * (1 - p)
    assert abs(counts.mean() - mean) < 6 * (variance / n) ** 0.5
    assert abs(counts.var(ddof=1) - variance) < 0.05 * variance


INT64_MAX = 2**63 - 1


def test_simulation_refuses_member_trials_past_int64():
    with pytest.raises(ValueError, match="member-trials"):
        Simulation(0, 2**62, [2**62] * 3)
    with pytest.raises(ValueError, match="member-trials"):
        simulate(global_procedure("1/2", "1/2"), _tiny_pop(), seed=0, trials=10**30)
    # an empty population still needs trials within int64
    with pytest.raises(ValueError, match="member-trials"):
        Simulation(0, INT64_MAX + 1, [])


def test_simulate_just_inside_the_member_trial_bound():
    pop = Population([Individual("a", 0), Individual("b", 1), Individual("c", 1)])
    trials = INT64_MAX // 3
    proc = global_procedure(1, "1/2")
    sim = simulate(proc, pop, seed=4, trials=trials)
    assert sim.convictions[0] == trials
    with pytest.raises(ValueError, match="member-trials"):
        simulate(proc, pop, seed=4, trials=trials + 1)
    assert ((sim.convictions >= 0) & (sim.convictions <= trials)).all()
    full = empirical_rates(pop, Simulation(0, trials, [trials] * 3))
    assert (full.h, full.k) == (1, 1)


def test_simulate_rejects_zero_trials():
    with pytest.raises(ValueError):
        simulate(global_procedure(0, 0), _tiny_pop(), seed=1, trials=0)


def test_simulation_rejects_inconsistent_counts():
    with pytest.raises(ValueError, match="trials"):
        Simulation(0, 0, [])
    with pytest.raises(ValueError, match=r"\[0, 2\]"):
        Simulation(0, 2, [0, 3])
    with pytest.raises(ValueError, match="population has 10"):
        empirical_rates(_tiny_pop(), Simulation(0, 2, [0, 1]))


def test_simulation_needs_one_count_per_member():
    with pytest.raises(ValueError, match="one conviction count required per member"):
        Simulation(0, 2, [[0, 1], [1, 2]])


def test_conditional_rates_match_their_support():
    with pytest.raises(ValueError, match="exactly when its class has support"):
        ConditionalRates(Fraction(1, 2), None, (0, 1))
    with pytest.raises(ValueError, match="exactly when its class has support"):
        ConditionalRates(Fraction(1, 2), None, (1, 1))


def test_empirical_rates_near_configured():
    # binomial standard error bound: 3 sigma on 2000 draws per class
    pop = Population(
        [Individual(f"g{i}", 0) for i in range(20)] + [Individual(f"i{i}", 1) for i in range(20)]
    )
    proc = global_procedure("3/4", "1/10")
    rates = empirical_rates(pop, simulate(proc, pop, seed=11, trials=100))
    assert abs(float(rates.h) - 0.75) < 3 * (0.75 * 0.25 / 2000) ** 0.5
    assert abs(float(rates.k) - 0.10) < 3 * (0.10 * 0.90 / 2000) ** 0.5
    assert rates.support == (20, 20)


def test_empirical_rates_for_subgroup():
    pop = _tiny_pop()
    runs = simulate(global_procedure(1, 0), pop, seed=5, trials=7)
    only_guilty = empirical_rates(pop, runs, ExplicitIdSet({"g0", "g1"}))
    assert only_guilty.h == Fraction(1)
    assert only_guilty.k is None


# --- procedure description files ---------------------------------------------


def test_load_procedure_deterministic():
    assert load_procedure('{"type": "deterministic"}') == DeterministicProcedure()


def test_load_procedure_global_rates():
    proc = load_procedure('{"type": "randomized", "rates": {"global": ["3/4", 0.1]}}')
    assert (proc.rates.h, proc.rates.k) == (Fraction(3, 4), Fraction(1, 10))


def test_load_procedure_per_group():
    proc = load_procedure(
        '{"type": "randomized", "attribute": "sex",'
        ' "rates": {"M": ["3/4", "1/10"], "F": [0.75, "0.1"]}}'
    )
    assert proc.rates.attribute == "sex"
    assert proc.rates.table["M"] == proc.rates.table["F"]


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        '{"type": "magic"}',
        '{"type": "randomized"}',
        '{"type": "randomized", "rates": {"global": [2, 0]}}',
        '{"type": "randomized", "rates": {"M": [0.1, 0.2]}}',  # attribute missing
        '{"type": "randomized", "attribute": "sex", "rates": {"global": [0.1, 0.2]}}',
        '{"type": "randomized", "rates": {"global": [0.1]}}',
    ],
)
def test_load_procedure_rejects_malformed(text):
    with pytest.raises(ProcedureSpecError):
        load_procedure(text)


def test_criterion_groups_see_same_global_rates():
    pop = Population(
        [Individual("a", 0, criterion=0), Individual("b", 0, criterion=1), Individual("c", 1, criterion=1)]
    )
    proc = global_procedure("1/3", "1/3")
    by_x0 = exact_rates(proc, pop, CriterionEquals(0))
    by_x1 = exact_rates(proc, pop, CriterionEquals(1))
    assert by_x0.h == by_x1.h == Fraction(1, 3)


def test_load_procedure_refuses_json_nested_too_deeply():
    with pytest.raises(ProcedureSpecError, match="invalid JSON"):
        load_procedure("[" * 200_000 + "]" * 200_000)


def test_load_procedure_refuses_a_document_that_is_not_an_object():
    with pytest.raises(ProcedureSpecError, match="must be a JSON object"):
        load_procedure("[]")
