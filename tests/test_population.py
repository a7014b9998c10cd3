import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procfair.errors import (
    MissingCriterionError,
    MissingRateError,
    PopulationParseError,
    UnknownIdError,
)
from procfair.fairness import check_absolute_fairness, expected_contingency
from procfair.population import (
    AttributeEquals,
    CriterionEquals,
    ExplicitIdSet,
    Individual,
    Population,
    Singleton,
    dump_population,
    group_members,
    group_rows,
    load_population,
    merit_counts,
)
from procfair.procedure import (
    DeterministicProcedure,
    exact_rates,
    global_procedure,
    per_group_procedure,
)
from procfair.theorem import construct_witness

HEADER = "id,J,X,attrs\n"


def test_load_single_row():
    pop = load_population(HEADER + "a,1,1,sex=M\n")
    assert len(pop) == 1
    ind = pop.members[0]
    assert (ind.id, ind.merit, ind.criterion) == ("a", 1, 1)
    assert ind.attributes == {"sex": "M"}


def test_load_empty_criterion_and_attrs():
    pop = load_population(HEADER + "a,0,,\n")
    assert pop.members[0].criterion is None
    assert pop.members[0].attributes == {}


def test_load_multiple_attrs():
    pop = load_population(HEADER + "a,1,0,sex=F;age=young\n")
    assert pop.members[0].attributes == {"sex": "F", "age": "young"}


def test_load_duplicate_id_names_line():
    with pytest.raises(PopulationParseError, match="line 3.*duplicate id 'a'"):
        load_population(HEADER + "a,1,1,\na,0,0,\n")


def test_load_merit_out_of_domain():
    with pytest.raises(PopulationParseError, match="line 2.*J must be 0 or 1"):
        load_population(HEADER + "a,2,1,\n")


def test_load_criterion_out_of_domain():
    with pytest.raises(PopulationParseError, match="X must be 0 or 1"):
        load_population(HEADER + "a,1,7,\n")


def test_load_bad_column_count():
    with pytest.raises(PopulationParseError, match="expected 4 columns"):
        load_population(HEADER + "a,1,1\n")


def test_load_bad_attr_pair():
    with pytest.raises(PopulationParseError, match="bad attribute pair"):
        load_population(HEADER + "a,1,1,sex\n")


def test_load_missing_header():
    with pytest.raises(PopulationParseError, match="header"):
        load_population("a,1,1,\n")


def test_load_tolerates_crlf():
    pop = load_population("id,J,X,attrs\r\na,1,1,sex=M\r\n")
    assert pop.members[0].attributes == {"sex": "M"}


def test_individual_rejects_structural_characters():
    with pytest.raises(ValueError):
        Individual("a", 1, attributes={"se;x": "M"})
    with pytest.raises(ValueError):
        Individual("a", 1, attributes={"sex": "M;F"})
    with pytest.raises(ValueError):
        Individual("a", 1, attributes={"": "M"})


@pytest.mark.parametrize(
    "args,message",
    [(("", 1), "id must be a non-empty string"),
     (("a", 2), "merit must be 0 or 1, got 2"),
     (("a", 1, -1), "criterion must be 0, 1 or None, got -1")],
)
def test_individual_rejects_a_bad_id_merit_or_criterion(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Individual(*args)


def test_criterion_group_value_must_be_binary():
    with pytest.raises(ValueError, match="criterion value must be 0 or 1, got 2"):
        CriterionEquals(2)


def test_population_fields_cannot_be_assigned():
    pop = Population([Individual("a", 1)])
    with pytest.raises(AttributeError, match="cannot assign to field 'merit'"):
        pop.merit = None


def test_population_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        Population([Individual("a", 1), Individual("a", 0)])


# round trip: parse then serialize is a fixed point

_ids = st.lists(
    st.text(alphabet="abcdefgh123", min_size=1, max_size=6), unique=True, min_size=1, max_size=8
)


@st.composite
def populations(draw):
    members = []
    for ident in draw(_ids):
        attrs = draw(
            st.dictionaries(
                st.sampled_from(["sex", "age", "town"]),
                st.text(alphabet="xyzXYZ09", min_size=1, max_size=4),
                max_size=2,
            )
        )
        members.append(
            Individual(
                ident,
                merit=draw(st.integers(0, 1)),
                criterion=draw(st.sampled_from([None, 0, 1])),
                attributes=attrs,
            )
        )
    return Population(members)


@given(populations())
def test_dump_load_round_trip(pop):
    assert load_population(dump_population(pop)) == pop


# group selection and merit counts against the built-in scenario


def test_group_sizes_match_scenario_tables(demo_pop):
    assert len(group_members(demo_pop, AttributeEquals("sex", "M"))) == 6000
    assert len(group_members(demo_pop, AttributeEquals("sex", "F"))) == 4000


def test_merit_counts_match_scenario_tables(demo_pop):
    assert merit_counts(demo_pop, AttributeEquals("sex", "M")) == (2000, 4000)
    assert merit_counts(demo_pop, AttributeEquals("sex", "F")) == (500, 3500)
    # whole population: sums of the per-group rows
    assert merit_counts(demo_pop) == (2500, 7500)


def test_per_group_counts_sum_to_whole(demo_pop):
    whole = merit_counts(demo_pop)
    parts = [
        merit_counts(demo_pop, AttributeEquals("sex", v))
        for v in demo_pop.attribute_values("sex")
    ]
    assert (sum(p[0] for p in parts), sum(p[1] for p in parts)) == whole


def test_criterion_groups_partition_labeled_members():
    pop = load_population(
        HEADER + "a,1,1,\nb,1,0,\nc,0,,\nd,0,0,\n"
    )
    zeros = group_members(pop, CriterionEquals(0))
    ones = group_members(pop, CriterionEquals(1))
    labeled = [ind for ind in pop if ind.criterion is not None]
    assert set(i.id for i in zeros) | set(i.id for i in ones) == set(i.id for i in labeled)
    assert set(i.id for i in zeros) & set(i.id for i in ones) == set()


def test_singleton_and_explicit_sets():
    pop = load_population(HEADER + "a,1,1,\nb,0,0,\n")
    assert [i.id for i in group_members(pop, Singleton("a"))] == ["a"]
    assert [i.id for i in group_members(pop, ExplicitIdSet({"a", "b"}))] == ["a", "b"]


def test_unknown_ids_raise():
    pop = load_population(HEADER + "a,1,1,\n")
    with pytest.raises(UnknownIdError):
        group_members(pop, ExplicitIdSet({"a", "ghost"}))
    with pytest.raises(UnknownIdError):
        group_members(pop, Singleton("ghost"))


def test_group_members_preserve_population_order():
    pop = load_population(HEADER + "b,1,1,sex=M\na,1,1,sex=M\nc,0,0,sex=M\n")
    assert [i.id for i in group_members(pop, AttributeEquals("sex", "M"))] == ["b", "a", "c"]


def test_no_group_selects_every_member():
    pop = load_population(HEADER + "b,1,1,\na,0,0,\n")
    assert group_members(pop, None) == pop.members


def test_empty_group_counts_are_zero(demo_pop):
    assert merit_counts(demo_pop, AttributeEquals("sex", "X")) == (0, 0)


def test_load_drops_one_leading_byte_order_mark():
    pop = load_population("\ufeff" + HEADER + "a,1,0,sex=M\n")
    assert pop == load_population(HEADER + "a,1,0,sex=M\n")
    assert pop.members[0].id == "a"
    # only one mark, and only before the header
    with pytest.raises(PopulationParseError, match="line 1.*expected header"):
        load_population("\ufeff\ufeff" + HEADER + "a,1,0,\n")


def test_loaded_ids_are_built_only_when_asked():
    rows = [f"m{i},{i % 2},{i // 2 % 2},sex={'MF'[i % 3 % 2]};region=r{i % 5}" for i in range(1000)]
    pop = load_population(HEADER + "\n".join(rows) + "\n")
    proc = per_group_procedure("region", {f"r{v}": ("3/4", "1/10") for v in range(5)})
    for value in pop.attribute_values("region"):
        exact_rates(proc, pop, AttributeEquals("region", value))
    expected_contingency(pop, proc, "sex")
    construct_witness(pop)
    assert check_absolute_fairness(global_procedure("3/4", "1/10"), pop, mode="singletons").fair
    assert "_ids" not in pop.__dict__ and "_index" not in pop.__dict__

    built = Population(pop.members)
    assert pop.ids() == built.ids()
    assert pop.by_id == built.by_id
    chosen = ExplicitIdSet(["m3", "m999", "m0"])
    assert np.array_equal(group_rows(pop, chosen), group_rows(built, chosen))
    for unknown in (Singleton("m1000"), ExplicitIdSet(["m1", "x", "y"])):
        messages = []
        for each in (pop, built):
            with pytest.raises(UnknownIdError) as raised:
                group_rows(each, unknown)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


def test_naming_one_member_decodes_only_its_id():
    rows = [f"m{i},{i % 2},{'' if i == 7 else i % 2},sex={'MF'[i % 3 % 2]}" for i in range(1000)]
    text = HEADER + "\n".join(rows) + "\n"
    unequal = per_group_procedure("sex", {"M": ("3/4", "1/10"), "F": ("1/2", "1/10")})

    def named(build):
        """Three singleton violations and four errors, each naming members of
        two populations made by ``build``, the second with a member lacking sex."""
        pop, no_sex = build(text), build(text + "z,1,1,\n")
        report = check_absolute_fairness(unequal, pop, mode="singletons", max_violations=3)
        errors = []
        for call, error in [
            (lambda: exact_rates(DeterministicProcedure(), pop), MissingCriterionError),
            (lambda: exact_rates(per_group_procedure("sex", {"M": (0, 0)}), pop), MissingRateError),
            (lambda: exact_rates(unequal, no_sex), MissingRateError),
            (lambda: expected_contingency(no_sex, global_procedure(0, 0), "sex"), ValueError),
        ]:
            with pytest.raises(error) as raised:
                call()
            errors.append(str(raised.value))
        return report, errors, (pop, no_sex)

    report, errors, loaded = named(load_population)
    assert not any("_ids" in pop.__dict__ for pop in loaded)
    assert (report, errors) == named(lambda source: Population(load_population(source).members))[:2]
    assert [(v.group_a.id, v.group_b.id) for v in report.violations] == [
        ("m0", "m4"), ("m0", "m10"), ("m0", "m16")
    ]
    assert errors == [
        "individual 'm7' has no criterion label; deterministic procedures require X",
        "no configured rates for sex='F' (individual 'm1')",
        "individual 'z' has no value for attribute 'sex'",
        "individual 'z' has no value for attribute 'sex'",
    ]


# dump refuses exactly the members whose text the loader would strip

_padded_text = st.text(alphabet="ab1 \t\r\n\",", min_size=1, max_size=4)


@st.composite
def padded_populations(draw):
    members = []
    for ident in draw(st.lists(_padded_text, unique=True, min_size=1, max_size=6)):
        attrs = draw(
            st.dictionaries(st.sampled_from(["sex", " age", "town\t"]), _padded_text, max_size=2)
        )
        merit, criterion = draw(st.integers(0, 1)), draw(st.sampled_from([None, 0, 1]))
        members.append(Individual(ident, merit, criterion, attrs))
    return Population(members)


@given(padded_populations())
def test_dump_round_trips_or_names_the_member_the_loader_would_strip(pop):
    def edged(ind):
        attrs = ";".join(f"{name}={value}" for name, value in ind.attributes.items())
        return ind.id != ind.id.strip() or attrs != attrs.strip()

    first_edged = next((ind.id for ind in pop if edged(ind)), None)
    if first_edged is None:
        assert load_population(dump_population(pop)) == pop
    else:
        with pytest.raises(ValueError, match=re.escape(repr(first_edged))):
            dump_population(pop)


def test_dump_quotes_a_carriage_return_inside_an_id_or_value():
    pop = Population(
        [Individual("a\rb", 0, None, {"town": "x\ry"}), Individual("c", 1, 1, {})]
    )
    assert load_population(dump_population(pop)) == pop
