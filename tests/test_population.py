import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from procfair.errors import PopulationParseError, UnknownIdError
from procfair.fairness import expected_contingency
from procfair.population import (
    AttributeEquals,
    CriterionEquals,
    ExplicitIdSet,
    Individual,
    Population,
    Singleton,
    dump_population,
    group_cells,
    group_members,
    load_population,
    merit_counts,
)
from procfair.procedure import exact_rates, per_group_procedure
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
    assert "_ids" not in pop.__dict__ and "_index" not in pop.__dict__

    built = Population(pop.members)
    assert pop.ids() == built.ids()
    assert pop.by_id == built.by_id
    chosen = ExplicitIdSet(["m3", "m999", "m0"])
    assert np.array_equal(group_cells(pop, chosen), group_cells(built, chosen))
    for unknown in (Singleton("m1000"), ExplicitIdSet(["m1", "x", "y"])):
        messages = []
        for each in (pop, built):
            with pytest.raises(UnknownIdError) as raised:
                group_cells(each, unknown)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


# dump refuses exactly the members whose text the loader would strip

_padded_text = st.text(alphabet="ab1 \t", min_size=1, max_size=4)


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
