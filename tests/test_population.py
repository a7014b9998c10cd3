import csv
import pickle
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procfair import population
from procfair.demo import GROUP_SIZES, demo_population
from procfair.errors import (
    MissingCriterionError,
    MissingRateError,
    PopulationParseError,
    UnknownIdError,
)
from procfair.fairness import check_absolute_fairness, expected_contingency
from procfair.population import (
    MISSING,
    AttributeColumn,
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
     (("a", 1, -1), "criterion must be 0, 1 or None, got -1"),
     # each of these built once, and then did not load back as it was dumped
     (("a", True), "merit must be 0 or 1, got True"),
     (("a", 1.0), "merit must be 0 or 1, got 1.0"),
     (("a", 1, True), "criterion must be 0, 1 or None, got True"),
     ((5, 0), "individual id must be a non-empty string without edge whitespace, got 5"),
     ((" a", 0), "individual id must be a non-empty string without edge whitespace, got ' a'"),
     (("a", 0, None, {"x": "1 "}), "bad value '1 ' for attribute 'x'"),
     # each of these loaded back from its dump's text, but not from that text's UTF-8 file
     (("a\rb", 0), "individual id must not hold CR, which a file reads as LF, got 'a\\rb'"),
     (("a", 0, None, {"t\rx": "1"}), "attrs text must not hold CR, which a file reads as LF, got 't\\rx=1'"),
     (("a", 0, None, {"t": "x\ry"}), "attrs text must not hold CR, which a file reads as LF, got 't=x\\ry'"),
     (("\ud800", 0), "individual id has no UTF-8 form, got '\\ud800'"),
     (("a", 0, None, {"t": "\udfff"}), "attrs text has no UTF-8 form, got 't=\\udfff'")],
)
def test_individual_rejects_a_bad_id_merit_or_criterion(args, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        Individual(*args)


def test_individual_refuses_a_field_csv_cannot_read_back(monkeypatch):
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(8)
        with pytest.raises(ValueError, match=re.escape("individual id of 9 characters exceeds csv.field_size_limit()")):
            Individual("a" * 9, 0)
        with pytest.raises(ValueError, match=re.escape("attrs text of 9 characters exceeds csv.field_size_limit()")):
            Individual("a", 0, None, {"sex": "M", "x": "y"})
        pop = Population([Individual("a" * 8, 0, None, {"sex": "Male"})])
        assert load_population(dump_population(pop)) == pop
    finally:
        csv.field_size_limit(limit)
    # before Python 3.11, csv can neither write nor read NUL
    monkeypatch.setattr(population, "_CSV_REFUSES_NUL", True)
    with pytest.raises(ValueError, match=re.escape("individual id must not hold NUL before Python 3.11")):
        Individual("a\0", 0)
    with pytest.raises(ValueError, match=re.escape("attrs text must not hold NUL before Python 3.11")):
        Individual("a", 0, None, {"sex": "\0"})


def test_a_population_holds_only_columns_and_builds_members_without_checking_them(monkeypatch):
    members = (Individual("a", 1, 0, {"sex": "M"}), Individual("b", 0, None, {"town": "x"}))
    pops = [load_population(HEADER + "a,1,0,sex=M\nb,0,,town=x\n"), Population(members)]
    for pop in pops:
        assert set(vars(pop)) == {"_id_source", "merit", "criterion", "attributes"}

    def refuse(ind):
        raise AssertionError(f"member {ind.id!r} checked again")

    monkeypatch.setattr(Individual, "__post_init__", refuse)
    for pop in pops:
        assert pop.members == members and tuple(pop) == members and pop.by_id["b"] == members[1]
        assert group_members(pop, AttributeEquals("town", "x")) == members[1:]


def test_members_with_equal_attributes_share_one_read_only_mapping():
    text = HEADER + "a,1,0,sex=M;town=x\nb,0,,town=x\nc,1,1,sex=M;town=x\nd,0,1,\ne,1,0,town=x;sex=M\n"
    for pop in (load_population(text), Population(load_population(text).members)):
        a, b, c, d, e = pop.members
        assert a.attributes is c.attributes and b.attributes is not a.attributes
        assert e.attributes == {"sex": "M", "town": "x"} and list(e.attributes) == ["sex", "town"]
        assert d.attributes == {} and pop.members == tuple(
            Individual(m.id, m.merit, m.criterion, dict(m.attributes)) for m in pop.members
        )
        with pytest.raises(TypeError, match="read-only"):
            a.attributes["sex"] = "F"
        assert dump_population(pop) == HEADER + (
            "a,1,0,sex=M;town=x\nb,0,,town=x\nc,1,1,sex=M;town=x\nd,0,1,\ne,1,0,sex=M;town=x\n"
        )


def test_criterion_group_value_must_be_binary():
    with pytest.raises(ValueError, match="criterion value must be 0 or 1, got 2"):
        CriterionEquals(2)
    # the labels an Individual refuses, although each equals 0 or 1
    for value in (True, False, 1.0, np.int8(1)):
        with pytest.raises(ValueError, match="criterion value must be 0 or 1"):
            CriterionEquals(value)
        with pytest.raises(ValueError, match="criterion must be 0, 1 or None"):
            Individual("a", 1, value)
    assert [CriterionEquals(label).value for label in (0, 1)] == [0, 1]


@pytest.mark.parametrize("ids", ["ab", "m1", ""])
def test_an_explicit_id_set_refuses_a_bare_string(ids):
    with pytest.raises(TypeError, match=f"not the str {ids!r}"):
        ExplicitIdSet(ids)
    pop = Population([Individual(ident, 1) for ident in ("a", "b", "m1", "ab")])
    if ids:
        assert group_members(pop, ExplicitIdSet([ids])) == (pop.by_id[ids],)


def test_population_fields_cannot_be_assigned():
    pop = Population([Individual("a", 1)])
    with pytest.raises(AttributeError, match="cannot assign to field 'merit'"):
        pop.merit = None


def test_population_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        Population([Individual("a", 1), Individual("a", 0)])


# round trip: every member that builds dumps and loads back as it was

# any character, with the ones that are structural in CSV, in attrs or to
# str.strip drawn often
_text = st.text(
    st.one_of(st.sampled_from(" \t\r\n\",;=\0\x85\u2028\ufeffé"), st.characters()), min_size=1, max_size=6
)


def _built(fields):
    """The individual made of ``fields``, or ``None`` if it does not build."""
    try:
        return Individual(*fields)
    except ValueError:
        return None


_members = st.tuples(
    _text, st.integers(0, 1), st.sampled_from([None, 0, 1]), st.dictionaries(_text, _text, max_size=3)
).map(_built).filter(lambda ind: ind is not None)


@given(st.lists(_members, unique_by=lambda ind: ind.id, max_size=8))
def test_dump_load_round_trip(members):
    """From the dump's text, and from its UTF-8 file with LF or CRLF line ends."""
    pop = Population(members)
    text = dump_population(pop)
    for source in (text, text.encode(), text.replace("\n", "\r\n").encode()):
        assert load_population(source) == pop
        assert load_population(source).members == pop.members


# a plain file: LF lines of three commas, no quote, CR or NUL, nothing to strip,
# each member's attribute names in the order in which they first appear
_plain_id = st.text("xy9é… ", min_size=1, max_size=4).filter(lambda ident: ident == ident.strip())
_plain_row = st.tuples(
    st.sampled_from("01"),
    st.sampled_from(["0", "1", ""]),
    st.lists(st.text("xy9é…=", min_size=1, max_size=3), max_size=3),
)


@given(st.lists(_plain_id, min_size=1, max_size=8, unique=True), st.data())
def test_a_plain_file_dumps_as_it_was_read(ids, data):
    rows = []
    for ident in ids:
        merit, criterion, values = data.draw(_plain_row)
        attrs = ";".join(f"{name}={value}" for name, value in zip(["sex", "age", "town"], values))
        rows.append(f"{ident},{merit},{criterion},{attrs}\n")
    text = HEADER + "".join(rows)
    assert dump_population(load_population(text)) == text


def test_a_dump_quotes_only_the_fields_that_need_it():
    pop = Population(
        [
            Individual("a,b", 1, 0, {"t": "x"}),
            Individual('say "hi"', 0, 1, {}),
            Individual("line\nbreak", 1, None, {"t": "y"}),
            Individual("c", 0, None, {"t": "p,q"}),
        ]
    )
    text = HEADER + '"a,b",1,0,t=x\n"say ""hi""",0,1,\n"line\nbreak",1,,t=y\nc,0,,"t=p,q"\n'
    assert dump_population(pop) == text
    assert load_population(text) == pop


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


def _assert_partition(column):
    """Each code's rows, MISSING included, are its members' rows in order,
    read-only, and every query after the first reads the one stored partition."""
    column._rows(MISSING)
    partition = column._partition
    for code in range(MISSING, len(column.values)):
        rows = column._rows(code)
        assert np.array_equal(rows, np.flatnonzero(column.codes == code))
        assert rows.dtype == np.intp and not rows.flags.writeable
    assert column._partition is partition
    assert not any(array.flags.writeable for array in partition)


# up to 300 values: codes of 8 and 16 bits, each side of 255 values
code_columns = st.integers(1, 300).flatmap(
    lambda n_values: st.tuples(st.just(n_values), st.lists(st.integers(MISSING, n_values - 1), max_size=400))
)


@settings(deadline=None)
@given(code_columns)
@example((255, [254, MISSING, 0, 254]))
@example((256, [255, MISSING, 0, 255]))
def test_a_columns_partition_lists_the_rows_of_each_code(column):
    n_values, codes = column
    _assert_partition(AttributeColumn(tuple(map(str, range(n_values))), np.array(codes, dtype=np.int32)))


@pytest.mark.parametrize("n_values", [2**16 - 1, 2**16])  # the most codes of 16 bits, and one more
def test_a_partition_of_many_values_lists_the_rows_of_each_code(n_values):
    codes = np.random.default_rng(n_values).integers(MISSING, n_values, 1000, dtype=np.int32)
    codes[:3] = MISSING, 0, n_values - 1
    _assert_partition(AttributeColumn(tuple(map(str, range(n_values))), codes))


def test_every_array_of_group_rows_is_read_only():
    pop = load_population(HEADER + "a,1,1,sex=M\nb,0,0,sex=F\nc,0,,\n")
    groups = [AttributeEquals("sex", "F"), AttributeEquals("sex", "X"), AttributeEquals("town", "x"),
              CriterionEquals(1), Singleton("b"), ExplicitIdSet({"c", "a"})]
    for g, expected in zip(groups, [[1], [], [], [0], [1], [0, 2]]):
        rows = group_rows(pop, g)
        assert rows.tolist() == expected and rows.dtype == np.intp and not rows.flags.writeable


def test_a_population_pickles_before_and_after_group_queries():
    rows = [f"m{i},{i % 2},{i // 2 % 2},sex={'MF'[i % 3 % 2]};region=r{i % 5}" for i in range(100)]
    pop = load_population(HEADER + "\n".join(rows) + "\nx,0,1,\n")
    groups = [AttributeEquals("region", f"r{v}") for v in range(5)] + [AttributeEquals("sex", "F")]
    before = pickle.loads(pickle.dumps(pop))
    expected = [group_rows(pop, g) for g in groups]
    after = pickle.loads(pickle.dumps(pop))
    for copy in before, after:
        assert copy == pop
        for g, rows in zip(groups, expected):
            got = group_rows(copy, g)
            assert np.array_equal(got, rows) and not got.flags.writeable


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


# Individual refuses exactly the members whose text the loader would strip or
# whose file would read a CR as LF

_padded_text = st.text(alphabet="ab1 \t\r\n\",", min_size=1, max_size=4)
_padded_fields = st.tuples(
    _padded_text,
    st.integers(0, 1),
    st.sampled_from([None, 0, 1]),
    st.dictionaries(st.sampled_from(["sex", " age", "town\t"]), _padded_text, max_size=2),
)


def _padding_error(ident, attrs):
    """The start of the error that names the first padded text of a member,
    or else its first text with a CR, if any."""
    if ident != ident.strip():
        return "individual id must be a non-empty string without edge whitespace"
    for name, value in attrs.items():
        if name != name.strip():
            return f"bad attribute name {name!r}"
        if value != value.strip():
            return f"bad value {value!r}"
    for what, text in ("individual id", ident), ("attrs text", ";".join(map("=".join, attrs.items()))):
        if "\r" in text:
            return f"{what} must not hold CR"
    return None


@given(st.lists(_padded_fields, unique_by=lambda fields: fields[0], max_size=6))
def test_dump_round_trips_or_names_the_member_the_loader_would_strip(members):
    built = []
    for fields in members:
        error = _padding_error(fields[0], fields[3])
        if error is None:
            built.append(Individual(*fields))
        else:
            with pytest.raises(ValueError, match=re.escape(error)):
                Individual(*fields)
    pop = Population(built)
    assert load_population(dump_population(pop)) == pop
    assert load_population(dump_population(pop).encode()) == pop


def test_dump_quotes_a_carriage_return_inside_an_id_or_value():
    """No member holds a CR, since a file reads it as LF; the CRLF file of a
    dump holds one inside each quoted id or value with a line break, and it
    loads back as LF."""
    for ident, attrs in ("a\rb", {}), ("a", {"town": "x\ry"}), ("a\r\nb", {"town": "x\r\ny"}):
        with pytest.raises(ValueError, match="must not hold CR"):
            Individual(ident, 0, None, attrs)
    pop = Population([Individual("a\nb", 0, None, {"town": "x\ny"}), Individual("c", 1, 1, {})])
    crlf = dump_population(pop).replace("\n", "\r\n")
    assert crlf == 'id,J,X,attrs\r\n"a\r\nb",0,,"town=x\r\ny"\r\nc,1,1,\r\n'
    assert load_population(crlf.encode()) == load_population(crlf) == pop


def test_demo_population_is_example_1s_group_tables():
    """Example 1's data, written out here: per group, its guilty members, then
    its innocent ones, each id the group's lower-case value and a serial from 1."""
    assert GROUP_SIZES == {"M": {0: 2000, 1: 4000}, "F": {0: 500, 1: 3500}}
    lines = ["id,J,X,attrs"]
    for value, by_merit in GROUP_SIZES.items():
        merits = ["0"] * by_merit[0] + ["1"] * by_merit[1]
        lines += [f"{value.lower()}{serial:04d},{j},,sex={value}" for serial, j in enumerate(merits, 1)]
    assert dump_population(demo_population()) == "\n".join(lines) + "\n"


def test_demo_population_formats_each_id_only_when_read():
    pop = demo_population()
    rows = [0, 1999, 2000, 5999, 6000, 9999]
    assert [pop._id(i) for i in rows] == ["m0001", "m2000", "m2001", "m6000", "f0001", "f4000"]
    assert "_ids" not in vars(pop)
    with pytest.raises(IndexError):
        pop._id(10000)
    serials = [(prefix, s) for prefix, size in (("m", 6000), ("f", 4000)) for s in range(1, size + 1)]
    assert pop.ids() == tuple(f"{prefix}{s:04d}" for prefix, s in serials)
    assert [(pop.members[i].merit, pop.members[i].attributes) for i in rows] == [
        (0, {"sex": "M"}), (0, {"sex": "M"}), (1, {"sex": "M"}),
        (1, {"sex": "M"}), (0, {"sex": "F"}), (1, {"sex": "F"}),
    ]
