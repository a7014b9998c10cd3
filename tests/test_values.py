"""A population and a procedure are values: no handle reachable from one edits it.

Every mapping that a population, a member, a per-group procedure or a report
holds refuses each edit with ``TypeError``, and calling its ``__init__`` again
edits nothing; every array is read-only, and no field can be assigned or
deleted. A pickle or copy of a population holds its four columns only, so it
comes back read-only, and its size does not depend on which views of the
original were built.
"""

import copy
import pickle
from contextlib import nullcontext
from fractions import Fraction
from functools import partial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from procfair.fairness import expected_contingency, justice_metrics
from procfair.population import (
    AttributeEquals,
    Individual,
    Population,
    dump_population,
    group_rows,
    load_population,
)
from procfair.procedure import exact_rates, global_procedure, per_group_procedure
from procfair.serialize import procedure_json
from procfair.theorem import construct_witness

RATES = ["0", "1/3", "1/2", "3/4"]
VALUES = "abc"

_members = st.lists(
    st.tuples(
        st.integers(0, 1),
        st.sampled_from([None, 0, 1]),
        st.dictionaries(st.sampled_from(["g", "town"]), st.sampled_from(VALUES), max_size=2),
    ),
    max_size=12,
).map(lambda rows: [Individual(f"m{i}", *row) for i, row in enumerate(rows)])

_procedures = st.dictionaries(
    st.sampled_from("abcd"), st.tuples(st.sampled_from(RATES), st.sampled_from(RATES)), min_size=1
).map(lambda table: per_group_procedure("g", table))


def _loaded(members):
    return load_population(dump_population(Population(members)))


def _with_views(pop):
    """``pop`` with its ids, member view and id index built."""
    pop.ids(), pop.members, pop.by_id
    return pop


def _unpickled(value):
    return pickle.loads(pickle.dumps(value))


POPULATIONS = {
    "loaded": _loaded,
    "built": Population,
    "unpickled loaded": lambda members: _unpickled(_loaded(members)),
    "unpickled after its views": lambda members: _unpickled(_with_views(_loaded(members))),
    "unpickled built": lambda members: _unpickled(Population(members)),
    "deep-copied": lambda members: copy.deepcopy(_with_views(Population(members))),
}
PROCEDURES = {"new": lambda proc: proc, "unpickled": _unpickled, "deep-copied": copy.deepcopy}


def _outcome(call):
    """What ``call`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # a missing or ambiguous rate is as much the outcome as a rate
        return type(exc), str(exc)


def _results(pop, proc):
    """The dump, the procedure's echo, and its rates on everyone and on each value of ``g``."""
    groups = [None, *(AttributeEquals("g", value) for value in VALUES)]
    return (
        dump_population(pop),
        procedure_json(proc),
        [_outcome(partial(exact_rates, proc, pop, g)) for g in groups],
    )


def _reinitialise(mapping):
    """Call ``mapping.__init__`` a second time, which must leave it as it was."""
    before = dict(mapping)
    mapping.__init__({"new": None}, new=None)
    assert mapping == before


def _mapping_edits(mapping):
    """Each edit method of ``mapping``, on its first key, with the error it must
    raise, and its re-initialisation, which must raise nothing (``None``)."""
    key = next(iter(mapping), "new")
    edits = [
        partial(mapping.__setitem__, key, None),
        partial(mapping.__delitem__, key),
        partial(mapping.__ior__, {}),
        mapping.clear,
        partial(mapping.pop, key),
        mapping.popitem,
        partial(mapping.setdefault, "new"),
        partial(mapping.update, new=None),
    ]
    return [(TypeError, edit) for edit in edits] + [(None, partial(_reinitialise, mapping))]


def _attempt(error, edit):
    """Make ``edit``, which must raise ``error``, or nothing for ``None``."""
    with pytest.raises(error) if error else nullcontext():
        edit()


def _edits(pop, proc, members):
    """Every edit that a public handle of ``pop``, ``proc`` or ``members`` offers,
    with the error it must raise (``None``: it must raise nothing and edit nothing)."""
    columns = list(pop.attributes.values())
    mappings = [proc.rates.table, pop.attributes, pop.by_id]
    mappings += [member.attributes for member in (*pop.members, *members)]
    edits = [edit for mapping in mappings for edit in _mapping_edits(mapping)]
    rows = [group_rows(pop, AttributeEquals(name, value)) for name in pop.attributes for value in VALUES]
    arrays = [pop.merit, pop.criterion, *(column.codes for column in columns), *rows]
    edits += [(ValueError, partial(array.__setitem__, 0, 0)) for array in arrays if array.size]
    fields = [(pop, "merit"), (pop, "attributes"), (proc.rates, "table"), (proc, "rates")]
    fields += [(column, name) for column in columns for name in ("values", "codes", "_partition")]
    edits += [(AttributeError, partial(setattr, obj, name, None)) for obj, name in fields]
    return edits + [(AttributeError, partial(delattr, obj, name)) for obj, name in fields]


@given(_members, _procedures, st.sampled_from(sorted(POPULATIONS)), st.sampled_from(sorted(PROCEDURES)))
def test_every_public_handle_refuses_an_edit(members, proc, pop_kind, proc_kind):
    pop, proc = POPULATIONS[pop_kind](members), PROCEDURES[proc_kind](proc)
    before = _results(pop, proc)
    for error, edit in _edits(pop, proc, members):
        _attempt(error, edit)
    assert _results(pop, proc) == before
    assert pop == Population(members) and pop.members == tuple(members)


@given(_members, st.booleans())
def test_an_unpickled_population_equals_its_original_and_is_read_only(members, views):
    for pop in _loaded(members), Population(members):
        unpickled = _unpickled(_with_views(pop) if views else pop)
        assert unpickled == pop and unpickled.members == pop.members
        assert set(vars(unpickled)) == {"_id_source", "merit", "criterion", "attributes"} | (
            {"_ids", "members", "by_id"} & set(vars(unpickled))  # built by the comparison above
        )
        arrays = [unpickled.merit, unpickled.criterion, *(c.codes for c in unpickled.attributes.values())]
        assert not any(array.flags.writeable for array in arrays)


def test_a_pickle_is_the_same_size_whichever_views_are_built():
    members = [Individual(f"m{i}", i % 2, [None, 0, 1][i % 3], {"g": VALUES[i % 3]}) for i in range(300)]
    for pop in _loaded(members), Population(members):
        size = len(pickle.dumps(pop))
        pop.ids()
        assert len(pickle.dumps(pop)) == size
        pop.members, pop.by_id
        assert len(pickle.dumps(pop)) == size


def test_every_mapping_of_a_report_is_read_only():
    pop = Population(Individual(f"m{i}", i % 2, i // 2 % 2, {"g": VALUES[i % 3]}) for i in range(12))
    table = expected_contingency(pop, global_procedure("3/4", "1/10"), "g")
    witness = construct_witness(pop)
    mappings = [table.cells, table.cells["a"], justice_metrics(table).per_group, witness.class_probabilities]
    assert witness.class_probabilities == {0: (Fraction(1), Fraction(0)), 1: (Fraction(1), Fraction(0))}
    for error, edit in [edit for mapping in mappings for edit in _mapping_edits(mapping)]:
        _attempt(error, edit)
