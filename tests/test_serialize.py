"""``serialize.json_text`` against ``json.dumps(doc, indent=2)``, the writer it replaces."""

import json
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procfair.population import GUILTY, INNOCENT
from procfair.serialize import ListingItem, json_text, listed_id
from procfair.theorem import _CLASSES_BY_BITS

# every code point, lone surrogates and control characters included
texts = st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([-0.0, 5e-324, 1e16])
integers = st.integers() | st.integers(-(10**60), 10**60)
scalars = texts | integers | floats | st.booleans() | st.none()
# report documents: string keys, lists for arrays, finite floats
documents = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(texts, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(documents)
@example([[], {}, [[]], {"": {}}])
@example({"\ud800é\x00 ": [True, False, None, 10**30, -0.0, 5e-324, 1e16]})
def test_json_text_is_json_dumps_with_indent_2(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc", [{1, 2}, Fraction(1, 3), [1, {"a": Fraction(1, 2)}], {(1, 2): 0}, {"a": {frozenset(): 1}}]
)
def test_json_text_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        json_text(doc)


@pytest.mark.parametrize("doc", [(1, 2), {"a": [(1,)]}, {1: 0}, {None: 0}, {True: 0}, {"a": {1.5: 1}}])
def test_json_text_refuses_tuples_and_non_string_keys(doc):
    with pytest.raises(TypeError):
        json_text(doc)


class Label(str):
    pass


class Merit(IntEnum):
    GUILTY = 0
    INNOCENT = 1


class Share(float):
    pass


class Items(list):
    pass


# each holds a subclass of a report type, which no report holds
SUBCLASSED = [
    Label("x"),
    [Label("a"), "b"],
    ["a", Label("b")],
    {Label("k"): Label("v")},
    Merit.INNOCENT,
    [Merit.GUILTY, 1],
    {"merit": Merit.INNOCENT},
    Share(0.25),
    [Share(1.5), "a"],
    OrderedDict([("b", 1), ("a", [OrderedDict()])]),
    {"a": OrderedDict(x="y")},
    Items(["a", "b"]),
    Items(),
    ["a", Items([1, "b"])],
]
MIXED = [
    ["a", True, None, 1, 1.5],
    [True, "a"],
    ["a", ["b"], {"c": "d"}],
    ["a", "b", 3],
    {"a": ["b", None]},
]


@pytest.mark.parametrize("doc", SUBCLASSED + MIXED)
def test_json_text_fast_paths_are_json_dumps(doc):
    """Mixed lists go through the one generic path, as ``json.dumps`` writes
    them; a subclass is refused, as a value of no report type."""
    if any(doc is subclassed for subclassed in SUBCLASSED):
        with pytest.raises(TypeError, match="is not JSON serializable"):
            json_text(doc)
    else:
        assert json_text(doc) == json.dumps(doc, indent=2)


def _holding_itself(container):
    if isinstance(container, list):
        container.append(container)
    else:
        container["self"] = container
    return container


@pytest.mark.parametrize("container", [[], {}, Items()])
def test_json_text_refuses_a_document_that_contains_itself(container):
    """An ``Items`` is refused as a subclass before its items are read."""
    doc = _holding_itself(container)
    with pytest.raises(ValueError, match="Circular reference"):
        json.dumps(doc, indent=2)
    error, message = (TypeError, "Items is not") if type(doc) is Items else (ValueError, "contains itself")
    with pytest.raises(error, match=message):
        json_text(doc)


# the enumerator's non-empty tuples of violated merit classes
CLASSES = _CLASSES_BY_BITS[1:]
sides = st.lists(texts, min_size=1, max_size=4)


def _witness_document(witness, violations) -> dict:
    return {"witness": witness, "exhaustive": {"searched": True, "note": None, "violations": violations}}


def _listing_item(subset, complement, classes) -> ListingItem:
    """A violation as ``witness`` holds it: each side joined of ``listed_id`` pieces."""
    return ListingItem(("".join(map(listed_id, subset)), "".join(map(listed_id, complement)), classes))


@settings(max_examples=300, deadline=None)
@given(documents, st.lists(st.tuples(sides, sides, st.sampled_from(CLASSES)), max_size=4))
@example({}, [(['"\\\x00', "\ud800\u540d\U0001f600"], ["\t"], (GUILTY, INNOCENT))])
def test_a_listing_item_is_written_as_json_dumps_writes_its_dict(witness, violations):
    listing = [_listing_item(*violation) for violation in violations]
    as_dicts = [
        {"subset": subset, "complement": complement, "violated_merit_classes": list(classes)}
        for subset, complement, classes in violations
    ]
    assert json_text(_witness_document(witness, listing)) == json.dumps(
        _witness_document(witness, as_dicts), indent=2
    )


class SubItem(ListingItem):
    pass


ITEM = _listing_item(["a"], ["b"], (INNOCENT,))


@pytest.mark.parametrize(
    "doc",
    [
        ITEM,
        {"violations": ITEM},
        _witness_document({}, [SubItem(ITEM)]),
        _witness_document({}, [tuple(ITEM)]),
        [ITEM],
        {"exhaustive": [ITEM]},
        _witness_document({}, [[ITEM]]),
    ],
    ids=["top-level", "dict-value", "subclass", "plain-tuple", "shallow-list", "list-in-dict", "deep-list"],
)
def test_a_listing_item_is_written_only_as_an_item_of_the_listing(doc):
    """At the top level, as a dict value or in a list of another depth it is
    refused, as is a subclass of it or a plain tuple in its place."""
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json_text(doc)
