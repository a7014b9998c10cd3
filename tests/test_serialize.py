"""``serialize.json_text`` against ``json.dumps(doc, indent=2)``, the writer it replaces."""

import json
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procfair import serialize
from procfair.population import INNOCENT
from procfair.serialize import Listing, json_text, write_json
from procfair.theorem import _CLASSES_BY_BITS, _Violations

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


# a listing: 2 to 6 distinct ids, and violations as (subset mask over them, class bits)
ids = st.lists(texts, min_size=2, max_size=6, unique=True).map(sorted)


@st.composite
def listings(draw) -> tuple[list[str], list[tuple[int, int]], int]:
    """Sorted ids, violations as (mask, class bits) with both sides non-empty,
    and a chunk size: what the enumerator's search yields, by hand."""
    members = draw(ids)
    masks = st.integers(1, (1 << len(members)) - 2)
    violations = draw(st.lists(st.tuples(masks, st.integers(1, 3)), max_size=6))
    return members, violations, draw(st.integers(1, 4))


def _listing(members, violations, chunk) -> Listing:
    """The listing of a search that yields ``violations`` in chunks of ``chunk``."""
    def chunks():
        for at in range(0, len(violations), chunk):
            part = violations[at : at + chunk]
            yield np.array([mask for mask, _ in part], dtype=np.int64), np.array([bits for _, bits in part])

    return Listing(_Violations(tuple(members), chunks))


def _as_dicts(members, violations) -> list[dict]:
    """The listing as ``json.dumps`` writes it from dicts: each side its ids in order."""
    def side(mask, bit):
        return [ident for k, ident in enumerate(members) if mask >> k & 1 == bit]

    return [
        {"subset": side(mask, 1), "complement": side(mask, 0), "violated_merit_classes": list(_CLASSES_BY_BITS[bits])}
        for mask, bits in violations
    ]


def _witness_document(witness, violations) -> dict:
    return {"witness": witness, "exhaustive": {"searched": True, "note": None, "violations": violations}}


@settings(max_examples=300, deadline=None)
@given(documents, listings(), st.integers(1, 400))
@example({}, (["\t", '"\\\x00', "\ud800\u540d\U0001f600"], [(1, 3), (6, 1)], 1), 1)
def test_a_listing_item_is_written_as_json_dumps_writes_its_dict(witness, listing, buffer):
    """The listing is written as ``json.dumps`` writes its violations as dicts,
    however its chunks fall and wherever a buffer of ``buffer`` characters cuts it."""
    members, violations, chunk = listing
    expected = json.dumps(_witness_document(witness, _as_dicts(members, violations)), indent=2)
    doc = _witness_document(witness, _listing(*listing))
    assert json_text(doc) == expected
    texts = []
    with mock.patch.object(serialize, "WRITE_BUFFER", buffer):
        write_json(doc, texts.append)
    assert "".join(texts) == expected
    # every text but the last ends with a listing item
    assert all(text.endswith("}") for text in texts[:-1])


def test_a_listing_counts_its_violations_and_reads_the_same_every_time():
    listing = _listing(["a", "b", "c"], [(1, 1), (2, 3), (6, 2)], 2)
    doc = _witness_document({}, listing)
    assert listing.count() == 3 and json_text(doc) == json_text(doc) and listing.count() == 3
    assert _listing(["a", "b"], [], 1).count() == 0


class SubListing(Listing):
    __slots__ = ()


def _item():
    return _listing(["a", "b"], [(1, INNOCENT + 1)], 1)


@pytest.mark.parametrize(
    "doc",
    [
        _item,
        lambda: {"violations": _item()},
        lambda: _witness_document({}, SubListing(_item().search)),
        lambda: _witness_document({}, (_item(),)),
        lambda: [_item()],
        lambda: {"exhaustive": {"violations": [_item()]}},
        lambda: _witness_document({}, [_item()]),
    ],
    ids=["top-level", "dict-value", "subclass", "plain-tuple", "shallow-list", "list-in-dict", "deep-list"],
)
def test_a_listing_item_is_written_only_as_an_item_of_the_listing(doc):
    """A listing at the top level, as a dict value or in a list of another depth
    is refused, as is a subclass of it or a plain tuple in its place: its items
    are indented for the listing's depth only."""
    with pytest.raises(TypeError, match="is not JSON serializable"):
        json_text(doc())
