"""``serialize.json_text`` against ``json.dumps(doc, indent=2)``, the writer it replaces."""

import json
from collections import OrderedDict
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procfair.serialize import _Verbatim, json_text

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


def _written_ahead(value, depth: int = 1):
    """``value`` with its even-placed list items and dict values replaced by
    their ``json.dumps(indent=2)`` text at their depth, as :class:`_Verbatim`;
    the other items are treated alike, one level down."""

    def item(place, child):
        if place % 2:
            return _written_ahead(child, depth + 1)
        return _Verbatim(json.dumps(child, indent=2).replace("\n", "\n" + "  " * depth))

    if type(value) is list:
        return [item(place, child) for place, child in enumerate(value)]
    if type(value) is dict:
        return {key: item(place, child) for place, (key, child) in enumerate(value.items())}
    return value


@settings(max_examples=300, deadline=None)
@given(documents)
@example([["a"], {"b": [1, {"c": []}]}, "d", ["e", {"f": "g"}]])
def test_verbatim_text_is_written_as_it_stands_at_any_depth(doc):
    assert json_text(_written_ahead(doc)) == json.dumps(doc, indent=2)


class Raw(_Verbatim):
    pass


@pytest.mark.parametrize("kind", [Raw, Label])
def test_only_the_exact_verbatim_type_is_written_as_it_stands(kind):
    """Any other ``str`` subclass, one of :class:`_Verbatim` included, is refused."""
    text = kind('[\n  "a"\n]')
    for doc in (text, [text], [text, 1], ["a", text], {"k": text}, [{"k": [text]}]):
        with pytest.raises(TypeError, match=f"Object of type {kind.__name__} is not JSON serializable"):
            json_text(doc)
    assert json_text(_Verbatim(text)) == text
