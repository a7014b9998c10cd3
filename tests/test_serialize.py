"""``serialize.json_text`` against ``json.dumps(doc, indent=2)``, the writer it replaces."""

import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procfair.serialize import json_text

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
