"""``serialize.json_text`` against ``json.dumps(doc, indent=2)``, the writer it replaces."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from procfair.serialize import json_text

# every code point, lone surrogates and control characters included
texts = st.text(st.characters(codec=None, exclude_categories=()), max_size=8)
floats = st.floats() | st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 1e16])
integers = st.integers() | st.integers(-(10**60), 10**60)
keys = texts | integers | floats | st.booleans() | st.none()
scalars = texts | integers | floats | st.booleans() | st.none()
values = st.recursive(
    scalars,
    lambda children: (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(keys, children, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(values)
@example([[], {}, [[]], {"": {}}, ()])
@example({"\ud800é\x00 ": [True, False, None, 10**30, -0.0, 5e-324, 1e16]})
@example({1.5: 1, True: 2, None: 3, -7: 4, math.inf: 5, False: math.nan})
def test_json_text_is_json_dumps_with_indent_2(doc):
    assert json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize(
    "doc", [{1, 2}, Fraction(1, 3), [1, {"a": Fraction(1, 2)}], {(1, 2): 0}, {"a": {frozenset(): 1}}]
)
def test_json_text_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError) as expected:
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError) as got:
        json_text(doc)
    assert str(got.value) == str(expected.value)
