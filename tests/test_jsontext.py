"""The fast indented JSON writer against ``json.dumps(indent=2)``."""

from __future__ import annotations

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from macc_lab import jsontext

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text()
    | st.text(st.characters(min_codepoint=0x80))
)

# nested lists, tuples and objects, empty ones included
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=30,
)


@given(json_values, st.booleans())
@settings(max_examples=300, deadline=None)
def test_matches_json_dumps(value, sort_keys):
    assert jsontext.dumps(value, sort_keys=sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)


def test_non_string_keys_and_subclasses():
    class Level(int):
        def __repr__(self):
            return "Level()"

    value = {"a": [{2: True, 1: 1.5}, Level(3)], "b": {}, "c": [], "é": "☃\n"}
    for sort_keys in (False, True):
        assert jsontext.dumps(value, sort_keys=sort_keys) == json.dumps(value, indent=2, sort_keys=sort_keys)
