"""cli._dumps, the writer of `--format json`, against json.dumps."""

import json

import pytest

from starprod import cli

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

# non-ASCII letters of the output, control characters, quotes and backslashes
TEXT = st.text(st.one_of(st.sampled_from('ħλ⊗·"\\/\n\t\x00\x1f\x7f'), st.characters()), max_size=6)
JSON_VALUES = st.recursive(
    st.one_of(TEXT, st.integers(), st.integers(-(2**200), 2**200), st.booleans(), st.none()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(TEXT, inner, max_size=4),
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
@example({"b": [], "a": {}, "ħ": [[], ["λ", "f ⊗ e"], ("x",)], "c": [1, True, None, "-1/2"]})
def test_json_writer_is_json_dumps(value):
    # `--format json` is written by cli._dumps, which must give the bytes of
    # json.dumps with a 2-space indent, sorted keys and ASCII escapes
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)
