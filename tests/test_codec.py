import hashlib
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from iotid.codec import (
    canonical_json,
    canonical_number,
    from_canonical_json,
    sha256,
)


def _json_trees(leaves, keys=st.text(max_size=10)):
    return st.recursive(
        leaves,
        lambda children: st.lists(children, max_size=4)
        | st.dictionaries(keys, children, max_size=4),
        max_leaves=25,
    )


_scalars = (st.none() | st.booleans()
            | st.integers(min_value=-(2 ** 53), max_value=2 ** 53)
            | st.text(max_size=20))
json_values = _json_trees(_scalars)
# floats too, NaN and the infinities included, which json writes as NaN and
# Infinity; text is any unicode, so non-ASCII strings are escaped
json_values_with_floats = _json_trees(_scalars | st.floats())


@given(json_values_with_floats)
def test_reused_encoder_gives_the_json_dumps_bytes(value):
    expected = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert canonical_json(value) == expected


# any text, lone surrogates too, which json writes as \u escapes
_any_text = st.text(st.characters(exclude_categories=())
                    | st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF,
                                    exclude_categories=()), max_size=12)
any_json_values = _json_trees(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2 ** 64)
    | st.integers(max_value=-(2 ** 64)) | st.floats() | _any_text, keys=_any_text)


@given(any_json_values)
def test_the_prepared_encoder_writes_the_json_dumps_bytes_of_any_value(value):
    expected = json.dumps(value, sort_keys=True, separators=(",", ":")).encode("utf-8")
    assert canonical_json(value) == expected


@pytest.mark.parametrize("value", [{1, 2}, b"bytes", {1: 0, "a": 0}, [{"k": {"x"}}]],
                         ids=["a set", "bytes", "mixed-type keys", "a nested set"])
def test_a_value_json_dumps_refuses_raises_the_same_type(value):
    with pytest.raises(Exception) as dumps:
        json.dumps(value, sort_keys=True, separators=(",", ":"))
    with pytest.raises(Exception) as ours:
        canonical_json(value)
    assert type(ours.value) is type(dumps.value)


def test_a_failed_encoding_leaves_nothing_to_the_next():
    # the list was half encoded when the set failed; a shared record of the
    # containers being encoded would call it circular the next time
    value = [[1], {2}]
    with pytest.raises(TypeError):
        canonical_json(value)
    value.pop()
    assert canonical_json(value) == b"[[1]]"


@given(json_values)
def test_round_trip(value):
    assert from_canonical_json(canonical_json(value)) == value


@given(json_values)
def test_encoding_is_stable(value):
    assert canonical_json(value) == canonical_json(from_canonical_json(canonical_json(value)))


def test_key_order_never_matters():
    a = canonical_json({"b": 1, "a": {"y": 2, "x": 3}})
    b = canonical_json({"a": {"x": 3, "y": 2}, "b": 1})
    assert a == b == b'{"a":{"x":3,"y":2},"b":1}'


def test_no_insignificant_whitespace():
    assert canonical_json([1, {"k": "v"}]) == b'[1,{"k":"v"}]'


def test_sha256_known_digest():
    # independently verifiable: sha256 of the ASCII bytes "hello world"
    expected = "b94d27b9934d3e08a52e52d7da7dabfac484efe37a5380ee9088f7ace2efcde9"
    assert sha256(b"hello world").hex() == expected


@given(st.binary(max_size=64))
def test_sha256_matches_hashlib(data):
    assert sha256(data) == hashlib.sha256(data).digest()


def test_canonical_number_collapses_whole_floats():
    assert canonical_number(42.0) == 42
    assert isinstance(canonical_number(42.0), int)
    assert canonical_number(42.5) == 42.5
    assert canonical_number(7) == 7
    assert canonical_json(canonical_number(42.0)) == b"42"
    assert canonical_json(canonical_number(0.5)) == b"0.5"


def test_canonical_output_parses_with_plain_json():
    data = canonical_json({"temperature": canonical_number(33.0)})
    assert json.loads(data) == {"temperature": 33}
