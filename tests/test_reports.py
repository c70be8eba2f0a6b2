"""`dumps_json` against the stdlib encoder on the converted payload."""

from __future__ import annotations

import json
from collections import OrderedDict, namedtuple
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planegraphs.reports import dumps_json


def jsonify(obj):
    """Oracle: the lossless primitive form that `dumps_json` writes."""
    if isinstance(obj, bool) or obj is None:
        return obj
    if isinstance(obj, Fraction):
        return {"num": str(obj.numerator), "den": str(obj.denominator)}
    if isinstance(obj, int):
        return obj if abs(obj) < 2**53 else str(obj)
    if isinstance(obj, (float, str)):
        return obj
    if isinstance(obj, dict):
        return {k: jsonify(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def oracle(payload) -> str:
    return json.dumps(jsonify(payload), indent=2, sort_keys=True) + "\n"


EDGE_INTS = [0, 1, -1, 2**53, -(2**53), 2**53 - 1, -(2**53 - 1), 3**60, -(3**60)]

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from(EDGE_INTS)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.fractions()
    | st.text()
    | st.sampled_from(["", "\x00\x1f\"\\/", "é ü ∑ 𝄞", " \ud800"])
)
keys = st.text(max_size=4)
payloads = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(keys, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(keys, payloads, max_size=5))
def test_dumps_json_matches_stdlib(payload):
    assert dumps_json(payload) == oracle(payload)


class Level(IntEnum):
    LOW = -3
    HIGH = 2**60


class Text(str):
    pass


Pair = namedtuple("Pair", "left right")

# One value per JSON type and both sides of the 2^53 boundary, to vary the
# type of a dict value from row to row of same-shape dicts.
ROW_VALUES = ["s", 2**53, -(2**53), 2**53 - 1, True, False, None, Fraction(5, 8),
              [1, "x", None], {"b": 1, "a": "y"}, 0.5]


def test_edge_values():
    payload = {
        "ints": EDGE_INTS,
        "floats": [float("nan"), float("inf"), -float("inf"), 0.1, -0.0, 1e300],
        "frac": Fraction(-7, 3),
        "empty": [{}, []],
        "1": "a key that reads as a number",
        "1x": [None, True, False],
        "text": "tab\there é\x7f",
        "rows": [{"key": i, "value": v, "next": {"value": v}} for i, v in enumerate(ROW_VALUES)],
    }
    assert dumps_json(payload) == oracle(payload)
    assert dumps_json({}) == "{}\n"


def test_rejects_unknown_types():
    # a tuple, a subclass of a report type and a key that is not a str are
    # no report's types either
    for bad in ({"x": {1, 2}}, {"x": b"bytes"}, {"x": [1j]}, {"x": (None, True)},
                {"x": ()}, {1: "int key"}, {"x": [{1: "a", "1": "b"}]},
                {"x": OrderedDict()}, {"x": OrderedDict([("z", 1)])}, {"x": Level.LOW},
                {"x": [Level.HIGH]}, {"x": Text("sub")}, {"x": {Text("m"): 1}},
                {"x": Pair({"a": 1}, [])}, {"x": [Pair(1, 2)]}):
        with pytest.raises(TypeError, match="cannot serialize"):
            dumps_json(bad)
