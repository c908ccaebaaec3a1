"""Property suite: the serve encoder writes exactly ``json.dumps``'s bytes.

:func:`repro.service.server.encode_json` writes numpy result columns
without building Python lists.  Whatever it is given, its output must
equal ``json.dumps(obj, sort_keys=True)`` of the same object with every
array replaced by its ``tolist()``: the HTTP bodies of ``repro serve``
stay byte-identical to that reference encoding.  Select the
deterministic CI profile with HYPOTHESIS_PROFILE=ci (registered in
tests/conftest.py).
"""

import json

import numpy as np
from hypothesis import example, given, strategies as st

from repro.service.server import encode_json

INT64 = np.iinfo(np.int64)
UINT64 = np.iinfo(np.uint64)


def listed(obj):
    """``obj`` with every numpy array replaced by its ``tolist()``."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, dict):
        return {key: listed(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [listed(item) for item in obj]
    return obj


def reference(obj) -> str:
    return json.dumps(listed(obj), sort_keys=True)


def int_columns(dtype) -> st.SearchStrategy:
    info = np.iinfo(dtype)
    full = st.integers(int(info.min), int(info.max))
    # Few values near zero: a range no wider than the column.
    narrow = st.integers(max(int(info.min), -4), min(int(info.max), 12))
    return st.lists(st.one_of(narrow, full), max_size=40).map(
        lambda values: np.array(values, dtype=dtype)
    )


INT_COLUMNS = st.sampled_from((np.int8, np.int64, np.uint64)).flatmap(int_columns)
BOOL_COLUMNS = st.lists(st.booleans(), max_size=40).map(lambda values: np.array(values, dtype=bool))
FLOAT_COLUMNS = st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40).map(
    lambda values: np.array(values, dtype=np.float64)
)
#: Text JSON must escape (quotes, backslashes, control characters, an
#: embedded NUL) or write as ``\u`` escapes (non-ASCII, astral).
TEXT = st.text(
    st.one_of(st.sampled_from('"\\\x00\n\t\x1f\x7f/ aé€\U0001d11e'), st.characters()),
    max_size=8,
)
STR_COLUMNS = st.one_of(
    st.lists(TEXT, max_size=40),
    # Runs of a few names, as in a rack-major column of rack names.
    st.lists(st.tuples(TEXT, st.integers(1, 8)), max_size=6).map(
        lambda runs: [name for name, length in runs for _ in range(length)]
    ),
).map(lambda values: np.array(values, dtype=str))
COLUMNS = st.one_of(INT_COLUMNS, BOOL_COLUMNS, FLOAT_COLUMNS, STR_COLUMNS)

SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(allow_nan=True, allow_infinity=True), TEXT
)
DOCUMENTS = st.recursive(
    st.one_of(SCALARS, COLUMNS),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=3),
    ),
    max_leaves=12,
)


@given(column=INT_COLUMNS)
@example(column=np.array([], dtype=np.int64))
@example(column=np.array([INT64.min, INT64.max, -1, 0], dtype=np.int64))
@example(column=np.array([INT64.min, INT64.min + 1], dtype=np.int64))
@example(column=np.array([0, UINT64.max, 2**63], dtype=np.uint64))
@example(column=np.array([-128, 127] * 200, dtype=np.int8))
@example(column=np.array([-100, 100] * 101, dtype=np.int8))
@example(column=np.array([-1, 5, -1, 0, 3, 3], dtype=np.int64))
def test_int_columns(column):
    assert encode_json(column) == reference(column)


@given(column=BOOL_COLUMNS)
@example(column=np.array([], dtype=bool))
def test_bool_columns(column):
    assert encode_json(column) == reference(column)


@given(column=FLOAT_COLUMNS)
@example(column=np.array([np.nan, np.inf, -np.inf, -0.0, 0.1, 1e300]))
@example(column=np.array([], dtype=np.float64))
def test_float_columns(column):
    assert encode_json(column) == reference(column)


@given(column=STR_COLUMNS)
@example(column=np.array([], dtype=str))
@example(column=np.array(['a"b', "c\\d", "e\x00f", "\x01\n", "é€\U0001d11e", "e\x00f"]))
@example(column=np.array(["RegA-rack0000"] * 3 + ["RegA-rack0001"] * 2 + ["RegA-rack0000"]))
@example(column=np.array(["a ", "a", "a  ", ""]))
def test_str_columns(column):
    assert encode_json(column) == reference(column)


@given(document=DOCUMENTS)
@example(
    document={
        "z": np.array([3, 1], dtype=np.int64),
        "a": {"y": np.array(["b", "a"]), "b": 1.5, "c": [np.array([True]), None]},
        "m": {},
    }
)
@example(document={2: np.array([1.0]), -1: (np.array([7], dtype=np.int8),), 10: "x"})
@example(document=[np.array(5), np.zeros((2, 2)), np.array([[1, 2]], dtype=np.int64)])
@example(
    document=[
        {True: np.array([1], dtype=np.int64), False: 2},
        {None: np.array([False])},
        {2.5: np.array(["x"]), -1.0: None, float("nan"): 0},
    ]
)
def test_documents(document):
    assert encode_json(document) == reference(document)
