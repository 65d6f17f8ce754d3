"""dumps17 against a frozen copy of its earlier, fully recursive form: the
text it writes must not change by a byte.  dumps17_rows against dumps17."""

import enum
import math
from json.encoder import encode_basestring_ascii

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedunlearn.serialize import dumps17, dumps17_rows, fmt17


def frozen_dumps17(obj, *, indent: int = 0, _level: int = 0) -> str:
    """dumps17 as it was written before its leaves and str keys took a
    shortcut; every value takes the whole type dispatch."""
    pad = " " * (indent * (_level + 1)) if indent else ""
    close_pad = " " * (indent * _level) if indent else ""
    joiner = ",\n" if indent else ", "
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt17(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [frozen_dumps17(item, indent=indent, _level=_level + 1) for item in obj]
        if indent:
            return "[\n" + joiner.join(pad + item for item in items) + "\n" + close_pad + "]"
        return "[" + joiner.join(items) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{frozen_dumps17(str(key))}: {frozen_dumps17(value, indent=indent, _level=_level + 1)}"
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        if indent:
            return "{\n" + joiner.join(pad + item for item in items) + "\n" + close_pad + "}"
        return "{" + joiner.join(items) + "}"
    raise TypeError(f"cannot serialise {type(obj).__name__}")


class Level(enum.IntEnum):
    LOW = 1


class Tag(str, enum.Enum):
    A = "a"


DOCUMENTS = {
    "metrics-row": {"round": 12, "global_loss": 0.12345678901234566, "max_delta": 1.5e-3, "max_psi": 0.0271},
    "request-row": {"request": 1, "position": 40, "retained_loss": 0.33},
    "specials": {
        "flags": [True, False, None],
        "floats": [math.inf, -math.inf, math.nan, -math.nan, -0.0, 0.0, 1e-310, 5e-324, 1.7976931348623157e308],
        "ints": [0, -7, 2**70],
    },
    "strings": {
        "quote\"and\\slash": "tab\tnew\nline\x00\x1f\x7f",
        "café": "ψ* \U0001f600",
        "": "",
    },
    "non-str-keys": {2: "two", 10: "ten", "1": [1], (0, 1): "pair", None: "none", 1.5: "float", True: "bool"},
    # two keys that read the same as str keep their order, as a stable sort does
    "clashing-keys": {1: "int", "1": "str", "0": 0},
    "containers": {"tuple": (1, (2.5, ()), [[], {}]), "empty": {}, "nested": {"z": {"y": {"x": [{}]}}}},
    "subclasses": {"np": [np.float64(0.1), np.float64(np.inf)], "enum": [Level.LOW, Tag.A], Tag.A: True},
    "outcomes": {
        "method": "sifu",
        "outcomes": [
            {"request_index": 1, "targets": [3, 5], "rollback_position": 0, "sigma": 0.1, "converged": False},
            {"request_index": 2, "targets": [], "rollback_position": 12, "sigma": 0.0, "converged": True},
        ],
    },
    "scalar": 0.1,
    "list-top": [1, "a", {"b": None}],
    "empty-list": [],
    "empty-dict": {},
}


@pytest.mark.parametrize("indent", [0, 2])
@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_dumps17_writes_the_bytes_of_its_frozen_form(name, indent):
    doc = DOCUMENTS[name]
    assert dumps17(doc, indent=indent) == frozen_dumps17(doc, indent=indent)


def test_dumps17_refuses_what_its_frozen_form_refuses():
    for doc in (object(), {"a": {1, 2}}, [np.int64(3)]):
        with pytest.raises(TypeError):
            frozen_dumps17(doc)
        with pytest.raises(TypeError):
            dumps17(doc)


# what train writes to metrics.jsonl: ints and floats, the
# non-finite, signed zeros, subnormals and whole floats among them
FLOATS = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
VALUES = st.one_of(
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-(2**40), 2**40).map(float),
    st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1e17, math.nan, -math.inf]),
    st.integers(),
)


@st.composite
def row_lists(draw):
    keys = draw(st.lists(st.text(max_size=6), min_size=0, max_size=5, unique=True))
    return draw(st.lists(st.fixed_dictionaries({key: VALUES for key in keys}), max_size=8))


@settings(max_examples=300, deadline=None)
@given(rows=row_lists())
def test_each_line_of_dumps17_rows_is_dumps17_of_its_row(rows):
    text = dumps17_rows(rows)
    assert text.splitlines(keepends=True) == [dumps17(row) + "\n" for row in rows]


@pytest.mark.parametrize(
    "column",
    [[1.0, np.float64(2.5)], [1, 2.5], [True, 1], [None, 0.5], [Tag.A, "a"], [[1.5], {"k": -0.0}]],
    ids=["float-and-np-float64", "int-and-float", "bool-and-int", "none-and-float", "str-enum", "containers"],
)
def test_a_column_of_mixed_types_writes_each_value_as_dumps17_does(column):
    rows = [{"value": value, "%s": 1} for value in column]
    assert dumps17_rows(rows) == "".join(dumps17(row) + "\n" for row in rows)


@pytest.mark.parametrize(
    "rows",
    [
        [{"round": 0, "loss": 0.5}, {"round": 1}],
        [{"round": 0, "loss": 0.5}, {"round": 1, "loss": 0.25, "psi": 0.0}],
        [{"round": 0}, {"step": 1}],
        [{1: 0.5}],
        [{Tag.A: 0.5}],
    ],
    ids=["a-key-missing", "a-key-more", "another-key", "an-int-key", "a-str-enum-key"],
)
def test_dumps17_rows_refuses_rows_without_the_first_rows_str_keys(rows):
    with pytest.raises(ValueError):
        dumps17_rows(rows)


def test_dumps17_rows_of_no_rows_or_no_keys():
    assert dumps17_rows([]) == ""
    assert dumps17_rows([{}, {}]) == "{}\n{}\n"
