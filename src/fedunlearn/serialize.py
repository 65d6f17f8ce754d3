"""Deterministic text output: JSON/CSV with 17-significant-digit floats.

float64 round-trips exactly through 17 significant digits, so files written
here can be re-read without loss and byte-compared across runs.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii

# format(x, ".17g") of the floats JSON has no number for
_NON_FINITE = {"inf": "Infinity", "-inf": "-Infinity", "nan": "NaN", "-nan": "NaN"}


def fmt17(value: float) -> str:
    text = format(float(value), ".17g")
    return _NON_FINITE.get(text, text)


# the text of a leaf of exactly one of these types; a subclass of int, float
# or str (an IntEnum, np.float64, a str enum) takes _encode's isinstance chain
_LEAVES = {
    type(None): lambda _: "null",
    bool: lambda value: "true" if value else "false",
    int: str,
    float: fmt17,
    # json.dumps(obj) with default arguments is this C encoder
    str: encode_basestring_ascii,
}


def dumps17(obj, *, indent: int = 0) -> str:
    """JSON text with floats at 17 significant digits and sorted keys."""
    return _encode(obj, indent, 0)


def dumps17_rows(rows: list[dict]) -> str:
    """The JSON lines dumps17(row) + "\n" of rows that all have the first
    row's str keys; a row with other keys raises ValueError.  The sorted key
    heads are encoded once, and a column of one leaf type is formatted by one
    map of its leaf encoder."""
    if not rows:
        return ""
    keys = rows[0].keys()
    if any(type(key) is not str for key in keys) or not all(map(keys.__eq__, map(dict.keys, rows))):
        raise ValueError("every row needs the first row's keys, all str")
    order = sorted(keys)
    template = "{" + ", ".join(encode_basestring_ascii(key).replace("%", "%%") + ": %s" for key in order) + "}\n"
    columns = [_column([row[key] for row in rows]) for key in order]
    return "".join(map(template.__mod__, zip(*columns) if columns else [()] * len(rows)))


def _column(values: list) -> list[str]:
    kinds = set(map(type, values))
    leaf = _LEAVES.get(kinds.pop()) if len(kinds) == 1 else None
    return list(map(leaf, values)) if leaf else [_encode(value, 0, 1) for value in values]


def _encode(obj, indent: int, level: int) -> str:
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        if all(type(key) is str for key in obj):
            pairs = [(key, obj[key]) for key in sorted(obj)]
        else:
            pairs = [(str(key), value) for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))]
        items = [f"{encode_basestring_ascii(key)}: {_encode(value, indent, level + 1)}" for key, value in pairs]
        return _join("{", items, "}", indent, level)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        return _join("[", [_encode(item, indent, level + 1) for item in obj], "]", indent, level)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt17(obj)
    if isinstance(obj, str):
        return encode_basestring_ascii(obj)
    raise TypeError(f"cannot serialise {type(obj).__name__}")


def _join(opening: str, items: list[str], closing: str, indent: int, level: int) -> str:
    if not indent:
        return opening + ", ".join(items) + closing
    pad = " " * (indent * (level + 1))
    return opening + "\n" + ",\n".join(pad + item for item in items) + "\n" + " " * (indent * level) + closing
