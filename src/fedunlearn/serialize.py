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
