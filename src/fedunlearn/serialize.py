"""Deterministic text output: JSON/CSV with 17-significant-digit floats.

float64 round-trips exactly through 17 significant digits, so files written
here can be re-read without loss and byte-compared across runs.
"""

from __future__ import annotations

import math
from json.encoder import encode_basestring_ascii


def fmt17(value: float) -> str:
    if math.isinf(value):
        return "Infinity" if value > 0 else "-Infinity"
    if math.isnan(value):
        return "NaN"
    return format(float(value), ".17g")


def dumps17(obj, *, indent: int = 0, _level: int = 0) -> str:
    """JSON text with floats at 17 significant digits and sorted keys."""
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
        # json.dumps(obj) with default arguments is this C encoder
        return encode_basestring_ascii(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [dumps17(item, indent=indent, _level=_level + 1) for item in obj]
        if indent:
            return "[\n" + joiner.join(pad + item for item in items) + "\n" + close_pad + "]"
        return "[" + joiner.join(items) + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{dumps17(str(key))}: {dumps17(value, indent=indent, _level=_level + 1)}"
            for key, value in sorted(obj.items(), key=lambda kv: str(kv[0]))
        ]
        if indent:
            return "{\n" + joiner.join(pad + item for item in items) + "\n" + close_pad + "}"
        return "{" + joiner.join(items) + "}"
    raise TypeError(f"cannot serialise {type(obj).__name__}")
