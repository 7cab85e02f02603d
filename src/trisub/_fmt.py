"""Deterministic text formatting for CLI output (17 significant digits)."""

import json


def fg17(x: float) -> str:
    """Format a float with 17 significant digits (round-trips binary64)."""
    if x == 0.0:
        return "0"
    return "%.17g" % x


def _emit(obj) -> str:
    if isinstance(obj, float):
        return fg17(obj)
    if isinstance(obj, dict):
        items = ", ".join(f"{json.dumps(k)}: {_emit(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    return json.dumps(obj)


def dumps(obj) -> str:
    """JSON text with floats at 17 significant digits and stable key order."""
    return _emit(obj)


def csv_line(fields) -> str:
    out = []
    for f in fields:
        if isinstance(f, float):
            out.append(fg17(f))
        elif f is None:
            out.append("")
        else:
            out.append(str(f))
    return ",".join(out)
