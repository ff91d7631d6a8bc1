"""Deterministic CSV/JSON writers.

Every float is rendered with 17 significant digits so that rerunning a
command with the same configuration and seed produces byte-identical
artifacts on any IEEE-754 platform.
"""

import json
import math
import os

import numpy as np

FLOAT_FMT = ".17g"


def format_value(x) -> str:
    """Render a scalar for CSV output."""
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        x = float(x)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value in output: {x!r}")
        return format(x, FLOAT_FMT)
    return str(x)


def write_csv(path, header, rows) -> None:
    """Write rows of scalars under a comma-separated header."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _json_fragment(obj, indent, out):
    pad = " " * indent
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{\n")
        items = list(obj.items())
        for i, (key, val) in enumerate(items):
            out.append(pad + "  " + json.dumps(str(key), ensure_ascii=False) + ": ")
            _json_fragment(val, indent + 2, out)
            out.append(",\n" if i + 1 < len(items) else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            out.append("[]")
            return
        out.append("[\n")
        for i, val in enumerate(obj):
            out.append(pad + "  ")
            _json_fragment(val, indent + 2, out)
            out.append(",\n" if i + 1 < len(obj) else "\n")
        out.append(pad + "]")
    elif isinstance(obj, np.ndarray):
        _json_fragment(obj.tolist(), indent, out)
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            raise ValueError(f"non-finite value in output: {x!r}")
        out.append(format(x, FLOAT_FMT))
    elif isinstance(obj, str):
        out.append(json.dumps(obj, ensure_ascii=False))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} to JSON")


def dumps_json(obj) -> str:
    """Serialize dicts/lists/scalars with 17-significant-digit floats."""
    out = []
    _json_fragment(obj, 0, out)
    return "".join(out) + "\n"


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj))


def ensure_dir(path) -> str:
    os.makedirs(path, exist_ok=True)
    return path
