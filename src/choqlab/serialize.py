"""Deterministic file formats for profiles, traces, and reports.

Every float is written with 17 significant digits, which round-trips IEEE
doubles exactly, so identical runs produce byte-identical files.  The JSON
emitter is local because json.dumps formats floats through repr and offers
no hook to pin the format; everything else about the output is plain JSON
with two-space indentation and the key order the caller constructed.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

import numpy as np

from .operators import (
    ExpDecay,
    RadialGrid,
    RadialProfile,
    TailModel,
    ZeroTail,
    ZERO_TAIL,
)

__all__ = [
    "format_float",
    "dumps_canonical",
    "write_json",
    "write_csv",
    "tail_from_dict",
    "write_profile",
    "read_profile",
    "sidecar_path",
]


def format_float(x: float) -> str:
    """17-significant-digit decimal form of a finite double."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return format(x, ".17g")


def _emit(obj, lines: list, indent: str, level: int) -> None:
    pad = indent * (level + 1)
    if isinstance(obj, dict):
        if not obj:
            lines.append("{}")
            return
        lines.append("{\n")
        for i, (key, val) in enumerate(obj.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            lines.append(pad + json.dumps(key) + ": ")
            _emit(val, lines, indent, level + 1)
            lines.append(",\n" if i + 1 < len(obj) else "\n")
        lines.append(indent * level + "}")
    elif isinstance(obj, (list, tuple)):
        if len(obj) == 0:
            lines.append("[]")
            return
        lines.append("[\n")
        for i, val in enumerate(obj):
            lines.append(pad)
            _emit(val, lines, indent, level + 1)
            lines.append(",\n" if i + 1 < len(obj) else "\n")
        lines.append(indent * level + "]")
    elif isinstance(obj, str):
        lines.append(json.dumps(obj))
    elif isinstance(obj, bool) or obj is None:
        lines.append("true" if obj is True else "false" if obj is False
                     else "null")
    elif isinstance(obj, (int, np.integer)):
        lines.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        lines.append(format_float(obj))
    elif isinstance(obj, Fraction):
        lines.append(json.dumps(str(obj)))
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def dumps_canonical(obj) -> str:
    """JSON text with pinned float formatting; trailing newline included."""
    lines: list = []
    _emit(obj, lines, "  ", 0)
    return "".join(lines) + "\n"


def write_json(path: str, obj) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(dumps_canonical(obj))


def write_csv(path: str, columns: dict) -> None:
    """The column names as a header line, then one line per row of the
    equal-length columns, every value through format_float."""
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        fh.writelines(",".join(map(format_float, row)) + "\n"
                      for row in zip(*columns.values()))


# ---------------------------------------------------------------------------
# profiles: CSV values plus a JSON sidecar for the annotations


def _number(data: dict, key: str) -> float:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def tail_from_dict(data: dict) -> TailModel:
    if not isinstance(data, dict):
        raise ValueError(f"tail_model must be an object, got {data!r}")
    kind = data.get("kind")
    if kind == "zero":
        return ZERO_TAIL
    if kind == "exp":
        return ExpDecay(rate=_number(data, "rate"),
                        power=_number(data, "power"))
    raise ValueError(f"unknown tail model kind {kind!r}")


def sidecar_path(csv_path: str) -> str:
    """The annotations file write_profile writes beside csv_path."""
    return csv_path + ".meta.json"


def write_profile(csv_path: str, profile: RadialProfile) -> None:
    """Write the values CSV plus the sidecar `<csv_path>.meta.json`."""
    write_csv(csv_path, {"r": profile.grid.nodes, "value": profile.values})
    tail = profile.tail
    tail_model = ({"kind": "zero"} if isinstance(tail, ZeroTail) else
                  {"kind": "exp", "rate": tail.rate, "power": tail.power})
    write_json(sidecar_path(csv_path), {
        "origin_exponent": float(profile.origin_exponent),
        "tail_model": tail_model,
        "annotation_warning": profile.annotation_warning,
    })


def read_profile(csv_path: str) -> RadialProfile:
    """Rebuild a profile from CSV + sidecar written by write_profile, on the
    grid of its first radius, last radius and row count (1e-12 relative)."""
    with open(csv_path, "r", newline="") as fh:
        header = fh.readline().strip()
        if header != "r,value":
            raise ValueError(f"expected header 'r,value', got {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    if len(rows) < 2:
        raise ValueError(f"a profile needs at least two rows, got {len(rows)}")
    radii = np.array([float(r) for r, _ in rows])
    values = np.array([float(v) for _, v in rows])
    grid = RadialGrid(float(radii[0]), float(radii[-1]), len(rows))
    # written to fail on NaN
    if not np.all(np.abs(radii / grid.nodes - 1.0) <= 1e-12):
        raise ValueError(f"the radii are off the grid {grid!r}")
    with open(sidecar_path(csv_path)) as fh:
        meta = json.load(fh)
    if not isinstance(meta, dict):
        raise ValueError(f"the sidecar must be a JSON object, got {meta!r}")
    # sidecars written before the flag was recorded carry no warning
    warning = meta.get("annotation_warning", False)
    if not isinstance(warning, bool):
        raise ValueError(f"annotation_warning must be true or false, got "
                         f"{warning!r}")
    return RadialProfile(grid, values,
                         origin_exponent=_number(meta, "origin_exponent"),
                         tail=tail_from_dict(meta["tail_model"]),
                         annotation_warning=warning)
