"""Deterministic file formats for profiles, traces, and reports.

Every float is written as Python's repr, the shortest decimal that reads
back as the same double.  It is correctly rounded, so the same on every
platform, and it always has a '.' or an exponent, so a float reads back as
a float; identical runs produce byte-identical files.  JSON is the standard
encoder's, with two-space indentation and the key order the caller
constructed.  Each writer builds all of its text before it opens a file,
so a refused value leaves no file behind.
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
    "write_profile",
    "read_profile",
    "sidecar_path",
]


def format_float(x: float) -> str:
    """Shortest round-trip decimal form of a finite double."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return repr(x)


def _plain(obj):
    """The JSON value of a numpy scalar or an exact rational."""
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    raise TypeError(f"cannot serialize {type(obj).__name__} value {obj!r}")


def dumps_canonical(obj) -> str:
    """JSON text of obj, refusing non-finite floats; trailing newline
    included."""
    return json.dumps(obj, indent=2, allow_nan=False, default=_plain) + "\n"


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_json(path: str, obj) -> None:
    _write_text(path, dumps_canonical(obj))


def _csv_text(columns: dict) -> str:
    return "".join([",".join(columns) + "\n",
                    *(",".join(map(format_float, row)) + "\n"
                      for row in zip(*columns.values()))])


def write_csv(path: str, columns: dict) -> None:
    """The column names as a header line, then one line per row of the
    equal-length columns, every value through format_float."""
    _write_text(path, _csv_text(columns))


# ---------------------------------------------------------------------------
# profiles: CSV values plus a JSON sidecar for the annotations


def _number(data: dict, key: str) -> float:
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{key} must be a number, got {value!r}")
    return float(value)


def _tail_from_dict(data: dict) -> TailModel:
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
    """Write the values CSV plus the sidecar `<csv_path>.meta.json`.  The
    CSV text is built first and written last, so a value either file
    refuses leaves neither."""
    text = _csv_text({"r": profile.grid.nodes, "value": profile.values})
    tail = profile.tail
    tail_model = ({"kind": "zero"} if isinstance(tail, ZeroTail) else
                  {"kind": "exp", "rate": tail.rate, "power": tail.power})
    write_json(sidecar_path(csv_path), {
        "origin_exponent": float(profile.origin_exponent),
        "tail_model": tail_model,
        "annotation_warning": profile.annotation_warning,
    })
    _write_text(csv_path, text)


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
                         tail=_tail_from_dict(meta["tail_model"]),
                         annotation_warning=warning)
