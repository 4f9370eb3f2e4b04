"""The artifact formats: every finite double round-trips through its text
and stays a float, and a refused value leaves no file behind."""

import json
import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from choqlab.operators import RadialProfile, build_grid
from choqlab.serialize import (
    dumps_canonical,
    format_float,
    write_csv,
    write_json,
    write_profile,
)

MAX = 1.7976931348623157e308


def bits(x):
    return struct.pack("<d", x)


@given(st.floats(allow_nan=False, allow_infinity=False))
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.225073858507201e-308)
@example(MAX)
@example(-MAX)
@settings(max_examples=500, deadline=None)
def test_every_finite_double_round_trips(x):
    assert bits(float(format_float(x))) == bits(x)
    back = json.loads(dumps_canonical({"x": x}))["x"]
    assert type(back) is float and bits(back) == bits(x)


def test_scalars_are_written_in_their_plain_form():
    assert format_float(20.0) == "20.0"
    assert format_float(np.float64(0.1)) == "0.1"
    assert dumps_canonical(
        {"a": 20.0, "b": np.float64(0.1), "c": np.int64(3),
         "d": Fraction(6, 5), "e": (1, 2.5), "f": np.float32(0.5)}
    ) == ('{\n  "a": 20.0,\n  "b": 0.1,\n  "c": 3,\n  "d": "6/5",\n'
          '  "e": [\n    1,\n    2.5\n  ],\n  "f": 0.5\n}\n')


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf,
                                   np.float32("nan")])
def test_non_finite_values_are_refused(value):
    with pytest.raises(ValueError):
        format_float(value)
    with pytest.raises(ValueError):
        dumps_canonical({"x": [1.0, value]})


@pytest.mark.parametrize("value", [object(), np.array([1.0]), {1.0}])
def test_other_types_are_refused(value):
    with pytest.raises(TypeError):
        dumps_canonical({"x": value})


GRID = build_grid(1e-3, 20.0, 20)


def refused_profile(field, value):
    """A profile carrying a value no constructor lets through."""
    profile = RadialProfile(GRID, np.ones(GRID.size))
    object.__setattr__(profile, field, value)
    return profile


@pytest.mark.parametrize("write", [
    lambda p: write_json(p, {"a": 1.0, "b": math.nan}),
    lambda p: write_csv(p, {"r": [1.0, 2.0], "v": [1.0, math.inf]}),
    lambda p: write_profile(p, refused_profile(
        "values", np.r_[1.0, math.inf, np.ones(GRID.size - 2)])),
    lambda p: write_profile(p, refused_profile("origin_exponent", math.nan)),
], ids=["json", "csv", "profile-values", "profile-sidecar"])
def test_a_refused_value_leaves_no_file(tmp_path, write):
    with pytest.raises(ValueError):
        write(str(tmp_path / "out.csv"))
    assert list(tmp_path.iterdir()) == []
