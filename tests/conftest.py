"""Fixtures shared by several test modules."""

import sys
from pathlib import Path

import pytest

# the test modules import their shared oracles (oracles.py) from this
# directory, whatever import mode pytest runs in
sys.path.insert(0, str(Path(__file__).parent))

import choqlab.solver


@pytest.fixture
def cold_discretization(monkeypatch):
    """No shared discretization at the start of the test: the first solve
    builds one, whatever earlier tests left behind."""
    monkeypatch.setattr(choqlab.solver, "_shared", None)


@pytest.fixture
def assemble_counts(monkeypatch, cold_discretization):
    """Calls of choqlab.solver.assemble by operator kind, counted live,
    from a cold start."""
    counts = {}
    original = choqlab.solver.assemble

    def counted(kind, *args, **kwargs):
        counts[kind] = counts.get(kind, 0) + 1
        return original(kind, *args, **kwargs)

    monkeypatch.setattr(choqlab.solver, "assemble", counted)
    return counts
