"""Fixtures shared by several test modules."""

import pytest

import choqlab.solver


@pytest.fixture
def assemble_counts(monkeypatch):
    """Calls of choqlab.solver.assemble by operator kind, counted live."""
    counts = {}
    original = choqlab.solver.assemble

    def counted(kind, *args, **kwargs):
        counts[kind] = counts.get(kind, 0) + 1
        return original(kind, *args, **kwargs)

    monkeypatch.setattr(choqlab.solver, "assemble", counted)
    return counts
