"""Radial numerical laboratory for a Choquard equation with a point source.

The package studies positive radial solutions of

    -Delta u + u = I_alpha[u^p] u^q + k delta_0   in R^N,  N >= 3,

where I_alpha is the (unnormalized) Riesz potential of order alpha and the
Dirac source at the origin forces the r^{2-N} singularity.  Modules:

    exponents    exact rational criticality and bootstrap ledgers
    kernels      Yukawa fundamental solutions, reduced radial kernels
    operators    log-grid product-integration discretizations of I_alpha and
                 the Green operator of -Delta + 1
    solver       monotone source-to-solution iteration, barriers, k* sweep
    asymptotics  origin/decay fits, rate-transfer checks, divergence probes
    serialize    deterministic CSV/JSON formats for profiles and reports
    verify       TAP-style self-audit suites
    cli          command line front end (classify / solve / sweep-k / verify
                 / report)

`exponents` and `serialize` need only the standard library and are
imported as usual.  The numeric modules `kernels`, `operators`, `solver`,
`asymptotics` and `verify` load on first use: each is registered through
`importlib.util.LazyLoader`, so it is a package attribute and sits in
`sys.modules` from the start (a tracer, or any reader of `sys.modules`,
finds every layer), and its code runs on its first attribute access.  So
`choqlab classify` runs without numpy.  A from-import of a name, such as
`from choqlab.solver import solve_minimal`, runs that module at once.
Before Python 3.12, `LazyLoader` takes no lock on that first access, so
threads should not race to touch a numeric module first.
"""

import importlib.util
import sys

from .exponents import (
    BootstrapCase,
    BootstrapLedger,
    Criticality,
    CriticalityReport,
    ProblemExponents,
    SingularityRate,
    bootstrap_ledger,
    classify,
)


def _load_on_first_use(name: str):
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# in dependency order
kernels = _load_on_first_use("kernels")
operators = _load_on_first_use("operators")
solver = _load_on_first_use("solver")
asymptotics = _load_on_first_use("asymptotics")
verify = _load_on_first_use("verify")

_EXPORTED_BY = {
    **dict.fromkeys(("fit_decay", "fit_origin", "integrability_probe"),
                    asymptotics),
    **dict.fromkeys(("RadialGrid", "RadialProfile", "build_grid"), operators),
    **dict.fromkeys(("ProblemInstance", "SolveOutcome", "SolveVerdict",
                     "estimate_kstar", "solve_minimal"), solver),
}


def __getattr__(name: str):
    """The numeric names of __all__, read from their module (PEP 562)."""
    if name in _EXPORTED_BY:
        return getattr(_EXPORTED_BY[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BootstrapCase",
    "BootstrapLedger",
    "Criticality",
    "CriticalityReport",
    "ProblemExponents",
    "ProblemInstance",
    "RadialGrid",
    "RadialProfile",
    "SingularityRate",
    "SolveOutcome",
    "SolveVerdict",
    "bootstrap_ledger",
    "build_grid",
    "classify",
    "estimate_kstar",
    "fit_decay",
    "fit_origin",
    "integrability_probe",
    "solve_minimal",
]

__version__ = "0.1.0"
