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
"""

from .asymptotics import (
    fit_decay,
    fit_origin,
    integrability_probe,
)
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
from .operators import RadialGrid, RadialProfile, build_grid
from .solver import (
    ProblemInstance,
    SolveOutcome,
    SolveVerdict,
    estimate_kstar,
    solve_minimal,
)

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
