"""Self-audit suites behind the command line's verify subcommand.

Each suite is a sequence of named checks printed as TAP lines
("ok 3 - ..."), restating values the package knows independently: kernel
closed forms, frozen operator oracles, the rate-transfer branch table, and
the exact bootstrap ledgers.  The kernels suite can dump an audit CSV of
(r, gamma0, phi0, closed_form, residual) for offline inspection.  The
operators suite checks the Green operator against a finite-difference
-Delta + 1 that shares no code with the product-integration weights; the
slower quadrature oracles serve only the tests and live in
tests/oracles.py.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, TextIO

import numpy as np

from .asymptotics import verify_rate_transfer
from .exponents import ProblemExponents, T_sequence, bootstrap_t1, s_sequence
from .kernels import c_N, gamma0, green_halfline_factors, phi0
from .operators import (RadialGrid, RadialProfile, ZERO_TAIL, apply, assemble,
                        build_grid)
from .serialize import write_csv

__all__ = ["CheckResult", "SUITES", "run_suite",
           "suite_kernels", "suite_operators", "suite_rates",
           "suite_bootstrap"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def _check(name: str, passed, detail: str = "") -> CheckResult:
    return CheckResult(name, bool(passed), detail)


# ---------------------------------------------------------------------------
# kernels


def _kernel_audit_rows():
    r = RadialGrid(1e-3, 20.0, 200).nodes
    gam = gamma0(3, r)
    phi = phi0(3, r)
    closed = np.exp(-r) / (4.0 * math.pi * r)
    return r, gam, phi, closed, gam - closed


def suite_kernels(csv_path: Optional[str] = None) -> list:
    checks = []
    r, gam, phi, closed, residual = _kernel_audit_rows()
    rel = float(np.max(np.abs(gam / closed - 1.0)))
    checks.append(_check(
        "gamma0(3, r) matches e^{-r}/(4 pi r) to 1e-10 on [1e-3, 20]",
        rel <= 1e-10, f"max rel {rel:.3e}"))

    for N in (3, 4, 5):
        target = math.gamma(N / 2.0 - 1.0) / (4.0 * math.pi ** (N / 2.0))
        f = lambda s: float(gamma0(N, np.array([s]))[0]) * s ** (N - 2)
        extrap = 2.0 * f(5e-5) - f(1e-4)
        err = abs(extrap / target - 1.0)
        checks.append(_check(
            f"r^{{N-2}} gamma0 extrapolates to Gamma(N/2-1)/(4 pi^{{N/2}}), "
            f"N={N}", err <= 1e-6 and abs(c_N(N) / target - 1.0) <= 1e-14,
            f"rel {err:.3e}"))

    grid = build_grid(1e-4, 30.0, 40)
    for N in (3, 4, 5):
        g_vals = gamma0(N, grid.nodes)
        p_vals = phi0(N, grid.nodes)
        ratio = g_vals / p_vals
        ok = (np.all(g_vals <= p_vals) and ratio[0] >= 0.999
              and ratio[-1] <= 1e-3)
        checks.append(_check(
            f"gamma0 <= phi0 with ratio 1 at 0 and 0 at infinity, N={N}",
            ok, f"ratio ends ({ratio[0]:.6f}, {ratio[-1]:.3e})"))

    # DLMF 10.28.2, I_nu K_{nu+1} + I_{nu+1} K_nu = 1/r, in the factors of
    # orders nu = N/2 - 1 and nu + 1: the one value check on even N
    worst = 0.0
    for N in range(3, 8):
        y0, yinf = green_halfline_factors(N, r)
        y0_up, yinf_up = green_halfline_factors(N + 2, r)
        wronskian = r ** N * (y0 * yinf_up + y0_up * yinf)
        worst = max(worst, float(np.max(np.abs(wronskian - 1.0))))
    checks.append(_check(
        "r^N (y0_N yinf_{N+2} + y0_{N+2} yinf_N) = 1 to 1e-13 on "
        "[1e-3, 20], N=3..7", worst <= 1e-13, f"max dev {worst:.3e}"))

    if csv_path is not None:
        write_csv(csv_path, {"r": r, "gamma0": gam, "phi0": phi,
                             "closed_form": closed, "residual": residual})
        checks.append(_check(f"audit CSV written to {csv_path}", True))
    return checks


# ---------------------------------------------------------------------------
# operators


def _discrete_radial_lhs(N: int, grid: RadialGrid, v):
    """Apply -Delta + 1 radially by central differences on a geometric grid.

    Works in the log variable x = ln r, where the grid is uniform and the
    operator reads -e^{-2x} (u_xx + (N-2) u_x) + u.  Five-point centered
    stencils keep the stencil's own truncation error well below the
    quadrature error it is meant to expose: with three points the e^{2x}
    curvature of u near the origin costs O(h^2) times the source amplitude,
    which is the same order as the effect under test.  Returns the interior
    slice (indices 2..M-3) of the result.
    """
    h = grid.log_step
    u_x = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12.0 * h)
    u_xx = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12.0 * h ** 2)
    return -(u_xx + (N - 2) * u_x) / grid.nodes[2:-2] ** 2 + v[2:-2]


def _inverse_property_error(ppd: int) -> float:
    grid = build_grid(1e-4, 30.0, ppd)
    f = np.exp(-np.log(grid.nodes) ** 2 / (2.0 * 0.85 ** 2))
    u = apply(assemble("green", 3, grid), RadialProfile(grid, f))
    lhs = _discrete_radial_lhs(3, grid, u.values)
    err = np.abs(lhs - f[2:-2]) / f.max()
    return float(err[3:-3].max())


def suite_operators() -> list:
    checks = []
    grid = build_grid(1e-4, 1.0, 40)
    ones = RadialProfile(grid, np.ones(grid.size), tail=ZERO_TAIL)

    riesz_val = apply(assemble("riesz", 3, grid, alpha=2.0), ones).values[0]
    err = abs(riesz_val / (2.0 * math.pi) - 1.0)
    checks.append(_check(
        "I_2[unit ball indicator] at the innermost node equals 2 pi",
        err <= 1e-3, f"rel {err:.3e}"))

    green_val = apply(assemble("green", 3, grid), ones).values[0]
    err = abs(green_val / (1.0 - 2.0 / math.e) - 1.0)
    checks.append(_check(
        "G[unit ball indicator] at the innermost node equals 1 - 2/e",
        err <= 1e-3, f"rel {err:.3e}"))

    e40 = _inverse_property_error(40)
    e80 = _inverse_property_error(80)
    checks.append(_check(
        "discrete -Delta+1 applied to G[bump] recovers the bump (40/decade)",
        e40 <= 1e-3, f"sup rel {e40:.3e}"))
    checks.append(_check(
        "inverse-property error halves at 80 points/decade",
        e80 <= 0.5 * e40, f"{e40:.3e} -> {e80:.3e}"))
    return checks


# ---------------------------------------------------------------------------
# rate transfer


# (alpha, tau) in N = 5 dimensions
_RATE_N = 5
_RATE_TABLE = [
    (2.0, 3.0), (2.0, 2.0), (2.0, 1.0),
    (1.0, 2.0), (1.0, 1.0), (1.0, 1.5),
    (3.0, 3.0), (3.5, 2.5), (3.0, 2.0),
]


def suite_rates() -> list:
    grid = build_grid(1e-4, 30.0, 40)
    # one Green operator and one Riesz operator per alpha serve every row
    green = assemble("green", _RATE_N, grid)
    riesz = {alpha: assemble("riesz", _RATE_N, grid, alpha=alpha)
             for alpha in {alpha for alpha, _ in _RATE_TABLE}}
    checks = []
    for alpha, tau in _RATE_TABLE:
        res = verify_rate_transfer(green, riesz[alpha], tau)
        ok = (res.green_measured.matches(res.green_predicted)
              and res.riesz_measured.matches(res.riesz_predicted))
        checks.append(_check(
            f"input power {tau:g} (N={_RATE_N}, alpha={alpha:g}) transfers "
            f"as {res.green_predicted}/{res.riesz_predicted}",
            ok,
            f"measured {res.green_measured.kind}/{res.riesz_measured.kind}"))
    return checks


# ---------------------------------------------------------------------------
# bootstrap ledgers


def suite_bootstrap() -> list:
    checks = []
    e = ProblemExponents(4, Fraction(1), Fraction(6, 5), Fraction(1))
    t1, _ = bootstrap_t1(e)
    checks.append(_check("splitting exponent t1 = 17/7 for "
                         "(N=4, alpha=1, p=6/5, q=1)",
                         t1 == Fraction(17, 7), f"got {t1}"))

    T_seq, n0 = T_sequence(e)
    expected = [Fraction(-2), Fraction(-7, 5), Fraction(-19, 50),
                Fraction(677, 500)]
    checks.append(_check("decay ladder [-2, -7/5, -19/50, 677/500] with "
                         "first positive index 3",
                         T_seq == expected and n0 == 3,
                         f"got {[str(t) for t in T_seq]}, n0={n0}"))

    ratio = Fraction(17, 10)
    law = all(T_seq[n] - T_seq[n - 1]
              == ratio ** (n - 1) * (T_seq[1] - T_seq[0])
              for n in range(1, len(T_seq)))
    checks.append(_check("difference law T_n - T_{n-1} = "
                         "(17/10)^{n-1} (T_1 - T_0) holds exactly", law))

    e2 = ProblemExponents(3, Fraction(2), Fraction(5, 2), Fraction(1))
    seq = s_sequence(e2, s1=Fraction(11, 10))
    checks.append(_check("integrability run [11/10, 11/2] for "
                         "(N=3, alpha=2, p=5/2, q=1) passes N/2 in one step",
                         seq == [Fraction(11, 10), Fraction(11, 2)]
                         and seq[-1] > Fraction(3, 2),
                         f"got {[str(s) for s in seq]}"))
    return checks


SUITES = {
    "kernels": suite_kernels,
    "operators": suite_operators,
    "rates": suite_rates,
    "bootstrap": suite_bootstrap,
}


def run_suite(name: str, stream: Optional[TextIO] = None,
              csv_path: Optional[str] = None) -> bool:
    """Run one suite, print TAP lines, return True iff everything passed."""
    if stream is None:
        stream = sys.stdout
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; "
                         f"choose from {sorted(SUITES)}")
    checks = (suite_kernels(csv_path) if name == "kernels"
              else SUITES[name]())
    stream.write(f"1..{len(checks)}\n")
    for i, c in enumerate(checks, start=1):
        status = "ok" if c.passed else "not ok"
        suffix = f"  # {c.detail}" if c.detail and not c.passed else ""
        stream.write(f"{status} {i} - {c.name}{suffix}\n")
    return all(c.passed for c in checks)
