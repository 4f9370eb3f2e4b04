"""Acceptance gate: eight end-to-end criteria, one test (and one report
line under pytest -v) per criterion, each at its stated tolerance and
runtime budget.

The criteria pin: exact criticality classification, exact bootstrap
ledgers, kernel closed forms, frozen operator oracles with refinement,
the nine-branch rate-transfer table, the flagship end-to-end solve with
its asymptotic laws, the nonexistence probes with the solver gate, and
threshold bracketing in k.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from choqlab.asymptotics import (
    GrowthClass,
    check_lower_bound,
    fit_origin,
    integrability_probe,
    verify_rate_transfer,
)
from choqlab.cli import main
from choqlab.exponents import (
    Criticality,
    ProblemExponents,
    T_sequence,
    bootstrap_t1,
    classify,
    k_threshold,
    s_sequence,
)
from choqlab.kernels import c_N, gamma0, phi0
from choqlab.operators import RadialProfile, ZERO_TAIL, apply, assemble, \
    build_grid
from choqlab.solver import (
    ProblemInstance,
    SolveVerdict,
    SupercriticalError,
    barrier,
    estimate_barrier_constant,
    estimate_kstar,
    solve_minimal,
)
from choqlab.verify import _inverse_property_error

FLAGSHIP = ProblemExponents(3, Fraction(2), Fraction(2), Fraction(1))

SUB = Criticality.SUBCRITICAL
SUPER = Criticality.SUPERCRITICAL


class _budget:
    """Wall-clock guard for a criterion's stated runtime limit."""

    def __init__(self, seconds: float):
        self.limit = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, *exc):
        if exc[0] is None:
            assert time.monotonic() - self.start < self.limit
        return False


def test_criterion_1_exact_classification():
    # twelve tuples spanning every branch, including the three boundary
    # equalities (p+q, p, and q each hitting its threshold exactly)
    table = [
        ((3, "2", "2", "1"), SUB, ()),
        ((4, "1", "6/5", "1"), SUB, ()),
        ((5, "4", "3/2", "1"), SUB, ()),
        ((3, "2", "3/2", "3/2"), SUB, ()),
        ((5, "2", "1", "1"), SUB, ()),
        ((3, "1", "2", "3/2"), SUB, ()),
        ((3, "2", "5/2", "5/2"), SUPER, ("p+q",)),   # p+q = 5 exactly
        ((3, "2", "3", "1"), SUPER, ("p",)),         # p = 3 exactly
        ((3, "2", "1", "3"), SUPER, ("q",)),         # q = 3 exactly
        ((3, "2", "3", "3"), SUPER, ("p+q", "p", "q")),
        ((4, "2", "2", "3/2"), SUPER, ("p+q", "p")),
        ((4, "3", "7/2", "1"), SUPER, ("p+q", "p")),
    ]
    with _budget(1.0):
        for (N, alpha, p, q), crit, triggers in table:
            report = classify(ProblemExponents(
                N, Fraction(alpha), Fraction(p), Fraction(q)))
            assert report.criticality is crit, (N, alpha, p, q)
            assert report.triggers == triggers, (N, alpha, p, q)


def test_criterion_2_exact_bootstrap_ledgers():
    with _budget(1.0):
        e = ProblemExponents(4, Fraction(1), Fraction(6, 5), Fraction(1))
        t1, _ = bootstrap_t1(e)
        assert t1 == Fraction(17, 7)
        T_seq, n0 = T_sequence(e)
        assert T_seq == [Fraction(-2), Fraction(-7, 5), Fraction(-19, 50),
                         Fraction(677, 500)]
        assert n0 == 3
        ratio = Fraction(17, 10)
        for n in range(1, len(T_seq)):
            assert (T_seq[n] - T_seq[n - 1]
                    == ratio ** (n - 1) * (T_seq[1] - T_seq[0]))

        e2 = ProblemExponents(3, Fraction(2), Fraction(5, 2), Fraction(1))
        seq = s_sequence(e2, s1=Fraction(11, 10))
        assert seq == [Fraction(11, 10), Fraction(11, 2)]
        assert seq[-1] > Fraction(3, 2)


def test_criterion_3_kernel_accuracy():
    with _budget(10.0):
        r = np.geomspace(1e-3, 20.0, 200)
        closed = np.exp(-r) / (4.0 * math.pi * r)
        assert np.max(np.abs(gamma0(3, r) / closed - 1.0)) <= 1e-10

        for N in (3, 4, 5):
            target = math.gamma(N / 2.0 - 1.0) / (4.0 * math.pi ** (N / 2.0))
            f = lambda s: float(gamma0(N, np.array([s]))[0]) * s ** (N - 2)
            extrap = 2.0 * f(5e-5) - f(1e-4)
            assert abs(extrap / target - 1.0) <= 1e-6
            assert abs(c_N(N) / target - 1.0) <= 1e-14

        grid = build_grid(1e-4, 30.0, 40)
        for N in (3, 4, 5):
            gam, phi = gamma0(N, grid.nodes), phi0(N, grid.nodes)
            assert np.all(gam <= phi)
            assert gam[0] / phi[0] >= 0.999
            assert gam[-1] / phi[-1] <= 1e-3


def test_criterion_4_operator_oracles():
    with _budget(60.0):
        grid = build_grid(1e-4, 1.0, 40)
        ones = RadialProfile(grid, np.ones(grid.size), tail=ZERO_TAIL)
        riesz_val = apply(assemble("riesz", 3, grid, alpha=2.0), ones).values[0]
        assert abs(riesz_val / (2.0 * math.pi) - 1.0) <= 1e-3
        green_val = apply(assemble("green", 3, grid), ones).values[0]
        assert abs(green_val / (1.0 - 2.0 / math.e) - 1.0) <= 1e-3

        e40 = _inverse_property_error(40)
        e80 = _inverse_property_error(80)
        assert e40 <= 1e-3
        assert e80 <= 0.5 * e40


def test_criterion_5_rate_transfer_branch_table():
    cases = [
        (5, 2.0, 3.0), (5, 2.0, 2.0), (5, 2.0, 1.0),
        (5, 1.0, 2.0), (5, 1.0, 1.0), (5, 1.0, 1.5),
        (5, 3.0, 3.0), (5, 3.5, 2.5), (5, 3.0, 2.0),
    ]
    grid = build_grid(1e-4, 30.0, 40)
    with _budget(60.0):
        for N, alpha, tau in cases:
            res = verify_rate_transfer(N, alpha, tau, grid)
            assert res.green_measured.matches(res.green_predicted), \
                (N, alpha, tau)
            assert res.riesz_measured.matches(res.riesz_predicted), \
                (N, alpha, tau)


def test_criterion_6_flagship_end_to_end():
    with _budget(300.0):
        grid40 = build_grid(1e-4, 30.0, 40)
        c_hat = estimate_barrier_constant(FLAGSHIP, grid40)
        k_q, t_q = k_threshold(c_hat, 2.0, 1.0)
        k = 0.5 * k_q
        inst = ProblemInstance(FLAGSHIP, k=k, grid=grid40)
        outcome = solve_minimal(inst)

        assert outcome.verdict is SolveVerdict.CONVERGED
        assert outcome.iterations <= 200
        assert max(outcome.trace.mono_violations) <= 1e-8

        w = barrier(inst, t_q)
        margins = np.asarray(outcome.trace.barrier_margins)
        assert margins.min() >= -1e-8 * w.sup

        assert check_lower_bound(outcome.profile, k, 3) <= 1e-8

        target = c_N(3) * k
        fit40 = fit_origin(outcome.profile, 3)
        rel40 = abs(fit40.limit_estimate - target) / target
        assert rel40 <= 0.05

        grid80 = build_grid(1e-4, 30.0, 80)
        out80 = solve_minimal(ProblemInstance(FLAGSHIP, k=k, grid=grid80))
        fit80 = fit_origin(out80.profile, 3)
        rel80 = abs(fit80.limit_estimate - target) / target
        assert rel80 <= 0.05
        # refinement must not worsen the limit, up to an additive 1e-7
        # allowance: both deviations sit at the two-term fit model's bias
        # floor (~4e-8, six orders below the 5% tolerance), which grid
        # resolution cannot move because the source part of the iterate is
        # sampled analytically
        assert rel80 <= rel40 + 1e-7

        mask = grid40.nodes >= 10.0
        weighted = outcome.profile.values[mask] * np.exp(
            0.3 * grid40.nodes[mask])
        assert np.all(np.diff(weighted) <= 0.0)


def test_criterion_7_nonexistence_probes_and_gate(tmp_path):
    with _budget(60.0):
        log_case = ProblemExponents(3, Fraction(2), Fraction(2), Fraction(3))
        assert (integrability_probe(log_case).growth_class
                is GrowthClass.LOG_DIVERGENT)

        inner_case = ProblemExponents(3, Fraction(2), Fraction(3), Fraction(1))
        report = integrability_probe(inner_case)
        assert report.growth_class is GrowthClass.INNER_DIVERGENT
        assert report.partial_integrals == ()

        grid = build_grid(1e-3, 20.0, 20)
        for e in (log_case, inner_case):
            with pytest.raises(SupercriticalError):
                solve_minimal(ProblemInstance(e, k=0.4, grid=grid))
            code = main(["solve", "--N", str(e.N), "--alpha", str(e.alpha),
                         "--p", str(e.p), "--q", str(e.q), "--k", "0.4",
                         "--r-min", "1e-3", "--r-max", "20",
                         "--points-per-decade", "20",
                         "--report-json", str(tmp_path / "report.json")])
            assert code == 3
            assert not (tmp_path / "report.json").exists()


def test_criterion_8_kstar_bracketing():
    with _budget(900.0):
        grid = build_grid(1e-4, 30.0, 40)
        c_hat = estimate_barrier_constant(FLAGSHIP, grid)
        k_q, _ = k_threshold(c_hat, 2.0, 1.0)
        template = ProblemInstance(FLAGSHIP, k=k_q, grid=grid)
        bracket = estimate_kstar(template, 0.5 * k_q, 50.0 * k_q, steps=8)

        assert bracket.k_conv >= 0.9 * k_q
        assert math.isfinite(bracket.k_div)
        assert bracket.k_conv < bracket.k_div
        # downward closure on the sampled set: everything below the largest
        # convergent k converged
        converged = sorted(k for k, vd in bracket.evaluations
                           if vd is SolveVerdict.CONVERGED)
        diverged = sorted(k for k, vd in bracket.evaluations
                          if vd is SolveVerdict.DIVERGED)
        assert converged and diverged
        assert max(converged) < min(diverged)

        profiles = []
        for frac in (0.3, 0.6, 0.9):
            out = solve_minimal(ProblemInstance(FLAGSHIP, k=frac * k_q,
                                                grid=grid))
            assert out.verdict is SolveVerdict.CONVERGED
            profiles.append(out.profile)
        for low, high in zip(profiles, profiles[1:]):
            slack = 1e-10 * high.sup
            assert np.all(low.values <= high.values + slack)
