"""Monotone iteration: convergence, divergence, barriers, and the k bracket.

The flagship configuration (N=3, alpha=2, p=2, q=1) is solved once at
module scope and inspected by several tests; everything it must satisfy
(monotone trace, barrier domination, k Gamma_0 lower bound, fixed-point
residual) comes from the structure of the scheme, not from tuning.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from choqlab.exponents import ProblemExponents, k_threshold
from choqlab.operators import (
    ExpDecay,
    NonIntegrableOriginError,
    RadialProfile,
    build_grid,
    pointwise_add,
)
from choqlab.solver import (
    BarrierEstimateError,
    BracketEndpointError,
    Discretization,
    ProblemInstance,
    SolveVerdict,
    SupercriticalError,
    barrier,
    estimate_barrier_constant,
    estimate_kstar,
    gamma0_profile,
    iterate_once,
    phi0_profile,
    solve_minimal,
)

FLAGSHIP = ProblemExponents(N=3, alpha=Fraction(2), p=Fraction(2),
                            q=Fraction(1))
GRID = build_grid(1e-4, 30.0, 40)
C_HAT = estimate_barrier_constant(FLAGSHIP, GRID)
K_Q, T_Q = k_threshold(C_HAT, 2.0, 1.0)
INST = ProblemInstance(FLAGSHIP, k=0.5 * K_Q, grid=GRID)
OUTCOME = solve_minimal(INST)


# ---------------------------------------------------------------------------
# flagship solve


def test_flagship_converges_quickly():
    assert OUTCOME.verdict is SolveVerdict.CONVERGED
    assert OUTCOME.iterations <= 200
    assert OUTCOME.profile is not None
    assert OUTCOME.fixed_point_residual <= 2.0 * INST.conv_tol


def test_flagship_trace_is_monotone():
    tr = OUTCOME.trace
    assert max(tr.mono_violations) <= 1e-8
    assert np.all(np.diff(tr.sup_norms) >= 0.0)
    assert len(tr.sup_norms) == tr.iterations + 1
    assert len(tr.rel_deltas) == tr.iterations


def test_flagship_barrier_dominates_all_iterates():
    assert OUTCOME.barrier_active
    w = barrier(INST, T_Q)
    margins = np.asarray(OUTCOME.trace.barrier_margins)
    assert margins.min() >= -1e-8 * w.values.max()
    assert len(margins) == OUTCOME.trace.iterations + 1


def test_flagship_lower_bound():
    low = gamma0_profile(3, GRID, scale=INST.k)
    viol = np.max(low.values - OUTCOME.profile.values) / OUTCOME.profile.sup
    assert viol <= 1e-8


def test_flagship_annotations():
    prof = OUTCOME.profile
    assert prof.origin_exponent == 1.0          # N - 2
    assert prof.tail.rate == 1.0
    assert not prof.annotation_warning


# ---------------------------------------------------------------------------
# single iteration


def test_iterate_from_zero_returns_source():
    from choqlab.operators import RadialProfile
    z = RadialProfile(GRID, np.zeros(GRID.size))
    out = iterate_once(z, INST)
    src = gamma0_profile(3, GRID, scale=INST.k)
    np.testing.assert_array_equal(out.values, src.values)


def test_iterate_increases_above_source():
    src = gamma0_profile(3, GRID, scale=INST.k)
    out = iterate_once(src, INST)
    assert np.all(out.values >= src.values)
    assert out.values.max() > src.values.max()
    assert out.origin_exponent == src.origin_exponent
    assert out.tail == src.tail


def test_iterate_raises_on_inner_riesz_divergence():
    # p (N-2) >= N makes the powered source non-integrable at the origin
    ex = ProblemExponents(N=3, alpha=Fraction(2), p=Fraction(3), q=Fraction(1))
    inst = ProblemInstance(ex, k=1.0, grid=GRID)
    src = gamma0_profile(3, GRID, scale=1.0)
    with pytest.raises(NonIntegrableOriginError):
        iterate_once(src, inst)


@pytest.mark.parametrize("ex, k", [
    (FLAGSHIP, 0.9),
    (ProblemExponents(4, Fraction(1), Fraction(6, 5), Fraction(1)), 1.0),
    (ProblemExponents(3, Fraction(4, 5), Fraction(1, 2), Fraction(1)), 1.0),
])
def test_iterate_once_is_the_annotated_composition(ex, k):
    # the step on plain arrays must reproduce apply / pointwise_* to the
    # last bit, annotation_warning included
    grid = build_grid(1e-4, 30.0, 20)
    inst = ProblemInstance(ex, k=k, grid=grid)
    disc = Discretization(ex, grid)
    source = disc.source(k)
    # the same values with a flat first cell, so the slope check fires
    flat = source.values.copy()
    flat[0] = flat[1]
    for start in (source, RadialProfile(grid, flat, source.origin_exponent,
                                        source.tail)):
        v = start
        for _ in range(4):
            step = iterate_once(v, inst, disc)
            composed = pointwise_add(disc.nonlinear_image(v), source)
            assert np.array_equal(step.values, composed.values)
            assert step.annotation_warning == composed.annotation_warning
            assert (step.origin_exponent, step.tail) == \
                (source.origin_exponent, source.tail)
            v = step
        assert v.annotation_warning is (start is not source)


def test_iterate_refuses_foreign_annotations():
    src = gamma0_profile(3, GRID, scale=INST.k)
    for origin, tail in ((0.0, src.tail), (1.0, ExpDecay(0.5, 1.0))):
        with pytest.raises(ValueError, match="source's annotations"):
            iterate_once(RadialProfile(GRID, src.values, origin, tail), INST)


# ---------------------------------------------------------------------------
# gates and validation


def test_solve_rejects_supercritical():
    cases = {
        (3, 2, 3, 1): "p",
        (3, 2, 2, 3): "p+q",
    }
    for (N, a, p, q), trigger in cases.items():
        ex = ProblemExponents(N=N, alpha=Fraction(a), p=Fraction(p),
                              q=Fraction(q))
        inst = ProblemInstance(ex, k=1.0, grid=GRID)
        with pytest.raises(SupercriticalError) as exc:
            solve_minimal(inst)
        assert trigger in exc.value.report.triggers


def test_instance_validation():
    with pytest.raises(ValueError):
        ProblemInstance(FLAGSHIP, k=0.0, grid=GRID)
    with pytest.raises(ValueError):
        ProblemInstance(FLAGSHIP, k=1.0, grid=build_grid(1e-2, 30.0, 20))
    with pytest.raises(ValueError):
        ProblemInstance(FLAGSHIP, k=1.0, grid=build_grid(1e-4, 10.0, 20))
    with pytest.raises(ValueError):
        ProblemInstance(FLAGSHIP, k=1.0, grid=GRID, max_iter=0)
    with pytest.raises(ValueError):
        ProblemInstance(FLAGSHIP, k=1.0, grid=GRID, conv_tol=0.0)
    with pytest.raises(ValueError):
        ProblemInstance(FLAGSHIP, k=1.0, grid=GRID, blowup_cap=-1.0)
    with pytest.raises(ValueError):
        # beyond the float-safe ceiling for p + q = 3
        ProblemInstance(FLAGSHIP, k=1.0, grid=GRID, blowup_cap=1e300)


def test_default_blowup_cap():
    from choqlab.kernels import gamma0
    cap = ProblemInstance(FLAGSHIP, k=2.0, grid=GRID).blowup_cap
    assert math.isclose(cap, 1e12 * 2.0 * float(gamma0(3, GRID.r_min)),
                        rel_tol=1e-12)


# ---------------------------------------------------------------------------
# divergence and small-k behavior


def test_large_k_diverges():
    out = solve_minimal(ProblemInstance(FLAGSHIP, k=100.0, grid=GRID))
    assert out.verdict is SolveVerdict.DIVERGED
    assert out.iterations < 50
    assert not out.barrier_active
    assert out.profile is None
    assert out.trace.sup_norms[-1] > out.trace.sup_norms[0]


def test_small_k_correction_scales_cubically():
    # u_k - k Gamma_0 = O(k^{p+q}); the prefactor must stabilize as k -> 0
    prefactors = []
    for k in (1e-2, 1e-3):
        out = solve_minimal(ProblemInstance(FLAGSHIP, k=k, grid=GRID))
        assert out.verdict is SolveVerdict.CONVERGED
        low = gamma0_profile(3, GRID, scale=k)
        prefactors.append(np.max(np.abs(out.profile.values - low.values))
                          / k ** 3)
    assert prefactors[0] < 0.05
    assert math.isclose(prefactors[0], prefactors[1], rel_tol=0.05)


def test_profiles_increase_with_k():
    small = solve_minimal(ProblemInstance(FLAGSHIP, k=0.3 * K_Q, grid=GRID))
    large = solve_minimal(ProblemInstance(FLAGSHIP, k=0.6 * K_Q, grid=GRID))
    assert small.verdict is large.verdict is SolveVerdict.CONVERGED
    slack = 1e-10 * large.profile.sup
    assert np.all(small.profile.values <= large.profile.values + slack)


# ---------------------------------------------------------------------------
# barrier


def test_barrier_dominates_both_fundamental_solutions():
    for t in (0.5, T_Q):
        w = barrier(INST, t)
        kphi = phi0_profile(3, GRID, scale=INST.k)
        kgam = gamma0_profile(3, GRID, scale=INST.k)
        assert np.all(w.values >= kphi.values)
        assert np.all(kphi.values >= kgam.values)
    with pytest.raises(ValueError):
        barrier(INST, 0.0)


def test_barrier_constant_refinement_stability():
    c80 = estimate_barrier_constant(FLAGSHIP, build_grid(1e-4, 30.0, 80))
    assert abs(C_HAT / c80 - 1.0) <= 0.1


def test_barrier_constant_flags_end_peak():
    with pytest.raises(BarrierEstimateError):
        estimate_barrier_constant(FLAGSHIP, build_grid(1e-3, 1.0, 20))


def test_barrier_constant_rejects_supercritical():
    ex = ProblemExponents(N=3, alpha=Fraction(2), p=Fraction(2), q=Fraction(3))
    with pytest.raises(SupercriticalError):
        estimate_barrier_constant(ex, GRID)


# ---------------------------------------------------------------------------
# k* bracket


def test_kstar_bracket():
    tmpl = ProblemInstance(FLAGSHIP, k=0.5 * K_Q, grid=GRID, max_iter=400)
    br = estimate_kstar(tmpl, 0.5 * K_Q, 100.0, steps=6)
    assert br.k_conv >= 0.9 * K_Q
    assert br.k_conv < br.k_div
    assert np.isfinite(br.k_div)
    if not br.halted_undetermined:
        width0 = 100.0 - 0.5 * K_Q
        assert br.k_div - br.k_conv <= width0 / 2 ** 6 * (1 + 1e-12)
    conv = [k for k, v in br.evaluations if v is SolveVerdict.CONVERGED]
    div = [k for k, v in br.evaluations if v is SolveVerdict.DIVERGED]
    assert max(conv) < min(div)


def test_kstar_rejects_bad_endpoints():
    tmpl = ProblemInstance(FLAGSHIP, k=0.5 * K_Q, grid=GRID, max_iter=400)
    with pytest.raises(ValueError):
        estimate_kstar(tmpl, 100.0, 200.0, steps=2)     # lo diverges
    with pytest.raises(ValueError):
        estimate_kstar(tmpl, 0.1 * K_Q, 0.5 * K_Q, steps=2)  # hi converges
    with pytest.raises(ValueError):
        estimate_kstar(tmpl, 1.0, 0.5, steps=2)
    with pytest.raises(ValueError):
        estimate_kstar(tmpl, 0.5, 1.0, steps=0)


def test_kstar_endpoint_errors_are_their_own_type():
    tmpl = ProblemInstance(FLAGSHIP, k=0.5 * K_Q, grid=GRID, max_iter=400)
    with pytest.raises(BracketEndpointError, match="did not converge"):
        estimate_kstar(tmpl, 100.0, 200.0, steps=2)
    with pytest.raises(BracketEndpointError, match="did not diverge"):
        estimate_kstar(tmpl, 0.1 * K_Q, 0.5 * K_Q, steps=2)


# ---------------------------------------------------------------------------
# shared discretization


def test_kstar_assembles_each_operator_once(assemble_counts):
    tmpl = ProblemInstance(FLAGSHIP, k=1.0, grid=GRID)
    br = estimate_kstar(tmpl, 0.5 * K_Q, 50.0 * K_Q, steps=4)
    assert len(br.evaluations) == 6
    assert assemble_counts == {"riesz": 1, "green": 1}


def test_kstar_accepts_a_callers_discretization(assemble_counts):
    disc = Discretization(FLAGSHIP, GRID)
    tmpl = ProblemInstance(FLAGSHIP, k=1.0, grid=GRID)
    shared = estimate_kstar(tmpl, 0.5 * K_Q, 50.0 * K_Q, steps=3, disc=disc)
    assert assemble_counts == {"riesz": 1, "green": 1}
    fresh = estimate_kstar(tmpl, 0.5 * K_Q, 50.0 * K_Q, steps=3)
    assert shared == fresh


@pytest.mark.parametrize("k, verdict, active", [
    (0.5 * K_Q, SolveVerdict.CONVERGED, True),
    (2.0, SolveVerdict.CONVERGED, False),
    (20.0, SolveVerdict.DIVERGED, False),
])
def test_shared_discretization_is_bit_identical(k, verdict, active):
    # the shared object has already served other k, so its column caches
    # and barrier core are warm when this solve starts
    disc = Discretization(FLAGSHIP, GRID)
    for other in (0.3 * K_Q, 50.0):
        solve_minimal(ProblemInstance(FLAGSHIP, k=other, grid=GRID), disc)
    inst = ProblemInstance(FLAGSHIP, k=k, grid=GRID)
    shared = solve_minimal(inst, disc)
    fresh = solve_minimal(inst)
    assert shared.verdict is fresh.verdict is verdict
    assert shared.barrier_active is fresh.barrier_active is active
    assert shared.iterations == fresh.iterations
    assert shared.barrier_constant == fresh.barrier_constant == C_HAT
    assert shared.k_threshold_estimate == fresh.k_threshold_estimate
    assert shared.fixed_point_residual == fresh.fixed_point_residual
    assert shared.trace == fresh.trace
    if verdict is SolveVerdict.CONVERGED:
        assert np.array_equal(shared.profile.values, fresh.profile.values)
        for name in ("origin_exponent", "tail", "annotation_warning"):
            assert getattr(shared.profile, name) == getattr(fresh.profile,
                                                            name)
    else:
        assert shared.profile is fresh.profile is None


def test_discretization_source_and_barrier_match_profiles():
    disc = Discretization(FLAGSHIP, GRID)
    assert np.array_equal(disc.source(INST.k).values,
                          gamma0_profile(3, GRID, scale=INST.k).values)
    assert np.array_equal(barrier(INST, T_Q, disc).values,
                          barrier(INST, T_Q).values)
    assert disc.c_hat == C_HAT


def test_discretization_must_match_the_instance():
    disc = Discretization(FLAGSHIP, build_grid(1e-4, 30.0, 20))
    with pytest.raises(ValueError, match="discretization"):
        solve_minimal(INST, disc)
    other = ProblemExponents(N=3, alpha=Fraction(2), p=Fraction(3, 2),
                             q=Fraction(1))
    with pytest.raises(ValueError, match="discretization"):
        iterate_once(gamma0_profile(3, GRID), INST,
                     Discretization(other, GRID))
