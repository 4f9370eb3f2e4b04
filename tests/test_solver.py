"""Monotone iteration: convergence, divergence, barriers, and the k bracket.

The flagship configuration (N=3, alpha=2, p=2, q=1) is solved once at
module scope and inspected by several tests; everything it must satisfy
(monotone trace, barrier domination, k Gamma_0 lower bound, fixed-point
residual) comes from the structure of the scheme, not from tuning.
"""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from choqlab.exponents import ProblemExponents, k_threshold
from choqlab.operators import (
    ExpDecay,
    NonIntegrableOriginError,
    RadialProfile,
    apply,
    build_grid,
    pointwise_power,
    pointwise_product,
)
import choqlab.solver
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
    r_max_ceiling,
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
    for steps in (tr.methods, tr.rel_deltas, tr.ratios, tr.bounds,
                  tr.jacobian_products, tr.mono_violations):
        assert len(steps) == tr.iterations
    assert OUTCOME.stop_reason == "bound"
    assert tr.bounds[-1] < INST.conv_tol
    assert not OUTCOME.annotation_warning


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


def test_iterate_rejects_a_zero_profile():
    from choqlab.operators import RadialProfile
    z = RadialProfile(GRID, np.zeros(GRID.size))
    with pytest.raises(ValueError, match="annotations"):
        iterate_once(z, INST)


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


def annotated_image(disc, v):
    """G[I_alpha[v^p] v^q] through the annotated operators apply /
    pointwise_*: the reference the array map Discretization.image must
    reproduce."""
    ex = disc.exponents
    potential = apply(disc.riesz, pointwise_power(v, float(ex.p)))
    return apply(disc.green, pointwise_product(
        potential, pointwise_power(v, float(ex.q))))


def flattened(profile):
    """The same values with a flat first cell, so the slope check fires."""
    flat = profile.values.copy()
    flat[0] = flat[1]
    return replace(profile, values=flat)


@pytest.mark.parametrize("ex, k", [
    (FLAGSHIP, 0.9),
    (ProblemExponents(4, Fraction(1), Fraction(6, 5), Fraction(1)), 1.0),
    (ProblemExponents(3, Fraction(4, 5), Fraction(1, 2), Fraction(1)), 1.0),
])
def test_iterate_once_is_the_annotated_composition(ex, k):
    # the step and the barrier core on plain arrays must reproduce
    # apply / pointwise_* to the last bit, annotation_warning included
    grid = build_grid(1e-4, 30.0, 20)
    inst = ProblemInstance(ex, k=k, grid=grid)
    disc = Discretization(ex, grid)
    source = disc.source(k)
    for start in (source, flattened(source)):
        v = start
        for _ in range(4):
            potential = np.empty(grid.size)
            step = iterate_once(v, inst, potential)
            composed = annotated_image(disc, v)
            assert np.array_equal(step.values,
                                  composed.values + source.values)
            powered = pointwise_power(v, float(ex.p))
            assert np.array_equal(potential,
                                  apply(disc.riesz, powered).values)
            assert step.annotation_warning == composed.annotation_warning
            assert (step.origin_exponent, step.tail) == \
                (source.origin_exponent, source.tail)
            v = step
        assert v.annotation_warning is (start is not source)

    composed = annotated_image(disc, disc.phi0)
    core, warn = disc.barrier_core
    assert np.array_equal(core, composed.values)
    assert warn is composed.annotation_warning is False
    flat = flattened(disc.phi0)
    core, warn = disc.image(flat.values, disc.plan(disc.phi0))
    composed = annotated_image(disc, flat)
    assert np.array_equal(core, composed.values)
    assert warn is composed.annotation_warning is True


@pytest.mark.parametrize("N, alpha, p, q", [
    (3, 2, 2, 1), (3, "4/5", "1/2", 1), (4, 1, "6/5", 1), (4, 2, 1, 1),
    (5, "5/2", 1, 1), (3, "1/2", 1, "3/2"), (6, 2, "1/2", 1), (3, 1, 1, 2),
])
def test_barrier_carries_phi0_annotations(N, alpha, p, q):
    # the core is milder at the origin and decays faster than Phi_0, so
    # Phi_0's annotations are the sum's: the slower tail and the worse
    # singularity of the two
    ex = ProblemExponents(N, Fraction(alpha), Fraction(p), Fraction(q))
    grid = build_grid(1e-4, 30.0, 10)
    disc = Discretization(ex, grid)
    phi0 = disc.phi0
    core = annotated_image(disc, phi0)
    assert core.origin_exponent <= phi0.origin_exponent
    assert (core.tail.rate, core.tail.power) >= (phi0.tail.rate,
                                                 phi0.tail.power)
    w = barrier(ProblemInstance(ex, k=1.0, grid=grid), 2.0)
    assert (w.origin_exponent, w.tail) == (phi0.origin_exponent, phi0.tail)
    assert w.annotation_warning is disc.barrier_core[1]


def test_iterate_refuses_foreign_annotations():
    src = gamma0_profile(3, GRID, scale=INST.k)
    for origin, tail in ((0.0, src.tail), (1.0, ExpDecay(0.5, 1.0))):
        with pytest.raises(ValueError, match="source's annotations"):
            iterate_once(RadialProfile(GRID, src.values, origin, tail), INST)


# float arithmetic on the annotations lands an ulp off the exact plan for
# (4,1,6/5,1), (3,3/2,7/5,4/3) and (7,1/3,1/7,6/5), and on it for the rest
PLAN_TUPLES = [(3, 2, 2, 1), (4, 1, "6/5", 1), (3, "3/2", "7/5", "4/3"),
               (7, "1/3", "1/7", "6/5"), (3, "4/5", "1/2", 1),
               (5, 4, "3/2", 1), (6, "5/3", "7/10", "11/10")]


def exact_plan(ex, rate):
    """((sigma, tail rate, tail power) of x^p, the same of I_alpha[x^p]
    x^q) in Fractions, for x with origin exponent N-2 and tail (rate,
    (N-1)/2); the log a tie p (N-2) == alpha leaves counts as sigma = 0."""
    N, alpha, p, q = ex.N, ex.alpha, ex.p, ex.q
    sigma, power = Fraction(N - 2), Fraction(N - 1, 2)
    riesz_out = max(p * sigma - alpha, Fraction(0))
    return ((p * sigma, p * rate, p * power),
            (riesz_out + q * sigma, q * rate, N - alpha + q * power))


@pytest.mark.parametrize("N, alpha, p, q", PLAN_TUPLES)
def test_plans_hold_the_exact_annotations(N, alpha, p, q):
    # each sigma is float() of the exact value, and each column is the one
    # cached under the exact float annotations, not a neighbour's
    ex = ProblemExponents(N, Fraction(alpha), Fraction(p), Fraction(q))
    disc = Discretization(ex, build_grid(1e-4, 30.0, 10))
    for plan, rate in ((disc.step_plan, Fraction(1)),
                       (disc.plan(disc.phi0), Fraction(1, 2))):
        for op, (sigma, origin, tail), (s, r, power) in zip(
                (disc.riesz, disc.green), plan, exact_plan(ex, rate)):
            assert sigma == float(s)
            assert origin is op.origin_column(float(s))
            assert tail is op.tail_column(ExpDecay(float(r), float(power)))


def test_plans_round_once():
    # values that float arithmetic on the annotations misses by an ulp
    grid = build_grid(1e-4, 30.0, 10)
    disc = Discretization(ProblemExponents(7, Fraction(1, 3), Fraction(1, 7),
                                           Fraction(6, 5)), grid)
    assert [sigma for sigma, _, _ in disc.step_plan] == [
        0.7142857142857143, 6.380952380952381]
    disc = Discretization(ProblemExponents(4, Fraction(1), Fraction(6, 5),
                                           Fraction(1)), grid)
    assert disc.plan(disc.phi0)[0][2] is disc.riesz.tail_column(
        ExpDecay(0.6, 1.8))
    disc = Discretization(ProblemExponents(3, Fraction(3, 2), Fraction(7, 5),
                                           Fraction(4, 3)), grid)
    assert disc.step_plan[1][2] is disc.green.tail_column(
        ExpDecay(4 / 3, 2.8333333333333335))


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


@pytest.mark.parametrize("N", [3, 4, 5, 7])
def test_operators_stay_finite_up_to_the_r_max_ceiling(N):
    # RuntimeWarning fails the tests, so any overflow in the Green moments
    # or in a tail rule, which reaches s = r_max + 48, would show here; the
    # worst grids at r = 700 have 7-12 points per decade
    ceiling = r_max_ceiling(N)
    assert 20.0 < ceiling < 700.0
    ex = ProblemExponents(N=N, alpha=Fraction(2), p=Fraction(1),
                          q=Fraction(1))
    for ppd in (1, 5, 8, 10, 40):
        grid = build_grid(1e-4, ceiling, ppd)
        ProblemInstance(ex, k=1.0, grid=grid)
        disc = Discretization(ex, grid)
        for op in (disc.riesz, disc.green):
            op.tail_column(ExpDecay(0.5, (N - 1) / 2.0))
            op.origin_column(N - 2.0)
        with pytest.raises(ValueError, match=f"r_max <= {ceiling:g} for "
                                             f"N = {N}"):
            ProblemInstance(ex, k=1.0, grid=build_grid(1e-4, ceiling + 1.0,
                                                       ppd))


def test_default_blowup_cap():
    # bit for bit 1e12 k Gamma_0(r_min), clipped to a tenth of the
    # float-safe ceiling 10^(250 / (p + q)), which k = 1e70 reaches for
    # p + q = 3
    from choqlab.kernels import gamma0
    clipped = 0.1 * 10.0 ** (250.0 / 3.0)
    for k in (2.0, 1e70):
        inst = ProblemInstance(FLAGSHIP, k=k, grid=GRID)
        expected = min(1e12 * k * float(gamma0(3, GRID.r_min)), clipped)
        assert inst.blowup_cap == expected
        assert (expected == clipped) is (k == 1e70)
        # computed once per instance: every step reads it
        assert vars(inst)["blowup_cap"] == expected


def test_blowup_cap_is_derived_not_set():
    with pytest.raises(TypeError):
        ProblemInstance(FLAGSHIP, k=1.0, grid=GRID, blowup_cap=1.0)
    inst = ProblemInstance(FLAGSHIP, k=1.0, grid=GRID)
    assert inst.blowup_cap > 0
    # a copy at another k derives its own cap, never the template's
    moved = replace(inst, k=3.0)
    assert moved.blowup_cap == ProblemInstance(FLAGSHIP, k=3.0,
                                               grid=GRID).blowup_cap
    assert math.isclose(moved.blowup_cap, 3.0 * inst.blowup_cap,
                        rel_tol=1e-15)


# ---------------------------------------------------------------------------
# divergence and small-k behavior


def test_large_k_diverges():
    out = solve_minimal(ProblemInstance(FLAGSHIP, k=100.0, grid=GRID))
    assert out.verdict is SolveVerdict.DIVERGED
    assert out.stop_reason == "cap"
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
        kphi = INST.k * phi0_profile(3, GRID).values
        kgam = gamma0_profile(3, GRID, scale=INST.k)
        assert np.all(w.values >= kphi)
        assert np.all(kphi >= kgam.values)
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


def test_equal_grids_built_apart_share_one_discretization(assemble_counts):
    for k in (0.5 * K_Q, 2.0):
        grid = build_grid(1e-4, 30.0, 40)
        assert grid is not GRID
        out = solve_minimal(ProblemInstance(FLAGSHIP, k=k, grid=grid))
        assert out.verdict is SolveVerdict.CONVERGED
    assert assemble_counts == {"riesz": 1, "green": 1}


def test_instances_on_equal_grids_are_equal():
    a = ProblemInstance(FLAGSHIP, k=0.5, grid=build_grid(1e-4, 30.0, 40))
    b = ProblemInstance(FLAGSHIP, k=0.5, grid=build_grid(1e-4, 30.0, 40))
    assert a == b and hash(a) == hash(b)
    assert a != ProblemInstance(FLAGSHIP, k=0.5,
                                grid=build_grid(1e-4, 30.0, 20))


def test_other_exponents_or_another_grid_assemble_again(assemble_counts):
    other = ProblemExponents(N=3, alpha=Fraction(2), p=Fraction(3, 2),
                             q=Fraction(1))
    coarse = build_grid(1e-4, 30.0, 20)
    # only the most recent pair is kept, so returning to the first
    # assembles too
    for n, (ex, grid) in enumerate([(FLAGSHIP, GRID), (other, GRID),
                                    (other, coarse), (FLAGSHIP, coarse),
                                    (FLAGSHIP, GRID)], start=1):
        solve_minimal(ProblemInstance(ex, k=0.5, grid=grid))
        assert assemble_counts == {"riesz": n, "green": n}


@pytest.mark.parametrize("k, verdict, active", [
    # K_Q is computed, so its own id: its last digits are no name
    pytest.param(0.5 * K_Q, SolveVerdict.CONVERGED, True,
                 id="half_kq-SolveVerdict.CONVERGED-True"),
    (2.0, SolveVerdict.CONVERGED, False),
    (20.0, SolveVerdict.DIVERGED, False),
])
def test_shared_discretization_is_bit_identical(k, verdict, active,
                                                assemble_counts):
    # the warm solve finds the column caches and the barrier core filled
    # by solves at other k on an equal grid built apart
    inst = ProblemInstance(FLAGSHIP, k=k, grid=GRID)
    cold = solve_minimal(inst)
    for other in (0.3 * K_Q, 50.0):
        solve_minimal(ProblemInstance(FLAGSHIP, k=other,
                                      grid=build_grid(1e-4, 30.0, 40)))
    warm = solve_minimal(inst)
    assert assemble_counts == {"riesz": 1, "green": 1}
    assert warm.verdict is cold.verdict is verdict
    assert warm.barrier_active is cold.barrier_active is active
    assert warm.iterations == cold.iterations
    assert warm.stop_reason == cold.stop_reason
    assert warm.barrier_constant == cold.barrier_constant == C_HAT
    assert warm.k_threshold_estimate == cold.k_threshold_estimate
    assert warm.fixed_point_residual == cold.fixed_point_residual
    assert warm.trace == cold.trace
    if verdict is SolveVerdict.CONVERGED:
        assert warm.profile.values.tobytes() == cold.profile.values.tobytes()
        for name in ("origin_exponent", "tail", "annotation_warning"):
            assert getattr(warm.profile, name) == getattr(cold.profile, name)
    else:
        assert warm.profile is cold.profile is None


@pytest.mark.parametrize("side", [-math.inf, math.inf])
def test_solve_ignores_columns_at_neighbouring_floats(side,
                                                      cold_discretization):
    # columns at the float next to a plan's sigma, built by an earlier
    # caller, must not stand in for the plan's own; this diverging trace
    # moved in its last digits when they did
    ex = ProblemExponents(7, Fraction(1, 3), Fraction(1, 7), Fraction(6, 5))
    inst = ProblemInstance(ex, k=0.5, grid=GRID)
    cold = solve_minimal(inst)
    plan = choqlab.solver._shared.step_plan
    choqlab.solver._shared = None
    disc = choqlab.solver._discretization(ex, GRID)
    for op, (sigma, _, _) in zip((disc.riesz, disc.green), plan):
        op.origin_column(math.nextafter(sigma, side))
    warm = solve_minimal(inst)
    assert warm.verdict is cold.verdict is SolveVerdict.DIVERGED
    assert warm.trace == cold.trace


def test_discretization_source_and_barrier_match_profiles():
    disc = Discretization(FLAGSHIP, GRID)
    assert np.array_equal(disc.source(INST.k).values,
                          gamma0_profile(3, GRID, scale=INST.k).values)
    core, _ = disc.barrier_core
    assert np.array_equal(barrier(INST, T_Q).values,
                          core * (T_Q * INST.k ** 3)
                          + disc.phi0.values * INST.k)
    assert disc.c_hat == C_HAT


# ---------------------------------------------------------------------------
# the nodewise stop, Newton steps and the divergence certificate

EXP_41 = ProblemExponents(4, Fraction(1), Fraction(6, 5), Fraction(1))
EXP_P_BELOW_1 = ProblemExponents(3, Fraction(4, 5), Fraction(1, 2),
                                 Fraction(1))

# converging solves on the 40-ppd grid; the last two of each p, q >= 1 set
# lie within 0.3% below the discrete fold, where Newton steps take over
CONVERGING = [(FLAGSHIP, 3.0), (FLAGSHIP, 3.27), (FLAGSHIP, 3.275),
              (EXP_41, 1.3), (EXP_41, 1.465), (EXP_41, 1.468),
              (EXP_P_BELOW_1, 0.017)]

# rounding floor of a nodewise relative change
ROUNDING = 64 * np.finfo(float).eps


def test_false_convergence_of_the_sup_norm_stop_is_gone():
    # the sup-relative stop reported (4,1,6/5,1) at k = 1.47 converged
    # while the profile still moved by 2% a step; iterating on blew up
    out = solve_minimal(ProblemInstance(EXP_41, k=1.47, grid=GRID))
    assert out.verdict is SolveVerdict.DIVERGED
    assert out.profile is None


@pytest.mark.parametrize("ex, k", CONVERGING)
def test_one_more_step_moves_no_node_beyond_the_bound(ex, k):
    inst = ProblemInstance(ex, k=k, grid=GRID)
    out = solve_minimal(inst)
    assert out.verdict is SolveVerdict.CONVERGED
    assert out.stop_reason in ("bound", "newton")
    bound = out.trace.bounds[-1]
    assert bound < inst.conv_tol
    v = out.profile.values
    move = np.max(np.abs(iterate_once(out.profile, inst).values - v) / v)
    assert move <= bound + ROUNDING
    assert out.fixed_point_residual == move


@pytest.mark.parametrize("ex, k", CONVERGING)
def test_the_bound_holds_against_a_tight_reference(ex, k):
    # the bound assumes later increments shrink by at least the last
    # ratio; a solve to conv_tol = 1e-15 stands in for the fixed point.
    # Picard stops land on their bound to rounding, Newton stops below it
    inst = ProblemInstance(ex, k=k, grid=GRID)
    out = solve_minimal(inst)
    ref = solve_minimal(replace(inst, conv_tol=1e-15))
    assert out.verdict is ref.verdict is SolveVerdict.CONVERGED
    v, v_ref = out.profile.values, ref.profile.values
    gap = np.max(np.abs(v - v_ref) / v_ref)
    assert gap <= out.trace.bounds[-1] + ROUNDING


@pytest.mark.parametrize("ex, k", [(FLAGSHIP, 3.27), (EXP_41, 1.465)])
def test_newton_limit_is_the_picard_limit(ex, k, monkeypatch):
    inst = ProblemInstance(ex, k=k, grid=GRID)
    newton = solve_minimal(inst)
    assert "newton" in newton.trace.methods
    # Newton needs _NEWTON_RATIO < ratio < 1, an empty range at 1.0
    monkeypatch.setattr(choqlab.solver, "_NEWTON_RATIO", 1.0)
    picard = solve_minimal(inst)
    assert set(picard.trace.methods) == {"picard"}
    assert newton.verdict is picard.verdict is SolveVerdict.CONVERGED
    ref = picard.profile.values
    gap = np.max(np.abs(newton.profile.values - ref) / ref)
    assert gap <= inst.conv_tol


@pytest.mark.parametrize("ex, k", [(FLAGSHIP, 3.27), (FLAGSHIP, 3.4),
                                   (EXP_41, 1.465), (EXP_41, 1.52)])
def test_newton_increments_are_nonnegative(ex, k, monkeypatch):
    # converging and diverging solves alike: every accepted Newton step
    # moves every node up, so the iterates stay monotone
    increments = []
    step = choqlab.solver._newton_step

    def recorded(v, tv, jac, inst):
        out = step(v, tv, jac, inst)
        if out[0] is not None:
            w = out[0][0]
            increments.append(np.min((w.values - v.values) / v.values))
        return out

    monkeypatch.setattr(choqlab.solver, "_newton_step", recorded)
    out = solve_minimal(ProblemInstance(ex, k=k, grid=GRID))
    assert increments
    assert min(increments) >= -ROUNDING
    assert max(out.trace.mono_violations) <= ROUNDING
    assert np.all(np.diff(out.trace.sup_norms) >= 0.0)


@pytest.mark.parametrize("ex, k", [(FLAGSHIP, 3.27), (EXP_41, 1.465)])
def test_scaled_jacobian_is_the_derivative_of_the_step(ex, k):
    # S y = J(x y) / x against a central difference of the step map along
    # x y; its error is about t^2 from the third derivative
    disc = Discretization(ex, GRID)
    x = disc.source(k).values
    potential = np.empty(GRID.size)
    disc.image(x, disc.step_plan, potential)
    y = np.random.default_rng(3).random(GRID.size)
    t = 1e-4
    plus, _ = disc.image(x + t * x * y, disc.step_plan)
    minus, _ = disc.image(x - t * x * y, disc.step_plan)
    np.testing.assert_allclose(disc.jacobian(x, potential)(y),
                               (plus - minus) / (2.0 * t) / x, rtol=1e-6)


def test_exponents_below_one_take_only_picard_steps():
    # p = 1/2 breaks the convexity Newton's monotonicity rests on, so the
    # switch stays off even where Picard contracts slowly
    out = solve_minimal(ProblemInstance(EXP_P_BELOW_1, k=0.017, grid=GRID))
    assert out.verdict is SolveVerdict.CONVERGED
    assert max(r for r in out.trace.ratios if r is not None) > 0.9
    assert set(out.trace.methods) == {"picard"}
    assert sum(out.trace.jacobian_products) == 0


@pytest.mark.parametrize("ex, k", CONVERGING + [
    (FLAGSHIP, 3.2), (EXP_41, 1.45)])
def test_certificate_never_fires_where_the_solve_converges(ex, k,
                                                           monkeypatch):
    verdicts = []
    certificate = choqlab.solver._spectral_certificate

    def recorded(jac, x):
        out = certificate(jac, x)
        verdicts.append(out[0])
        return out

    monkeypatch.setattr(choqlab.solver, "_spectral_certificate", recorded)
    out = solve_minimal(ProblemInstance(ex, k=k, grid=GRID))
    assert out.verdict is SolveVerdict.CONVERGED
    assert not any(verdicts)


def test_certificate_fires_beyond_the_fold():
    inst = ProblemInstance(EXP_41, k=1.52, grid=GRID)
    out = solve_minimal(inst)
    assert out.verdict is SolveVerdict.DIVERGED
    assert out.stop_reason == "spectral"
    # the certificate ends the solve long before the sup norm nears the cap
    assert out.trace.sup_norms[-1] < 1e-6 * inst.blowup_cap


def test_barrier_margins_fire_when_c_hat_is_understated(monkeypatch):
    # an understated c_hat raises k_q past the fold, so the barrier is
    # claimed where its tangency proof fails; t_q = (s / (s-1))^s does not
    # depend on c_hat, so w_t still dominates every converging solve, and
    # the margins turn negative once a solve past the fold outgrows it
    c_hat = estimate_barrier_constant(EXP_41, GRID)
    beyond = ProblemInstance(EXP_41, k=1.52, grid=GRID)
    assert not solve_minimal(beyond).barrier_active
    monkeypatch.setattr(Discretization, "c_hat",
                        property(lambda self: 1e-6 * c_hat))
    out = solve_minimal(ProblemInstance(EXP_41, k=1.45, grid=GRID))
    assert out.verdict is SolveVerdict.CONVERGED and out.barrier_active
    assert min(out.trace.barrier_margins) > 0.0
    out = solve_minimal(beyond)
    assert out.verdict is SolveVerdict.DIVERGED and out.barrier_active
    w = barrier(beyond, k_threshold(1e-6 * c_hat, 1.2, 1.0)[1])
    assert min(out.trace.barrier_margins) < -1e-8 * w.sup


def test_mono_violations_fire_when_newton_may_step_down(monkeypatch):
    # a loose GMRES tolerance leaves Newton corrections that dip below
    # zero; the guard rejects them, so no step goes down, and with the
    # guard loosened as well the trace records the steps that do.  With
    # the shipped forcing term the corrections stay nonnegative, so a
    # loosened guard alone changes nothing
    inst = ProblemInstance(EXP_41, k=1.46, grid=GRID)
    monkeypatch.setattr(choqlab.solver, "_GUARD_EPS", 1.0)
    assert max(solve_minimal(inst).trace.mono_violations) == 0.0
    for name in ("_GMRES_RTOL", "_FORCING_MAX", "_GMRES_FLOOR"):
        monkeypatch.setattr(choqlab.solver, name, 0.1)
    assert max(solve_minimal(inst).trace.mono_violations) > 1e-8
    monkeypatch.setattr(choqlab.solver, "_GUARD_EPS", 1e-12)
    assert max(solve_minimal(inst).trace.mono_violations) == 0.0


def test_a_guard_that_keeps_failing_falls_back_to_picard(monkeypatch):
    # every Newton attempt is rejected and never certified: the solve
    # ends on Picard steps and the honest bound, and the attempts thin
    # out geometrically instead of costing a GMRES solve every step
    attempts = []

    def rejected(v, tv, jac, inst):
        attempts.append(len(attempts))
        return None, 1

    monkeypatch.setattr(choqlab.solver, "_newton_step", rejected)
    monkeypatch.setattr(choqlab.solver, "_spectral_certificate",
                        lambda jac, x: (False, 1))
    out = solve_minimal(ProblemInstance(FLAGSHIP, k=3.27, grid=GRID))
    assert out.verdict is SolveVerdict.CONVERGED
    assert out.stop_reason == "bound"
    assert set(out.trace.methods) == {"picard"}
    assert out.iterations > 100
    assert 1 <= len(attempts) <= math.log2(out.iterations) + 2


@pytest.mark.parametrize("k", [pytest.param(0.5 * K_Q, id="half_kq"), 3.27])
def test_annotation_warning_reaches_the_outcome(k, monkeypatch):
    # a slope check that always fires, on a Picard stop and a Newton stop
    monkeypatch.setattr(choqlab.solver, "origin_slope_disagrees",
                        lambda values, sigma, log_step: True)
    out = solve_minimal(ProblemInstance(FLAGSHIP, k=k, grid=GRID))
    assert out.verdict is SolveVerdict.CONVERGED
    assert out.annotation_warning and out.profile.annotation_warning


def test_budget_stop_is_undetermined():
    out = solve_minimal(ProblemInstance(FLAGSHIP, k=3.27, grid=GRID,
                                        max_iter=2))
    assert out.verdict is SolveVerdict.MAX_ITERATIONS
    assert out.stop_reason == "budget"
    assert out.profile is None and out.fixed_point_residual is None


def test_gmres_solves_a_nonsymmetric_system_in_one_cycle(monkeypatch):
    rng = np.random.default_rng(7)
    a = np.eye(60) + 0.4 * rng.standard_normal((60, 60)) / np.sqrt(60)
    b = rng.standard_normal(60)
    monkeypatch.setattr(choqlab.solver, "_GMRES_FLOOR", 0.0)
    y, converged, products = choqlab.solver._gmres(
        lambda z: a @ z, b, rtol=1e-12)
    assert converged
    assert np.linalg.norm(a @ y - b) <= 1e-11 * np.linalg.norm(b)
    assert products <= choqlab.solver._GMRES_MAX_PRODUCTS
    # a budget too small to converge is reported as such
    monkeypatch.setattr(choqlab.solver, "_GMRES_MAX_PRODUCTS", 6)
    _, converged, products = choqlab.solver._gmres(
        lambda z: a @ z, b, rtol=1e-12)
    assert not converged and products == 6


@pytest.mark.parametrize("rtol", [1e-12, 1e-14])
def test_gmres_solves_a_nearly_singular_system(rtol, monkeypatch):
    # I - S near the fold: one eigenvalue of 1e-4, the rest within 1/4 of
    # 1, in a nonsymmetric eigenbasis.  At rtol = 1e-14 a single
    # Gram-Schmidt pass loses orthogonality and exhausts the budget for
    # 8 of the first 12 seeds, this one among them; two passes take 22
    rng = np.random.default_rng(1)
    n = 200
    vectors = np.eye(n) + 0.5 * rng.standard_normal((n, n)) / np.sqrt(n)
    eigenvalues = np.concatenate(([1e-4],
                                  1.0 + 0.25 * rng.uniform(-1.0, 1.0, n - 1)))
    a = vectors @ np.diag(eigenvalues) @ np.linalg.inv(vectors)
    b = rng.standard_normal(n)
    monkeypatch.setattr(choqlab.solver, "_GMRES_FLOOR", 0.0)
    y, converged, products = choqlab.solver._gmres(lambda z: a @ z, b, rtol)
    assert converged
    assert products <= choqlab.solver._GMRES_MAX_PRODUCTS
    ref = np.linalg.solve(a, b)
    error = np.linalg.norm(y - ref) / np.linalg.norm(ref)
    assert error <= rtol * np.linalg.cond(a)
