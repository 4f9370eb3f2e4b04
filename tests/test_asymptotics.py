"""Origin/tail fits, the lower bound check, rate transfer, and probes.

Expected values come from closed forms: fit_origin must recover c_N k from
k Gamma_0 (and from the computed flagship solution), fit_decay must read
(lambda, m) = (1, 1) off Gamma_0 and (1/2, 1) off Phi_0, and the measured
operator output classes must agree with the exact rate algebra on all nine
branch combinations.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from choqlab.asymptotics import (
    GrowthClass,
    MeasuredRate,
    fit_decay,
    fit_origin,
    check_lower_bound,
    integrability_probe,
    origin_correction_exponent,
    verify_rate_transfer,
)
from choqlab.exponents import ProblemExponents, SingularityRate, k_threshold
from choqlab.kernels import c_N, gamma0
from choqlab.operators import (
    ExpDecay,
    RadialProfile,
    ZERO_TAIL,
    assemble,
    build_grid,
)
from choqlab.solver import (
    ProblemInstance,
    estimate_barrier_constant,
    gamma0_profile,
    phi0_profile,
    solve_minimal,
)

GRID = build_grid(1e-4, 30.0, 40)
FLAGSHIP = ProblemExponents(N=3, alpha=Fraction(2), p=Fraction(2),
                            q=Fraction(1))
C_HAT = estimate_barrier_constant(FLAGSHIP, GRID)
K_FLAG = 0.5 * k_threshold(C_HAT, 2.0, 1.0)[0]
OUTCOME = solve_minimal(ProblemInstance(FLAGSHIP, k=K_FLAG, grid=GRID))


# ---------------------------------------------------------------------------
# origin fit


@pytest.mark.parametrize("N", [3, 4, 5])
def test_fit_origin_recovers_point_source_strength(N):
    k = 0.7
    fit = fit_origin(gamma0_profile(N, GRID, scale=k), N)
    target = k * c_N(N)
    assert abs(fit.limit_estimate - target) / target <= 1e-6
    assert fit.accepted


def test_fit_origin_flagship_solution():
    fit = fit_origin(OUTCOME.profile, 3)
    target = K_FLAG * c_N(3)
    assert abs(fit.limit_estimate - target) / target <= 1e-6
    assert fit.accepted
    # u - k Gamma_0 = O(r) here, so the scanned correction exponent is the
    # Yukawa linear term, not a bootstrap gain
    assert 0.9 <= fit.correction_exponent <= 1.1


def test_fit_origin_with_prescribed_exponent():
    k = 0.7
    fit = fit_origin(gamma0_profile(3, GRID, scale=k), 3, beta=1.0)
    target = k * c_N(3)
    assert abs(fit.limit_estimate - target) / target <= 1e-6
    assert fit.correction_exponent == 1.0


def test_fit_origin_window_is_first_decade():
    fit = fit_origin(gamma0_profile(3, GRID, scale=1.0), 3)
    assert fit.window[0] == GRID.r_min
    assert fit.window[1] <= 10.0 * GRID.r_min * (1.0 + 1e-9)


def test_correction_exponent_defined_only_on_ladder_case():
    # flagship sits at p = alpha/(N-2); no first rung, fall back to scan
    assert origin_correction_exponent(FLAGSHIP) is None
    above = ProblemExponents(4, Fraction(1), Fraction(6, 5), Fraction(1))
    assert origin_correction_exponent(above) == pytest.approx(0.6)
    high = ProblemExponents(5, Fraction(4), Fraction(3, 2), Fraction(1))
    assert origin_correction_exponent(high) == pytest.approx(1.5)


def test_fit_origin_rejects_wrong_origin_exponent():
    prof = RadialProfile(GRID, gamma0(3, GRID.nodes), origin_exponent=0.0,
                         tail=ExpDecay(1.0, 1.0))
    with pytest.raises(ValueError, match="point-source rate"):
        fit_origin(prof, 3)


def test_fit_origin_rejects_vanishing_profile():
    zero = RadialProfile(GRID, np.zeros(GRID.nodes.size),
                         origin_exponent=1.0, tail=ZERO_TAIL)
    with pytest.raises(ValueError, match="vanishes"):
        fit_origin(zero, 3)


def test_fit_origin_rejects_oscillatory_window():
    vals = gamma0(3, GRID.nodes)
    vals = vals * (1.0 + 0.3 * (-1.0) ** np.arange(vals.size))
    wiggly = RadialProfile(GRID, vals, origin_exponent=1.0,
                           tail=ExpDecay(1.0, 1.0))
    with pytest.raises(ValueError, match="not monotone"):
        fit_origin(wiggly, 3)


# ---------------------------------------------------------------------------
# tail fit


def test_fit_decay_yukawa_unit_mass():
    fit = fit_decay(gamma0_profile(3, GRID, scale=1.0))
    assert abs(fit.rate - 1.0) <= 1e-3
    assert abs(fit.algebraic_power - 1.0) <= 1e-3


def test_fit_decay_yukawa_quarter_mass():
    fit = fit_decay(phi0_profile(3, GRID))
    assert abs(fit.rate - 0.5) <= 1e-3
    assert abs(fit.algebraic_power - 1.0) <= 1e-3


def test_fit_decay_flagship_solution():
    fit = fit_decay(OUTCOME.profile)
    assert 0.4 <= fit.rate <= 1.05
    assert fit.window[0] >= 10.0
    # decay no slower than e^{-0.3 r}: the weighted tail must not grow
    mask = GRID.nodes >= 10.0
    weighted = OUTCOME.profile.values[mask] * np.exp(0.3 * GRID.nodes[mask])
    assert np.all(np.diff(weighted) <= 0.0)


def test_fit_decay_needs_three_tail_nodes():
    short = build_grid(0.1, 10.4, 10)
    prof = RadialProfile(short, gamma0(3, short.nodes), origin_exponent=1.0,
                         tail=ExpDecay(1.0, 1.0))
    with pytest.raises(ValueError, match="fewer than three"):
        fit_decay(prof)


def test_fit_decay_rejects_nonpositive_tail():
    vals = gamma0(3, GRID.nodes).copy()
    vals[GRID.nodes >= 20.0] = 0.0
    prof = RadialProfile(GRID, vals, origin_exponent=1.0, tail=ZERO_TAIL)
    with pytest.raises(ValueError, match="positive"):
        fit_decay(prof)


# ---------------------------------------------------------------------------
# lower bound


def test_lower_bound_zero_for_exact_source():
    prof = gamma0_profile(3, GRID, scale=0.4)
    assert check_lower_bound(prof, 0.4, 3) == 0.0


def test_lower_bound_detects_uniform_deficit():
    vals = 0.99 * 0.4 * gamma0(3, GRID.nodes)
    prof = RadialProfile(GRID, vals, origin_exponent=1.0,
                         tail=ExpDecay(1.0, 1.0))
    assert check_lower_bound(prof, 0.4, 3) == pytest.approx(0.01, rel=1e-9)


def test_lower_bound_holds_for_flagship_solution():
    assert check_lower_bound(OUTCOME.profile, K_FLAG, 3) <= 1e-8


# ---------------------------------------------------------------------------
# measured rates


def test_measured_rate_matching_rules():
    power_one = SingularityRate.power(Fraction(1))
    assert MeasuredRate("power", 1.02).matches(power_one)
    assert not MeasuredRate("power", 1.10).matches(power_one)
    assert not MeasuredRate("log").matches(power_one)
    assert MeasuredRate("log").matches(SingularityRate.log())
    assert MeasuredRate("bounded").matches(SingularityRate.bounded())


# every (green branch) x (riesz branch) combination, plus two off-N extras
RATE_CASES = [
    (5, 2.0, 3.0),   # power / power
    (5, 2.0, 2.0),   # log / log
    (5, 2.0, 1.0),   # bounded / bounded
    (5, 1.0, 2.0),   # log / power
    (5, 1.0, 1.0),   # bounded / log
    (5, 1.0, 1.5),   # bounded / power
    (5, 3.0, 3.0),   # power / log
    (5, 3.5, 2.5),   # power / bounded
    (5, 3.0, 2.0),   # log / bounded
    (3, 2.0, 2.5),
    (4, 1.5, 2.8),
]


def operator_pair(N, alpha):
    """The Green and the order-alpha Riesz operator on GRID."""
    return (assemble("green", N, GRID),
            assemble("riesz", N, GRID, alpha=alpha))


@pytest.mark.parametrize("N,alpha,tau", RATE_CASES)
def test_rate_transfer_matches_prediction(N, alpha, tau):
    res = verify_rate_transfer(*operator_pair(N, alpha), tau)
    assert res.green_measured.matches(res.green_predicted)
    assert res.riesz_measured.matches(res.riesz_predicted)


def test_rate_transfer_slopes_are_sharp():
    res = verify_rate_transfer(*operator_pair(5, 2.0), 3.0)
    assert abs(res.green_measured.exponent - 1.0) <= 3e-3
    assert abs(res.riesz_measured.exponent - 1.0) <= 3e-3


@pytest.mark.parametrize("tau", [0.0, -1.0, 5.0, 7.5])
def test_rate_transfer_rejects_tau_outside_range(tau):
    with pytest.raises(ValueError, match="tau"):
        verify_rate_transfer(*operator_pair(5, 2.0), tau)


@pytest.mark.parametrize("green, riesz", [
    (assemble("riesz", 5, GRID, alpha=2.0), assemble("green", 5, GRID)),
    (assemble("green", 4, GRID), assemble("riesz", 5, GRID, alpha=2.0))])
def test_rate_transfer_rejects_operators_it_cannot_pair(green, riesz):
    with pytest.raises(ValueError, match="one dimension"):
        verify_rate_transfer(green, riesz, 1.0)


# ---------------------------------------------------------------------------
# integrability probe


PROBE_CASES = [
    (3, 2, Fraction(2), Fraction(3), GrowthClass.LOG_DIVERGENT),
    (3, 2, Fraction(2), Fraction(1), GrowthClass.CONVERGENT),
    (3, 2, Fraction(3), Fraction(1), GrowthClass.INNER_DIVERGENT),
    (3, 2, Fraction(5, 2), Fraction(3), GrowthClass.POWER_DIVERGENT),
    (5, 2, Fraction(3, 2), Fraction(3, 2), GrowthClass.POWER_DIVERGENT),
    (4, 2, Fraction(2), Fraction(3, 2), GrowthClass.INNER_DIVERGENT),
]


@pytest.mark.parametrize("N,alpha,p,q,expected", PROBE_CASES)
def test_probe_classifies_origin_growth(N, alpha, p, q, expected):
    report = integrability_probe(ProblemExponents(N, Fraction(alpha), p, q))
    assert report.growth_class is expected
    if expected is GrowthClass.INNER_DIVERGENT:
        assert report.partial_integrals == ()
    else:
        assert len(report.partial_integrals) == len(report.epsilons)
        assert np.all(np.diff(report.partial_integrals) > 0.0)


def test_probe_power_rates_match_scaling():
    # integrand scales like r^{gain - 1} with gain = N + alpha - (p+q)(N-2),
    # so partial integrals grow like eps^{-|gain|}
    half = integrability_probe(
        ProblemExponents(3, Fraction(2), Fraction(5, 2), Fraction(3)))
    assert abs(half.power_rate - 0.5) <= 0.15
    two = integrability_probe(
        ProblemExponents(5, Fraction(2), Fraction(3, 2), Fraction(3, 2)))
    assert abs(two.power_rate - 2.0) <= 0.05


@settings(max_examples=15, deadline=None)
@given(
    p20=st.sampled_from(list(range(20, 30)) + list(range(45, 56))),
    q4=st.integers(4, 24),
)
def test_probe_class_tracks_scaling_exponent(p20, q4):
    # N=3, alpha=2: the integrand scales like r^{gain-1} with
    # gain = 3 - q - max(p - 2, 0); the inner potential only contributes a
    # singular factor once p exceeds alpha.  Guard bands keep the ladder's
    # finite resolution away from the class boundaries.
    p = Fraction(p20, 20)
    q = Fraction(q4, 4)
    gain = 3 - q - max(p - 2, Fraction(0))
    report = integrability_probe(ProblemExponents(3, Fraction(2), p, q))
    assert report.growth_class is not GrowthClass.INNER_DIVERGENT
    if gain >= Fraction(3, 4):
        assert report.growth_class is GrowthClass.CONVERGENT
    elif gain <= Fraction(-1, 2):
        assert report.growth_class is GrowthClass.POWER_DIVERGENT
        assert abs(report.power_rate - float(-gain)) <= 0.25
