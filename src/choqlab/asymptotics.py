"""Asymptotic laws extracted from computed profiles.

Four analyses: the origin limit of u(r) r^{N-2} (the point-source strength
reads off as c_N k), exponential tail fits, the pointwise lower bound
u >= k Gamma_0, and empirical verification that the operators move power
singularities the way the rate algebra predicts.  A separate probe
quantifies why supercritical exponent tuples cannot carry a singular
solution: the defining integral over the annulus eps < |x| < 1 stops
converging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Optional

import numpy as np

from .exponents import (
    BootstrapCase,
    ProblemExponents,
    SingularityRate,
    bootstrap_case,
    riesz_rate,
)
from .kernels import gamma0
from .operators import (
    ExpDecay,
    OperatorMatrix,
    RadialGrid,
    RadialProfile,
    ZERO_TAIL,
    apply,
    assemble,
    build_grid,
)

__all__ = [
    "SingularityFit",
    "DecayFit",
    "GrowthClass",
    "ProbeReport",
    "RateTransferResult",
    "origin_correction_exponent",
    "fit_origin",
    "fit_decay",
    "check_lower_bound",
    "verify_rate_transfer",
    "integrability_probe",
]

# log-log slope below which a near-origin profile is not treated as a
# clean power and the log-vs-constant residual comparison decides
_POWER_SLOPE_MIN = 0.15

# largest gap between a measured and a predicted power exponent that
# still counts as a match
_RATE_MATCH_TOL = 0.05


# ---------------------------------------------------------------------------
# origin fit


@dataclass(frozen=True)
class SingularityFit:
    """Result of fitting u(r) r^{N-2} ~ a + b r^beta near the origin."""

    limit_estimate: float
    window: tuple
    correction_exponent: float
    residual: float

    @property
    def accepted(self) -> bool:
        return self.residual <= 1e-3 * abs(self.limit_estimate)


def origin_correction_exponent(exponents: ProblemExponents,
                               ) -> Optional[float]:
    """First bootstrap gain of u r^{N-2}, when the ladder provides one.

    Equals N + alpha - (p+q)(N-2) capped at 2, defined only in the
    bootstrap regime p > alpha/(N-2) where the ladder's first rung exists;
    elsewhere None, and fit_origin falls back to estimating the correction
    exponent from the data.  (The fallback is also the honest choice for
    Yukawa-type profiles, whose e^{-r} factor contributes a linear term
    that can outrank the ladder gain.)
    """
    e = exponents
    if bootstrap_case(e) is not BootstrapCase.P_ABOVE_ALPHA_CRITICAL:
        return None
    gain = e.N + e.alpha - (e.p + e.q) * (e.N - 2)
    return min(float(gain), 2.0)


def _origin_window(grid: RadialGrid) -> np.ndarray:
    r1 = grid.r_min
    return grid.nodes <= min(10.0 * r1, 0.05) * (1.0 + 1e-12)


def fit_origin(profile: RadialProfile, N: int,
               beta: Optional[float] = None) -> SingularityFit:
    """Extrapolate u(r) r^{N-2} to r = 0 over the first grid decade.

    With beta given, a single linear least-squares fit of a + b r^beta;
    otherwise beta is scanned over a coarse range and the best-residual fit
    wins.  Profiles whose windowed g = u r^{N-2} is non-monotone beyond
    the fit scale are rejected: that indicates the grid has not resolved
    the singularity rather than a property of the solution.
    """
    if abs(profile.origin_exponent - (N - 2)) > 0.25:
        raise ValueError(
            f"profile origin exponent {profile.origin_exponent:g} is not "
            f"the point-source rate N - 2 = {N - 2}")
    mask = _origin_window(profile.grid)
    r = profile.grid.nodes[mask]
    g = profile.values[mask] * r ** (N - 2)
    if g.max() <= 0.0:
        raise ValueError("profile vanishes in the origin window")
    diffs = np.diff(g)
    wiggle = 1e-3 * g.max()
    if (diffs > wiggle).any() and (diffs < -wiggle).any():
        raise ValueError(
            "u r^{N-2} is not monotone across the origin window; refine "
            "the grid before extrapolating")

    def lsq(b_exp):
        design = np.column_stack([np.ones_like(r), r ** b_exp])
        coef, *_ = np.linalg.lstsq(design, g, rcond=None)
        res = g - design @ coef
        return float(coef[0]), math.sqrt(float(np.mean(res ** 2)))

    if beta is not None:
        a, res = lsq(beta)
        chosen = beta
    else:
        candidates = np.arange(0.25, 2.01, 0.05)
        fits = [lsq(b) for b in candidates]
        i = int(np.argmin([res for _, res in fits]))
        a, res = fits[i]
        chosen = float(candidates[i])
    return SingularityFit(limit_estimate=a,
                          window=(float(r[0]), float(r[-1])),
                          correction_exponent=chosen,
                          residual=res)


# ---------------------------------------------------------------------------
# tail fit


@dataclass(frozen=True)
class DecayFit:
    """Parameters of C r^{-m} e^{-lambda r} fitted on the tail window."""

    rate: float
    algebraic_power: float
    window: tuple
    residual: float


def fit_decay(profile: RadialProfile) -> DecayFit:
    """Least squares for log u = log C - m log r - lambda r on the tail.

    The window is the outer half of the grid but never reaching below
    r = 10, so the pre-asymptotic region cannot contaminate the fit.
    """
    grid = profile.grid
    lo = max(grid.r_max / 2.0, 10.0)
    mask = grid.nodes >= lo * (1.0 - 1e-12)
    r = grid.nodes[mask]
    u = profile.values[mask]
    if mask.sum() < 3:
        raise ValueError("tail window has fewer than three nodes")
    if np.any(u <= 0.0):
        raise ValueError("profile must be positive on the tail window")
    design = np.column_stack([np.ones_like(r), -np.log(r), -r])
    target = np.log(u)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    res = target - design @ coef
    return DecayFit(rate=float(coef[2]), algebraic_power=float(coef[1]),
                    window=(float(r[0]), float(r[-1])),
                    residual=math.sqrt(float(np.mean(res ** 2))))


# ---------------------------------------------------------------------------
# pointwise lower bound


def check_lower_bound(profile: RadialProfile, k: float, N: int) -> float:
    """Max over nodes of (k Gamma_0 - u)_+ / (k Gamma_0); zero means u >= k Gamma_0."""
    floor = k * gamma0(N, profile.grid.nodes)
    deficit = np.maximum(floor - profile.values, 0.0)
    return float(np.max(deficit / floor))


# ---------------------------------------------------------------------------
# rate transfer


@dataclass(frozen=True)
class MeasuredRate:
    """Float-valued counterpart of SingularityRate for empirical slopes."""

    kind: str
    exponent: Optional[float] = None

    def matches(self, predicted: SingularityRate) -> bool:
        if self.kind != predicted.kind:
            return False
        if self.kind == "power":
            return (abs(self.exponent - float(predicted.exponent))
                    <= _RATE_MATCH_TOL)
        return True


@dataclass(frozen=True)
class RateTransferResult:
    green_measured: MeasuredRate
    riesz_measured: MeasuredRate
    green_predicted: SingularityRate
    riesz_predicted: SingularityRate


def _classify_origin_behavior(grid: RadialGrid,
                              values: np.ndarray) -> MeasuredRate:
    """Measured singularity class of a positive profile near the origin.

    Slope of log y against log r over the first decade; a clear slope is a
    power.  Otherwise the two one-parameter models y = b log(1/r) and
    y = a fight it out by rms residual on the same window.
    """
    mask = grid.nodes <= 10.0 * grid.r_min * (1.0 + 1e-12)
    r = grid.nodes[mask]
    y = values[mask]
    slope = float(np.polyfit(np.log(r), np.log(y), 1)[0])
    decline = -slope
    if decline >= _POWER_SLOPE_MIN:
        return MeasuredRate("power", decline)
    logs = np.log(1.0 / r)
    b = float(np.dot(y, logs) / np.dot(logs, logs))
    res_log = float(np.sqrt(np.mean((y - b * logs) ** 2)))
    res_const = float(np.sqrt(np.mean((y - y.mean()) ** 2)))
    if res_log < res_const:
        return MeasuredRate("log")
    return MeasuredRate("bounded")


def verify_rate_transfer(green: OperatorMatrix, riesz: OperatorMatrix,
                         tau: float) -> RateTransferResult:
    """Push V_tau = r^{-tau} (cut to e^{-r} past 1) through a Green and a
    Riesz operator of one dimension on one grid.

    Returns the measured origin behavior of G[V_tau] and I_alpha[V_tau]
    next to what the rate algebra predicts for an input power tau.
    """
    if (green.kind, riesz.kind) != ("green", "riesz") or green.N != riesz.N:
        raise ValueError("need a green and a riesz operator of one "
                         "dimension")
    N, grid = green.N, green.grid
    if not 0.0 < tau < N:
        raise ValueError(f"tau must lie in (0, N), got {tau}")
    nodes = grid.nodes
    values = np.where(nodes <= 1.0, nodes ** -tau, np.exp(-nodes))
    prof = RadialProfile(grid, values, origin_exponent=tau,
                         tail=ExpDecay(1.0, 0.0))
    g_out = apply(green, prof)
    r_out = apply(riesz, prof)
    # floats convert to Fractions exactly, so the branch edges (tau = 2,
    # tau = alpha) are hit exactly when the caller passes exact floats
    rate_in = SingularityRate.power(Fraction(tau))
    return RateTransferResult(
        green_measured=_classify_origin_behavior(grid, g_out.values),
        riesz_measured=_classify_origin_behavior(grid, r_out.values),
        green_predicted=riesz_rate(rate_in, N, 2),
        riesz_predicted=riesz_rate(rate_in, N, Fraction(riesz.alpha)),
    )


# ---------------------------------------------------------------------------
# nonintegrability probe


class GrowthClass(Enum):
    CONVERGENT = "convergent"
    LOG_DIVERGENT = "log_divergent"
    POWER_DIVERGENT = "power_divergent"
    INNER_DIVERGENT = "inner_divergent"


@dataclass(frozen=True)
class ProbeReport:
    """Growth of int_{eps}^{1} I_alpha^{B_1}[Gamma_0^p] Gamma_0^q r^{N-1} dr.

    power_rate is the fitted divergence exponent rho (partial integrals
    growing like eps^{-rho}); set only for POWER_DIVERGENT.
    """

    epsilons: tuple
    partial_integrals: tuple
    growth_class: GrowthClass
    power_rate: Optional[float] = None


_PROBE_EPSILONS = tuple(0.3 * 2.0 ** -j for j in range(10))

# mean increment ratios inside this band read as a constant-per-halving
# (logarithmic) growth; beyond it as a power; below it as convergence
_PROBE_LOG_BAND = (0.8, 1.3)


def integrability_probe(exponents: ProblemExponents) -> ProbeReport:
    """Classify the origin behavior of the defining nonlinear integral.

    The inner Riesz potential is restricted to the unit ball and applied
    to Gamma_0^p; the result is weighted by Gamma_0^q r^{N-1} and
    integrated over [eps, 1] for the dyadic ladder eps = 0.3 * 2^-j,
    j = 0..9.  Increment ratios between consecutive halvings separate
    convergent, logarithmically divergent, and power divergent behavior.  When p (N-2) >= N the inner
    potential is itself infinite on the ball and no outer integration is
    attempted.
    """
    e = exponents
    if e.p * (e.N - 2) >= e.N:
        return ProbeReport(epsilons=_PROBE_EPSILONS, partial_integrals=(),
                           growth_class=GrowthClass.INNER_DIVERGENT)

    grid = build_grid(_PROBE_EPSILONS[-1] / 8.0, 1.0, 40)
    gam = gamma0(e.N, grid.nodes)
    powered = RadialProfile(grid, gam ** float(e.p),
                            origin_exponent=float(e.p * (e.N - 2)),
                            tail=ZERO_TAIL)
    inner = apply(assemble("riesz", e.N, grid, alpha=float(e.alpha)), powered)
    # integrand against dr, transported to the uniform log variable
    m_log = inner.values * gam ** float(e.q) * grid.nodes ** e.N
    x = np.log(grid.nodes)
    cum = np.concatenate([[0.0], np.cumsum(
        0.5 * (m_log[1:] + m_log[:-1]) * np.diff(x))])
    total = cum[-1]
    partials = total - np.interp(np.log(_PROBE_EPSILONS), x, cum)

    increments = np.diff(partials)
    if np.any(increments <= 0.0):
        raise RuntimeError("partial integrals failed to increase")
    ratios = increments[1:] / increments[:-1]
    # the first halvings still feel Gamma_0's exponential prefactor; the
    # asymptotic ratio lives at the small-eps end of the ladder
    mean_ratio = float(np.mean(ratios[-4:]))
    if mean_ratio >= _PROBE_LOG_BAND[1]:
        return ProbeReport(_PROBE_EPSILONS, tuple(partials),
                           GrowthClass.POWER_DIVERGENT,
                           power_rate=math.log2(mean_ratio))
    if mean_ratio > _PROBE_LOG_BAND[0]:
        return ProbeReport(_PROBE_EPSILONS, tuple(partials),
                           GrowthClass.LOG_DIVERGENT)
    return ProbeReport(_PROBE_EPSILONS, tuple(partials),
                       GrowthClass.CONVERGENT)
