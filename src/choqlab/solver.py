"""Monotone iteration for the minimal singular solution.

The scheme starts from v_0 = k Gamma_0 and repeats

    v_{n+1} = G[ I_alpha[v_n^p] v_n^q ] + k Gamma_0,

where G is the Green operator of -Delta + 1.  Every term added is
nonnegative and the discrete operators preserve nodewise comparisons
exactly (nonnegative weights, identical annotation columns across
iterates), so the iterates increase monotonically up to float rounding.
They either converge to the minimal fixed point, or blow up past any
ceiling when the point source is too strong.

The barrier w_t = t k^{p+q} G[I_alpha[Phi_0^p] Phi_0^q] + k Phi_0 built
from the slower Yukawa kernel Phi_0 dominates the whole sequence whenever
the tangency inequality (c t k^{p+q-1} + 1)^{p+q} <= t admits a solution,
which pins down the guaranteed-convergence threshold k_q.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Optional

import numpy as np

from .exponents import (
    CriticalityReport,
    ProblemExponents,
    classify,
    k_threshold,
)
from .kernels import gamma0, phi0
from .operators import (
    ExpDecay,
    RadialGrid,
    RadialProfile,
    apply,
    assemble,
    origin_slope_disagrees,
    pointwise_add,
    pointwise_power,
    pointwise_product,
    pointwise_scale,
)

__all__ = [
    "ProblemInstance",
    "IterationTrace",
    "SolveVerdict",
    "SolveOutcome",
    "KstarBracket",
    "SupercriticalError",
    "BarrierEstimateError",
    "BracketEndpointError",
    "Discretization",
    "gamma0_profile",
    "phi0_profile",
    "require_subcritical",
    "iterate_once",
    "barrier",
    "estimate_barrier_constant",
    "solve_minimal",
    "estimate_kstar",
]

# consecutive growth steps required on top of the sup-norm ceiling before
# declaring blow-up; separates divergence from slow convergence near k*
_DIVERGENCE_RUN = 10

_CAP_FACTOR = 1e12

# largest r_max a solve accepts: the Green factor y0(r) carries e^r, which
# overflows a float just past r = 709.78 (operators.GREEN_R_LIMIT), and a
# solution decaying like e^{-r} is below 1e-300 long before that
R_MAX_CEILING = 700.0


def _overflow_guard(s: float) -> float:
    # largest sup norm whose (p+q)-th power still fits in a float with
    # wide headroom for the operator norms; past this the verdict cannot
    # stay ambiguous and the growth-run requirement is waived
    return 10.0 ** (250.0 / s)


class SupercriticalError(ValueError):
    """The exponents sit in the nonexistence regime; iteration is refused.

    Carries the classification report so callers can name the triggering
    threshold(s).
    """

    def __init__(self, report: CriticalityReport):
        self.report = report
        names = ", ".join(report.triggers)
        super().__init__(
            f"supercritical exponents (triggers: {names}); no singular "
            f"solution exists in this regime, nothing computed")


class BarrierEstimateError(RuntimeError):
    """The barrier ratio peaked at a grid end, so its max is untrustworthy."""


class BracketEndpointError(ValueError):
    """A k* bracket endpoint came back with the wrong verdict."""


def require_subcritical(exponents: ProblemExponents) -> CriticalityReport:
    report = classify(exponents)
    if report.is_supercritical:
        raise SupercriticalError(report)
    return report


# ---------------------------------------------------------------------------
# profiles of the two fundamental solutions


def gamma0_profile(N: int, grid: RadialGrid, scale: float = 1.0) -> RadialProfile:
    """scale * Gamma_0 sampled on the grid, with its exact annotations."""
    return RadialProfile(grid, scale * gamma0(N, grid.nodes),
                         origin_exponent=float(N - 2),
                         tail=ExpDecay(1.0, (N - 1) / 2.0))


def phi0_profile(N: int, grid: RadialGrid, scale: float = 1.0) -> RadialProfile:
    """scale * Phi_0 sampled on the grid; decays at half the Yukawa rate."""
    return RadialProfile(grid, scale * phi0(N, grid.nodes),
                         origin_exponent=float(N - 2),
                         tail=ExpDecay(0.5, (N - 1) / 2.0))


# ---------------------------------------------------------------------------
# problem instance


@dataclass(frozen=True)
class ProblemInstance:
    """One solve: exponents, source strength, grid, and stopping policy.

    blowup_cap defaults to 1e12 * k * Gamma_0(r_min): far above any
    converged profile (which stays within a bounded multiple of k Gamma_0)
    yet reached in a handful of doublings once the iteration actually
    blows up.
    """

    exponents: ProblemExponents
    k: float
    grid: RadialGrid
    max_iter: int = 2000
    conv_tol: float = 1e-8
    blowup_cap: Optional[float] = None

    def __post_init__(self):
        if not (np.isfinite(self.k) and self.k > 0):
            raise ValueError(f"source strength k must be positive, got {self.k}")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not (np.isfinite(self.conv_tol) and self.conv_tol > 0):
            raise ValueError("conv_tol must be positive")
        # solver-grade grid: deep enough to resolve the origin power law,
        # wide enough that the exponential tail actually decays
        if self.grid.r_min > 1e-3:
            raise ValueError(
                f"solver grids need r_min <= 1e-3, got {self.grid.r_min}")
        if not 20.0 <= self.grid.r_max <= R_MAX_CEILING:
            raise ValueError(
                f"solver grids need 20 <= r_max <= {R_MAX_CEILING:g}, got "
                f"{self.grid.r_max:g}")
        guard = _overflow_guard(float(self.exponents.p + self.exponents.q))
        if self.blowup_cap is None:
            cap = _CAP_FACTOR * self.k * float(gamma0(self.exponents.N,
                                                      self.grid.r_min))
            object.__setattr__(self, "blowup_cap", min(cap, 0.1 * guard))
        elif not self.blowup_cap > 0:
            raise ValueError("blowup_cap must be positive")
        elif self.blowup_cap >= guard:
            raise ValueError(
                f"blowup_cap {self.blowup_cap:g} exceeds the float-safe "
                f"ceiling {guard:g} for p + q = {self.exponents.p + self.exponents.q}")


# ---------------------------------------------------------------------------
# the discretization shared by every k


class Discretization:
    """Everything one (exponents, grid) pair fixes, shared by every k.

    The iteration map depends on k only through its source k Gamma_0, so
    both operators (with the origin and tail columns they cache), the unit
    Gamma_0 and Phi_0 profiles, the step columns, and the barrier core and
    c_hat are built once; the last three on first use, so a step never
    pays for the barrier and a zero profile never pays for the columns.
    """

    def __init__(self, exponents: ProblemExponents, grid: RadialGrid):
        N = exponents.N
        self.exponents = exponents
        self.grid = grid
        self.riesz = assemble("riesz", N, grid, alpha=float(exponents.alpha))
        self.green = assemble("green", N, grid)
        self.gamma0 = gamma0_profile(N, grid)
        self.phi0 = phi0_profile(N, grid)

    def source(self, k: float) -> RadialProfile:
        """k Gamma_0 with its exact annotations."""
        return pointwise_scale(self.gamma0, k)

    def nonlinear_image(self, v: RadialProfile) -> RadialProfile:
        """G[ I_alpha[v^p] v^q ] with annotations carried through."""
        ex = self.exponents
        potential = apply(self.riesz, pointwise_power(v, float(ex.p)))
        return apply(self.green, pointwise_product(
            potential, pointwise_power(v, float(ex.q))))

    @cached_property
    def step_plan(self) -> tuple:
        """The annotations and columns of one step from the source.

        Every iterate carries the source's annotations, so every step
        meets the same origin exponents and tails.  They are found once by
        carrying Gamma_0 through the annotated map, and the result is
        ((sigma, origin column, tail column) for Riesz on v^p,
        (sigma, origin column, tail column) for Green on I_alpha[v^p] v^q).
        Raises NonIntegrableOriginError when v^p or the product is not
        integrable at the origin.
        """
        ex = self.exponents
        powered = pointwise_power(self.gamma0, float(ex.p))
        product = pointwise_product(apply(self.riesz, powered),
                                    pointwise_power(self.gamma0, float(ex.q)))
        return tuple(
            (prof.origin_exponent, op.origin_column(prof.origin_exponent),
             op.tail_column(prof.tail))
            for op, prof in ((self.riesz, powered), (self.green, product)))

    @cached_property
    def barrier_core(self) -> RadialProfile:
        """G[I_alpha[Phi_0^p] Phi_0^q]."""
        return self.nonlinear_image(self.phi0)

    @cached_property
    def c_hat(self) -> float:
        """Empirical domination constant sup_r barrier_core / Phi_0.

        In the subcritical class the ratio vanishes at both ends, so a max
        on the first or last node means the grid missed the interior peak.
        """
        ratio = self.barrier_core.values / self.phi0.values
        peak = int(np.argmax(ratio))
        if peak in (0, self.grid.size - 1):
            raise BarrierEstimateError(
                f"barrier ratio peaks at grid {'start' if peak == 0 else 'end'}"
                f" (r = {self.grid.nodes[peak]:g}); widen the grid")
        return float(ratio[peak])


def _discretization(inst: ProblemInstance,
                    disc: Optional[Discretization]) -> Discretization:
    """disc checked against inst, or a new one when none is given."""
    if disc is None:
        return Discretization(inst.exponents, inst.grid)
    if disc.exponents != inst.exponents or (
            disc.grid is not inst.grid
            and not np.array_equal(disc.grid.nodes, inst.grid.nodes)):
        raise ValueError("discretization was built for other exponents "
                         "or another grid than the instance")
    return disc


# ---------------------------------------------------------------------------
# the iteration map


def iterate_once(v: RadialProfile, inst: ProblemInstance,
                 disc: Optional[Discretization] = None) -> RadialProfile:
    """One step v -> G[I_alpha[v^p] v^q] + k Gamma_0.

    v must be zero or carry the source's own annotations (origin exponent
    N-2 and the Gamma_0 tail), as every iterate from k Gamma_0 does; any
    other nonzero v is a ValueError.  The output is re-annotated the same
    way: the nonlinear correction is strictly milder at the origin in the
    subcritical class, so k Gamma_0 keeps the leading annotation, and
    freezing it makes every iterate share the same origin and tail columns
    (comparisons between iterates then survive rounding exactly).

    The step runs on plain arrays with the columns of disc.step_plan and
    builds one profile at the end; values and annotation_warning are
    bit-identical to the annotated composition apply / pointwise_* of
    disc.nonlinear_image plus the source.
    """
    disc = _discretization(inst, disc)
    unit = disc.gamma0
    if v.is_zero():
        return disc.source(inst.k)
    if v.origin_exponent != unit.origin_exponent or v.tail != unit.tail:
        raise ValueError(
            f"iterate_once needs the source's annotations (origin exponent "
            f"{unit.origin_exponent:g}, tail {unit.tail}), got "
            f"{v.origin_exponent:g} and {v.tail}")
    (sigma_r, origin_r, tail_r), (sigma_g, origin_g, tail_g) = disc.step_plan
    ex, h = disc.exponents, disc.grid.log_step
    x = v.values
    powered = x ** float(ex.p)
    product = disc.riesz.matvec(powered, origin_r, tail_r) \
        * x ** float(ex.q)
    # apply() returns an unflagged zero for a zero input, so a product
    # that underflowed to zero carries no warning
    warn = bool(product.any()) and (
        v.annotation_warning
        or origin_slope_disagrees(powered, sigma_r, h)
        or origin_slope_disagrees(product, sigma_g, h))
    values = disc.green.matvec(product, origin_g, tail_g) \
        + unit.values * inst.k
    return RadialProfile(disc.grid, values,
                         origin_exponent=unit.origin_exponent, tail=unit.tail,
                         annotation_warning=warn)


# ---------------------------------------------------------------------------
# barrier


def estimate_barrier_constant(exponents: ProblemExponents,
                              grid: RadialGrid) -> float:
    """Discretization(exponents, grid).c_hat, refused when supercritical."""
    require_subcritical(exponents)
    return Discretization(exponents, grid).c_hat


def barrier(inst: ProblemInstance, t: float,
            disc: Optional[Discretization] = None) -> RadialProfile:
    """w_t = t k^{p+q} G[I_alpha[Phi_0^p] Phi_0^q] + k Phi_0."""
    if not t > 0:
        raise ValueError(f"barrier parameter t must be positive, got {t}")
    disc = _discretization(inst, disc)
    s = float(inst.exponents.p + inst.exponents.q)
    return pointwise_add(pointwise_scale(disc.barrier_core, t * inst.k ** s),
                         pointwise_scale(disc.phi0, inst.k))


# ---------------------------------------------------------------------------
# outcomes


class SolveVerdict(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITERATIONS = "undetermined"


@dataclass(frozen=True)
class IterationTrace:
    """Per-iteration audit of the monotone scheme.

    mono_violations[n] is max_i (v_n - v_{n+1})_i / sup v_n clamped at 0;
    anything above float-rounding scale signals a weights bug.
    barrier_margins[n] is min_i (w - v_{n+1})_i when the barrier is active.
    """

    sup_norms: tuple
    rel_deltas: tuple
    mono_violations: tuple
    barrier_margins: Optional[tuple]

    @property
    def iterations(self) -> int:
        return len(self.rel_deltas)


@dataclass(frozen=True)
class SolveOutcome:
    verdict: SolveVerdict
    profile: Optional[RadialProfile]
    iterations: int
    trace: IterationTrace
    fixed_point_residual: Optional[float]
    barrier_constant: float
    k_threshold_estimate: float
    barrier_active: bool


def solve_minimal(inst: ProblemInstance,
                  disc: Optional[Discretization] = None) -> SolveOutcome:
    """Run the monotone iteration from v_0 = k Gamma_0 to a verdict.

    Converged: relative sup-norm delta below conv_tol; the reported
    residual re-applies the map once more, so the fixed-point defect is
    measured rather than inferred.  Diverged: sup norm beyond blowup_cap
    and still growing for 10 consecutive steps.  Otherwise the budget ran
    out and the verdict stays undetermined (near k* the scheme slows down
    without telling which side of the threshold it is on).  A disc built
    for the same exponents and grid is reused rather than rebuilt.
    """
    require_subcritical(inst.exponents)
    disc = _discretization(inst, disc)
    ex = inst.exponents

    c_hat = disc.c_hat
    k_q, t_q = k_threshold(c_hat, float(ex.p), float(ex.q))
    active = inst.k <= k_q
    w = barrier(inst, t_q, disc) if active else None

    v = disc.source(inst.k)
    sups = [v.sup]
    deltas: list = []
    violations: list = []
    margins: list = [] if active else None
    if active:
        margins.append(float((w.values - v.values).min()))

    guard = _overflow_guard(float(ex.p + ex.q))
    growth_run = 0
    verdict = SolveVerdict.MAX_ITERATIONS
    iterations = inst.max_iter
    for n in range(1, inst.max_iter + 1):
        v_next = iterate_once(v, inst, disc)
        sup_prev, sup_next = v.sup, v_next.sup
        sups.append(sup_next)
        deltas.append(float(np.max(np.abs(v_next.values - v.values))
                            / sup_next))
        violations.append(max(0.0, float(np.max(v.values - v_next.values))
                              / sup_prev))
        if active:
            margins.append(float((w.values - v_next.values).min()))

        growth_run = growth_run + 1 if sup_next > sup_prev else 0
        v = v_next
        if deltas[-1] < inst.conv_tol:
            verdict = SolveVerdict.CONVERGED
            iterations = n
            break
        if sup_next > inst.blowup_cap and (growth_run >= _DIVERGENCE_RUN
                                           or sup_next > guard):
            verdict = SolveVerdict.DIVERGED
            iterations = n
            break

    residual = None
    profile = None
    if verdict is SolveVerdict.CONVERGED:
        profile = v
        once_more = iterate_once(v, inst, disc)
        residual = float(np.max(np.abs(once_more.values - v.values)) / v.sup)

    trace = IterationTrace(sup_norms=tuple(sups),
                           rel_deltas=tuple(deltas),
                           mono_violations=tuple(violations),
                           barrier_margins=tuple(margins) if active else None)
    return SolveOutcome(verdict=verdict,
                        profile=profile,
                        iterations=iterations,
                        trace=trace,
                        fixed_point_residual=residual,
                        barrier_constant=c_hat,
                        k_threshold_estimate=k_q,
                        barrier_active=active)


# ---------------------------------------------------------------------------
# threshold bracketing


@dataclass(frozen=True)
class KstarBracket:
    """Final bisection bracket around the existence threshold.

    k_conv is the largest k observed to converge, k_div the smallest
    observed to diverge.  evaluations lists every (k, verdict) in the order
    run.  halted_undetermined marks a sweep cut short by a budget-limited
    verdict, whose k is excluded from both endpoints.
    """

    k_conv: float
    k_div: float
    evaluations: tuple
    halted_undetermined: bool


def estimate_kstar(template: ProblemInstance, k_lo: float, k_hi: float,
                   steps: int,
                   disc: Optional[Discretization] = None) -> KstarBracket:
    """Bisect [k_lo, k_hi] on the solve verdict.

    Endpoints must come in with the right verdicts (k_lo converges, k_hi
    diverges), else BracketEndpointError; the bracket then halves per
    step.  A mid verdict of undetermined stops the sweep early rather than
    guessing a side.  Every solve shares one discretization: disc, or one
    built here for the template's exponents and grid.
    """
    if not (0 < k_lo < k_hi):
        raise ValueError(f"need 0 < k_lo < k_hi, got ({k_lo}, {k_hi})")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    disc = _discretization(template, disc)

    def run(k):
        return solve_minimal(replace(template, k=k, blowup_cap=None), disc)

    evaluations = []
    lo_out = run(k_lo)
    evaluations.append((k_lo, lo_out.verdict))
    if lo_out.verdict is not SolveVerdict.CONVERGED:
        raise BracketEndpointError(
            f"bracket endpoint k_lo = {k_lo:g} did not converge "
            f"({lo_out.verdict.value})")
    hi_out = run(k_hi)
    evaluations.append((k_hi, hi_out.verdict))
    if hi_out.verdict is not SolveVerdict.DIVERGED:
        raise BracketEndpointError(
            f"bracket endpoint k_hi = {k_hi:g} did not diverge "
            f"({hi_out.verdict.value})")

    lo, hi = k_lo, k_hi
    halted = False
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        out = run(mid)
        evaluations.append((mid, out.verdict))
        if out.verdict is SolveVerdict.CONVERGED:
            lo = mid
        elif out.verdict is SolveVerdict.DIVERGED:
            hi = mid
        else:
            halted = True
            break

    return KstarBracket(k_conv=lo, k_div=hi,
                        evaluations=tuple(evaluations),
                        halted_undetermined=halted)
