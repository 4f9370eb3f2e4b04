"""Monotone iteration for the minimal singular solution.

The scheme starts from v_0 = k Gamma_0 and repeats the Picard step

    v_{n+1} = T(v_n) = G[ I_alpha[v_n^p] v_n^q ] + k Gamma_0,

where G is the Green operator of -Delta + 1.  Every term added is
nonnegative and the discrete operators preserve nodewise comparisons
exactly (nonnegative weights, identical annotation columns across
iterates), so the iterates increase monotonically up to float rounding.
They either converge to the minimal fixed point, or blow up past any
ceiling when the point source is too strong.  Convergence is judged at
every node: the stop is an a posteriori bound on max_i |v* - v_n|_i / v_n,i
built from the nodewise increments, since a sup-relative change is
dominated by the r^{2-N} peak at r_min and says nothing about the tail.

Near the threshold k* the Picard steps contract like rho(J) -> 1, where J
is the derivative of T.  For p, q >= 1, T is order-convex, so Newton's
method started from the subsolution k Gamma_0 also increases monotonically
and stays below the minimal solution while rho(J) < 1 (Ortega &
Rheinboldt 1970, 13.3).  solve_minimal switches to guarded Newton steps,
solved by GMRES on Jacobian products, once the measured
contraction passes 0.7, and falls back to Picard whenever a Newton step
fails its guard.  A failed guard is also where rho(J) >= 1 shows: a
Collatz-Wielandt lower bound above 1 certifies that no fixed point lies
above the iterate.

The barrier w_t = t k^{p+q} G[I_alpha[Phi_0^p] Phi_0^q] + k Phi_0 built
from the slower Yukawa kernel Phi_0 dominates the whole sequence whenever
the tangency inequality (c t k^{p+q-1} + 1)^{p+q} <= t admits a solution,
which pins down the guaranteed-convergence threshold k_q.  The step and the
barrier apply the same map x -> G[I_alpha[x^p] x^q] to plain arrays, each
with the columns its unit profile's annotations select.  Every iterate
carries the source's annotations, so the solve carries nodal arrays and one
slope flag, and builds a profile only for the solution it returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Optional

import numpy as np

from .exponents import ProblemExponents, k_threshold, require_subcritical
from .kernels import gamma0, phi0
from .operators import (
    ExpDecay,
    RadialGrid,
    RadialProfile,
    assemble,
    origin_slope_disagrees,
    transfer_origin_exponent,
)

__all__ = [
    "ProblemInstance",
    "IterationTrace",
    "SolveVerdict",
    "SolveOutcome",
    "KstarBracket",
    "BarrierEstimateError",
    "BracketEndpointError",
    "Discretization",
    "gamma0_profile",
    "phi0_profile",
    "iterate_once",
    "barrier",
    "estimate_barrier_constant",
    "solve_minimal",
    "require_bisection_steps",
    "estimate_kstar",
]

# consecutive growth steps required on top of the sup-norm ceiling before
# declaring blow-up; separates divergence from slow convergence near k*
_DIVERGENCE_RUN = 10

_CAP_FACTOR = 1e12

# a Newton step is tried once two Picard steps contract by more than this;
# one Newton step costs about as much as 12 Picard steps (a GMRES solve of
# about 10 Jacobian products), so below it Picard is cheaper
_NEWTON_RATIO = 0.7

# rounding allowance of the Newton guard, relative to each node
_GUARD_EPS = 1e-12

# GMRES for the Newton correction y = d / v, right-hand side b = (T(v) -
# v) / v.  The forcing term rtol = min(1e-2, ||b||_inf^2), at least 1e-12
# (inexact Newton, Eisenstat & Walker 1996), keeps the convergence
# quadratic while sparing products far from the solution.  The residual
# it leaves, about ||b||^3, mostly stays below the convexity gain in
# T(w) - w, about ||d||^2 >= ||b||^2; where it does not, the guard rejects
# the step.  A constant loose rtol does not shrink with b, and its error
# turned increments negative.  The target never falls below a floor whose
# error in y, about 30 times the floor for 1 - rho(J) >= 1/30, stays
# under _GUARD_EPS.  A converging solve needs about 3-12 products a step;
# beyond the fold I - J turns indefinite and GMRES can stagnate, so one
# Arnoldi cycle of at most 40 products ends it
_GMRES_RTOL = 1e-12
_FORCING_MAX = 1e-2
_GMRES_FLOOR = 1e-14
_GMRES_MAX_PRODUCTS = 40

# most power steps behind the Collatz-Wielandt bounds, and the margin above
# 1 the lower bound must clear (the spectral gap |lambda_2/lambda_1| is
# about 0.26, so 12 steps fix the Perron direction to about 1e-7)
_POWER_STEPS = 12
_SPECTRAL_MARGIN = 1e-9


def r_max_ceiling(N: int) -> float:
    """Largest r_max a solve accepts in dimension N, a whole number.

    The Green moments multiply y0(s) by s^N h (h the log step, below s),
    and y0(s) <= e^s s^{(1-N)/2} / sqrt(2 pi), because e^{-s} sqrt(2 pi s)
    I_nu(s) rises to 1 for nu = N/2 - 1 >= 1/2.  Every moment integrand is
    a float while e^r r^{(N+3)/2} <= sqrt(2 pi) DBL_MAX: r <= 691 for
    N = 3, 687 for N = 4, about 3.3 less per dimension.  A solution
    decaying like e^{-r} is below 1e-290 there.
    """
    budget = math.log(np.finfo(float).max) + 0.5 * math.log(2.0 * math.pi)
    r = budget
    for _ in range(4):     # contracts by (N+3)/(2r) < 0.01 per pass
        r = budget - 0.5 * (N + 3) * math.log(r)
    return float(math.floor(r))


def _overflow_guard(s: float) -> float:
    # largest sup norm whose (p+q)-th power still fits in a float with
    # wide headroom for the operator norms; past this the verdict cannot
    # stay ambiguous and the growth-run requirement is waived
    return 10.0 ** (250.0 / s)


class BarrierEstimateError(ValueError):
    """The barrier ratio peaked at a grid end, so its max is untrustworthy;
    the remedy is a different grid."""


class BracketEndpointError(ValueError):
    """A k* bracket endpoint came back with the wrong verdict."""


_WIDEN_BRACKET = "widen the bracket so k_lo converges and k_hi diverges"


# ---------------------------------------------------------------------------
# profiles of the two fundamental solutions


def gamma0_profile(N: int, grid: RadialGrid, scale: float = 1.0) -> RadialProfile:
    """scale * Gamma_0 sampled on the grid, with its exact annotations."""
    return RadialProfile(grid, scale * gamma0(N, grid.nodes),
                         origin_exponent=float(N - 2),
                         tail=ExpDecay(1.0, (N - 1) / 2.0))


def phi0_profile(N: int, grid: RadialGrid) -> RadialProfile:
    """Phi_0 sampled on the grid; decays at half the Yukawa rate."""
    return RadialProfile(grid, phi0(N, grid.nodes),
                         origin_exponent=float(N - 2),
                         tail=ExpDecay(0.5, (N - 1) / 2.0))


# ---------------------------------------------------------------------------
# problem instance


@dataclass(frozen=True)
class ProblemInstance:
    """One solve: exponents, source strength, grid, and stopping policy.

    blowup_cap is derived, not set: 1e12 * k * Gamma_0(r_min), clipped to
    a tenth of the float-safe ceiling.  That is far above any converged
    profile (which stays within a bounded multiple of k Gamma_0) yet
    reached in a handful of doublings once the iteration blows up.
    """

    exponents: ProblemExponents
    k: float
    grid: RadialGrid
    max_iter: int = 2000
    conv_tol: float = 1e-8

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
        ceiling = r_max_ceiling(self.exponents.N)
        if not 20.0 <= self.grid.r_max <= ceiling:
            raise ValueError(
                f"solver grids need 20 <= r_max <= {ceiling:g} for N = "
                f"{self.exponents.N}, where the Green moments stay finite, "
                f"got {self.grid.r_max:g}")

    @cached_property
    def blowup_cap(self) -> float:
        # cached: every step reads it, and gamma0 costs a Bessel call
        cap = _CAP_FACTOR * self.k * float(gamma0(self.exponents.N,
                                                  self.grid.r_min))
        guard = _overflow_guard(float(self.exponents.p + self.exponents.q))
        return min(cap, 0.1 * guard)


# ---------------------------------------------------------------------------
# the discretization shared by every k


class Discretization:
    """Everything one (exponents, grid) pair fixes, shared by every k.

    The iteration map depends on k only through its source k Gamma_0, so
    both operators (with the origin and tail columns they cache), the unit
    Gamma_0 and Phi_0 profiles, the step plan, and the barrier core and
    c_hat are built once; the last three on first use, so a step never
    pays for the barrier.
    """

    def __init__(self, exponents: ProblemExponents, grid: RadialGrid):
        N = exponents.N
        self.exponents = exponents
        self.grid = grid
        self.riesz = assemble("riesz", N, grid, alpha=float(exponents.alpha))
        self.green = assemble("green", N, grid)
        self.gamma0 = gamma0_profile(N, grid)
        self.phi0 = phi0_profile(N, grid)

    def plan(self, unit: RadialProfile) -> tuple:
        """The annotations and columns the map meets on multiples of unit.

        For unit's origin exponent sigma and tail (rate, power), all dyadic
        and so exact as Fractions, x^p carries p sigma and tail (p rate,
        p power), and I_alpha[x^p] x^q the transfer of p sigma plus q sigma
        and tail (q rate, N - alpha + q power), each rounded once.  The
        result is ((sigma, origin column, tail column) for Riesz on x^p,
        the same for Green on I_alpha[x^p] x^q).  Raises
        NonIntegrableOriginError when x^p or the product is not integrable
        at the origin.
        """
        ex, sigma = self.exponents, Fraction(unit.origin_exponent)
        rate, power = Fraction(unit.tail.rate), Fraction(unit.tail.power)
        sigma_r = ex.p * sigma
        # built first: it refuses p sigma >= N, which the transfer cannot take
        origin_r = self.riesz.origin_column(float(sigma_r))
        sigma_g = float(transfer_origin_exponent(sigma_r, ex.N, ex.alpha)
                        + ex.q * sigma)
        tail_r = ExpDecay(float(ex.p * rate), float(ex.p * power))
        tail_g = ExpDecay(float(ex.q * rate),
                          float(ex.N - ex.alpha + ex.q * power))
        return ((float(sigma_r), origin_r, self.riesz.tail_column(tail_r)),
                (sigma_g, self.green.origin_column(sigma_g),
                 self.green.tail_column(tail_g)))

    @cached_property
    def step_plan(self) -> tuple:
        """plan(Gamma_0): every iterate carries the source's annotations."""
        return self.plan(self.gamma0)

    def image(self, x: np.ndarray, plan: tuple,
              potential: Optional[np.ndarray] = None) -> tuple:
        """(G[I_alpha[x^p] x^q], slope flag) on plain arrays with the
        plan's columns; the flag is set where x^p or the product disagrees
        with the origin exponent the plan declares for it.  potential, an
        array of x's size, receives I_alpha[x^p] when given."""
        (sigma_r, origin_r, tail_r), (sigma_g, origin_g, tail_g) = plan
        ex, h = self.exponents, self.grid.log_step
        powered = x ** float(ex.p)
        field = self.riesz.matvec(powered, origin_r, tail_r)
        if potential is not None:
            potential[...] = field
        product = field * x ** float(ex.q)
        warn = (origin_slope_disagrees(powered, sigma_r, h)
                or origin_slope_disagrees(product, sigma_g, h))
        return self.green.matvec(product, origin_g, tail_g), warn

    def jacobian(self, x: np.ndarray, potential: np.ndarray):
        """y -> S y, the derivative J of the step map at the iterate values
        x > 0 in the nodewise-scaled variable y = d / x:

            S y = J(x y) / x
                = G[ I_alpha[p x^p y] x^q + q x^q I_alpha[x^p] y ] / x,

        applied with the step plan's columns, which are the exact
        derivative of the discrete map because matvec is linear in its
        values for fixed columns.  S = diag(1/x) J diag(x) keeps J's
        spectrum and nonnegativity.  potential is I_alpha[x^p] as the step
        from x computed it.  The diagonals p x^p, q x^q I_alpha[x^p] and
        1/x are formed once; a product is two matvecs.
        """
        (_, origin_r, tail_r), (_, origin_g, tail_g) = self.step_plan
        p, q = float(self.exponents.p), float(self.exponents.q)
        riesz, green = self.riesz.matvec, self.green.matvec
        x_q = x ** q
        d_power = p * x ** p
        d_factor = q * x_q * potential
        inverse = 1.0 / x

        def scaled(y: np.ndarray) -> np.ndarray:
            field = riesz(d_power * y, origin_r, tail_r)
            field *= x_q
            field += d_factor * y
            out = green(field, origin_g, tail_g)
            out *= inverse
            return out

        return scaled

    @cached_property
    def barrier_core(self) -> tuple:
        """image(Phi_0): G[I_alpha[Phi_0^p] Phi_0^q] and its slope flag."""
        return self.image(self.phi0.values, self.plan(self.phi0))

    @cached_property
    def c_hat(self) -> float:
        """Empirical domination constant sup_r barrier_core / Phi_0.

        In the subcritical class the ratio vanishes at both ends, so a max
        on the first or last node means the grid missed the interior peak.
        A max on the last node can also mean cells too coarse for Phi_0's
        e^{-r} decay: across a 37-unit cell at 20 points per decade near
        r = 300, the product integration overshoots the decaying core.
        """
        ratio = self.barrier_core[0] / self.phi0.values
        peak = int(np.argmax(ratio))
        if peak in (0, self.grid.size - 1):
            remedy = ("widen the grid" if peak == 0 else
                      "use more points per decade, or widen the grid")
            raise BarrierEstimateError(
                f"barrier ratio peaks at grid {'start' if peak == 0 else 'end'}"
                f" (r = {self.grid.nodes[peak]:g}); {remedy}")
        return float(ratio[peak])


@lru_cache(maxsize=1)
def _discretization(exponents: ProblemExponents,
                    grid: RadialGrid) -> Discretization:
    """The shared Discretization of the most recent (exponents, grid), by
    value: equal grids built apart share it."""
    return Discretization(exponents, grid)


# ---------------------------------------------------------------------------
# the iteration map


def iterate_once(x: np.ndarray, inst: ProblemInstance,
                 potential: Optional[np.ndarray] = None) -> tuple:
    """(T(x), slope flag) for the step x -> G[I_alpha[x^p] x^q] + k Gamma_0
    on the nodal values x of an iterate.

    Every iterate carries the source's annotations (origin exponent N-2
    and the Gamma_0 tail): the nonlinear correction is strictly milder at
    the origin in the subcritical class, so k Gamma_0 keeps the leading
    annotation, and freezing it makes every iterate share the same origin
    and tail columns (comparisons between iterates then survive rounding
    exactly).  So the step is disc.image under disc.step_plan plus the
    source, and the flag is that image's.  potential, an array on the
    grid, receives I_alpha[x^p] for the Jacobian at x when given.
    """
    disc = _discretization(inst.exponents, inst.grid)
    image, warn = disc.image(x, disc.step_plan, potential)
    return image + disc.gamma0.values * inst.k, warn


# ---------------------------------------------------------------------------
# barrier


def estimate_barrier_constant(exponents: ProblemExponents,
                              grid: RadialGrid) -> float:
    """c_hat of the shared discretization, refused when supercritical."""
    require_subcritical(exponents)
    return _discretization(exponents, grid).c_hat


def barrier(inst: ProblemInstance, t: float) -> RadialProfile:
    """w_t = t k^{p+q} G[I_alpha[Phi_0^p] Phi_0^q] + k Phi_0, with Phi_0's
    annotations (the core is milder at both ends) and the core's flag."""
    if not t > 0:
        raise ValueError(f"barrier parameter t must be positive, got {t}")
    disc = _discretization(inst.exponents, inst.grid)
    core, warn = disc.barrier_core
    s = float(inst.exponents.p + inst.exponents.q)
    return replace(disc.phi0,
                   values=core * (t * inst.k ** s) + disc.phi0.values * inst.k,
                   annotation_warning=warn)


# ---------------------------------------------------------------------------
# outcomes


class SolveVerdict(Enum):
    CONVERGED = "converged"
    DIVERGED = "diverged"
    MAX_ITERATIONS = "undetermined"


@dataclass(frozen=True)
class IterationTrace:
    """Per-step audit of the guarded scheme.

    Step n takes v_{n-1} to v_n by methods[n] ("picard" or "newton").
    rel_deltas[n] is the nodewise increment max_i |v_n - v_{n-1}|_i / v_n,i
    and ratios[n] the contraction estimate rel_deltas[n] / rel_deltas[n-1]
    when both steps used the same method (else None).  bounds[n] is the a
    posteriori bound delta ratio / (1 - ratio) on the nodewise distance
    from v_n to the fixed point, the sum of the later increments if each
    shrinks by at least the ratio (None without a ratio below 1); the stop
    is judged on it.  jacobian_products[n] counts the Jacobian products
    spent on the way to v_n, a rejected Newton attempt and its certificate
    included.
    mono_violations[n] is max_i (v_{n-1} - v_n)_i / sup v_{n-1} clamped at
    0; anything above rounding scale signals a weights bug.
    barrier_margins[n] is min_i (w - v_n)_i when the barrier is active.
    """

    sup_norms: tuple
    methods: tuple
    rel_deltas: tuple
    ratios: tuple
    bounds: tuple
    jacobian_products: tuple
    mono_violations: tuple
    barrier_margins: Optional[tuple]

    @property
    def iterations(self) -> int:
        return len(self.rel_deltas)


@dataclass(frozen=True)
class SolveOutcome:
    """stop_reason says why the solve stopped: "bound" (a Picard step's
    error bound) or "newton" (a Newton step's) fell below conv_tol; the
    sup norm passed blowup_cap ("cap") or the Collatz-Wielandt bound on
    rho(J) passed 1 ("spectral"); max_iter ran out ("budget").
    fixed_point_residual is max_i |T(v) - v|_i / v_i at the returned
    profile; annotation_warning, which the profile carries too, is set
    once a slope check fired in T at any iterate the solve accepted (a
    rejected Newton attempt's T does not count).
    """

    verdict: SolveVerdict
    profile: Optional[RadialProfile]
    trace: IterationTrace
    fixed_point_residual: Optional[float]
    barrier_constant: float
    k_threshold_estimate: float
    barrier_active: bool
    stop_reason: str
    annotation_warning: bool

    @property
    def iterations(self) -> int:
        return self.trace.iterations


def _nodewise(change: np.ndarray, scale: np.ndarray) -> float:
    """max_i |change_i| / scale_i for a positive scale."""
    return float(np.max(np.abs(change) / scale))


def _gmres(operator, b: np.ndarray, rtol: float) -> tuple:
    """GMRES for operator(y) = b from y = 0, in one Arnoldi cycle.

    Arnoldi by classical Gram-Schmidt applied twice, a pass being one
    product with the basis and one with its transpose, which keeps the
    basis as orthogonal as modified Gram-Schmidt does (Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50, 2005); the least-squares problem
    by Givens rotations (Saad & Schultz 1986; Kelley 1995, ch. 6).
    Returns (y, converged, products): converged once the residual 2-norm,
    as the rotations carry it, is at most max(rtol ||b||, _GMRES_FLOOR)
    within _GMRES_MAX_PRODUCTS products.
    """
    beta = math.sqrt(b @ b)
    target = max(rtol * beta, _GMRES_FLOOR)
    if beta <= target:
        return np.zeros_like(b), True, 0
    basis = np.empty((_GMRES_MAX_PRODUCTS + 1, b.size))
    basis[0] = b / beta
    # the rotated Hessenberg columns (upper triangular), the rotations and
    # the rotated right-hand side, all as Python floats
    cols: list = []
    cs: list = []
    sn: list = []
    g = [beta]
    for j in range(_GMRES_MAX_PRODUCTS):
        w = operator(basis[j])
        known = basis[:j + 1]
        h = known @ w
        w -= h @ known
        again = known @ w
        w -= again @ known
        col = (h + again).tolist()
        h_next = math.sqrt(w @ w)
        for i in range(j):
            col[i], col[i + 1] = (cs[i] * col[i] + sn[i] * col[i + 1],
                                  cs[i] * col[i + 1] - sn[i] * col[i])
        rho = math.hypot(col[j], h_next)
        if rho == 0.0:
            return np.zeros_like(b), False, j + 1
        cs.append(col[j] / rho)
        sn.append(h_next / rho)
        col[j] = rho
        cols.append(col)
        g.append(-sn[j] * g[j])
        g[j] *= cs[j]
        if abs(g[j + 1]) <= target or h_next == 0.0:
            break
        basis[j + 1] = w / h_next
    # back substitution in Python: a LAPACK call here would be the solve's
    # only one and grows the peak RSS by its work buffers
    n = j + 1
    z = [0.0] * n
    for i in reversed(range(n)):
        z[i] = (g[i] - sum(cols[l][i] * z[l]
                           for l in range(i + 1, n))) / cols[i][i]
    return np.array(z) @ basis[:n], abs(g[n]) <= target, n


def _newton_step(v: np.ndarray, tv: np.ndarray, jac,
                 inst: ProblemInstance) -> tuple:
    """((w, T(w), I_alpha[w^p], slope flag of T(w)), products) for the
    guarded Newton step from the iterate values v with tv = T(v), jac the
    Jacobian at v, or (None, products) when the step fails its guard.

    The correction d solves (I - J(v)) d = T(v) - v in the nodewise-scaled
    variable y = d / v, as y - S y = (T(v) - v) / v with jac = S the
    scaled Jacobian (Discretization.jacobian), so the Krylov residual is
    relative at every node, to the forcing term set out beside
    _FORCING_MAX.
    w = v + d is accepted only when GMRES converged, d >= -eps v, w stays
    below blowup_cap (so that T(w) is finite) and w is still a
    subsolution, T(w) - w >= -eps w.
    """
    b = (tv - v) / v
    forcing = min(_FORCING_MAX, float(np.abs(b).max()) ** 2)
    y, converged, products = _gmres(lambda z: z - jac(z), b,
                                    max(forcing, _GMRES_RTOL))
    # written so that a NaN fails the test
    if not (converged and y.min() >= -_GUARD_EPS):
        return None, products
    w = v + v * y
    if not w.max() <= inst.blowup_cap:
        return None, products
    potential = np.empty_like(v)
    tw, warn = iterate_once(w, inst, potential)
    if np.any(tw - w < -_GUARD_EPS * w):
        return None, products
    return (w, tw, potential, warn), products


def _spectral_certificate(jac, size: int) -> tuple:
    """(rho(J) > 1 + margin is certified, products spent), by power steps
    of the nonnegative scaled Jacobian jac = S = diag(1/x) J diag(x) from
    z = 1 on size nodes: S's Collatz-Wielandt ratios at z are J's at x z,
    so these are J's steps from x.

    After every step the bounds min_i (S z)_i / z_i <= rho(J) <=
    max_i (S z)_i / z_i are checked: the lower one above the margin
    certifies, the upper one at or below it rules the certificate out,
    and either ends the power steps early.
    """
    z = np.ones(size)
    for n in range(1, _POWER_STEPS + 1):
        jz = jac(z)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = jz / z
        # written so that a NaN certifies nothing
        if ratio.min() > 1.0 + _SPECTRAL_MARGIN:
            return True, n
        if not ratio.max() > 1.0 + _SPECTRAL_MARGIN:
            return False, n
        z = jz / jz.max()
    return False, _POWER_STEPS


def solve_minimal(inst: ProblemInstance) -> SolveOutcome:
    """Run the guarded monotone scheme from v_0 = k Gamma_0 to a verdict.

    The solve stops on the nodewise a posteriori bound
    delta_n lambda_n / (1 - lambda_n) < conv_tol, with delta_n the nodewise
    increment and lambda_n = delta_n / delta_{n-1} over two steps of the
    same method.  For p, q >= 1 a Newton step replaces the Picard step once
    0.7 < lambda_n < 1, and Newton steps follow until the stop.  Their
    ratios fall toward 0 as the convergence turns quadratic, so there the
    bound, which predicts the next increment as delta_n lambda_n, is
    conservative (stop reasons "bound" after a Picard step, "newton" after
    a Newton step).  A Newton step that fails its guard is
    replaced by a Picard step, after a Collatz-Wielandt bound on rho(J)
    at the iterate: above 1 + 1e-9 it certifies divergence ("spectral"),
    since for p, q >= 1 and v below the minimal solution v*, 0 <= J(v) <=
    J(v*) and rho(J(v*)) <= 1.  Diverged also when the sup norm passes
    blowup_cap and keeps growing for 10 consecutive steps ("cap").
    Otherwise the budget ran out and the verdict stays undetermined
    ("budget").  The residual T(v) - v of the returned profile is always
    computed, since every step needs it for the next one.  Every solve on
    the same exponents and grid shares one discretization.
    """
    require_subcritical(inst.exponents)
    disc = _discretization(inst.exponents, inst.grid)
    ex = inst.exponents

    c_hat = disc.c_hat
    k_q, t_q = k_threshold(c_hat, float(ex.p), float(ex.q))
    active = inst.k <= k_q
    w = barrier(inst, t_q) if active else None
    # Newton needs p, q >= 1 (order convexity); ProblemExponents already
    # refuses q < 1, so only p is left to check
    newton_ok = ex.p >= 1

    # v holds the iterate's values, tv = T(v) and potential = I_alpha[v^p]
    # once computed; a Picard step computes them at the next step, after the
    # divergence checks.  warned collects the slope flags of every T
    # evaluated at an accepted iterate
    v, tv, potential = disc.gamma0.values * inst.k, None, None
    warned = False
    sups = [float(v.max())]
    methods: list = []
    deltas: list = []
    ratios: list = []
    bounds: list = []
    products: list = []
    violations: list = []
    margins: list = [] if active else None
    if active:
        margins.append(float((w.values - v).min()))

    guard = _overflow_guard(float(ex.p + ex.q))
    growth_run = 0
    verdict = SolveVerdict.MAX_ITERATIONS
    reason = "budget"
    ratio = None
    # after the m-th uncertified rejection Newton waits 2^m steps, which
    # bounds the work a guard that keeps failing can waste
    rejections, retry_at = 0, 0
    for n in range(1, inst.max_iter + 1):
        if tv is None:
            potential = np.empty_like(v)
            tv, warn = iterate_once(v, inst, potential)
            warned = warned or warn
        step, spent = None, 0
        if newton_ok and n >= retry_at and (
                (methods and methods[-1] == "newton")
                or (ratio is not None and _NEWTON_RATIO < ratio < 1.0)):
            # one Jacobian serves the step and, if it fails, the certificate
            jac = disc.jacobian(v, potential)
            step, spent = _newton_step(v, tv, jac, inst)
            if step is None:
                certified, used = _spectral_certificate(jac, v.size)
                spent += used
                if certified:
                    if products:
                        products[-1] += spent
                    verdict, reason = SolveVerdict.DIVERGED, "spectral"
                    break
                retry_at = n + 2 ** rejections
                rejections += 1
        method = "picard" if step is None else "newton"
        v_next, tv_next, potential_next, warn = step or (tv, None, None, False)
        warned = warned or warn

        delta = _nodewise(v_next - v, v_next)
        same = bool(methods) and methods[-1] == method and deltas[-1] > 0.0
        ratio = delta / deltas[-1] if same else None
        if delta == 0.0:
            bound = 0.0
        elif ratio is not None and ratio < 1.0:
            bound = delta * ratio / (1.0 - ratio)
        else:
            bound = None
        sup_prev, sup_next = sups[-1], float(v_next.max())
        sups.append(sup_next)
        methods.append(method)
        deltas.append(delta)
        ratios.append(ratio)
        bounds.append(bound)
        products.append(spent)
        violations.append(max(0.0, float(np.max(v - v_next)) / sup_prev))
        if active:
            margins.append(float((w.values - v_next).min()))

        growth_run = growth_run + 1 if sup_next > sup_prev else 0
        v, tv, potential = v_next, tv_next, potential_next
        if bound is not None and bound < inst.conv_tol:
            verdict = SolveVerdict.CONVERGED
            reason = "bound" if method == "picard" else "newton"
            break
        if sup_next > inst.blowup_cap and (growth_run >= _DIVERGENCE_RUN
                                           or sup_next > guard):
            verdict, reason = SolveVerdict.DIVERGED, "cap"
            break

    residual = None
    profile = None
    if verdict is SolveVerdict.CONVERGED:
        if tv is None:
            tv, warn = iterate_once(v, inst)
            warned = warned or warn
        residual = _nodewise(tv - v, v)
        profile = replace(disc.gamma0, values=v, annotation_warning=warned)

    trace = IterationTrace(sup_norms=tuple(sups),
                           methods=tuple(methods),
                           rel_deltas=tuple(deltas),
                           ratios=tuple(ratios),
                           bounds=tuple(bounds),
                           jacobian_products=tuple(products),
                           mono_violations=tuple(violations),
                           barrier_margins=tuple(margins) if active else None)
    return SolveOutcome(verdict=verdict,
                        profile=profile,
                        trace=trace,
                        fixed_point_residual=residual,
                        barrier_constant=c_hat,
                        k_threshold_estimate=k_q,
                        barrier_active=active,
                        stop_reason=reason,
                        annotation_warning=warned)


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


def require_bisection_steps(steps: int) -> None:
    """ValueError unless estimate_kstar can run steps bisection steps, so
    that a caller can refuse a sweep before it builds anything."""
    if steps < 1:
        raise ValueError("steps must be at least 1")


def estimate_kstar(template: ProblemInstance, k_lo: float, k_hi: float,
                   steps: int) -> KstarBracket:
    """Bisect [k_lo, k_hi] on the solve verdict.

    Endpoints must come in with the right verdicts (k_lo converges, k_hi
    diverges), else BracketEndpointError, whose message names the remedy;
    the bracket then halves per step.  A mid verdict of undetermined stops
    the sweep early rather than guessing a side.  Every solve shares the
    template's discretization.
    """
    if not (0 < k_lo < k_hi):
        raise ValueError(f"need 0 < k_lo < k_hi, got ({k_lo}, {k_hi})")
    require_bisection_steps(steps)

    def run(k):
        return solve_minimal(replace(template, k=k))

    evaluations = []
    lo_out = run(k_lo)
    evaluations.append((k_lo, lo_out.verdict))
    if lo_out.verdict is not SolveVerdict.CONVERGED:
        raise BracketEndpointError(
            f"bracket endpoint k_lo = {k_lo:g} did not converge "
            f"({lo_out.verdict.value}); {_WIDEN_BRACKET}")
    hi_out = run(k_hi)
    evaluations.append((k_hi, hi_out.verdict))
    if hi_out.verdict is not SolveVerdict.DIVERGED:
        raise BracketEndpointError(
            f"bracket endpoint k_hi = {k_hi:g} did not diverge "
            f"({hi_out.verdict.value}); {_WIDEN_BRACKET}")

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
