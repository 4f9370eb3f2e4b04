"""Radial integral operators on geometric grids by product integration.

A radial function is carried as nodal values on a geometric grid plus two
annotations: a power-law model (r/r_1)^{-sigma} below the first node and a
tail model beyond the last.  The Riesz potential and the Green operator of
-Delta + 1 become dense matrices whose entries are exact integrals of the
reduced radial kernel against piecewise-linear hat functions in log r, so
every weight is nonnegative and nodewise comparisons survive the operators
exactly.  That preservation is what the monotone solver leans on.

Assembly exploits two structural facts and builds no per-entry mask.  The
Riesz kernel is homogeneous, r^{alpha-N} shape(s/r) with shape(rho) =
kernels.riesz_angular(N, alpha, 1, rho), so the hat integrals depend only
on the log-distance j - i between node and cell: row i is a window of one
Toeplitz family, scaled by r_i^alpha.  The Green kernel factors as y0(min)
yinf(max) across the diagonal, so its weights are outer products of
per-cell moments split at the diagonal, and the corrections below r_1 and
beyond r_max inherit the same factorization.  The Gauss rules behind the
cell integrals are cached and read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache
from typing import Optional, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import special

from .kernels import green_halfline_factors, riesz_angular

__all__ = [
    "RadialGrid", "RadialProfile", "ExpDecay", "ZeroTail", "OperatorMatrix",
    "NonIntegrableOriginError", "build_grid", "assemble", "apply",
    "pointwise_power", "pointwise_product", "pointwise_add", "pointwise_scale",
]


# ---------------------------------------------------------------------------
# grid and profile types


@dataclass(frozen=True)
class RadialGrid:
    """Geometric grid r_1 < ... < r_M with constant ratio."""

    nodes: np.ndarray
    points_per_decade: int

    def __post_init__(self):
        nodes = np.array(self.nodes, dtype=float)
        nodes.setflags(write=False)
        object.__setattr__(self, "nodes", nodes)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("grid needs at least two nodes")
        if nodes[0] <= 0 or np.any(np.diff(nodes) <= 0):
            raise ValueError("grid nodes must be positive and increasing")
        ratios = nodes[1:] / nodes[:-1]
        if np.abs(ratios / ratios[0] - 1.0).max() > 1e-12:
            raise ValueError("grid spacing must be geometric")

    @property
    def size(self) -> int:
        return int(self.nodes.size)

    @property
    def r_min(self) -> float:
        return float(self.nodes[0])

    @property
    def r_max(self) -> float:
        return float(self.nodes[-1])

    @property
    def log_step(self) -> float:
        """Uniform spacing in ln r."""
        return math.log(self.nodes[1] / self.nodes[0])


def build_grid(r_min: float, r_max: float,
               points_per_decade: int) -> RadialGrid:
    """Geometric grid with points_per_decade * log10(r_max/r_min) + 1 nodes."""
    if not (0.0 < r_min < r_max):
        raise ValueError(f"need 0 < r_min < r_max, got ({r_min}, {r_max})")
    if points_per_decade < 1:
        raise ValueError(
            f"points_per_decade must be >= 1, got {points_per_decade}")
    m = round(points_per_decade * math.log10(r_max / r_min)) + 1
    if m < 2:
        raise ValueError("grid span too short for this resolution")
    nodes = np.geomspace(r_min, r_max, m)
    return RadialGrid(nodes, points_per_decade)


@dataclass(frozen=True)
class ExpDecay:
    """Tail model f(s) = f_M (s/r_max)^{-power} e^{-rate (s - r_max)}.

    rate == 0 encodes a pure algebraic tail, which is what the Riesz
    potential genuinely produces; rate > 0 is exponential decay with an
    algebraic prefactor.
    """

    rate: float
    power: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.rate) and self.rate >= 0.0):
            raise ValueError(f"decay rate must be >= 0, got {self.rate}")
        if not np.isfinite(self.power):
            raise ValueError("tail power must be finite")


@dataclass(frozen=True)
class ZeroTail:
    """Identically zero beyond r_max."""


TailModel = Union[ExpDecay, ZeroTail]
ZERO_TAIL = ZeroTail()


@dataclass(frozen=True)
class RadialProfile:
    """Nodal values plus origin and tail models.

    Below r_1 the function is modeled as values[0] * (r/r_1)^{-sigma} with
    sigma = origin_exponent >= 0; beyond r_max by the tail model anchored at
    values[-1].  annotation_warning is set by apply() when the declared
    sigma disagrees with the observed near-origin slope.
    """

    grid: RadialGrid
    values: np.ndarray
    origin_exponent: float = 0.0
    tail: TailModel = ZERO_TAIL
    annotation_warning: bool = False

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.shape != self.grid.nodes.shape:
            raise ValueError("values must match the grid")
        # NaN propagates through min and max, so one pass each covers it
        lo, hi = values.min(), values.max()
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("values must be finite")
        if lo < 0.0:
            raise ValueError("values must be nonnegative")
        if not (np.isfinite(self.origin_exponent)
                and self.origin_exponent >= 0.0):
            raise ValueError(
                f"origin exponent must be >= 0, got {self.origin_exponent}")

    @property
    def sup(self) -> float:
        return float(self.values.max(initial=0.0))

    def is_zero(self) -> bool:
        return bool(np.all(self.values == 0.0))


class NonIntegrableOriginError(ValueError):
    """The modeled density s^{N-1-sigma} carries infinite mass below r_1.

    Raised when sigma >= N, which is exactly how a supercritical composition
    (the powered profile of a maximal singularity) announces itself at the
    discrete level.
    """

    def __init__(self, kind: str, sigma: float, N: int):
        self.kind = kind
        self.sigma = sigma
        self.N = N
        super().__init__(
            f"{kind} origin cell diverges: density exponent sigma = "
            f"{sigma:g} >= N = {N}, the mass below the first node is "
            f"infinite")


# ---------------------------------------------------------------------------
# quadrature helpers


def _read_only(*arrays):
    for a in arrays:
        a.setflags(write=False)
    return arrays


@lru_cache(maxsize=32)
def _leggauss01(n: int):
    """Gauss-Legendre nodes/weights on [0, 1], shared and read-only."""
    x, w = np.polynomial.legendre.leggauss(n)
    return _read_only((x + 1.0) / 2.0, w / 2.0)


@lru_cache(maxsize=32)
def _jacobi01(n: int, beta: float):
    """Nodes/weights for int_0^1 x^beta f(x) dx, beta > -1 (read-only)."""
    x, w = special.roots_jacobi(n, 0.0, beta)
    return _read_only((x + 1.0) / 2.0, w * 0.5 ** (beta + 1.0))


def _graded_panels(a: float, b: float, toward_b: bool, n_panels: int = 12,
                   ratio: float = 0.5):
    """Panel edges grading geometrically toward one endpoint."""
    widths = ratio ** np.arange(n_panels)
    widths = widths / widths.sum() * (b - a)
    if toward_b:
        edges = a + np.concatenate(([0.0], np.cumsum(widths)))
    else:
        edges = b - np.concatenate(([0.0], np.cumsum(widths)))[::-1]
    edges[0], edges[-1] = a, b
    return edges


# ---------------------------------------------------------------------------
# operator matrices


class OperatorMatrix:
    """Discretized radial integral operator (kind "riesz" or "green").

    weights[i, j] is the contribution of the nodal value f_j to the output
    at r_i from the grid interval [r_1, r_max]; the origin cell and the tail
    are added per profile from its annotations.  All weights are >= 0.
    """

    def __init__(self, kind: str, N: int, grid: RadialGrid,
                 alpha: Optional[float] = None):
        if kind not in ("riesz", "green"):
            raise ValueError(f"unknown operator kind {kind!r}")
        if N < 3:
            raise ValueError(f"N must be >= 3, got {N}")
        if kind == "riesz":
            if alpha is None or not 0.0 < alpha < N:
                raise ValueError(f"riesz requires alpha in (0, N), got {alpha}")
        elif alpha is not None:
            raise ValueError("green takes no alpha")
        self.kind = kind
        self.N = N
        self.alpha = alpha
        self.grid = grid
        self._origin_cols: dict[float, np.ndarray] = {}
        self._tail_cols: dict[tuple, np.ndarray] = {}
        self.weights = self._assemble_weights()
        assert np.all(self.weights >= 0.0), "product weights must be >= 0"

    # -- grid-part weights

    def _assemble_weights(self) -> np.ndarray:
        if self.kind == "riesz":
            return self._riesz_weights()
        return self._green_weights()

    def _riesz_weights(self) -> np.ndarray:
        """Toeplitz fill: w[i, l] = r_i^alpha * (A(l - i) + B(l - 1 - i)).

        Node l is the left node of cell l (none for l = M-1) and the right
        node of cell l-1 (none for l = 0).  A and B are indexed from
        k = -(M-1), so row i of either block is the length-(M-1) window
        starting at (M-1) - i.
        """
        m = self.grid.size
        A, B = self._riesz_cell_integrals()
        w = np.zeros((m, m))
        w[:, :m - 1] = sliding_window_view(A, m - 1)[::-1]
        w[:, 1:] += sliding_window_view(B, m - 1)[::-1]
        w *= self.grid.nodes[:, None] ** self.alpha
        return w

    def _riesz_cell_integrals(self):
        """Toeplitz hat integrals: cell j to node pair, offset k = j - i.

        With s = r_i e^{h(k+x)} the cell integral against a hat factor is
        r_i^alpha * integral over x of phi(x) * shape(e^{h(k+x)}) *
        e^{h(k+x)N} * h, independent of i.  The shape has a weak kink and,
        for alpha < 2, an algebraic singularity at rho = 1 (x = -k), so the
        two cells touching the diagonal use panels graded into that corner.
        """
        grid, N, alpha = self.grid, self.N, self.alpha
        m = grid.size
        h = grid.log_step
        ks = np.arange(-(m - 1), m - 1)

        def cell_integrals(k_arr, x, w):
            # returns (A, B) contributions for hat factors (1-x) and x
            t = k_arr[:, None] + x[None, :]
            rho = np.exp(h * t)
            f = riesz_angular(N, alpha, 1.0, rho) * np.exp(h * t * N) * h
            A = f @ (w * (1.0 - x))
            B = f @ (w * x)
            return A, B

        A = np.empty(ks.size)
        B = np.empty(ks.size)
        x24, w24 = _leggauss01(24)
        regular = (ks != 0) & (ks != -1)
        A[regular], B[regular] = cell_integrals(ks[regular], x24, w24)

        # diagonal-touching cells: grade panels into the singular corner
        x12, w12 = _leggauss01(12)
        for k, toward_left in ((0, True), (-1, False)):
            idx = np.where(ks == k)[0]
            if idx.size == 0:
                continue
            edges = _graded_panels(0.0, 1.0, toward_b=not toward_left)
            a_val = b_val = 0.0
            for lo, hi in zip(edges, edges[1:]):
                xs = lo + (hi - lo) * x12
                t = k + xs
                rho = np.exp(h * t)
                f = riesz_angular(N, alpha, 1.0, rho) * np.exp(h * t * N) * h
                a_val += (hi - lo) * np.dot(w12, f * (1.0 - xs))
                b_val += (hi - lo) * np.dot(w12, f * xs)
            A[idx] = a_val
            B[idx] = b_val
        return A, B

    def _green_weights(self) -> np.ndarray:
        """Separable fill: kernel = y0(min) yinf(max) on each side.

        Row i is y0(r_i) times the yinf moments above the diagonal plus
        yinf(r_i) times the y0 moments below.  Node l is the left node of
        cell l (PA, QA; none for l = M-1) and the right node of cell l-1
        (PB, QB; none for l = 0); the diagonal node splits exactly between
        its outer and its inner cell.
        """
        m = self.grid.size
        y0_n, yinf_n, PA, PB, QA, QB = self._green_cell_moments()
        PA_l = np.append(PA, 0.0)
        QA_l = np.append(QA, 0.0)
        PB_l = np.append(0.0, PB)
        QB_l = np.append(0.0, QB)
        # add the two products; y0 * (PA + PB) would round differently
        w = np.multiply(y0_n[:, None], PA_l)
        part = np.multiply(y0_n[:, None], PB_l)
        w += part
        below = np.tri(m, dtype=bool)
        np.multiply(yinf_n[:, None], QA_l, out=w, where=below)
        np.multiply(yinf_n[:, None], QB_l, out=part, where=below)
        np.add(w, part, out=w, where=below)
        np.fill_diagonal(w, y0_n * PA_l + yinf_n * QB_l)
        return w

    def _green_cell_moments(self):
        """y0 and yinf at the nodes, and the per-cell moments of yinf (PA,
        PB) and y0 (QA, QB) against the left and right hat factors."""
        grid, N = self.grid, self.N
        nodes = grid.nodes
        y0_n, yinf_n = green_halfline_factors(N, nodes)

        x16, w16 = _leggauss01(16)
        # quadrature nodes per cell: (m-1, 16)
        s = nodes[:-1, None] * (nodes[1:, None] / nodes[:-1, None]) ** x16[None, :]
        # ds = s * h dx on the log-linear parametrization
        h = grid.log_step
        y0_s, yinf_s = green_halfline_factors(N, s.ravel())
        y0_s = y0_s.reshape(s.shape)
        yinf_s = yinf_s.reshape(s.shape)
        meas = s ** N * h  # s^{N-1} ds = s^N h dx
        PA = (yinf_s * meas) @ (w16 * (1.0 - x16))
        PB = (yinf_s * meas) @ (w16 * x16)
        QA = (y0_s * meas) @ (w16 * (1.0 - x16))
        QB = (y0_s * meas) @ (w16 * x16)
        return y0_n, yinf_n, PA, PB, QA, QB

    # -- origin cell

    def origin_column(self, sigma: float) -> np.ndarray:
        """Column c with c_i = integral over (0, r_1) of the sigma-model
        against the kernel, normalized to unit value at r_1."""
        key = round(float(sigma), 12)
        col = self._origin_cols.get(key)
        if col is None:
            col = self._build_origin_column(float(sigma))
            self._origin_cols[key] = col
        return col

    def _build_origin_column(self, sigma: float) -> np.ndarray:
        if sigma < 0:
            raise ValueError("origin exponent must be >= 0")
        N = self.N
        if sigma >= N:
            raise NonIntegrableOriginError(self.kind, sigma, N)
        r1 = self.grid.r_min
        nodes = self.grid.nodes

        if self.kind == "green":
            # separable: yinf(r_i) * int_0^{r1} (s/r1)^{-sigma} s^{N-1} y0(s) ds
            xg, wg = _jacobi01(24, N - 1.0 - sigma)
            s = r1 * xg
            y0_s, _ = green_halfline_factors(N, s)
            moment = r1 ** N * np.dot(wg, y0_s)
            _, yinf_n = green_halfline_factors(N, nodes)
            return yinf_n * moment

        alpha = self.alpha
        # split [0, r1] at r1/2: Jacobi handles the s^{N-1-sigma} weight on
        # the left, graded panels handle the row-0 kernel singularity at
        # s -> r1 on the right
        xg, wg = _jacobi01(24, N - 1.0 - sigma)
        s_left = 0.5 * r1 * xg
        rho_left = s_left[None, :] / nodes[:, None]
        shape_left = riesz_angular(N, alpha, 1.0, rho_left)
        left = (0.5 * r1) ** (N - sigma) * r1 ** sigma \
            * (shape_left @ (wg * 1.0)) / nodes ** (N - alpha)
        # note: (s/r1)^{-sigma} s^{N-1} ds = r1^sigma s^{N-1-sigma} ds and the
        # kernel is r^{alpha-N} shape(s/r), giving the prefactors above

        edges = _graded_panels(0.5 * r1, r1, toward_b=True)
        x12, w12 = _leggauss01(12)
        right = np.zeros(nodes.size)
        for lo, hi in zip(edges, edges[1:]):
            s = lo + (hi - lo) * x12
            dens = (s / r1) ** (-sigma) * s ** (N - 1)
            rho = s[None, :] / nodes[:, None]
            shape = riesz_angular(N, alpha, 1.0, rho)
            right += (hi - lo) * (shape * dens[None, :]) @ w12 \
                / nodes ** (N - alpha)
        return left + right

    # -- tail beyond r_max

    def tail_column(self, tail: TailModel) -> np.ndarray:
        if isinstance(tail, ZeroTail):
            return np.zeros(self.grid.size)
        key = (round(tail.rate, 12), round(tail.power, 12))
        col = self._tail_cols.get(key)
        if col is None:
            col = self._build_tail_column(tail)
            self._tail_cols[key] = col
        return col

    def _build_tail_column(self, tail: ExpDecay) -> np.ndarray:
        N = self.N
        rmax = self.grid.r_max
        nodes = self.grid.nodes

        if self.kind == "green":
            # kernel decay e^{-s} converges regardless of the model rate
            lam_eff = tail.rate + 1.0
            edges = self._tail_panels(rmax, lam_eff)
            x12, w12 = _leggauss01(12)
            moment = 0.0
            for lo, hi in zip(edges, edges[1:]):
                s = lo + (hi - lo) * x12
                _, yinf_s = green_halfline_factors(N, s)
                dens = (s / rmax) ** (-tail.power) \
                    * np.exp(-tail.rate * (s - rmax)) * s ** (N - 1)
                moment += (hi - lo) * np.dot(w12, yinf_s * dens)
            y0_n, _ = green_halfline_factors(N, nodes)
            return y0_n * moment

        alpha = self.alpha
        if tail.rate > 0.0:
            edges = self._tail_panels(rmax, tail.rate)
            x12, w12 = _leggauss01(12)
            col = np.zeros(nodes.size)
            for lo, hi in zip(edges, edges[1:]):
                s = lo + (hi - lo) * x12
                dens = (s / rmax) ** (-tail.power) \
                    * np.exp(-tail.rate * (s - rmax)) * s ** (N - 1)
                rho = s[None, :] / nodes[:, None]
                shape = riesz_angular(N, alpha, 1.0, rho)
                col += (hi - lo) * (shape * dens[None, :]) @ w12
            return col * nodes ** (alpha - N)
        # algebraic tail: s = rmax/u turns the integral into a Jacobi rule
        # with weight u^{power - alpha - 1}; needs power > alpha to converge.
        # By homogeneity the kernel is r_i^{alpha-N} shape(rho) with
        # rho = s/r_i = rmax/(u r_i) >= 1, and the integrand collapses to
        # rmax^alpha u^{power-alpha-1} rho^{N-alpha} shape(rho).
        if tail.power <= alpha + 1e-12:
            raise ValueError(
                f"algebraic tail with power {tail.power:g} is not integrable "
                f"against the order-{alpha:g} Riesz kernel beyond r_max; "
                f"need power > alpha")
        beta = tail.power - alpha - 1.0
        xg, wg = _jacobi01(32, beta)
        rho = rmax / (xg[None, :] * nodes[:, None])
        shape = riesz_angular(N, alpha, 1.0, rho) * rho ** (N - alpha)
        return rmax ** alpha * (shape @ wg)

    @staticmethod
    def _tail_panels(rmax: float, rate: float, n_panels: int = 9):
        t0 = 1.5 / rate
        edges = [rmax] + [rmax + t0 * 2.0 ** j for j in range(n_panels)]
        return np.asarray(edges)


def assemble(kind: str, N: int, grid: RadialGrid,
             alpha: Optional[float] = None) -> OperatorMatrix:
    """Build the dense operator for the given kind ("riesz" needs alpha)."""
    return OperatorMatrix(kind, N, grid, alpha)


# ---------------------------------------------------------------------------
# annotation transfer


_EQ_TOL = 1e-9


def _riesz_sigma_out(sigma: float, alpha: float) -> float:
    if sigma > alpha + _EQ_TOL * max(1.0, alpha):
        return sigma - alpha
    return 0.0


def _green_sigma_out(sigma: float) -> float:
    if sigma > 2.0 + _EQ_TOL:
        return sigma - 2.0
    return 0.0


def _green_tail_out(N: int, tail: TailModel) -> TailModel:
    if isinstance(tail, ZeroTail):
        return ExpDecay(1.0, (N - 1) / 2.0)
    if tail.rate > 1.0 + _EQ_TOL:
        return ExpDecay(1.0, (N - 1) / 2.0)
    if tail.rate > 1.0 - _EQ_TOL:
        return ExpDecay(1.0, tail.power - 1.0)
    return ExpDecay(tail.rate, tail.power)


def apply(matrix: OperatorMatrix, profile: RadialProfile) -> RadialProfile:
    """Apply the operator, producing a profile with transferred annotations.

    Output = weights @ values + origin column * values[0] + tail column *
    values[-1].  The origin exponent moves through the rate-transfer rules
    (minus alpha for Riesz, minus 2 for Green, clamped at bounded); the tail
    becomes the kernel's own decay for Green and the algebraic r^{alpha-N}
    falloff for Riesz.  If the declared origin exponent disagrees with the
    slope of the first two nodes by more than 0.5, the output profile is
    flagged (annotation_warning) but still produced.
    """
    if profile.grid is not matrix.grid and not np.array_equal(
            profile.grid.nodes, matrix.grid.nodes):
        raise ValueError("profile grid does not match operator grid")
    if profile.is_zero():
        return RadialProfile(profile.grid, np.zeros(profile.grid.size),
                             origin_exponent=0.0, tail=ZERO_TAIL)

    warn = profile.annotation_warning
    v = profile.values
    if v[0] > 0.0 and v[1] > 0.0:
        slope = math.log(v[0] / v[1]) / matrix.grid.log_step
        if abs(slope - profile.origin_exponent) > 0.5:
            warn = True

    out = matrix.weights @ v
    out = out + matrix.origin_column(profile.origin_exponent) * v[0]
    out = out + matrix.tail_column(profile.tail) * v[-1]
    out = np.maximum(out, 0.0)

    if matrix.kind == "riesz":
        sigma = _riesz_sigma_out(profile.origin_exponent, matrix.alpha)
        tail: TailModel = ExpDecay(0.0, matrix.N - matrix.alpha)
    else:
        sigma = _green_sigma_out(profile.origin_exponent)
        tail = _green_tail_out(matrix.N, profile.tail)
    return RadialProfile(matrix.grid, out, origin_exponent=sigma, tail=tail,
                         annotation_warning=warn)


# ---------------------------------------------------------------------------
# pointwise algebra with annotation bookkeeping


def pointwise_power(profile: RadialProfile, e: float) -> RadialProfile:
    """Nodewise power; origin exponent and tail scale by e (e >= 0)."""
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    values = profile.values ** e
    if isinstance(profile.tail, ZeroTail):
        tail: TailModel = ZERO_TAIL if e > 0 else ExpDecay(0.0, 0.0)
    else:
        tail = ExpDecay(profile.tail.rate * e, profile.tail.power * e)
    return RadialProfile(profile.grid, values,
                         origin_exponent=profile.origin_exponent * e,
                         tail=tail,
                         annotation_warning=profile.annotation_warning)


def _combine_tails_product(a: TailModel, b: TailModel) -> TailModel:
    if isinstance(a, ZeroTail) or isinstance(b, ZeroTail):
        return ZERO_TAIL
    return ExpDecay(a.rate + b.rate, a.power + b.power)


def _slower_tail(a: TailModel, b: TailModel) -> TailModel:
    if isinstance(a, ZeroTail):
        return b
    if isinstance(b, ZeroTail):
        return a
    if (a.rate, a.power) <= (b.rate, b.power):
        return a
    return b


def _check_same_grid(a: RadialProfile, b: RadialProfile):
    if a.grid is not b.grid and not np.array_equal(a.grid.nodes, b.grid.nodes):
        raise ValueError("profiles live on different grids")


def pointwise_product(a: RadialProfile, b: RadialProfile) -> RadialProfile:
    """Nodewise product; origin exponents add, tail rates and powers add."""
    _check_same_grid(a, b)
    return RadialProfile(a.grid, a.values * b.values,
                         origin_exponent=a.origin_exponent + b.origin_exponent,
                         tail=_combine_tails_product(a.tail, b.tail),
                         annotation_warning=a.annotation_warning
                         or b.annotation_warning)


def pointwise_add(a: RadialProfile, b: RadialProfile) -> RadialProfile:
    """Nodewise sum; the worse singularity and the slower tail win."""
    _check_same_grid(a, b)
    return RadialProfile(a.grid, a.values + b.values,
                         origin_exponent=max(a.origin_exponent,
                                             b.origin_exponent),
                         tail=_slower_tail(a.tail, b.tail),
                         annotation_warning=a.annotation_warning
                         or b.annotation_warning)


def pointwise_scale(profile: RadialProfile, c: float) -> RadialProfile:
    """Nonnegative scalar multiple; c = 0 collapses to the zero profile."""
    if c < 0:
        raise ValueError(f"scale must be >= 0, got {c}")
    if c == 0.0:
        return RadialProfile(profile.grid, np.zeros(profile.grid.size),
                             origin_exponent=0.0, tail=ZERO_TAIL)
    return replace(profile, values=profile.values * c)
