"""Radial integral operators on geometric grids by product integration.

A radial function is carried as nodal values on a geometric grid plus two
annotations: a power-law model (r/r_1)^{-sigma} below the first node and a
tail model beyond the last.  The Riesz potential and the Green operator of
-Delta + 1 are product-integration rules whose weights are exact integrals
of the reduced radial kernel against piecewise-linear hat functions in
log r, so every weight is nonnegative and nodewise comparisons survive the
operators exactly.  That preservation is what the monotone solver leans on.

Neither operator is stored as a matrix; each is held in one of two
factored forms.  The Green kernel factors as y0(min) yinf(max) across the
diagonal, with (y0, yinf) = kernels.green_halfline_factors, and so does the
order-2 Riesz kernel, the Newtonian potential: its spherical average is
|S^{N-1}| max(r, s)^{2-N} (Newton's shell theorem), so (y0, yinf) =
(|S^{N-1}|, r^{2-N}).  Both are semiseparable, and applying them is one
suffix and one prefix sum of per-node moments.  Every other Riesz kernel
is homogeneous, r^{alpha-N} shape(s/r) with shape(rho) =
kernels.riesz_angular(N, alpha, 1, rho), so the hat integrals depend only
on the log-distance l - i between output node and input node: the weights
are r_i^alpha times one Toeplitz family over the interior nodes, plus one
column each for the end nodes, and applying them is one correlation.
Either way each output is a fixed-order sum of nonnegative products, which
keeps rounding monotone in the input.

Each annotation is one integral of the kernel against a 1-D density, so
each grid end has one quadrature rule (s, w) with the density folded into
w, and one evaluator turns any rule into a column: in the Toeplitz form
the Riesz row evaluator, which also gives every Toeplitz cell as one row
of a single cell's rule, and one factor at the nodes times the moment of
the other in the semiseparable form.  Row 0 meets the kernel's
diagonal singularity at s = r_1 and row M-1 at s = r_max, so both rules
grade their panels into that end, as do the two Toeplitz cells that touch
the diagonal.  Columns are cached per (end, model parameters); factors and
columns are checked finite and nonnegative when built.  Every Gauss rule,
Legendre's (beta = 0) too, is _jacobi01's, cached and read-only.

Away from the diagonal the Toeplitz form never evaluates the shape point
by point.  Its 2F1 is F(rho^2) with rho = min/max <= 1, and wherever
every rho^2 a row meets is at most 1/2, F's Gauss series (A&S 15.1.1)
converges at least like 2^{-j}: the row is then sum_j f_j m_j x^j, with
f_j = riesz_gauss_coefficients, m_j the rule's moments and x the row's
largest rho^2, summed by Horner's rule.  That is a far-field expansion
(Greengard & Rokhlin, J. Comput. Phys. 73, 1987), formed once per column
and once per assembly.  Only the at most ln 2 / (2h) rows next to a
rule's grid end and the ln 2 / h offsets around the diagonal call
riesz_angular.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .exponents import SingularityRate, riesz_rate
from .kernels import (
    FAR_FIELD_Z,
    green_halfline_factors,
    green_yinf,
    horner,
    riesz_angular,
    riesz_gauss_coefficients,
    unit_sphere_area,
)

__all__ = [
    "RadialGrid", "RadialProfile", "ExpDecay", "ZeroTail", "OperatorMatrix",
    "NonIntegrableOriginError", "build_grid", "assemble", "apply",
    "transfer_origin_exponent", "origin_slope_disagrees",
    "pointwise_power", "pointwise_product",
]


# ---------------------------------------------------------------------------
# grid and profile types


@dataclass(frozen=True)
class RadialGrid:
    """Geometric grid, equal by value: nodes r_min e^{ih}, i < size - 1,
    h = log_step, then r_max, in Python floats and libm, so no numpy SIMD
    loop sets their bits; h halves exactly as size - 1 doubles, so finer
    grids nest."""

    r_min: float
    r_max: float
    size: int

    def __post_init__(self):
        _check_span(self.r_min, self.r_max)
        if not (isinstance(self.size, int) and self.size >= 2):
            raise ValueError(f"a grid needs an integer size of at least 2, "
                             f"got {self.size!r}")
        step = self.log_step
        nodes = np.array([self.r_min * math.exp(i * step)
                          for i in range(self.size - 1)] + [self.r_max])
        if not np.all(nodes[1:] > nodes[:-1]):
            raise ValueError(f"grid span ({self.r_min}, {self.r_max}) too "
                             f"short for {self.size} distinct nodes")
        nodes.setflags(write=False)
        # not a field, so == and hash see (r_min, r_max, size) alone
        object.__setattr__(self, "nodes", nodes)

    @property
    def log_step(self) -> float:
        """Uniform spacing in ln r."""
        return math.log(self.r_max / self.r_min) / (self.size - 1)


def _check_span(r_min: float, r_max: float) -> None:
    # written to fail on NaN
    if not (0.0 < r_min < r_max and math.isfinite(r_max / r_min)):
        raise ValueError(f"need 0 < r_min < r_max with a finite ratio, got "
                         f"({r_min}, {r_max})")


def build_grid(r_min: float, r_max: float,
               points_per_decade: int) -> RadialGrid:
    """Geometric grid with points_per_decade * log10(r_max/r_min) + 1 nodes."""
    _check_span(r_min, r_max)
    if points_per_decade < 1:
        raise ValueError(
            f"points_per_decade must be >= 1, got {points_per_decade}")
    return RadialGrid(r_min, r_max,
                      round(points_per_decade * math.log10(r_max / r_min)) + 1)


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
        if not math.isfinite(self.rate):
            raise ValueError(f"decay rate must be finite, got {self.rate}")
        if self.rate < 0.0:
            raise ValueError(f"decay rate must be >= 0, got {self.rate}")
        if not math.isfinite(self.power):
            raise ValueError(f"tail power must be finite, got {self.power}")


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
    values[-1].  annotation_warning is set when a declared sigma disagrees
    with the observed near-origin slope: by apply(), and by the step map
    (Discretization.image, through iterate_once).
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
        sigma = self.origin_exponent
        if not math.isfinite(sigma):
            raise ValueError(f"origin exponent must be finite, got {sigma}")
        if sigma < 0.0:
            raise ValueError(f"origin exponent must be >= 0, got {sigma}")

    @property
    def sup(self) -> float:
        return float(self.values.max(initial=0.0))


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
def _jacobi01(n: int, beta: float):
    """Nodes/weights for int_0^1 x^beta f(x) dx, beta > -1 (read-only).

    Golub-Welsch (Math. Comp. 23, 1969): the nodes are the eigenvalues of
    the Jacobi matrix of the weight x^beta on [0, 1], polished by Newton's
    method on the three-term recurrence of its orthonormal polynomials
    p_k; the weights are the Christoffel numbers 1 / sum_{k<n} p_k(x)^2,
    positive by construction.
    """
    # the Jacobi (0, beta) recurrence on [-1, 1] mapped by x -> (1 + x)/2:
    # off[j-1] p_j = (x - diag[j-1]) p_{j-1} - off[j-2] p_{j-2}
    j = np.arange(1.0, n + 1.0)
    s = 2.0 * j + beta
    diag = 0.5 + 0.5 * np.append(beta / (beta + 2.0),
                                 beta * beta / (s[:-1] * (s[:-1] + 2.0)))
    off = np.sqrt(j * j * (j + beta) ** 2 / (s * s * (s + 1.0) * (s - 1.0)))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off[:-1], -1))

    def recurrence(x):
        """(p_n, p_n', sum_{k<n} p_k^2) at x."""
        p_prev, p = np.zeros_like(x), np.full_like(x, math.sqrt(beta + 1.0))
        dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
        squares = p * p
        for i in range(n):
            back = off[i - 1] if i else 0.0
            p_prev, p = p, ((x - diag[i]) * p - back * p_prev) / off[i]
            dp_prev, dp = dp, (p_prev + (x - diag[i]) * dp
                               - back * dp_prev) / off[i]
            if i < n - 1:
                squares += p * p
        return p, dp, squares

    for _ in range(2):
        p, dp, _ = recurrence(x)
        x = x - p / dp
    return _read_only(x, 1.0 / recurrence(x)[2])


# graded rules: panel count, and width ratio of each panel to the one before
_GRADED_PANELS = 12
_GRADING_RATIO = 0.5


def _graded_panels(a: float, b: float, toward_b: bool):
    """Panel edges grading geometrically toward one endpoint."""
    widths = _GRADING_RATIO ** np.arange(_GRADED_PANELS)
    widths = widths / widths.sum() * (b - a)
    if toward_b:
        edges = a + np.concatenate(([0.0], np.cumsum(widths)))
    else:
        edges = b - np.concatenate(([0.0], np.cumsum(widths)))[::-1]
    edges[0], edges[-1] = a, b
    return edges


def _panel_rule(edges: np.ndarray, n: int):
    """Composite n-point Gauss-Legendre rule over consecutive panels."""
    x, w = _jacobi01(n, 0.0)
    widths = np.diff(edges)[:, None]
    return (edges[:-1, None] + widths * x).ravel(), (widths * w).ravel()


def _require_nonnegative(what: str, values: np.ndarray) -> np.ndarray:
    """values unchanged, or ValueError if an entry is negative, NaN or inf."""
    lowest, highest = values.min(), values.max()
    if not lowest >= 0.0:
        raise ValueError(f"{what} must be >= 0, found {lowest:g}")
    if not math.isfinite(highest):
        raise ValueError(f"{what} must be finite, found {highest:g}")
    return values


def _gauss_sum(coefs: np.ndarray, weights: np.ndarray, z: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """sum_k weights[..., k] sum_j coefs_j (x z_k)^j at each x, shape
    weights.shape[:-1] + x.shape: the rule's moments m_j = sum_k
    weights[..., k] z_k^j, taken by repeated products so that no array of
    rule points by terms is formed, then sum_j coefs_j m_j x^j by Horner's
    rule."""
    terms = np.empty((coefs.size,) + weights.shape[:-1])
    power = np.array(weights, dtype=float)
    for j, coef in enumerate(coefs):
        terms[j] = coef * power.sum(axis=-1)
        power *= z
    return horner(x, terms[..., None])


# block sizes of the assembly, fixed so that no temporary grows with the
# grid.  A moment block is 128 cells, 2048 rule points: the K_0/K_1
# series hold 14 coefficients per point of a block.  The BLAS
# matrix-vector product groups rows by four (blocks of 1, 2, 3, 5 or 7
# cells change bits), so with a multiple of 4 every cell gets the bits of
# one product over all cells.  A near-row block is one riesz_angular call
# of at most 4200 rule points, 25 rows of the 168-point origin rule and 175
# of a 24-point cell rule; each call pays about 0.15 ms whatever its size
# (on a 2-vCPU x86-64 host), which smaller blocks multiply
_MOMENT_BLOCK = 128
_NEAR_BLOCK_POINTS = 4200


# y0(r) = r^{1-N/2} I_{N/2-1}(r) carries e^r, which leaves the float range
# just past ln(DBL_MAX) = 709.78
GREEN_R_LIMIT = 709.78


# ---------------------------------------------------------------------------
# operators


class OperatorMatrix:
    """Discretized radial integral operator (kind "riesz" or "green").

    The product weight w[i, l] is the contribution of the nodal value f_l
    to the output at r_i from the grid interval [r_1, r_max]; the origin
    cell and the tail are added per profile from its annotations.  The
    weights are held as their O(M) factors (see matvec), all checked
    finite and >= 0: semiseparable for Green and for Riesz at alpha = 2,
    Toeplitz for every other alpha.
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
        # ("origin", sigma) or ("tail", tail model) -> column, keyed exactly
        self._columns: dict[tuple, np.ndarray] = {}
        self._semiseparable = kind == "green" or alpha == 2.0
        factors = (self._semiseparable_factors() if self._semiseparable
                   else self._toeplitz_factors())
        _require_nonnegative(f"{kind} product weights",
                             np.concatenate(factors))
        self._factors = _read_only(*factors)

    # -- grid-part weights in factored form

    def matvec(self, values: np.ndarray, origin: np.ndarray,
               tail: np.ndarray) -> np.ndarray:
        """Nodal output for nodal input values, whose origin cell and tail
        contribute the columns origin and tail (see origin_column and
        tail_column) scaled by the first and last value."""
        if self._semiseparable:
            out = self._semiseparable_grid_part(values)
        else:
            out = self._toeplitz_grid_part(values)
        out += origin * values[0]
        out += tail * values[-1]
        return out

    def _toeplitz_grid_part(self, v: np.ndarray) -> np.ndarray:
        """r_i^alpha (sum over interior l of T(l - i) v_l + A(-i) v_0
        + B(M-2-i) v_{M-1}), the interior sum as one correlation."""
        r_alpha, toeplitz, first, last = self._factors
        if v.size > 2:
            # correlate gives c_j = sum_n T[n + j] v[n + 1], and row i
            # reads T(l - i) at index l - i + M - 2, so row i is c_{M-1-i}
            inner = np.correlate(toeplitz, v[1:-1])[::-1]
        else:
            inner = 0.0
        return r_alpha * (inner + first * v[0] + last * v[-1])

    def _toeplitz_factors(self):
        """(r_i^alpha, T, first, last): w[i, l] = r_i^alpha T(l - i) for
        interior l with T(d) = A(d) + B(d - 1), w[i, 0] = r_i^alpha A(-i)
        and w[i, M-1] = r_i^alpha B(M-2-i).

        Node l is the left node of cell l (A; none for l = M-1) and the
        right node of cell l-1 (B; none for l = 0).  A and B are indexed
        from offset -(M-1), so T runs over d = 2-M .. M-2.
        """
        m = self.grid.size
        A, B = self._riesz_cell_integrals()
        return (self.grid.nodes ** self.alpha, A[1:] + B[:-1],
                A[m - 1::-1], B[m - 2:][::-1])

    def _riesz_cell_integrals(self):
        """Toeplitz hat integrals: cell j to node pair, offset k = j - i.

        With s = r_i e^{h(k+x)} the cell integral against a hat factor
        phi is r_i^alpha * integral over x of phi(x) * shape(e^{h(k+x)}) *
        e^{h(k+x)N} * h, independent of i.  The kernel is homogeneous, so
        that is e^{hk alpha} times row e^{-hk} of one cell's rule: s =
        e^{hx}, weights phi(x) h s^N.  The shape has a weak kink and, for
        alpha < 2, an algebraic singularity at rho = 1 (x = -k), so the two
        cells touching the diagonal use panels graded into that corner and
        are taken from row 1, their rule placed at cell k: from row e^{-hk}
        the rounding of rho next to the diagonal would be amplified by
        (1 - rho^2)^{alpha-1}.
        """
        h, N = self.grid.log_step, self.N
        ks = np.arange(-(self.grid.size - 1), self.grid.size - 1)

        def rule(x, w, k):
            s = np.exp(h * (k + x))
            return s, np.stack((w * (1.0 - x), w * x)) * (h * s ** N)

        cells = np.empty((2, ks.size))
        regular = (ks != 0) & (ks != -1)
        cells[:, regular] = np.exp(h * self.alpha * ks[regular]) \
            * self._riesz_rows(np.exp(-h * ks[regular]),
                               *rule(*_jacobi01(24, 0.0), 0.0))
        # the corner is x = 0 in cell k = 0 and x = 1 in cell k = -1
        for k, toward_b in ((0, False), (-1, True)):
            x, w = _panel_rule(_graded_panels(0.0, 1.0, toward_b), 12)
            cells[:, ks == k] = self._riesz_rows(np.ones(1), *rule(x, w, k))
        return cells[0], cells[1]

    def _semiseparable_grid_part(self, v: np.ndarray) -> np.ndarray:
        """y0_i (sum_{l>i} P_l v_l + PA_i v_i)
        + yinf_i (sum_{l<i} Q_l v_l + QB_i v_i), by a suffix and a prefix
        sum that run in a fixed order.  np.add.accumulate is cumsum's
        loop without its wrapper, and one scratch array takes each of the
        four factor products in turn."""
        y0, yinf, P, Q, PA, QB = self._factors
        above = np.empty(v.size)
        below = np.empty(v.size)
        scratch = np.empty(v.size)
        above[-1] = below[0] = 0.0
        np.multiply(P, v, out=scratch)
        np.add.accumulate(scratch[:0:-1], out=above[-2::-1])
        np.multiply(Q, v, out=scratch)
        np.add.accumulate(scratch[:-1], out=below[1:])
        above += np.multiply(PA, v, out=scratch)
        above *= y0
        below += np.multiply(QB, v, out=scratch)
        below *= yinf
        above += below
        return above

    def _halves(self, r: np.ndarray):
        """(y0, yinf) at r: the kernel is y0(min(r, s)) yinf(max(r, s))."""
        if self.kind == "green":
            return green_halfline_factors(self.N, r)
        # Newton's shell theorem: the order-2 average is |S^{N-1}|
        # max(r, s)^{2-N}, as riesz_angular's 2F1 is 1 at alpha = 2
        return np.full(r.shape, unit_sphere_area(self.N)), self._yinf(r)

    def _yinf(self, r: np.ndarray) -> np.ndarray:
        """yinf alone, for rules beyond r_max, where the Green y0 grows
        like e^s and leaves the float range."""
        if self.kind == "green":
            return green_yinf(self.N, r)
        return r ** (2.0 - self.N)

    def _semiseparable_factors(self):
        """(y0, yinf, P, Q, PA, QB) at the nodes: w[i, l] = y0_i P_l above
        the diagonal, yinf_i Q_l below it, y0_i PA_i + yinf_i QB_i on it.

        Node l is the left node of cell l (PA, QA; none for l = M-1) and
        the right node of cell l-1 (PB, QB; none for l = 0); P and Q add
        both cells' yinf and y0 moments, and the diagonal node splits
        between its outer cell (PA) and its inner one (QB).
        """
        y0_n, yinf_n, PA, PB, QA, QB = self._cell_moments()
        if not math.isfinite(y0_n[-1]):
            raise ValueError(
                f"green factor y0(r) overflows at r_max = "
                f"{self.grid.r_max:g}; it is finite only below r = "
                f"{GREEN_R_LIMIT}")
        PA_l = np.append(PA, 0.0)
        QB_l = np.append(0.0, QB)
        return (y0_n, yinf_n, PA_l + np.append(0.0, PB),
                np.append(QA, 0.0) + QB_l, PA_l, QB_l)

    def _cell_moments(self):
        """y0 and yinf at the nodes, and the per-cell moments of yinf (PA,
        PB) and y0 (QA, QB) against the left and right hat factors.

        Every cell lies wholly on one side of each node, so a cell above
        r_i meets the kernel as y0_i yinf(s) and a cell below it as
        yinf_i y0(s).  The cells are integrated _MOMENT_BLOCK at a time,
        so no temporary grows with the grid.
        """
        grid = self.grid
        nodes = grid.nodes
        y0_n, yinf_n = self._halves(nodes)

        x16, w16 = _jacobi01(16, 0.0)
        hats = (w16 * (1.0 - x16), w16 * x16)
        moments = np.empty((4, grid.size - 1))      # PA, PB, QA, QB
        for start in range(0, grid.size - 1, _MOMENT_BLOCK):
            edges = nodes[start:start + _MOMENT_BLOCK + 1, None]
            # quadrature nodes per cell, (cells, 16), by its own node ratio
            ratio = edges[1:] / edges[:-1]
            s = edges[:-1] * ratio ** x16[None, :]
            y0_s, yinf_s = self._halves(s.ravel())
            meas = s ** self.N * np.log(ratio)  # s^{N-1} ds = s^N h_l dx
            moments[:, start:start + s.shape[0]] = [
                (factor.reshape(s.shape) * meas) @ hat
                for factor in (yinf_s, y0_s) for hat in hats]
        return (y0_n, yinf_n, *moments)

    # -- origin and tail columns: one rule per grid end

    def origin_column(self, sigma: float) -> np.ndarray:
        """Column c with c_i = integral over (0, r_1) of the sigma-model
        against the kernel, normalized to unit value at r_1."""
        sigma = float(sigma)
        if sigma < 0:
            raise ValueError("origin exponent must be >= 0")
        if sigma >= self.N:
            raise NonIntegrableOriginError(self.kind, sigma, self.N)
        return self._cached_column(("origin", sigma),
                                   lambda: self._origin_rule(sigma))

    def tail_column(self, tail: TailModel) -> np.ndarray:
        """Column c with c_i = integral beyond r_max of the tail model
        against the kernel, normalized to unit value at r_max."""
        if isinstance(tail, ZeroTail):
            return np.zeros(self.grid.size)
        return self._cached_column(("tail", tail),
                                   lambda: self._tail_rule(tail))

    def _cached_column(self, key: tuple, rule) -> np.ndarray:
        if key not in self._columns:
            self._columns[key] = _require_nonnegative(
                f"{self.kind} {key[0]} column", self._column(*rule()))
        return self._columns[key]

    def _column(self, s: np.ndarray, w: np.ndarray) -> np.ndarray:
        """c_i = sum_k w_k K(r_i, s_k) for a rule (s, w) that lies wholly
        below r_1 or wholly beyond r_max, density already folded into w."""
        if self._semiseparable:
            # kernel y0(min) yinf(max): the rule's moment times one factor
            y0_n, yinf_n = self._factors[:2]
            if s[0] > self.grid.r_max:
                return y0_n * (self._yinf(s) @ w)
            return yinf_n * (self._halves(s)[0] @ w)
        return self._riesz_rows(self.grid.nodes, s, w)

    def _riesz_rows(self, r: np.ndarray, s: np.ndarray,
                    w: np.ndarray) -> np.ndarray:
        """sum_k w[..., k] K(r_i, s_k), shape w.shape[:-1] + r.shape, for
        rows r that each lie wholly below or wholly above the rule (s, w).

        K is |S^{N-1}| max(r, s)^{alpha-N} F(rho^2), F the Riesz 2F1: a row
        below the rule meets s^{alpha-N} F(x_i (s_min/s)^2), a row above
        it r_i^{alpha-N} F(x_i (s/s_max)^2), where x_i is the largest rho^2
        the row meets.  Far rows, x_i <= FAR_FIELD_Z, sum F's Gauss series
        against the rule's moments on their side; the near rows evaluate
        riesz_angular at each point of the rule.
        """
        N, alpha = self.N, self.alpha
        lo, hi = s.min(), s.max()
        below = r < lo
        x = np.where(below, (r / lo) ** 2, (hi / r) ** 2)
        power = r ** (alpha - N)
        far = x <= FAR_FIELD_Z
        out = np.empty(w.shape[:-1] + r.shape)
        for side, weights, z in ((far & below, w * s ** (alpha - N),
                                  (lo / s) ** 2),
                                 (far & ~below, w, (s / hi) ** 2)):
            if side.any():
                out[..., side] = unit_sphere_area(N) * _gauss_sum(
                    riesz_gauss_coefficients(N, alpha), weights, z, x[side]) \
                    * np.where(below, 1.0, power)[side]
        # the near rows' kernel is filled _NEAR_BLOCK_POINTS rule points at
        # a time and reduced by one product, so each row sums as in one call
        near = np.flatnonzero(~far)
        rows = _NEAR_BLOCK_POINTS // s.size
        kernel = np.empty((near.size, s.size))
        for start in range(0, near.size, rows):
            block = near[start:start + rows]
            kernel[start:start + block.size] = riesz_angular(
                N, alpha, 1.0, s / r[block, None])
        out[..., near] = (kernel @ w.T).T * power[near]
        return out

    def _origin_rule(self, sigma: float):
        """Rule for the density (s/r_1)^{-sigma} s^{N-1} on (0, r_1).

        Jacobi on (0, r_1/2) carries the s^{N-1-sigma} weight; panels
        graded into r_1 carry the kernel's singularity at s = r_1 = r_i
        for row 0.
        """
        N, r1 = self.N, self.grid.r_min
        xj, wj = _jacobi01(24, N - 1.0 - sigma)
        s, w = _panel_rule(_graded_panels(0.5 * r1, r1, toward_b=True), 12)
        return (np.concatenate((0.5 * r1 * xj, s)),
                np.concatenate(((0.5 * r1) ** (N - sigma) * r1 ** sigma * wj,
                                w * (s / r1) ** (-sigma) * s ** (N - 1))))

    def _tail_rule(self, tail: ExpDecay):
        """Rule for the density f(s) s^{N-1} beyond r_max, where f(s) =
        (s/r_max)^{-power} e^{-rate (s - r_max)} is the tail model.

        Both rules grade into r_max, where row M-1 of the Riesz kernel is
        singular: the exponential rule over its first decay length, the
        algebraic one over u = r_max/s in (1/2, 1).
        """
        N, rmax = self.N, self.grid.r_max
        # the Green kernel's own e^{-s} decay sets its length scale
        decay = tail.rate + (1.0 if self.kind == "green" else 0.0)
        if decay > 0.0:
            # doubling panels stop at 32 t0, where the integrand has
            # fallen by e^{-48}
            t0 = 1.5 / decay
            s_near, w_near = _panel_rule(
                _graded_panels(rmax, rmax + t0, toward_b=False), 6)
            s_far, w_far = _panel_rule(rmax + t0 * 2.0 ** np.arange(6), 12)
            s = np.concatenate((s_near, s_far))
            dens = (s / rmax) ** (-tail.power) \
                * np.exp(-tail.rate * (s - rmax)) * s ** (N - 1)
            return s, np.concatenate((w_near, w_far)) * dens
        # algebraic Riesz tail: s = rmax/u turns the density into
        # rmax^N u^{power-N-1} du on (0, 1), and Jacobi on (0, 1/2) carries
        # its u^beta part, beta = power - alpha - 1 (the kernel supplies
        # u^{N-alpha} as u -> 0); that needs power > alpha to converge
        alpha = self.alpha
        if tail.power <= alpha + 1e-12:
            raise ValueError(
                f"algebraic tail with power {tail.power:g} is not integrable "
                f"against the order-{alpha:g} Riesz kernel beyond r_max; "
                f"need power > alpha")
        beta = tail.power - alpha - 1.0
        xj, wj = _jacobi01(32, beta)
        u_near, w_near = _panel_rule(
            _graded_panels(0.5, 1.0, toward_b=True), 6)
        u = np.concatenate((0.5 * xj, u_near))
        q = np.concatenate((0.5 ** (beta + 1.0) * wj, w_near * u_near ** beta))
        return rmax / u, rmax ** N * q * u ** (alpha - N)


def assemble(kind: str, N: int, grid: RadialGrid,
             alpha: Optional[float] = None) -> OperatorMatrix:
    """Build the operator for the given kind ("riesz" needs alpha)."""
    return OperatorMatrix(kind, N, grid, alpha)


# ---------------------------------------------------------------------------
# annotation transfer


def transfer_origin_exponent(sigma: Fraction, N: int,
                             alpha: Fraction) -> Fraction:
    """Origin exponent of the order-alpha Riesz potential (alpha 2: of the
    Green operator) of an input modelled as r^{-sigma}, sigma in [0, N), by
    the exact rule exponents.riesz_rate.

    The model has no log rate, so the log a tie (sigma == alpha, or 2)
    leaves is modelled as sigma = 0: a cell flat at values[0] ~ log(1/r_1),
    short of the cell's mass by the fraction 1/(1 + N log(1/r_1)).
    """
    out = riesz_rate(SingularityRate.power(sigma), N, alpha)
    return out.exponent if out.kind == "power" else Fraction(0)


def _check_same_grid(a, b) -> None:
    """ValueError unless a and b (profiles or operators) share one grid."""
    if a.grid != b.grid:
        raise ValueError("the grids differ")


def _green_tail_out(N: int, tail: TailModel) -> TailModel:
    if isinstance(tail, ZeroTail) or tail.rate > 1.0:
        return ExpDecay(1.0, (N - 1) / 2.0)
    if tail.rate == 1.0:
        return ExpDecay(1.0, tail.power - 1.0)
    return tail


def origin_slope_disagrees(values: np.ndarray, origin_exponent: float,
                           log_step: float) -> bool:
    """True when the declared origin exponent is more than 0.5 off the
    slope of the first two nodes (only judged where both are positive)."""
    if values[0] > 0.0 and values[1] > 0.0:
        # two logs, not the log of a ratio that can overflow or underflow
        slope = (math.log(values[0]) - math.log(values[1])) / log_step
        return abs(slope - origin_exponent) > 0.5
    return False


def apply(matrix: OperatorMatrix, profile: RadialProfile) -> RadialProfile:
    """Apply the operator, producing a profile with transferred annotations.

    The origin and tail columns are the ones the profile's annotations
    select.  The origin exponent moves through transfer_origin_exponent;
    the tail becomes the kernel's own decay for Green and the algebraic
    r^{alpha-N} falloff for Riesz.  A declared origin exponent more than
    0.5 off the slope of the first two nodes flags the output
    (annotation_warning), and so does a flagged input.
    """
    _check_same_grid(profile, matrix)
    v = profile.values
    warn = profile.annotation_warning or origin_slope_disagrees(
        v, profile.origin_exponent, matrix.grid.log_step)
    # the origin column refuses a non-integrable sigma before the transfer
    out = matrix.matvec(v, matrix.origin_column(profile.origin_exponent),
                        matrix.tail_column(profile.tail))

    riesz = matrix.kind == "riesz"
    sigma = transfer_origin_exponent(Fraction(profile.origin_exponent),
                                     matrix.N, Fraction(matrix.alpha) if riesz
                                     else Fraction(2))
    tail = (ExpDecay(0.0, matrix.N - matrix.alpha) if riesz
            else _green_tail_out(matrix.N, profile.tail))
    return RadialProfile(matrix.grid, out, origin_exponent=float(sigma),
                         tail=tail, annotation_warning=warn)


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


def pointwise_product(a: RadialProfile, b: RadialProfile) -> RadialProfile:
    """Nodewise product; origin exponents add, tail rates and powers add."""
    _check_same_grid(a, b)
    tail: TailModel = ZERO_TAIL
    if isinstance(a.tail, ExpDecay) and isinstance(b.tail, ExpDecay):
        tail = ExpDecay(a.tail.rate + b.tail.rate,
                        a.tail.power + b.tail.power)
    return RadialProfile(a.grid, a.values * b.values,
                         origin_exponent=a.origin_exponent + b.origin_exponent,
                         tail=tail,
                         annotation_warning=a.annotation_warning
                         or b.annotation_warning)
