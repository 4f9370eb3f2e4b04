"""Slow, independent oracles the tests check the fast paths against.

Everything here goes back to first definitions: adaptive quadrature of the
angular integrals, direct two-dimensional quadrature of the Riesz potential
and of the Green operator, and finite-difference residuals of the radial
ODE.  Nothing here shares code with the closed-form kernels or the
product-integration weights it checks: the Green quadratures evaluate
Gamma_0 from scipy's Bessel K, not from gamma0.

Two closed forms only the tests use live here too: green_angular, the
Bessel-product Green kernel (itself checked against green_angular_quad)
that the operator's separable factors are checked against, and
tangency_admissible, the barrier inequality that k_threshold's tangency
point is checked against.

The direct Riesz column and cell integrals are the other exception: they
evaluate riesz_angular at every (row, rule point) pair over the
operator's own rules, which is how the assembly worked before it summed
the far rows and cells from the rules' moments, and they stay the
reference for those sums.  riesz_angular_to_the_diagonal is one more: it
calls riesz_angular outside the zone next to the diagonal that
riesz_angular refuses, and takes the back-off or Gauss's sum inside it,
for the tests that sample that zone.  semiseparable_matvec_loop is one
more: the semiseparable matvec as a plain loop in its documented order of
summation, which the fast path must match bit for bit.
"""

import math
from typing import Optional

import numpy as np
from scipy import integrate, special

from choqlab import kernels, operators
from choqlab.kernels import riesz_angular, unit_sphere_area


def riesz_angular_quad(N: int, alpha: float, r: float, s: float) -> float:
    """Direct adaptive quadrature of the defining angular integral."""
    om = unit_sphere_area(N - 1)

    def integrand(theta):
        d2 = r * r + s * s - 2.0 * r * s * math.cos(theta)
        return math.sin(theta) ** (N - 2) * d2 ** ((alpha - N) / 2.0)

    val, _ = integrate.quad(integrand, 0.0, math.pi, limit=300,
                            points=[0.0] if abs(r - s) < 1e-8 * (r + s) else None)
    return om * val


# relative separation at which riesz_angular_to_the_diagonal evaluates a
# divergent (alpha <= 1) kernel inside riesz_angular's diagonal zone
_DIAGONAL_BACKOFF = 5e-4


def riesz_angular_to_the_diagonal(N: int, alpha: float, r, s):
    """riesz_angular, extended into the zone 1 - rho^2 < 1e-12 it refuses.

    There the kernel takes its value on the diagonal: for alpha > 1 that
    is Gauss's sum 2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a)
    Gamma(c-b)), within about (1e-12)^{alpha-1} relative of the value at
    rho; for alpha <= 1, where the kernel diverges, it backs off to a
    relative separation of 5e-4.  For the tests that sample the zone:
    quadratures and property tests that may land on r = s.
    """
    r, s = np.broadcast_arrays(np.asarray(r, dtype=float),
                               np.asarray(s, dtype=float))
    hi, lo = np.maximum(r, s), np.minimum(r, s)
    zone = 1.0 - (lo / hi) ** 2 < kernels._DIAGONAL_ZONE
    out = np.empty(hi.shape)
    out[~zone] = riesz_angular(N, alpha, hi[~zone], lo[~zone])
    if alpha > 1.0:
        a, b, c = (N - alpha) / 2.0, (2.0 - alpha) / 2.0, N / 2.0
        gauss = math.gamma(c) * math.gamma(alpha - 1.0) \
            / (math.gamma(c - a) * math.gamma(c - b))
        out[zone] = unit_sphere_area(N) * hi[zone] ** (alpha - N) * gauss
    else:
        out[zone] = riesz_angular(N, alpha, hi[zone],
                                  (1.0 - _DIAGONAL_BACKOFF) * hi[zone])
    return float(out) if out.ndim == 0 else out


def green_angular_quad(N: int, r: float, s: float) -> float:
    """Direct adaptive quadrature of the angular average of Gamma_0.

    Gamma_0(d) = (2 pi)^{-N/2} d^{1-N/2} K_{N/2-1}(d), the formula in
    gamma0's docstring, with scipy's K, at the distance d = |x - y| =
    sqrt((r - s)^2 + 4 r s sin^2(theta/2)), which does not cancel near
    theta = 0.
    """
    om = unit_sphere_area(N - 1)
    nu = N / 2.0 - 1.0
    scale = (2.0 * math.pi) ** (-N / 2.0)

    def integrand(theta):
        d = math.sqrt((r - s) ** 2 + 4.0 * r * s * math.sin(0.5 * theta) ** 2)
        return math.sin(theta) ** (N - 2) * scale * d ** -nu \
            * float(special.kv(nu, d))

    val, _ = integrate.quad(integrand, 0.0, math.pi, limit=300)
    return om * val


def riesz_apply_direct(N: int, alpha: float, f, r: float,
                       s_max: float = np.inf) -> float:
    """I_alpha[f](r) for radial f by nested adaptive quadrature.

    Integrates f(s) s^{N-1} over the full defining double integral (radius
    and angle), never touching the closed-form kernels or any grid.  f is a
    callable of the scalar radius; pass s_max to restrict to a ball.
    """

    def inner(s):
        return f(s) * s ** (N - 1) * riesz_angular_quad(N, alpha, r, s)

    # split at the diagonal where the angular average has a kink
    pieces = []
    if r < s_max:
        a, _ = integrate.quad(inner, 0.0, r, limit=300, epsabs=0.0)
        b, _ = integrate.quad(inner, r, min(4.0 * r + 10.0, s_max),
                              limit=300, epsabs=0.0)
        pieces = [a, b]
        if s_max > 4.0 * r + 10.0:
            c, _ = integrate.quad(inner, 4.0 * r + 10.0, s_max, limit=300,
                                  epsabs=0.0)
            pieces.append(c)
    else:
        a, _ = integrate.quad(inner, 0.0, s_max, limit=300, epsabs=0.0)
        pieces = [a]
    return float(sum(pieces))


def green_apply_direct(N: int, f, r: float, s_max: float = np.inf) -> float:
    """G[f](r) for radial f by adaptive quadrature against green_angular_quad."""

    def inner(s):
        return f(s) * s ** (N - 1) * green_angular_quad(N, r, s)

    out = 0.0
    cuts = [0.0, r, r + 5.0, r + 40.0] if s_max == np.inf \
        else sorted({0.0, min(r, s_max), s_max})
    if s_max == np.inf:
        for a, b in zip(cuts, cuts[1:]):
            v, _ = integrate.quad(inner, a, b, limit=300, epsabs=0.0)
            out += v
    else:
        for a, b in zip(cuts, cuts[1:]):
            if b > a:
                v, _ = integrate.quad(inner, a, b, limit=300, epsabs=0.0)
                out += v
    return float(out)


def radial_ode_residual(N: int, func, r, h: float = 1e-3):
    """Relative residual of -u'' - ((N-1)/r) u' + u = 0 at the radii r.

    Derivatives via five-point central differences with step h*r, so the
    check is independent of any Bessel identities.  The residual is
    normalized by the size of the individual terms, since near the origin
    the equation holds only through a cancellation of O(r^{-N}) pieces and
    normalizing by u alone would measure floating-point noise instead.
    """
    r = np.asarray(r, dtype=float)
    hr = h * r
    u = func(r)
    um2, um1 = func(r - 2 * hr), func(r - hr)
    up1, up2 = func(r + hr), func(r + 2 * hr)
    d1 = (um2 - 8 * um1 + 8 * up1 - up2) / (12.0 * hr)
    d2 = (-um2 + 16 * um1 - 30 * u + 16 * up1 - up2) / (12.0 * hr ** 2)
    res = -d2 - (N - 1) / r * d1 + u
    scale = np.abs(d2) + np.abs((N - 1) / r * d1) + np.abs(u)
    return np.abs(res) / scale


def flux_normalization(N: int, func, eps: float = 1e-5, h: float = 1e-3) -> float:
    """-|S^{N-1}| eps^{N-1} u'(eps), which tends to 1 for a unit point source."""
    he = h * eps
    stencil = np.array([eps - 2 * he, eps - he, eps + he, eps + 2 * he])
    vals = func(stencil)
    d1 = (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12.0 * he)
    return -unit_sphere_area(N) * eps ** (N - 1) * float(d1)


def green_angular(N: int, r, s):
    """Spherical average of Gamma_0(|x - y|): the radial kernel of G.

    Equals the Sturm-Liouville Green function of the radial operator
    -u'' - ((N-1)/r) u' + u with weight s^{N-1}:

        (r s)^{1 - N/2} I_{N/2-1}(min(r,s)) K_{N/2-1}(max(r,s)).

    Finite on the diagonal for N >= 3 (the |x-y|^{2-N} singularity is
    angularly integrable); evaluated through scaled Bessel functions so only
    the decaying factor e^{-(max-min)} appears explicitly.
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(r <= 0.0) or np.any(s <= 0.0):
        raise ValueError("green_angular requires r, s > 0")
    nu = N / 2.0 - 1.0
    lo = np.minimum(r, s)
    hi = np.maximum(r, s)
    # ive(nu, x) = I(x) e^{-x}, kve(nu, x) = K(x) e^{x}
    out = (r * s) ** (1.0 - N / 2.0) * special.ive(nu, lo) \
        * special.kve(nu, hi) * np.exp(lo - hi)
    return float(out) if out.ndim == 0 else out


def tangency_admissible(c: float, k: float, p: float, q: float,
                        rel_tol: float = 1e-12) -> tuple[bool, Optional[float]]:
    """Whether the barrier inequality admits some t > 1 at source strength k.

    Admissible iff c k^{s-1} <= (1/s)((s-1)/s)^{s-1} with s = p + q, up to
    rel_tol so the tangency point itself counts.  On success returns the
    canonical witness t_q; on failure (False, None).
    """
    if not c > 0:
        raise ValueError(f"domination constant c must be positive, got {c}")
    if not k >= 0:
        raise ValueError(f"source strength k must be nonnegative, got {k}")
    s = float(p) + float(q)
    if not s > 1:
        raise ValueError(f"p + q must exceed 1, got {s}")
    bound = (1.0 / s) * ((s - 1.0) / s) ** (s - 1.0)
    lhs = c * k ** (s - 1.0)
    if lhs <= bound * (1.0 + rel_tol):
        t_q = (s / (s - 1.0)) ** s
        return True, t_q
    return False, None


def riesz_column_direct(op, s: np.ndarray, w: np.ndarray) -> np.ndarray:
    """c_i = sum_k w_k K(r_i, s_k) for the Toeplitz-form Riesz operator op
    and a rule (s, w) below r_1 or beyond r_max, with the kernel
    r_i^{alpha-N} riesz_angular(N, alpha, 1, s_k/r_i) at every pair."""
    nodes = op.grid.nodes
    shape = riesz_angular(op.N, op.alpha, 1.0, s / nodes[:, None])
    return (shape @ w) * nodes ** (op.alpha - op.N)


def riesz_cell_integrals_direct(op) -> tuple:
    """(A, B): op's Toeplitz hat integrals with riesz_angular at every
    point of every cell's rule, the 24-point Gauss-Legendre rule off the
    diagonal and the graded panels on its two cells."""
    N, alpha, h, m = op.N, op.alpha, op.grid.log_step, op.grid.size
    ks = np.arange(-(m - 1), m - 1)

    def cells(k, x, w):
        t = k[:, None] + x[None, :]
        f = riesz_angular(N, alpha, 1.0, np.exp(h * t)) * np.exp(h * t * N) * h
        return f @ (w * (1.0 - x)), f @ (w * x)

    A, B = np.empty(ks.size), np.empty(ks.size)
    regular = (ks != 0) & (ks != -1)
    A[regular], B[regular] = cells(ks[regular], *operators._jacobi01(24, 0.0))
    for k, toward_b in ((0, False), (-1, True)):
        rule = operators._panel_rule(
            operators._graded_panels(0.0, 1.0, toward_b), 12)
        A[ks == k], B[ks == k] = cells(np.array([k]), *rule)
    return A, B


def semiseparable_matvec_loop(op, values, origin, tail) -> np.ndarray:
    """op.matvec for a semiseparable op as a plain Python loop over its
    factors, in the documented order: the suffix sums sum_{l>i} P_l v_l
    from l = M-1 down, the prefix sums sum_{l<i} Q_l v_l from l = 0 up,
    then y0_i (above_i + PA_i v_i) + yinf_i (below_i + QB_i v_i), and
    last the origin and tail columns scaled by the end values."""
    y0, yinf, P, Q, PA, QB = (a.tolist() for a in op._factors)
    v, m = values.tolist(), len(values)
    above, below = [0.0] * m, [0.0] * m
    for i in range(m - 2, -1, -1):
        above[i] = above[i + 1] + P[i + 1] * v[i + 1]
    for i in range(1, m):
        below[i] = below[i - 1] + Q[i - 1] * v[i - 1]
    out = []
    for i in range(m):
        cell = ((above[i] + PA[i] * v[i]) * y0[i]
                + (below[i] + QB[i] * v[i]) * yinf[i])
        cell += origin[i] * v[0]
        cell += tail[i] * v[-1]
        out.append(cell)
    return np.array(out)
