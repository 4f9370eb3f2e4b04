"""Slow, independent oracles the tests check the fast paths against.

Everything here goes back to first definitions: adaptive quadrature of the
angular integrals, direct two-dimensional quadrature of the Riesz potential
and of the Green operator, and finite-difference residuals of the radial
ODE.  Nothing here shares code with the closed-form kernels or the
product-integration weights it checks, beyond gamma0 itself where the
kernel definition requires it (gamma0 has its own closed-form and ODE
oracles).
"""

import math

import numpy as np
from scipy import integrate

from choqlab.kernels import gamma0, unit_sphere_area


def riesz_angular_quad(N: int, alpha: float, r: float, s: float) -> float:
    """Direct adaptive quadrature of the defining angular integral."""
    om = unit_sphere_area(N - 1)

    def integrand(theta):
        d2 = r * r + s * s - 2.0 * r * s * math.cos(theta)
        return math.sin(theta) ** (N - 2) * d2 ** ((alpha - N) / 2.0)

    val, _ = integrate.quad(integrand, 0.0, math.pi, limit=300,
                            points=[0.0] if abs(r - s) < 1e-8 * (r + s) else None)
    return om * val


def green_angular_quad(N: int, r: float, s: float) -> float:
    """Direct adaptive quadrature of the angular average of Gamma_0."""
    om = unit_sphere_area(N - 1)

    def integrand(theta):
        d = math.sqrt(r * r + s * s - 2.0 * r * s * math.cos(theta))
        return math.sin(theta) ** (N - 2) * float(gamma0(N, d))

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
