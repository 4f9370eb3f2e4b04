"""Fundamental solutions of -Delta + m^2 and angularly reduced radial kernels.

For radial data the two integral operators of the problem collapse to
one-dimensional integrals against kernels obtained by averaging over the
sphere:

    I_alpha[f](r) = int_0^inf f(s) s^{N-1} riesz_angular(N, alpha, r, s) ds
    G[f](r)       = int_0^inf f(s) s^{N-1} y0(min(r,s)) yinf(max(r,s)) ds

Both angular averages have closed forms.  The Riesz average is a Gauss
hypergeometric function of the radius ratio; the Green average is the
classical radial Green function of -Delta + 1, a product of modified Bessel
functions of the smaller and larger radius, whose two factors
green_halfline_factors returns.

riesz_angular is the only evaluation of the Riesz 2F1 in the package: the
operator assembly calls it at unit radius for every weight, origin column
and tail column, and the test suite checks it directly against the angular
quadrature oracle.  The test suite checks the Green factors through their
product, against a closed-form Bessel kernel that it checks against the
same kind of oracle.

All evaluators accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import math
import warnings

import numpy as np
from scipy import special


class ReducedAccuracyWarning(UserWarning):
    """Raised where the evaluation is finite but honestly less accurate."""


def unit_sphere_area(n: int) -> float:
    """Surface measure |S^{n-1}| of the unit sphere in R^n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)


def c_N(N: int) -> float:
    """Coefficient of the r^{2-N} singularity: r^{N-2} gamma0(N, r) -> c_N."""
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    return math.gamma(N / 2.0 - 1.0) / (4.0 * math.pi ** (N / 2.0))


def gamma0(N: int, r) -> np.ndarray | float:
    """Fundamental solution of -Delta u + u = delta_0 in R^N, radial profile.

    Gamma_0(r) = (2 pi)^{-N/2} r^{(2-N)/2} K_{(N-2)/2}(r).  Evaluated through
    the scaled Bessel function so large radii do not underflow prematurely.
    For N = 3 this is the Yukawa potential e^{-r}/(4 pi r).
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("gamma0 requires r > 0")
    nu = (N - 2) / 2.0
    out = (2.0 * math.pi) ** (-N / 2.0) * r ** ((2.0 - N) / 2.0) \
        * special.kve(nu, r) * np.exp(-r)
    return float(out) if out.ndim == 0 else out


def phi0(N: int, r) -> np.ndarray | float:
    """Fundamental solution of -Delta u + u/4 = delta_0, radial profile.

    Mass scaling of gamma0: a fundamental solution for mass m is
    m^{N-2} Gamma_0(m r), so phi0(r) = 2^{2-N} gamma0(r/2).  It dominates
    gamma0 everywhere and matches it to leading order at the origin.
    """
    r = np.asarray(r, dtype=float)
    out = 2.0 ** (2 - N) * gamma0(N, r / 2.0)
    return float(out) if np.ndim(out) == 0 else out


_DIAGONAL_BACKOFF = 5e-4  # relative separation used for alpha <= 1 diagonals
_DIAGONAL_ZONE = 1e-12  # 1 - rho^2 below which alpha <= 1 backs off


def riesz_angular(N: int, alpha: float, r, s) -> np.ndarray | float:
    """Spherical average of |x - y|^{alpha - N} over the angle between x, y.

    Closed form in the radius ratio rho = min(r,s)/max(r,s):

        |S^{N-1}| max(r,s)^{alpha-N}
            * 2F1((N-alpha)/2, (2-alpha)/2; N/2; rho^2).

    Symmetric, positive, and homogeneous of degree alpha - N.  On the
    diagonal r = s the value is finite for alpha > 1 (Gauss summation) and
    divergent for alpha <= 1.  For alpha <= 1, wherever 1 - rho^2 < 1e-12
    (on the diagonal, or so near it that SciPy's 2F1 overflows to inf) the
    evaluation backs off to a relative separation of 5e-4 and flags
    ReducedAccuracyWarning.
    """
    if N < 3:
        raise ValueError(f"N must be >= 3, got {N}")
    if not 0.0 < alpha < N:
        raise ValueError(f"alpha must lie in (0, N), got {alpha}")
    r = np.asarray(r, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(r <= 0.0) or np.any(s <= 0.0):
        raise ValueError("riesz_angular requires r, s > 0")
    hi = np.maximum(r, s)
    lo = np.minimum(r, s)
    z = (lo / hi) ** 2
    if alpha <= 1.0:
        on_diag = 1.0 - z < _DIAGONAL_ZONE
        if np.any(on_diag):
            warnings.warn(
                "riesz_angular within 1e-12 of the diagonal with alpha <= 1 "
                "is divergent; returning the value at relative separation "
                "5e-4", ReducedAccuracyWarning, stacklevel=2)
            z = np.where(on_diag, (1.0 - _DIAGONAL_BACKOFF) ** 2, z)
    hyp = special.hyp2f1((N - alpha) / 2.0, (2.0 - alpha) / 2.0, N / 2.0, z)
    out = unit_sphere_area(N) * hi ** (alpha - N) * hyp
    return float(out) if out.ndim == 0 else out


def green_halfline_factors(N: int, r):
    """The two homogeneous radial solutions whose product is the Green kernel.

    Returns (y0, yinf) with y0(r) = r^{1-N/2} I_{N/2-1}(r) regular at the
    origin and yinf(r) = r^{1-N/2} K_{N/2-1}(r) decaying at infinity, so
    the spherical average of Gamma_0(|x - y|) over |x| = r, |y| = s is
    y0(min) * yinf(max).  Exposed for the operator assembly, which exploits
    this separability cell by cell.
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("green factors require r > 0")
    nu = N / 2.0 - 1.0
    pref = r ** (1.0 - N / 2.0)
    y0 = pref * special.ive(nu, r) * np.exp(r)
    yinf = pref * special.kve(nu, r) * np.exp(-r)
    return y0, yinf
