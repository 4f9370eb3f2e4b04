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

Every special function is evaluated here with numpy and the standard
library; a series sums each point until that point's next term is
negligible:

- e^r K_nu(r), nu = N/2 - 1: for half-integer nu the closed forms of
  K_{1/2} and K_{3/2}; for integer nu, K_0 and K_1 from their power
  series (r <= 2) or the trapezoidal rule on their integral
  representation (r > 2).  Forward recurrence in the order, all of whose
  terms are positive, carries the pair up to nu.
- e^{-r} I_nu(r): the power series up to r = max(20, nu^2/4), the Hankel
  expansion beyond (it terminates for half-integer nu).
- The Riesz 2F1: the Gauss series for z <= 1/2; beyond, A&S 15.3.6 about
  z = 1 with its two series paired term by term, so that the form stays
  accurate as c - a - b = alpha - 1 nears an integer and is A&S
  15.3.10-11 where it is one.

All evaluators accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import math
import warnings

import numpy as np


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
        * _kve(nu, r) * np.exp(-r)
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
# 1 - rho^2 below which alpha <= 1 backs off: rho^2 carries a rounding error
# near 1e-16, so there the divergent factor (1 - rho^2)^{alpha-1}, or its
# log at alpha = 1, is set by rounding to no better than 1e-4
_DIAGONAL_ZONE = 1e-12


def riesz_angular(N: int, alpha: float, r, s) -> np.ndarray | float:
    """Spherical average of |x - y|^{alpha - N} over the angle between x, y.

    Closed form in the radius ratio rho = min(r,s)/max(r,s):

        |S^{N-1}| max(r,s)^{alpha-N}
            * 2F1((N-alpha)/2, (2-alpha)/2; N/2; rho^2).

    Symmetric, positive, and homogeneous of degree alpha - N.  On the
    diagonal r = s the value is finite for alpha > 1 (Gauss summation) and
    divergent for alpha <= 1.  For alpha <= 1, wherever 1 - rho^2 < 1e-12
    (on the diagonal, or so near it that the rounding of rho^2 sets the
    divergent factor) the evaluation backs off to a relative separation of
    5e-4 and flags ReducedAccuracyWarning.
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
    hyp = _riesz_hyp2f1(N, alpha, z)
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
    y0 = pref * _ive(nu, r) * np.exp(r)
    yinf = pref * _kve(nu, r) * np.exp(-r)
    return y0, yinf


# ---------------------------------------------------------------------------
# series summed point by point

# a term below this fraction of its point's running sum ends that series
_TERM_TOL = 2.0 ** -56


def _retire(done, live, out, value, *state):
    """Once a quarter of the live points are done, write value where done
    into out at the positions live and drop those points from live, value
    and every state array.  A done point left live a little longer only
    adds terms below its tolerance."""
    if 4 * np.count_nonzero(done) < live.size:
        return (live, value, *state)
    out[live[done]] = value[done]
    keep = ~done
    return (live[keep], value[keep], *(a[keep] for a in state))


def _series(coef, arg: np.ndarray, first_stop: int) -> np.ndarray:
    """sum_{j >= 0} t_j with t_0 = 1 and t_j = t_{j-1} coef(j) arg, each
    point summed until its term falls below _TERM_TOL of its sum, at
    j >= first_stop, from where on the caller knows the terms shrink."""
    out = np.empty(arg.size)
    total, term = np.ones(arg.size), np.ones(arg.size)
    live = np.arange(arg.size)
    j = 0
    while live.size:
        j += 1
        term = term * coef(j) * arg
        total = total + term
        if j >= first_stop:
            done = np.abs(term) <= _TERM_TOL * np.abs(total)
            live, total, term, arg = _retire(done, live, out, total, term,
                                             arg)
    return out


# ---------------------------------------------------------------------------
# modified Bessel functions, scaled: e^r K_nu(r) and e^{-r} I_nu(r)

_EULER_GAMMA = 0.57721566490153286061
# I_nu switches from its power series to the Hankel expansion at
# max(20, nu^2/4), where the expansion's smallest term is below 1e-17 and
# comes after every point's stopping term
_HANKEL_FROM = 20.0
_TRAPEZOID_NODES = 27


def _k01_series(x: np.ndarray):
    """(e^x K_0(x), e^x K_1(x)) for 0 < x <= 2 from the power series of
    A&S 9.6.13 and 9.6.11 with L = log(x/2) + gamma, t = x^2/4 and the
    harmonic numbers H_j:

        K_0 = sum_j (H_j - L) t^j / j!^2
        K_1 = 1/x + (x/2) sum_j (L - (H_j + H_{j+1})/2) t^j / (j! (j+1)!)

    With t <= 1, term 13 is below 1e-18 of either sum, so both sums stop
    at j = 14.  Each term keeps its log part, so only the small terms
    cancel."""
    t = 0.25 * x * x
    ell = np.log(0.5 * x) + _EULER_GAMMA
    term = np.ones(x.size)                 # t^j / j!^2
    k0, k1 = -ell, ell - 0.5               # the terms j = 0
    harmonic = 1.0
    for j in range(1, 15):
        term = term * t / (j * j)
        k0 = k0 + (harmonic - ell) * term
        harmonic_next = harmonic + 1.0 / (j + 1)
        k1 = k1 + (ell - 0.5 * (harmonic + harmonic_next)) * term / (j + 1)
        harmonic = harmonic_next
    k1 = 1.0 / x + 0.5 * x * k1
    scale = np.exp(x)
    return k0 * scale, k1 * scale


def _k01_trapezoid(x: np.ndarray):
    """(e^x K_0(x), e^x K_1(x)) for x > 2 by the trapezoidal rule on
    e^x K_nu(x) = int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt, which
    converges exponentially in the step (Trefethen & Weideman, SIAM Rev.
    56, 2014).  The step 0.15 min(1, sqrt(20/x)) keeps the error below
    1e-17 as the integrand narrows like x^{-1/2}, and 27 nodes reach past
    where it falls below 1e-19 of its peak; cosh t - 1 is taken as
    2 sinh^2(t/2), so large x loses nothing to cancellation."""
    step = 0.15 * np.sqrt(np.minimum(1.0, 20.0 / x))
    t = step[:, None] * np.arange(_TRAPEZOID_NODES)
    cosh_m1 = 2.0 * np.sinh(0.5 * t) ** 2
    f = np.exp(-x[:, None] * cosh_m1)
    f[:, 0] *= 0.5
    return f.sum(axis=1) * step, (f * (1.0 + cosh_m1)).sum(axis=1) * step


def _kve(nu: float, r) -> np.ndarray:
    """e^r K_nu(r) for nu = N/2 - 1 and r > 0, any shape.

    Half-integer nu starts from e^r K_{1/2} = sqrt(pi/(2r)) and e^r K_{3/2}
    = e^r K_{1/2} (1 + 1/r), integer nu from K_0 and K_1; forward
    recurrence K_{j+1} = K_{j-1} + (2j/r) K_j, all of whose terms are
    positive, carries the pair up to nu.
    """
    r = np.asarray(r, dtype=float)
    x = r.ravel()
    if nu % 1.0:
        lo = np.sqrt(np.pi / (2.0 * x))
        hi = lo * (1.0 + 1.0 / x)
    else:
        lo, hi = np.empty(x.size), np.empty(x.size)
        series = x <= 2.0
        for pick, pair in ((series, _k01_series), (~series, _k01_trapezoid)):
            if pick.any():
                lo[pick], hi[pick] = pair(x[pick])
    order = nu % 1.0
    while order < nu:
        order += 1.0
        lo, hi = hi, lo + (2.0 * order / x) * hi
    return lo.reshape(r.shape)


def _ive(nu: float, r) -> np.ndarray:
    """e^{-r} I_nu(r) for nu = N/2 - 1 and r > 0, any shape.

    Up to r = max(20, nu^2/4) the power series (r/2)^nu / Gamma(nu+1)
    sum_j t^j / (j! (nu+1)_j), t = r^2/4, whose terms are all positive;
    beyond, the Hankel expansion (2 pi r)^{-1/2} sum_j prod_{i<=j}
    ((2i-1)^2 - 4 nu^2) / (8 i r) (A&S 9.7.1), which terminates for
    half-integer nu.
    """
    r = np.asarray(r, dtype=float)
    x = r.ravel()
    out = np.empty(x.size)
    hankel = x > max(_HANKEL_FROM, 0.25 * nu * nu)
    xs, xl = x[~hankel], x[hankel]
    out[~hankel] = _series(lambda j: 1.0 / (j * (nu + j)), 0.25 * xs * xs, 1) \
        * (0.5 * xs) ** nu * np.exp(-xs) / math.gamma(nu + 1.0)
    out[hankel] = _series(
        lambda j: ((2 * j - 1) ** 2 - 4.0 * nu * nu) / (8.0 * j), 1.0 / xl,
        1) / np.sqrt(2.0 * np.pi * xl)
    return out.reshape(r.shape)


# ---------------------------------------------------------------------------
# the Riesz 2F1

# B_{2k} / (2k (2k - 1)), k = 1..6: the coefficients of Stirling's series
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0,
             1.0 / 1188.0, -691.0 / 360360.0)


def _expm1_over(u, e: float):
    """expm1(e u) / e, and its limit u at e = 0."""
    return np.expm1(e * u) / e if e else u


def _lgamma_slope(x: float, e: float) -> float:
    """(ln Gamma(x + e) - ln Gamma(x)) / e for x, x + e > 0, and its limit,
    the digamma function psi(x), at e = 0.

    Accurate however small e is: the recurrence shifts x past 15, where
    Stirling's series holds, and every difference is taken as a log1p or
    an expm1 of e.
    """
    total = 0.0
    while x < 15.0:
        total -= math.log1p(e / x) / e if e else 1.0 / x
        x += 1.0
    slope = math.log1p(e / x) / e if e else 1.0 / x    # of log(x)
    total += (x - 0.5) * slope + math.log(x + e) - 1.0
    for k, coef in enumerate(_STIRLING, start=1):
        total += coef * x ** (1 - 2 * k) * _expm1_over((1 - 2 * k) * slope, e)
    return total


def _near_one(a: float, b: float, c: float, m: int, e: float,
              w: np.ndarray) -> np.ndarray:
    """2F1(a, b; c; 1 - w) for 0 < w < 1/2, where c - a - b = m + e with m
    >= 0 an integer and |e| <= 1/2, and a + m, b + m > 0.

    A&S 15.3.6 is the first series (m terms of it have no partner) plus
    pairs: term m + n of the first series and term n of the second, each
    of size 1/e, summed as

        P (-1)^m (pi e / sin(pi e)) w^{m+n} (D1_n - D2_n - E(w) K_n)

    with P = Gamma(c) / (Gamma(a) Gamma(b) Gamma(c-a) Gamma(c-b)),
    E(w) = (w^e - 1)/e, K_n = g_n(0, e) and D1_n, D2_n the difference
    quotients of g_n(-e, 0) and g_n(0, e) about g_n(0, 0), where
    g_n(u, v) = Gamma(a+m+n+v) Gamma(b+m+n+v) / (Gamma(1+m+n+v)
    Gamma(1+n+u)).  The coefficients follow from n to n + 1 by rational
    factors, and at n = 0 from _lgamma_slope, so no quantity grows like
    1/e; at e = 0 the same sum is A&S 15.3.10-11.
    """
    out = np.empty(w.size)
    # the unpaired terms, A (a)_k (b)_k / ((1-m-e)_k k!) w^k for k < m
    total = np.zeros(w.size)
    power = np.ones(w.size)
    coef = math.gamma(c) * math.gamma(m + e) \
        / (math.gamma(c - a) * math.gamma(c - b)) if m else 0.0
    for k in range(m):
        if k:
            coef *= (a + k - 1) * (b + k - 1) / ((k - m - e) * k)
        total += coef * power
        power = power * w
    # the pairs, with their coefficients at n = 0
    x0, y0 = a + m, b + m
    g = math.gamma(x0) * math.gamma(y0) / math.gamma(1.0 + m)
    d1 = g * _expm1_over(_lgamma_slope(1.0, -e), e)
    d2 = g * _expm1_over(_lgamma_slope(x0, e) + _lgamma_slope(y0, e)
                         - _lgamma_slope(1.0 + m, e), e)
    kn = g + e * d2
    pref = math.gamma(c) / (math.gamma(a) * math.gamma(b)
                            * math.gamma(c - a) * math.gamma(c - b))
    pref *= (-1.0) ** m * (math.pi * e / math.sin(math.pi * e) if e else 1.0)
    power = power * pref
    ew = _expm1_over(np.log(w), e)
    live = np.arange(w.size)
    n = 0
    while live.size:
        total = total + power * ((d1 - d2) - ew * kn)
        bound = np.abs(power) * (abs(d1) + abs(d2) + np.abs(ew) * abs(kn))
        done = bound <= _TERM_TOL * np.abs(total)
        live, total, power, ew, w = _retire(done, live, out, total,
                                            power, ew, w)
        x, y, z, n1 = x0 + n, y0 + n, 1.0 + m + n, 1.0 + n
        q = x * y / (z * n1)               # g_{n+1}(0, 0) / g_n(0, 0)
        p = (x + e) * (y + e) / ((z + e) * n1)
        d1 = d1 * q * n1 / (n1 - e) + g * q / (n1 - e)
        d2 = d2 * p + g * ((x + y + e) * z - x * y) / (z * (z + e) * n1)
        kn, g = kn * p, g * q
        power = power * w
        n += 1
    return out


def _riesz_hyp2f1(N: int, alpha: float, z: np.ndarray) -> np.ndarray:
    """2F1((N-alpha)/2, (2-alpha)/2; N/2; z) for 0 <= z <= 1, any shape,
    z < 1 where alpha <= 1.

    alpha = 2, 4, ... make b a nonpositive integer and the Gauss series a
    polynomial of degree -b, evaluated by Horner's rule for every z, so
    alpha = 2 gives exactly 1.0.  Otherwise the Gauss series covers z <=
    1/2 and _near_one the rest, for alpha < 1/2 after Euler's
    transformation F = (1-z)^{alpha-1} 2F1(c-a, c-b; c; z), and z = 1
    takes Gauss's sum.
    """
    a, b, c = (N - alpha) / 2.0, (2.0 - alpha) / 2.0, N / 2.0
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    if b <= 0.0 and b % 1.0 == 0.0:
        coefs = [1.0]
        for j in range(int(-b)):
            coefs.append(coefs[-1] * (a + j) * (b + j) / ((c + j) * (j + 1.0)))
        out = np.full(flat.size, coefs[-1])
        for coef in coefs[-2::-1]:
            out = out * flat + coef
        return out.reshape(z.shape)
    out = np.empty(flat.size)
    near = flat <= 0.5
    # past j = -b each term is at most z times the one before, as a <= c
    # and b <= 1, so the first negligible term bounds the rest
    out[near] = _series(
        lambda j: (a + j - 1) * (b + j - 1) / ((c + j - 1) * j), flat[near],
        max(1, math.floor(-b) + 1))
    at_one = flat == 1.0
    if at_one.any():
        out[at_one] = math.gamma(c) * math.gamma(alpha - 1.0) \
            / (math.gamma(c - a) * math.gamma(c - b))
    far = ~(near | at_one)
    if far.any():
        w = 1.0 - flat[far]
        m = round(alpha - 1.0)
        e = (alpha - 1.0) - m             # exact: alpha - 1 - m is a float
        if m >= 0:
            out[far] = _near_one(a, b, c, m, e, w)
        else:
            out[far] = w ** (alpha - 1.0) \
                * _near_one(c - a, c - b, c, -m, -e, w)
    return out.reshape(z.shape)
