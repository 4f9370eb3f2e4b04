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

The Riesz 2F1 is evaluated in two ways.  riesz_angular evaluates it at
each point, and refuses the zone 1 - rho^2 < 1e-12 next to the diagonal;
the assembly of an alpha != 2 operator calls it near the diagonal only
(its smallest 1 - rho^2 is 1.0e-8, at 1000 points per decade).
riesz_gauss_coefficients gives the Gauss series, which the assembly sums
against a quadrature rule's moments wherever rho^2 <= 1/2.  The test
suite checks the 2F1 against an angular quadrature oracle, and the Green
factors through their product against a closed-form Bessel kernel.

Every special function is evaluated here with numpy and the standard
library, each series as a cached, read-only coefficient table summed by
Horner's rule (horner) and cut once, where its terms at the far end of
the range the table serves are negligible:

- e^r K_nu(r), nu = N/2 - 1: for half-integer nu the closed forms of
  K_{1/2} and K_{3/2}; for integer nu, K_0 and K_1 from their power
  series (r <= 2, cut at r = 2), each term's log part kept with it, or
  the trapezoidal rule on their integral representation (r > 2).
  Forward recurrence in the order, all of whose terms are positive,
  carries the pair up to nu.
- e^{-r} I_nu(r): the power series up to r = max(20, nu^2/4), the Hankel
  expansion beyond (it terminates for half-integer nu), both cut there.
- The Riesz 2F1: the Gauss series for z <= 1/2; beyond, A&S 15.3.6 about
  z = 1 with its two series paired term by term, so that the form stays
  accurate as c - a - b = alpha - 1 nears an integer and is A&S
  15.3.10-11 where it is one; both cut at z = 1/2, per (N, alpha).

All evaluators accept scalars or numpy arrays and broadcast.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, count

import numpy as np


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


# 1 - rho^2 below which riesz_angular refuses: rho^2 carries a rounding
# error near 1e-16, so there the factor (1 - rho^2)^{alpha-1} that diverges
# for alpha <= 1, or its log at alpha = 1, is set by rounding to no better
# than 1e-4
_DIAGONAL_ZONE = 1e-12


def riesz_angular(N: int, alpha: float, r, s) -> np.ndarray | float:
    """Spherical average of |x - y|^{alpha - N} over the angle between x, y.

    Closed form in the radius ratio rho = min(r,s)/max(r,s):

        |S^{N-1}| max(r,s)^{alpha-N}
            * 2F1((N-alpha)/2, (2-alpha)/2; N/2; rho^2).

    Symmetric, positive, and homogeneous of degree alpha - N.  On the
    diagonal r = s it diverges for alpha <= 1.  For every alpha it raises
    ValueError wherever 1 - rho^2 < 1e-12, a zone the operator assembly
    never enters: its graded panels keep 1 - rho^2 above 1e-8 up to 1000
    points per decade.
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
    if np.any(1.0 - z < _DIAGONAL_ZONE):
        raise ValueError("riesz_angular refuses 1 - rho^2 < 1e-12, where the "
                         "rounding of rho^2 sets the diagonal singularity")
    out = unit_sphere_area(N) * hi ** (alpha - N) * _riesz_hyp2f1(N, alpha, z)
    return float(out) if out.ndim == 0 else out


def green_halfline_factors(N: int, r):
    """The two homogeneous radial solutions whose product is the Green kernel.

    Returns (y0, yinf) with y0(r) = r^{1-N/2} I_{N/2-1}(r) regular at the
    origin and yinf(r) = r^{1-N/2} K_{N/2-1}(r) decaying at infinity, so
    the spherical average of Gamma_0(|x - y|) over |x| = r, |y| = s is
    y0(min) * yinf(max).  Exposed for the operator assembly, which exploits
    this separability cell by cell.
    """
    yinf = green_yinf(N, r)
    r = np.asarray(r, dtype=float)
    return r ** (1.0 - N / 2.0) * _ive(N / 2.0 - 1.0, r) * np.exp(r), yinf


def green_yinf(N: int, r) -> np.ndarray:
    """The decaying factor yinf of green_halfline_factors alone: it stays
    finite at every r > 0, while y0 leaves the float range past r = 709.78."""
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("green factors require r > 0")
    return r ** (1.0 - N / 2.0) * _kve(N / 2.0 - 1.0, r) * np.exp(-r)


# ---------------------------------------------------------------------------
# series: coefficient tables cut once, summed by Horner's rule

# a table ends at its first term below this fraction of the sum, both
# taken at the far end of the range the table serves
_TERM_TOL = 2.0 ** -56


def _cut(series, start: float = 0.0) -> np.ndarray:
    """The rows of series, which yields (row, term at the far end) for j =
    0, 1, ..., up to and with the first j past start whose terms (a float
    or an array) are below _TERM_TOL of their sums, as one read-only
    array."""
    rows, total = [], 0.0
    for j, (row, term) in enumerate(series):
        rows.append(row)
        total = total + term
        if j > start and np.all(np.abs(term) <= _TERM_TOL * np.abs(total)):
            break
    out = np.array(rows)
    out.setflags(write=False)
    return out


def _powers(step, x: float):
    """(c_j, c_j x^j) for j = 0, 1, ..., c_0 = 1, c_j = step(c_{j-1}, j)."""
    coefs = accumulate(count(1), step, initial=1.0)
    return ((coef, coef * x ** j) for j, coef in enumerate(coefs))


def horner(x: np.ndarray, coefs: np.ndarray) -> np.ndarray:
    """sum_j coefs[j] x^j by Horner's rule in the order of numpy's polyval,
    so with its bits.  Each coefs[j] broadcasts against x: coefs[..., None]
    gives the shape coefs.shape[1:] + x.shape of a 1-D x."""
    out = coefs[-1] + 0.0 * x
    for coef in coefs[-2::-1]:
        out = coef + out * x
    return out


# ---------------------------------------------------------------------------
# modified Bessel functions, scaled: e^r K_nu(r) and e^{-r} I_nu(r)

_TRAPEZOID_NODES = 27


@lru_cache(maxsize=1)
def _k01_coefficients() -> np.ndarray:
    """Rows (H_j, 1/j!^2, (H_j + H_{j+1})/2, 1/(j! (j+1)!)) of
    _k01_series, read-only, cut at the far end x = 2 (t = 1, L = gamma)."""
    def rows():
        harmonic, coef = 0.0, 1.0
        for j in count(1):
            mid, coef1 = harmonic + 0.5 / j, coef / j
            yield (harmonic, coef, mid, coef1), np.array(
                ((harmonic - np.euler_gamma) * coef,
                 (np.euler_gamma - mid) * coef1))
            harmonic, coef = harmonic + 1.0 / j, coef / (j * j)
    return _cut(rows())


def _k01_series(x: np.ndarray):
    """(e^x K_0(x), e^x K_1(x)) for 0 < x <= 2 from the power series of
    A&S 9.6.13 and 9.6.11 with L = log(x/2) + gamma, t = x^2/4 and the
    harmonic numbers H_j:

        K_0 = sum_j (H_j - L) t^j / j!^2
        K_1 = 1/x + (x/2) sum_j (L - (H_j + H_{j+1})/2) t^j / (j! (j+1)!)

    Each term keeps its log part, as one coefficient per point, so only
    the small terms cancel: at x = 2 K_0 is 0.114, while the sums of its
    H_j and L parts apart are 1.430 and 1.316."""
    t = 0.25 * x * x
    ell = np.log(0.5 * x) + np.euler_gamma
    harmonic, coef, mid, coef1 = _k01_coefficients().T[..., None]
    # one (terms, points) buffer serves both sums, which bounds the heap
    # peak of a block of the Green assembly
    column = harmonic - ell
    column *= coef
    k0 = horner(t, column)
    np.subtract(ell, mid, out=column)
    column *= coef1
    k1 = 1.0 / x + 0.5 * x * horner(t, column)
    scale = np.exp(x)
    return k0 * scale, k1 * scale


def _k01_trapezoid(x: np.ndarray):
    """(e^x K_0(x), e^x K_1(x)) for x > 2 by the trapezoidal rule on
    e^x K_nu(x) = int_0^inf exp(-x (cosh t - 1)) cosh(nu t) dt, which
    converges exponentially in the step (Trefethen & Weideman, SIAM Rev.
    56, 2014).  The step 0.15 min(1, sqrt(20/x)) keeps the error below
    1e-17 as the integrand narrows like x^{-1/2}, and 27 nodes reach past
    where it falls below 1e-19 of its peak; cosh t - 1 is taken as
    2 sinh^2(t/2), so large x loses nothing to cancellation.  The nodes
    are summed one at a time, so no array of points by nodes is formed."""
    step = 0.15 * np.sqrt(np.minimum(1.0, 20.0 / x))
    # the node t = 0, at half weight
    k0, k1 = np.full(x.size, 0.5), np.full(x.size, 0.5)
    for n in range(1, _TRAPEZOID_NODES):
        cosh_m1 = 2.0 * np.sinh(0.5 * (step * n)) ** 2
        f = np.exp(-x * cosh_m1)
        k0 += f
        k1 += f * (1.0 + cosh_m1)
    return k0 * step, k1 * step


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


@lru_cache(maxsize=16)
def _ive_tables(nu: float):
    """(split, scale, power, hankel) of _ive: both tables are cut at split
    = max(20, nu^2/4), past which the Hankel expansion (in 1/x) takes over.
    The power series is in x^2 scale, scale = 2^-k with split^2 scale in
    [1, 2): its coefficients stay floats for large nu, and as scale is a
    power of 2 the sum has the bits of one in x^2/4."""
    split = max(20.0, 0.25 * nu * nu)
    scale = math.ldexp(1.0, 1 - math.frexp(split * split)[1])
    unit = 0.25 / scale                    # x^2/4 per unit of x^2 scale
    power = _cut(_powers(lambda c, j: c * unit / (j * (nu + j)),
                         split * split * scale))
    hankel = _cut(_powers(
        lambda h, j: h * ((2 * j - 1) ** 2 - 4.0 * nu * nu) / (8.0 * j),
        1.0 / split))
    return split, scale, power, hankel


def _ive(nu: float, r) -> np.ndarray:
    """e^{-r} I_nu(r) for nu = N/2 - 1 and r > 0, any shape.

    Up to split the power series (r/2)^nu / Gamma(nu+1) sum_j t^j / (j!
    (nu+1)_j), t = r^2/4, whose terms are all positive; beyond, the Hankel
    expansion (2 pi r)^{-1/2} sum_j prod_{i<=j} ((2i-1)^2 - 4 nu^2) / (8 i
    r) (A&S 9.7.1), which terminates for half-integer nu; each the Horner
    sum of its table of _ive_tables.
    """
    split, scale, power, hankel = _ive_tables(nu)
    r = np.asarray(r, dtype=float)
    x = r.ravel()
    out = np.empty(x.size)
    beyond = x > split
    xs, xl = x[~beyond], x[beyond]
    out[~beyond] = horner(xs * xs * scale, power) * (0.5 * xs) ** nu \
        * np.exp(-xs) / math.gamma(nu + 1.0)
    out[beyond] = horner(1.0 / xl, hankel) / np.sqrt(2.0 * np.pi * xl)
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


@lru_cache(maxsize=32)
def _near_one(a: float, b: float, c: float, m: int, e: float) -> np.ndarray:
    """Coefficients (Q, K), shape (m + J + 1, 2), read-only, with which
    2F1(a, b; c; 1 - w) = Q(w) - E(w) K(w) for 0 < w <= 1/2, E(w) = (w^e
    - 1)/e and Q, K their Horner sums, where c - a - b = m + e with m >= 0
    an integer and |e| <= 1/2, and a + m, b + m > 0.

    A&S 15.3.6 is the first series (m terms of it have no partner, Q's
    first m) plus pairs: term m + n of the first series and term n of the
    second, each of size 1/e, summed as

        P (-1)^m (pi e / sin(pi e)) w^{m+n} (D1_n - D2_n - E(w) K_n)

    with P = Gamma(c) / (Gamma(a) Gamma(b) Gamma(c-a) Gamma(c-b)),
    K_n = g_n(0, e) and D1_n, D2_n the difference quotients of g_n(-e, 0)
    and g_n(0, e) about g_n(0, 0), where g_n(u, v) = Gamma(a+m+n+v)
    Gamma(b+m+n+v) / (Gamma(1+m+n+v) Gamma(1+n+u)).  The coefficients
    follow from n to n + 1 by rational factors, and at n = 0 from
    _lgamma_slope, so no quantity grows like 1/e; at e = 0 the same sum is
    A&S 15.3.10-11.  J is the first n at which the pair's bound at w = 1/2
    is below a quarter of _TERM_TOL of the sum there, so that the rest,
    whose terms there shrink about like 2^{-n}, stays below _TERM_TOL.
    """
    # the unpaired terms, A (a)_k (b)_k / ((1-m-e)_k k!) w^k for k < m
    rows, total = [], 0.0                  # total: the sum at w = 1/2
    coef = math.gamma(c) * math.gamma(m + e) \
        / (math.gamma(c - a) * math.gamma(c - b)) if m else 0.0
    for k in range(m):
        if k:
            coef *= (a + k - 1) * (b + k - 1) / ((k - m - e) * k)
        rows.append((coef, 0.0))
        total += coef * 0.5 ** k
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
    half_e = _expm1_over(-math.log(2.0), e)        # E(1/2)
    n = 0
    while True:
        rows.append((pref * (d1 - d2), pref * kn))
        power = pref * 0.5 ** (m + n)
        total += power * ((d1 - d2) - half_e * kn)
        bound = abs(power) * (abs(d1) + abs(d2) + abs(half_e * kn))
        if bound <= 0.25 * _TERM_TOL * abs(total):
            break
        x, y, z, n1 = x0 + n, y0 + n, 1.0 + m + n, 1.0 + n
        q = x * y / (z * n1)               # g_{n+1}(0, 0) / g_n(0, 0)
        p = (x + e) * (y + e) / ((z + e) * n1)
        d1 = d1 * q * n1 / (n1 - e) + g * q / (n1 - e)
        d2 = d2 * p + g * ((x + y + e) * z - x * y) / (z * (z + e) * n1)
        kn, g = kn * p, g * q
        n += 1
    out = np.array(rows)
    out.setflags(write=False)
    return out


# the largest z at which the Riesz 2F1 is summed as its Gauss series, by
# _riesz_hyp2f1 and against a rule's moments: past j = -b terms halve there
FAR_FIELD_Z = 0.5


@lru_cache(maxsize=32)
def riesz_gauss_coefficients(N: int, alpha: float) -> np.ndarray:
    """f_0 .. f_J of the Gauss series sum_j f_j z^j of the Riesz 2F1,
    A&S 15.1.1, read-only.

    f_j = f_{j-1} (a+j-1)(b+j-1) / ((c+j-1) j), and past j = -b each |f_j|
    is at most |f_{j-1}|, as a <= c and b <= 1.  J is the first j past -b
    at which f_j FAR_FIELD_Z^j is below _TERM_TOL of the sum there.  Any
    sum sum_j f_j m_j z^j with z <= FAR_FIELD_Z and |m_j| <= m_0 is then
    complete to the same tolerance at J.  For alpha = 2, 4, ... the series
    is a polynomial and f_J = 0 is the first coefficient past its degree.
    """
    a, b, c = (N - alpha) / 2.0, (2.0 - alpha) / 2.0, N / 2.0
    return _cut(_powers(
        lambda f, j: f * (a + j - 1) * (b + j - 1) / ((c + j - 1) * j),
        FAR_FIELD_Z), -b)


def _riesz_hyp2f1(N: int, alpha: float, z: np.ndarray) -> np.ndarray:
    """2F1((N-alpha)/2, (2-alpha)/2; N/2; z) for 0 <= z < 1, any shape.

    The Horner sum of riesz_gauss_coefficients up to z = FAR_FIELD_Z, and
    at every z, z = 1 included, where alpha = 2, 4, ... make the series a
    polynomial, so alpha = 2 gives exactly 1.0.  Beyond, the Horner sums
    of _near_one's coefficients, for alpha < 1/2 after Euler's
    transformation F = (1-z)^{alpha-1} 2F1(c-a, c-b; c; z).
    """
    a, b, c = (N - alpha) / 2.0, (2.0 - alpha) / 2.0, N / 2.0
    z = np.asarray(z, dtype=float)
    flat = z.ravel()
    coefs = riesz_gauss_coefficients(N, alpha)
    far = (flat > FAR_FIELD_Z) & (coefs[-1] != 0.0)
    out = np.empty(flat.size)
    out[~far] = horner(flat[~far], coefs)
    if far.any():
        w = 1.0 - flat[far]
        m = round(alpha - 1.0)
        e = (alpha - 1.0) - m             # exact: alpha - 1 - m is a float
        scale = 1.0
        if m < 0:
            a, b, m, e, scale = c - a, c - b, -m, -e, w ** (alpha - 1.0)
        q, k = horner(w, _near_one(a, b, c, m, e)[..., None])
        out[far] = scale * (q - _expm1_over(np.log(w), e) * k)
    return out.reshape(z.shape)
