"""The numpy special functions against mpmath at 30 digits, next to scipy.

Each set holds the arguments that building one exponent tuple's operators
and step and Phi_0 plans feeds a function: the Riesz 2F1, e^{-r} I_nu and
e^r K_nu, on the 40- and 160-point-per-decade grids and on a grid out to
r_max = 700.  A set is thinned to points evenly spaced in logit(z) or
log(r), ends included.  The gate on every set: the relative error against
mpmath is at most max(2e-14, scipy's own error on the same points).  The
Gauss-Jacobi rules are judged the same way at the exponents the origin and
tail rules use, nodes by absolute error.
"""

import math
from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
from unittest import mock

import mpmath
import numpy as np
import pytest
from scipy import special

from choqlab import kernels, operators
from choqlab.exponents import ProblemExponents
from choqlab.operators import build_grid
from choqlab.solver import Discretization

TUPLES = [(3, 2, 2, 1), (4, 1, "6/5", 1), (3, "3/2", "7/5", "4/3"),
          (3, "4/5", "1/2", 1), (5, 4, "3/2", 1), (6, "5/3", "7/10", "11/10"),
          (7, "1/3", "1/7", "6/5")]
GRIDS = {"ppd40": (30.0, 40), "ppd160": (30.0, 160), "rmax700": (700.0, 40)}
GATE = 2e-14
POINTS = 60


def exponents(t):
    return ProblemExponents(t[0], *(Fraction(v) for v in t[1:]))


def spread(values, transform, count=POINTS):
    """At most count of the distinct values, evenly spaced in
    transform(value), both ends included."""
    v = np.unique(values)
    u = transform(v)
    pick = np.searchsorted(u, np.linspace(u[0], u[-1], count))
    return v[np.unique(np.minimum(pick, v.size - 1))]


def logit(z):
    return np.log(z) - np.log1p(-z)


@lru_cache(maxsize=None)
def assembly_arguments(grid_name):
    """{("hyp", N, alpha) or ("kve"/"ive", nu): array of arguments} that
    the seven tuples' operators and plans feed the special functions.

    Out at r_max = 700 the Green factor y0 overflows past 709.78 in N = 3's
    tail rule, where only yinf is read, and for N >= 4 in the Green
    moments, which the assembly then refuses; there the overflow is
    silenced, N >= 4 builds the two operators without the plans, and its
    Green assembly is let fail once it has evaluated every factor.
    """
    r_max, ppd = GRIDS[grid_name]
    grid = build_grid(1e-4, r_max, ppd)
    seen = defaultdict(list)

    def recording(name, func):
        def wrapped(*args):
            seen[(name, *args[:-1])].append(np.ravel(args[-1]).copy())
            return func(*args)
        return wrapped

    with mock.patch.object(kernels, "_riesz_hyp2f1", recording(
            "hyp", kernels._riesz_hyp2f1)), \
            mock.patch.object(kernels, "_kve", recording("kve", kernels._kve)), \
            mock.patch.object(kernels, "_ive", recording("ive", kernels._ive)), \
            np.errstate(over="ignore"):
        for t in TUPLES:
            ex = exponents(t)
            if r_max > 100.0 and ex.N > 3:
                operators.assemble("riesz", ex.N, grid, float(ex.alpha))
                with pytest.raises(ValueError, match="green product"):
                    operators.assemble("green", ex.N, grid)
                continue
            disc = Discretization(ex, grid)
            disc.step_plan
            disc.plan(disc.phi0)
    return {key: np.concatenate(parts) for key, parts in seen.items()}


def relative_errors(values, reference):
    return np.abs(np.asarray(values) / np.asarray(reference) - 1.0)


def assert_within_gate(ours, theirs, reference, label):
    mine = relative_errors(ours, reference).max()
    scipys = relative_errors(theirs, reference).max()
    assert mine <= max(GATE, scipys), (label, mine, scipys)


# ---------------------------------------------------------------------------
# the Riesz 2F1


def hyp2f1_mpmath(N, alpha, z):
    with mpmath.workdps(30):
        a = (N - mpmath.mpf(alpha)) / 2
        b = (2 - mpmath.mpf(alpha)) / 2
        return np.array([float(mpmath.hyp2f1(a, b, mpmath.mpf(N) / 2,
                                             mpmath.mpf(v))) for v in z])


def check_hyp2f1(N, alpha, z, label):
    ours = kernels._riesz_hyp2f1(N, alpha, z)
    theirs = special.hyp2f1((N - alpha) / 2.0, (2.0 - alpha) / 2.0,
                            N / 2.0, z)
    assert_within_gate(ours, theirs, hyp2f1_mpmath(N, alpha, z), label)


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("t", TUPLES, ids=lambda t: f"{t[0]}-{t[1]}")
def test_riesz_hyp2f1_on_assembly_arguments(grid_name, t):
    N, alpha = t[0], float(Fraction(t[1]))
    z = assembly_arguments(grid_name)[("hyp", N, alpha)]
    check_hyp2f1(N, alpha, spread(z, logit), (grid_name, t))


@pytest.mark.parametrize("alpha", [1 - 1e-3, 1 + 1e-3, 2 - 1e-3, 2 + 1e-3])
@pytest.mark.parametrize("N", [3, 4])
def test_riesz_hyp2f1_next_to_integer_alpha(N, alpha):
    # c - a - b = alpha - 1 is 1e-3 from an integer, where A&S 15.3.6 as
    # printed loses three digits to cancellation
    z = assembly_arguments("ppd160")[("hyp", 4, 1.0)]
    check_hyp2f1(N, alpha, spread(z, logit), (N, alpha))


def test_riesz_hyp2f1_special_values():
    # alpha = 2 and 4 terminate; z = 1 for alpha > 1 is Gauss's sum
    assert np.all(kernels._riesz_hyp2f1(3, 2.0, np.array([0.0, 0.7, 1.0]))
                  == 1.0)
    z = np.array([0.3, 0.9, 1.0])
    assert np.allclose(kernels._riesz_hyp2f1(5, 4.0, z), 1.0 - z / 5.0,
                       rtol=1e-15, atol=0.0)
    for N, alpha in [(3, 1.5), (4, 2.5), (6, 5.0 / 3.0)]:
        a, b, c = (N - alpha) / 2.0, (2.0 - alpha) / 2.0, N / 2.0
        gauss = math.gamma(c) * math.gamma(alpha - 1.0) \
            / (math.gamma(c - a) * math.gamma(c - b))
        assert math.isclose(float(kernels._riesz_hyp2f1(N, alpha, 1.0)),
                            gauss, rel_tol=1e-15)


# ---------------------------------------------------------------------------
# Bessel factors


def bessel_mpmath(kind, nu, r):
    with mpmath.workdps(30):
        if kind == "kve":
            vals = [mpmath.besselk(nu, mpmath.mpf(v)) * mpmath.exp(v)
                    for v in r]
        else:
            vals = [mpmath.besseli(nu, mpmath.mpf(v)) * mpmath.exp(-v)
                    for v in r]
        return np.array([float(v) for v in vals])


@pytest.mark.parametrize("grid_name", sorted(GRIDS))
@pytest.mark.parametrize("kind", ["kve", "ive"])
@pytest.mark.parametrize("nu", [0.5, 1.0, 1.5, 2.0, 2.5])
def test_scaled_bessel_on_assembly_arguments(grid_name, kind, nu):
    r = assembly_arguments(grid_name)[(kind, nu)]
    # add the points where the evaluations switch method, and the end of
    # the Green tail rule beyond r_max = 700
    r = np.concatenate((spread(r, np.log),
                        [2.0, np.nextafter(2.0, 3.0), 20.0,
                         np.nextafter(20.0, 21.0), 748.0]))
    ours = getattr(kernels, "_" + kind)(nu, r)
    theirs = getattr(special, kind)(nu, r)
    assert_within_gate(ours, theirs, bessel_mpmath(kind, nu, r),
                       (grid_name, kind, nu))


def test_bessel_factors_keep_shape_and_scalars():
    r = np.geomspace(1e-3, 30.0, 12).reshape(3, 4)
    for N in (3, 4):
        y0, yinf = kernels.green_halfline_factors(N, r)
        assert y0.shape == yinf.shape == (3, 4)
        assert kernels.gamma0(N, r).shape == (3, 4)
        assert isinstance(kernels.gamma0(N, 0.5), float)


# ---------------------------------------------------------------------------
# Gauss-Jacobi rules


@lru_cache(maxsize=None)
def rule_exponents():
    """beta of every origin rule the seven tuples' plans build (24 nodes,
    beta = N - 1 - sigma) and of the algebraic tail rule a Riesz potential
    meets when fed to the Riesz operator again (32 nodes, beta = N - 2
    alpha - 1, where that tail is integrable)."""
    betas = set()
    grid = build_grid(1e-4, 30.0, 10)
    for t in TUPLES:
        ex = exponents(t)
        disc = Discretization(ex, grid)
        for plan in (disc.step_plan, disc.plan(disc.phi0)):
            betas |= {ex.N - 1.0 - sigma for sigma, _, _ in plan}
        if ex.N > 2 * ex.alpha:
            betas.add(float(ex.N - 2 * ex.alpha - 1))
    return sorted(betas)


@pytest.mark.parametrize("n", [24, 32])
def test_jacobi_rules_against_mpmath(n):
    for beta in rule_exponents():
        x, w = operators._jacobi01(n, beta)
        assert np.all(np.isfinite(w)) and np.all(w > 0.0)
        with mpmath.workdps(30):
            X, W = mpmath.gauss_quadrature(n, "jacobi", 0, mpmath.mpf(beta))
            ref_x = np.array([float((v + 1) / 2) for v in X])
            ref_w = np.array([float(v / 2 ** (mpmath.mpf(beta) + 1))
                              for v in W])
        sx, sw = special.roots_jacobi(n, 0.0, beta)
        sx, sw = (sx + 1.0) / 2.0, sw * 0.5 ** (beta + 1.0)
        node_err = np.abs(x - ref_x).max()
        assert node_err <= max(GATE, np.abs(sx - ref_x).max()), (n, beta)
        assert_within_gate(w, sw, ref_w, (n, beta))


@pytest.mark.parametrize("n", [24, 32])
def test_jacobi_rules_are_exact_on_monomials(n):
    for beta in rule_exponents():
        x, w = operators._jacobi01(n, beta)
        for k in range(2 * n):
            assert math.isclose(float(w @ x ** k), 1.0 / (beta + k + 1.0),
                                rel_tol=1e-13), (n, beta, k)
