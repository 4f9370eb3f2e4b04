"""The numpy special functions against mpmath at 30 digits, next to scipy.

Each set holds the arguments that building one exponent tuple's operators
and step and Phi_0 plans feeds a function: the Riesz 2F1, e^{-r} I_nu and
e^r K_nu, on the 40- and 160-point-per-decade grids and on a grid out to
r_max = 700.  A set is thinned to points evenly spaced in logit(z) or
log(r), ends included.  The gate on every set: the relative error against
mpmath is at most max(2e-14, scipy's own error on the same points).  The
Gauss-Jacobi rules are judged the same way at the exponents the origin and
tail rules use, nodes by absolute error; the Legendre rule, Jacobi's at
beta = 0, by the fixed gate alone.
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

import oracles
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

    Out at r_max = 700, past solver.r_max_ceiling, the Green moments
    overflow for N >= 4, and the assembly refuses them; there the overflow
    is silenced, N >= 4 builds the two operators without the plans, and
    its Green assembly is let fail once it has evaluated every factor.
    The alpha = 2 operators evaluate no 2F1, so (3, 2) has no "hyp" set.
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
    if alpha == 2.0:
        # the Newtonian kernel is semiseparable and assembles without the
        # 2F1; its terminating Horner branch is checked by
        # test_riesz_hyp2f1_special_values and on the alpha = 4 tuple's set
        assert ("hyp", N, alpha) not in assembly_arguments(grid_name)
        return
    z = assembly_arguments(grid_name)[("hyp", N, alpha)]
    check_hyp2f1(N, alpha, spread(z, logit), (grid_name, t))


@pytest.mark.parametrize("t", TUPLES, ids=lambda t: f"{t[0]}-{t[1]}")
def test_gauss_coefficients_sum_the_far_field(t):
    # the assembly sums these coefficients against a rule's moments, and
    # _riesz_hyp2f1 by Horner's rule, wherever z <= 1/2, so their Horner
    # sum must be the 2F1 there
    N, alpha = t[0], float(Fraction(t[1]))
    z = np.linspace(0.0, kernels.FAR_FIELD_Z, 40)
    ours = np.polynomial.polynomial.polyval(
        z, kernels.riesz_gauss_coefficients(N, alpha))
    theirs = special.hyp2f1((N - alpha) / 2.0, (2.0 - alpha) / 2.0,
                            N / 2.0, z)
    assert_within_gate(ours, theirs, hyp2f1_mpmath(N, alpha, z), t)


BESSEL_NU = [0.5, 1.0, 1.5, 2.0, 2.5]


def first_dropped_ive_term(nu, hankel, j, x):
    """Term j of _ive's power series or Hankel expansion at x, from its
    closed form, and the sum of the whole series there (scipy), the
    Hankel expansion's being e^{-x} I_nu(x) sqrt(2 pi x) to its last
    digit past x = 20."""
    if hankel:
        term = math.prod(((2 * i - 1) ** 2 - 4.0 * nu * nu) / (8.0 * i * x)
                         for i in range(1, j + 1))
        return term, special.ive(nu, x) * math.sqrt(2.0 * math.pi * x)
    term = math.exp(2 * j * math.log(0.5 * x) - math.lgamma(j + 1.0)
                    - math.lgamma(nu + j + 1.0) + math.lgamma(nu + 1.0))
    return term, special.iv(nu, x) * math.gamma(nu + 1.0) * (0.5 * x) ** -nu


@pytest.mark.parametrize("hankel", [False, True], ids=["power", "hankel"])
@pytest.mark.parametrize("nu", BESSEL_NU)
def test_bessel_tables_are_cut_where_the_next_term_is_negligible(nu, hankel):
    # each side's table is cut at the split x = max(20, nu^2/4), the far
    # end of both sides' ranges, where the first term it drops is below
    # 2^-56 of the sum; the tables are cached and read-only, and a point
    # gets the same bits alone as inside a large array
    split, _, *tables = kernels._ive_tables(nu)
    coefs = tables[hankel]
    assert not coefs.flags.writeable
    assert kernels._ive_tables(nu)[2 + hankel] is coefs
    assert split == max(20.0, nu * nu / 4.0)
    term, total = first_dropped_ive_term(nu, hankel, coefs.size, split)
    assert abs(term) <= 2.0 ** -56 * abs(total), (nu, hankel, term, total)
    r = np.geomspace(1e-4, 748.0, 14_000)
    r = r[(r > split) == hankel]
    together = kernels._ive(nu, r)
    for i in np.unique(np.linspace(0, r.size - 1, 60).astype(int)):
        assert kernels._ive(nu, r[i:i + 1]).tobytes() == \
            together[i:i + 1].tobytes(), (nu, hankel, r[i])


def test_k01_table_is_cut_where_the_next_term_is_negligible():
    # the K_0/K_1 series serve 0 < x <= 2 and are cut at x = 2 (t = 1, L =
    # gamma), where K_0 = sum_j (H_j - gamma) / j!^2 and K_1 - 1/2 = sum_j
    # (gamma - (H_j + H_{j+1})/2) / (j! (j+1)!)
    table = kernels._k01_coefficients()
    assert not table.flags.writeable
    j = table.shape[0]
    harmonic = sum(1.0 / i for i in range(1, j + 1))
    k0 = (harmonic - np.euler_gamma) / math.factorial(j) ** 2
    k1 = (np.euler_gamma - harmonic - 0.5 / (j + 1)) / (
        math.factorial(j) * math.factorial(j + 1))
    assert abs(k0) <= 2.0 ** -56 * special.k0(2.0)
    assert abs(k1) <= 2.0 ** -56 * abs(special.k1(2.0) - 0.5)
    r = np.geomspace(1e-4, 2.0, 4_000)
    together = kernels._kve(1.0, r)
    for i in range(0, r.size, 97):
        assert kernels._kve(1.0, r[i:i + 1]).tobytes() == \
            together[i:i + 1].tobytes(), r[i]


def test_horner_has_the_bits_of_polyval():
    # the assembly sums the series of one x over a rule's (2, n) weights,
    # so its Horner helper meets (J+1,) and (J+1, 2) coefficient arrays,
    # passed as c[..., None] for polyval's outer product; the K_0/K_1
    # series pass one coefficient column per point, which broadcasts
    polyval = np.polynomial.polynomial.polyval
    z = np.linspace(0.0, kernels.FAR_FIELD_Z, 40)
    for N, alpha in ((4, 1.0), (3, 0.5), (5, 3.5), (7, 1.0 / 3.0)):
        coefs = kernels.riesz_gauss_coefficients(N, alpha)
        for c in (coefs, np.stack((coefs, coefs[::-1]), axis=1)):
            ours = kernels.horner(z, c[..., None])
            assert ours.shape == c.shape[1:] + z.shape
            assert ours.tobytes() == polyval(z, c).tobytes(), \
                (N, alpha, c.shape)
        columns = coefs[:, None] * (1.0 - z)
        pointwise = [polyval(v, column) for v, column in zip(z, columns.T)]
        assert kernels.horner(z, columns).tobytes() == np.array(
            pointwise).tobytes(), (N, alpha)


NEAR_INTEGER = [1 - 1e-3, 1 + 1e-3, 2 - 1e-3, 2 + 1e-3]


@pytest.mark.parametrize("alpha", NEAR_INTEGER)
@pytest.mark.parametrize("N", [3, 4])
def test_riesz_hyp2f1_next_to_integer_alpha(N, alpha):
    # c - a - b = alpha - 1 is 1e-3 from an integer, where A&S 15.3.6 as
    # printed loses three digits to cancellation
    z = assembly_arguments("ppd160")[("hyp", 4, 1.0)]
    check_hyp2f1(N, alpha, spread(z, logit), (N, alpha))


# each cached series is cut where its terms at z = 1/2 are negligible, the
# Gauss series' at z = 1/2 and the A&S 15.3.6 pairs' at w = 1 - z = 1/2, so
# the split is each cut's worst argument; 1 - 1e-8 is the assembly's
# closest approach to the diagonal
SPLIT = np.array([0.25, 0.5 - 2.0 ** -30, 0.5, np.nextafter(0.5, 1.0),
                  1.0 - 1e-8])


@pytest.mark.parametrize("N, alpha", [
    (t[0], float(Fraction(t[1]))) for t in TUPLES] + [
    (N, alpha) for N in (3, 4) for alpha in NEAR_INTEGER])
def test_riesz_hyp2f1_at_the_split(N, alpha):
    check_hyp2f1(N, alpha, SPLIT, (N, alpha))


def test_riesz_hyp2f1_special_values():
    # alpha = 2 and 4 terminate, z = 1 included; for alpha > 1 the value at
    # z = 1 is Gauss's sum, which the kernel refuses to evaluate and the
    # tests' diagonal oracle carries
    assert np.all(kernels._riesz_hyp2f1(3, 2.0, np.array([0.0, 0.7, 1.0]))
                  == 1.0)
    z = np.array([0.3, 0.9, 1.0])
    assert np.allclose(kernels._riesz_hyp2f1(5, 4.0, z), 1.0 - z / 5.0,
                       rtol=1e-15, atol=0.0)
    for N, alpha in [(3, 1.5), (4, 2.5), (6, 5.0 / 3.0)]:
        on_diagonal = oracles.riesz_angular_to_the_diagonal(N, alpha, 1.0, 1.0)
        assert math.isclose(on_diagonal / kernels.unit_sphere_area(N),
                            hyp2f1_mpmath(N, alpha, [1])[0], rel_tol=1e-15)


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


@pytest.mark.parametrize("n", [6, 12, 16, 24])
def test_legendre_panel_rule_against_mpmath(n):
    # a fixed gate, not scipy's error: at n = 24 numpy's leggauss weights
    # are 1.2e-13 off, and the Golub-Welsch rule at beta = 0 is 9.5e-15 off
    x, w = operators._panel_rule(np.array([0.0, 1.0]), n)
    with mpmath.workdps(30):
        X, W = mpmath.gauss_quadrature(n, "legendre")
        ref_x = np.array([float((v + 1) / 2) for v in X])
        ref_w = np.array([float(v / 2) for v in W])
    order = np.argsort(ref_x)
    assert np.abs(x - ref_x[order]).max() <= 2.0 ** -52
    np.testing.assert_allclose(w, ref_w[order], rtol=GATE, atol=0.0)
