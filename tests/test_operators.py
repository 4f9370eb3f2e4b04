"""Product-integration operators against frozen values and direct quadrature.

The two operators (Riesz potential and the Green operator of -Delta+1) are
checked three ways: frozen closed-form values for the indicator of the
unit ball, the exact power-law composition identity for the Riesz potential,
and slow direct quadrature from oracles.py.  Structural properties that
the solver relies on (nonnegative weights and outputs, exact comparison
preservation, linearity) get their own tests.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate
from scipy.special import gamma as gamma_fn

import oracles
from choqlab import operators
from choqlab.kernels import (
    ReducedAccuracyWarning,
    green_halfline_factors,
    riesz_angular,
)
from choqlab.operators import (
    ExpDecay,
    NonIntegrableOriginError,
    RadialProfile,
    ZERO_TAIL,
    apply,
    assemble,
    build_grid,
    pointwise_power,
    pointwise_product,
)
from choqlab.verify import _discrete_radial_lhs


# ---------------------------------------------------------------------------
# grids


def test_build_grid_four_points_per_decade():
    g = build_grid(1e-2, 1e2, 4)
    assert g.size == 17
    ratios = g.nodes[1:] / g.nodes[:-1]
    assert np.allclose(ratios, 10.0 ** 0.25, rtol=1e-12)
    assert g.nodes[0] == 1e-2
    assert g.nodes[-1] == 1e2


def test_build_grid_production_size():
    g = build_grid(1e-4, 30.0, 40)
    assert g.size == 220
    assert math.isclose(g.log_step, math.log(10.0) / 40.0, rel_tol=1e-3)


def test_build_grid_rejects_bad_arguments():
    with pytest.raises(ValueError):
        build_grid(0.0, 1.0, 40)
    with pytest.raises(ValueError):
        build_grid(1.0, 0.5, 40)
    with pytest.raises(ValueError):
        build_grid(1e-2, 1.0, 0.5)


def test_profile_validation():
    g = build_grid(1e-2, 1.0, 10)
    with pytest.raises(ValueError):
        RadialProfile(g, np.ones(g.size - 1))
    with pytest.raises(ValueError):
        RadialProfile(g, -np.ones(g.size))
    for bad_entries, message in (({3: np.nan}, "finite"),
                                 ({3: np.inf}, "finite"),
                                 ({3: -np.inf}, "finite"),
                                 ({3: -1e-300}, "nonnegative"),
                                 ({2: -1.0, 3: np.nan}, "finite")):
        bad = np.ones(g.size)
        for index, value in bad_entries.items():
            bad[index] = value
        with pytest.raises(ValueError, match=f"values must be {message}"):
            RadialProfile(g, bad)
    with pytest.raises(ValueError):
        RadialProfile(g, np.ones(g.size), origin_exponent=-1.0)


def test_profile_values_are_immutable():
    g = build_grid(1e-2, 1.0, 10)
    prof = RadialProfile(g, np.ones(g.size))
    with pytest.raises(ValueError):
        prof.values[0] = 2.0


# ---------------------------------------------------------------------------
# frozen indicator values


def indicator_profile(grid):
    return RadialProfile(grid, np.ones(grid.size), origin_exponent=0.0,
                         tail=ZERO_TAIL)


def test_riesz_indicator_innermost_value():
    # I_2[chi_{B_1}](0) = int_{B_1} |y|^{-1} dy = 4 pi int_0^1 s ds = 2 pi
    g = build_grid(1e-4, 1.0, 40)
    out = apply(assemble("riesz", 3, g, alpha=2.0), indicator_profile(g))
    assert math.isclose(out.values[0], 2.0 * math.pi, rel_tol=1e-6)


def test_green_indicator_innermost_value():
    # (-Delta+1)^{-1} chi_{B_1} at the origin, N = 3: 1 - 2/e
    g = build_grid(1e-4, 1.0, 40)
    out = apply(assemble("green", 3, g), indicator_profile(g))
    assert math.isclose(out.values[0], 1.0 - 2.0 / math.e, rel_tol=1e-6)


def test_riesz_indicator_matches_direct_everywhere():
    # The hat interpolant reproduces the indicator exactly (the jump sits on
    # a node), so the only error left is the quadrature of the kernel.
    g = build_grid(1e-4, 1.0, 40)
    out = apply(assemble("riesz", 3, g, alpha=2.0), indicator_profile(g))
    f = lambda s: np.where(s <= 1.0, 1.0, 0.0)
    for i in (0, g.size // 2, g.size - 1):
        direct = oracles.riesz_apply_direct(3, 2.0, f, g.nodes[i], s_max=1.0)
        assert math.isclose(out.values[i], direct, rel_tol=1e-9)


# ---------------------------------------------------------------------------
# Green inverse property


def bump_values(nodes, center=1.0, width=0.85):
    return np.exp(-np.log(nodes / center) ** 2 / (2.0 * width ** 2))


def inverse_property_error(ppd):
    g = build_grid(1e-4, 30.0, ppd)
    f = bump_values(g.nodes)
    u = apply(assemble("green", 3, g), RadialProfile(g, f))
    lhs = _discrete_radial_lhs(3, g.nodes, u.values)
    err = np.abs(lhs - f[2:-2]) / f.max()
    return err[3:-3].max()


def test_green_inverse_property():
    e40 = inverse_property_error(40)
    e80 = inverse_property_error(80)
    assert e40 <= 1e-3
    assert e80 <= 0.5 * e40


# ---------------------------------------------------------------------------
# Riesz power-law composition identity
#
# int |y|^{-m} |x-y|^{alpha-N} dy = C(N, alpha, m) |x|^{alpha-m} whenever
# alpha < m < N, with C a product of Gamma factors.  A pure power profile
# exercises the core weights, the origin column, and the algebraic tail
# column in a single exactly-known computation.


def riesz_power_constant(N, alpha, m):
    return (math.pi ** (N / 2.0)
            * gamma_fn((N - m) / 2.0) * gamma_fn(alpha / 2.0)
            * gamma_fn((m - alpha) / 2.0)
            / (gamma_fn(m / 2.0) * gamma_fn((N - alpha) / 2.0)
               * gamma_fn((N + alpha - m) / 2.0)))


@pytest.mark.parametrize("N,alpha,m", [
    (3, 2.0, 2.5),
    (4, 1.5, 2.0),
    (5, 2.0, 3.5),
    (3, 0.8, 1.5),
])
def test_riesz_power_identity(N, alpha, m):
    errs = {}
    for ppd in (40, 80):
        g = build_grid(1e-3, 1e3, ppd)
        prof = RadialProfile(g, g.nodes ** (-m), origin_exponent=m,
                             tail=ExpDecay(0.0, m))
        out = apply(assemble("riesz", N, g, alpha=alpha), prof)
        exact = riesz_power_constant(N, alpha, m) * g.nodes ** (alpha - m)
        errs[ppd] = np.abs(out.values / exact - 1.0).max()
    assert errs[40] <= 6e-3
    assert errs[80] <= 0.35 * errs[40]


# ---------------------------------------------------------------------------
# direct quadrature comparisons


def riesz_tail_integral(N, alpha, r, r_max, tail):
    # int_{r_max}^inf tail(s) s^{N-1} K(r, s) ds with s = r_max (1 + t^5),
    # which turns the kernel's singularity at s = r = r_max into t^{5alpha-1}
    def integrand(t):
        s = r_max * (1.0 + t ** 5)
        return ((s / r_max) ** (-tail.power)
                * math.exp(-tail.rate * (s - r_max)) * s ** (N - 1)
                * riesz_angular(N, alpha, r, s) * 5.0 * r_max * t ** 4)

    with warnings.catch_warnings():
        # the substitution samples a few points within 1e-12 of the diagonal,
        # and quad reports roundoff as it closes in on epsrel
        warnings.simplefilter("ignore", ReducedAccuracyWarning)
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        return sum(integrate.quad(integrand, a, b, limit=400, epsabs=0.0,
                                  epsrel=1e-12)[0]
                   for a, b in ((0.0, 1.0), (1.0, np.inf)))


@pytest.mark.parametrize("alpha", [0.8, 1.0])
def test_riesz_tail_columns_at_the_singular_last_node(alpha):
    # row M-1 meets the kernel's diagonal singularity at s = r_max, so both
    # tail rules grade into r_max; an ungraded rule is off by ~1e-3 here at
    # every resolution
    N = 3
    g = build_grid(1e-3, 1e3, 40)
    op = assemble("riesz", N, g, alpha=alpha)
    for tail in (ExpDecay(0.0, 1.5), ExpDecay(1.5, 0.0)):
        col = op.tail_column(tail)
        for i in (-1, -2):
            exact = riesz_tail_integral(N, alpha, g.nodes[i], g.r_max, tail)
            assert math.isclose(col[i], exact, rel_tol=5e-5), (tail, i)


@pytest.mark.parametrize("N", [3, 4, 5])
def test_green_origin_column_against_direct(N):
    # the origin column is G applied to (s/r_1)^{-sigma} on (0, r_1)
    g = build_grid(1e-2, 20.0, 20)
    op = assemble("green", N, g)
    r1 = g.r_min
    for sigma in sorted({1.0, N - 2.0, N - 0.5}):
        col = op.origin_column(sigma)
        for i in (0, g.size // 2, g.size - 1):
            # unscaled: at the last node and sigma = N - 1/2 the exact value
            # is as small as 1e-22, which the oracle resolves only because
            # it integrates with no absolute tolerance
            direct = oracles.green_apply_direct(
                N, lambda s: (s / r1) ** (-sigma), g.nodes[i], s_max=r1)
            assert math.isclose(col[i], direct, rel_tol=1e-8), (sigma, i)


@pytest.mark.parametrize("N,alpha", [(3, 2.0), (4, 1.5)])
def test_riesz_matches_direct_quadrature(N, alpha):
    cases = [
        (lambda s: np.exp(-np.log(np.maximum(s, 1e-300) / 0.1) ** 2 / 1.445),
         0.0),
        (lambda s: np.where(s <= 1.0, np.maximum(s, 1e-300) ** -1.0, 0.0),
         1.0),
    ]
    for f, sigma in cases:
        errs = {}
        for ppd in (40, 80):
            g = build_grid(1e-4, 1.0, ppd)
            prof = RadialProfile(g, f(g.nodes), origin_exponent=sigma)
            out = apply(assemble("riesz", N, g, alpha=alpha), prof)
            e = []
            for i in (0, g.size // 2, g.size - 1):
                direct = oracles.riesz_apply_direct(N, alpha, f, g.nodes[i],
                                                      s_max=1.0)
                e.append(abs(out.values[i] / direct - 1.0))
            errs[ppd] = max(e)
        assert errs[40] <= 5e-3
        assert errs[80] <= 0.5 * errs[40]


def test_green_exponential_tail_against_direct():
    # e^{-s} density with the matching tail model: interior nodes are sharp;
    # near r_max the log grid's cells are wide compared to the e^{-s} scale,
    # so only h^2 improvement is asserted there.
    N = 3
    f = lambda s: np.exp(-s)
    errs = {}
    for ppd in (40, 80):
        g = build_grid(1e-2, 20.0, ppd)
        prof = RadialProfile(g, f(g.nodes), tail=ExpDecay(1.0, 0.0))
        out = apply(assemble("green", N, g), prof)
        mid = abs(out.values[g.size // 2]
                  / oracles.green_apply_direct(N, f, g.nodes[g.size // 2])
                  - 1.0)
        end = abs(out.values[-1]
                  / oracles.green_apply_direct(N, f, g.nodes[-1]) - 1.0)
        errs[ppd] = (mid, end)
    assert errs[40][0] <= 1e-3
    assert errs[40][1] <= 0.1
    assert errs[80][1] <= 0.35 * errs[40][1]


def test_riesz_exponential_tail_against_direct():
    N, alpha = 3, 2.0
    f = lambda s: np.exp(-s / 2.0) / s
    g = build_grid(1e-2, 20.0, 40)
    prof = RadialProfile(g, f(g.nodes), origin_exponent=1.0,
                         tail=ExpDecay(0.5, 1.0))
    out = apply(assemble("riesz", N, g, alpha=alpha), prof)
    for i in (0, g.size // 2, g.size - 1):
        direct = oracles.riesz_apply_direct(N, alpha, f, g.nodes[i])
        assert math.isclose(out.values[i], direct, rel_tol=8e-3)


def test_green_is_symmetric_in_the_radial_measure():
    # <G f, h>_mu = <f, G h>_mu with mu = r^{N-1} dr (log-trapezoid).
    g = build_grid(1e-3, 10.0, 40)
    for N in (3, 5):
        op = assemble("green", N, g)
        f = RadialProfile(g, np.exp(-np.log(g.nodes / 0.2) ** 2))
        h = RadialProfile(g, np.exp(-np.log(g.nodes / 1.0) ** 2 / 2.0))
        mu = g.nodes ** N * g.log_step
        a = float(np.sum(apply(op, f).values * h.values * mu))
        b = float(np.sum(f.values * apply(op, h).values * mu))
        assert math.isclose(a, b, rel_tol=2e-2)


# ---------------------------------------------------------------------------
# structure: nonnegativity, linearity, comparison preservation


def test_weights_and_columns_are_nonnegative():
    # every weight is a product or a sum of products of these factors
    g = build_grid(1e-3, 10.0, 20)
    for kind, alpha in (("riesz", 1.5), ("green", None)):
        op = assemble(kind, 4, g, alpha=alpha)
        assert min(factor.min() for factor in op._factors) >= 0.0
        assert op.origin_column(1.2).min() >= 0.0
        assert op.tail_column(ExpDecay(1.0, 1.0)).min() >= 0.0
        assert op.tail_column(ExpDecay(0.0, 5.0)).min() >= 0.0 \
            if kind == "riesz" else True


@pytest.mark.parametrize("alpha", [0.8, 1.0])
def test_riesz_assembly_never_touches_the_divergent_diagonal(alpha):
    # for alpha <= 1 riesz_angular warns when asked for rho = 1; the
    # product-integration nodes of the weights, the origin cell and both
    # tail rules must all stay off the diagonal
    g = build_grid(1e-3, 10.0, 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ReducedAccuracyWarning)
        op = assemble("riesz", 3, g, alpha=alpha)
        op.origin_column(0.0)
        op.origin_column(1.5)
        op.tail_column(ExpDecay(1.0, 1.0))
        op.tail_column(ExpDecay(0.0, 3.0))


def test_negative_weights_are_refused(monkeypatch):
    # the monotone solver rests on nonnegative weights; the check must be
    # an exception, not an assert that python -O strips
    g = build_grid(1e-3, 10.0, 10)
    clean = assemble("riesz", 3, g, alpha=1.5)._riesz_cell_integrals()

    def one_negative(self):
        A, B = (part.copy() for part in clean)
        A[A.size // 2] = -1e-30
        return A, B

    monkeypatch.setattr(operators.OperatorMatrix, "_riesz_cell_integrals",
                        one_negative)
    with pytest.raises(ValueError, match="product weights must be >= 0"):
        assemble("riesz", 3, g, alpha=1.5)


def test_negative_columns_are_refused(monkeypatch):
    g = build_grid(1e-3, 10.0, 10)
    op = assemble("riesz", 3, g, alpha=1.5)
    monkeypatch.setattr(operators, "riesz_angular",
                        lambda *args: -np.ones(np.shape(args[-1])))
    with pytest.raises(ValueError, match="origin column must be >= 0"):
        op.origin_column(1.0)
    with pytest.raises(ValueError, match="tail column must be >= 0"):
        op.tail_column(ExpDecay(1.0, 1.0))
    with pytest.raises(ValueError, match="tail column must be >= 0"):
        op.tail_column(ExpDecay(0.0, 2.0))


# apply never forms the weight matrix: Riesz runs one correlation with the
# Toeplitz family, Green a suffix and a prefix sum of the separable factors.
# The masked per-entry definitions below build the M x M matrix entry by
# entry from the same cell integrals, and stay here as the oracles.  Only
# the order of the roundings differs; the worst relative gap measured over
# these grids and random, power-law and exponentially small inputs is
# 2.6e-15 (Green, 160 ppd), so the tolerance is 5e-15.

GRID_PART_RTOL = 5e-15


def masked_riesz_fill(A, B, nodes, alpha):
    m = nodes.size
    w = np.zeros((m, m))
    offset = m - 1
    i_idx = np.arange(m)[:, None]
    l_idx = np.arange(m)[None, :]
    k_left = l_idx - i_idx
    k_right = l_idx - 1 - i_idx
    w += np.where(l_idx <= m - 2,
                  A[np.clip(k_left + offset, 0, A.size - 1)], 0.0)
    w += np.where(l_idx >= 1,
                  B[np.clip(k_right + offset, 0, B.size - 1)], 0.0)
    w *= nodes[:, None] ** alpha
    return w


def masked_green_fill(y0_n, yinf_n, PA, PB, QA, QB):
    m = y0_n.size
    w = np.zeros((m, m))
    i_idx = np.arange(m)[:, None]
    l_idx = np.arange(m)[None, :]
    left_above = (l_idx <= m - 2) & (l_idx >= i_idx)
    left_below = (l_idx <= m - 2) & (l_idx < i_idx)
    right_above = (l_idx >= 1) & (l_idx - 1 >= i_idx)
    right_below = (l_idx >= 1) & (l_idx - 1 < i_idx)
    PA_l = np.broadcast_to(np.append(PA, 0.0)[None, :], (m, m))
    QA_l = np.broadcast_to(np.append(QA, 0.0)[None, :], (m, m))
    PB_l = np.broadcast_to(np.append(0.0, PB)[None, :], (m, m))
    QB_l = np.broadcast_to(np.append(0.0, QB)[None, :], (m, m))
    w += np.where(left_above, PA_l, 0.0) * y0_n[:, None]
    w += np.where(right_above, PB_l, 0.0) * y0_n[:, None]
    w += np.where(left_below, QA_l, 0.0) * yinf_n[:, None]
    w += np.where(right_below, QB_l, 0.0) * yinf_n[:, None]
    return w


def assert_fills_match_masked_definition(N, alpha, grid):
    riesz = assemble("riesz", N, grid, alpha=alpha)
    green = assemble("green", N, grid)
    dense = {riesz: masked_riesz_fill(*riesz._riesz_cell_integrals(),
                                      grid.nodes, alpha),
             green: masked_green_fill(*green._green_cell_moments())}
    rng = np.random.default_rng(grid.size)
    no_column = np.zeros(grid.size)
    for v in (rng.random(grid.size),
              rng.random(grid.size) * rng.integers(0, 2, grid.size),
              grid.nodes ** -2.5, np.exp(-grid.nodes) / grid.nodes):
        for op, weights in dense.items():
            np.testing.assert_allclose(op.matvec(v, no_column, no_column),
                                       weights @ v, rtol=GRID_PART_RTOL,
                                       atol=0.0, err_msg=op.kind)


@pytest.mark.parametrize("N, alpha", [(3, 2.0), (4, 1.0), (3, 0.8),
                                      (5, 2.5), (6, 3.2)])
@pytest.mark.parametrize("ppd", [20, 40, 160])
def test_fills_match_masked_definition(N, alpha, ppd):
    assert_fills_match_masked_definition(N, alpha, build_grid(1e-3, 20.0, ppd))


def test_fills_match_masked_definition_on_smallest_grids():
    # m = 2 has no interior node, so the correlation drops out entirely
    for r_max, size in ((10.0, 2), (100.0, 3)):
        grid = build_grid(1.0, r_max, 1)
        assert grid.size == size
        assert_fills_match_masked_definition(3, 2.0, grid)
        assert_fills_match_masked_definition(4, 1.0, grid)


# Each origin column and diagonal Riesz cell is one kernel product over a
# composite rule.  The per-panel loops below are what that replaced; only
# the summation order differs, so they agree to a few ulps.


def looped_origin_column(op, sigma):
    N, r1, nodes = op.N, op.grid.r_min, op.grid.nodes
    xg, wg = operators._jacobi01(24, N - 1.0 - sigma)
    if op.kind == "green":
        y0_s, _ = green_halfline_factors(N, r1 * xg)
        return green_halfline_factors(N, nodes)[1] * r1 ** N * np.dot(wg, y0_s)
    alpha = op.alpha
    rho = 0.5 * r1 * xg[None, :] / nodes[:, None]
    shape = riesz_angular(N, alpha, 1.0, rho)
    col = (0.5 * r1) ** (N - sigma) * r1 ** sigma * (shape @ wg)
    x12, w12 = operators._leggauss01(12)
    edges = operators._graded_panels(0.5 * r1, r1, toward_b=True)
    for lo, hi in zip(edges, edges[1:]):
        s = lo + (hi - lo) * x12
        shape = riesz_angular(N, alpha, 1.0, s[None, :] / nodes[:, None])
        col += (hi - lo) * (shape * (s / r1) ** (-sigma) * s ** (N - 1)) @ w12
    return col / nodes ** (N - alpha)


def looped_diagonal_cells(op):
    N, alpha, h = op.N, op.alpha, op.grid.log_step
    x12, w12 = operators._leggauss01(12)
    cells = []
    for k, toward_b in ((-1, True), (0, False)):
        edges = operators._graded_panels(0.0, 1.0, toward_b)
        a = b = 0.0
        for lo, hi in zip(edges, edges[1:]):
            x = lo + (hi - lo) * x12
            f = riesz_angular(N, alpha, 1.0, np.exp(h * (k + x))) \
                * np.exp(h * (k + x) * N) * h
            a += (hi - lo) * np.dot(w12, f * (1.0 - x))
            b += (hi - lo) * np.dot(w12, f * x)
        cells.append((a, b))
    return np.array(cells)


@pytest.mark.parametrize("N, alpha", [(3, 2.0), (4, 1.0), (3, 0.8),
                                      (5, 2.5), (6, 3.2)])
@pytest.mark.parametrize("ppd", [20, 40])
def test_rules_match_the_panel_loops(N, alpha, ppd):
    g = build_grid(1e-3, 20.0, ppd)
    riesz = assemble("riesz", N, g, alpha=alpha)
    A, B = riesz._riesz_cell_integrals()
    m = g.size
    np.testing.assert_allclose(
        np.column_stack((A[m - 2:m], B[m - 2:m])),
        looped_diagonal_cells(riesz), rtol=2e-15, atol=0.0)
    for op in (riesz, assemble("green", N, g)):
        for sigma in (0.0, 1.0, N - 2.0, N - 0.5):
            np.testing.assert_allclose(op.origin_column(sigma),
                                       looped_origin_column(op, sigma),
                                       rtol=2e-15, atol=0.0)


def test_cached_quadrature_rules_are_read_only():
    for rule in (operators._leggauss01(12), operators._leggauss01(24),
                 operators._jacobi01(24, 1.5)):
        for arr in rule:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0
    assert operators._leggauss01(16) is operators._leggauss01(16)
    assert operators._jacobi01(32, 0.25) is operators._jacobi01(32, 0.25)


def test_apply_is_linear():
    g = build_grid(1e-3, 1.0, 20)
    op = assemble("riesz", 3, g, alpha=2.0)
    rng = np.random.default_rng(7)
    fa = rng.random(g.size)
    fb = rng.random(g.size)
    out_sum = apply(op, RadialProfile(g, 2.0 * fa + 3.0 * fb))
    parts = (2.0 * apply(op, RadialProfile(g, fa)).values
             + 3.0 * apply(op, RadialProfile(g, fb)).values)
    np.testing.assert_allclose(out_sum.values, parts, rtol=1e-12, atol=1e-300)


_CMP_GRID = build_grid(1e-2, 1.0, 20)
_CMP_OPS = (assemble("riesz", 3, _CMP_GRID, alpha=1.5),
            assemble("green", 3, _CMP_GRID))


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_comparison_preservation_is_exact(seed):
    # f <= g nodewise (same annotations) must give apply(f) <= apply(g)
    # without any float slack: every output is a fixed-order sum of
    # nonnegative products, so rounding is monotone
    g = _CMP_GRID
    rng = np.random.default_rng(seed)
    f = rng.random(g.size)
    h = f + rng.random(g.size) * rng.integers(0, 2, g.size)
    for op in _CMP_OPS:
        out_f = apply(op, RadialProfile(g, f)).values
        out_h = apply(op, RadialProfile(g, h)).values
        assert np.all(out_f <= out_h), op.kind


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(st.just(0.0),
                          st.floats(5e-324, 1e-300),
                          st.floats(0.0, 1e100)),
                min_size=_CMP_GRID.size, max_size=_CMP_GRID.size),
       st.sampled_from([0.0, 1.0, 2.5]))
def test_apply_of_nonnegative_input_is_nonnegative(values, sigma):
    # apply adds no clamp: nonnegative factors, columns and inputs give a
    # nonnegative output by construction, zeros and subnormals included
    prof = RadialProfile(_CMP_GRID, np.array(values), origin_exponent=sigma,
                         tail=ExpDecay(1.0, 0.0))
    for op in _CMP_OPS:
        assert apply(op, prof).values.min() >= 0.0, op.kind


def test_green_factors_refuse_overflow():
    # y0(r) carries e^r, which overflows past r = 709.78
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="green factor y0.*overflows"):
        assemble("green", 3, build_grid(1.0, 1000.0, 5))
    assemble("green", 3, build_grid(1.0, 700.0, 5))


def test_apply_rejects_foreign_grid():
    g1 = build_grid(1e-2, 1.0, 10)
    g2 = build_grid(1e-2, 2.0, 10)
    op = assemble("green", 3, g1)
    with pytest.raises(ValueError):
        apply(op, RadialProfile(g2, np.ones(g2.size)))


def test_assemble_validation():
    g = build_grid(1e-2, 1.0, 10)
    with pytest.raises(ValueError):
        assemble("laplace", 3, g)
    with pytest.raises(ValueError):
        assemble("riesz", 3, g)          # missing alpha
    with pytest.raises(ValueError):
        assemble("riesz", 3, g, alpha=3.0)
    with pytest.raises(ValueError):
        assemble("green", 3, g, alpha=2.0)
    with pytest.raises(ValueError):
        assemble("green", 2, g)


# ---------------------------------------------------------------------------
# origin handling


def test_non_integrable_origin_raises():
    g = build_grid(1e-2, 1.0, 10)
    prof_at = RadialProfile(g, g.nodes ** -1.0, origin_exponent=3.0)
    prof_above = RadialProfile(g, g.nodes ** -1.0, origin_exponent=3.5)
    for kind, alpha in (("riesz", 2.0), ("green", None)):
        op = assemble(kind, 3, g, alpha=alpha)
        for prof in (prof_at, prof_above):
            with pytest.raises(NonIntegrableOriginError) as exc:
                apply(op, prof)
            assert exc.value.kind == kind
            assert exc.value.N == 3
        # just under the threshold must still work
        near = RadialProfile(g, g.nodes ** -1.0, origin_exponent=2.95)
        apply(op, near)


def test_annotation_warning_on_mismatched_slope():
    g = build_grid(1e-3, 1.0, 20)
    op = assemble("green", 3, g)
    flat_but_declared_steep = RadialProfile(g, np.ones(g.size),
                                            origin_exponent=2.5)
    assert apply(op, flat_but_declared_steep).annotation_warning
    honest = RadialProfile(g, g.nodes ** -2.5, origin_exponent=2.5)
    assert not apply(op, honest).annotation_warning
    # the slope check must survive a ratio of the first two values that
    # underflows (1e-308 / 1e16)
    extreme = np.ones(g.size)
    extreme[:2] = 1e-308, 1e16
    assert apply(op, RadialProfile(g, extreme)).annotation_warning


@pytest.mark.parametrize("kind", ["riesz", "green"])
def test_annotation_warning_survives_a_zero_input(kind):
    # a flagged profile that underflowed to zero keeps its flag through
    # the operator, as it would through pointwise_power or _product
    g = build_grid(1e-3, 1.0, 20)
    op = assemble(kind, 3, g, alpha=2.0 if kind == "riesz" else None)
    for flagged in (True, False):
        zero = RadialProfile(g, np.zeros(g.size),
                             annotation_warning=flagged)
        out = apply(op, zero)
        assert not out.values.any()
        assert out.annotation_warning is flagged


# ---------------------------------------------------------------------------
# annotation transfer rules


def test_riesz_annotation_transfer():
    g = build_grid(1e-2, 1.0, 10)
    op = assemble("riesz", 4, g, alpha=1.5)
    steep = apply(op, RadialProfile(g, g.nodes ** -2.0, origin_exponent=2.0))
    assert math.isclose(steep.origin_exponent, 0.5)
    assert steep.tail == ExpDecay(0.0, 2.5)      # r^{alpha-N} falloff
    shallow = apply(op, RadialProfile(g, g.nodes ** -1.0, origin_exponent=1.0))
    assert shallow.origin_exponent == 0.0


def test_green_annotation_transfer():
    g = build_grid(1e-2, 1.0, 10)
    op = assemble("green", 5, g)
    steep = apply(op, RadialProfile(g, g.nodes ** -3.0, origin_exponent=3.0))
    assert math.isclose(steep.origin_exponent, 1.0)
    shallow = apply(op, RadialProfile(g, g.nodes ** -1.5, origin_exponent=1.5))
    assert shallow.origin_exponent == 0.0

    def tail_out(tail):
        prof = RadialProfile(g, np.ones(g.size), tail=tail)
        return apply(op, prof).tail

    kernel_tail = ExpDecay(1.0, 2.0)             # (N-1)/2 at N = 5
    assert tail_out(ZERO_TAIL) == kernel_tail
    assert tail_out(ExpDecay(3.0, 0.0)) == kernel_tail
    assert tail_out(ExpDecay(1.0, 0.5)) == ExpDecay(1.0, -0.5)
    assert tail_out(ExpDecay(0.4, 2.0)) == ExpDecay(0.4, 2.0)


# ---------------------------------------------------------------------------
# pointwise algebra


def test_pointwise_power_and_product_annotations():
    g = build_grid(1e-2, 1.0, 10)
    f = RadialProfile(g, g.nodes ** -1.0, origin_exponent=1.0,
                      tail=ExpDecay(1.0, 2.0))
    cube = pointwise_power(f, 3.0)
    np.testing.assert_allclose(cube.values, g.nodes ** -3.0, rtol=1e-12)
    assert cube.origin_exponent == 3.0
    assert cube.tail == ExpDecay(3.0, 6.0)

    prod = pointwise_product(f, cube)
    assert prod.origin_exponent == 4.0
    assert prod.tail == ExpDecay(4.0, 8.0)

    zero_power = pointwise_power(RadialProfile(g, np.ones(g.size)), 0.0)
    assert np.all(zero_power.values == 1.0)


def test_pointwise_power_rejects_negative_exponents():
    g = build_grid(1e-2, 1.0, 10)
    f = RadialProfile(g, g.nodes, origin_exponent=1.0, tail=ExpDecay(1.0, 0.0))
    with pytest.raises(ValueError):
        pointwise_power(f, -0.5)


def test_pointwise_ops_reject_mismatched_grids():
    g1 = build_grid(1e-2, 1.0, 10)
    g2 = build_grid(1e-2, 2.0, 10)
    a = RadialProfile(g1, np.ones(g1.size))
    b = RadialProfile(g2, np.ones(g2.size))
    with pytest.raises(ValueError):
        pointwise_product(a, b)
