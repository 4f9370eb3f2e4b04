"""Kernel accuracy against closed forms and independent quadrature oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from choqlab.kernels import (
    ReducedAccuracyWarning,
    c_N,
    gamma0,
    green_halfline_factors,
    phi0,
    riesz_angular,
    unit_sphere_area,
)


# ---------------------------------------------------------------------------
# fundamental solutions


def test_gamma0_yukawa_closed_form():
    r = np.geomspace(1e-3, 20.0, 400)
    exact = np.exp(-r) / (4.0 * math.pi * r)
    rel = np.abs(gamma0(3, r) - exact) / exact
    assert rel.max() < 1e-10


def test_phi0_scaling_and_domination():
    r = np.geomspace(1e-3, 40.0, 300)
    # N = 3 closed form e^{-r/2}/(4 pi r)
    exact = np.exp(-r / 2.0) / (4.0 * math.pi * r)
    rel = np.abs(phi0(3, r) - exact) / exact
    assert rel.max() < 1e-10
    for N in (3, 4, 5, 6):
        g, f = gamma0(N, r), phi0(N, r)
        assert np.all(g <= f)
        ratio = g / f
        assert abs(ratio[0] - 1.0) < 2e-3          # -> 1 at the origin
        assert ratio[-1] < 1e-6                    # -> 0 at infinity
        assert np.all(np.diff(ratio) < 0)


def test_phi0_tail_constant():
    # phi0 * r^{(N-1)/2} e^{r/2} approaches a constant: the deviation from
    # the last sample shrinks and the final step is within one percent
    for N in (3, 4, 5):
        r = np.array([50.0, 100.0, 200.0, 400.0])
        prod = phi0(N, r) * r ** ((N - 1) / 2.0) * np.exp(r / 2.0)
        dev = np.abs(prod / prod[-1] - 1.0)
        assert np.all(np.diff(dev[:-1]) < 0) or dev.max() < 1e-12
        assert abs(prod[-1] / prod[-2] - 1.0) < 0.01


def test_gamma0_monotone_positive():
    r = np.geomspace(1e-3, 30.0, 200)
    for N in (3, 4, 5, 6):
        g = gamma0(N, r)
        assert np.all(g > 0)
        assert np.all(np.diff(g) < 0)


def test_c_N_formula_and_extrapolation():
    assert math.isclose(c_N(3), 1.0 / (4.0 * math.pi), rel_tol=1e-14)
    assert math.isclose(c_N(4), 1.0 / (4.0 * math.pi ** 2), rel_tol=1e-14)
    assert math.isclose(c_N(5), 1.0 / (8.0 * math.pi ** 2), rel_tol=1e-14)
    # oracle: r^{N-2} gamma0 -> c_N, Richardson-free small-r extrapolation
    for N in (3, 4, 5):
        r = np.array([1e-6, 1e-7])
        vals = r ** (N - 2) * gamma0(N, r)
        assert abs(vals[-1] - c_N(N)) < 1e-6 * c_N(N)


def test_flux_normalization_unit_mass():
    # -int_{dB_eps} d_r Gamma_0 -> 1: the delta carries unit mass
    for N in (3, 4, 5):
        flux = oracles.flux_normalization(N, lambda r: gamma0(N, r))
        assert abs(flux - 1.0) < 1e-5


def test_radial_ode_residual():
    r = np.geomspace(1e-3, 20.0, 120)
    for N in (3, 4, 5, 6):
        res = oracles.radial_ode_residual(N, lambda rr: gamma0(N, rr), r)
        assert res.max() < 1e-8


def test_domain_errors():
    with pytest.raises(ValueError):
        gamma0(3, 0.0)
    with pytest.raises(ValueError):
        gamma0(3, -1.0)
    with pytest.raises(ValueError):
        gamma0(2, 1.0)


# ---------------------------------------------------------------------------
# angular kernels


def test_riesz_angular_n3_alpha2_closed_form():
    # elementary reduction: 4 pi / max(r, s)
    for r, s in [(1.0, 2.0), (2.0, 1.0), (0.3, 0.3), (5.0, 0.01)]:
        assert math.isclose(riesz_angular(3, 2.0, r, s),
                            4.0 * math.pi / max(r, s), rel_tol=1e-12)
    assert math.isclose(riesz_angular(3, 2.0, 1.0, 2.0), 2.0 * math.pi,
                        rel_tol=1e-12)


def test_riesz_angular_small_s_limit():
    for N, alpha in [(3, 1.5), (4, 2.0), (5, 2.5)]:
        v = riesz_angular(N, alpha, 1.0, 1e-9)
        assert math.isclose(v, unit_sphere_area(N), rel_tol=1e-6)


def test_riesz_angular_homogeneity():
    for lam in (0.5, 2.0, 10.0):
        for N, alpha in [(3, 2.0), (4, 1.0), (5, 2.5)]:
            a = riesz_angular(N, alpha, lam * 1.3, lam * 0.4)
            b = lam ** (alpha - N) * riesz_angular(N, alpha, 1.3, 0.4)
            assert math.isclose(a, b, rel_tol=1e-12)


@pytest.mark.parametrize("N,alpha", [(3, 1.0), (3, 2.0), (4, 1.5),
                                     (5, 2.0), (5, 0.7), (6, 3.2)])
def test_riesz_angular_vs_quadrature(N, alpha):
    for r, s in [(0.5, 1.3), (1.0, 1.01), (2.0, 0.1), (1.0, 0.999)]:
        ours = riesz_angular(N, alpha, r, s)
        ref = oracles.riesz_angular_quad(N, alpha, r, s)
        assert math.isclose(ours, ref, rel_tol=1e-8), (N, alpha, r, s)


def test_riesz_angular_diagonal():
    # alpha > 1: finite Gauss value, matches quadrature
    ours = riesz_angular(3, 2.0, 1.0, 1.0)
    assert math.isclose(ours, 4.0 * math.pi, rel_tol=1e-10)
    # alpha <= 1: divergent, flagged backoff value
    with pytest.warns(ReducedAccuracyWarning):
        v = riesz_angular(3, 1.0, 1.0, 1.0)
    assert np.isfinite(v) and v > 0


@pytest.mark.parametrize("alpha", [0.8, 1.0])
def test_riesz_angular_backs_off_next_to_the_diagonal(alpha):
    # z = rho^2 carries a rounding error near 1e-16, which sets the
    # divergent factor once 1 - z is tiny; within 1e-12 of the diagonal the
    # kernel backs off and warns when alpha <= 1
    for s in (1000.0000000000011, 1000.0 * (1.0 + 4e-13),
              1000.0 / (1.0 + 1e-15)):
        with pytest.warns(ReducedAccuracyWarning):
            v = riesz_angular(3, alpha, 1000.0, s)
        assert np.isfinite(v) and v > 0
    with pytest.warns(ReducedAccuracyWarning):
        arr = riesz_angular(3, alpha, 1.0, np.array([0.5, 1.0 + 1e-14, 2.0]))
    assert np.all(np.isfinite(arr))
    assert arr[0] == riesz_angular(3, alpha, 1.0, 0.5)
    # outside the zone the value is the 2F1's, finite and without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", ReducedAccuracyWarning)
        assert np.isfinite(riesz_angular(3, alpha, 1.0, 1.0 + 1e-11))


@pytest.mark.parametrize("N", [3, 4, 5, 6])
def test_green_angular_vs_quadrature(N):
    for r, s in [(0.5, 1.3), (2.0, 0.3), (1.0, 1.0), (3.0, 3.01)]:
        ours = oracles.green_angular(N, r, s)
        ref = oracles.green_angular_quad(N, r, s)
        assert math.isclose(ours, ref, rel_tol=1e-8), (N, r, s)


def test_green_angular_n3_closed_form():
    for r, s in [(0.5, 1.3), (2.0, 2.0), (0.1, 4.0)]:
        exact = (math.exp(-abs(r - s)) - math.exp(-(r + s))) / (2.0 * r * s)
        assert math.isclose(oracles.green_angular(3, r, s), exact,
                            rel_tol=1e-12)


def test_green_factors_recompose():
    r = np.geomspace(1e-3, 30.0, 50)
    for N in (3, 4, 5):
        y0, yinf = green_halfline_factors(N, r)
        assert np.all(y0 > 0) and np.all(yinf > 0)
        k = oracles.green_angular(N, r[10], r)
        lo = np.minimum(r, r[10])
        hi = np.maximum(r, r[10])
        y0lo, _ = green_halfline_factors(N, lo)
        _, yinfhi = green_halfline_factors(N, hi)
        assert np.allclose(k, y0lo * yinfhi, rtol=1e-12)


def test_green_angular_exponential_tail():
    for N in (3, 4, 5):
        for r in (0.5, 2.0):
            s = np.linspace(2 * r + 2.0, 2 * r + 20.0, 40)
            vals = oracles.green_angular(N, r, s)
            bound = vals[0] * np.exp(-(s - s[0]) / 2.0)
            assert np.all(vals <= bound * (1.0 + 1e-9))


@given(st.integers(3, 6),
       st.floats(0.05, 3.0), st.floats(0.05, 3.0))
@settings(max_examples=120, deadline=None)
def test_angular_symmetry_positivity(N, r, s):
    g = oracles.green_angular(N, r, s)
    assert g > 0
    assert math.isclose(g, oracles.green_angular(N, s, r), rel_tol=1e-12)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ReducedAccuracyWarning)
        for alpha in (1.0, 2.0, min(2.5, N - 0.5)):
            v = riesz_angular(N, alpha, r, s)
            assert v > 0
            assert math.isclose(v, riesz_angular(N, alpha, s, r),
                                rel_tol=1e-12)
