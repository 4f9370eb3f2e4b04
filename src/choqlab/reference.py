"""Finite-difference reference used by the verify suites.

discrete_radial_lhs applies -Delta + 1 by central differences, sharing no
code with the product-integration weights it checks.  The slower oracles
(adaptive quadrature of the angular integrals and of both operators, ODE
residuals of the kernels) serve only the tests and live in tests/oracles.py.
"""

from __future__ import annotations

import numpy as np


def discrete_radial_lhs(N: int, nodes, values):
    """Apply -Delta + 1 radially by central differences on a geometric grid.

    Works in the log variable x = ln r, where the grid is uniform and the
    operator reads -e^{-2x} (u_xx + (N-2) u_x) + u.  Five-point centered
    stencils keep the stencil's own truncation error well below the
    quadrature error it is meant to expose: with three points the e^{2x}
    curvature of u near the origin costs O(h^2) times the source amplitude,
    which is the same order as the effect under test.  Returns the interior
    slice (indices 2..M-3) of the result.
    """
    nodes = np.asarray(nodes, dtype=float)
    values = np.asarray(values, dtype=float)
    x = np.log(nodes)
    hs = np.diff(x)
    h = hs.mean()
    if not np.allclose(hs, h, rtol=1e-8):
        raise ValueError("discrete_radial_lhs expects a geometric grid")
    v = values
    u_x = (v[:-4] - 8 * v[1:-3] + 8 * v[3:-1] - v[4:]) / (12.0 * h)
    u_xx = (-v[:-4] + 16 * v[1:-3] - 30 * v[2:-2] + 16 * v[3:-1] - v[4:]) / (12.0 * h ** 2)
    rin = nodes[2:-2]
    return -(u_xx + (N - 2) * u_x) / rin ** 2 + v[2:-2]
