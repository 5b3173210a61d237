"""Composite radial grid: differentiation blocks and column batching."""

import numpy as np
import pytest

from msf.radial import make_radial_grid


@pytest.mark.parametrize("rho_max,tail_step", [(70.0, 1.5), (24.0, 0.5)])
def test_diff_blocks_exact_on_scaled_monomials(rho_max, tail_step):
    # interpolant derivatives are exact for polynomials below the panel
    # size; the origin cluster is a degree-12 least-squares fit
    grid = make_radial_grid(rho_max=rho_max, tail_step=tail_step)
    cluster, *tail = zip(grid.panel_slices, grid.diff_blocks)
    sl, d = cluster
    x = grid.nodes[sl]
    scale = 2.0 / x[-1]
    t = scale * x - 1.0
    for k in range(13):
        exact = k * t ** max(k - 1, 0) * scale
        err = np.max(np.abs(d @ t**k - exact))
        assert err <= 1e-12 * max(np.max(np.abs(exact)), scale), k
    for sl, d in tail:
        x = grid.nodes[sl]
        mid, half = 0.5 * (x[0] + x[-1]), 0.5 * (x[-1] - x[0])
        t = (x - mid) / half
        for k in range(x.size):
            exact = k * t ** max(k - 1, 0) / half
            err = np.max(np.abs(d @ t**k - exact))
            assert err <= 1e-12 * max(np.max(np.abs(exact)), 1.0 / half), (sl, k)


def test_derivative_acts_column_by_column():
    grid = make_radial_grid(rho_max=70.0)
    rho = grid.nodes
    cols = np.stack([np.exp(-rho / 2) * rho**0.7,
                     np.sin(rho) * np.exp(-rho / 5),
                     (1 + 0.5j) * rho**2 * np.exp(-rho / 3)], axis=1)
    block = grid.derivative(cols)
    single = np.stack([grid.derivative(cols[:, k]) for k in range(3)], axis=1)
    assert block.shape == cols.shape
    assert np.max(np.abs(block - single)) <= 1e-10 * np.max(np.abs(single))
