"""Composite radial grid: differentiation runs and column batching."""

import numpy as np
import pytest

from msf.radial import _diff_matrix, make_radial_grid
from msf.specfun import DomainError


def panels(grid):
    """(slice, block) of every panel, unstacked from the runs of equal panels."""
    for sl, stack in grid.runs:
        n = stack.shape[1]
        for k, d in enumerate(stack):
            yield slice(sl.start + k * n, sl.start + (k + 1) * n), d


@pytest.mark.parametrize("rho_max,tail_step", [(70.0, 1.5), (24.0, 0.5)])
def test_diff_blocks_exact_on_scaled_monomials(rho_max, tail_step):
    # interpolant derivatives are exact for polynomials below the panel
    # size; the origin cluster is a degree-12 least-squares fit
    grid = make_radial_grid(rho_max=rho_max, tail_step=tail_step)
    cluster, *tail = panels(grid)
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


@pytest.mark.parametrize("rho_max,tail_step", [
    (1.0, 1.5), (10.0, 1.5), (12.4, 0.5), (24.0, 0.5), (70.0, 1.5), (160.0, 1.5)])
def test_reference_blocks_match_each_panels_own_matrix(rho_max, tail_step):
    # every panel past the cluster stacks the matrix of the rule on [-1, 1]
    # over its half width; the matrix of its own mapped nodes sees their
    # rounding, eps |x| against gaps of about half / 10, as a relative
    # change of 8 eps |x| / half at most, past 1e-13 on far, narrow panels
    eps = np.finfo(float).eps
    grid = make_radial_grid(rho_max=rho_max, tail_step=tail_step)
    _, *tail = panels(grid)
    for sl, d in tail:
        x = grid.nodes[sl]
        own = _diff_matrix(x)
        half = 0.5 * (x[-1] - x[0]) / abs(np.polynomial.legendre.leggauss(x.size)[0][0])
        tol = max(1e-13, 8 * eps * x[-1] / half)
        assert np.max(np.abs(d - own)) <= tol * np.max(np.abs(own)), sl


def test_cluster_block_is_shared_and_read_only():
    a, b = make_radial_grid(10.0), make_radial_grid(70.0, tail_step=0.5)
    (sl_a, block_a), (sl_b, block_b) = a.runs[0], b.runs[0]
    assert sl_a == sl_b and np.shares_memory(block_a, block_b)
    with pytest.raises(ValueError):
        block_a[0, 0, 0] = 1.0


def test_runs_cover_the_grid_in_order():
    grid = make_radial_grid(rho_max=70.0)
    shapes = [stack.shape for _, stack in grid.runs]
    assert shapes == [(1, 126, 126), (5, 8, 8), (48, 12, 12)]
    ends = [0] + [sl.stop for sl, _ in grid.runs]
    assert [sl.start for sl, _ in grid.runs] == ends[:-1]
    assert ends[-1] == grid.nodes.size


def test_derivative_equals_per_panel_products():
    grid = make_radial_grid(rho_max=70.0)
    rho = grid.nodes
    real = np.stack([np.exp(-rho / 2) * rho**0.7, np.sin(rho) * np.exp(-rho / 5),
                     rho**2 * np.exp(-rho / 3)], axis=1)
    cplx = real * np.array([1.0, 1j, 1 - 0.5j]) + 0.3j * real[:, ::-1]
    frozen = cplx.copy()
    frozen.setflags(write=False)
    inputs = {"real 1-D": real[:, 0], "complex 1-D": cplx[:, 1],
              "real 2-D": real, "complex 2-D": cplx,
              "F-ordered": np.asfortranarray(cplx), "column slice": cplx[:, 1:],
              "read-only": frozen}
    eps = np.finfo(float).eps
    for name, v in inputs.items():
        before = v.copy()
        got = grid.derivative(v)
        np.testing.assert_array_equal(v, before, err_msg=name)
        assert got.shape == v.shape and got.dtype == v.dtype, name
        for sl, d in panels(grid):
            ref = d @ v[sl]
            # a dot product of length n rounds within n eps sum |d_ij v_j|
            # per real and imaginary part, so two orderings differ by twice that
            bound = 2 * d.shape[1] * eps * (np.abs(d) @ (np.abs(v[sl].real) + np.abs(v[sl].imag)))
            assert np.all(np.abs(got[sl] - ref) <= bound), (name, sl)


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


def test_grids_compare_by_identity():
    a, b = make_radial_grid(10.0), make_radial_grid(10.0)
    assert a == a and a != b
    assert len({a, b, a}) == 2


@pytest.mark.parametrize("kwargs", [
    {"rho_max": 60.0, "tail_step": 0.0},   # the tail never reaches rho_max
    {"rho_max": 60.0, "tail_step": -1.0},
    {"rho_max": np.inf},
    {"rho_max": 0.5},                       # the origin panels alone reach 1
    {"rho_max": np.nan},
    {"rho_max": 60.0, "tail_step": np.nan},
], ids=["step-0", "step-negative", "rho-max-inf", "rho-max-below-1", "rho-max-nan", "step-nan"])
def test_grid_arguments_checked(kwargs):
    with pytest.raises(DomainError):
        make_radial_grid(**kwargs)
