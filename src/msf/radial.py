"""Composite radial grid with quadrature and differentiation.

Panels are graded geometrically toward the origin (down to
_RHO_MIN = 1e-8, so profiles with mildly divergent rho^(-mu/2) behavior
are sampled without ever touching rho = 0) and linearly in the tail.
Each panel carries a Gauss-Legendre rule; derivatives use the exact
derivative of the panel's polynomial interpolant (barycentric
differentiation matrix), which is spectrally accurate for functions
smooth on the panel.  The panels of the origin cluster share one
least-squares derivative block instead.

The operator is stored as stacked runs: consecutive panels with the same
point count form one (count, n, n) stack, so a derivative costs one
batched product per run (three on the default grids: the origin
cluster, the 8-point panels, the 12-point panels), not one per panel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .specfun import DomainError

__all__ = ["RadialGrid", "make_radial_grid"]


def _diff_matrix(x: np.ndarray) -> np.ndarray:
    """Barycentric differentiation matrix of the interpolant through x,
    from one table of outer differences x_i - x_j."""
    dx = x[:, None] - x[None, :]
    np.fill_diagonal(dx, 1.0)
    w = 1.0 / np.prod(dx, axis=1)
    d = (w[None, :] / w[:, None]) / dx
    np.fill_diagonal(d, 0.0)
    np.fill_diagonal(d, -np.sum(d, axis=1))
    return d


def _lsq_cheb_diff(x: np.ndarray, degree: int) -> np.ndarray:
    """Derivative operator from a Chebyshev least-squares fit on [0, max x].

    Samples clustered geometrically toward zero make per-panel
    differentiation ill-conditioned (rounding amplified as 1/width); a
    single smooth fit over the whole origin window avoids that, and the
    bias is negligible because the differentiated factors are analytic
    at the origin.
    """
    from numpy.polynomial import chebyshev as C

    edge = float(x[-1])
    t = 2.0 * x / edge - 1.0
    # column k holds T_k'(t): the derivatives of all basis columns at once
    da = C.chebval(t, C.chebder(np.eye(degree + 1))).T * (2.0 / edge)
    return da @ np.linalg.pinv(C.chebvander(t, degree))


@dataclass(frozen=True, eq=False)
class RadialGrid:
    nodes: np.ndarray
    weights: np.ndarray
    rho_min: float
    # (slice of nodes, (count, n, n) stack of derivative blocks) per run
    runs: tuple = field(repr=False)

    def integrate(self, values: np.ndarray):
        return np.sum(self.weights * np.asarray(values))

    def derivative(self, values: np.ndarray) -> np.ndarray:
        """d/drho along axis 0; trailing axes are independent columns.

        One batched product per run of equal panels.  The blocks are
        real, so a complex input is differentiated as its real
        (nodes, 2k) view; an input that is not C-contiguous is copied once.
        """
        vals = np.asarray(values)
        dtype = complex if np.iscomplexobj(vals) else float
        x = np.ascontiguousarray(vals, dtype=dtype).reshape(len(vals), -1).view(float)
        out = np.empty_like(x)
        for sl, stack in self.runs:
            count, n, _ = stack.shape
            np.matmul(stack, x[sl].reshape(count, n, -1), out=out[sl].reshape(count, n, -1))
        return out.view(dtype).reshape(vals.shape)

    @property
    def rho_max(self) -> float:
        return float(self.nodes[-1])


# innermost grid edge, and Gauss points of a full-width panel
_RHO_MIN = 1e-8
_PANEL_POINTS = 12


def make_radial_grid(rho_max: float = 60.0, tail_step: float = 1.5) -> RadialGrid:
    """Build the composite grid: geometric panels on [_RHO_MIN, 1], then
    uniform panels of width tail_step up to rho_max.

    Narrow panels carry fewer Gauss points: the derivative of the
    interpolant amplifies sample rounding by ~n^2/width, while a smooth
    factor varies so little across a narrow panel that a low order
    already interpolates it to machine accuracy.  Raises DomainError
    unless rho_max is finite and at least 1 and tail_step finite and
    positive.
    """
    if not 1.0 <= rho_max < np.inf:
        raise DomainError("rho_max must be finite and at least 1")
    if not 0.0 < tail_step < np.inf:
        raise DomainError("tail_step must be positive and finite")
    edges = [_RHO_MIN]
    while edges[-1] < 1.0:
        edges.append(min(edges[-1] * 2.0, 1.0))
    while edges[-1] < rho_max:
        edges.append(min(edges[-1] + tail_step, rho_max))
    rules = {n: np.polynomial.legendre.leggauss(n) for n in (6, 8, _PANEL_POINTS)}
    cluster_edge = 0.012  # panels below this are differentiated jointly
    nodes, weights, cluster_nodes, tail_blocks = [], [], [], []
    for a, b in zip(edges[:-1], edges[1:]):
        width = b - a
        if width < 1e-3:
            n_p = 6
        elif width < 0.2:
            n_p = 8
        else:
            n_p = _PANEL_POINTS
        xg, wg = rules[n_p]
        half = 0.5 * width
        mid = 0.5 * (b + a)
        xn = mid + half * xg
        nodes.append(xn)
        weights.append(half * wg)
        if b <= cluster_edge:
            cluster_nodes.append(xn)
        else:
            tail_blocks.append(_diff_matrix(xn))
    # the cluster is one run of one block; the tail groups by panel size
    stacks = [_lsq_cheb_diff(np.concatenate(cluster_nodes), degree=12)[None]]
    stacks += [np.stack(list(run)) for _, run in itertools.groupby(tail_blocks, key=len)]
    runs, start = [], 0
    for stack in stacks:
        count, n, _ = stack.shape
        runs.append((slice(start, start + count * n), stack))
        start += count * n
    return RadialGrid(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        rho_min=_RHO_MIN,
        runs=tuple(runs),
    )
