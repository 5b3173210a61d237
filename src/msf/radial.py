"""Composite radial grid with quadrature and differentiation.

Panels are graded geometrically toward the origin (down to
_RHO_MIN = 1e-8, so profiles with mildly divergent rho^(-mu/2) behavior
are sampled without ever touching rho = 0) and linearly in the tail.
Each panel carries a Gauss-Legendre rule; derivatives use the exact
derivative of the panel's polynomial interpolant (barycentric
differentiation matrix), which is spectrally accurate for functions
smooth on the panel.  Under the affine map onto [-1, 1] that matrix is
the reference matrix of the rule divided by the half width, so each
rule and its reference matrix are built once per point count.  The
panels of the origin cluster, the same on every grid, share one
least-squares derivative block instead, also built once.

The operator is stored as stacked runs: consecutive panels with the same
point count form one (count, n, n) stack, so a derivative costs one
batched product per run (three on the default grids: the origin
cluster, the 8-point panels, the 12-point panels), not one per panel.
"""

from __future__ import annotations

import functools
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
    # the grid's per-Laguerre-order store of profiles and norms, written
    # by msf.dirac._eigenspinors alone and freed with the grid
    _orders: dict = field(default_factory=dict, init=False, repr=False)

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


# innermost grid edge, Gauss points of a full-width panel, and the top of
# the origin cluster: panels ending below it are differentiated jointly
_RHO_MIN = 1e-8
_PANEL_POINTS = 12
_CLUSTER_EDGE = 0.012
# a tail gap below this fraction of tail_step is rounding left by the
# accumulated edges: the last edge moves to rho_max instead of opening
# a sliver panel of coincident nodes
_SLIVER = 1e-6
# most tail panels of one grid, counted as (rho_max - 1) / tail_step
# before any edge is appended (at most 12 nodes and a 12 x 12 block
# each: 120k nodes and 12 MB of blocks at the bound); msf's grids take
# up to 138 (rho_max 70 at tail_step 0.5)
_MAX_TAIL_PANELS = 10_000


@functools.cache
def _panel_rule(n: int):
    """Nodes, weights and differentiation matrix of the n-point
    Gauss-Legendre rule on [-1, 1]; built once per n, read-only."""
    xg, wg = np.polynomial.legendre.leggauss(n)
    rule = (xg, wg, _diff_matrix(xg))
    for a in rule:
        a.setflags(write=False)
    return rule


def _panel_runs(edges: list):
    """(n, nodes, weights, halves) per run of consecutive panels between
    edges that carry n Gauss points; nodes and weights are (count, n).

    Narrow panels carry fewer points: the derivative of the interpolant
    amplifies sample rounding by ~n^2/width, while a smooth factor varies
    so little across a narrow panel that a low order already
    interpolates it to machine accuracy.
    """
    a, b = np.array(edges[:-1]), np.array(edges[1:])
    width = b - a
    half, mid = 0.5 * width, 0.5 * (b + a)
    counts = np.where(width < 1e-3, 6, np.where(width < 0.2, 8, _PANEL_POINTS))
    start = 0
    for n, run in itertools.groupby(counts.tolist()):
        sl = slice(start, start + len(list(run)))
        xg, wg, _ = _panel_rule(n)
        yield n, mid[sl, None] + half[sl, None] * xg, half[sl, None] * wg, half[sl]
        start = sl.stop


@functools.cache
def _cluster():
    """(top edge, nodes, weights, least-squares derivative block) of the
    origin cluster: the geometric panels from _RHO_MIN that end by
    _CLUSTER_EDGE, the same on every grid.  Built once, read-only."""
    edges = [_RHO_MIN]
    while edges[-1] * 2.0 <= _CLUSTER_EDGE:
        edges.append(edges[-1] * 2.0)
    runs = list(_panel_runs(edges))
    nodes = np.concatenate([xn.ravel() for _, xn, _, _ in runs])
    weights = np.concatenate([wn.ravel() for _, _, wn, _ in runs])
    block = _lsq_cheb_diff(nodes, degree=12)
    for a in (nodes, weights, block):
        a.setflags(write=False)
    return edges[-1], nodes, weights, block


def make_radial_grid(rho_max: float = 60.0, tail_step: float = 1.5) -> RadialGrid:
    """Build the composite grid: geometric panels on [_RHO_MIN, 1], then
    uniform panels of width tail_step up to rho_max (a last gap below
    _SLIVER tail_step widens the panel before it).

    The origin cluster is one run of one shared block; every other run
    of n-point panels stacks the reference matrix of the n-point rule,
    divided by each panel's half width.  Raises DomainError unless
    rho_max is finite and at least 1 and tail_step finite, positive and
    not lost in rounding at an edge, and unless the tail takes at most
    _MAX_TAIL_PANELS panels of tail_step.
    """
    if not 1.0 <= rho_max < np.inf:
        raise DomainError("rho_max must be finite and at least 1")
    if not 0.0 < tail_step < np.inf:
        raise DomainError("tail_step must be positive and finite")
    if (rho_max - 1.0) / tail_step > _MAX_TAIL_PANELS:  # the tail runs from 1 to rho_max
        raise DomainError(f"tail_step {tail_step} takes more than {_MAX_TAIL_PANELS} panels "
                          f"to reach rho_max {rho_max}")
    top, cluster_nodes, cluster_weights, cluster_block = _cluster()
    edges = [top]
    while edges[-1] < 1.0:
        edges.append(min(edges[-1] * 2.0, 1.0))
    while edges[-1] < rho_max:
        edge = edges[-1] + tail_step
        if not edge > edges[-1]:  # the step is lost in rounding: the loop would never end
            raise DomainError(f"tail_step {tail_step} does not advance the edge {edges[-1]}")
        edges.append(rho_max if rho_max - edge <= _SLIVER * tail_step else edge)
    nodes, weights = [cluster_nodes], [cluster_weights]
    runs, start = [(slice(0, cluster_nodes.size), cluster_block[None])], cluster_nodes.size
    for n, xn, wn, halves in _panel_runs(edges):
        nodes.append(xn.ravel())
        weights.append(wn.ravel())
        stack = _panel_rule(n)[2][None] / halves[:, None, None]
        runs.append((slice(start, start + xn.size), stack))
        start += xn.size
    return RadialGrid(
        nodes=np.concatenate(nodes),
        weights=np.concatenate(weights),
        rho_min=_RHO_MIN,
        runs=tuple(runs),
    )
