"""Non-relativistic stationary states in the magnetic-solenoid field.

Working units: hbar = c = M = e = 1, so the only field parameters are
gamma = eB/(c hbar) > 0 and the flux decomposition Phi = Phi_0 (l0 + mu)
with integer l0 and mu in [0, 1).  The dimensionless radial variable is
rho = gamma r^2 / 2, and all transverse energies are multiples of gamma.

The spectrum splits into two families ("branches") distinguished by the
sign range of the angular number l:

    j = 0:  l < 0,   n1 = m,            n2 = m - l - mu
    j = 1:  l >= 0,  n1 = m + l + mu,   n2 = m

with transverse energy gamma (n1 + 1/2).  The normalized wave functions
are

    phi^(0) = N exp(i (l - l0) theta)            I_{n2,n1}(rho)
    phi^(1) = N exp(i (l - l0) theta - i pi l)   I_{n1,n2}(rho)

with N = sqrt(gamma / 2 pi) and the Laguerre functions of
:mod:`msf.specfun`.

The branch map behind every sector is defined here once, as private
helpers the other modules read.  Under an extension label vartheta the
two branches split the angular numbers at one edge,

    branch 0:  l <= -(1 - vartheta)/2,    branch 1:  l >= (1 + vartheta)/2,

so vartheta = -1 gives the planar ranges above and the Dirac extensions
vartheta = +-1 their own (:mod:`msf.dirac` evaluates Dirac row
(j, l, sigma) as planar row l_s = l - (1 + sigma)/2 on the branch whose
range holds l, a spin shift written once, in ``dirac._row``).  A row
has Laguerre order alpha = -(l + mu) on branch 0 and l + mu on branch 1,
radial numbers (n1, n2) = (m, m + alpha) or (m + alpha, m), and profiles
sqrt(gamma / 2 pi) I_{m+alpha,m}(rho) times the branch phase
exp(-i pi l) on branch 1.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .specfun import DomainError, laguerre_fn_table

__all__ = [
    "FieldConfig",
    "QuantumNumbers",
    "Quadrature",
    "resolve_qnums",
    "stationary_state",
    "energy_nonrel",
    "make_quadrature",
]


@dataclass(frozen=True)
class FieldConfig:
    """Field strength and flux decomposition.

    gamma sets the rho = gamma r^2/2 scale; the flux enters only through
    the integer part l0 (a global angular relabeling) and the fractional
    part mu in [0, 1).
    """

    gamma: float = 1.0
    l0: int = 0
    mu: float = 0.0

    def __post_init__(self):
        if not 0 < self.gamma < math.inf:
            raise DomainError("gamma must be positive and finite")
        if not (0.0 <= self.mu < 1.0):
            raise DomainError("mu must lie in [0, 1)")
        if not (math.isfinite(self.l0) and self.l0 == int(self.l0)):
            raise DomainError("l0 must be a finite integer")


@dataclass(frozen=True)
class QuantumNumbers:
    """Branch j, angular number l, radial number m and derived (n1, n2)."""

    j: int
    l: int
    m: int
    n1: float
    n2: float


def _branch_of(l: int, vartheta: int = -1) -> int:
    """Branch 0 when l <= -(1 - vartheta)/2, else branch 1."""
    return 0 if l <= -(1 - vartheta) // 2 else 1


def _branch_l_values(j: int, vartheta: int = -1):
    """Angular numbers of branch j, outward from the edge of :func:`_branch_of`:
    branch 0 counts down from -(1 - vartheta)/2, branch 1 up from
    (1 + vartheta)/2."""
    if j not in (0, 1):
        raise DomainError("branch j must be 0 or 1")
    edge = -(1 - vartheta) // 2
    return itertools.count(edge, -1) if j == 0 else itertools.count(edge + 1)


def _laguerre_order(j: int, l, mu: float):
    """Laguerre order -(l + mu) on branch 0 and l + mu on branch 1,
    elementwise over l; not validated."""
    return l + mu if j == 1 else -(l + mu)


def _radial_numbers(j: int, alpha, m):
    """(n1, n2) = (m, m + alpha) on branch 0 and (m + alpha, m) on branch 1."""
    return (m, m + alpha) if j == 0 else (m + alpha, m)


def _marcum_args(j: int, mu: float, u, v):
    """(nu, x, y) of the Marcum function P_nu(x, y) behind the branch-j weight
    and normalization: (1 - mu, u, v) on branch 0 and (mu, v, u) on branch 1.
    DomainError unless j is a branch and mu passes the flux check of
    :class:`FieldConfig`."""
    if j not in (0, 1):
        raise DomainError("branch j must be 0 or 1")
    FieldConfig(mu=mu)
    return (1.0 - mu, u, v) if j == 0 else (mu, v, u)


def _profile_factor(j: int, l, cfg: FieldConfig):
    """sqrt(gamma / 2 pi) times the branch phase exp(-i pi l) on branch 1,
    elementwise over l."""
    norm = math.sqrt(cfg.gamma / (2.0 * math.pi))
    return norm * (np.exp(-1j * math.pi * np.asarray(l)) if j == 1
                   else np.ones(np.shape(l), dtype=complex))


def _profiles(j: int, l: int, m_max: int, rho, cfg: FieldConfig) -> np.ndarray:
    """Radial profiles of row (j, l), m = 0..m_max, times :func:`_profile_factor`;
    shape (m_max + 1, *np.shape(rho))."""
    tab = laguerre_fn_table(_laguerre_order(j, l, cfg.mu), m_max, rho)
    return tab.reshape(tab.shape[:1] + np.shape(rho)) * _profile_factor(j, l, cfg)


def resolve_qnums(j: int, l: int, m: int, cfg: FieldConfig) -> QuantumNumbers:
    """Validate a given (j, l, m) against the branch domains and derive (n1, n2)."""
    if m < 0 or m != int(m):
        raise DomainError("radial number m must be a non-negative integer")
    if l != int(l):
        raise DomainError("angular number l must be an integer")
    if _branch_of(l) != j:
        raise DomainError(f"l = {l} is not on branch {j}")
    n1, n2 = _radial_numbers(j, _laguerre_order(j, l, cfg.mu), float(m))
    return QuantumNumbers(j=j, l=int(l), m=int(m), n1=n1, n2=n2)


def energy_nonrel(q: QuantumNumbers, cfg: FieldConfig) -> float:
    """Transverse energy gamma (n1 + 1/2)."""
    return cfg.gamma * (q.n1 + 0.5)


def stationary_state(q: QuantumNumbers, theta, rho, cfg: FieldConfig):
    """Wave function phi^(j)_{n1,n2}(theta, rho), broadcast over inputs;
    DomainError at a non-finite theta or rho."""
    theta = np.asarray(theta, dtype=float)
    if not np.isfinite(theta).all():
        raise DomainError("theta must be finite")
    phase = np.exp(1j * (q.l - cfg.l0) * theta)
    out = phase * _profiles(q.j, q.l, q.m, rho, cfg)[q.m]
    return complex(out) if np.ndim(out) == 0 else out


# rules kept by make_quadrature; verify --suite all uses 148 distinct ones
_QUADRATURE_CACHE_SIZE = 256


@dataclass(frozen=True)
class Quadrature:
    """Generalized Gauss-Laguerre rule for integrals over rho in (0, inf).

    nodes/weights integrate  f(rho) rho^alpha exp(-rho)  exactly for
    polynomial f up to degree 2n-1.  ``plain_weights`` absorb the weight
    function so that sum(plain_weights * g(nodes)) approximates the
    plain integral of g; they are exact whenever g has the form
    poly * rho^alpha * exp(-rho).  The arrays are read-only, because
    :func:`make_quadrature` hands one cached rule to every caller.
    """

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    plain_weights: np.ndarray = field(repr=False)

    def integrate(self, values: np.ndarray):
        """Plain integral over (0, inf) of a sampled integrand."""
        return np.sum(self.plain_weights * np.asarray(values))

    def integrate_weighted(self, values: np.ndarray):
        """Integral against the rho^alpha exp(-rho) weight."""
        return np.sum(self.weights * np.asarray(values))


def _gauss_laguerre(n: int, alpha: float):
    """Nodes, weights and log weights of the n-point rule for rho^alpha e^-rho.

    Golub-Welsch: the nodes are the eigenvalues of the symmetric Jacobi
    matrix of the Laguerre recurrence, polished by one Newton step on
    L_n^alpha; the weights go as 1 / (L_{n-1}^alpha L_n^alpha'), each
    factor scaled by the geometric midpoint of its range, normalized to
    sum to Gamma(alpha + 1).  numpy's dense eigensolver stands in for a
    banded one so that no linear-algebra module beyond numpy's loads.
    Where a weight underflows the double range its log is taken from
    the factors' own logs; everywhere else it is the log of the weight.
    """
    k = np.arange(n, dtype=float)
    off = -np.sqrt(k[1:] * (k[1:] + alpha))
    x = np.linalg.eigvalsh(np.diag(2.0 * k + alpha + 1.0) + np.diag(off, 1) + np.diag(off, -1))
    f = _sp.eval_genlaguerre(n, alpha, x)
    df = (n * f - (n + alpha) * _sp.eval_genlaguerre(n - 1, alpha, x)) / x
    x -= f / df
    fm = _sp.eval_genlaguerre(n - 1, alpha, x)
    log_fm, log_df = np.log(np.abs(fm)), np.log(np.abs(df))
    shift_fm = (log_fm.max() + log_fm.min()) / 2.0
    shift_df = (log_df.max() + log_df.min()) / 2.0
    w = 1.0 / ((fm / np.exp(shift_fm)) * (df / np.exp(shift_df)))
    scale = _sp.gamma(alpha + 1.0) / w.sum()
    w *= scale
    tiny = w < np.finfo(float).tiny
    lw = np.log(np.where(tiny, 1.0, w))
    lw[tiny] = shift_fm + shift_df + np.log(abs(scale)) - log_fm[tiny] - log_df[tiny]
    return x, w, lw


@functools.lru_cache(maxsize=_QUADRATURE_CACHE_SIZE)
def make_quadrature(alpha: float, n_nodes: int) -> Quadrature:
    """Gauss rule with weight rho^alpha exp(-rho), alpha > -1, n >= 2.

    Built once per (alpha, n_nodes) and cached; repeated calls return
    the same read-only rule.  At the largest nodes of large rules the
    weights may underflow to zero; the plain weights stay exact there.
    """
    if not alpha > -1.0:
        raise DomainError("quadrature weight exponent must exceed -1")
    if not 2 <= n_nodes <= 250:
        raise DomainError("node count must lie in [2, 250]")
    x, w, lw = _gauss_laguerre(n_nodes, alpha)
    if not (np.isfinite(x).all() and np.isfinite(lw).all() and (w >= 0).all()):
        raise DomainError(f"quadrature construction failed for alpha={alpha}, n={n_nodes}")
    # plain weights w * exp(x) * x^(-alpha), assembled in log space since
    # w underflows at the largest nodes while the product stays moderate
    arrays = (x, w, np.exp(lw + x - alpha * np.log(x)))
    for a in arrays:
        a.setflags(write=False)
    return Quadrature(float(alpha), *arrays)


def gram_matrix(states: list[QuantumNumbers], cfg: FieldConfig) -> np.ndarray:
    """Gram matrix of stationary states under the plane inner product.

    States with different l are orthogonal exactly (angular integral);
    same-l blocks share one Laguerre order alpha, so a weight-matched
    Gauss rule integrates the profile products exactly.  Each block is
    one weighted product of its Laguerre rows on that block's cached rule.
    """
    out = np.zeros((len(states), len(states)), dtype=complex)
    blocks: dict[tuple[int, int], list[int]] = {}
    for i, q in enumerate(states):
        blocks.setdefault((q.j, q.l), []).append(i)
    for (j, l), idx in blocks.items():
        alpha = _laguerre_order(j, l, cfg.mu)
        ms = [states[i].m for i in idx]
        quad = make_quadrature(alpha, max(2 * (max(ms) + 1), 8))
        rows = laguerre_fn_table(alpha, max(ms), quad.nodes)[ms]
        out[np.ix_(idx, idx)] = (rows * quad.plain_weights) @ rows.T
    return out
