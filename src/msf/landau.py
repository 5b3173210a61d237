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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .specfun import DomainError, laguerre_fn, laguerre_fn_table

__all__ = [
    "FieldConfig",
    "QuantumNumbers",
    "Quadrature",
    "GridFunction",
    "resolve_qnums",
    "stationary_state",
    "energy_nonrel",
    "make_quadrature",
    "inner_product_perp",
    "state_on_grid",
    "radial_alpha",
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
        if not self.gamma > 0:
            raise DomainError("gamma must be positive")
        if not (0.0 <= self.mu < 1.0):
            raise DomainError("mu must lie in [0, 1)")
        if self.l0 != int(self.l0):
            raise DomainError("l0 must be an integer")


@dataclass(frozen=True)
class QuantumNumbers:
    """Branch j, angular number l, radial number m and derived (n1, n2)."""

    j: int
    l: int
    m: int
    n1: float
    n2: float


def resolve_qnums(j: int, l: int, m: int, cfg: FieldConfig) -> QuantumNumbers:
    """Validate (j, l, m) against the branch domains and derive (n1, n2)."""
    if j not in (0, 1):
        raise DomainError("branch j must be 0 or 1")
    if m < 0 or m != int(m):
        raise DomainError("radial number m must be a non-negative integer")
    if l != int(l):
        raise DomainError("angular number l must be an integer")
    if j == 0:
        if l >= 0:
            raise DomainError("branch j=0 requires l < 0")
        n1, n2 = float(m), m - l - cfg.mu
    else:
        if l < 0:
            raise DomainError("branch j=1 requires l >= 0")
        n1, n2 = m + l + cfg.mu, float(m)
    return QuantumNumbers(j=j, l=int(l), m=int(m), n1=n1, n2=n2)


def energy_nonrel(q: QuantumNumbers, cfg: FieldConfig) -> float:
    """Transverse energy gamma (n1 + 1/2)."""
    return cfg.gamma * (q.n1 + 0.5)


def radial_alpha(q: QuantumNumbers, cfg: FieldConfig) -> float:
    """Order of the Laguerre function in the radial profile.

    The profile behaves as rho^(alpha/2) near the origin; alpha equals
    -l - mu on branch 0 and l + mu on branch 1.
    """
    return (q.n2 - q.n1) if q.j == 0 else (q.n1 - q.n2)


def _radial_profile(q: QuantumNumbers, rho) -> np.ndarray:
    if q.j == 0:
        return laguerre_fn(q.n2, q.m, rho)
    return laguerre_fn(q.n1, q.m, rho)


def stationary_state(q: QuantumNumbers, theta, rho, cfg: FieldConfig):
    """Wave function phi^(j)_{n1,n2}(theta, rho), broadcast over inputs."""
    norm = math.sqrt(cfg.gamma / (2.0 * math.pi))
    phase = np.exp(1j * (q.l - cfg.l0) * np.asarray(theta, dtype=float))
    if q.j == 1:
        phase = phase * np.exp(-1j * math.pi * q.l)
    out = norm * phase * _radial_profile(q, rho)
    return complex(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class Quadrature:
    """Generalized Gauss-Laguerre rule for integrals over rho in (0, inf).

    nodes/weights integrate  f(rho) rho^alpha exp(-rho)  exactly for
    polynomial f up to degree 2n-1.  ``plain_weights`` absorb the weight
    function so that sum(plain_weights * g(nodes)) approximates the
    plain integral of g; they are exact whenever g has the form
    poly * rho^alpha * exp(-rho).
    """

    alpha: float
    nodes: np.ndarray
    weights: np.ndarray
    plain_weights: np.ndarray = field(repr=False)

    def integrate(self, values: np.ndarray):
        """Plain integral over (0, inf) of a sampled integrand."""
        vals = np.asarray(values)
        mask = vals != 0
        if not mask.all():
            return np.sum(self.plain_weights[mask] * vals[mask])
        return np.sum(self.plain_weights * vals)

    def integrate_weighted(self, values: np.ndarray):
        """Integral against the rho^alpha exp(-rho) weight."""
        return np.sum(self.weights * np.asarray(values))


def make_quadrature(alpha: float, n_nodes: int) -> Quadrature:
    """Gauss rule with weight rho^alpha exp(-rho), alpha > -1, n >= 2."""
    if not alpha > -1.0:
        raise DomainError("quadrature weight exponent must exceed -1")
    if not 2 <= n_nodes <= 250:
        raise DomainError("node count must lie in [2, 250]")
    x, w = _sp.roots_genlaguerre(n_nodes, alpha)
    if not (np.isfinite(x).all() and np.isfinite(w).all() and (w > 0).all()):
        raise DomainError(f"quadrature construction failed for alpha={alpha}, n={n_nodes}")
    # plain weights w * exp(x) * x^(-alpha), assembled in log space since
    # w underflows at the largest nodes while the product stays moderate
    lw = np.log(w) + x - alpha * np.log(x)
    return Quadrature(alpha=float(alpha), nodes=x, weights=w, plain_weights=np.exp(lw))


@dataclass(frozen=True)
class GridFunction:
    """A radial profile with a single angular index on a shared rule.

    Represents  f(theta, rho) = exp(i (l_index - l0) theta) * values(rho)
    sampled at quad.nodes.
    """

    l_index: int
    values: np.ndarray
    quad: Quadrature


def state_on_grid(q: QuantumNumbers, cfg: FieldConfig, quad: Quadrature) -> GridFunction:
    """Sample a stationary state on a quadrature rule.

    The angular factor exp(i (l - l0) theta) is carried symbolically via
    l_index; the constant branch phase and normalization live in values.
    """
    norm = math.sqrt(cfg.gamma / (2.0 * math.pi))
    vals = norm * _radial_profile(q, quad.nodes).astype(complex)
    if q.j == 1:
        vals = vals * np.exp(-1j * math.pi * q.l)
    return GridFunction(l_index=q.l, values=vals, quad=quad)


def inner_product_perp(f: GridFunction, g: GridFunction, cfg: FieldConfig) -> complex:
    """Plane inner product (f, g) = (1/gamma) int drho dtheta conj(f) g.

    The angular integral is exact: it vanishes unless the two angular
    indices coincide, in which case it contributes 2 pi.  The radial
    integral uses the shared quadrature rule.
    """
    if f.quad is not g.quad:
        raise DomainError("grid functions must share one quadrature rule")
    if f.l_index != g.l_index:
        return 0.0 + 0.0j
    radial = f.quad.integrate(np.conj(f.values) * g.values)
    return complex(2.0 * math.pi / cfg.gamma * radial)


def gram_matrix(states: list[QuantumNumbers], cfg: FieldConfig, n_nodes: int = 64) -> np.ndarray:
    """Gram matrix of stationary states under the plane inner product.

    States with different l are orthogonal exactly (angular integral);
    same-l blocks share one Laguerre order alpha, so a weight-matched
    Gauss rule integrates the profile products exactly.  Quadrature
    rules are built per l block.
    """
    n = len(states)
    out = np.zeros((n, n), dtype=complex)
    blocks: dict[tuple[int, int], list[int]] = {}
    for i, q in enumerate(states):
        blocks.setdefault((q.j, q.l), []).append(i)
    for (j, l), idx in blocks.items():
        alpha = radial_alpha(states[idx[0]], cfg)
        m_max = max(states[i].m for i in idx)
        quad = make_quadrature(alpha, max(2 * (m_max + 1), 8))
        tab = laguerre_fn_table(alpha, m_max, quad.nodes)
        for a in idx:
            for b in idx:
                out[a, b] = quad.integrate(tab[states[a].m] * tab[states[b].m])
    return out


def hamiltonian_radial_residual(q: QuantumNumbers, cfg: FieldConfig, grid) -> float:
    """Relative residual of the radial eigenvalue problem on a grid.

    Applies the transverse Hamiltonian through the first-order ladder
    factorization

        H = -gamma ( D^-_{L+1} D^+_L + 1/2 ),
        D^+-_L = sqrt(rho) d/drho -+ (L + mu)/(2 sqrt(rho)) -+ sqrt(rho)/2

    on a :class:`msf.radial.RadialGrid` and compares against
    gamma (n1 + 1/2) in an L2 sense.  The rho^(alpha/2) origin factor is
    peeled off analytically at each step, so only entire functions are
    differentiated numerically.
    """
    rho = grid.nodes
    g = _radial_profile(q, rho)
    L = q.l
    mu = cfg.mu
    alpha = radial_alpha(q, cfg)
    h = g * rho ** (-alpha / 2.0)
    # D^+_L applied to rho^(a/2) h, written as rho^((a-1)/2) h2
    dh = grid.derivative(h)
    c1 = 0.5 * (alpha - (L + mu))
    h2 = rho * (dh - 0.5 * h) + c1 * h
    # D^-_{L+1} applied to rho^((a-1)/2) h2, exponent drops to (a-2)/2
    dh2 = grid.derivative(h2)
    c2 = 0.5 * ((alpha - 1.0) + (L + 1 + mu))
    h3 = rho * (dh2 + 0.5 * h2) + c2 * h2
    hval = -cfg.gamma * (rho ** ((alpha - 2.0) / 2.0) * h3 + 0.5 * g)
    target = energy_nonrel(q, cfg) * g
    num = math.sqrt(float(grid.integrate(np.abs(hval - target) ** 2)))
    den = math.sqrt(float(grid.integrate(np.abs(target) ** 2)))
    return num / den
