"""Dirac states in the magnetic-solenoid field, planar and embedded.

The planar (2+1) Hamiltonian is H = sigma.P + M sigma3 (units
hbar = c = e = 1, charge -e).  It admits a one-parameter family of
self-adjoint boundary conditions at the flux line; the two natural ones
are labeled vartheta = +-1 and select which spin component may carry
the irregular-at-origin radial profile in the l = 0 channel.

Scalar building blocks (spin-shifted stationary functions):

    branch 0:  exp(i (l_s - l0) theta) I_{n2,n1},
               n1 = m, n2 = m - l_s - mu,      l <= -(1 - vartheta)/2
    branch 1:  exp(i (l_s - l0) theta - i pi l_s) I_{n1,n2},
               n1 = m + l_s + mu, n2 = m,      l >= (1 + vartheta)/2

with l_s = l - (1 + sigma)/2.  Transverse energy squared is
2 gamma [n1 + (1 + sigma)/2]; the positive operator Pi0 has eigenvalues
E = sqrt(M^2 + E_perp^2) and is always applied spectrally.

Spinor eigenstates of H are built by the operator string

    psi = C { sigma3 [ +- Pi0 - sigma.P ] + M } u,     u = phi_sigma v_sigma,

with sigma = +1 for particles (+) and -1 for antiparticles (-), and C
fixed by unit norm under the spinor inner product.  sigma.P moves the
seed into the other slot, so the string collapses to (E + M) u in the
seed slot plus sigma P_sigma u in the other (P_{+1} = P_+, P_{-1} = P_-).
The states sharing (j, l, sigma) are built as one block, a column per
m: a spinor is one column, a relativistic coherent state one block per
l contracted with its amplitudes.

sigma.P acts by an exact angular shift plus the first-order radial
ladder operator, applied through numerical differentiation on a
composite grid (see :mod:`msf.radial`).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .specfun import DomainError, TruncationError, exp_in_range, laguerre_fn_table
from .landau import FieldConfig
from .radial import RadialGrid, make_radial_grid
from .cs import CSLabel, _branch_l_values, _grown_table, _on_larger_table, _quiet_blocks
from .completeness import _wick_radial

__all__ = [
    "DiracConfig",
    "RelQuantumNumbers",
    "Spinor2",
    "Spinor4",
    "SpectralBoundaryError",
    "resolve_rel_qnums",
    "rel_basis_fn",
    "basis_spinor_component",
    "apply_sigma_p",
    "apply_pi0",
    "dirac_spinor",
    "hamiltonian_apply",
    "d_inner",
    "rel_cs",
    "rel_cs_overlap_closed",
    "embed_3p1",
    "h3p1_apply",
    "sz_apply",
    "d_inner4",
    "xi_flip",
    "green_kernel_rel",
]


class SpectralBoundaryError(RuntimeError):
    """Spinor construction collapsed to zero norm (spectral boundary)."""


@dataclass(frozen=True)
class DiracConfig:
    """Field configuration, mass, and self-adjoint extension label."""

    field: FieldConfig
    mass: float = 1.0
    vartheta: int = 1

    def __post_init__(self):
        if self.vartheta not in (-1, 1):
            raise DomainError("vartheta must be +1 or -1")
        if self.mass < 0:
            raise DomainError("mass must be non-negative")


@dataclass(frozen=True)
class RelQuantumNumbers:
    j: int
    l: int
    m: int
    sigma: int
    l_sigma: int
    n1: float
    n2: float


def _l_range_ok(j: int, l: int, vartheta: int) -> bool:
    if j == 0:
        return l <= -(1 - vartheta) // 2
    return l >= (1 + vartheta) // 2


def resolve_rel_qnums(j: int, l: int, m: int, sigma: int, dc: DiracConfig) -> RelQuantumNumbers:
    """Validate (j, l, m, sigma) against the vartheta-dependent ranges."""
    if j not in (0, 1):
        raise DomainError("branch j must be 0 or 1")
    if sigma not in (-1, 1):
        raise DomainError("sigma must be +1 or -1")
    if m < 0 or m != int(m):
        raise DomainError("m must be a non-negative integer")
    if not _l_range_ok(j, l, dc.vartheta):
        raise DomainError(
            f"l = {l} outside branch-{j} range for vartheta = {dc.vartheta}"
        )
    mu = dc.field.mu
    l_s = l - (1 + sigma) // 2
    if j == 0:
        n1, n2 = float(m), m - l_s - mu
    else:
        n1, n2 = m + l_s + mu, float(m)
    # Laguerre domain: order alpha = +-(n1 - n2) must exceed -1
    alpha = (n2 - n1) if j == 0 else (n1 - n2)
    if not alpha > -1.0:
        raise DomainError("radial profile outside the Laguerre domain")
    return RelQuantumNumbers(j=j, l=int(l), m=int(m), sigma=sigma, l_sigma=int(l_s),
                             n1=n1, n2=n2)


def e_perp_sq(q: RelQuantumNumbers, dc: DiracConfig) -> float:
    """Transverse energy squared 2 gamma [n1 + (1 + sigma)/2]."""
    return 2.0 * dc.field.gamma * (q.n1 + (1 + q.sigma) / 2.0)


def e_energy(q: RelQuantumNumbers, dc: DiracConfig) -> float:
    """sqrt(M^2 + E_perp^2), the eigenvalue of Pi0."""
    return math.sqrt(dc.mass**2 + e_perp_sq(q, dc))


def _energy(n1, sigma: int, dc: DiracConfig):
    """sqrt(M^2 + 2 gamma [n1 + (1 + sigma)/2]), elementwise over n1."""
    return np.sqrt(dc.mass**2 + 2.0 * dc.field.gamma * (n1 + (1 + sigma) / 2.0))


def rel_basis_fn(q: RelQuantumNumbers, dc: DiracConfig, theta, rho):
    """Scalar component function, including sqrt(gamma/2 pi) and phases.

    Supports the irregular-at-origin l = 0 profiles selected by
    vartheta (order alpha in (-1, 0)); these are square integrable but
    unbounded as rho -> 0.
    """
    phase = np.exp(1j * (q.l_sigma - dc.field.l0) * np.asarray(theta, dtype=float))
    out = phase * _profiles(q.sigma, q.l_sigma, q.m, dc, np.asarray(rho, dtype=float))[q.m]
    return complex(out) if np.ndim(out) == 0 else out


@dataclass(frozen=True)
class Spinor2:
    """Two-component spinor on a shared radial grid.

    Component values are radial profiles; the angular factors
    exp(i (L - l0) theta) are carried through the indices (l_up, l_dn).
    Consistent total angular momentum requires l_dn = l_up + 1.
    """

    grid: RadialGrid
    l_up: int
    up: np.ndarray
    dn: np.ndarray

    def __post_init__(self):
        if self.up.shape != self.grid.nodes.shape or self.dn.shape != self.grid.nodes.shape:
            raise DomainError("component shape must match the grid")

    @property
    def l_dn(self) -> int:
        return self.l_up + 1

    def scale(self, c: complex) -> "Spinor2":
        return replace(self, up=c * self.up, dn=c * self.dn)

    def sigma3(self) -> "Spinor2":
        return replace(self, dn=-self.dn)


def _inner(l_up: int, a, b, dc: DiracConfig, grid: RadialGrid, origin_tail: bool):
    """:func:`d_inner` of (up, dn) slot pairs, elementwise over trailing columns."""
    r1, r2 = grid.nodes[:2]
    delta = grid.rho_min
    total = 0.0
    for av, bv, sigma, L in ((a[0], b[0], 1, l_up), (a[1], b[1], -1, l_up + 1)):
        w = np.conj(av) * bv
        total = total + grid.weights @ w
        if origin_tail:
            alpha, _ = _component_family(sigma, L, dc)
            # two-term fit w = (rho / rho_min)^alpha (c0 + c1 rho) through the
            # first two nodes, integrated over (0, rho_min); the ratios stay finite
            h1, h2 = w[0] * (delta / r1) ** alpha, w[1] * (delta / r2) ** alpha
            c1 = (h2 - h1) / (r2 - r1)
            c0 = h1 - c1 * r1
            total = total + delta * (c0 / (alpha + 1.0) + c1 * delta / (alpha + 2.0))
    return 2.0 * math.pi / dc.field.gamma * total


def d_inner(a: Spinor2, b: Spinor2, dc: DiracConfig, origin_tail: bool = True) -> complex:
    """Spinor inner product (1/gamma) int drho dtheta a^dag b.

    The grid covers [rho_min, rho_max].  With ``origin_tail`` the
    segment (0, rho_min) is added analytically from the power-law
    behavior of each spin slot's eigenfamily (two-term fit through the
    first nodes); without it, pairs involving the irregular vartheta
    profiles lose O(rho_min^(1-mu)) of orthogonality.  Residual fields
    produced by grid differentiation do not follow the family power law
    and should be measured with ``origin_tail=False``.
    """
    if a.grid is not b.grid:
        raise DomainError("spinors must share one grid")
    if a.l_up != b.l_up:
        return 0.0 + 0.0j
    return complex(_inner(a.l_up, (a.up, a.dn), (b.up, b.dn), dc, a.grid, origin_tail))


def d_norm(a: Spinor2, dc: DiracConfig, origin_tail: bool = True) -> float:
    return math.sqrt(max(d_inner(a, a, dc, origin_tail).real, 0.0))


def basis_spinor_component(q: RelQuantumNumbers, dc: DiracConfig, grid: RadialGrid) -> Spinor2:
    """u = phi_sigma v_sigma: the scalar profile in the sigma slot."""
    prof = _profiles(q.sigma, q.l_sigma, q.m, dc, grid.nodes)[q.m]
    zero = np.zeros_like(prof)
    if q.sigma == 1:
        return Spinor2(grid=grid, l_up=q.l_sigma, up=prof, dn=zero)
    return Spinor2(grid=grid, l_up=q.l_sigma - 1, up=zero, dn=prof)


def _ladder(vals: np.ndarray, sigma: int, L: int, raising: bool,
            dc: DiracConfig, grid: RadialGrid) -> np.ndarray:
    """Radial ladder action of P_+ (raising) or P_- on one spin slot.

    The slot's eigenfamily fixes the origin exponent alpha (profiles are
    rho^(alpha/2) times an entire function h); the prefactor is peeled
    off analytically, so the 1/sqrt(rho)-singular pieces either cancel
    exactly or are carried explicitly, and only the smooth factor h is
    differentiated numerically:

        P_+- [rho^(a/2) h] = -i sqrt(2 gamma) { rho^((a+1)/2) (h' -+ h/2)
                             + ((a -+ (L + mu))/2) rho^((a-1)/2) h },

    on one profile per trailing column of ``vals``.  h is zero where the
    profile is; a profile beyond the double range of h raises DomainError.
    """
    mu = dc.field.mu
    alpha, _ = _component_family(sigma, L, dc)
    rho = np.expand_dims(grid.nodes, tuple(range(1, np.ndim(vals))))
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.where(vals == 0.0, 0.0, vals * rho ** (-alpha / 2.0))
    if not np.all(np.isfinite(h)):
        raise DomainError("profile beyond the range of its origin power law")
    dh = grid.derivative(h)
    sgn = -1.0 if raising else 1.0
    coeff = 0.5 * (alpha + sgn * (L + mu))
    out = rho ** ((alpha + 1.0) / 2.0) * (dh + sgn * 0.5 * h)
    if coeff != 0.0:
        out = out + coeff * rho ** ((alpha - 1.0) / 2.0) * h
    return -1j * math.sqrt(2.0 * dc.field.gamma) * out


def apply_sigma_p(s: Spinor2, dc: DiracConfig) -> Spinor2:
    """sigma.P: exact angular shifts, numerical radial ladder action.

    The upper output slot receives P_- applied to the lower component
    (angular index drops by one), the lower receives P_+ of the upper.
    Total angular momentum is preserved.
    """
    new_up = _ladder(s.dn, -1, s.l_dn, False, dc, s.grid)
    new_dn = _ladder(s.up, 1, s.l_up, True, dc, s.grid)
    return Spinor2(grid=s.grid, l_up=s.l_up, up=new_up, dn=new_dn)


def _component_family(sigma: int, L: int, dc: DiracConfig) -> tuple[float, int]:
    """Scalar eigenfamily for a spin slot with angular index L.

    Returns (alpha, j): the order of the orthonormal radial family
    I_{m+alpha,m}(rho) at that angular index under the vartheta boundary
    condition, and its branch.  On branch 1 the first index is
    n1 = m + alpha, on branch 0 it is n1 = m.
    """
    l = L + (1 + sigma) // 2
    j0_ok = _l_range_ok(0, l, dc.vartheta)
    j1_ok = _l_range_ok(1, l, dc.vartheta)
    if j0_ok == j1_ok:
        raise DomainError(f"angular index l = {l} not in either branch range")
    j = 1 if j1_ok else 0
    alpha = (L + dc.field.mu) if j == 1 else -(L + dc.field.mu)
    if not alpha > -1.0:
        raise DomainError("profile family outside the Laguerre domain")
    return alpha, j


def _profiles(sigma: int, L: int, m_max: int, dc: DiracConfig, rho) -> np.ndarray:
    """Radial profiles of a spin slot's eigenfamily, rows m = 0..m_max.

    sqrt(gamma / 2 pi) I(rho), times the branch phase exp(-i pi L) on
    branch 1: the one profile behind the scalar component functions, the
    eigenspinor seeds and the spectral expansion of Pi0.
    """
    alpha, j = _component_family(sigma, L, dc)
    tab = math.sqrt(dc.field.gamma / (2.0 * math.pi)) * laguerre_fn_table(alpha, m_max, rho)
    return tab * (cmath.exp(-1j * math.pi * L) if j == 1 else 1.0 + 0.0j)


def _expand_component(vals: np.ndarray, sigma: int, L: int, dc: DiracConfig,
                      grid: RadialGrid, m_max: int):
    """Project a radial profile on the scalar eigenfamily of its slot.

    Returns (coefficients, residual norm, profile table, n1 per row).
    Profiles are expanded against sqrt(gamma/2 pi)-normalized functions
    so that coefficients are the spinor-product amplitudes.
    """
    alpha, j = _component_family(sigma, L, dc)
    tab = _profiles(sigma, L, m_max, dc, grid.nodes)
    scale = 2.0 * math.pi / dc.field.gamma
    coeffs = scale * (np.conj(tab) @ (grid.weights * vals))
    recon = coeffs @ tab
    resid = math.sqrt(abs(scale * grid.integrate(np.abs(vals - recon) ** 2)))
    return coeffs, resid, tab, np.arange(m_max + 1) + (alpha if j == 1 else 0.0)


def apply_pi0(s: Spinor2, dc: DiracConfig, m_max: int = 48,
              resid_tol: float = 1e-7) -> Spinor2:
    """Spectral action of the positive operator Pi0 = sqrt(M^2 + (sigma.P)^2).

    Each component is expanded in the scalar eigenfamily of its slot and
    the coefficients are scaled by sqrt(M^2 + 2 gamma [n1 + (1+sigma)/2]).
    Raises DomainError (with the residual) if the expansion does not
    capture the profile.
    """
    out = {}
    for slot, vals, L in (("up", s.up, s.l_up), ("dn", s.dn, s.l_dn)):
        sigma = 1 if slot == "up" else -1
        nrm = math.sqrt(abs(2.0 * math.pi / dc.field.gamma
                            * s.grid.integrate(np.abs(vals) ** 2)))
        if nrm == 0.0:
            out[slot] = np.zeros_like(vals)
            continue
        coeffs, resid, tab, n1 = _expand_component(vals, sigma, L, dc, s.grid, m_max)
        if resid > resid_tol * nrm:
            raise DomainError(
                f"profile not in the spectral family (residual {resid:.3e} vs norm {nrm:.3e})"
            )
        energies = _energy(n1, sigma, dc)
        out[slot] = (coeffs * energies) @ tab
    return Spinor2(grid=s.grid, l_up=s.l_up, up=out["up"], dn=out["dn"])


def hamiltonian_apply(s: Spinor2, dc: DiracConfig) -> Spinor2:
    """H = sigma.P + M sigma3, applied on the grid."""
    hp = apply_sigma_p(s, dc)
    return Spinor2(grid=s.grid, l_up=s.l_up,
                   up=hp.up + dc.mass * s.up,
                   dn=hp.dn - dc.mass * s.dn)


def _eigenspinors(j: int, l: int, ms, dc: DiracConfig, charge: int, grid: RadialGrid):
    """(l_up, up, dn, energies, seed_nrm) of the eigenspinors
    (j, l, m, sigma = charge), up and dn with one column per m in ``ms``:
    the collapsed operator string with one ladder action for the block,
    unit norm, and the first nonvanishing component real and positive at
    the smallest node.  seed_nrm are the grid norms of the unit-norm seeds.
    """
    q0 = resolve_rel_qnums(j, l, 0, charge, dc)
    l_s = q0.l_sigma
    energies = _energy(q0.n1 + np.asarray(ms), charge, dc)  # n1 grows by one with m
    prof = _profiles(charge, l_s, max(ms), dc, grid.nodes)[list(ms)].T
    seed = (energies + dc.mass) * prof
    other = charge * _ladder(prof, charge, l_s, charge == 1, dc, grid)
    # (up, dn) slot order: the seed occupies the upper slot for charge +1
    l_up = l_s if charge == 1 else l_s - 1
    up, dn = (seed, other) if charge == 1 else (other, seed)
    zero = np.zeros_like(prof)
    bare = (prof, zero) if charge == 1 else (zero, prof)
    nrm = np.sqrt(np.maximum(_inner(l_up, (up, dn), (up, dn), dc, grid, True).real, 0.0))
    seed_nrm = np.sqrt(np.maximum(_inner(l_up, bare, bare, dc, grid, True).real, 0.0))
    if np.any(nrm <= 1e-10 * np.maximum(seed_nrm * np.maximum(energies, max(dc.mass, 1.0)),
                                         1e-30)):
        raise SpectralBoundaryError(
            "operator string annihilated the seed state (zero-norm spinor)"
        )
    ref = np.where(up[0] != 0, up[0], dn[0])
    scale = np.exp(-1j * np.angle(ref)) / nrm
    return l_up, up * scale, dn * scale, energies, seed_nrm


def dirac_spinor(q: RelQuantumNumbers, dc: DiracConfig, charge: int,
                 grid: RadialGrid) -> tuple[Spinor2, float]:
    """Normalized H eigenspinor and its |energy| E = sqrt(M^2 + E_perp^2).

    charge = +1 builds the positive-energy state from the sigma = +1
    scalar, charge = -1 the negative-energy state from sigma = -1; the
    Hamiltonian eigenvalue is charge * E.  Raises SpectralBoundaryError
    when the operator string annihilates the seed (massless zero mode).
    One column of the block :func:`rel_cs` builds.
    """
    if q.sigma != charge:
        raise DomainError("seed spin label must match the charge branch (+1 or -1)")
    l_up, up, dn, energies, _ = _eigenspinors(q.j, q.l, [q.m], dc, charge, grid)
    return Spinor2(grid=grid, l_up=l_up, up=up[:, 0], dn=dn[:, 0]), float(energies[0])


@dataclass(frozen=True)
class RelCS:
    """Truncated relativistic coherent state on one branch.

    states maps (l, m) to (coefficient, energy); norm_const is the
    numerically accumulated normalization (diagonal of the overlap
    form), and spinors maps l_up to the assembled grid representation of
    that angular sector, jointly of unit norm under the spinor product.
    """

    j: int
    charge: int
    label: CSLabel
    states: dict
    norm_const: float
    spinors: dict
    grid: RadialGrid


# quiet-block tolerance on the block weights sum_m |c|^2 2M(E+M)
_REL_LN_TOL = math.log(1e-14)
# largest share of Mcal the radial grid may miss, sum w |1 - seed_nrm^2| / Mcal
_REL_GRID_SHARE = 1e-9


def _rel_table(j: int, label: CSLabel, dc: DiracConfig, charge: int):
    """(l_s, alpha, ln|c|, arg c) of the planar table grown over the
    spin-shifted rows l_s = l - (1 + charge)/2 of the branch-j range."""
    if dc.mass <= 0.0:
        raise DomainError("relativistic coherent states require M > 0")
    shift = (1 + charge) // 2
    table = _grown_table(j, (l - shift for l in _branch_l_values(j, dc.vartheta)),
                         label, dc.field)
    if np.all(table[2] == -np.inf):
        raise DomainError("relativistic coherent state undefined: zero normalization")
    return table


def _rel_ln_weight(j: int, alpha: np.ndarray, cols: int, dc: DiracConfig, charge: int):
    """ln 2M(E + M) over rows of order alpha and m = 0..cols-1, with
    n1 = m on branch 0 and m + alpha on branch 1."""
    n1 = np.arange(cols) + np.where(j == 1, alpha, 0.0)[:, None]
    return np.log(2.0 * dc.mass * (_energy(n1, charge, dc) + dc.mass))


def rel_cs(j: int, label: CSLabel, dc: DiracConfig, charge: int,
           grid: RadialGrid | None = None) -> RelCS:
    """Relativistic coherent state: the (l, m) series of eigenspinors.

    Per-state weights follow the convention that fixes the overlap form
    to 2 M (E + M) on the diagonal, i.e. the series is

        sum c_{lm} sqrt(2 M (E_lm + M)) psihat_{lm} / sqrt(Mcal),
        Mcal = sum |c_{lm}|^2 2 M (E_lm + M),

    with psihat the unit-norm spinors.  The l blocks of the grown planar
    table stop earlier by the quiet-block rule applied to the weighted
    blocks at 1e-14; each kept block is built as one batch of
    eigenspinors and summed by one matrix product.  Requires M > 0 (the
    weight degenerates in the massless limit); raises TruncationError
    when the radial grid misses more than _REL_GRID_SHARE of Mcal.
    """
    l_s, alpha, ln_c, phase = _rel_table(j, label, dc, charge)
    if grid is None:
        grid = make_radial_grid(rho_max=60.0)
    ln_w = 2.0 * ln_c + _rel_ln_weight(j, alpha, ln_c.shape[1], dc, charge)
    keep = _quiet_blocks(np.logaddexp.reduce(ln_w, axis=1), _REL_LN_TOL)
    ln_mcal = np.logaddexp.reduce(ln_w[:keep], axis=None)
    norm_const = exp_in_range(ln_mcal, "Mcal")
    states: dict = {}
    spinors: dict = {}
    missed = 0.0
    for l, ln_row, ph_row, ln_w_row in zip(l_s[:keep] + (1 + charge) // 2, ln_c, phase, ln_w):
        ms = np.flatnonzero(ln_row > -np.inf)
        if ms.size == 0:
            continue
        l_up, up, dn, energies, seed_nrm = _eigenspinors(j, l, ms, dc, charge, grid)
        c = np.exp(ln_row[ms] + 1j * ph_row[ms])
        states.update({(int(l), int(m)): (cm, e) for m, cm, e in zip(ms, c.tolist(), energies)})
        share = np.exp(ln_w_row[ms] - ln_mcal)
        missed += float(share @ np.abs(1.0 - seed_nrm**2))
        coef = np.sqrt(share) * np.exp(1j * ph_row[ms])
        spinors[l_up] = Spinor2(grid=grid, l_up=l_up, up=up @ coef, dn=dn @ coef)
    if not missed <= _REL_GRID_SHARE:
        raise TruncationError("radial grid too short for the relativistic coherent state",
                              norm_const, missed)
    return RelCS(j=j, charge=charge, label=label, states=states,
                 norm_const=norm_const, spinors=spinors, grid=grid)


def rel_cs_inner(a: RelCS, b: RelCS, dc: DiracConfig) -> complex:
    """Spinor-quadrature overlap of two assembled coherent states."""
    if a.grid is not b.grid:
        raise DomainError("states must share one grid")
    total = 0.0 + 0.0j
    for lu, sa in a.spinors.items():
        sb = b.spinors.get(lu)
        if sb is not None:
            total += d_inner(sa, sb, dc)
    return complex(total)


def rel_cs_overlap_closed(j: int, label_a: CSLabel, label_b: CSLabel,
                          dc: DiracConfig, charge: int) -> complex:
    """Overlap via the scalar route, with no grid: 2M sum conj(c) c' (E + M)
    / sqrt(Mcal Mcal'), in log space over the larger of the two tables, on
    which both Mcal are summed too (so the modulus never exceeds one)."""
    rows_a = _rel_table(j, label_a, dc, charge)[0]
    rows_b = _rel_table(j, label_b, dc, charge)[0]
    (alpha, ln_a, ph_a), (_, ln_b, ph_b) = _on_larger_table(
        j, rows_a, label_a, rows_b, label_b, dc.field)
    ln_weight = _rel_ln_weight(j, alpha, ln_a.shape[1], dc, charge)
    ln_mcal = [np.logaddexp.reduce(2.0 * ln + ln_weight, axis=None) for ln in (ln_a, ln_b)]
    ln_terms = ln_a + ln_b + ln_weight - 0.5 * (ln_mcal[0] + ln_mcal[1])
    return complex(np.sum(np.exp(ln_terms + 1j * (ph_b - ph_a))))


@dataclass(frozen=True)
class Spinor4:
    """Four-component spinor: upper/lower Spinor2 blocks on one grid."""

    upper: Spinor2
    lower: Spinor2

    def scale(self, c: complex) -> "Spinor4":
        return Spinor4(upper=self.upper.scale(c), lower=self.lower.scale(c))


def d_inner4(a: Spinor4, b: Spinor4, dc: DiracConfig) -> complex:
    return d_inner(a.upper, b.upper, dc) + d_inner(a.lower, b.lower, dc)


def embed_3p1(j: int, l: int, m: int, charge: int, s: int, p3: float,
              dc: DiracConfig, grid: RadialGrid | None = None) -> Spinor4:
    """Stationary four-spinor with longitudinal momentum p3 and spin s.

    The construction substitutes the boosted mass Mt = sqrt(M^2 + p3^2)
    into the planar spinors and stacks

        upper = (p3 + s Mt + M) psi_charge(Mt),
        lower = (p3 + s Mt - M) sigma3 psi_{-charge}(Mt),

    both blocks sharing (j, l, m), then normalizes jointly (the overall
    1/M of the textbook factors is absorbed, so M = 0 is regular).  The
    energy is charge * sqrt(Mt^2 + E_perp^2).
    """
    if s not in (-1, 1):
        raise DomainError("spin label s must be +1 or -1")
    if grid is None:
        grid = make_radial_grid(rho_max=60.0)
    m_tilde = math.sqrt(dc.mass**2 + p3 * p3)
    dct = replace(dc, mass=m_tilde)
    q_up = resolve_rel_qnums(j, l, m, charge, dct)
    q_dn = resolve_rel_qnums(j, l, m, -charge, dct)
    psi_up, _ = dirac_spinor(q_up, dct, charge, grid)
    psi_dn, _ = dirac_spinor(q_dn, dct, -charge, grid)
    f_up = p3 + s * m_tilde + dc.mass
    f_dn = p3 + s * m_tilde - dc.mass
    four = Spinor4(upper=psi_up.scale(f_up), lower=psi_dn.sigma3().scale(f_dn))
    nrm = math.sqrt(max(d_inner4(four, four, dc).real, 0.0))
    if nrm == 0.0:
        raise SpectralBoundaryError("embedded spinor has zero norm")
    return four.scale(1.0 / nrm)


def h3p1_apply(psi: Spinor4, p3: float, dc: DiracConfig) -> Spinor4:
    """Hamiltonian in the longitudinally boosted block representation.

    H = diag( sigma.P + Mt sigma3,  sigma.P - Mt sigma3 ),
    Mt = sqrt(M^2 + p3^2).  In this representation the embedded states
    are exact eigenstates for every p3.
    """
    m_tilde = math.sqrt(dc.mass**2 + p3 * p3)
    dct = replace(dc, mass=m_tilde)
    up = hamiltonian_apply(psi.upper, dct)
    hp = apply_sigma_p(psi.lower, dct)
    low = Spinor2(grid=psi.lower.grid, l_up=psi.lower.l_up,
                  up=hp.up - m_tilde * psi.lower.up,
                  dn=hp.dn + m_tilde * psi.lower.dn)
    return Spinor4(upper=up, lower=low)


def sz_apply(psi: Spinor4, p3: float, dc: DiracConfig) -> Spinor4:
    """Spin operator (H Sigma_z + Sigma_z H) / (2 Mt c^2) on the grid.

    Sigma_z is the standard block-diagonal spin matrix diag(s3, s3).
    The embedded states are exact eigenstates at p3 = 0; at p3 != 0 the
    eigenvalue property depends on the (unspecified) spin-matrix
    convention and is not asserted.
    """
    m_tilde = math.sqrt(dc.mass**2 + p3 * p3)
    sig = Spinor4(upper=psi.upper.sigma3(), lower=psi.lower.sigma3())
    a = h3p1_apply(sig, p3, dc)
    hb = h3p1_apply(psi, p3, dc)
    b = Spinor4(upper=hb.upper.sigma3(), lower=hb.lower.sigma3())
    return Spinor4(
        upper=Spinor2(grid=psi.upper.grid, l_up=psi.upper.l_up,
                      up=(a.upper.up + b.upper.up) / (2 * m_tilde),
                      dn=(a.upper.dn + b.upper.dn) / (2 * m_tilde)),
        lower=Spinor2(grid=psi.lower.grid, l_up=psi.lower.l_up,
                      up=(a.lower.up + b.lower.up) / (2 * m_tilde),
                      dn=(a.lower.dn + b.lower.dn) / (2 * m_tilde)),
    )


def xi_flip(s: Spinor2) -> Spinor2:
    """Map to the opposite polarization sector: psi -> sigma2 psi.

    Relates the two inequivalent planar representations; exposed as a
    transformation on outputs only.
    """
    return Spinor2(grid=s.grid, l_up=s.l_up, up=-1j * s.dn, dn=1j * s.up)


def _rel_bessel_index(sigma: int, l: int, mu: float, vartheta: int) -> float:
    if l != 0:
        l_s = l - (1 + sigma) // 2
        return abs(l_s + mu)
    if vartheta == 1:
        return (1 + sigma) / 2.0 - mu
    return mu - (1 + sigma) / 2.0


def green_kernel_rel(sigma: int, l: int, dc: DiracConfig, s: complex,
                     dtheta: float, dt: float, rho, rho_p) -> np.ndarray:
    """Proper-time kernel block f_{sigma,l}(x, x', s), a 2x2 matrix.

    f = A B Xi_sigma with

      A = gamma / (8 pi^{3/2} s^{1/2} sin(gamma s))
          * exp{ i pi/4 - i M^2 s + i (l_s - l0) dtheta
                 - i (l_s + sigma + mu) gamma s
                 - i (dt)^2 / (4 s) + (i/2)(rho + rho') cot(gamma s) }
      B = I_nu( e^{-i pi/2} sqrt(rho rho') / sin(gamma s) )

    and nu = |l_s + mu| for l != 0; in the l = 0 channel the order is
    (1+sigma)/2 - mu for vartheta = +1 and its negative for
    vartheta = -1 (the irregular channel).  Xi_sigma = (1 + sigma s3)/2.
    Wick-rotated s = -i tau is evaluated on a stable real path.  Raises
    near the singular real points s_k = k pi / gamma.  Elementwise over
    rho and rho', with the 2x2 block in the last two axes.
    """
    from .specfun import bessel_i

    if sigma not in (-1, 1):
        raise DomainError("sigma must be +1 or -1")
    g = dc.field.gamma
    mu = dc.field.mu
    sc = complex(s)
    l_s = l - (1 + sigma) // 2
    nu = _rel_bessel_index(sigma, l, mu, dc.vartheta)
    phase = cmath.exp(1j * (l_s - dc.field.l0) * dtheta
                      - 1j * dc.mass**2 * sc
                      - 1j * (l_s + sigma + mu) * g * sc)
    if sc.real == 0.0 and sc.imag < 0.0:
        tau = -sc.imag
        # i pi/4 phase, sqrt(-i tau) and 1/(-i sinh) combine to -1/(sqrt(tau) sinh)
        radial = _wick_radial(nu, g * tau, rho, rho_p)
        amp = -(g / (8.0 * math.pi**1.5 * math.sqrt(tau))) * radial
        diag = amp * phase * cmath.exp(-1j * dt * dt / (4.0 * sc))
    else:
        sin_gs = cmath.sin(g * sc)
        if abs(sin_gs) < 1e-12:
            raise DomainError("kernel singular: sin(gamma s) vanishes")
        zarg = cmath.exp(-0.5j * math.pi) * np.sqrt(rho * rho_p) / sin_gs
        a = (g / (8.0 * math.pi**1.5 * cmath.sqrt(sc) * sin_gs)) * np.exp(
            0.25j * math.pi
            - 1j * dt * dt / (4.0 * sc)
            + 0.5j * (rho + rho_p) * cmath.cos(g * sc) / sin_gs
        )
        diag = a * phase * bessel_i(nu, zarg)
    out = np.zeros(np.shape(diag) + (2, 2), dtype=complex)  # diag Xi_sigma
    out[..., (1 - sigma) // 2, (1 - sigma) // 2] = diag
    return out
