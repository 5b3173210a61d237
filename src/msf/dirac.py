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

with l_s = l - (1 + sigma)/2: the branch map of :mod:`msf.landau` at
extension vartheta, read for planar row l_s.  This spin shift is written
once, in :func:`_row`, which gives (j, l_s, alpha) for Dirac row
(l, sigma); :func:`_family` is its view that refuses orders alpha <= -1.
The slot helpers take the Dirac row l: both slots of a spinor belong to
row l = l_dn, the upper (sigma = +1) at angular index l - 1.  Transverse
energy squared is 2 gamma [n1 + (1 + sigma)/2]; the positive operator
Pi0 has eigenvalues E = sqrt(M^2 + E_perp^2), and the 3+1 embedding
replaces M by the boosted mass of :func:`_boosted`.

Spinor eigenstates of H are built by the operator string

    psi = C { sigma3 [ +- Pi0 - sigma.P ] + M } u,     u = phi_sigma v_sigma,

with sigma = +1 for particles (+) and -1 for antiparticles (-), and C
fixed by unit norm under the spinor inner product.  Pi0 acts on the
seed as its eigenvalue E and sigma.P moves it into the other slot, so
the string collapses to (E + M) u in the seed slot plus sigma P_sigma u
in the other (P_{+1} = P_+, P_{-1} = P_-).

:class:`Spinor2` holds one spinor or a block with one column per state
and does its own arithmetic (+, -, * by a number or one per column, /);
the inner product works column by column, and :class:`Spinor4` stacks
two.  The states sharing (j, l, sigma) are built as one block, a column
per m: a spinor is one column, a relativistic coherent state one block
per l contracted with its amplitudes.

Every such block is built in real (float64) arithmetic.  The seed slot
is (E + M) times a real Laguerre profile and the other slot -i charge
times its real radial ladder; the profile factor exp(-i pi l_s)
sqrt(gamma / 2 pi) is a unit phase, which the phase convention removes,
times a constant.  So the block holds the real profiles and their
ladders, and one complex factor per column and slot carries E + M,
-i charge, sqrt(gamma / 2 pi) / norm and the phase (:func:`_eigenspinors`).
A spinor applies its factors to its one column, a coherent state folds
them into its amplitudes before one real product per slot.  On a
742-node grid a 15-column complex block is 178 KB, above glibc's 128 KiB
mmap threshold, so each complex temporary of the ladder, the derivative
and the norms would be a fresh zero-filled mapping; the real blocks
(89 KB) stay below it and are reused from the heap.

sigma.P acts by an exact angular shift plus the first-order radial
ladder operator, applied through numerical differentiation on a
composite grid (see :mod:`msf.radial`).
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .specfun import DomainError, TruncationError, exp_in_range, laguerre_fn_table
from .landau import (FieldConfig, _branch_l_values, _branch_of, _check_branch,
                     _laguerre_order, _profiles as _row_profiles, _radial_numbers)
from .radial import RadialGrid, make_radial_grid
from .cs import CSLabel, _grown_table, _on_larger_table, _quiet_blocks
from .completeness import _hille_hardy, _wick_radial

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
    "dirac_spinor",
    "hamiltonian_apply",
    "d_inner",
    "rel_cs",
    "rel_cs_overlap_closed",
    "embed_3p1",
    "h3p1_apply",
    "sz_apply",
    "d_inner4",
    "green_kernel_rel",
]


class SpectralBoundaryError(DomainError):
    """Spinor construction collapsed to zero norm (spectral boundary): an
    input the builder cannot serve, such as a massless zero mode."""


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


def _row(sigma: int, l: int, dc: DiracConfig) -> tuple[int, int, float]:
    """(j, l_s, alpha) of Dirac row (l, sigma): the branch j whose vartheta
    range holds l, the planar row l_s = l - (1 + sigma)/2 evaluated on it,
    and that row's Laguerre order alpha; not validated."""
    j = _branch_of(l, dc.vartheta)
    l_s = l - (1 + sigma) // 2
    return j, l_s, _laguerre_order(j, l_s, dc.field.mu)


def _family(sigma: int, l: int, dc: DiracConfig) -> tuple[int, int, float]:
    """:func:`_row`, or DomainError when its radial family leaves the
    Laguerre domain (alpha <= -1)."""
    row = _row(sigma, l, dc)
    if not row[2] > -1.0:
        raise DomainError("radial profile outside the Laguerre domain")
    return row


def resolve_rel_qnums(j: int, l: int, m: int, sigma: int, dc: DiracConfig) -> RelQuantumNumbers:
    """Validate (j, l, m, sigma) against the vartheta-dependent ranges."""
    if sigma not in (-1, 1):
        raise DomainError("sigma must be +1 or -1")
    if m < 0 or m != int(m):
        raise DomainError("m must be a non-negative integer")
    _check_branch(j, l, dc.vartheta)
    _, l_s, alpha = _family(sigma, l, dc)
    n1, n2 = _radial_numbers(j, alpha, float(m))
    return RelQuantumNumbers(j=j, l=int(l), m=int(m), sigma=sigma, l_sigma=int(l_s),
                             n1=n1, n2=n2)


def e_perp_sq(q: RelQuantumNumbers, dc: DiracConfig) -> float:
    """Transverse energy squared 2 gamma [n1 + (1 + sigma)/2]."""
    return 2.0 * dc.field.gamma * (q.n1 + (1 + q.sigma) / 2.0)


def e_energy(q: RelQuantumNumbers, dc: DiracConfig) -> float:
    """sqrt(M^2 + E_perp^2), the eigenvalue of Pi0."""
    return float(_energy(q.n1, q.sigma, dc))


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
    out = phase * _profiles(q.sigma, q.l, q.m, dc, rho)[q.m]
    return complex(out) if np.ndim(out) == 0 else out


class _SpinorArithmetic:
    """Spinor arithmetic through ``_map`` (one array at a time) and ``_zip``
    (matching arrays of two operands): + and - of spinors of one sector,
    * by a number or by one number per column, from either side, and / by
    a number."""

    __array_ufunc__ = None  # ndarray * spinor reaches __rmul__

    def __add__(self, other):
        return self._zip(other, operator.add) if type(other) is type(self) else NotImplemented

    def __sub__(self, other):
        return self._zip(other, operator.sub) if type(other) is type(self) else NotImplemented

    def __mul__(self, c):
        if isinstance(c, _SpinorArithmetic):
            return NotImplemented
        return self._map(lambda x: c * x)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self._map(lambda x: x / c)


@dataclass(frozen=True)
class Spinor2(_SpinorArithmetic):
    """Two-component spinor on a shared radial grid, or a block of them.

    Component values are radial profiles of shape (nodes,), or (nodes, k)
    for a block with one column per state; the angular factors
    exp(i (L - l0) theta) are carried through the indices (l_up, l_dn).
    Consistent total angular momentum requires l_dn = l_up + 1.  Sums and
    differences need one grid and one l_up, else DomainError.
    """

    grid: RadialGrid
    l_up: int
    up: np.ndarray
    dn: np.ndarray

    def __post_init__(self):
        shape = self.up.shape
        if self.dn.shape != shape or len(shape) not in (1, 2) or shape[0] != self.grid.nodes.size:
            raise DomainError("components must share one shape, (nodes,) or (nodes, k)")

    @property
    def l_dn(self) -> int:
        return self.l_up + 1

    def _map(self, f) -> "Spinor2":
        return Spinor2(self.grid, self.l_up, f(self.up), f(self.dn))

    def _zip(self, other: "Spinor2", f) -> "Spinor2":
        if self.grid is not other.grid or self.l_up != other.l_up:
            raise DomainError("spinors must share one grid and one angular sector")
        return Spinor2(self.grid, self.l_up, f(self.up, other.up), f(self.dn, other.dn))

    def sigma3(self) -> "Spinor2":
        return Spinor2(self.grid, self.l_up, self.up, -self.dn)


def _origin_tail(w: np.ndarray, alpha: float, grid: RadialGrid):
    """Integral over (0, rho_min) of the product w of two profiles of one
    spin slot, along axis 0, from the power law rho^alpha of the slot's
    eigenfamily (:func:`_family`): the two-term fit
    w = (rho / rho_min)^alpha (c0 + c1 rho) through the first two nodes;
    the ratios stay finite."""
    (r1, r2), delta = grid.nodes[:2], grid.rho_min
    h1, h2 = w[0] * (delta / r1) ** alpha, w[1] * (delta / r2) ** alpha
    c1 = (h2 - h1) / (r2 - r1)
    c0 = h1 - c1 * r1
    return delta * (c0 / (alpha + 1.0) + c1 * delta / (alpha + 2.0))


def d_inner(a: Spinor2, b: Spinor2, dc: DiracConfig, origin_tail: bool = True):
    """Spinor inner product (1/gamma) int drho dtheta a^dag b.

    The grid covers [rho_min, rho_max].  With ``origin_tail`` the
    segment (0, rho_min) is added analytically, slot by slot
    (:func:`_origin_tail`); without it, pairs involving the irregular
    vartheta profiles lose O(rho_min^(1-mu)) of orthogonality.  Residual
    fields produced by grid differentiation do not follow the family
    power law and should be measured with ``origin_tail=False``.  A
    complex for two spinors; for two blocks an array, column k of a
    against column k of b.
    """
    if a.grid is not b.grid:
        raise DomainError("spinors must share one grid")
    if a.l_up != b.l_up:
        return 0j if a.up.ndim == 1 else np.zeros(a.up.shape[1], dtype=complex)
    total = 0.0
    for av, bv, sigma in ((a.up, b.up, 1), (a.dn, b.dn, -1)):
        # one contiguous row per column, so a column sums alone as in its block
        w = np.multiply(np.conj(av.T), bv.T, order="C")
        total = total + np.vecdot(a.grid.weights, w)
        if origin_tail:
            total = total + _origin_tail(w.T, _family(sigma, a.l_dn, dc)[2], a.grid)
    total = 2.0 * math.pi / dc.field.gamma * total
    return complex(total) if np.ndim(total) == 0 else total


def d_norm(a: Spinor2, dc: DiracConfig, origin_tail: bool = True):
    """sqrt(max(Re d_inner(a, a), 0)): a float, or one per column of a block."""
    nrm = np.sqrt(np.maximum(np.real(d_inner(a, a, dc, origin_tail)), 0.0))
    return float(nrm) if np.ndim(nrm) == 0 else nrm


def _seed_block(seed: np.ndarray, other: np.ndarray, sigma: int, l: int,
                grid: RadialGrid) -> Spinor2:
    """``seed`` in spin slot sigma and ``other`` in the other slot of Dirac
    row l, whose slots sit at angular indices l_up = l - 1 and l_dn = l."""
    up, dn = (seed, other)[::sigma]  # sigma = -1 puts the seed below
    return Spinor2(grid=grid, l_up=l - 1, up=up, dn=dn)


def basis_spinor_component(q: RelQuantumNumbers, dc: DiracConfig, grid: RadialGrid) -> Spinor2:
    """u = phi_sigma v_sigma: the scalar profile in the sigma slot."""
    prof = _profiles(q.sigma, q.l, q.m, dc, grid.nodes)[q.m]
    return _seed_block(prof, np.zeros_like(prof), q.sigma, q.l, grid)


def _ladder(vals: np.ndarray, sigma: int, l: int, dc: DiracConfig,
            grid: RadialGrid) -> np.ndarray:
    """Radial ladder action on spin slot sigma of Dirac row l, divided by -i:
    P_+ / (-i) (raising) on the upper slot, sigma = +1, and P_- / (-i) on
    the lower, sigma = -1.  A real operator, so real profiles stay real.

    The slot's eigenfamily (:func:`_family`, angular index L = l_s) fixes
    the origin exponent alpha (profiles are rho^(alpha/2) times an entire
    function h); the prefactor is peeled off analytically, so the
    1/sqrt(rho)-singular pieces either cancel exactly or are carried
    explicitly, and only the smooth factor h is differentiated
    numerically:

        P_+- [rho^(a/2) h] = -i sqrt(2 gamma) { rho^((a+1)/2) (h' -+ h/2)
                             + ((a -+ (L + mu))/2) rho^((a-1)/2) h },

    on one profile per trailing column of ``vals``.  h is zero where the
    profile is; a profile beyond the double range of h raises DomainError.
    """
    mu = dc.field.mu
    _, L, alpha = _family(sigma, l, dc)
    rho = grid.nodes.reshape((-1,) + (1,) * (np.ndim(vals) - 1))
    with np.errstate(over="ignore", invalid="ignore"):
        h = vals * rho ** (-alpha / 2.0)
    h[vals == 0.0] = 0.0  # a zero profile stays zero where the power overflows
    if not np.all(np.isfinite(h)):
        raise DomainError("profile beyond the range of its origin power law")
    sgn = -1.0 if sigma == 1 else 1.0
    coeff = 0.5 * (alpha + sgn * (L + mu))
    # sqrt(2 gamma) rho^((a+1)/2) (h' -+ h/2 + coeff h / rho), in place on h'
    dh = grid.derivative(h)
    dh += (0.5 * sgn + coeff / rho) * h
    dh *= math.sqrt(2.0 * dc.field.gamma) * rho ** ((alpha + 1.0) / 2.0)
    return dh


def apply_sigma_p(s: Spinor2, dc: DiracConfig) -> Spinor2:
    """sigma.P: exact angular shifts, numerical radial ladder action.

    The upper output slot receives P_- applied to the lower component
    (angular index drops by one), the lower receives P_+ of the upper.
    Total angular momentum is preserved.
    """
    new_up = -1j * _ladder(s.dn, -1, s.l_dn, dc, s.grid)
    new_dn = -1j * _ladder(s.up, 1, s.l_dn, dc, s.grid)
    return Spinor2(grid=s.grid, l_up=s.l_up, up=new_up, dn=new_dn)


def _profiles(sigma: int, l: int, m_max: int, dc: DiracConfig, rho) -> np.ndarray:
    """Radial profiles of spin slot sigma of Dirac row l, rows m = 0..m_max:
    the planar profiles of the slot's :func:`_family` row, behind the scalar
    component functions and the eigenspinor seeds."""
    j, l_s, _ = _family(sigma, l, dc)
    return _row_profiles(j, l_s, m_max, rho, dc.field)


def hamiltonian_apply(s: Spinor2, dc: DiracConfig) -> Spinor2:
    """H = sigma.P + M sigma3, applied on the grid."""
    return apply_sigma_p(s, dc) + dc.mass * s.sigma3()


def _eigenspinors(j: int, l: int, ms, dc: DiracConfig, charge: int, grid: RadialGrid):
    """(block, factors, energies, seed_nrm) of the eigenspinors (j, l, m,
    sigma = charge), one column per m in ``ms``.

    The block is real: the Laguerre profiles I of the seed slot's family
    in the seed slot and their real ladder (:func:`_ladder`) in the other.
    ``factors`` (2, k) holds one complex number per slot (up, dn) and
    column: E + M on the seed slot, -i charge on the other, the profile
    normalization sqrt(gamma / 2 pi), 1/norm and the sign or unit phase
    that makes the first nonvanishing component real and positive at the
    smallest node; column k of :func:`_superpose` (block, factors) is then
    a unit-norm eigenspinor.  seed_nrm are the grid norms of the unit-norm
    seeds.
    """
    q0 = resolve_rel_qnums(j, l, 0, charge, dc)
    energies = _energy(q0.n1 + np.asarray(ms), charge, dc)  # n1 grows by one with m
    alpha = _family(charge, l, dc)[2], _family(-charge, l, dc)[2]
    prof = laguerre_fn_table(alpha[0], max(ms), grid.nodes).T[:, ms]
    ladder = _ladder(prof, charge, l, dc, grid)
    seed_sq, other_sq = (grid.weights @ w + _origin_tail(w, a, grid)
                         for w, a in ((prof * prof, alpha[0]), (ladder * ladder, alpha[1])))
    seed_nrm = np.sqrt(np.maximum(seed_sq, 0.0))
    nrm = np.sqrt(np.maximum((energies + dc.mass) ** 2 * seed_sq + other_sq, 0.0))
    if np.any(nrm <= 1e-10 * np.maximum(seed_nrm * np.maximum(energies, max(dc.mass, 1.0)),
                                         1e-30)):
        raise SpectralBoundaryError(
            "operator string annihilated the seed state (zero-norm spinor)"
        )
    block = _seed_block(prof, ladder, charge, l, grid)
    unit = np.array([[1.0], [-1j * charge]])[::charge]  # seed slot 1, other slot -i charge
    # the phase reference is the first node of the upper slot where it is
    # nonzero, else of the lower: a sign times a slot unit, undone exactly
    up_ref = block.up[0] != 0
    sign = np.where(np.where(up_ref, block.up[0], block.dn[0]) < 0, -1.0, 1.0)
    phase = sign * np.where(up_ref, unit[0], unit[1]).conj()
    factors = unit * (math.sqrt(dc.field.gamma / (2.0 * math.pi)) * phase / nrm)
    factors[(1 - charge) // 2] *= energies + dc.mass
    return block, factors, energies, seed_nrm


def _superpose(block: Spinor2, factors: np.ndarray) -> Spinor2:
    """sum_k factors[:, k] times column k of a real block: per slot one real
    product with the real and imaginary parts of its factors, so the block
    is never copied to complex."""
    up, dn = ((x @ np.stack([f.real, f.imag], axis=1)).view(complex)[:, 0]
              for x, f in zip((block.up, block.dn), factors))
    return Spinor2(grid=block.grid, l_up=block.l_up, up=up, dn=dn)


def dirac_spinor(q: RelQuantumNumbers, dc: DiracConfig, charge: int,
                 grid: RadialGrid) -> tuple[Spinor2, float]:
    """Normalized H eigenspinor and its |energy| E = sqrt(M^2 + E_perp^2).

    charge = +1 builds the positive-energy state from the sigma = +1
    scalar, charge = -1 the negative-energy state from sigma = -1; the
    Hamiltonian eigenvalue is charge * E.  Raises SpectralBoundaryError
    when the operator string annihilates the seed (massless zero mode).
    The one column of the block :func:`_eigenspinors` builds.
    """
    if q.sigma != charge:
        raise DomainError("seed spin label must match the charge branch (+1 or -1)")
    block, factors, energies, _ = _eigenspinors(q.j, q.l, [q.m], dc, charge, grid)
    return _superpose(block, factors), float(energies[0])


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
    :func:`_row` rows l_s of spin charge for the branch-j Dirac rows."""
    if dc.mass <= 0.0:
        raise DomainError("relativistic coherent states require M > 0")
    table = _grown_table(j, (_row(charge, l, dc)[1] for l in _branch_l_values(j, dc.vartheta)),
                         label, dc.field)
    if np.all(table[2] == -np.inf):
        raise DomainError("relativistic coherent state undefined: zero normalization")
    return table


def _rel_ln_weight(j: int, alpha: np.ndarray, cols: int, dc: DiracConfig, charge: int):
    """ln 2M(E + M) over rows of order alpha and m = 0..cols-1."""
    n1, _ = _radial_numbers(j, alpha[:, None], np.arange(cols, dtype=float))
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
    as soon as the rows built so far miss more than _REL_GRID_SHARE of
    Mcal on the radial grid.
    """
    _, alpha, ln_c, phase = _rel_table(j, label, dc, charge)
    if grid is None:
        grid = make_radial_grid(rho_max=60.0)
    ln_w = 2.0 * ln_c + _rel_ln_weight(j, alpha, ln_c.shape[1], dc, charge)
    keep = _quiet_blocks(np.logaddexp.reduce(ln_w, axis=1), _REL_LN_TOL)
    ln_mcal = np.logaddexp.reduce(ln_w[:keep], axis=None)
    norm_const = exp_in_range(ln_mcal, "Mcal")
    states: dict = {}
    spinors: dict = {}
    missed = 0.0
    for l, ln_row, ph_row, ln_w_row in zip(_branch_l_values(j, dc.vartheta), ln_c[:keep],
                                           phase, ln_w):
        ms = np.flatnonzero(ln_row > -np.inf)
        if ms.size == 0:
            continue
        block, factors, energies, seed_nrm = _eigenspinors(j, l, ms, dc, charge, grid)
        c = np.exp(ln_row[ms] + 1j * ph_row[ms])
        states.update({(int(l), int(m)): (cm, e) for m, cm, e in zip(ms, c.tolist(), energies)})
        share = np.exp(ln_w_row[ms] - ln_mcal)
        missed += float(share @ np.abs(1.0 - seed_nrm**2))
        if not missed <= _REL_GRID_SHARE:
            raise TruncationError("radial grid too short for the relativistic coherent state",
                                  norm_const, missed)
        coef = np.sqrt(share) * np.exp(1j * ph_row[ms])
        spinors[block.l_up] = _superpose(block, coef * factors)
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
class Spinor4(_SpinorArithmetic):
    """Four-component spinor: upper/lower Spinor2 blocks on one grid, with
    the arithmetic of :class:`Spinor2` applied to both."""

    upper: Spinor2
    lower: Spinor2

    def _map(self, f) -> "Spinor4":
        return Spinor4(self.upper._map(f), self.lower._map(f))

    def _zip(self, other: "Spinor4", f) -> "Spinor4":
        return Spinor4(self.upper._zip(other.upper, f), self.lower._zip(other.lower, f))

    def sigma3(self) -> "Spinor4":
        return Spinor4(self.upper.sigma3(), self.lower.sigma3())


def d_inner4(a: Spinor4, b: Spinor4, dc: DiracConfig) -> complex:
    return d_inner(a.upper, b.upper, dc) + d_inner(a.lower, b.lower, dc)


def _boosted(dc: DiracConfig, p3: float) -> DiracConfig:
    """dc with the boosted mass Mt = sqrt(M^2 + p3^2)."""
    return replace(dc, mass=math.sqrt(dc.mass**2 + p3 * p3))


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
    dct = _boosted(dc, p3)
    m_tilde = dct.mass
    q_up = resolve_rel_qnums(j, l, m, charge, dct)
    q_dn = resolve_rel_qnums(j, l, m, -charge, dct)
    psi_up, _ = dirac_spinor(q_up, dct, charge, grid)
    psi_dn, _ = dirac_spinor(q_dn, dct, -charge, grid)
    f_up = p3 + s * m_tilde + dc.mass
    f_dn = p3 + s * m_tilde - dc.mass
    four = Spinor4(upper=f_up * psi_up, lower=f_dn * psi_dn.sigma3())
    nrm = math.sqrt(max(d_inner4(four, four, dc).real, 0.0))
    if nrm == 0.0:
        raise SpectralBoundaryError("embedded spinor has zero norm")
    return (1.0 / nrm) * four


def h3p1_apply(psi: Spinor4, p3: float, dc: DiracConfig) -> Spinor4:
    """Hamiltonian in the longitudinally boosted block representation.

    H = diag( sigma.P + Mt sigma3,  sigma.P - Mt sigma3 ),
    Mt = sqrt(M^2 + p3^2).  In this representation the embedded states
    are exact eigenstates for every p3.
    """
    dct = _boosted(dc, p3)
    return Spinor4(upper=hamiltonian_apply(psi.upper, dct),
                   lower=apply_sigma_p(psi.lower, dct) - dct.mass * psi.lower.sigma3())


def sz_apply(psi: Spinor4, p3: float, dc: DiracConfig) -> Spinor4:
    """Spin operator (H Sigma_z + Sigma_z H) / (2 Mt c^2) on the grid.

    Sigma_z is the standard block-diagonal spin matrix diag(s3, s3).
    The embedded states are exact eigenstates at p3 = 0; at p3 != 0 the
    eigenvalue property depends on the (unspecified) spin-matrix
    convention and is not asserted.
    """
    return ((h3p1_apply(psi.sigma3(), p3, dc) + h3p1_apply(psi, p3, dc).sigma3())
            / (2 * _boosted(dc, p3).mass))


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
    DomainError on a negative radius and near the singular real points
    s_k = k pi / gamma.  Elementwise over rho and rho', with the 2x2
    block in the last two axes.
    """
    if sigma not in (-1, 1):
        raise DomainError("sigma must be +1 or -1")
    g = dc.field.gamma
    mu = dc.field.mu
    sc = complex(s)
    _, l_s, nu = _row(sigma, l, dc)
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
        amp = (g / (8.0 * math.pi**1.5 * cmath.sqrt(sc))) * cmath.exp(
            0.25j * math.pi - 1j * dt * dt / (4.0 * sc))
        diag = amp * phase * _hille_hardy(nu, g * sc, rho, rho_p)
    out = np.zeros(np.shape(diag) + (2, 2), dtype=complex)  # diag Xi_sigma
    out[..., (1 - sigma) // 2, (1 - sigma) // 2] = diag
    return out
