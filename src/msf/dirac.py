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
the string is (E + M) u in the seed slot and sigma P_sigma u, a multiple
of one Laguerre profile, in the other (P_{+1} = P_+, P_{-1} = P_-).

:class:`Spinor2` holds one spinor or a block with one column per state
and does its own arithmetic (+, -, * by a number or one per column, /);
the inner product works column by column.  A 3+1 spinor
(:func:`embed_3p1`) is a block of two columns, the upper and lower Dirac
blocks; its four-spinor product is the sum of the two columns of the
inner product.  Every Dirac state is one :func:`_eigenspinors` call,
sum_k coef_k psi_k over columns k = (l, m, charge), psi_k the unit-norm
eigenspinors: a spinor is one column at coefficient 1, a 3+1 spinor two
columns (charge and -charge) at f / |f| (its block factors), and a
relativistic coherent state one column per (l, m) at sqrt(share) e^(i arg
c).  The call checks every column before any table, builds one Laguerre
table over the distinct orders of its rows, the runs of columns of one
(l, charge) (the other slot of row l has the order of the seed slot of
row l + charge, so L rows take L + 1 orders), and holds one grid-share
guard, which refuses the state once its columns miss more than 1e-9 of
its norm on the radial grid in total, sum |coef|^2 |1 - seed^2|.

The table (m, order, nodes) is real (float64) and is never copied or
scaled: an eigenspinor is a table profile in each slot times one complex
factor per slot (E + M, -i charge, the ladder coefficient, sqrt(gamma /
2 pi) / norm and the phase), the norms of all profiles come from one
weighted pass over the table, and the coefficients times the factors go
into one real product with the table per slot kind (seed or other),
written as complex profiles, one per order; each slot of each row is a
view of that result.  At L = 15 rows of 15 columns on 742 nodes the
table holds 16 x 16 profiles (1.5 MB, one mapping per state) and the
result 2 x 16.

sigma.P on any spinor (:func:`apply_sigma_p`, behind the residual
checks) is an exact angular shift plus the radial ladder, differentiated
on a composite grid (:mod:`msf.radial`): a route apart from construction.
"""

from __future__ import annotations

import cmath
import itertools
import math
import operator
from dataclasses import dataclass, replace

import numpy as np

from .specfun import DomainError, TruncationError, exp_in_range, laguerre_fn_table
from .landau import (FieldConfig, QuantumNumbers, _branch_l_values, _branch_of,
                     _laguerre_order, _profiles, _radial_numbers, stationary_state)
from .radial import RadialGrid
from .cs import CSLabel, _contract, _grown_table, _quiet_blocks
from .completeness import _hille_hardy

__all__ = [
    "DiracConfig",
    "RelQuantumNumbers",
    "Spinor2",
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
    "green_kernel_rel",
]


class SpectralBoundaryError(DomainError):
    """E = 0, the massless zero mode: no eigenspinor of the operator string."""


@dataclass(frozen=True)
class DiracConfig:
    """Field configuration, mass, and self-adjoint extension label."""

    field: FieldConfig
    mass: float = 1.0
    vartheta: int = 1

    def __post_init__(self):
        if self.vartheta not in (-1, 1):
            raise DomainError("vartheta must be +1 or -1")
        if not 0 <= self.mass < math.inf:
            raise DomainError("mass must be non-negative and finite")


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
    if _branch_of(l, dc.vartheta) != j:
        raise DomainError(f"l = {l} is not on branch {j} for vartheta = {dc.vartheta}")
    _, l_s, alpha = _family(sigma, l, dc)
    n1, n2 = _radial_numbers(j, alpha, float(m))
    return RelQuantumNumbers(j=j, l=int(l), m=int(m), sigma=sigma, l_sigma=int(l_s),
                             n1=n1, n2=n2)


def e_perp_sq(q: RelQuantumNumbers, dc: DiracConfig) -> float:
    """Transverse energy squared 2 gamma [n1 + (1 + sigma)/2]."""
    return 2.0 * dc.field.gamma * (q.n1 + (1 + q.sigma) / 2.0)


def _energy(n1, sigma: int, dc: DiracConfig):
    """sqrt(M^2 + 2 gamma [n1 + (1 + sigma)/2]), elementwise over n1."""
    return np.sqrt(dc.mass**2 + 2.0 * dc.field.gamma * (n1 + (1 + sigma) / 2.0))


def rel_basis_fn(q: RelQuantumNumbers, dc: DiracConfig, theta, rho):
    """Scalar component function, including sqrt(gamma/2 pi) and phases:
    the planar stationary state of the slot's row (j, l_sigma).

    Supports the irregular-at-origin l = 0 profiles selected by
    vartheta (order alpha in (-1, 0)); these are square integrable but
    unbounded as rho -> 0.
    """
    return stationary_state(QuantumNumbers(q.j, q.l_sigma, q.m, q.n1, q.n2), theta, rho, dc.field)


@dataclass(frozen=True)
class Spinor2:
    """Two-component spinor on a shared radial grid, or a block of them.

    Component values are radial profiles of shape (nodes,), or (nodes, k)
    for a block with one column per state; the angular factors
    exp(i (L - l0) theta) are carried through the indices (l_up, l_dn).
    Consistent total angular momentum requires l_dn = l_up + 1.  A 3+1
    spinor is a (nodes, 2) block: column 0 the upper Dirac block, column 1
    the lower (:func:`embed_3p1`).  + and - need one grid and one l_up,
    else DomainError; * takes a number or one number per column, from
    either side, and / a number.
    """

    grid: RadialGrid
    l_up: int
    up: np.ndarray
    dn: np.ndarray

    __array_ufunc__ = None  # ndarray * spinor reaches __rmul__

    def __post_init__(self):
        shape = self.up.shape
        if self.dn.shape != shape or len(shape) not in (1, 2) or shape[0] != self.grid.nodes.size:
            raise DomainError("components must share one shape, (nodes,) or (nodes, k)")

    @property
    def l_dn(self) -> int:
        return self.l_up + 1

    def _zip(self, other, f):
        if not isinstance(other, Spinor2):
            return NotImplemented
        if self.grid is not other.grid or self.l_up != other.l_up:
            raise DomainError("spinors must share one grid and one angular sector")
        return Spinor2(self.grid, self.l_up, f(self.up, other.up), f(self.dn, other.dn))

    def __add__(self, other):
        return self._zip(other, operator.add)

    def __sub__(self, other):
        return self._zip(other, operator.sub)

    def __mul__(self, c):
        if isinstance(c, Spinor2):
            return NotImplemented
        return Spinor2(self.grid, self.l_up, c * self.up, c * self.dn)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return Spinor2(self.grid, self.l_up, self.up / c, self.dn / c)

    def sigma3(self) -> "Spinor2":
        return Spinor2(self.grid, self.l_up, self.up, -self.dn)


def _quadrature(alpha: float, grid: RadialGrid) -> np.ndarray:
    """The grid's quadrature weights with the segment (0, rho_min) folded
    into the first two nodes, for the product w of two profiles of one spin
    slot: the power law rho^alpha of the slot's eigenfamily (:func:`_family`)
    gives the two-term fit w = (rho / rho_min)^alpha (c0 + c1 rho) through
    the first two nodes, whose integral is linear in w there; the ratios
    stay finite."""
    (r1, r2), delta = grid.nodes[:2].tolist(), grid.rho_min
    q = delta * (delta / (alpha + 2.0) - r1 / (alpha + 1.0)) / (r2 - r1)
    weights = grid.weights.copy()
    weights[0] += (delta / r1) ** alpha * (delta / (alpha + 1.0) - q)
    weights[1] += (delta / r2) ** alpha * q
    return weights


def d_inner(a: Spinor2, b: Spinor2, dc: DiracConfig, origin_tail: bool = True):
    """Spinor inner product (1/gamma) int drho dtheta a^dag b.

    The grid covers [rho_min, rho_max].  With ``origin_tail`` the
    segment (0, rho_min) is added analytically, slot by slot
    (:func:`_quadrature`); without it, pairs involving the irregular
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
        quad = _quadrature(_family(sigma, a.l_dn, dc)[2], a.grid) if origin_tail else a.grid.weights
        total = total + np.vecdot(quad, w)
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
    prof = _profiles(q.j, q.l_sigma, q.m, grid.nodes, dc.field)[q.m]
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


def hamiltonian_apply(s: Spinor2, dc: DiracConfig) -> Spinor2:
    """H = sigma.P + M sigma3, applied on the grid."""
    return apply_sigma_p(s, dc) + dc.mass * s.sigma3()


def _eigenspinors(j: int, ls, ms, charges, coef, dc: DiracConfig,
                  grid: RadialGrid) -> tuple[list[Spinor2], np.ndarray]:
    """(spinors, energies) of sum_k coef_k psi_k over the columns k, the
    unit-norm eigenspinors psi_k = (j, l_k, m_k, sigma = charge_k);
    ``ls``, ``ms``, ``charges`` and ``coef`` broadcast over the columns.  A
    row is a run of columns of one (l, charge): ``spinors`` holds one
    Spinor2 per row, the sum of its columns, and ``energies`` E per column.

    The checks run row by row, all before the table: a slot family outside
    the Laguerre domain raises DomainError (:func:`resolve_rel_qnums` on
    the seed slot at the row's least m, :func:`_family` on the other) and
    E = 0 raises SpectralBoundaryError (E grows with m, so the least m
    decides), in the order seed slot, E, other slot.  One
    :func:`laguerre_fn_table` of shape (m, order, nodes) then covers the
    distinct orders of both slots of all rows (:func:`_row` at charge and
    -charge), with rows up to the largest m, plus one where the other slot
    reads m + 1 (branch 0, charge +1).  No grid derivative is taken: the
    seed slot holds the profile I_m of the seed slot's family and the other
    slot its ladder (:func:`_ladder`), by DLMF 18.9.13-18.9.14 the profile
    I_m' of the other slot's family times charge (-1)^j sqrt(2 gamma (n1 +
    (1 + charge)/2)), with m' = m + charge on branch 0 (charge -1, m = 0:
    coefficient 0) and m' = m on branch 1.  Each column has one complex
    factor per slot: E + M on the seed slot, -i charge times the ladder
    coefficient on the other, sqrt(gamma / 2 pi) / norm and the sign or
    unit phase that makes the first nonvanishing component real and
    positive at the smallest node.

    The grid norm^2 of every table profile is taken in one pass, in the
    :func:`_quadrature` of its order, and each column's norms are read
    from it by index.  The grid-share guard refuses the state with
    TruncationError, tail_bound the total share missed sum |coef|^2 |1 -
    seed^2| (seed: the grid norm of each unit-norm seed profile), when that
    total passes _GRID_SHARE or a column is 0 on the grid.  coef times the
    factors then goes into a real coefficient array indexed by (slot kind,
    order, m, real/imaginary part); columns that read one profile add up
    (branch 0, charge -1: m = 0, of coefficient 0, and m = 1 read row 0 of
    the other slot).  One real product per slot kind with the table, read
    in place as (order, nodes, m), writes complex profiles through their
    trailing (..., 2) view, one per order; the slots of each row, whose
    orders no other row shares in that kind, are views of the result.
    """
    l, m, charge, coef = (a.ravel() for a in np.broadcast_arrays(ls, ms, charges, coef))
    new_row = (l[1:] != l[:-1]) | (charge[1:] != charge[:-1])
    bounds = [0, *(new_row.nonzero()[0] + 1).tolist(), m.size]
    alphas = []
    for lo, m0 in zip(bounds, np.minimum.reduceat(m, bounds[:-1]).tolist()):
        q = resolve_rel_qnums(j, int(l[lo]), m0, int(charge[lo]), dc)
        if _energy(q.n1, q.sigma, dc) == 0.0:  # E grows with m: the row's least m
            raise SpectralBoundaryError("massless zero mode: E = 0 has no eigenspinor")
        alphas.append((_row(q.sigma, q.l, dc)[2], _family(-q.sigma, q.l, dc)[2]))
    orders = sorted({a for pair in alphas for a in pair})
    column = {a: i for i, a in enumerate(orders)}
    sizes = [hi - lo for lo, hi in itertools.pairwise(bounds)]
    seed_o, other_o = np.repeat([(column[a], column[b]) for a, b in alphas], sizes, axis=0).T
    n1 = _radial_numbers(j, np.repeat([a for a, _ in alphas], sizes), m)[0]
    energies = _energy(n1, charge, dc)
    index = np.array([(m, seed_o), (np.maximum(m + charge, 0) if j == 0 else m, other_o)])
    table = laguerre_fn_table(np.array(orders)[:, None], int(index[:, 0].max()), grid.nodes)
    # the grid norm^2 of every profile, in the quadrature of its order
    quad = np.array([_quadrature(a, grid) for a in orders])
    sq = np.einsum("mon,mon,on->mo", table, table, quad)
    ladder = charge * (-1) ** j * np.sqrt(2.0 * dc.field.gamma * (n1 + (1 + charge) / 2.0))
    seed = energies + dc.mass  # the seed slot's factor, E + M
    seed_sq, other_sq = sq[index[:, 0], index[:, 1]]
    nrm = np.sqrt(np.maximum(seed ** 2 * seed_sq + ladder ** 2 * other_sq, 0.0))
    missed = float(np.abs(coef) ** 2 @ np.abs(1.0 - seed_sq))
    if not (missed <= _GRID_SHARE and (nrm > 0.0).all()):
        raise TruncationError("radial grid too short for the state", 0.0, missed)
    # the phase reference is the first node of the upper slot (the seed slot
    # at charge +1) where it is nonzero, else of the lower: a sign times the
    # conjugate slot unit, 1 on the seed slot and i charge on the other
    seed0, other0 = table[index[:, 0], index[:, 1], 0]
    other0 = ladder * other0
    ref_seed = np.where(charge == 1, seed0 != 0, other0 == 0)
    phase = (np.where(np.where(ref_seed, seed0, other0) < 0, -1.0, 1.0)
             * np.where(ref_seed, 1.0, 1j * charge))
    scale = math.sqrt(dc.field.gamma / (2.0 * math.pi)) / nrm * phase
    c = np.array([seed, -1j * charge * ladder]) * scale * coef
    coeffs = np.zeros((2, table.shape[1], table.shape[0], 2))
    np.add.at(coeffs, (np.arange(2)[:, None], index[:, 1], index[:, 0]),
              c.view(float).reshape(c.shape + (2,)))
    out = np.empty((2,) + table.shape[1:], dtype=complex)
    np.matmul(table.transpose(1, 2, 0), coeffs, out=out.view(float).reshape(out.shape + (2,)))
    spinors = [_seed_block(out[0, seed_o[k]], out[1, other_o[k]], int(charge[k]), int(l[k]), grid)
               for k in bounds[:-1]]
    return spinors, energies


def dirac_spinor(q: RelQuantumNumbers, dc: DiracConfig, charge: int,
                 grid: RadialGrid) -> tuple[Spinor2, float]:
    """Normalized H eigenspinor and its |energy| E = sqrt(M^2 + E_perp^2).

    charge = +1 builds the positive-energy state from the sigma = +1
    scalar, charge = -1 the negative-energy state from sigma = -1; the
    Hamiltonian eigenvalue is charge * E.  Raises SpectralBoundaryError
    at E = 0 (massless zero mode), and TruncationError where the radial
    grid misses more than 1e-9 of the seed's norm: one :func:`_eigenspinors`
    column at coefficient 1, whose one row the two slots view.
    """
    if q.sigma != charge:
        raise DomainError("seed spin label must match the charge branch (+1 or -1)")
    [psi], energies = _eigenspinors(q.j, q.l, q.m, charge, 1.0, dc, grid)
    return psi, float(energies[0])


@dataclass(frozen=True)
class RelCS:
    """Truncated relativistic coherent state on one branch.

    states maps (l, m) to (coefficient, energy); norm_const is the
    numerically accumulated normalization (diagonal of the overlap
    form), and spinors maps l_up to the assembled grid representation of
    that angular sector, jointly of unit norm under the spinor product.
    """

    states: dict
    norm_const: float
    spinors: dict
    grid: RadialGrid


# quiet-block tolerance on the block weights sum_m |c|^2 2M(E+M)
_REL_LN_TOL = math.log(1e-14)
# largest share of a state's norm the radial grid may miss, sum w |1 - seed^2|
_GRID_SHARE = 1e-9


def _rel_series(j: int, label: CSLabel, dc: DiracConfig, charge: int):
    """(l, ln|c|, arg c, ln share, ln Mcal) of the relativistic series over
    its kept Dirac rows l, m = 0..M: the one series behind :func:`rel_cs`
    and :func:`rel_cs_overlap_closed`.

    The planar table is grown over the :func:`_row` rows l_s of spin
    charge for the branch-j Dirac rows; the l blocks weighted by 2M(E + M)
    then stop by the quiet-block rule at 1e-14, Mcal is the sum of the kept
    weights |c|^2 2M(E + M), and share is each weight over Mcal.  Requires
    M > 0 and a nonzero amplitude, else DomainError.
    """
    if dc.mass <= 0.0:
        raise DomainError("relativistic coherent states require M > 0")
    l_s, alpha, ln_c, phase = _grown_table(
        j, (_row(charge, l, dc)[1] for l in _branch_l_values(j, dc.vartheta)), label, dc.field)
    if np.all(ln_c == -np.inf):
        raise DomainError("relativistic coherent state undefined: zero normalization")
    n1, _ = _radial_numbers(j, alpha[:, None], np.arange(ln_c.shape[1], dtype=float))
    ln_w = 2.0 * ln_c + np.log(2.0 * dc.mass * (_energy(n1, charge, dc) + dc.mass))
    keep = _quiet_blocks(np.logaddexp.reduce(ln_w, axis=1), _REL_LN_TOL)
    ln_mcal = np.logaddexp.reduce(ln_w[:keep], axis=None)
    return (l_s[:keep] + (1 + charge) // 2, ln_c[:keep], phase[:keep],
            ln_w[:keep] - ln_mcal, ln_mcal)


def rel_cs(j: int, label: CSLabel, dc: DiracConfig, charge: int,
           grid: RadialGrid) -> RelCS:
    """Relativistic coherent state: the (l, m) series of eigenspinors.

    Per-state weights follow the convention that fixes the overlap form
    to 2 M (E + M) on the diagonal, i.e. the series is

        sum c_{lm} sqrt(2 M (E_lm + M)) psihat_{lm} / sqrt(Mcal),
        Mcal = sum |c_{lm}|^2 2 M (E_lm + M),

    with psihat the unit-norm spinors, over the kept rows of
    :func:`_rel_series`: the l blocks of the grown planar table stop
    earlier by the quiet-block rule applied to the weighted blocks at
    1e-14, and :func:`rel_cs_overlap_closed` contracts the same kept
    series.  Every kept (l, m) of nonzero amplitude is one column of one
    :func:`_eigenspinors` call, one Laguerre table for the whole state,
    at the coefficient sqrt(share) e^(i arg c), share = |c|^2 2M(E + M) /
    Mcal; ``spinors`` holds its rows, one per l, views of its result.  Requires M > 0 (the weight degenerates in the massless
    limit); raises TruncationError, from the guard all eigenspinors share,
    when the columns miss more than 1e-9 of Mcal on the radial grid in
    total, before any block is summed.
    """
    rows, ln_c, phase, ln_share, ln_mcal = _rel_series(j, label, dc, charge)
    norm_const = exp_in_range(ln_mcal, "Mcal")
    r, m = np.nonzero(ln_c > -np.inf)
    l, share = rows[r], np.exp(ln_share[r, m])
    coef = np.sqrt(share) * np.exp(1j * phase[r, m])
    spinors, energies = _eigenspinors(j, l, m, charge, coef, dc, grid)
    c = np.exp(ln_c[r, m] + 1j * phase[r, m])
    states = dict(zip(zip(l.tolist(), m.tolist()), zip(c.tolist(), energies.tolist())))
    return RelCS(states=states, norm_const=norm_const, grid=grid,
                 spinors={psi.l_up: psi for psi in spinors})


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
    / sqrt(Mcal Mcal') = sum sqrt(share share') e^(i (arg c' - arg c)), in
    log space over the two kept series of :func:`_rel_series`, contracted
    on their common prefix (:func:`msf.cs._contract`).  That is the exact
    inner product of the two :func:`rel_cs` states, whose columns are
    orthonormal eigenspinors at these coefficients, so the modulus never
    exceeds one."""
    _, _, ph_a, sh_a, _ = _rel_series(j, label_a, dc, charge)
    _, _, ph_b, sh_b, _ = _rel_series(j, label_b, dc, charge)
    return _contract(0.5 * sh_a, ph_a, 0.5 * sh_b, ph_b)


def _boosted(dc: DiracConfig, p3: float) -> DiracConfig:
    """dc with the boosted mass Mt = sqrt(M^2 + p3^2)."""
    return replace(dc, mass=math.sqrt(dc.mass**2 + p3 * p3))


def embed_3p1(j: int, l: int, m: int, charge: int, s: int, p3: float,
              dc: DiracConfig, grid: RadialGrid) -> tuple[Spinor2, float]:
    """Stationary four-spinor with longitudinal momentum p3 and spin s, and
    its |energy| E = sqrt(Mt^2 + E_perp^2).

    The construction substitutes the boosted mass Mt = sqrt(M^2 + p3^2)
    into the planar spinors of (j, l, m) and stacks them as the two
    columns of one (nodes, 2) block,

        column 0 (upper) = (p3 + s Mt + M) psi_charge(Mt),
        column 1 (lower) = (p3 + s Mt - M) sigma3 psi_{-charge}(Mt),

    normalized jointly under the four-spinor product, the sum of the two
    columns of :func:`d_inner`.  The overall 1/M of the textbook factors is
    absorbed, so M = 0 is regular at p3 != 0 for the spin s = sign(p3).
    At M = 0 both factors vanish where s = -sign(p3) (then Mt = |p3|) and
    at p3 = 0 for either spin: SpectralBoundaryError is raised.  The
    energy is charge * E, E that of psi_charge(Mt).  Both columns are the
    rows of one :func:`_eigenspinors` call at the coefficients f / |f|, so
    the block has unit norm with no second pass, and its grid-share guard
    weighs each unit column by its share f^2 / |f|^2.
    """
    if s not in (-1, 1):
        raise DomainError("spin label s must be +1 or -1")
    dct = _boosted(dc, p3)
    q = resolve_rel_qnums(j, l, m, charge, dct)
    f = np.array([p3 + s * dct.mass + dc.mass, p3 + s * dct.mass - dc.mass])
    # no share where both factors vanish: refused after the build, so E = 0
    # is reported first
    coef = f / np.hypot(*f) if f.any() else f
    (up, dn), energies = _eigenspinors(j, q.l, q.m, [charge, -charge], coef, dct, grid)
    if not f.any():
        raise SpectralBoundaryError("embedded spinor has zero norm")
    block = Spinor2(grid, up.l_up, np.stack([up.up, dn.up], axis=1),
                    np.stack([up.dn, -dn.dn], axis=1))  # sigma3 psi_-charge below
    return block, float(energies[0])


def h3p1_apply(psi: Spinor2, p3: float, dc: DiracConfig) -> Spinor2:
    """Hamiltonian in the longitudinally boosted block representation.

    H = sigma.P + Mt sigma3 tau3 = diag( sigma.P + Mt sigma3,
    sigma.P - Mt sigma3 ) on the upper (column 0) and lower (column 1)
    blocks of ``psi``, Mt = sqrt(M^2 + p3^2).  In this representation the
    embedded states are exact eigenstates for every p3.  DomainError
    unless ``psi`` is a (nodes, 2) block.
    """
    if psi.up.shape[1:] != (2,):
        raise DomainError("a 3+1 spinor is a (nodes, 2) block: upper and lower column")
    dct = _boosted(dc, p3)
    return apply_sigma_p(psi, dct) + (dct.mass * np.array([1.0, -1.0])) * psi.sigma3()


def sz_apply(psi: Spinor2, p3: float, dc: DiracConfig) -> Spinor2:
    """Spin operator (H Sigma_z + Sigma_z H) / (2 Mt c^2) on the grid.

    Sigma_z is the standard block-diagonal spin matrix diag(s3, s3), sigma3
    on both columns of the (nodes, 2) block ``psi`` (DomainError for any
    other shape).  The embedded states are exact eigenstates at p3 = 0;
    at p3 != 0 the eigenvalue property depends on the (unspecified)
    spin-matrix convention and is not asserted.
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
    A B is i gamma / (8 pi^{3/2} s^{1/2}) times
    :func:`msf.completeness._hille_hardy` at phi = i gamma s, which is
    real on the Wick axis s = -i tau, with the exponent of A as its
    phase.  Raises DomainError on a negative radius, near the singular
    real points s_k = k pi / gamma (s = 0 included), at rho = 0 in the
    irregular channel, where I_nu is infinite, and where the value leaves
    the double range.
    Elementwise over rho and rho', with the 2x2 block in the last two
    axes.
    """
    if sigma not in (-1, 1):
        raise DomainError("sigma must be +1 or -1")
    g = dc.field.gamma
    mu = dc.field.mu
    sc = complex(s)
    if not sc:  # s_0 = 0, where 1 / s would raise ZeroDivisionError first
        raise DomainError("kernel singular: sinh(phi) vanishes")
    _, l_s, nu = _row(sigma, l, dc)
    ln_phase = (1j * (l_s - dc.field.l0) * dtheta - 1j * dc.mass**2 * sc
                - 1j * (l_s + sigma + mu) * g * sc + 0.25j * math.pi - 1j * dt * dt / (4.0 * sc))
    amp = (g / (8.0 * math.pi**1.5)) * 1j / cmath.sqrt(sc)
    diag = amp * _hille_hardy(nu, 1j * g * sc, rho, rho_p, ln_phase)
    k = (1 - sigma) // 2  # diag Xi_sigma
    if isinstance(diag, complex):  # np.shape and [..., k, k] took a microsecond
        out = np.zeros((2, 2), dtype=complex)
        out[k, k] = diag
        return out
    out = np.zeros(diag.shape + (2, 2), dtype=complex)
    out[..., k, k] = diag
    return out
