"""Planar Dirac sector, relativistic coherent states, 3+1 embedding,
and the proper-time kernel."""

import cmath
import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special as sp

from msf.completeness import KernelParams, propagator_closed
from msf.landau import FieldConfig, _branch_l_values, resolve_qnums, stationary_state
from msf.radial import RadialGrid, make_radial_grid
from msf.specfun import DomainError, TruncationError, laguerre_fn, laguerre_fn_table
from msf.cs import CSLabel, cs_state
from msf.dirac import (
    DiracConfig,
    SpectralBoundaryError,
    Spinor2,
    apply_sigma_p,
    basis_spinor_component,
    d_inner,
    d_norm,
    dirac_spinor,
    e_perp_sq,
    embed_3p1,
    green_kernel_rel,
    h3p1_apply,
    hamiltonian_apply,
    rel_basis_fn,
    rel_cs,
    rel_cs_inner,
    rel_cs_overlap_closed,
    resolve_rel_qnums,
    sz_apply,
)
from msf.dirac import _eigenspinors, _energy, _ladder, _row


GRID = make_radial_grid(rho_max=70.0)


def make_dc(mu=0.4, vartheta=1, mass=1.0, gamma=1.0):
    return DiracConfig(field=FieldConfig(gamma=gamma, l0=0, mu=mu), mass=mass,
                       vartheta=vartheta)


def e_energy(q, dc) -> float:
    """sqrt(M^2 + E_perp^2), the eigenvalue of Pi0, by the library's _energy."""
    return float(_energy(q.n1, q.sigma, dc))


# ---------------------------------------------------------------------------
# quantum numbers and ranges
# ---------------------------------------------------------------------------


def test_l_ranges_depend_on_vartheta():
    dc_p = make_dc(vartheta=1)
    dc_m = make_dc(vartheta=-1)
    resolve_rel_qnums(0, 0, 0, -1, dc_p)   # l = 0 in branch 0 for vt = +1
    with pytest.raises(DomainError):
        resolve_rel_qnums(1, 0, 0, -1, dc_p)
    resolve_rel_qnums(1, 0, 0, -1, dc_m)   # ... and in branch 1 for vt = -1
    with pytest.raises(DomainError):
        resolve_rel_qnums(0, 0, 0, -1, dc_m)


def _spinor_on(grid):
    return basis_spinor_component(resolve_rel_qnums(1, 1, 0, 1, make_dc()), make_dc(), grid)


@pytest.mark.parametrize("call", [
    lambda: DiracConfig(FieldConfig(), vartheta=0),
    lambda: resolve_rel_qnums(1, 1, 0, 0, make_dc()),             # sigma 0
    lambda: resolve_rel_qnums(1, 1, -1, 1, make_dc()),            # m = -1
    lambda: dirac_spinor(resolve_rel_qnums(1, 1, 0, 1, make_dc()), make_dc(), -1, GRID),
    lambda: embed_3p1(1, 1, 0, 1, 0, 0.5, make_dc(), GRID),        # s = 0
    lambda: green_kernel_rel(0, 1, make_dc(), -0.5j, 0.0, 0.0, 1.0, 2.0),
    lambda: d_inner(_spinor_on(GRID), _spinor_on(make_radial_grid(rho_max=20.0)), make_dc()),
], ids=["vartheta", "sigma", "m", "charge", "spin", "kernel-sigma", "two-grids"])
def test_dirac_domain_errors(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("mass", [math.nan, math.inf])
def test_dirac_config_rejects_non_finite_mass(mass):
    with pytest.raises(DomainError):
        make_dc(mass=mass)


def test_spin_shifted_labels():
    dc = make_dc(mu=0.5)
    q = resolve_rel_qnums(1, 3, 1, 1, dc)
    assert q.l_sigma == 2
    assert q.n1 == pytest.approx(3.5)
    assert q.n2 == 1.0
    q = resolve_rel_qnums(0, -1, 2, -1, dc)
    assert q.l_sigma == -1
    assert (q.n1, q.n2) == (2.0, pytest.approx(2.5))


def test_transverse_energy_formula():
    dc = make_dc(mu=0.4, gamma=1.3)
    q = resolve_rel_qnums(1, 2, 1, 1, dc)
    # 2 gamma [n1 + 1] with n1 = m + l_sigma + mu
    assert e_perp_sq(q, dc) == pytest.approx(2 * 1.3 * (1 + 1 + 0.4 + 1))
    q = resolve_rel_qnums(1, 2, 1, -1, dc)
    assert e_perp_sq(q, dc) == pytest.approx(2 * 1.3 * (1 + 2 + 0.4))


def test_energy_massless_and_plugin():
    dc0 = make_dc(mu=0.0, mass=0.0)
    q = resolve_rel_qnums(1, 1, 0, -1, dc0)
    assert e_energy(q, dc0) == pytest.approx(math.sqrt(2.0 * (0 + 1)))
    dc1 = make_dc(mu=0.0, mass=1.0)
    q = resolve_rel_qnums(1, 1, 0, 1, dc1)  # n1 = 0, sigma = +1
    assert e_energy(q, dc1) == pytest.approx(math.sqrt(3.0))


def test_mu_zero_reduction_to_landau():
    from msf.landau import resolve_qnums, stationary_state

    dc = make_dc(mu=0.0)
    q = resolve_rel_qnums(1, 2, 1, -1, dc)  # l_sigma = 2
    lq = resolve_qnums(1, 2, 1, FieldConfig(mu=0.0))
    for (theta, rho) in [(0.3, 0.7), (1.1, 2.5)]:
        assert rel_basis_fn(q, dc, theta, rho) == pytest.approx(
            stationary_state(lq, theta, rho, FieldConfig(mu=0.0)), rel=1e-13)


@pytest.mark.parametrize("vt, rows", [
    (1, [(0, 0, 0, -1), (1, 1, 1, 1), (1, 2, 0, -1), (0, -2, 2, 1)]),
    (-1, [(1, 0, 0, 1), (1, 2, 0, -1), (0, -1, 1, -1), (0, -2, 2, 1)]),
])
def test_rel_basis_fn_scalar_matches_array(vt, rows):
    # both spins on both branches; the first row is the irregular l = 0 channel
    dc = make_dc(mu=0.4, vartheta=vt)
    rho = np.array([1e-4, 0.5, 3.0, 12.0])
    for (j, l, m, sig) in rows:
        q = resolve_rel_qnums(j, l, m, sig, dc)
        arr = rel_basis_fn(q, dc, 0.6, rho)
        for k, r in enumerate(rho):
            val = rel_basis_fn(q, dc, 0.6, float(r))
            assert type(val) is complex
            assert val == pytest.approx(arr[k], rel=1e-15, abs=0.0)


@pytest.mark.parametrize("vt", [1, -1])
def test_scalar_components_orthonormal(vt):
    # 20 spin-shifted scalar functions, plane inner product: the angular
    # factor gives exact deltas, the radial integrals are quadratures
    # with the origin-tail correction
    dc = make_dc(mu=0.4, vartheta=vt)
    base1, base0 = next(_branch_l_values(1, vt)), next(_branch_l_values(0, vt))
    qs = []
    for sig in (1, -1):
        qs += [resolve_rel_qnums(1, base1 + dl, m, sig, dc)
               for dl in range(3) for m in range(2)]
        qs += [resolve_rel_qnums(0, base0 - dl, m, sig, dc)
               for dl in range(2) for m in range(2)]
    comps = [basis_spinor_component(q, dc, GRID) for q in qs]
    # scalar product = spinor product of single-slot spinors; states with
    # different sigma occupy different slots and angular sectors are exact
    n = len(comps)
    assert n == 20
    gram = np.array([[d_inner(comps[a], comps[b], dc) for b in range(n)]
                     for a in range(n)])
    # same-slot same-angular pairs overlap like the scalar functions do;
    # the matrix restricted to identical sigma must be orthonormal
    worst = 0.0
    for a in range(n):
        for b in range(n):
            if qs[a].sigma == qs[b].sigma:
                target = 1.0 if a == b else 0.0
                worst = max(worst, abs(gram[a, b] - target))
    assert worst < 1e-8


def test_irregular_profile_square_integrable():
    # vt = +1, l = 0, sigma = -1: profile ~ rho^(-mu/2) near the origin
    dc = make_dc(mu=0.4, vartheta=1)
    q = resolve_rel_qnums(0, 0, 0, -1, dc)
    small = rel_basis_fn(q, dc, 0.0, 1e-6)
    big = rel_basis_fn(q, dc, 0.0, 1e-4)
    ratio = abs(small) / abs(big)
    assert ratio == pytest.approx((1e-6 / 1e-4) ** (-0.2), rel=1e-3)
    u = basis_spinor_component(q, dc, GRID)
    assert d_norm(u, dc) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("vt", [1, -1])
def test_sigma_p_squared_eigenvalue(vt):
    dc = make_dc(mu=0.4, vartheta=vt)
    base1, base0 = next(_branch_l_values(1, vt)), next(_branch_l_values(0, vt))
    for (j, l, m, sig) in [(1, base1, 0, 1), (1, base1 + 1, 1, -1),
                           (0, base0, 0, -1), (0, base0 - 1, 2, 1)]:
        q = resolve_rel_qnums(j, l, m, sig, dc)
        u = basis_spinor_component(q, dc, GRID)
        ppu = apply_sigma_p(apply_sigma_p(u, dc), dc)
        t = e_perp_sq(q, dc)
        if t != 0.0:
            rel = d_norm(ppu - t * u, dc, origin_tail=False) / (t * d_norm(u, dc))
            assert rel < 1e-6, (j, l, m, sig, rel)
        else:
            # zero mode: sigma.P annihilates the state
            assert d_norm(ppu, dc, origin_tail=False) / (2 * dc.field.gamma) < 1e-6


def test_zero_mode_annihilated():
    dc = make_dc(mu=0.4, vartheta=1)
    q = resolve_rel_qnums(0, 0, 0, -1, dc)  # n1 = 0, sigma = -1
    assert e_perp_sq(q, dc) == 0.0
    u = basis_spinor_component(q, dc, GRID)
    pu = apply_sigma_p(u, dc)
    assert d_norm(pu, dc, origin_tail=False) < 1e-6 * math.sqrt(2 * dc.field.gamma)


def test_sigma_p_hermitian():
    dc = make_dc(mu=0.4)
    rho = GRID.nodes

    def mk(c1, c2):
        f = np.exp(-rho / 2) * rho ** ((1 + 0.4) / 2) * (1 + c1 * rho - 0.05 * rho**2)
        g = np.exp(-rho / 2) * rho ** ((2 + 0.4) / 2) * (0.5 + c2 * rho)
        return Spinor2(grid=GRID, l_up=1, up=(1 + 0.5j) * f, dn=(0.3 - 0.2j) * g)

    s1, s2 = mk(0.3, 0.1), mk(-0.2, 0.4)
    lhs = d_inner(s1, apply_sigma_p(s2, dc), dc)
    rhs = d_inner(apply_sigma_p(s1, dc), s2, dc)
    assert abs(lhs - rhs) / abs(lhs) < 1e-6


# ---------------------------------------------------------------------------
# eigenspinors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("vt", [1, -1])
def test_hamiltonian_eigen_residual(vt):
    dc = make_dc(mu=0.4, vartheta=vt)
    base1, base0 = next(_branch_l_values(1, vt)), next(_branch_l_values(0, vt))
    for (j, l, m) in [(1, base1, 0), (0, base0, 1), (1, base1 + 2, 1)]:
        for charge in (1, -1):
            q = resolve_rel_qnums(j, l, m, charge, dc)
            psi, e = dirac_spinor(q, dc, charge, GRID)
            assert d_norm(psi, dc) == pytest.approx(1.0, abs=1e-12)
            resid = hamiltonian_apply(psi, dc) - charge * e * psi
            assert d_norm(resid, dc, origin_tail=False) / e < 1e-5


def test_angular_momentum_bookkeeping():
    # component angular indices are (l_sigma, l_sigma + 1) so the total
    # angular momentum l - l0 - 1/2 is carried exactly
    dc = make_dc(mu=0.4)
    q = resolve_rel_qnums(1, 2, 0, 1, dc)
    psi, _ = dirac_spinor(q, dc, 1, GRID)
    assert psi.l_up == q.l_sigma == 1
    assert psi.l_dn == q.l      == 2


def eigenspinors(j, l, ms, dc, charge):
    """(block, energies) of Dirac row l on GRID: the unit-norm eigenspinors,
    one column per m, each the one row of a one-column _eigenspinors call
    at coefficient 1."""
    built = [_eigenspinors(j, l, m, charge, 1.0, dc, GRID) for m in ms]
    cols = [psi for [psi], _ in built]
    block = Spinor2(GRID, l - 1, np.stack([psi.up for psi in cols], axis=1),
                    np.stack([psi.dn for psi in cols], axis=1))
    return block, np.concatenate([e for _, e in built])


@pytest.mark.parametrize("j,l,charge,vt", [(1, 2, 1, 1), (0, 0, -1, 1), (1, 0, 1, -1)])
def test_block_inner_matches_columns(j, l, charge, vt):
    # a block's inner product and norm are the values of its columns, taken
    # as dirac_spinor takes column 0; irregular l = 0 channels included
    dc = make_dc(mu=0.4, vartheta=vt)
    block, _ = eigenspinors(j, l, [0, 1, 3], dc, charge)
    cols = [replace(block, up=block.up[:, k], dn=block.dn[:, k]) for k in range(3)]
    c = np.array([1.0, 1j, -0.6 + 0.8j])
    for tail in (True, False):
        got = d_inner(block, block, dc, tail)
        assert got.shape == (3,)
        assert np.max(np.abs(got - [d_inner(col, col, dc, tail) for col in cols])) <= 1e-15
        assert np.max(np.abs(d_norm(block, dc, tail)
                             - [d_norm(col, dc, tail) for col in cols])) <= 1e-15
        cross = d_inner(c * block, block, dc, tail)
        assert np.max(np.abs(cross - [np.conj(ck) * d_inner(col, col, dc, tail)
                                      for ck, col in zip(c, cols)])) <= 1e-15
    assert type(d_inner(cols[0], cols[1], dc)) is complex
    assert type(d_norm(cols[0], dc)) is float


def test_spinor_sums_need_one_grid_and_sector():
    dc = make_dc(mu=0.4)
    q = resolve_rel_qnums(1, 1, 0, 1, dc)
    a = basis_spinor_component(q, dc, GRID)
    with pytest.raises(DomainError):
        a + basis_spinor_component(q, dc, make_radial_grid(rho_max=70.0))
    with pytest.raises(DomainError):
        a - basis_spinor_component(resolve_rel_qnums(1, 2, 0, 1, dc), dc, GRID)
    with pytest.raises(DomainError):
        Spinor2(grid=GRID, l_up=0, up=a.up, dn=a.up[:-1])


def test_array_times_block_scales_each_column():
    dc = make_dc(mu=0.4)
    block, _ = eigenspinors(1, 2, [0, 1, 2], dc, 1)
    c = np.array([2.0, -1j, 0.25 + 0.5j])
    for out in (c * block, block * c):
        assert isinstance(out, Spinor2) and out.l_up == block.l_up
        for k in range(3):
            assert np.array_equal(out.up[:, k], c[k] * block.up[:, k])
            assert np.array_equal(out.dn[:, k], c[k] * block.dn[:, k])
    half = block / 2.0
    assert np.array_equal(half.up, block.up / 2.0) and np.array_equal(half.dn, block.dn / 2.0)


def test_charge_branches_orthogonal():
    dc = make_dc(mu=0.4)
    q1 = resolve_rel_qnums(1, 1, 0, 1, dc)
    q2 = resolve_rel_qnums(1, 1, 0, -1, dc)
    p1, _ = dirac_spinor(q1, dc, 1, GRID)
    p2, _ = dirac_spinor(q2, dc, -1, GRID)
    assert abs(d_inner(p1, p2, dc)) < 1e-8


def test_energy_consistency():
    dc = make_dc(mu=0.4)
    q = resolve_rel_qnums(1, 2, 1, 1, dc)
    assert e_energy(q, dc) ** 2 - dc.mass ** 2 == pytest.approx(e_perp_sq(q, dc),
                                                                rel=1e-14)


@pytest.mark.parametrize("vt,j,l,m,sigma,zero", [
    pytest.param(1, 0, 0, 0, -1, True, id="vt+1-zero"),
    pytest.param(-1, 0, -1, 0, -1, True, id="vt-1-zero"),
    pytest.param(1, 1, 1, 0, -1, False, id="nonzero"),
])
def test_massless_zero_mode_boundary_case(vt, j, l, m, sigma, zero):
    # a massless zero mode (E_perp = 0, M = 0) is an input the builder
    # cannot serve; a massless mode with E > 0 builds as any other
    dc = make_dc(mu=0.4, mass=0.0, vartheta=vt)
    q = resolve_rel_qnums(j, l, m, sigma, dc)
    if zero:
        assert e_perp_sq(q, dc) == 0.0
        with pytest.raises(SpectralBoundaryError) as info:
            dirac_spinor(q, dc, sigma, GRID)
        assert isinstance(info.value, DomainError)
        return
    psi, e = dirac_spinor(q, dc, sigma, GRID)
    assert e == pytest.approx(math.sqrt(2 * dc.field.gamma * q.n1), rel=1e-15)
    assert d_norm(psi, dc) == pytest.approx(1.0, abs=1e-12)
    resid = hamiltonian_apply(psi, dc) - sigma * e * psi
    assert d_norm(resid, dc, origin_tail=False) / e < 1e-5


@pytest.mark.parametrize("charge", [1, -1])
def test_spinor_past_the_radial_grid_raises(charge):
    # at l = 700 every profile underflows to 0 on a rho_max = 70 grid: a
    # typed error, not a nan spinor
    dc = make_dc(mu=0.4)
    q = resolve_rel_qnums(1, 700, 0, charge, dc)
    with pytest.raises(TruncationError, match="radial grid too short"):
        dirac_spinor(q, dc, charge, make_radial_grid(rho_max=70.0))


@pytest.mark.parametrize("charge", [1, -1])
@pytest.mark.parametrize("l", [40, 150, 300])
def test_spinors_the_radial_grid_cannot_hold_raise(l, charge):
    # at mu 0.4 a rho_max = 70 grid misses 4.9e-5 of the l = 40 seed's
    # norm^2 and all of it at l = 150 and 300: refused by the grid-share
    # guard of every eigenspinor, not renormalized on the grid
    dc = make_dc(mu=0.4)
    grid = make_radial_grid(rho_max=70.0)
    with pytest.raises(TruncationError, match="radial grid too short"):
        dirac_spinor(resolve_rel_qnums(1, l, 0, charge, dc), dc, charge, grid)
    with pytest.raises(TruncationError, match="radial grid too short"):
        embed_3p1(1, l, 0, charge, 1, 0.7, dc, grid)


@pytest.mark.parametrize("vt,l", [(1, 0), (1, -2), (-1, -1)])
def test_bottom_of_the_ladder_is_one_real_slot(vt, l):
    # branch 0, charge -1, m = 0: sigma.P annihilates the seed, so the upper
    # slot is exactly 0 and the phase reference is the seed, real and positive
    dc = make_dc(mu=0.4, vartheta=vt)
    psi, _ = dirac_spinor(resolve_rel_qnums(0, l, 0, -1, dc), dc, -1, GRID)
    assert np.all(psi.up == 0.0)
    assert psi.dn[0].real > 0 and np.all(psi.dn.imag == 0.0)


@pytest.mark.parametrize("gamma", [0.4, 1.0, 2.5])
@pytest.mark.parametrize("mu", [0.0, 0.3, 0.85])
def test_other_slot_is_the_ladder_of_the_seed(gamma, mu):
    # the other slot, read from the other family's Laguerre table, is the
    # grid ladder of the seed slot, bottom of the ladder (a zero slot) included
    ms = [0, 1, 3]
    for vt, charge, l in itertools.product((1, -1), (1, -1), range(-3, 4)):
        dc = make_dc(mu=mu, vartheta=vt, gamma=gamma)
        j = _row(charge, l, dc)[0]
        try:
            block, energies = eigenspinors(j, l, ms, dc, charge)
        except DomainError:  # a slot outside the Laguerre domain (mu = 0, l = 0)
            assert mu == 0.0 and l == 0
            continue
        # the seed slot holds (E + M) u and the other -i charge times the ladder of u
        seed, other = (block.up, block.dn)[::charge]
        seed = seed / (energies + dc.mass)
        ladder = -1j * charge * _ladder(seed, charge, l, dc, GRID)
        scale = np.maximum(np.max(np.abs(seed), axis=0), np.max(np.abs(other), axis=0))
        assert np.all(np.max(np.abs(ladder - other), axis=0) <= 1e-10 * scale), (vt, charge, l)


def test_eigenspinors_take_no_grid_derivative(monkeypatch):
    import msf.dirac as dirac

    def refuse(*args, **kwargs):
        raise AssertionError("grid differentiation in spinor construction")

    monkeypatch.setattr(dirac, "_ladder", refuse)
    monkeypatch.setattr(RadialGrid, "derivative", refuse)
    for j, l, charge, vt in [(1, 2, 1, 1), (0, 0, -1, 1), (1, 0, 1, -1), (0, -2, -1, -1)]:
        dc = make_dc(mu=0.4, vartheta=vt)
        eigenspinors(j, l, [0, 1, 3], dc, charge)
        dirac_spinor(resolve_rel_qnums(j, l, 1, charge, dc), dc, charge, GRID)



@pytest.mark.parametrize("charge", [1, -1])
@pytest.mark.parametrize("l", [40, 60, 80])
def test_spinor_finite_at_high_angular_number(l, charge):
    # the origin-tail fit and the ladder's peeled power law overflowed here
    dc = make_dc(mu=0.5)
    grid = make_radial_grid(rho_max=160.0)
    psi, e = dirac_spinor(resolve_rel_qnums(1, l, 0, charge, dc), dc, charge, grid)
    assert np.all(np.isfinite(psi.up)) and np.all(np.isfinite(psi.dn))
    assert d_norm(psi, dc) == pytest.approx(1.0, abs=1e-12)
    resid = hamiltonian_apply(psi, dc) - charge * e * psi
    assert d_norm(resid, dc, origin_tail=False) / e <= 1e-5

# ---------------------------------------------------------------------------
# relativistic coherent states
# ---------------------------------------------------------------------------


def test_rel_cs_series_coefficients_match_bookkeeping():
    dc = make_dc(mu=0.5)
    lab = CSLabel(0.6 + 0.3j, -0.2 + 0.5j)
    state = rel_cs(1, lab, dc, 1, grid=GRID)
    for (l, m) in [(1, 0), (2, 1), (3, 0)]:
        q = resolve_rel_qnums(1, l, m, 1, dc)
        c, e = state.states[(l, m)]
        manual = (cmath.exp(q.n1 * cmath.log(lab.z1))
                  * cmath.exp(q.n2 * cmath.log(lab.z2))
                  * math.exp(-0.5 * (sp.gammaln(1 + q.n1) + sp.gammaln(1 + q.n2))))
        assert c == pytest.approx(manual, rel=1e-13)
        assert e == pytest.approx(e_energy(q, dc), rel=1e-14)


def test_rel_cs_cross_branch_orthogonal():
    # branches occupy disjoint angular sectors, so the assembled states
    # share no angular component
    dc = make_dc(mu=0.5, vartheta=1)
    lab = CSLabel(0.5, 0.3j)
    a = rel_cs(1, lab, dc, 1, grid=GRID)
    dcm = make_dc(mu=0.5, vartheta=-1)
    b = rel_cs(0, lab, dcm, 1, grid=GRID)
    common = set(a.spinors) & set(b.spinors)
    total = sum(d_inner(a.spinors[lu], b.spinors[lu], dc) for lu in common)
    assert abs(total) < 1e-9


def test_rel_cs_requires_mass():
    dc = make_dc(mu=0.5, mass=0.0)
    with pytest.raises(DomainError):
        rel_cs(1, CSLabel(0.5, 0.5), dc, 1, grid=GRID)


# a label with a zero component keeps one column, m = 0, in every row: at
# charge -1 on branch 0 the other slot reads the bottom of the ladder
ONE_COLUMN = (CSLabel(0, 0.8j), CSLabel(0.7 - 0.2j, 0))


GENERAL = CSLabel(0.6 + 0.3j, -0.2 + 0.5j)


@pytest.mark.parametrize("j,vt,mu,label", [
    *(pytest.param(j, vt, 0.5, GENERAL, id=f"{j}-{vt}")
      for j, vt in [(1, 1), (0, -1), (0, 1), (1, -1)]),
    *(pytest.param(j, vt, 0.5, ONE_COLUMN[j], id=f"{j}-{vt}-one-column")
      for j, vt in [(1, 1), (0, -1), (0, 1), (1, -1)]),
    # integer orders, each the seed order of one row and the other-slot
    # order of its neighbour; (1, -1) leaves the Laguerre domain at mu = 0
    *(pytest.param(j, vt, 0.0, GENERAL, id=f"{j}-{vt}-mu0")
      for j, vt in [(1, 1), (0, -1), (0, 1)]),
    # the irregular order mu - 1 = -0.85 in the l = 0 row of (1, -1)
    *(pytest.param(j, -1, 0.15, GENERAL, id=f"{j}--1-mu0.15") for j in (0, 1)),
])
@pytest.mark.parametrize("charge", [1, -1])
def test_rel_cs_assembles_the_eigenspinor_series(j, vt, mu, label, charge):
    # each angular sector is sum c sqrt(2M(E+M)) psihat / sqrt(Mcal) over
    # the one-state spinors: the state's table, contracted once, against
    # single columns read from their own tables; (0, +1) and (1, -1) start
    # at the l = 0 channel
    dc = make_dc(mu=mu, vartheta=vt)
    state = rel_cs(j, label, dc, charge, grid=GRID)
    if label is ONE_COLUMN[j]:
        assert {m for _, m in state.states} == {0}
    sums = {}
    for (l, m), (c, e) in state.states.items():
        # one column at the coefficient rel_cs gives it, whose share the
        # guard weighs; at coefficient 1, far rows the state weights at
        # ~1e-20 would miss ~1e-9 of their norm
        coef = c * math.sqrt(2.0 * dc.mass * (e + dc.mass) / state.norm_const)
        [term], _ = _eigenspinors(j, l, m, charge, coef, dc, GRID)
        sums[term.l_up] = sums[term.l_up] + term if term.l_up in sums else term
    assert sums.keys() == state.spinors.keys()
    for lu, want in sums.items():
        diff = state.spinors[lu] - want
        scale = max(np.max(np.abs(want.up)), np.max(np.abs(want.dn)))
        assert np.max(np.abs(diff.up)) <= 1e-13 * scale
        assert np.max(np.abs(diff.dn)) <= 1e-13 * scale


@pytest.mark.parametrize("j,l,vt", [(1, 2, 1), (0, 0, 1), (1, 0, -1), (0, -2, -1)])
@pytest.mark.parametrize("charge", [1, -1])
def test_dirac_spinor_slots_are_real_and_imaginary(j, l, vt, charge):
    # the upper slot carries the real, positive reference; for charge +1 it
    # is the seed, which stays real, and the lower slot is imaginary
    dc = make_dc(mu=0.4, vartheta=vt)
    psi, _ = dirac_spinor(resolve_rel_qnums(j, l, 1, charge, dc), dc, charge, GRID)
    assert psi.up[0].real > 0
    assert np.all(np.abs(psi.up.imag) <= 1e-15 * np.abs(psi.up))
    assert np.all(np.abs(psi.dn.real) <= 1e-15 * np.abs(psi.dn))


@pytest.mark.parametrize("j,vt", [(1, 1), (0, -1), (0, 1), (1, -1)])
@pytest.mark.parametrize("charge", [1, -1])
def test_one_laguerre_table_per_state(monkeypatch, j, vt, charge):
    # a coherent state reads every l block, and a spinor both its slots,
    # from one table over a column of orders; the other slot of row l has
    # the order of the seed slot of row l + charge, so L rows need L + 1
    import msf.dirac as dirac

    columns = []
    table = dirac.laguerre_fn_table

    def counting(alpha, m_max, rho):
        columns.append(np.shape(alpha))
        return table(alpha, m_max, rho)

    monkeypatch.setattr(dirac, "laguerre_fn_table", counting)
    dc = make_dc(mu=0.5, vartheta=vt)
    state = rel_cs(j, CSLabel(0.6 + 0.3j, -0.2 + 0.5j), dc, charge, grid=GRID)
    assert columns == [(len(state.spinors) + 1, 1)]
    l = next(iter(state.states))[0]
    for m in (0, 2):
        columns.clear()
        dirac_spinor(resolve_rel_qnums(j, l, m, charge, dc), dc, charge, GRID)
        assert columns == [(2, 1)]
    columns.clear()
    embed_3p1(j, l, 1, charge, 1, 0.7, dc, GRID)
    assert columns == [(2, 1)]


REL_CASES = [(j, vt, charge) for (j, vt) in ((1, 1), (0, -1)) for charge in (1, -1)]


@pytest.mark.parametrize("j,vt,charge", REL_CASES)
def test_rel_cs_past_the_old_fixed_grid(j, vt, charge):
    # |z1| = |z2| = 2 puts about 1e-5 of Mcal past 14 l blocks x 15 m
    dc = make_dc(mu=0.5, vartheta=vt)
    lab_a = CSLabel(cmath.rect(2.0, 0.3), cmath.rect(2.0, -1.1))
    lab_b = CSLabel(cmath.rect(2.0, -0.7), cmath.rect(2.0, 2.0))
    a = rel_cs(j, lab_a, dc, charge, grid=GRID)
    b = rel_cs(j, lab_b, dc, charge, grid=GRID)
    assert rel_cs_inner(a, a, dc).real == pytest.approx(1.0, abs=1e-7)
    closed = rel_cs_overlap_closed(j, lab_a, lab_b, dc, charge)
    assert abs(rel_cs_inner(a, b, dc) - closed) < 1e-7


@pytest.mark.parametrize("j,vt,charge", REL_CASES)
def test_rel_cs_overlap_closed_is_the_inner_product_of_the_built_states(j, vt, charge):
    # the closed overlap contracts the two kept series rel_cs builds, so
    # it matches their grid inner product to rounding; contracting the
    # larger planar table instead left up to 2e-13 at unequal labels
    dc = make_dc(mu=0.5, vartheta=vt)
    for r_a, r_b in itertools.product((0.01, 0.5, 1.0), (1.5, 2.0)):
        lab_a = CSLabel(cmath.rect(r_a, 0.3), cmath.rect(r_a, -1.1))
        lab_b = CSLabel(cmath.rect(r_b, -0.7), cmath.rect(r_b, 2.0))
        a = rel_cs(j, lab_a, dc, charge, grid=GRID)
        b = rel_cs(j, lab_b, dc, charge, grid=GRID)
        closed = rel_cs_overlap_closed(j, lab_a, lab_b, dc, charge)
        assert abs(rel_cs_inner(a, b, dc) - closed) < 1e-14


@pytest.mark.parametrize("vt", [1, -1])
@pytest.mark.parametrize("j", [0, 1])
@pytest.mark.parametrize("charge", [1, -1])
def test_rel_cs_norm_const_matches_brute_force_sum(j, vt, charge):
    # Mcal = sum |c|^2 2M(E + M) over an 80 x 80 (l, m) grid of the Dirac
    # quantum numbers, irregular l = 0 rows included (mu = 0.15)
    mu, mass = 0.15, 1.3
    dc = make_dc(mu=mu, vartheta=vt, mass=mass)
    lab = CSLabel(cmath.rect(1.5, 0.4), cmath.rect(1.2, -2.0))
    first = (1 + vt) // 2 if j == 1 else -(1 - vt) // 2
    l = first + (np.arange(80) if j == 1 else -np.arange(80))
    l_s = (l - (1 + charge) // 2)[:, None]
    m = np.arange(80.0)[None, :]
    n1, n2 = np.broadcast_arrays(*((m + l_s + mu, m) if j == 1 else (m, m - l_s - mu)))
    ln_c2 = (2 * n1 * math.log(abs(lab.z1)) + 2 * n2 * math.log(abs(lab.z2))
             - sp.gammaln(1 + n1) - sp.gammaln(1 + n2))
    energy = np.sqrt(mass ** 2 + 2.0 * (n1 + (1 + charge) / 2))
    brute = np.sum(np.exp(ln_c2) * 2 * mass * (energy + mass))
    state = rel_cs(j, lab, dc, charge, grid=GRID)
    assert state.norm_const == pytest.approx(brute, rel=1e-12)


def test_rel_cs_rejects_labels_past_its_radial_grid():
    # at |z1| = |z2| = 3 a rho_max = 60 grid misses about 1e-3 of Mcal;
    # the scalar overlap needs no grid and stays a valid overlap
    dc = make_dc(mu=0.5)
    grid = make_radial_grid(rho_max=60.0)
    big = CSLabel(cmath.rect(3.0, 0.3), cmath.rect(3.0, -1.1))
    other = CSLabel(cmath.rect(3.0, -0.7), cmath.rect(2.5, 2.0))
    with pytest.raises(TruncationError):
        rel_cs(1, big, dc, 1, grid=grid)
    ov = rel_cs_overlap_closed(1, big, other, dc, 1)
    assert np.isfinite(ov) and abs(ov) <= 1.0 + 1e-12
    assert rel_cs_overlap_closed(1, big, big, dc, 1) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("mu", [0.5, 0.15])
def test_rel_cs_refuses_before_building_the_table(monkeypatch, mu):
    # the grid share is checked on the table's norms, so a label the grid
    # cannot hold is refused before any spinor block is formed
    import msf.dirac as dirac

    calls = []
    seed_block = dirac._seed_block

    def spying(seed, other, sigma, l, grid):
        calls.append(l)
        return seed_block(seed, other, sigma, l, grid)

    monkeypatch.setattr(dirac, "_seed_block", spying)
    grid = make_radial_grid(rho_max=60.0)
    big = CSLabel(cmath.rect(3.0, 0.3), cmath.rect(3.0, -1.1))
    for vt in (1, -1):
        dc = make_dc(mu=mu, vartheta=vt)
        for j in (0, 1):
            for charge in (1, -1):
                with pytest.raises(TruncationError) as err:
                    rel_cs(j, big, dc, charge, grid=grid)
                assert err.value.tail_bound > 1e-9
    assert calls == []
    # the spy sits on the route: a label the grid holds forms one block per l
    state = rel_cs(1, CSLabel(0.5, 0.3j), make_dc(mu=mu), 1, grid=grid)
    assert len(calls) == len(state.spinors)


@pytest.mark.parametrize("j,vt", [(1, 1), (0, -1)])
@pytest.mark.parametrize("charge", [1, -1])
def test_rel_cs_tail_bound_is_the_total_share(j, vt, charge):
    # the guard refuses on the share the whole state misses, sum over its
    # columns of share |1 - seed^2|, recomputed here from the states a long
    # grid holds and the grid norms of the seed profiles on the short one
    dc = make_dc(mu=0.5, vartheta=vt)
    big = CSLabel(cmath.rect(3.0, 0.3), cmath.rect(3.0, -1.1))
    short = make_radial_grid(rho_max=60.0)
    state = rel_cs(j, big, dc, charge, grid=make_radial_grid(rho_max=120.0))
    total = 0.0
    for (l, m), (c, e) in state.states.items():
        share = abs(c) ** 2 * 2.0 * dc.mass * (e + dc.mass) / state.norm_const
        seed = basis_spinor_component(resolve_rel_qnums(j, l, m, charge, dc), dc, short)
        total += share * abs(1.0 - d_norm(seed, dc) ** 2)
    with pytest.raises(TruncationError) as err:
        rel_cs(j, big, dc, charge, grid=short)
    assert err.value.tail_bound == pytest.approx(total, rel=1e-10)


@pytest.mark.parametrize("build,error", [
    # mu = 0, vartheta = -1: the l = 0 row of branch 1 has a slot of order -1
    pytest.param(lambda: rel_cs(1, GENERAL, make_dc(mu=0.0, vartheta=-1), 1, grid=GRID),
                 DomainError, id="rel-cs-order-minus-one"),
    pytest.param(lambda: dirac_spinor(resolve_rel_qnums(0, 0, 0, -1, make_dc(mass=0.0)),
                                      make_dc(mass=0.0), -1, GRID),
                 SpectralBoundaryError, id="spinor-massless-zero-mode"),
    # M = p3 = 0: the first row builds, the second (charge -1) is the zero mode
    pytest.param(lambda: embed_3p1(0, 0, 0, 1, 1, 0.0, make_dc(mass=0.0), GRID),
                 SpectralBoundaryError, id="embed-massless-zero-mode"),
])
def test_refused_columns_raise_before_the_table(monkeypatch, build, error):
    import msf.dirac as dirac

    def refuse(*args):
        raise AssertionError("Laguerre table built for a refused state")

    monkeypatch.setattr(dirac, "laguerre_fn_table", refuse)
    with pytest.raises(error) as info:
        build()
    assert "zero mode" in str(info.value) or "Laguerre domain" in str(info.value)


def test_rel_cs_outside_the_laguerre_domain_raises():
    # at mu = 0 the l = 0 row of branch 1 at vartheta = -1 has a slot of
    # order -1 at either charge
    dc = make_dc(mu=0.0, vartheta=-1)
    for charge in (1, -1):
        with pytest.raises(DomainError, match="outside the Laguerre domain"):
            rel_cs(1, GENERAL, dc, charge, grid=GRID)


# ---------------------------------------------------------------------------
# 3+1 embedding
# ---------------------------------------------------------------------------


def test_embed_unit_norm_all_p3():
    # the block is unit-norm by its coefficients f / |f|, with no second
    # pass; also in the l = 0 row of the irregular order -0.15 and off M = 1
    for dc, l in ((make_dc(mu=0.4), 1), (make_dc(mu=0.85, vartheta=-1), 0),
                  (make_dc(mu=0.4, mass=0.5), 1)):
        for p3, s, charge in itertools.product((0.0, 0.7, -1.3), (1, -1), (1, -1)):
            psi, _ = embed_3p1(1, l, 0, charge, s, p3, dc, GRID)
            assert d_inner(psi, psi, dc).sum().real == pytest.approx(1.0, abs=1e-12)


def test_embed_energy_eigenstate_all_p3():
    dc = make_dc(mu=0.4)
    for p3 in (0.0, 0.7, -1.3):
        for s in (1, -1):
            psi, et = embed_3p1(1, 1, 0, 1, s, p3, dc, GRID)
            diff = h3p1_apply(psi, p3, dc) - et * psi
            assert math.sqrt(abs(d_inner(diff, diff, dc).sum().real)) / et < 1e-9


def test_embed_spin_eigenvalue_at_zero_longitudinal_momentum():
    dc = make_dc(mu=0.4)
    for s in (1, -1):
        psi, _ = embed_3p1(1, 1, 0, 1, s, 0.0, dc, GRID)
        diff = sz_apply(psi, 0.0, dc) - s * psi
        assert math.sqrt(abs(d_inner(diff, diff, dc).sum().real)) < 1e-5


def test_embed_nonrelativistic_suppression():
    dc = make_dc(mu=0.4)
    ratios = []
    for mass in (10.0, 100.0, 1000.0):
        dcm = replace(dc, mass=mass)
        psi, _ = embed_3p1(1, 1, 0, 1, 1, 0.0, dcm, GRID)
        norms = d_inner(psi, psi, dcm).real  # upper, lower column
        big = math.sqrt(abs(norms[0]))
        rest = 0.5 * (psi - psi.sigma3())  # (1 - sigma3)/2: the lower slot of each column
        small = math.sqrt(abs(d_inner(rest, rest, dcm)[0].real + norms[1]))
        ratios.append(small / big)
    # O(1/M): tenfold mass suppresses the small components tenfold
    assert ratios[1] == pytest.approx(ratios[0] / 10.0, rel=0.05)
    assert ratios[2] == pytest.approx(ratios[1] / 10.0, rel=0.05)


def test_embed_massless_regular():
    dc = make_dc(mu=0.4, mass=0.0)
    psi, _ = embed_3p1(1, 1, 0, 1, 1, 0.8, dc, GRID)
    assert d_inner(psi, psi, dc).sum().real == pytest.approx(1.0, abs=1e-12)
    # at M = p3 = 0 both block factors p3 + s Mt -+ M vanish
    with pytest.raises(SpectralBoundaryError):
        embed_3p1(1, 1, 0, 1, 1, 0.0, dc, GRID)


@pytest.mark.parametrize("s, p3", [(1, 0.7), (-1, -0.7), (1, -0.7), (-1, 0.7)])
def test_embed_massless_spin_against_p3(s, p3):
    # at M = 0, Mt = |p3|: both block factors p3 + s Mt -+ M are 2 p3 when
    # s = sign(p3) and vanish when s = -sign(p3)
    dc = make_dc(mu=0.4, mass=0.0)
    if s * p3 < 0:
        with pytest.raises(SpectralBoundaryError):
            embed_3p1(1, 1, 0, 1, s, p3, dc, GRID)
        return
    psi, et = embed_3p1(1, 1, 0, 1, s, p3, dc, GRID)
    assert d_inner(psi, psi, dc).sum().real == pytest.approx(1.0, abs=1e-12)
    diff = h3p1_apply(psi, p3, dc) - et * psi
    assert math.sqrt(abs(d_inner(diff, diff, dc).sum().real)) / et < 1e-9


def column(block: Spinor2, k: int) -> Spinor2:
    return replace(block, up=block.up[:, k], dn=block.dn[:, k])


def assert_rel_close(got: Spinor2, want: Spinor2, rel: float):
    scale = max(np.max(np.abs(want.up)), np.max(np.abs(want.dn)))
    assert got.l_up == want.l_up
    assert np.max(np.abs(got.up - want.up)) <= rel * scale
    assert np.max(np.abs(got.dn - want.dn)) <= rel * scale


@pytest.mark.parametrize("vt", [1, -1])
@pytest.mark.parametrize("charge", [1, -1])
@pytest.mark.parametrize("s", [1, -1])
def test_embed_columns_are_the_planar_spinors(vt, charge, s):
    # column 0 is f_up psi_charge(Mt) / n, column 1 f_dn sigma3 psi_-charge(Mt) / n,
    # n the joint norm; E is the energy of psi_charge(Mt)
    dc = make_dc(mu=0.4, vartheta=vt)
    l = next(_branch_l_values(1, vt))
    for p3 in (0.0, 0.7, -1.3):
        mt = math.sqrt(dc.mass ** 2 + p3 * p3)
        dct = replace(dc, mass=mt)
        up, e = dirac_spinor(resolve_rel_qnums(1, l, 0, charge, dct), dct, charge, GRID)
        dn, _ = dirac_spinor(resolve_rel_qnums(1, l, 0, -charge, dct), dct, -charge, GRID)
        f_up, f_dn = p3 + s * mt + dc.mass, p3 + s * mt - dc.mass
        n = math.sqrt(f_up ** 2 * d_inner(up, up, dc).real + f_dn ** 2 * d_inner(dn, dn, dc).real)
        psi, et = embed_3p1(1, l, 0, charge, s, p3, dc, GRID)
        assert psi.up.shape == (GRID.nodes.size, 2)
        assert et == e
        assert_rel_close(column(psi, 0), f_up * up / n, 1e-15)
        assert_rel_close(column(psi, 1), f_dn * dn.sigma3() / n, 1e-15)


@pytest.mark.parametrize("vt", [1, -1])
@pytest.mark.parametrize("charge", [1, -1])
@pytest.mark.parametrize("s", [1, -1])
def test_h3p1_columns_are_the_planar_hamiltonians(vt, charge, s):
    # column 0: sigma.P + Mt sigma3; column 1: sigma.P - Mt sigma3.  The
    # block's radial derivative is one BLAS product whose summation order
    # differs from a single column's; the narrow panels at the origin
    # amplify that rounding to a few 1e-15 of the spinor norm (6.5e-15 at
    # vartheta = -1), as in the embed-energy-eigen residual itself
    dc = make_dc(mu=0.4, vartheta=vt)
    l = next(_branch_l_values(1, vt))
    for p3 in (0.0, 0.7, -1.3):
        dct = replace(dc, mass=math.sqrt(dc.mass ** 2 + p3 * p3))
        psi, _ = embed_3p1(1, l, 0, charge, s, p3, dc, GRID)
        got = h3p1_apply(psi, p3, dc)
        upper, lower = column(psi, 0), column(psi, 1)
        for k, want in ((0, hamiltonian_apply(upper, dct)),
                        (1, apply_sigma_p(lower, dct) - dct.mass * lower.sigma3())):
            diff = column(got, k) - want
            assert (d_norm(diff, dc, origin_tail=False)
                    <= 2e-14 * d_norm(want, dc, origin_tail=False)), (p3, k)


def test_3p1_operators_need_a_two_column_block():
    dc = make_dc(mu=0.4)
    one, _ = dirac_spinor(resolve_rel_qnums(1, 1, 0, 1, dc), dc, 1, GRID)
    three, _ = eigenspinors(1, 1, [0, 1, 2], dc, 1)
    for bad in (one, three):
        for apply in (h3p1_apply, sz_apply):
            with pytest.raises(DomainError):
                apply(bad, 0.7, dc)


# ---------------------------------------------------------------------------
# proper-time kernel
# ---------------------------------------------------------------------------


def test_kernel_projector_structure():
    dc = make_dc(mu=0.3, mass=0.8)
    k = green_kernel_rel(1, 2, dc, -0.3j, 0.4, 0.0, 1.0, 2.0)
    assert k[0, 1] == 0 and k[1, 0] == 0 and k[1, 1] == 0
    k = green_kernel_rel(-1, 2, dc, -0.3j, 0.4, 0.0, 1.0, 2.0)
    assert k[0, 0] == 0 and abs(k[1, 1]) > 0


def kernel_order(sig, l, mu, vt):
    """Bessel order of the kernel: the Laguerre order of the Dirac row."""
    return _row(sig, l, make_dc(mu=mu, vartheta=vt))[2]


def test_kernel_bessel_index_conventions():
    # l != 0: order |l_sigma + mu| independent of vartheta
    assert kernel_order(1, 2, 0.3, 1) == pytest.approx(1.3)
    assert kernel_order(1, 2, 0.3, -1) == pytest.approx(1.3)
    assert kernel_order(-1, -2, 0.3, 1) == pytest.approx(1.7)
    # l = 0 channel: vartheta selects the (ir)regular order
    assert kernel_order(1, 0, 0.3, 1) == pytest.approx(0.7)
    assert kernel_order(-1, 0, 0.3, 1) == pytest.approx(-0.3)
    assert kernel_order(1, 0, 0.3, -1) == pytest.approx(-0.7)
    assert kernel_order(-1, 0, 0.3, -1) == pytest.approx(0.3)


def test_kernel_zero_flux_l0_channel_same_for_both_extensions():
    # at mu = 0 the l = 0 row has integer order +-n on the two extensions,
    # and I_{-n} = I_n: the kernel does not validate the row's Laguerre order
    rho_p = np.linspace(0.1, 4.0, 5)
    for sig, s in itertools.product((1, -1), (-0.35j, 0.3 - 0.2j)):
        k = [green_kernel_rel(sig, 0, make_dc(mu=0.0, vartheta=vt), s, 0.4, 0.2, 1.5, rho_p)
             for vt in (1, -1)]
        assert np.abs(k[0]).max() > 0
        np.testing.assert_array_equal(k[0], k[1])


def test_slot_without_family_refused():
    # mu = 0, vartheta = -1: the upper slot of row l = 0 would need order -1
    dc = make_dc(mu=0.0, vartheta=-1)
    ones = np.ones(GRID.nodes.size)
    s = Spinor2(grid=GRID, l_up=-1, up=ones, dn=ones)
    with pytest.raises(DomainError):
        d_inner(s, s, dc)
    with pytest.raises(DomainError):
        apply_sigma_p(s, dc)


@pytest.mark.parametrize("sig,l,vt", [(1, 2, 1), (-1, -1, 1), (1, 0, -1), (-1, 0, 1)])
def test_kernel_matches_mode_sum(sig, l, vt):
    mu = 0.3
    dc = make_dc(mu=mu, mass=0.8, vartheta=vt)
    g = dc.field.gamma
    tau, rho, rho_p = 0.35, 1.0, 2.0
    _, l_s, nu = _row(sig, l, dc)
    k = green_kernel_rel(sig, l, dc, -1j * tau, 0.0, 0.0, rho, rho_p)
    diag = k[0, 0] if sig == 1 else k[1, 1]
    tab = laguerre_fn_table(nu, 70, np.array([rho, rho_p]))
    xsum = 2.0 * sum(math.exp(-(2 * m + nu + 1) * g * tau) * tab[m, 0] * tab[m, 1]
                     for m in range(71))
    pred = -(g * math.exp(-dc.mass ** 2 * tau)
             * math.exp(-(l_s + sig + mu) * g * tau)
             / (8.0 * math.pi ** 1.5 * math.sqrt(tau))) * xsum
    assert diag.real == pytest.approx(pred, rel=1e-10)
    assert abs(diag.imag) < 1e-14 * abs(pred)


def test_kernel_delta_limit_smearing_monotone():
    mu = 0.3
    dc = make_dc(mu=mu, mass=0.8)
    g = dc.field.gamma
    grid = make_radial_grid(rho_max=24.0, tail_step=0.5)
    rho0, width = 1.5, 0.35
    gvals = np.exp(-((grid.nodes - rho0) ** 2) / (2.0 * width ** 2))
    errs = []
    for tau in np.geomspace(0.2, 0.02, 6):
        kvals = np.array([green_kernel_rel(1, 2, dc, -1j * float(tau), 0.0, 0.0,
                                           rho0, x)[0, 0] for x in grid.nodes])
        smeared = grid.integrate(kvals * gvals)
        pref = -(g * math.exp(-dc.mass ** 2 * tau) * math.exp(-(1 + 1 + mu) * g * tau)
                 / (8.0 * math.pi ** 1.5 * math.sqrt(tau))) * 2.0
        errs.append(abs(smeared - pref) / abs(pref))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.6 * errs[0]


@pytest.mark.parametrize("s", [-0.35j, 0.3 - 0.2j, 0.7])
@pytest.mark.parametrize("sig,l,vt", [(1, 0, 1), (-1, 0, 1), (1, 0, -1), (-1, 0, -1), (1, 2, 1)])
def test_kernel_array_equals_pointwise(sig, l, vt, s):
    dc = make_dc(mu=0.3, mass=0.8, vartheta=vt)
    rho_p = np.linspace(0.05, 6.0, 9)
    k = green_kernel_rel(sig, l, dc, s, 0.4, 0.2, 1.5, rho_p)
    assert k.shape == (9, 2, 2)
    for x, kx in zip(rho_p, k):
        one = green_kernel_rel(sig, l, dc, s, 0.4, 0.2, 1.5, float(x))
        assert one.shape == (2, 2)
        np.testing.assert_allclose(kx, one, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("mu", [0.3, 0.85])
@pytest.mark.parametrize("sig,l", [(1, 2), (-1, -1), (1, -3)])
def test_kernel_continuous_past_the_caustics(sig, l, mu):
    # s in [0.5, 10] - 0.2i crosses the cut of I_nu at Re(gamma s) = pi and
    # 3 pi; on 2,000 samples the largest step between neighbours is at most
    # 2.1e-4 with the continuation rule and 1.8e-3 to 1e-2 on the principal
    # branch alone
    dc = make_dc(mu=mu)
    slot = (1 - sig) // 2
    k = np.array([green_kernel_rel(sig, l, dc, s, 0.4, 0.0, 1.0, 2.0)[slot, slot]
                  for s in np.linspace(0.5, 10.0, 2000) - 0.2j])
    assert np.max(np.abs(np.diff(k))) <= 5e-4


def test_kernel_singularity_rejected():
    dc = make_dc(mu=0.3)
    with pytest.raises(DomainError):
        green_kernel_rel(1, 2, dc, math.pi / dc.field.gamma, 0.0, 0.0, 1.0, 2.0)


@pytest.mark.parametrize("rho,rho_p", [
    (-1.0, 2.0), (1.0, -1.5), (-1.0, -1.5),
    (1.5, np.array([0.5, -0.1])), (np.array([-1.0, -2.0]), -1.5),
])
@pytest.mark.parametrize("s", [-0.4j, 0.3 - 0.2j])
@pytest.mark.parametrize("kernel", ["green_kernel_rel", "propagator_closed"])
def test_kernels_reject_negative_radius(kernel, s, rho, rho_p):
    # both kernels share the radial factors, which own the radius check;
    # two negative radii make rho rho' > 0, so the factors alone stay finite
    mu = 0.37
    p = KernelParams(l=2, delta_t=s, cfg=FieldConfig(mu=mu))
    with pytest.raises(DomainError, match="non-negative"):
        if kernel == "green_kernel_rel":
            green_kernel_rel(1, 2, make_dc(mu=mu, vartheta=1), s, 0.0, 0.0, rho, rho_p)
        else:
            propagator_closed(p, 0.0, rho, rho_p)


_NON_FINITE = {
    "laguerre_fn_table nan rho": lambda: laguerre_fn_table(0.3, 2, [1.0, math.nan]),
    "laguerre_fn_table inf rho": lambda: laguerre_fn_table(0.3, 2, [1.0, math.inf]),
    "laguerre_fn inf rho": lambda: laguerre_fn(1.3, 1, math.inf),
    "stationary_state inf theta": lambda: stationary_state(
        resolve_qnums(1, 2, 1, FieldConfig(mu=0.3)), math.inf, 1.0, FieldConfig(mu=0.3)),
    "stationary_state nan rho": lambda: stationary_state(
        resolve_qnums(1, 2, 1, FieldConfig(mu=0.3)), 0.2, math.nan, FieldConfig(mu=0.3)),
    "cs_state inf theta": lambda: cs_state(
        1, CSLabel(0.5, 0.2), math.inf, [1.0], FieldConfig(mu=0.3)),
    "cs_state nan theta": lambda: cs_state(
        0, CSLabel(0.5, 0.2), np.array([0.1, math.nan]), 1.0, FieldConfig(mu=0.3)),
    "cs_state inf rho": lambda: cs_state(
        1, CSLabel(0.5, 0.2), 0.4, [1.0, math.inf], FieldConfig(mu=0.3)),
    "rel_basis_fn inf theta": lambda: rel_basis_fn(
        resolve_rel_qnums(1, 1, 0, 1, make_dc()), make_dc(), math.inf, 1.0),
    "propagator_closed inf rho": lambda: propagator_closed(
        KernelParams(l=2, delta_t=-0.05j, cfg=FieldConfig(mu=0.3)), 0.0, math.inf, 1.0),
    "propagator_closed inf rho_p at rho 0": lambda: propagator_closed(
        KernelParams(l=2, delta_t=-0.05j, cfg=FieldConfig(mu=0.3)), 0.0, 0.0,
        np.array([1.0, math.inf])),
    "propagator_closed nan dtheta": lambda: propagator_closed(
        KernelParams(l=2, delta_t=-0.05j, cfg=FieldConfig(mu=0.3)), math.nan, 1.0, 2.0),
    "green_kernel_rel inf dtheta": lambda: green_kernel_rel(
        1, 2, make_dc(mu=0.3), -0.3j, math.inf, 0.0, 1.0, 2.0),
    "green_kernel_rel nan dt": lambda: green_kernel_rel(
        1, 2, make_dc(mu=0.3), -0.3j, 0.4, math.nan, 1.0, 2.0),
    "green_kernel_rel inf dt": lambda: green_kernel_rel(
        1, 2, make_dc(mu=0.3), 0.3 - 0.2j, 0.4, math.inf, 1.0, 2.0),
    "green_kernel_rel inf rho": lambda: green_kernel_rel(
        -1, 2, make_dc(mu=0.3), -0.3j, 0.4, 0.0, math.inf, 2.0),
}


@pytest.mark.parametrize("case", sorted(_NON_FINITE))
def test_non_finite_state_and_kernel_inputs_raise(case):
    # each gave nan, nan+nanj or a RuntimeWarning before its check
    with pytest.raises(DomainError, match="finite"):
        _NON_FINITE[case]()


_EMPTY_RHO = {
    "laguerre_fn_table": lambda rho: laguerre_fn_table(0.5, 3, rho),
    "laguerre_fn": lambda rho: laguerre_fn(1.5, 1, rho),
    "stationary_state": lambda rho: stationary_state(
        resolve_qnums(1, 2, 1, FieldConfig(mu=0.3)), 0.2, rho, FieldConfig(mu=0.3)),
    "cs_state": lambda rho: cs_state(1, CSLabel(0.5, 0.2), 0.4, rho, FieldConfig(mu=0.3)),
    "rel_basis_fn": lambda rho: rel_basis_fn(
        resolve_rel_qnums(1, 1, 0, 1, make_dc()), make_dc(), 0.2, rho),
}


@pytest.mark.parametrize("case", sorted(_EMPTY_RHO))
def test_empty_radius_array_raises(case):
    # numpy's bare ValueError from rho.min() once escaped here
    with pytest.raises(DomainError, match="non-empty"):
        _EMPTY_RHO[case](np.array([]))


@pytest.mark.parametrize("s", [-0.3j, 0.3 - 0.2j])
def test_kernel_irregular_origin_raises(s):
    # sigma = +1, vartheta = -1, l = 0 has order -(1 - mu): I_nu(0) is
    # infinite, on the Wick axis as off it (the Wick axis once gave nan)
    dc = make_dc(mu=0.3, vartheta=-1)
    with pytest.raises(DomainError, match="infinite"):
        green_kernel_rel(1, 0, dc, s, 0.0, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("s", [-5e-10j, 5e-10])
def test_kernel_tiny_proper_time_raises(s):
    # |z| = 1 / sinh(gamma tau) = 2e9 is past scipy's Bessel range; the
    # Wick axis once gave a silent nan+nanj
    with pytest.raises(DomainError, match="outside the range"):
        green_kernel_rel(1, 2, make_dc(mu=0.999), s, 0.0, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("sigma,l,vartheta", [(1, 2, 1), (-1, -1, 1), (1, 0, -1)])
def test_kernel_long_proper_time_finite(sigma, l, vartheta, recwarn):
    # sinh(gamma tau) overflowed to a silent nan+nanj at tau = 800, and the
    # irregular channel raised where 1 / sinh underflowed; the kernel is
    # below the double range there
    dc = make_dc(mu=0.999, vartheta=vartheta)
    k = green_kernel_rel(sigma, l, dc, -800j, 0.0, 0.0, 1.0, 2.0)
    assert np.all(k == 0.0) and not recwarn.list


@pytest.mark.parametrize("tau", [0.05, 0.7, 3.0])
@pytest.mark.parametrize("kernel", ["green_kernel_rel", "propagator_closed"])
def test_kernels_continuous_across_wick_axis(kernel, tau):
    # the real (Wick) case of the shared Hille-Hardy factor joins its
    # complex neighbours
    mu, rho_p = 0.3, np.linspace(0.0, 5.0, 11)

    def at(t):
        if kernel == "green_kernel_rel":
            return green_kernel_rel(1, 2, make_dc(mu=mu, mass=0.8), t, 0.4, 0.2, 1.3, rho_p)
        p = KernelParams(l=2, delta_t=t, cfg=FieldConfig(mu=mu))
        return propagator_closed(p, 0.4, 1.3, rho_p)

    on, off = at(-1j * tau), at(1e-12 - 1j * tau)
    assert np.abs(on).max() > 0
    assert np.abs(on - off).max() <= 1e-10 * np.abs(on).max()
