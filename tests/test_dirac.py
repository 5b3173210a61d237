"""Planar Dirac sector, relativistic coherent states, 3+1 embedding,
and the proper-time kernel."""

import cmath
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import special as sp

from msf.landau import FieldConfig
from msf.radial import make_radial_grid
from msf.specfun import DomainError, TruncationError, laguerre_fn_table
from msf.cs import CSLabel
from msf.dirac import (
    DiracConfig,
    SpectralBoundaryError,
    Spinor2,
    Spinor4,
    apply_pi0,
    apply_sigma_p,
    basis_spinor_component,
    d_inner,
    d_inner4,
    d_norm,
    dirac_spinor,
    e_energy,
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
    xi_flip,
)
from msf.dirac import _rel_bessel_index


GRID = make_radial_grid(rho_max=70.0)


def make_dc(mu=0.4, vartheta=1, mass=1.0, gamma=1.0):
    return DiracConfig(field=FieldConfig(gamma=gamma, l0=0, mu=mu), mass=mass,
                       vartheta=vartheta)


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


@pytest.mark.parametrize("vt", [1, -1])
def test_scalar_components_orthonormal(vt):
    # 20 spin-shifted scalar functions, plane inner product: the angular
    # factor gives exact deltas, the radial integrals are quadratures
    # with the origin-tail correction
    dc = make_dc(mu=0.4, vartheta=vt)
    base1 = 1 if vt == 1 else 0
    base0 = 0 if vt == 1 else -1
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
    base1 = 1 if vt == 1 else 0
    base0 = 0 if vt == 1 else -1
    for (j, l, m, sig) in [(1, base1, 0, 1), (1, base1 + 1, 1, -1),
                           (0, base0, 0, -1), (0, base0 - 1, 2, 1)]:
        q = resolve_rel_qnums(j, l, m, sig, dc)
        u = basis_spinor_component(q, dc, GRID)
        ppu = apply_sigma_p(apply_sigma_p(u, dc), dc)
        t = e_perp_sq(q, dc)
        diff = Spinor2(grid=GRID, l_up=u.l_up, up=ppu.up - t * u.up,
                       dn=ppu.dn - t * u.dn)
        if t != 0.0:
            rel = d_norm(diff, dc, origin_tail=False) / (t * d_norm(u, dc))
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


def test_pi0_spectral_action():
    dc = make_dc(mu=0.4)
    q = resolve_rel_qnums(1, 1, 0, 1, dc)
    u = basis_spinor_component(q, dc, GRID)
    pu = apply_pi0(u, dc)
    e = e_energy(q, dc)
    diff = Spinor2(grid=GRID, l_up=u.l_up, up=pu.up - e * u.up, dn=pu.dn - e * u.dn)
    assert d_norm(diff, dc) / e < 1e-8
    # massless limit
    dc0 = make_dc(mu=0.4, mass=0.0)
    pu0 = apply_pi0(u, dc0)
    e0 = math.sqrt(e_perp_sq(q, dc0))
    diff0 = Spinor2(grid=GRID, l_up=u.l_up, up=pu0.up - e0 * u.up, dn=pu0.dn - e0 * u.dn)
    assert d_norm(diff0, dc0) / e0 < 1e-8


def test_pi0_rejects_out_of_family_profile():
    dc = make_dc(mu=0.4)
    rho = GRID.nodes
    # a profile concentrated away from the family span (wrong origin power)
    vals = np.exp(-((rho - 3.0) ** 2)) * rho ** 0.1
    s = Spinor2(grid=GRID, l_up=1, up=vals.astype(complex), dn=np.zeros_like(vals, dtype=complex))
    with pytest.raises(DomainError):
        apply_pi0(s, dc, m_max=6, resid_tol=1e-10)


# ---------------------------------------------------------------------------
# eigenspinors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("vt", [1, -1])
def test_spinor_orthonormality_20_states(vt):
    dc = make_dc(mu=0.4, vartheta=vt)
    base1 = 1 if vt == 1 else 0
    base0 = 0 if vt == 1 else -1
    combos = [(1, base1 + dl, m) for dl in range(3) for m in range(2)]
    combos += [(0, base0 - dl, m) for dl in range(2) for m in range(2)]
    spinors = []
    for (j, l, m) in combos:
        for charge in (1, -1):
            q = resolve_rel_qnums(j, l, m, charge, dc)
            psi, _ = dirac_spinor(q, dc, charge, GRID)
            spinors.append(psi)
    n = len(spinors)
    assert n == 20
    gram = np.array([[d_inner(spinors[a], spinors[b], dc) for b in range(n)]
                     for a in range(n)])
    assert np.max(np.abs(gram - np.eye(n))) < 1e-8


@pytest.mark.parametrize("vt", [1, -1])
def test_hamiltonian_eigen_residual(vt):
    dc = make_dc(mu=0.4, vartheta=vt)
    base1 = 1 if vt == 1 else 0
    base0 = 0 if vt == 1 else -1
    for (j, l, m) in [(1, base1, 0), (0, base0, 1), (1, base1 + 2, 1)]:
        for charge in (1, -1):
            q = resolve_rel_qnums(j, l, m, charge, dc)
            psi, e = dirac_spinor(q, dc, charge, GRID)
            assert d_norm(psi, dc) == pytest.approx(1.0, abs=1e-12)
            hpsi = hamiltonian_apply(psi, dc)
            diff = Spinor2(grid=GRID, l_up=psi.l_up,
                           up=hpsi.up - charge * e * psi.up,
                           dn=hpsi.dn - charge * e * psi.dn)
            assert d_norm(diff, dc, origin_tail=False) / e < 1e-5


def test_angular_momentum_bookkeeping():
    # component angular indices are (l_sigma, l_sigma + 1) so the total
    # angular momentum l - l0 - 1/2 is carried exactly
    dc = make_dc(mu=0.4)
    q = resolve_rel_qnums(1, 2, 0, 1, dc)
    psi, _ = dirac_spinor(q, dc, 1, GRID)
    assert psi.l_up == q.l_sigma == 1
    assert psi.l_dn == q.l      == 2


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


def test_massless_zero_mode_boundary_case():
    dc = make_dc(mu=0.4, mass=0.0, vartheta=1)
    q = resolve_rel_qnums(0, 0, 0, -1, dc)  # E_perp = 0, M = 0
    with pytest.raises(SpectralBoundaryError):
        dirac_spinor(q, dc, -1, GRID)


def test_xi_flip_is_unitary_involution():
    dc = make_dc(mu=0.4)
    q = resolve_rel_qnums(1, 1, 0, 1, dc)
    psi, _ = dirac_spinor(q, dc, 1, GRID)
    flipped = xi_flip(psi)
    assert d_norm(flipped, dc) == pytest.approx(1.0, abs=1e-12)
    back = xi_flip(flipped)
    assert np.allclose(back.up, psi.up) and np.allclose(back.dn, psi.dn)



@pytest.mark.parametrize("charge", [1, -1])
@pytest.mark.parametrize("l", [40, 60, 80])
def test_spinor_finite_at_high_angular_number(l, charge):
    # the origin-tail fit and the ladder's peeled power law overflowed here
    dc = make_dc(mu=0.5)
    grid = make_radial_grid(rho_max=160.0)
    psi, e = dirac_spinor(resolve_rel_qnums(1, l, 0, charge, dc), dc, charge, grid)
    assert np.all(np.isfinite(psi.up)) and np.all(np.isfinite(psi.dn))
    assert d_norm(psi, dc) == pytest.approx(1.0, abs=1e-12)
    hpsi = hamiltonian_apply(psi, dc)
    diff = Spinor2(grid=grid, l_up=psi.l_up, up=hpsi.up - charge * e * psi.up,
                   dn=hpsi.dn - charge * e * psi.dn)
    assert d_norm(diff, dc, origin_tail=False) / e <= 1e-5

# ---------------------------------------------------------------------------
# relativistic coherent states
# ---------------------------------------------------------------------------


def test_rel_cs_unit_norm_and_dual_overlap():
    lab_a = CSLabel(0.6 + 0.3j, -0.2 + 0.5j)
    lab_b = CSLabel(0.3 - 0.4j, 0.7j)
    for (j, vt) in ((1, 1), (0, -1)):
        dc = make_dc(mu=0.5, vartheta=vt)
        for charge in (1, -1):
            a = rel_cs(j, lab_a, dc, charge, grid=GRID)
            b = rel_cs(j, lab_b, dc, charge, grid=GRID)
            assert rel_cs_inner(a, a, dc).real == pytest.approx(1.0, abs=1e-7)
            quad_ov = rel_cs_inner(a, b, dc)
            closed_ov = rel_cs_overlap_closed(j, lab_a, lab_b, dc, charge)
            assert abs(quad_ov - closed_ov) < 1e-7


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


@pytest.mark.parametrize("j,vt", [(1, 1), (0, -1)])
@pytest.mark.parametrize("charge", [1, -1])
def test_rel_cs_assembles_the_eigenspinor_series(j, vt, charge):
    # each angular sector is sum c sqrt(2M(E+M)) psihat / sqrt(Mcal) over
    # the one-state spinors
    dc = make_dc(mu=0.5, vartheta=vt)
    state = rel_cs(j, CSLabel(0.6 + 0.3j, -0.2 + 0.5j), dc, charge, grid=GRID)
    sums = {}
    for (l, m), (c, e) in state.states.items():
        psi, _ = dirac_spinor(resolve_rel_qnums(j, l, m, charge, dc), dc, charge, GRID)
        wgt = c * math.sqrt(2.0 * dc.mass * (e + dc.mass) / state.norm_const)
        up, dn = sums.get(psi.l_up, (0.0, 0.0))
        sums[psi.l_up] = (up + wgt * psi.up, dn + wgt * psi.dn)
    assert sums.keys() == state.spinors.keys()
    for lu, (up, dn) in sums.items():
        got = state.spinors[lu]
        scale = max(np.max(np.abs(up)), np.max(np.abs(dn)))
        assert np.max(np.abs(got.up - up)) <= 1e-12 * scale
        assert np.max(np.abs(got.dn - dn)) <= 1e-12 * scale


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


# ---------------------------------------------------------------------------
# 3+1 embedding
# ---------------------------------------------------------------------------


def test_embed_unit_norm_all_p3():
    dc = make_dc(mu=0.4)
    for p3 in (0.0, 0.7, -1.3):
        for s in (1, -1):
            psi = embed_3p1(1, 1, 0, 1, s, p3, dc, GRID)
            assert d_inner4(psi, psi, dc).real == pytest.approx(1.0, abs=1e-12)


def test_embed_energy_eigenstate_all_p3():
    dc = make_dc(mu=0.4)
    for p3 in (0.0, 0.7, -1.3):
        mt = math.sqrt(dc.mass ** 2 + p3 * p3)
        dct = replace(dc, mass=mt)
        q = resolve_rel_qnums(1, 1, 0, 1, dct)
        et = e_energy(q, dct)
        for s in (1, -1):
            psi = embed_3p1(1, 1, 0, 1, s, p3, dc, GRID)
            h = h3p1_apply(psi, p3, dc)
            diff = Spinor4(
                upper=Spinor2(grid=GRID, l_up=psi.upper.l_up,
                              up=h.upper.up - et * psi.upper.up,
                              dn=h.upper.dn - et * psi.upper.dn),
                lower=Spinor2(grid=GRID, l_up=psi.lower.l_up,
                              up=h.lower.up - et * psi.lower.up,
                              dn=h.lower.dn - et * psi.lower.dn))
            assert math.sqrt(abs(d_inner4(diff, diff, dc).real)) / et < 1e-9


def test_embed_spin_eigenvalue_at_zero_longitudinal_momentum():
    dc = make_dc(mu=0.4)
    for s in (1, -1):
        psi = embed_3p1(1, 1, 0, 1, s, 0.0, dc, GRID)
        sz = sz_apply(psi, 0.0, dc)
        diff = Spinor4(
            upper=Spinor2(grid=GRID, l_up=psi.upper.l_up,
                          up=sz.upper.up - s * psi.upper.up,
                          dn=sz.upper.dn - s * psi.upper.dn),
            lower=Spinor2(grid=GRID, l_up=psi.lower.l_up,
                          up=sz.lower.up - s * psi.lower.up,
                          dn=sz.lower.dn - s * psi.lower.dn))
        assert math.sqrt(abs(d_inner4(diff, diff, dc).real)) < 1e-5


def test_embed_nonrelativistic_suppression():
    dc = make_dc(mu=0.4)
    ratios = []
    for mass in (10.0, 100.0, 1000.0):
        dcm = replace(dc, mass=mass)
        psi = embed_3p1(1, 1, 0, 1, 1, 0.0, dcm, GRID)
        big = math.sqrt(abs(d_inner(psi.upper, psi.upper, dcm).real))
        rest = Spinor2(grid=GRID, l_up=psi.upper.l_up,
                       up=np.zeros_like(psi.upper.up), dn=psi.upper.dn)
        small = math.sqrt(abs(d_inner(rest, rest, dcm).real
                              + d_inner(psi.lower, psi.lower, dcm).real))
        ratios.append(small / big)
    # O(1/M): tenfold mass suppresses the small components tenfold
    assert ratios[1] == pytest.approx(ratios[0] / 10.0, rel=0.05)
    assert ratios[2] == pytest.approx(ratios[1] / 10.0, rel=0.05)


def test_embed_massless_regular():
    dc = make_dc(mu=0.4, mass=0.0)
    psi = embed_3p1(1, 1, 0, 1, 1, 0.8, dc, GRID)
    assert d_inner4(psi, psi, dc).real == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# proper-time kernel
# ---------------------------------------------------------------------------


def test_kernel_projector_structure():
    dc = make_dc(mu=0.3, mass=0.8)
    k = green_kernel_rel(1, 2, dc, -0.3j, 0.4, 0.0, 1.0, 2.0)
    assert k[0, 1] == 0 and k[1, 0] == 0 and k[1, 1] == 0
    k = green_kernel_rel(-1, 2, dc, -0.3j, 0.4, 0.0, 1.0, 2.0)
    assert k[0, 0] == 0 and abs(k[1, 1]) > 0


def test_kernel_bessel_index_conventions():
    # l != 0: order |l_sigma + mu| independent of vartheta
    assert _rel_bessel_index(1, 2, 0.3, 1) == pytest.approx(1.3)
    assert _rel_bessel_index(1, 2, 0.3, -1) == pytest.approx(1.3)
    assert _rel_bessel_index(-1, -2, 0.3, 1) == pytest.approx(1.7)
    # l = 0 channel: vartheta selects the (ir)regular order
    assert _rel_bessel_index(1, 0, 0.3, 1) == pytest.approx(0.7)
    assert _rel_bessel_index(-1, 0, 0.3, 1) == pytest.approx(-0.3)
    assert _rel_bessel_index(1, 0, 0.3, -1) == pytest.approx(-0.7)
    assert _rel_bessel_index(-1, 0, 0.3, -1) == pytest.approx(0.3)


@pytest.mark.parametrize("sig,l,vt", [(1, 2, 1), (-1, -1, 1), (1, 0, -1), (-1, 0, 1)])
def test_kernel_matches_mode_sum(sig, l, vt):
    mu = 0.3
    dc = make_dc(mu=mu, mass=0.8, vartheta=vt)
    g = dc.field.gamma
    tau, rho, rho_p = 0.35, 1.0, 2.0
    nu = _rel_bessel_index(sig, l, mu, vt)
    k = green_kernel_rel(sig, l, dc, -1j * tau, 0.0, 0.0, rho, rho_p)
    diag = k[0, 0] if sig == 1 else k[1, 1]
    l_s = l - (1 + sig) // 2
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


def test_kernel_singularity_rejected():
    dc = make_dc(mu=0.3)
    with pytest.raises(DomainError):
        green_kernel_rel(1, 2, dc, math.pi / dc.field.gamma, 0.0, 0.0, 1.0, 2.0)
