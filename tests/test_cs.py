"""Coherent states: amplitudes, normalization, overlaps, zero-flux limit.

The zero-flux superposition has two independent oracles: the free
double series over the level lattice and the closed-form Gaussian
exponential (derived by resumming the generating function and checked
against 30-digit arithmetic during development).
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special as sp

from msf.landau import (FieldConfig, _branch_l_values, make_quadrature, resolve_qnums,
                        stationary_state)
from msf.specfun import DomainError, laguerre_fn_table, ln_marcum_p
from msf.cs import (
    CSLabel,
    _MAX_CELLS,
    _grown_table,
    _m_last,
    cs_branch,
    cs_normalization,
    cs_overlap,
    cs_state,
    mm_superpose,
    mm_weight_sum,
)


def test_label_validation():
    with pytest.raises(DomainError):
        CSLabel(complex("inf"), 0.0)


@pytest.mark.parametrize("label", [CSLabel(1e200, 1.0), CSLabel(1e200, 1e200j),
                                   CSLabel(2e3, 1e3)])
def test_labels_past_the_table_limit_raise_domain_error(label):
    # at |z1 z2| >= _MAX_CELLS one row alone passes the table limit; the row
    # length came from np.arange (a bare ValueError) and, where |z1 z2|
    # overflows to inf, from math.ceil (an OverflowError)
    from msf.dirac import DiracConfig, rel_cs, rel_cs_overlap_closed
    from msf.radial import make_radial_grid

    cfg = FieldConfig(mu=0.5)
    dc = DiracConfig(field=cfg)
    small = CSLabel(0.5, 0.3j)
    for build in (lambda: cs_state(1, label, 0.0, 1.0, cfg),
                  lambda: cs_overlap(1, label, 1, small, cfg.mu),
                  lambda: rel_cs(1, label, dc, 1, make_radial_grid(rho_max=60.0)),
                  lambda: rel_cs_overlap_closed(1, label, small, dc, 1)):
        with pytest.raises(DomainError, match="label too large"):
            build()


def test_row_length_just_inside_the_table_limit():
    # the label check sits at |z1 z2| = _MAX_CELLS; below it the row length
    # is the bound of _m_last, past |z1 z2|
    assert _m_last(CSLabel(_MAX_CELLS - 1.0, 1.0)) > _MAX_CELLS - 1
    with pytest.raises(DomainError, match="label too large"):
        _m_last(CSLabel(float(_MAX_CELLS), 1.0))


def test_coefficient_formula():
    cfg = FieldConfig(mu=0.5)
    lab = CSLabel(0.7 + 0.2j, -0.4j)
    q = resolve_qnums(0, -1, 1, cfg)
    manual = (cmath.exp(q.n1 * cmath.log(lab.z1))
              * cmath.exp(q.n2 * cmath.log(lab.z2))
              * math.exp(-0.5 * (sp.gammaln(1 + q.n1) + sp.gammaln(1 + q.n2))))
    l, _, ln_c, phase = _grown_table(0, _branch_l_values(0), lab, cfg)
    row = list(l).index(-1)
    coeff = np.exp(ln_c[row, 1] + 1j * phase[row, 1])
    assert coeff == pytest.approx(manual, rel=1e-14)


def test_zero_label_single_term():
    cfg = FieldConfig(mu=0.0)
    coeffs = cs_branch(0, CSLabel(0.0, 0.0), cfg)
    assert coeffs[0] == 1.0
    assert np.all(coeffs[1:] == 0.0)


def test_branch_weight_matches_q_term():
    # sum_m |c_m|^2 at fixed l equals one term of the Q series
    from test_specfun import q_double_series_oracle

    cfg = FieldConfig(mu=0.5)
    lab = CSLabel(1.0, 1.0)  # |z1| = |z2| = 1
    coeffs = cs_branch(-1, lab, cfg)
    expect = q_double_series_oracle(1.0 - cfg.mu, math.sqrt(lab.u), math.sqrt(lab.v), lmax=1)
    assert np.sum(np.abs(coeffs) ** 2) == pytest.approx(expect, rel=1e-12)


def test_expansion_weight_equals_normalization():
    cfg = FieldConfig(mu=0.3)
    lab = CSLabel(0.7 + 0.2j, -0.4j)
    # u = 200, v = 1: branch 0 holds only the far tail of the weight
    lopsided = CSLabel(cmath.rect(math.sqrt(200.0), 0.7), cmath.rect(1.0, -2.1))
    for j, lab in ((0, lab), (1, lab), (0, lopsided)):
        ln_c = _grown_table(j, _branch_l_values(j), lab, cfg)[2]
        norm = math.exp(np.logaddexp.reduce(2 * ln_c, axis=None))
        assert norm == pytest.approx(cs_normalization(j, lab.u, lab.v, cfg.mu), rel=1e-12)


def test_normalization_against_exponential_rule_mu0():
    for (u, v) in [(0.0, 0.0), (2.0, 3.0), (7.5, 1.0)]:
        n0 = cs_normalization(0, u, v, 0.0)
        n1 = cs_normalization(1, u, v, 0.0)
        assert n0 + n1 == pytest.approx(math.exp(u + v), rel=1e-12)


def test_normalization_symmetry_half_flux():
    # mu = 1/2, u = v: the two branches coincide
    n0 = cs_normalization(0, 1.0, 1.0, 0.5)
    n1 = cs_normalization(1, 1.0, 1.0, 0.5)
    assert n0 == pytest.approx(n1, rel=1e-14)
    # frozen value e^2 erf(2) / 2 (dual-checked against the erf form)
    assert n0 == pytest.approx(3.677246026369880839, rel=1e-13)


def test_normalization_degenerate_edges():
    # z2 = 0 on branch 1 keeps only the m = 0 column of the series:
    # sum_l u^(l+mu) / Gamma(1 + l + mu), evaluated independently here
    direct = sum(1.0 ** (l + 0.3) * math.exp(-sp.gammaln(1.3 + l)) for l in range(80))
    assert cs_normalization(1, 1.0, 0.0, 0.3) == pytest.approx(direct, rel=1e-12)
    # z1 = 0 on branch 1 with mu > 0 kills every term (all u-powers positive)
    assert cs_normalization(1, 0.0, 1.0, 0.3) == 0.0
    assert cs_normalization(0, 0.0, 0.0, 0.3) == 0.0
    # zero-label edge at mu = 0: only the branch-1 ground cell survives
    assert cs_normalization(1, 0.0, 0.0, 0.0) == 1.0


def test_normalization_far_out():
    # mu = 1/2 erf form N_0 = e^(u+v) [erf(su + sv) - erf(su - sv)] / 2, far
    # past the range where the Bessel series itself stays finite; written
    # with erfc where both erf values round to 1
    for (u, v) in [(300.0, 300.0), (250.0, 1.5), (2.0, 340.0)]:
        su, sv = math.sqrt(u), math.sqrt(v)
        if su > sv:
            diff = sp.erfc(su - sv) - sp.erfc(su + sv)
        else:
            diff = sp.erf(su + sv) + sp.erf(sv - su)
        closed = math.exp(u + v) * diff / 2.0
        assert cs_normalization(0, u, v, 0.5) == pytest.approx(closed, rel=1e-11)
    # beyond the double range: a typed error, not inf, also at one point of a mesh
    with pytest.raises(DomainError):
        cs_normalization(0, 400.0, 400.0, 0.5)
    mesh = np.array([[1.0, 2.0], [3.0, 400.0]])
    with pytest.raises(DomainError):
        cs_normalization(0, mesh, mesh, 0.5)


def test_normalization_elementwise_over_mesh():
    u, v = np.meshgrid(np.linspace(0.0, 9.0, 4), [0.0, 0.7, 3.0, 250.0], indexing="ij")
    for j in (0, 1):
        for mu in (0.0, 0.35):
            mesh = cs_normalization(j, u, v, mu)
            assert mesh.shape == u.shape
            for n, a, b in zip(mesh.ravel(), u.ravel(), v.ravel()):
                assert n == cs_normalization(j, float(a), float(b), mu)


def test_overlap_diagonal_and_conjugate_symmetry():
    mu = 0.25
    a = CSLabel(0.7 + 0.2j, -0.4j)
    b = CSLabel(-0.3 + 1.1j, 0.5 - 0.2j)
    # N ~ 1.2e170 at the large label, so N N' is beyond the double range
    for lab in (a, CSLabel(14 + 0.5j, -0.3 + 14j)):
        assert cs_overlap(0, lab, 0, lab, mu) == pytest.approx(1.0, rel=1e-12)
    oab = cs_overlap(1, a, 1, b, mu)
    oba = cs_overlap(1, b, 1, a, mu)
    assert oab == pytest.approx(np.conj(oba), rel=1e-12)


def q_bessel_series_oracle(nu, a, b):
    """Q_nu(sqrt a, sqrt b) = sum_l (b/a)^((nu+l)/2) I_{nu+l}(2 sqrt(ab)), an mpmath number.

    Principal square roots; the orders run down from far past the
    Poisson bulk by the stable backward recurrence
    I_{p-1}(x) = I_{p+1}(x) + (2p/x) I_p(x), seeded by mpmath's besseli.
    """
    import mpmath as mp

    x, y = mp.sqrt(mp.mpc(a)), mp.sqrt(mp.mpc(b))
    arg, ratio = 2 * x * y, y / x
    top = int(abs(a) + abs(b) + 12 * math.sqrt(abs(a) + abs(b)) + 60)
    i_hi, i_cur = mp.besseli(nu + top + 1, arg), mp.besseli(nu + top, arg)
    total = mp.mpc(0)
    for l in range(top, -1, -1):
        total += mp.power(ratio, nu + l) * i_cur
        i_hi, i_cur = i_cur, i_hi + 2 * (nu + l) / arg * i_cur
    return total


def overlap_modulus_oracle(j, la, lb, mu):
    """|<Phi_a|Phi_b>| from the Q series at the conjugated label products,
    in 40-digit arithmetic, whose exponent range holds N = exp(900)."""
    import mpmath as mp

    def q(za, zb):
        a, b = np.conj(za.z1) * zb.z1, np.conj(za.z2) * zb.z2
        return q_bessel_series_oracle(1.0 - mu, a, b) if j == 0 else q_bessel_series_oracle(mu, b, a)

    with mp.workdps(40):
        return float(abs(q(la, lb)) / mp.sqrt(abs(q(la, la)) * abs(q(lb, lb))))


@pytest.mark.parametrize("modulus", (0.8, 3.0, 10.0, 20.0, 30.0))
def test_overlap_modulus_against_mpmath(modulus):
    # N reaches exp(900) at |z| = 30, far past the double range
    rng = np.random.default_rng(int(modulus * 10))
    mu = 0.3
    for j in (0, 1):
        split = rng.uniform(0.3, 1.2)
        a = CSLabel(cmath.rect(modulus * math.cos(split), rng.uniform(-3, 3)),
                    cmath.rect(modulus * math.sin(split), rng.uniform(-3, 3)))
        b = CSLabel(a.z1 + complex(*rng.normal(0, 0.4, 2)), a.z2 + complex(*rng.normal(0, 0.4, 2)))
        ov = cs_overlap(j, a, j, b, mu)
        assert abs(ov) == pytest.approx(overlap_modulus_oracle(j, a, b, mu), rel=1e-10, abs=1e-13)
        assert abs(ov) <= 1.0 + 1e-12
        assert abs(cs_overlap(j, a, j, a, mu) - 1.0) < 1e-12


def test_overlap_cross_branch_zero():
    a = CSLabel(0.7, 0.4j)
    b = CSLabel(0.1 - 0.9j, 1.2)
    assert cs_overlap(0, a, 1, b, 0.3) == 0.0


def test_overlap_closed_form_vs_coefficient_contraction():
    mu = 0.25
    cfg = FieldConfig(mu=mu)
    a = CSLabel(0.7 + 0.2j, -0.4j)
    b = CSLabel(-0.3 + 1.1j, 0.5 - 0.2j)
    for j in (0, 1):
        closed = cs_overlap(j, a, j, b, mu)
        ta, tb = (_grown_table(j, _branch_l_values(j), lab, cfg) for lab in (a, b))
        coeffs = [{(l, m): cmath.exp(ln_c + 1j * ph)
                   for l, row, phases in zip(t[0], t[2], t[3])
                   for m, (ln_c, ph) in enumerate(zip(row, phases))}
                  for t in (ta, tb)]
        contraction = sum(np.conj(ca) * coeffs[1].get(k, 0.0)
                          for k, ca in coeffs[0].items())
        norms = [math.exp(np.logaddexp.reduce(2 * t[2], axis=None)) for t in (ta, tb)]
        contraction /= math.sqrt(norms[0] * norms[1])
        assert abs(abs(closed) - abs(contraction)) < 1e-10


def test_reproducing_coefficients_by_quadrature():
    # the coefficient of each stationary state inside the coherent state
    # equals the projection computed by radial quadrature
    mu = 0.5
    cfg = FieldConfig(mu=mu)
    lab = CSLabel(0.7 + 0.2j, -0.4j)
    n0 = cs_normalization(0, lab.u, lab.v, mu)
    for (l, m) in [(-1, 0), (-1, 2), (-2, 1), (-3, 0), (-2, 3)]:
        coeffs = cs_branch(l, lab, cfg)
        alpha = -l - mu
        quad = make_quadrature(alpha, 48)
        tab = laguerre_fn_table(alpha, len(coeffs) - 1, quad.nodes)
        prof = coeffs @ tab  # radial profile of the l block
        proj = quad.integrate(tab[m] * prof)
        assert proj / math.sqrt(n0) == pytest.approx(
            coeffs[m] / math.sqrt(n0), rel=1e-11)


# ---------------------------------------------------------------------------
# zero-flux limit
# ---------------------------------------------------------------------------


def mm_lattice_series_oracle(lab, theta, rho, cfg, nmax=36):
    """Free double series over the level lattice (n1, n2).

    Cell (r1, r2) maps to the branch-0 state (m, l) = (r1, r1 - r2) when
    r2 > r1 and to the branch-1 state (m, l) = (r2, r1 - r2) otherwise;
    all amplitudes are z1^r1 z2^r2 / sqrt(r1! r2!).
    """
    total = 0.0 + 0.0j
    for r1 in range(nmax):
        for r2 in range(nmax):
            c = (lab.z1 ** r1) * (lab.z2 ** r2) * math.exp(
                -0.5 * (sp.gammaln(r1 + 1.0) + sp.gammaln(r2 + 1.0)))
            if abs(c) < 1e-22:
                continue
            if r2 > r1:
                q = resolve_qnums(0, r1 - r2, r1, cfg)
            else:
                q = resolve_qnums(1, r1 - r2, r2, cfg)
            total += c * stationary_state(q, theta, rho, cfg)
    return total


def mm_closed_form_oracle(lab, theta, rho, cfg):
    w = math.sqrt(rho) * cmath.exp(1j * theta)
    return (math.sqrt(cfg.gamma / (2.0 * math.pi)) * cmath.exp(-rho / 2.0)
            * cmath.exp(lab.z1 * lab.z2 - lab.z1 * w + lab.z2 * np.conj(w)))


def test_mm_superpose_requires_zero_flux():
    with pytest.raises(DomainError):
        mm_superpose(CSLabel(0.1, 0.1), 0.0, 1.0, FieldConfig(mu=0.2))
    with pytest.raises(DomainError):
        mm_superpose(CSLabel(0.1, 0.1), 0.0, 1.0, FieldConfig(mu=0.0, l0=2))


def test_mm_superpose_ground_state_at_zero_labels():
    cfg = FieldConfig(mu=0.0)
    q = resolve_qnums(1, 0, 0, cfg)
    for rho in (0.3, 1.5):
        assert mm_superpose(CSLabel(0.0, 0.0), 0.4, rho, cfg) == pytest.approx(
            stationary_state(q, 0.4, rho, cfg), rel=1e-12)


def test_mm_superpose_pointwise_against_both_oracles(rng):
    cfg = FieldConfig(mu=0.0)
    for _ in range(20):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        rho = float(rng.uniform(0.05, 8.0))
        lab = CSLabel(complex(*rng.uniform(-1.5, 1.5, 2)),
                      complex(*rng.uniform(-1.5, 1.5, 2)))
        val = mm_superpose(lab, theta, rho, cfg)
        lattice = mm_lattice_series_oracle(lab, theta, rho, cfg)
        closed = mm_closed_form_oracle(lab, theta, rho, cfg)
        assert abs(val - lattice) / abs(closed) < 1e-10
        assert abs(val - closed) / abs(closed) < 1e-10


@given(modulus=st.floats(0.0, 30.0), split=st.floats(0.0, math.pi / 2),
       ph1=st.floats(-math.pi, math.pi), ph2=st.floats(-math.pi, math.pi),
       dw=st.complex_numbers(max_magnitude=2.0, allow_nan=False))
@settings(max_examples=25, deadline=None)
@example(modulus=30.0, split=math.pi / 4, ph1=0.4, ph2=math.pi - 0.4, dw=0.3 + 0j)  # rho = 1777
@example(modulus=20.0, split=1.1, ph1=-2.0, ph2=0.5, dw=-1.0 + 0.5j)
def test_normalized_branches_sum_to_mm_state(modulus, split, ph1, ph2, dw):
    # at mu = 0, sqrt(N_0 e^-(u+v)) Phi_0 + sqrt(N_1 e^-(u+v)) Phi_1 is the
    # normalized uniform-field state, evaluated near its centre z2 - conj(z1)
    cfg = FieldConfig(mu=0.0)
    lab = CSLabel(cmath.rect(modulus * math.cos(split), ph1),
                  cmath.rect(modulus * math.sin(split), ph2))
    w = lab.z2 - np.conj(lab.z1) + dw
    rho, theta = abs(w) ** 2, cmath.phase(w)
    got = 0.0
    for j, ln_p in enumerate((ln_marcum_p(1.0, lab.u, lab.v), ln_marcum_p(0.0, lab.v, lab.u))):
        if ln_p > -math.inf:  # N_0 = 0 at z2 = 0: no branch-0 state, and no term
            got += math.exp(0.5 * ln_p) * cs_state(j, lab, theta, rho, cfg)
    scale = math.sqrt(cfg.gamma / (2.0 * math.pi))
    closed = scale * cmath.exp(-rho / 2.0 + lab.z1 * lab.z2 - lab.z1 * w
                               + lab.z2 * np.conj(w) - (lab.u + lab.v) / 2.0)
    assert abs(got - closed) <= 1e-10 * scale


def test_cs_state_over_rho_array_matches_pointwise():
    cfg = FieldConfig(mu=0.4, l0=1)
    lab = CSLabel(1.3 - 0.4j, 0.2 + 0.9j)
    rho = np.array([0.0, 0.7, 3.1, 12.0])
    for j in (0, 1):
        grid = cs_state(j, lab, 0.8, rho, cfg)
        assert grid.shape == rho.shape
        for r, val in zip(rho, grid):
            assert val == pytest.approx(cs_state(j, lab, 0.8, float(r), cfg), rel=1e-13, abs=1e-16)


def test_mm_superpose_norm_is_exponential():
    # squared norm of the unnormalized superposition = e^{u+v}
    for lab in (CSLabel(0.7 + 0.2j, -0.4j), CSLabel(1.2, 0.9j)):
        n0 = cs_normalization(0, lab.u, lab.v, 0.0)
        n1 = cs_normalization(1, lab.u, lab.v, 0.0)
        assert n0 + n1 == pytest.approx(math.exp(lab.u + lab.v), rel=1e-12)


def test_mm_weight_sum_constant():
    # frozen: 1/pi^2 = 0.10132118364233777
    assert mm_weight_sum(0.0, 0.0) == pytest.approx(0.10132118364233777, rel=1e-12)
    assert mm_weight_sum(3.0, 7.0) == pytest.approx(0.10132118364233777, rel=1e-10)
