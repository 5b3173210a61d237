"""Stationary states: the branch map, quantum-number bookkeeping,
orthonormality, energies, quadrature moments, and the radial eigenvalue
residual."""

import itertools
import math

import numpy as np
import pytest
from scipy import special as sp

from msf.dirac import (
    DiracConfig,
    apply_sigma_p,
    basis_spinor_component,
    d_norm,
    e_perp_sq,
    resolve_rel_qnums,
)
from msf.landau import (
    FieldConfig,
    _branch_l_values,
    _branch_of,
    _gauss_laguerre,
    _laguerre_order,
    energy_nonrel,
    gram_matrix,
    make_quadrature,
    resolve_qnums,
    stationary_state,
)
from msf.completeness import weight_fn
from msf.cs import cs_normalization
from msf.radial import make_radial_grid
from msf.specfun import DomainError, laguerre_fn_table


# the first angular number of branches 0 and 1 under each extension label
_EDGES = {-1: (-1, 0), 1: (0, 1)}


@pytest.mark.parametrize("vartheta", [-1, 1])
def test_branch_map_edges(vartheta):
    rows = [list(itertools.islice(_branch_l_values(j, vartheta), 60)) for j in (0, 1)]
    first0, first1 = _EDGES[vartheta]
    assert rows[0] == list(range(first0, first0 - 60, -1))
    assert rows[1] == list(range(first1, first1 + 60))
    for l in range(-50, 51):
        assert (l in rows[0]) + (l in rows[1]) == 1, l
    for j in (0, 1):
        assert all(_branch_of(l, vartheta) == j for l in rows[j])


def test_resolve_qnums_branch_formulas():
    cfg = FieldConfig(mu=0.3)
    q = resolve_qnums(0, -1, 0, cfg)
    assert (q.n1, q.n2) == (0.0, pytest.approx(0.7))
    q = resolve_qnums(1, 0, 2, FieldConfig(mu=0.0))
    assert (q.n1, q.n2) == (2.0, 2.0)
    q = resolve_qnums(1, 3, 1, FieldConfig(mu=0.5))
    assert (q.n1, q.n2) == (pytest.approx(4.5), 1.0)


def test_resolve_qnums_rejects_wrong_branch():
    cfg = FieldConfig(mu=0.3)
    with pytest.raises(DomainError):
        resolve_qnums(0, 0, 0, cfg)
    with pytest.raises(DomainError):
        resolve_qnums(1, -1, 0, cfg)
    with pytest.raises(DomainError):
        resolve_qnums(0, -1, -2, cfg)


def test_field_config_validation():
    with pytest.raises(DomainError):
        FieldConfig(gamma=0.0)
    with pytest.raises(DomainError):
        FieldConfig(mu=1.0)
    # the weights and normalizations take mu bare and share the flux check
    for mu in (-0.3, 1.0, 1.5):
        for j in (0, 1):
            for fn in (weight_fn, cs_normalization):
                with pytest.raises(DomainError, match="mu must lie"):
                    fn(j, 1.0, 1.0, mu)


@pytest.mark.parametrize("call", [
    lambda: make_quadrature(-1.0, 10),     # weight exponent not above -1
    lambda: make_quadrature(0.0, 1),       # node count outside [2, 250]
    lambda: make_quadrature(0.0, 251),
    lambda: FieldConfig(l0=0.5),
], ids=["alpha", "one-node", "251-nodes", "l0"])
def test_landau_domain_errors(call):
    with pytest.raises(DomainError):
        call()


@pytest.mark.parametrize("kwargs", [{"gamma": math.inf}, {"l0": math.nan}, {"l0": math.inf}],
                         ids=["gamma-inf", "l0-nan", "l0-inf"])
def test_field_config_rejects_non_finite_values(kwargs):
    with pytest.raises(DomainError):
        FieldConfig(**kwargs)


def test_energy_values():
    assert energy_nonrel(resolve_qnums(1, 0, 0, FieldConfig(mu=0.0)),
                         FieldConfig(mu=0.0)) == pytest.approx(0.5)
    cfg = FieldConfig(mu=0.25, gamma=2.0)
    assert energy_nonrel(resolve_qnums(0, -2, 1, cfg), cfg) == pytest.approx(3.0)
    cfg = FieldConfig(mu=0.5)
    # flux-shifted level: n1 = 1.5 for (j=1, l=1, m=0)
    assert energy_nonrel(resolve_qnums(1, 1, 0, cfg), cfg) == pytest.approx(2.0)


def test_state_vanishes_at_origin_branch0():
    cfg = FieldConfig(mu=0.3)
    q = resolve_qnums(0, -1, 0, cfg)
    assert stationary_state(q, 0.7, 0.0, cfg) == 0.0


def test_quadrature_moments_match_gamma():
    for a in (0.0, 0.5, -0.4):
        quad = make_quadrature(a, 40)
        for k in range(0, 21):
            target = math.exp(sp.gammaln(a + 1.0 + k))
            val = quad.integrate_weighted(quad.nodes ** k)
            assert val == pytest.approx(target, rel=1e-12)


def test_quadrature_trivial_moments():
    quad = make_quadrature(0.0, 16)
    assert quad.integrate_weighted(np.ones_like(quad.nodes)) == pytest.approx(1.0, rel=1e-14)
    assert quad.integrate_weighted(quad.nodes) == pytest.approx(1.0, rel=1e-13)
    quad = make_quadrature(0.5, 16)
    assert quad.integrate_weighted(quad.nodes ** 2) == pytest.approx(
        3.3233509704478425512, rel=1e-13)  # Gamma(3.5), frozen


def test_quadrature_is_cached_and_read_only():
    quad = make_quadrature(0.3, 24)
    assert make_quadrature(0.3, 24) is quad
    for arr in (quad.nodes, quad.weights, quad.plain_weights):
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("n", [2, 3, 8, 22, 48, 80, 100, 160, 250])
def test_gauss_laguerre_matches_scipy(n):
    # the same Jacobi matrix, Newton step and weight formula as scipy's
    # banded route; both eigensolvers reduce it to the same tridiagonal
    # for LAPACK's dsterf, so on one LAPACK build the rules agree bit for
    # bit.  Another build may round the eigenvalues differently: moving
    # them by up to 4 ulps moves the polished nodes by at most 3 ulps and
    # the weights by at most about 7e3 ulps, which the bounds cover.
    for alpha in (-0.995, -0.95, -0.7, -0.5, -0.15, 0.0, 0.05, 0.3, 0.85,
                  1.0, 2.3, 5.5, 10.0, 30.0, 60.0):
        xs, ws = sp.roots_genlaguerre(n, alpha)
        if not (np.isfinite(ws).all() and (ws > 0).all()):
            continue
        x, w, _ = _gauss_laguerre(n, alpha)
        assert np.all(np.abs(x - xs) <= 4 * np.spacing(xs)), alpha
        assert np.all(np.abs(w - ws) <= 2**14 * np.spacing(ws)), alpha


@pytest.mark.parametrize("alpha", [-0.7, 0.0, 2.3])
def test_gram_identity_on_largest_rules(alpha):
    # gram_matrix blocks with m >= 99 take rules of 200 nodes and more,
    # whose weights underflow at the largest nodes while the plain
    # weights stay moderate; their logs come from the builder.  The
    # identity holds to 2.9e-13 at m = 124 (250 nodes), inside the 1e-12
    # bound of the 60-node unit norms below
    for m in (99, 110, 124):
        quad = make_quadrature(alpha, 2 * (m + 1))
        rows = laguerre_fn_table(alpha, m, quad.nodes)
        gram = (rows * quad.plain_weights) @ rows.T
        assert np.max(np.abs(gram - np.eye(m + 1))) <= 1e-12, m
    assert (make_quadrature(alpha, 250).weights == 0.0).any()


def test_gram_matrix_blocks_equal_pairwise_quadrature():
    # shuffled m order, gaps in m, a repeated state and several l blocks
    cfg = FieldConfig(mu=0.3)
    states = [resolve_qnums(j, l, m, cfg) for (j, l, m) in
              [(1, 2, 5), (0, -1, 0), (1, 2, 0), (0, -3, 2), (1, 2, 5),
               (0, -1, 4), (1, 0, 1), (1, 2, 3), (0, -1, 2)]]
    g = gram_matrix(states, cfg)
    ref = np.zeros_like(g)
    for a, qa in enumerate(states):
        block = [q.m for q in states if (q.j, q.l) == (qa.j, qa.l)]
        alpha = _laguerre_order(qa.j, qa.l, cfg.mu)
        quad = make_quadrature(alpha, max(2 * (max(block) + 1), 8))
        tab = laguerre_fn_table(alpha, max(block), quad.nodes)
        for b, qb in enumerate(states):
            if (qb.j, qb.l) == (qa.j, qa.l):
                ref[a, b] = quad.integrate(tab[qa.m] * tab[qb.m])
    assert np.max(np.abs(g - ref)) <= 1e-15
    assert g[0, 4] == pytest.approx(1.0, abs=1e-13)


def test_stationary_state_unit_norm_on_quadrature():
    # plane norm (1/gamma) int drho dtheta |phi|^2 = (2 pi / gamma) int drho |phi|^2
    cfg = FieldConfig(gamma=1.3, mu=0.5)
    q = resolve_qnums(1, 2, 1, cfg)
    # weight exponent matched to the integrand family: exact Gauss rule;
    # a generic (unmatched) rule still converges, just algebraically
    for quad, tol in ((make_quadrature(2 + cfg.mu, 60), 1e-12),
                      (make_quadrature(0.0, 120), 1e-7)):
        dens = np.abs(stationary_state(q, 0.9, quad.nodes, cfg)) ** 2
        norm = 2.0 * math.pi / cfg.gamma * quad.integrate(dens)
        assert norm == pytest.approx(1.0, abs=tol)


def test_stationary_state_scalar_matches_array():
    cfg = FieldConfig(gamma=1.3, mu=0.3)
    rho = np.array([0.0, 0.4, 2.5, 9.0])
    for (j, l, m) in [(0, -1, 0), (0, -3, 2), (1, 0, 1), (1, 2, 3)]:
        q = resolve_qnums(j, l, m, cfg)
        arr = stationary_state(q, 0.7, rho, cfg)
        for k, r in enumerate(rho):
            val = stationary_state(q, 0.7, float(r), cfg)
            assert type(val) is complex
            assert val == pytest.approx(arr[k], rel=1e-15, abs=0.0)


def test_zero_flux_superposition_single_valued():
    # at mu = 0 the branch-0 and branch-1 functions joined across l = 0
    # reproduce one smoothly labeled family: energies agree through the
    # n1 relabeling and the l-coverage has no gaps or overlaps
    cfg = FieldConfig(mu=0.0)
    covered = sorted([q.l for q in (resolve_qnums(0, l, 0, cfg) for l in range(-6, 0))]
                     + [q.l for q in (resolve_qnums(1, l, 0, cfg) for l in range(0, 7))])
    assert covered == list(range(-6, 7))


def test_landau_degeneracy_labeling_mu0():
    # for integer level n1 = 2 at mu = 0: branch 1 contributes l = 0..2
    # (m = 2 - l), branch 0 all l < 0 (m = 2); together every l <= 2 once
    cfg = FieldConfig(mu=0.0)
    labels = []
    for l in range(0, 3):
        q = resolve_qnums(1, l, 2 - l, cfg)
        assert q.n1 == 2.0
        labels.append(q.l)
    for l in range(-4, 0):
        q = resolve_qnums(0, l, 2, cfg)
        assert q.n1 == 2.0
        labels.append(q.l)
    assert sorted(labels) == list(range(-4, 3))


def test_radial_hamiltonian_eigen_residual():
    # planar row (j, l) is the seed slot of Dirac row l + 1 (sigma = +1)
    # under vartheta = +1, where (sigma.P)^2 u = E_perp^2 u = 2 gamma (n1 + 1) u
    grid = make_radial_grid(rho_max=60.0)
    for (j, l, m, mu) in [(1, 0, 0, 0.0), (1, 2, 1, 0.5), (0, -1, 2, 0.3),
                          (0, -3, 0, 0.9)]:
        dc = DiracConfig(field=FieldConfig(mu=mu), vartheta=1)
        q = resolve_rel_qnums(j, l + 1, m, 1, dc)
        planar = resolve_qnums(j, l, m, dc.field)
        assert (q.l_sigma, q.n1, q.n2) == (l, planar.n1, planar.n2)
        u = basis_spinor_component(q, dc, grid)
        ppu = apply_sigma_p(apply_sigma_p(u, dc), dc)
        t = e_perp_sq(q, dc)
        res = d_norm(ppu - t * u, dc, origin_tail=False) / (t * d_norm(u, dc, origin_tail=False))
        assert res < 1e-6, (j, l, m, mu, res)
