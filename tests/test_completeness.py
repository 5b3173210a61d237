"""Weights, moment problem, G matrix, unity reconstruction, kernels."""

import math

import numpy as np
import pytest

from msf import completeness
from msf.landau import FieldConfig
from msf.specfun import DomainError, erf, laguerre_fn_rows, ln_gamma, ln_marcum_p
from msf.completeness import (
    KernelParams,
    WeightSpec,
    _ln_q_grid_series,
    _unity_grid,
    angular_delta_smear,
    g_matrix,
    moment_check,
    propagator_closed,
    propagator_series,
    radial_delta_smear,
    unity_reconstruction,
    weight_fn,
    weight_half_closed,
)


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------


def test_weight_half_closed_spot_values():
    # frozen: erf(2) / (2 pi^2)
    assert weight_half_closed(0, 1.0, 1.0) == pytest.approx(0.050423614998646447,
                                                            rel=1e-13)
    # u = v makes both branches coincide (erf(0) = 0)
    assert weight_half_closed(0, 2.3, 2.3) == pytest.approx(
        weight_half_closed(1, 2.3, 2.3), rel=1e-15)
    # u = 0: odd error function doubles
    assert weight_half_closed(0, 0.0, 1.7) == pytest.approx(
        erf(math.sqrt(1.7)) / math.pi ** 2, rel=1e-14)


def test_weight_half_closed_elementwise_over_mesh():
    u, v = np.meshgrid(np.linspace(0.0, 9.0, 4), [0.0, 0.7, 400.0], indexing="ij")
    for j in (0, 1):
        mesh = weight_half_closed(j, u, v)
        assert mesh.shape == u.shape
        for w, a, b in zip(mesh.ravel(), u.ravel(), v.ravel()):
            assert w == weight_half_closed(j, float(a), float(b))
    with pytest.raises(DomainError):
        weight_half_closed(0, np.array([1.0, -1.0]), 1.0)


def test_weight_positivity_sampled():
    for mu in (0.1, 0.3, 0.5, 0.7, 0.9):
        for u in np.linspace(0.2, 8.0, 5):
            for v in np.linspace(0.2, 8.0, 5):
                for j in (0, 1):
                    assert weight_fn(WeightSpec(j, mu), float(u), float(v)) > 0.0


def test_weight_vanishing_edge():
    # v = 0 kills the branch-0 weight for mu > 0
    assert weight_fn(WeightSpec(0, 0.3), 2.0, 0.0) == 0.0


def test_weight_fn_elementwise_over_arrays():
    u, v = np.meshgrid(np.linspace(0.0, 9.0, 4), [0.0, 0.7, 250.0], indexing="ij")
    for j in (0, 1):
        spec = WeightSpec(j, 0.35)
        grid = weight_fn(spec, u, v)
        assert grid.shape == u.shape
        for w, a, b in zip(grid.ravel(), u.ravel(), v.ravel()):
            assert w == weight_fn(spec, float(a), float(b))
    with pytest.raises(DomainError):
        weight_fn(WeightSpec(0, 0.35), np.array([1.0, -1.0]), 1.0)


@pytest.mark.parametrize("j", (0, 1))
def test_weight_half_flux_far_out(j):
    # the Bessel series overflowed to nan here; the true value is erf(40) / (2 pi^2)
    assert weight_fn(WeightSpec(j, 0.5), 400.0, 400.0) == pytest.approx(
        weight_half_closed(j, 400.0, 400.0), abs=1e-12)
    assert weight_half_closed(j, 400.0, 400.0) == pytest.approx(0.0506606, rel=1e-6)


# ---------------------------------------------------------------------------
# moments
# ---------------------------------------------------------------------------


def test_moment_trivial():
    mc = moment_check(0.0)
    assert mc.quadrature_value == pytest.approx(1.0, rel=1e-14)


def test_moment_frozen_value():
    mc = moment_check(2.5)
    assert mc.gamma_value == pytest.approx(3.3233509704478425512, rel=1e-14)
    assert mc.abs_err < 1e-12


def test_moment_fractional_flux_exponent():
    # exponent of the kind m - l - mu = 2.7
    mc = moment_check(2.7)
    assert mc.quadrature_value == pytest.approx(
        math.exp(ln_gamma(3.7).real), rel=1e-12)


def test_moment_finite_past_the_overflow_of_its_nodes():
    # x^120 overflows at the largest of the 122 nodes; Gamma(121) = 6.7e198
    mc = moment_check(120.0)
    assert math.isfinite(mc.quadrature_value)
    assert mc.quadrature_value == pytest.approx(math.exp(ln_gamma(121.0).real), rel=1e-12)


def test_moment_domain():
    with pytest.raises(DomainError):
        moment_check(-1.0)


# ---------------------------------------------------------------------------
# G matrix
# ---------------------------------------------------------------------------


def test_g_matrix_frozen_value():
    # Gamma(2) Gamma(2.5), frozen
    assert g_matrix(1, 1, -1, -1, 0.5, j=0) == pytest.approx(
        1.3293403881791370205, rel=1e-12)
    assert g_matrix(0, 0, -1, -1, 0.0, j=0) == pytest.approx(1.0, rel=1e-13)


# ---------------------------------------------------------------------------
# unity reconstruction
# ---------------------------------------------------------------------------


def test_unity_reconstruction_identity():
    pairs0 = [(l, m) for l in range(-4, 0) for m in range(0, 5)]
    g0 = unity_reconstruction(pairs0, mu=0.5, j=0, n_nodes=80)
    assert np.max(np.abs(g0 - np.eye(len(pairs0)))) < 1e-6
    pairs1 = [(l, m) for l in range(0, 5) for m in range(0, 5)]
    g1 = unity_reconstruction(pairs1, mu=0.5, j=1, n_nodes=80)
    assert np.max(np.abs(g1 - np.eye(len(pairs1)))) < 1e-6


@pytest.mark.parametrize("mu, n_nodes, j", [
    (0.5, 100, 0), (0.5, 100, 1),   # the C07 grid
    (0.5, 120, 0), (0.5, 120, 1),   # the CLI's node maximum
    (0.0, 100, 0), (0.0, 100, 1),   # zero order on branch 1
])
def test_unity_grid_weight_matches_series_at_every_node(mu, n_nodes, j):
    """ln P from the Marcum kernel against the diagonal series, no weights.

    The quadrature weights at the far nodes are below 1e-50, so the
    reconstructed Gram matrix cannot see a wrong value there; compare
    the two routes node by node instead.
    """
    _, _, U, V = _unity_grid(mu, j, n_nodes)
    nu, x, y = (1.0 - mu, U, V) if j == 0 else (mu, V, U)
    ln_p = ln_marcum_p(nu, x, y)
    ref = _ln_q_grid_series(nu, x, y) - x - y
    assert np.all(np.isfinite(ln_p))
    assert np.max(np.abs(ln_p - ref)) <= 1e-10


def test_unity_reconstruction_offdiagonal_zero():
    pairs = [(-1, 0), (-2, 0), (-1, 1)]
    g = unity_reconstruction(pairs, mu=0.25, j=0, n_nodes=60)
    off = g - np.diag(np.diag(g))
    assert np.max(np.abs(off)) == 0.0


def test_unity_reconstruction_duplicate_pair_gets_diagonal_value():
    # equal quantum numbers pair up wherever they sit, as the angular
    # deltas say: the repeated (l, m) carries its diagonal value off the
    # diagonal, and every other off-diagonal entry is zero
    pairs = [(-1, 0), (-2, 1), (-1, 0)]
    g = unity_reconstruction(pairs, mu=0.25, j=0, n_nodes=60)
    assert g[0, 2] == g[0, 0] and g[2, 0] == g[2, 2]
    assert g[0, 0] == pytest.approx(g[2, 2], rel=1e-14)
    assert g[0, 0] == pytest.approx(1.0, abs=1e-8)
    assert np.all(g[[0, 1, 1, 2], [1, 0, 2, 1]] == 0.0)


def test_unity_reconstruction_zero_flux_limit():
    # at mu = 0 the weights sum to the flat measure and the diagonal is 1
    pairs = [(l, m) for l in range(0, 3) for m in range(0, 3)]
    g = unity_reconstruction(pairs, mu=0.0, j=1, n_nodes=80)
    assert np.max(np.abs(g - np.eye(len(pairs)))) < 1e-8


# ---------------------------------------------------------------------------
# propagator kernels
# ---------------------------------------------------------------------------


def test_kernel_params_validation():
    cfg = FieldConfig(mu=0.3)
    with pytest.raises(DomainError):
        KernelParams(j=0, l=1, mu=0.3, delta_t=-0.1j, cfg=cfg)
    with pytest.raises(DomainError):
        KernelParams(j=0, l=-1, mu=0.3, delta_t=+0.1j, cfg=cfg)


def test_series_single_term_limit():
    # large Wick time: the m = 0 state dominates the mode sum
    cfg = FieldConfig(mu=0.3)
    p = KernelParams(j=0, l=-1, mu=0.3, delta_t=-40.0j, cfg=cfg)
    from msf.landau import resolve_qnums, stationary_state, energy_nonrel
    q = resolve_qnums(0, -1, 0, cfg)
    e0 = energy_nonrel(q, cfg)
    direct = 1j * math.exp(-40.0 * e0) * stationary_state(q, 0.7, 1.0, cfg) * np.conj(
        stationary_state(q, 0.0, 2.0, cfg))
    val = propagator_series(p, 0.7, 1.0, 2.0)
    assert val == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("j,l", [(0, -1), (0, -3), (1, 0), (1, 2)])
def test_closed_equals_series_wick(j, l):
    cfg = FieldConfig(gamma=1.0, l0=0, mu=0.3)
    for tau in (0.05, 0.1, 0.2, 0.5, 1.0):
        p = KernelParams(j=j, l=l, mu=0.3, delta_t=-1j * tau, cfg=cfg)
        a = propagator_closed(p, 0.7, 1.0, 2.0)
        b = propagator_series(p, 0.7, 1.0, 2.0)
        assert abs(a - b) / abs(a) < 1e-8


def test_closed_serial_general_complex_time():
    # off-axis complex time with negative imaginary part
    cfg = FieldConfig(gamma=1.0, l0=0, mu=0.3)
    p = KernelParams(j=1, l=1, mu=0.3, delta_t=0.4 - 0.3j, cfg=cfg)
    a = propagator_closed(p, 0.2, 1.0, 2.0)
    b = propagator_series(p, 0.2, 1.0, 2.0)
    assert abs(a - b) / abs(a) < 1e-8


def test_closed_phase_factor():
    cfg = FieldConfig(gamma=1.0, l0=2, mu=0.3)
    p = KernelParams(j=0, l=-1, mu=0.3, delta_t=-0.2j, cfg=cfg)
    a = propagator_closed(p, 0.0, 1.0, 2.0)
    b = propagator_closed(p, 0.7, 1.0, 2.0)
    # angular dependence is exactly exp(i (l - l0) dtheta)
    assert b / a == pytest.approx(np.exp(1j * (-1 - 2) * 0.7), rel=1e-12)


@pytest.mark.parametrize("l", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("dt", [-0.05j, -0.7j, 0.4 - 0.3j])
def test_closed_array_equals_pointwise(l, dt):
    # one call over a whole rho' array, on and off the Wick axis
    cfg = FieldConfig(gamma=1.0, l0=0, mu=0.3)
    p = KernelParams(j=0 if l < 0 else 1, l=l, mu=0.3, delta_t=dt, cfg=cfg)
    rho_p = np.linspace(0.0, 12.0, 49)
    arr = propagator_closed(p, 0.4, 1.5, rho_p)
    pts = np.array([propagator_closed(p, 0.4, 1.5, float(x)) for x in rho_p])
    assert arr.shape == rho_p.shape
    assert all(isinstance(v, complex) for v in pts)
    assert np.all(np.abs(arr - pts) <= 1e-13 * np.abs(pts))


def test_closed_rejects_negative_radius():
    cfg = FieldConfig(gamma=1.0, mu=0.3)
    p = KernelParams(j=0, l=-1, mu=0.3, delta_t=-0.2j, cfg=cfg)
    with pytest.raises(DomainError):
        propagator_closed(p, 0.0, 1.0, np.array([0.5, -0.1]))


def test_closed_rejects_real_axis_singularity():
    cfg = FieldConfig(gamma=1.0, mu=0.3)
    p = KernelParams(j=0, l=-1, mu=0.3, delta_t=2.0 * math.pi, cfg=cfg)
    with pytest.raises(DomainError):
        propagator_closed(p, 0.0, 1.0, 2.0)


def test_series_runs_one_recurrence(monkeypatch):
    # tau = 0.05 needs several 48-term blocks of the mode sum
    calls = []

    def counted(*args):
        calls.append(args)
        return laguerre_fn_rows(*args)

    monkeypatch.setattr(completeness, "laguerre_fn_rows", counted)
    cfg = FieldConfig(gamma=1.0, mu=0.3)
    p = KernelParams(j=0, l=-1, mu=0.3, delta_t=-0.05j, cfg=cfg)
    series = propagator_series(p, 0.7, 1.0, 2.0)
    assert len(calls) == 1
    closed = propagator_closed(p, 0.7, 1.0, 2.0)
    assert abs(series - closed) < 1e-8 * abs(closed)


def test_series_rejects_real_time():
    cfg = FieldConfig(mu=0.3)
    p = KernelParams(j=0, l=-1, mu=0.3, delta_t=0.5, cfg=cfg)
    with pytest.raises(DomainError):
        propagator_series(p, 0.0, 1.0, 2.0)


def test_radial_delta_smearing_monotone():
    cfg = FieldConfig(gamma=1.0, mu=0.3)
    errs = []
    for tau in np.geomspace(0.2, 0.02, 6):
        p = KernelParams(j=0, l=-1, mu=0.3, delta_t=-1j * float(tau), cfg=cfg)
        errs.append(radial_delta_smear(p, rho=1.5))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.6 * errs[0]


def test_angular_delta_smearing_converges():
    e10 = angular_delta_smear(10)
    e25 = angular_delta_smear(25)
    e40 = angular_delta_smear(40)
    assert e25 < e10 and e40 <= e25 * 1.5
    assert e40 < 1e-10
