"""Weights, moment problem, G matrix, unity reconstruction, kernels."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import special as sp

from msf import completeness
from msf.landau import FieldConfig, _branch_of, _radial_numbers, resolve_qnums
from msf.specfun import DomainError, erf, laguerre_fn_rows, ln_gamma, ln_marcum_p
from msf.completeness import (
    KernelParams,
    _ln_q_grid_series,
    _logaddexp_finite,
    _unity_grid,
    _unity_ratio,
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
                    assert weight_fn(j, float(u), float(v), mu) > 0.0


def test_weight_vanishing_edge():
    # v = 0 kills the branch-0 weight for mu > 0
    assert weight_fn(0, 2.0, 0.0, 0.3) == 0.0


def test_weight_fn_elementwise_over_arrays():
    u, v = np.meshgrid(np.linspace(0.0, 9.0, 4), [0.0, 0.7, 250.0], indexing="ij")
    for j in (0, 1):
        grid = weight_fn(j, u, v, 0.35)
        assert grid.shape == u.shape
        for w, a, b in zip(grid.ravel(), u.ravel(), v.ravel()):
            assert w == weight_fn(j, float(a), float(b), 0.35)
    with pytest.raises(DomainError):
        weight_fn(0, np.array([1.0, -1.0]), 1.0, 0.35)


@pytest.mark.parametrize("j", (0, 1))
def test_weight_half_flux_far_out(j):
    # the Bessel series overflowed to nan here; the true value is erf(40) / (2 pi^2)
    assert weight_fn(j, 400.0, 400.0, 0.5) == pytest.approx(
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


def test_g_matrix_checks_inputs_before_the_angular_deltas():
    # each of these once returned 0.0 from the Kronecker shortcut
    for args in ((1, 2, -1, -1, 1.5), (-3, -2, -1, -1, 0.5), (1, 1, -1, -2, 7.0)):
        with pytest.raises(DomainError):
            g_matrix(*args)


def test_g_matrix_frozen_value():
    # Gamma(2) Gamma(2.5), frozen
    assert g_matrix(1, 1, -1, -1, 0.5) == pytest.approx(
        1.3293403881791370205, rel=1e-12)
    assert g_matrix(0, 0, -1, -1, 0.0) == pytest.approx(1.0, rel=1e-13)


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


def _unity_diagonal_direct(pairs, mu, j, n_nodes):
    """The Gram diagonal from the Marcum kernel and the series on the branch's own grid."""
    cfg = FieldConfig(mu=mu)
    qnums = [resolve_qnums(j, l, m, cfg) for l, m in pairs]
    qu, qv, U, V = _unity_grid(mu, j, n_nodes)
    nu, x, y = (1.0 - mu, U, V) if j == 0 else (mu, V, U)
    ratio = np.exp(ln_marcum_p(nu, x, y) + x + y - _ln_q_grid_series(nu, x, y))
    n1 = np.array([q.n1 for q in qnums])
    n2 = np.array([q.n2 for q in qnums])
    pu = qu.weights * qu.nodes ** (n1[:, None] - qu.alpha)
    pv = qv.weights * qv.nodes ** (n2[:, None] - qv.alpha)
    return np.einsum("ku,uv,kv->k", pu, ratio, pv) * np.exp(
        -(sp.gammaln(1.0 + n1) + sp.gammaln(1.0 + n2)))


@pytest.mark.parametrize("mu", [0.5, 0.25])
def test_unity_ratio_cache_gives_the_direct_values(mu):
    # at mu = 1/2 both branches read one cached grid, branch 1 its transpose;
    # the values are bitwise those of each branch's own grid, cold and warm
    _unity_ratio.cache_clear()
    for j, pairs in ((0, [(l, m) for l in range(-4, 0) for m in range(5)]),
                     (1, [(l, m) for l in range(5) for m in range(5)])):
        direct = np.diag(_unity_diagonal_direct(pairs, mu, j, 100))
        for _ in range(2):
            assert np.array_equal(unity_reconstruction(pairs, mu=mu, j=j, n_nodes=100), direct)
    assert _unity_ratio.cache_info().currsize == (1 if mu == 0.5 else 2)
    ratio = _unity_ratio(1.0 - mu, 0.0, 1.0 - mu, 100)
    with pytest.raises(ValueError):
        ratio[0, 0] = 1.0


_LOG_MAGNITUDE = st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False)


@given(a=_LOG_MAGNITUDE, b=_LOG_MAGNITUDE, shift=st.sampled_from([None, 0.0, 40.5, -75.0]))
@settings(max_examples=300, deadline=None)
@example(a=-math.log(2.0), b=0.0, shift=0.0)      # a == b: the sum is exactly 0
@example(a=1e4, b=0.0, shift=-41.0)               # |a - b| > 40: the smaller adds nothing
@example(a=-1e4, b=0.0, shift=700.0)              # the larger argument second
def test_logaddexp_finite_matches_numpy(a, b, shift):
    """The Q series' log-add agrees with np.logaddexp within one ulp.

    shift None draws b freely; otherwise b = a + shift, covering a == b
    and gaps past 40.  Both add log1p(e^-|a-b|) <= ln 2 to max(a, b), so
    where that sum cancels to near 0 the ulp is taken at 1, the scale of
    its operands, instead of at the result.
    """
    if shift is not None:
        b = a + shift
    ours = float(_logaddexp_finite(np.array([a]), np.array([b]))[0])
    ref = float(np.logaddexp(a, b))
    assert abs(ours - ref) <= np.spacing(max(abs(ref), 1.0))


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
    with pytest.raises(DomainError, match="integer"):
        KernelParams(l=0.5, delta_t=-0.1j, cfg=cfg)
    with pytest.raises(DomainError):
        KernelParams(l=-1, delta_t=+0.1j, cfg=cfg)


def test_series_single_term_limit():
    # large Wick time: the m = 0 state dominates the mode sum
    cfg = FieldConfig(mu=0.3)
    p = KernelParams(l=-1, delta_t=-40.0j, cfg=cfg)
    from msf.landau import resolve_qnums, stationary_state, energy_nonrel
    q = resolve_qnums(0, -1, 0, cfg)
    e0 = energy_nonrel(q, cfg)
    direct = 1j * math.exp(-40.0 * e0) * stationary_state(q, 0.7, 1.0, cfg) * np.conj(
        stationary_state(q, 0.0, 2.0, cfg))
    val = propagator_series(p, 0.7, 1.0, 2.0)
    assert val == pytest.approx(direct, rel=1e-10)


@pytest.mark.parametrize("j,l", [(0, -1), (0, -3), (1, 0), (1, 2)])
def test_closed_equals_series_wick(j, l):
    assert _branch_of(l) == j  # the kernels take the branch that holds l
    cfg = FieldConfig(gamma=1.0, l0=0, mu=0.3)
    for tau in (0.05, 0.1, 0.2, 0.5, 1.0):
        p = KernelParams(l=l, delta_t=-1j * tau, cfg=cfg)
        a = propagator_closed(p, 0.7, 1.0, 2.0)
        b = propagator_series(p, 0.7, 1.0, 2.0)
        assert abs(a - b) / abs(a) < 1e-8


def test_closed_serial_general_complex_time():
    # off-axis complex time with negative imaginary part
    cfg = FieldConfig(gamma=1.0, l0=0, mu=0.3)
    p = KernelParams(l=1, delta_t=0.4 - 0.3j, cfg=cfg)
    a = propagator_closed(p, 0.2, 1.0, 2.0)
    b = propagator_series(p, 0.2, 1.0, 2.0)
    assert abs(a - b) / abs(a) < 1e-8


def test_closed_phase_factor():
    cfg = FieldConfig(gamma=1.0, l0=2, mu=0.3)
    p = KernelParams(l=-1, delta_t=-0.2j, cfg=cfg)
    a = propagator_closed(p, 0.0, 1.0, 2.0)
    b = propagator_closed(p, 0.7, 1.0, 2.0)
    # angular dependence is exactly exp(i (l - l0) dtheta)
    assert b / a == pytest.approx(np.exp(1j * (-1 - 2) * 0.7), rel=1e-12)


@pytest.mark.parametrize("l", [-2, -1, 0, 1, 2])
@pytest.mark.parametrize("dt", [-0.05j, -0.7j, 0.4 - 0.3j])
def test_closed_array_equals_pointwise(l, dt):
    # one call over a whole rho' array, on and off the Wick axis
    cfg = FieldConfig(gamma=1.0, l0=0, mu=0.3)
    p = KernelParams(l=l, delta_t=dt, cfg=cfg)
    rho_p = np.linspace(0.0, 12.0, 49)
    arr = propagator_closed(p, 0.4, 1.5, rho_p)
    pts = np.array([propagator_closed(p, 0.4, 1.5, float(x)) for x in rho_p])
    assert arr.shape == rho_p.shape
    assert all(isinstance(v, complex) for v in pts)
    assert np.all(np.abs(arr - pts) <= 1e-13 * np.abs(pts))


def test_closed_rejects_negative_radius():
    cfg = FieldConfig(gamma=1.0, mu=0.3)
    p = KernelParams(l=-1, delta_t=-0.2j, cfg=cfg)
    with pytest.raises(DomainError):
        propagator_closed(p, 0.0, 1.0, np.array([0.5, -0.1]))


def test_closed_rejects_real_axis_singularity():
    cfg = FieldConfig(gamma=1.0, mu=0.3)
    p = KernelParams(l=-1, delta_t=2.0 * math.pi, cfg=cfg)
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
    p = KernelParams(l=-1, delta_t=-0.05j, cfg=cfg)
    series = propagator_series(p, 0.7, 1.0, 2.0)
    assert len(calls) == 1
    closed = propagator_closed(p, 0.7, 1.0, 2.0)
    assert abs(series - closed) < 1e-8 * abs(closed)


def test_series_cost_linear_in_terms(monkeypatch):
    # each radial number is requested once: the 48-term blocks add to one
    # running sum instead of re-weighting the whole prefix
    yielded, requested = [0], [0]

    def rows(*args):
        for row in laguerre_fn_rows(*args):
            yielded[0] += 1
            yield row

    def numbers(j, alpha, m):
        requested[0] += np.size(m)
        return _radial_numbers(j, alpha, m)

    monkeypatch.setattr(completeness, "laguerre_fn_rows", rows)
    monkeypatch.setattr(completeness, "_radial_numbers", numbers)
    cfg = FieldConfig(gamma=1.0, mu=0.3)
    p = KernelParams(l=-1, delta_t=-0.05j, cfg=cfg)
    series = propagator_series(p, 0.7, 1.0, 2.0)
    assert yielded[0] >= 3 * 48
    assert requested[0] == yielded[0]
    closed = propagator_closed(p, 0.7, 1.0, 2.0)
    assert abs(series - closed) < 1e-8 * abs(closed)


def test_closed_tiny_time_raises_typed_error():
    # |z| = sqrt(rho rho') / sinh(tau / 2) = 2e9 is past scipy's Bessel
    # range, where the value was once a silent nan+nanj
    cfg = FieldConfig(gamma=1.0, mu=0.3)
    for dt in (-1e-9j, 1e-9):
        p = KernelParams(l=2, delta_t=dt, cfg=cfg)
        with pytest.raises(DomainError, match="outside the range"):
            propagator_closed(p, 0.0, 1.0, 1.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf])
def test_closed_non_finite_time_raises_typed_error(tau, recwarn):
    # the caustic count floor((Im phi + pi) / 2 pi) raised a bare ValueError
    # on a nan or inf time, after RuntimeWarnings
    cfg = FieldConfig(mu=0.3)
    for dt in (-1j * tau, tau - 0.1j):
        p = KernelParams(l=2, delta_t=dt, cfg=cfg)
        with pytest.raises(DomainError, match="kernel time must be finite"):
            propagator_closed(p, 0.0, 1.0, 1.0)
    assert not recwarn.list


def test_closed_nan_radius_raises_typed_error():
    # a nan radius passed the negative-radius check and returned nan
    p = KernelParams(l=2, delta_t=-0.05j, cfg=FieldConfig(mu=0.3))
    for rho, rho_p in ((math.nan, 1.0), (1.0, np.array([0.5, math.nan]))):
        with pytest.raises(DomainError, match="not nan"):
            propagator_closed(p, 0.0, rho, rho_p)


def test_closed_far_out_underflows_to_zero(recwarn):
    # the kernel is about exp(-70000) here; the unscaled Bessel factor
    # would overflow, the scaled one leaves its growth in the exponent
    cfg = FieldConfig(gamma=1.0, mu=0.3)
    p = KernelParams(l=2, delta_t=3.0 - 0.1j, cfg=cfg)
    val = propagator_closed(p, 0.0, 1e6, 2e6)
    assert val == 0.0
    assert not recwarn.list


@pytest.mark.parametrize("mu,l,tau", [
    (0.999, 2, 1500.0),  # sinh and cosh of phi overflowed: nan
    (0.3, -1, 1e4),      # the phase exp(tau (l + mu) / 2) overflowed alone
    (0.3, -40, 50.0),    # that phase against a Bessel factor below the double range
])
def test_closed_long_wick_time_matches_series(mu, l, tau, recwarn):
    p = KernelParams(l=l, delta_t=-1j * tau, cfg=FieldConfig(mu=mu))
    closed = propagator_closed(p, 0.0, 1.0, 2.0)
    series = propagator_series(p, 0.0, 1.0, 2.0)
    assert np.isfinite(closed) and not recwarn.list
    assert abs(closed - series) <= 1e-8 * abs(series)
    if l == -40:
        assert series == pytest.approx(1.7320993655328986e-54j, rel=1e-14)


@pytest.mark.parametrize("mu", [0.0, 0.3, 0.5, 0.85])
@pytest.mark.parametrize("l", [-3, -1, 0, 2])
def test_closed_equals_series_past_the_caustics(mu, l):
    # z = sqrt(rho rho') / sinh(phi) crosses the cut of I_nu at every Re(gamma dt)
    # = (2k - 1) 2 pi; continued from the Wick axis the Bessel factor gains
    # e^(-2 pi i nu k).  Worst 5.4e-12 (l = 2, mu = 0.3, already 1.4e-12 at
    # t = 6); the principal branch alone is off by up to 2.0, except at mu = 0
    cfg = FieldConfig(mu=mu)
    for t in (3, 6, 7, 12, 13, 19, 25, 32, -3, -7, -13, -20):
        p = KernelParams(l=l, delta_t=t - 0.1j, cfg=cfg)
        series = propagator_series(p, 0.4, 1.0, 2.0)
        assert abs(propagator_closed(p, 0.4, 1.0, 2.0) - series) <= 1e-10 * abs(series), t


@pytest.mark.parametrize("l,dt", [(-40, 9 - 50j), (-40, 15 - 50j), (-3, 7 - 600j)])
def test_closed_past_the_caustics_at_long_times(l, dt):
    # past the first caustic and on the underflow route: 9.4e-14, 2.4e-14 and
    # 4e-15 with the continuation rule, 1.618 = |e^(2 pi i mu) - 1| without
    p = KernelParams(l=l, delta_t=dt, cfg=FieldConfig(mu=0.3))
    series = propagator_series(p, 0.0, 1.0, 2.0)
    assert abs(propagator_closed(p, 0.0, 1.0, 2.0) - series) <= 1e-12 * abs(series)


def test_series_rejects_real_time():
    cfg = FieldConfig(mu=0.3)
    p = KernelParams(l=-1, delta_t=0.5, cfg=cfg)
    with pytest.raises(DomainError):
        propagator_series(p, 0.0, 1.0, 2.0)


def test_radial_delta_smearing_monotone():
    cfg = FieldConfig(gamma=1.0, mu=0.3)
    errs = []
    for tau in np.geomspace(0.2, 0.02, 6):
        p = KernelParams(l=-1, delta_t=-1j * float(tau), cfg=cfg)
        errs.append(radial_delta_smear(p, rho=1.5))
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.6 * errs[0]


@pytest.mark.parametrize("call", [
    lambda: radial_delta_smear(KernelParams(l=-1, delta_t=1.0 - 0.5j, cfg=FieldConfig(mu=0.3)),
                               1.0),                       # off the Wick axis
    lambda: _ln_q_grid_series(0.5, np.array([0.0, 1.0]), np.array([1.0, 1.0])),   # u = 0
], ids=["smear-off-wick", "grid-q-at-zero"])
def test_completeness_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_angular_delta_smearing_converges():
    e10 = angular_delta_smear(10)
    e25 = angular_delta_smear(25)
    e40 = angular_delta_smear(40)
    assert e25 < e10 and e40 <= e25 * 1.5
    assert e40 < 1e-10
