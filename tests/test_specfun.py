"""Special-function layer: oracles first, then the implementation.

Expected values marked as frozen were computed with 30-digit mpmath
arithmetic or with the explicit brute-force oracles defined below.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, special as sp

from msf import specfun
from msf.landau import make_quadrature
from msf.specfun import (
    DomainError,
    IrregularOriginError,
    TruncationError,
    bessel_i,
    erf,
    laguerre_fn,
    laguerre_fn_table,
    ln_gamma,
    ln_marcum_p,
    q_sum,
)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def gamma_integral_oracle(s: float) -> float:
    """Gamma(s) by adaptive quadrature of its defining integral."""
    val, err = integrate.quad(lambda x: x ** (s - 1.0) * math.exp(-x), 0.0, np.inf,
                              epsabs=1e-13, epsrel=1e-13)
    assert err < 1e-10
    return val


def bessel_series_oracle(nu: float, z: complex, terms: int = 200) -> complex:
    """Defining power series of I_nu, summed directly."""
    total = 0.0 + 0.0j
    for k in range(terms):
        ln_mag = -sp.gammaln(k + 1.0) - sp.gammaln(nu + k + 1.0)
        total += (z / 2.0) ** (nu + 2 * k) * math.exp(ln_mag)
    return total


def erf_taylor_oracle(x: float, terms: int = 60) -> float:
    total = 0.0
    for k in range(terms):
        total += (-1) ** k * x ** (2 * k + 1) / (math.factorial(k) * (2 * k + 1))
    return 2.0 / math.sqrt(math.pi) * total


# ---------------------------------------------------------------------------
# ln_gamma
# ---------------------------------------------------------------------------


def test_ln_gamma_factorials():
    assert ln_gamma(1.0) == pytest.approx(0.0, abs=1e-15)
    assert ln_gamma(5.0) == pytest.approx(math.log(24.0), rel=1e-15)


def test_ln_gamma_against_integral_oracle():
    # frozen: Gamma(3.5) = 3.3233509704478425512  (30-digit arithmetic)
    assert math.exp(ln_gamma(3.5)) == pytest.approx(3.3233509704478425512, rel=1e-14)
    assert math.exp(ln_gamma(3.5)) == pytest.approx(gamma_integral_oracle(3.5), rel=1e-11)


def test_ln_gamma_complex_recurrence():
    z = 0.7 + 1.3j
    lhs = ln_gamma(z + 1.0)
    rhs = ln_gamma(z) + np.log(z)
    assert abs(lhs - rhs) < 1e-13
    assert ln_gamma(np.conj(z)) == pytest.approx(np.conj(ln_gamma(z)), rel=1e-13)


def test_ln_gamma_pole_rejected():
    with pytest.raises(DomainError):
        ln_gamma(0.0)
    with pytest.raises(DomainError):
        ln_gamma(-3.0)


# ---------------------------------------------------------------------------
# Laguerre functions
# ---------------------------------------------------------------------------


@given(m=st.integers(0, 25), alpha=st.floats(-0.9, 6.0), x=st.floats(0.0, 40.0))
@settings(max_examples=80, deadline=None)
def test_laguerre_fn_matches_scipy(m, alpha, x):
    # I_{m+alpha,m} = sqrt(m! / Gamma(m+alpha+1)) e^(-x/2) x^(alpha/2) L_m^alpha(x)
    n = m + alpha
    alpha = n - m  # the order laguerre_fn sees
    assume(x > 0.0 or alpha >= 0.0)
    ours = laguerre_fn(n, m, x)
    ref = sp.eval_genlaguerre(m, alpha, x) * math.exp(
        0.5 * (sp.gammaln(m + 1.0) - sp.gammaln(m + alpha + 1.0)) - x / 2.0
        + sp.xlogy(alpha / 2.0, x))
    assert ours == pytest.approx(ref, rel=1e-9, abs=1e-9 * (1 + abs(ref)))


@pytest.mark.parametrize("call", [
    lambda: laguerre_fn(1.0, 0.5, 1.0),                     # non-integer degree
    lambda: laguerre_fn(0.5, 2, 1.0),                       # order n - m <= -1
    lambda: laguerre_fn(1.0, 0, -1.0),                      # negative rho
    lambda: laguerre_fn_table(0.5, 3, np.array([-1.0])),
], ids=["degree", "order", "rho", "table-rho"])
def test_laguerre_domain_errors(call):
    with pytest.raises(DomainError):
        call()


def test_laguerre_fn_ground_profile():
    rho = np.linspace(0.0, 12.0, 25)
    np.testing.assert_allclose(laguerre_fn(0, 0, rho), np.exp(-rho / 2.0), rtol=1e-14)


def test_laguerre_fn_zero_at_origin_positive_order():
    assert laguerre_fn(1.7, 0, 0.0) == 0.0
    with pytest.raises(IrregularOriginError):
        laguerre_fn(-0.3, 0, 0.0)


def test_laguerre_fn_unit_norm_fractional_index():
    # integral of I_{2.7,2}^2 drho = 1, generalized Gauss-Laguerre oracle
    from msf.landau import make_quadrature

    alpha = 0.7
    quad = make_quadrature(2 * alpha - alpha, 64)  # weight rho^0.7 e^-rho
    # I^2 = e^-rho rho^alpha * (normalized poly)^2, so integrate the
    # polynomial part against the matched weight
    ln_norm = -sp.gammaln(alpha + 1.0)
    polys = laguerre_fn_table(alpha, 2, quad.nodes) * np.exp(
        quad.nodes / 2.0 - (alpha / 2.0) * np.log(quad.nodes))
    val = quad.integrate_weighted(polys[2] ** 2)
    assert val == pytest.approx(1.0, rel=1e-12)


def test_laguerre_fn_orthogonality():
    from msf.landau import make_quadrature

    alpha = 0.35
    quad = make_quadrature(alpha, 64)
    tab = laguerre_fn_table(alpha, 20, quad.nodes)
    polys = tab * np.exp(quad.nodes / 2.0 - (alpha / 2.0) * np.log(quad.nodes))
    gram = np.array([[quad.integrate_weighted(polys[a] * polys[b])
                      for b in range(21)] for a in range(21)])
    assert np.max(np.abs(gram - np.eye(21))) < 1e-10


def test_laguerre_fn_integer_index_reduces_to_plain_polynomials():
    # n = m: order alpha = 0, so I_{m,m} = e^{-rho/2} L_m(rho) and the
    # functions are unit-normalized
    from msf.landau import make_quadrature

    rho = np.linspace(0.0, 15.0, 31)
    for m in (0, 1, 3, 6):
        np.testing.assert_allclose(
            laguerre_fn(m, m, rho),
            np.exp(-rho / 2.0) * sp.eval_laguerre(m, rho), rtol=1e-12, atol=1e-13)
    quad = make_quadrature(0.0, 40)
    tab = laguerre_fn_table(0.0, 8, quad.nodes) * np.exp(quad.nodes / 2.0)
    for m in range(9):
        assert quad.integrate_weighted(tab[m] ** 2) == pytest.approx(1.0, abs=1e-10)


def test_laguerre_fn_table_where_the_start_underflows():
    # at rho = 1500 the m = 0 value exp(-rho/2) rho^(alpha/2) / sqrt(Gamma(1+alpha))
    # is below the double range, while rows near m = rho/4 are of order 0.01
    import mpmath as mp

    alpha, rho, rows = 0.3, 1500.0, (0, 150, 340, 380, 420)
    tab = laguerre_fn_table(alpha, max(rows), np.array([rho, 2.0]))
    with mp.workdps(40):
        for m in rows:
            expect = float(mp.sqrt(mp.factorial(m) / mp.gamma(m + alpha + 1))
                           * mp.exp(-rho / 2) * mp.power(rho, alpha / 2)
                           * mp.laguerre(m, alpha, rho))
            assert tab[m, 0] == pytest.approx(expect, abs=1e-13)
    assert np.max(np.abs(tab[300:, 0])) > 1e-3
    # the unscaled column is untouched by the scaled one
    np.testing.assert_array_equal(tab[:, 1], laguerre_fn_table(alpha, max(rows), 2.0)[:, 0])


@pytest.mark.parametrize("m_max", [0, 5, 30])
def test_laguerre_fn_table_over_a_column_of_orders(m_max):
    # one table over a column of orders is the scalar-order tables stacked,
    # bit for bit: irregular orders, the scaled start near rho = 1500 included
    alphas = np.array([-0.85, -0.15, 0.0, 0.3, 7.3])
    rho = np.geomspace(1e-8, 1500.0, 120)
    tab = laguerre_fn_table(alphas[:, None], m_max, rho)
    assert tab.shape == (m_max + 1, alphas.size, rho.size)
    np.testing.assert_array_equal(
        tab, np.stack([laguerre_fn_table(a, m_max, rho) for a in alphas], axis=1))


def test_laguerre_fn_large_arguments_no_overflow():
    # normalization factors for n, m around 180 must not overflow
    val = laguerre_fn(180.4, 180, 300.0)
    assert np.isfinite(val)


# ---------------------------------------------------------------------------
# modified Bessel function
# ---------------------------------------------------------------------------


def test_bessel_trivial_and_half_integer():
    assert bessel_i(0.0, 0.0) == 1.0
    for z in (0.3, 1.0, 4.7):
        closed = math.sqrt(2.0 / (math.pi * z)) * math.sinh(z)
        assert bessel_i(0.5, z) == pytest.approx(closed, rel=1e-13)


def test_bessel_frozen_values():
    # frozen with 30-digit arithmetic
    assert bessel_i(0.0, 1.0) == pytest.approx(1.2660658777520083356, rel=1e-13)
    assert bessel_i(-0.7, 2.5) == pytest.approx(2.898625798650681034, rel=1e-13)
    assert bessel_i(2.3, 9.0) == pytest.approx(801.82373783529715283, rel=1e-13)
    ref = 0.21301138168002323945 + 0.72087218420690264213j
    assert abs(bessel_i(0.3, 1.0 + 2.0j) - ref) < 1e-13


@given(nu=st.floats(-0.9, 8.0), re=st.floats(-6.0, 6.0), im=st.floats(-6.0, 6.0))
@settings(max_examples=60, deadline=None)
@example(nu=-2.225073858507e-311, re=0.0, im=1.0)  # subnormal order, where scipy's iv is nan
def test_bessel_matches_power_series(nu, re, im):
    z = complex(re, im)
    if abs(z) < 1e-3 or abs(z) > 10.0:
        return
    if re < 0.0 and abs(im) < 0.05:
        return  # avoid samples hugging the principal branch cut
    ref = bessel_series_oracle(nu, z)
    assert abs(bessel_i(nu, z) - ref) <= 1e-12 * max(abs(ref), 1.0)


def test_bessel_scaled_variant():
    x = 600.0
    scaled = bessel_i(1.2, x, scaled=True)
    assert np.isfinite(scaled) and scaled > 0
    # consistency with the asymptotic leading term e^x / sqrt(2 pi x)
    assert scaled == pytest.approx(1.0 / math.sqrt(2 * math.pi * x), rel=0.05)


@given(nu=st.floats(0.0, 500.0), re=st.floats(0.0, 1e6), im=st.floats(-1e3, 1e3), cplx=st.booleans())
@settings(max_examples=80, deadline=None)
@example(nu=0.3, re=800.0, im=0.0, cplx=False)
@example(nu=0.3, re=1e6, im=0.0, cplx=False)
@example(nu=0.3, re=800.0, im=1.0, cplx=True)
def test_bessel_finite_or_points_to_scaled(nu, re, im, cplx):
    # the plain value is finite, or a DomainError names the scaled route,
    # which is finite there
    z = complex(re, im) if cplx else re
    try:
        val = bessel_i(nu, z)
    except DomainError as err:
        assert "scaled=True" in str(err)
        assert np.isfinite(bessel_i(nu, z, scaled=True))
    else:
        assert np.isfinite(val)


def test_bessel_non_finite_argument_raises():
    # scipy gives nan at a nan or infinite z: each form raises instead, for a
    # scalar, a 0-d array and an array element
    for scaled in (False, True):
        for z in (math.nan, math.inf, -math.inf, complex(math.inf, 0.0), complex(1.0, math.nan)):
            forms = [z, np.array(z), np.array([1.0, z])]
            forms += [np.float64(z)] if isinstance(z, float) else [np.complex128(z)]
            for arg in forms:
                with pytest.raises(DomainError, match="not a finite argument"):
                    bessel_i(0.3, arg, scaled=scaled)


def test_bessel_singular_points_raise():
    # one finiteness rule for both forms; the message names the cause
    for scaled in (False, True):
        for nu, z in ((-0.3, 0.0), (-0.3, 0j), (0.3, -1.0), (-0.3, np.array([1.0, 0.0]))):
            with pytest.raises(DomainError, match="infinite or not real"):
                bessel_i(nu, z, scaled=scaled)
        for z in (2e9, -2e9j, 1e300):
            with pytest.raises(DomainError, match="outside the range of scipy"):
                bessel_i(0.3, z, scaled=scaled)
    with pytest.raises(DomainError, match="scaled=True"):
        bessel_i(0.3, np.array([1.0, 900.0]))
    assert np.all(np.isfinite(bessel_i(0.3, np.array([1.0, 900.0]), scaled=True)))
    # a Python float and an np.float64 take one ufunc call; each raises as a
    # 0-d array does
    for z, scaled in ((2e9, True), (2e9, False), (-1.0, True), (-1.0, False), (800.0, False)):
        msgs = set()
        for kind in (float, np.float64, np.array):
            with pytest.raises(DomainError) as err:
                bessel_i(0.3, kind(z), scaled=scaled)
            msgs.add(str(err.value))
        assert len(msgs) == 1


# ---------------------------------------------------------------------------
# erf
# ---------------------------------------------------------------------------


def test_erf_endpoints_and_taylor():
    assert erf(0.0) == 0.0
    assert erf(30.0) == pytest.approx(1.0, abs=1e-15)
    assert erf(1.0) == pytest.approx(0.84270079294971486934, abs=1e-14)
    for x in (0.2, 0.9, 1.7):
        assert erf(x) == pytest.approx(erf_taylor_oracle(x), abs=1e-14)


# ---------------------------------------------------------------------------
# Q series
# ---------------------------------------------------------------------------


def q_double_series_oracle(nu, u, v, lmax=200, mmax=250):
    """Brute-force double power series in (u^2, v^2), linear arithmetic.

    Term (l, m) is b^(nu+l+m) a^m / (m! Gamma(nu+l+m+1)) with a = u^2,
    b = v^2, and 0^0 = 1.
    """
    a, b = u * u, v * v
    l, m = np.meshgrid(np.arange(lmax), np.arange(mmax), indexing="ij")
    p = nu + l + m
    ln_t = sp.xlogy(p, b) + sp.xlogy(m, a) - sp.gammaln(m + 1.0) - sp.gammaln(p + 1.0)
    return float(np.sum(np.exp(ln_t)))


def test_q_sum_trivial_edges():
    assert q_sum(0.7, 1.3, 0.0) == 0.0
    assert q_sum(0.0, 1.3, 0.0) == 1.0
    assert q_sum(0.0, 0.0, 0.0) == 1.0
    for bad in ((-0.2, 1.0, 1.0), (0.5, -1.0, 1.0), (0.5, 20.0, 20.0)):
        with pytest.raises(DomainError):
            q_sum(*bad)


def test_q_sum_frozen_values():
    # frozen with 30-digit arithmetic
    assert q_sum(0.7, math.sqrt(0.5), math.sqrt(1.2)) == pytest.approx(
        3.4883038287172581419, rel=1e-13)
    assert q_sum(0.3, 1.3, 0.8) == pytest.approx(2.9656440922843153067, rel=1e-13)


def test_q_sum_against_double_series_oracle():
    for (nu, u, v) in [(0.25, 0.9, 1.4), (0.5, 1.0, 1.0), (0.9, 2.0, 0.3),
                       (0.0, 1.1, 2.2)]:
        assert q_sum(nu, u, v) == pytest.approx(
            q_double_series_oracle(nu, u, v), rel=1e-12)


def test_q_sum_half_order_erf_closed_form():
    # Q_{1/2}(a,b) = e^{a^2+b^2} [erf(a+b) - erf(a-b)] / 2
    for a, b in [(1.0, 1.0), (0.4, 2.1), (2.5, 0.7), (3.0, 3.0)]:
        closed = math.exp(a * a + b * b) * (erf(a + b) - erf(a - b)) / 2.0
        assert q_sum(0.5, a, b) == pytest.approx(closed, rel=1e-12)
    # frozen Q_{1/2}(1,1) = e^2 erf(2) / 2
    assert q_sum(0.5, 1.0, 1.0) == pytest.approx(3.677246026369880839, rel=1e-13)


def test_q_sum_zero_flux_exponential_rule():
    # integer-order lattice: Q_1(su, sv) + Q_0(sv, su) = e^{u+v} exactly
    for u in np.linspace(0.0, 9.0, 7):
        for v in np.linspace(0.0, 9.0, 7):
            total = q_sum(1.0, math.sqrt(u), math.sqrt(v)) + q_sum(
                0.0, math.sqrt(v), math.sqrt(u))
            assert total == pytest.approx(math.exp(u + v), rel=1e-10)


def test_q_sum_fractional_order_sum_rule_deviation():
    """For mu in (0,1) the exponential sum rule fails by a Bessel-K tail.

    At mu = 1/2 the deviation has the closed form
    e^{u+v} erfc(sqrt u + sqrt v); this pins the deviation as a real
    property of the shifted-order lattice, not a numerical artifact.
    """
    for (u, v) in [(0.5, 1.2), (2.0, 3.0), (1.0, 1.0)]:
        total = q_sum(0.5, math.sqrt(u), math.sqrt(v)) + q_sum(
            0.5, math.sqrt(v), math.sqrt(u))
        expected = math.exp(u + v) * erf(math.sqrt(u) + math.sqrt(v))
        assert total == pytest.approx(expected, rel=1e-12)
        deviation = math.exp(u + v) - total
        assert deviation > 1e-6  # genuinely nonzero


def ln_marcum_p_oracle(nu: float, u: float, v: float, m_max: int | None = None) -> float:
    """ln P_nu(u, v) from the finite Poisson-gamma sum in 50-digit arithmetic.

    By default the sum runs to m = u + 30 sqrt(u) + 200, far past the
    Poisson bulk; mpmath's nsum is avoided because its extrapolation goes
    wrong here (ln P = -950.6 instead of -4.534 at (0.7, 1000, 900)).
    """
    import mpmath as mp

    with mp.workdps(50):
        nu, u, v = mp.mpf(nu), mp.mpf(u), mp.mpf(v)
        if m_max is None:
            m_max = int(u + 30 * mp.sqrt(u)) + 200
        total = mp.mpf(0)
        for m in range(m_max + 1):
            g = mp.gammainc(nu + m, 0, v, regularized=True) if nu + m > 0 else 1
            total += mp.exp(-u + m * mp.log(u) - mp.loggamma(m + 1)) * g
        return float(mp.log(total))


@pytest.mark.parametrize("nu, u, v", [
    (0.5, 200.0, 2.0), (0.3, 376.0, 0.014), (0.8, 700.0, 1.0),   # lower tail
    (0.5, 400.0, 400.0), (0.7, 1000.0, 900.0),                   # bulk, large arguments
    (0.0, 300.0, 5.0),                                           # zero order, lower tail
])
def test_ln_marcum_p_against_mpmath(nu, u, v):
    expect = ln_marcum_p_oracle(nu, u, v)
    assert ln_marcum_p(nu, u, v) == pytest.approx(expect, rel=1e-12, abs=1e-13)


def test_ln_marcum_p_where_gammainc_underflows():
    # the dominant terms sit near m = sqrt(u v) ~ 158, where P(nu+m, v) is
    # below 1e-280.  Term m is at most e^-u u^m / m! v^(nu+m) / Gamma(nu+m+1),
    # a bound that falls by u v / (m (m + nu)) < 0.03 per step past m = 1000,
    # so the terms past m = 1000 add less than e^-1000 of the total.
    expect = ln_marcum_p_oracle(0.5, 5e4, 0.5, m_max=1000)
    assert ln_marcum_p(0.5, 5e4, 0.5) == pytest.approx(expect, rel=1e-13)


def test_ln_marcum_p_matches_q_sum():
    for nu in (0.0, 0.3, 0.5, 1.0):
        for u in (0.0, 0.4, 2.5, 9.0):
            for v in (0.3, 1.7, 9.0):
                q = q_double_series_oracle(nu, math.sqrt(u), math.sqrt(v))
                assert math.exp(u + v + ln_marcum_p(nu, u, v)) == pytest.approx(q, rel=1e-12)


def test_ln_marcum_p_edges_and_shapes():
    assert ln_marcum_p(0.7, 2.0, 0.0) == -np.inf
    assert ln_marcum_p(0.0, 2.0, 0.0) == -2.0
    assert ln_marcum_p(0.0, 800.0, 0.0) == -800.0  # P_0(u, 0) = e^-u underflows
    assert ln_marcum_p(0.0, 0.0, 0.0) == 0.0
    # u = 0 leaves the regularized lower incomplete gamma function
    assert ln_marcum_p(0.4, 0.0, 1.3) == pytest.approx(math.log(sp.gammainc(0.4, 1.3)),
                                                        rel=1e-14)
    assert isinstance(ln_marcum_p(0.5, 1.0, 1.0), float)
    grid = ln_marcum_p(0.5, np.array([[1.0], [2.0]]), np.array([1.0, 3.0, 5.0]))
    assert grid.shape == (2, 3)
    assert grid[1, 2] == ln_marcum_p(0.5, 2.0, 5.0)
    for bad in ((-0.1, 1.0, 1.0), (0.5, -1.0, 1.0), (0.5, 1.0, np.nan), (0.5, np.inf, 1.0),
                (0.5, 1e15, 1e15)):
        with pytest.raises(DomainError):
            ln_marcum_p(*bad)


@given(nu=st.floats(0.0, 1.0), u=st.floats(0.0, 2000.0), v=st.floats(1e-3, 2000.0))
@settings(max_examples=60, deadline=None)
@example(nu=5e-324, u=0.0, v=1.0)  # subnormal nu, where chndtr is nan
def test_ln_marcum_p_finite_probability(nu, u, v):
    ln_p = ln_marcum_p(nu, u, v)
    assert math.isfinite(ln_p) and ln_p <= 1e-14


def test_mixture_retires_each_point_at_its_own_bound(monkeypatch):
    """Lower-tail nodes of the C07 grid (mu = 1/2, branch 0, 100 nodes).

    Each point leaves the Poisson-gamma mixture at the block where its
    own tail bound holds, so summing two sets together evaluates as many
    incomplete-gamma terms as summing them apart, with the same values.
    """
    u, v = np.meshgrid(make_quadrature(0.0, 100).nodes, make_quadrature(0.5, 100).nodes,
                       indexing="ij")
    p = sp.chndtr(2.0 * v, 1.0, 2.0 * u)
    tail = p < 1e-30
    u, v, p = u[tail], v[tail], p[tail]
    near = np.argsort(-p)[:4]                                 # next to the bulk
    far = [np.argmin(np.hypot(u - 375.0, v - 0.05))]          # (375, 0.024)
    evaluated = [0]
    ln_gammainc = specfun._ln_gammainc

    def spy(a, x):
        evaluated[0] += np.broadcast(a, x).size
        return ln_gammainc(a, x)

    monkeypatch.setattr(specfun, "_ln_gammainc", spy)
    counts, values = [], []
    for idx in (near, far, np.r_[near, far]):
        evaluated[0] = 0
        values.append(ln_marcum_p(0.5, u[idx], v[idx]))
        counts.append(evaluated[0])
    assert counts[2] == counts[0] + counts[1]
    np.testing.assert_array_equal(values[2], np.r_[values[0], values[1]])


def test_mixture_in_groups_gives_the_same_values(monkeypatch):
    # past 2^18 terms in one round the points run in groups, each summed on
    # its own: a round size of one block splits the C07 lower tail into one
    # group per point, with bitwise the values of one round over all of them
    u, v = np.meshgrid(make_quadrature(0.0, 100).nodes, make_quadrature(0.5, 100).nodes,
                       indexing="ij")
    tail = sp.chndtr(2.0 * v, 1.0, 2.0 * u) < 1e-30
    together = ln_marcum_p(0.5, u[tail], v[tail])
    monkeypatch.setattr(specfun, "_MIX_ROUND_SIZE", 16)
    np.testing.assert_array_equal(ln_marcum_p(0.5, u[tail], v[tail]), together)


def ln_marcum_p_window_oracle(nu: float, u: float, v: float) -> float:
    """ln P_nu(u, v) from a window of the Poisson-gamma sum about its peak, at 30 digits.

    The terms are log-concave in m, with their peak near the root m* of
    (m+1)(m+1+nu) = uv, so the window m* -+ (12 sqrt(m*+1) + 40) leaves
    out only a geometric tail on each side; both are checked to stay
    below 1e-25 of the sum.  P(nu+m, v) is mpmath's value at the top of
    the window, carried down by P(a, v) = P(a+1, v) + v^a e^-v /
    Gamma(a+1).  The oracle above starts at m = 0, out of reach at u = 1e8.
    """
    import mpmath as mp

    with mp.workdps(30):
        nu, u, v = mp.mpf(nu), mp.mpf(u), mp.mpf(v)
        peak = int(min(u, max(0, (mp.sqrt(nu * nu + 4 * u * v) - nu) / 2 - 1)))
        half = int(12 * math.sqrt(peak + 1)) + 40
        lo, hi = max(0, peak - half), peak + half
        p = mp.gammainc(nu + hi, 0, v, regularized=True)
        d = mp.exp((nu + hi - 1) * mp.log(v) - v - mp.loggamma(nu + hi))
        pois = mp.exp(-u + hi * mp.log(u) - mp.loggamma(hi + 1))
        terms = []  # from m = hi down to lo
        for m in range(hi, lo - 1, -1):
            terms.append(pois * p)
            p += d
            d *= (nu + m - 1) / v
            pois *= m / u
        total = mp.fsum(terms)
        for edge, inner in ((terms[0], terms[1]), (terms[-1], terms[-2]) if lo else (0, 1)):
            r = edge / inner
            assert r < 1 and edge * r / (1 - r) < mp.mpf(10) ** -25 * total
        return float(mp.log(total))


@pytest.mark.parametrize("nu", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("u, v", [(1e5, 1e3), (1e7, 1e3), (1e8, 1e4)])
def test_ln_marcum_p_far_lower_tail_against_mpmath(nu, u, v):
    # the peak term sits near m = sqrt(u v) = 1e4, 1e5 and 1e6; summed from
    # m = 0 the last point ran into the term cap
    expect = ln_marcum_p_window_oracle(nu, u, v)
    assert ln_marcum_p(nu, u, v) == pytest.approx(expect, rel=1e-12, abs=1e-13)


@pytest.mark.parametrize("nu", [0.0, 0.15, 0.5, 0.85, 1.0])
def test_ln_marcum_p_log_grid_is_finite(nu):
    # bulk and lower tail alike: a finite ln P <= 0 with no warning, point by
    # point and as one array call with bitwise the same values
    grid = [1e-3, 1e-1, 10.0, 1e3, 1e5, 1e7, 1e8]
    u, v = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        points = np.array([ln_marcum_p(nu, a, b) for a, b in zip(u, v)])
        together = ln_marcum_p(nu, u, v)
    assert np.all(np.isfinite(points)) and np.all(points <= 0.0)
    np.testing.assert_array_equal(together, points)


def test_mixture_term_cap_reports_partial_sum_and_tail(monkeypatch):
    # past the cap the error carries ln of the partial sum, which bounds
    # ln P below, and ln of the bound on the terms left, which with it
    # bounds ln P above
    expect = ln_marcum_p(0.5, 1e5, 1e3)
    monkeypatch.setattr(specfun, "_MIX_MAX_TERMS", 16)
    with pytest.raises(TruncationError) as err:
        ln_marcum_p(0.5, 1e5, 1e3)
    partial, tail = err.value.partial, err.value.tail_bound
    assert math.isfinite(partial) and math.isfinite(tail)
    assert partial < expect < np.logaddexp(partial, tail)
