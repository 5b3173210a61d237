"""Machinery for machine-checking the resolutions of unity.

Contents:

* weight functions of the coherent-state measure and their mu = 1/2
  closed form,
* the Stieltjes moment checks (moments of exp(-x) against Gamma),
* the auxiliary G matrix (angular integrals analytic, radial by
  quadrature) and the reconstruction of the Gram matrix from the
  coherent-state measure,
* the fixed-angular-number propagator kernel: spectral mode sum and its
  Bessel closed form of Hille-Hardy type, with the smeared
  delta-function limits used to verify completeness numerically.

All delta-type statements are tested in smeared form only: the kernels
are paired with smooth concentrated test functions (Gaussians in rho,
Fourier modes in the angle).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .specfun import (
    DomainError,
    TruncationError,
    bessel_i,
    erf,
    exp_in_range,
    laguerre_fn_rows,
    ln_gamma,
    ln_marcum_p,
)
from .landau import (FieldConfig, _check_branch, _laguerre_order, _marcum_args,
                     _radial_numbers, make_quadrature, resolve_qnums)
from .radial import make_radial_grid

__all__ = [
    "WeightSpec",
    "KernelParams",
    "weight_fn",
    "weight_half_closed",
    "moment_check",
    "g_matrix",
    "unity_reconstruction",
    "propagator_closed",
    "propagator_series",
    "radial_delta_smear",
    "angular_delta_smear",
]

# Gauss nodes of the moment rules (more where the degree needs them)
_MOMENT_NODES = 80
# relative term tolerance and term cap of the grid Q series
_GRID_REL_TOL = 1e-15
_GRID_MAX_TERMS = 40_000
# relative tail bound and term cap of the propagator mode sum
_MODE_REL_TOL = 1e-14
_MODE_MAX_TERMS = 10**6
# Gaussian test-function widths of the smeared delta checks, angle samples
_RADIAL_SMEAR_WIDTH = 0.35
_ANGULAR_SMEAR_WIDTH = 0.5
_ANGULAR_SMEAR_POINTS = 801


@dataclass(frozen=True)
class WeightSpec:
    """Branch and flux fraction selecting one weight function."""

    j: int
    mu: float

    def __post_init__(self):
        if self.j not in (0, 1):
            raise DomainError("branch j must be 0 or 1")
        if not (0.0 <= self.mu < 1.0):
            raise DomainError("mu must lie in [0, 1)")


def weight_fn(spec: WeightSpec, u, v):
    """Measure density W_j(u, v) on squared label moduli, elementwise.

    W_0 = pi^-2 exp(-(u+v)) Q_{1-mu}(sqrt u, sqrt v) = pi^-2 P_{1-mu}(u, v)
    W_1 = pi^-2 exp(-(u+v)) Q_mu(sqrt v, sqrt u)     = pi^-2 P_mu(v, u)

    with P the complementary Marcum function of
    :func:`msf.specfun.ln_marcum_p`, which rejects negative u, v.
    Scalar inputs give a float, arrays an array.
    """
    w = np.exp(ln_marcum_p(*_marcum_args(spec.j, spec.mu, u, v))) / math.pi**2
    return float(w) if np.ndim(w) == 0 else w


def weight_half_closed(j: int, u, v):
    """Closed form of the weight at mu = 1/2, elementwise over u, v >= 0.

    W_j = [erf(sqrt u + sqrt v) -+ erf(sqrt u - sqrt v)] / (2 pi^2),
    minus sign for j = 0.  Scalar inputs give a float, arrays an array.
    """
    if j not in (0, 1):
        raise DomainError("branch j must be 0 or 1")
    if np.any(np.less(u, 0.0)) or np.any(np.less(v, 0.0)):
        raise DomainError("weight_half_closed requires u, v >= 0")
    su, sv = np.sqrt(u), np.sqrt(v)
    sign = -1.0 if j == 0 else 1.0
    return (erf(su + sv) + sign * erf(su - sv)) / (2.0 * math.pi**2)


@dataclass(frozen=True)
class MomentCheck:
    quadrature_value: float
    gamma_value: float
    abs_err: float


def moment_check(n: float) -> MomentCheck:
    """Moment of exp(-x) on (0, inf): quadrature vs Gamma(1+n), n > -1.

    The fractional part of the exponent is moved into the quadrature
    weight so the remaining integrand is a polynomial and the Gauss rule
    is exact up to rounding.
    """
    if not n > -1.0:
        raise DomainError("moment exponent must exceed -1")
    k = max(0, math.floor(n))
    frac = n - k
    quad = make_quadrature(frac, max(_MOMENT_NODES, k + 2))
    gval = exp_in_range(ln_gamma(1.0 + n).real, "Gamma(1 + n)")
    # x^k overflows at the largest nodes long before the moment does: the
    # nodes are scaled by a power of two 2^e above them, undone exactly
    e = math.frexp(quad.nodes.max())[1]
    qval = math.ldexp(float(quad.integrate_weighted(np.ldexp(quad.nodes, -e) ** k)), e * k)
    return MomentCheck(quadrature_value=qval, gamma_value=gval, abs_err=abs(qval - gval))


def g_matrix(m: int, n: int, l: int, k: int, mu: float, j: int = 0) -> float:
    """Radial measure integral G(m, n; l, k) for the exponential density.

    The two angular integrals reduce to Kronecker deltas, so the value
    vanishes exactly unless m = n and l = k; the surviving double
    integral factorizes into two one-dimensional moments of exp(-x),
    each evaluated by a fractional-weight Gauss rule.  The closed form
    is Gamma(1+m) Gamma(1+m-l-mu) on branch 0 and
    Gamma(1+m+l+mu) Gamma(1+m) on branch 1: the u- and v-exponents are
    the branch quantum numbers (n1, n2).
    """
    if m != n or l != k:
        return 0.0
    q = resolve_qnums(j, l, m, FieldConfig(mu=mu))
    return moment_check(q.n1).quadrature_value * moment_check(q.n2).quadrature_value


def _ln_q_grid_series(nu: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Elementwise ln Q_nu(sqrt u, sqrt v) via the truncated-exponential form.

    Collapsing the double power series along diagonals l + m = k gives

        Q_nu = sum_k  v^(nu+k) e_k(u) / Gamma(nu+k+1),
        e_k(u) = sum_{m<=k} u^m / m!,

    with e_k accumulated iteratively in log space.  A node retires once
    its own latest term is below _GRID_REL_TOL of its sum; the terms are
    log-concave in k, so the rest of its series is smaller still.
    Independent of the Marcum-P kernel, used as its cross-check on
    grids; u, v > 0.
    """
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    if np.any(u <= 0) or np.any(v <= 0):
        raise DomainError("grid Q evaluation requires positive arguments")
    ln_a, ln_b = np.log(u).ravel(), np.log(v).ravel()
    ln_ek = np.zeros(ln_a.shape)
    ln_total = nu * ln_b - _sp.gammaln(nu + 1.0)
    out = np.empty(ln_a.shape)
    live = np.arange(ln_a.size)
    ln_tol = math.log(_GRID_REL_TOL)
    k = 0
    while live.size:
        k += 1
        ln_ek = np.logaddexp(ln_ek, k * ln_a - _sp.gammaln(k + 1.0))
        ln_term = (nu + k) * ln_b - _sp.gammaln(nu + k + 1.0) + ln_ek
        ln_total = np.logaddexp(ln_total, ln_term)
        if k > 4:
            done = ln_term - ln_total < ln_tol
            if np.any(done):
                out[live[done]] = ln_total[done]
                keep = ~done
                live, ln_a, ln_b = live[keep], ln_a[keep], ln_b[keep]
                ln_ek, ln_total = ln_ek[keep], ln_total[keep]
        if live.size and k >= _GRID_MAX_TERMS:
            raise TruncationError("grid Q series did not converge",
                                  float(np.max(ln_total)), float(np.max(ln_term)))
    return out.reshape(u.shape)


def _unity_grid(mu: float, j: int, n_nodes: int):
    """Tensor Gauss grid (qu, qv, U, V) of the branch-j measure integral.

    The fractional parts of the exponents, shared within one branch, sit
    in the rule weights: on branch 0 the v-exponents are m - l - mu =
    integer - mu, and the weight v^(1-mu) leaves integer powers v^(m-l-1).
    """
    qu = make_quadrature(0.0 if j == 0 else mu, n_nodes)
    qv = make_quadrature((1.0 - mu if mu > 0 else 0.0) if j == 0 else 0.0, n_nodes)
    U, V = np.meshgrid(qu.nodes, qv.nodes, indexing="ij")
    return qu, qv, U, V


def unity_reconstruction(
    basis_pairs: list[tuple[int, int]],
    mu: float,
    j: int = 0,
    n_nodes: int = 140,
) -> np.ndarray:
    """Gram matrix reconstructed from the coherent-state measure.

    basis_pairs lists (l, m) on branch j.  The four z integrals reduce
    analytically to two radial ones; the remaining (u, v) integral of

        pi^2 [W_j(u, v) / N_j(u, v)] u^{n1} v^{n2} / (Gamma(1+n1) Gamma(1+n2))

    is evaluated on a tensor Gauss grid.  The weight comes from the
    Marcum-P kernel (:func:`msf.specfun.ln_marcum_p`) and the
    normalization from the independent diagonal power series, so a
    matrix close to the identity is a genuine check of the measure.
    Off-diagonal entries between different l vanish exactly.
    """
    cfg = FieldConfig(mu=mu)
    qnums = [resolve_qnums(j, l, m, cfg) for (l, m) in basis_pairs]
    qu, qv, U, V = _unity_grid(mu, j, n_nodes)
    frac_u, frac_v = qu.alpha, qv.alpha
    # pi^2 W_j exp(u+v) through the Marcum-P kernel and N_j through the
    # independent diagonal power series; their ratio is the exponential
    # density, reproduced numerically rather than by construction.
    nu, x, y = _marcum_args(j, mu, U, V)
    ln_w = ln_marcum_p(nu, x, y) + x + y
    ln_n = _ln_q_grid_series(nu, x, y)
    ratio = np.exp(ln_w - ln_n)
    n1 = np.array([q.n1 for q in qnums])
    n2 = np.array([q.n2 for q in qnums])
    pu = qu.weights * qu.nodes ** (n1[:, None] - frac_u)
    pv = qv.weights * qv.nodes ** (n2[:, None] - frac_v)
    diag = np.einsum("ku,uv,kv->k", pu, ratio, pv) * np.exp(
        -(_sp.gammaln(1.0 + n1) + _sp.gammaln(1.0 + n2)))
    # angular Kronecker deltas: only equal quantum numbers pair up
    lm = np.array(basis_pairs).reshape(-1, 2)
    same = (lm[:, None, :] == lm[None, :, :]).all(axis=-1)
    return np.where(same, diag[:, None], 0.0)


@dataclass(frozen=True)
class KernelParams:
    """Parameters of the fixed-l propagator kernel.

    delta_t may be complex with non-positive imaginary part; the purely
    imaginary axis delta_t = -i tau is the absolutely convergent
    (Wick-rotated) regime.  On the real axis only the closed form is
    defined, away from the zeros of sin(gamma t / 2).
    """

    j: int
    l: int
    mu: float
    delta_t: complex
    cfg: FieldConfig

    def __post_init__(self):
        _check_branch(self.j, self.l)
        if complex(self.delta_t).imag > 1e-15:
            raise DomainError("delta_t must have non-positive imaginary part")


def _check_radii(rho, rho_p):
    """DomainError unless every radius is non-negative (scalars or arrays)."""
    if (np.minimum(rho, rho_p) < 0.0).any():
        raise DomainError("rho must be non-negative")


def _wick_radial(nu: float, phi: float, rho, rho_p):
    """exp[-(rho + rho') coth(phi) / 2] I_nu(sqrt(rho rho') / sinh phi) / sinh phi.

    The radial factor of the Hille-Hardy kernels on the Wick axis, phi > 0
    (gamma tau / 2 for the propagator, gamma tau for the proper-time
    kernel), elementwise over rho and rho'.  The growth of I_nu is moved
    into the exponent through the scaled Bessel function; that exponent
    never exceeds 0 (sqrt(rho rho') <= (rho + rho') / 2), so small phi
    does not overflow.  Raises DomainError on a negative radius.
    """
    _check_radii(rho, rho_p)
    sh = np.sinh(phi)
    zarg = np.sqrt(rho * rho_p) / sh
    ln_mag = -0.5 * (rho + rho_p) * np.cosh(phi) / sh + zarg
    return np.exp(ln_mag) * bessel_i(nu, zarg, scaled=True) / sh


def _hille_hardy(nu: float, phi: complex, rho, rho_p):
    """exp[(i/2)(rho + rho') cot phi] I_nu(sqrt(rho rho') / (i sin phi)) / sin phi.

    The radial factor of the Hille-Hardy kernels off the Wick axis
    (gamma dt / 2 for the propagator, gamma s for the proper-time
    kernel), elementwise over rho and rho'.  Raises DomainError on a
    negative radius and near the singular points where sin phi vanishes.
    """
    _check_radii(rho, rho_p)
    s = cmath.sin(phi)
    if abs(s) < 1e-12:
        raise DomainError("kernel singular: sin(phi) vanishes")
    zarg = np.sqrt(rho * rho_p) / (1j * s)
    return np.exp(0.5j * (rho + rho_p) * cmath.cos(phi) / s) * bessel_i(nu, zarg) / s


def propagator_closed(p: KernelParams, dtheta: float, rho, rho_p):
    """Closed form of the fixed-l kernel (Hille-Hardy type).

    S_l = (gamma / 4 pi) exp[i (l - l0) dtheta - i (gamma/2)(l + mu) dt]
          * exp[(i/2)(rho + rho') cot(gamma dt / 2)] / sin(gamma dt / 2)
          * I_nu( sqrt(rho rho') / (i sin(gamma dt / 2)) ),

    nu = -(l + mu) on branch 0 and +(l + mu) on branch 1.  Wick-rotated
    times are evaluated through real hyperbolic factors with the scaled
    Bessel function, so small tau does not overflow.  Elementwise over
    rho and rho'; scalar radii give a complex.
    """
    g = p.cfg.gamma
    dt = complex(p.delta_t)
    nu = _laguerre_order(p.j, p.l, p.mu)
    phase = cmath.exp(1j * (p.l - p.cfg.l0) * dtheta - 1j * (g / 2.0) * (p.l + p.mu) * dt)
    if dt.real == 0.0 and dt.imag < 0.0:
        # Wick axis: everything real apart from the carried phase
        radial = _wick_radial(nu, g * -dt.imag / 2.0, rho, rho_p)
        out = (g / (4.0 * math.pi)) * phase * 1j * radial
    else:
        out = (g / (4.0 * math.pi)) * phase * _hille_hardy(nu, g * dt / 2.0, rho, rho_p)
    return complex(out) if np.ndim(out) == 0 else out


def propagator_series(p: KernelParams, dtheta: float, rho: float, rho_p: float) -> complex:
    """Spectral mode sum i sum_m exp(-i E_m dt) phi(x) conj(phi(x')).

    Absolutely convergent only for Im(dt) < 0; rejected otherwise.  One
    Laguerre recurrence feeds blocks of 48 terms; the tail is bounded
    geometrically by the factor |exp(-i gamma dt)| per step.
    """
    dt = complex(p.delta_t)
    if not dt.imag < 0.0:
        raise DomainError("mode sum requires Im(delta_t) < 0")
    g = p.cfg.gamma
    ratio = abs(cmath.exp(-1j * g * dt))  # < 1
    alpha = _laguerre_order(p.j, p.l, p.mu)
    phase_l = cmath.exp(1j * (p.l - p.cfg.l0) * dtheta)
    # branch phases of phi(x) phi*(x') cancel; N^2 = gamma / 2 pi
    block = 48
    rows = laguerre_fn_rows(alpha, _MODE_MAX_TERMS - 1, np.asarray([rho, rho_p]))
    prods = np.empty(0)
    while True:
        tab = np.array([next(rows) for _ in range(block)])
        prods = np.concatenate((prods, tab[:, 0] * tab[:, 1]))
        n1, _ = _radial_numbers(p.j, alpha, np.arange(prods.size, dtype=float))
        energies = g * (n1 + 0.5)
        weights = np.exp(-1j * energies * dt)
        total = 1j * (g / (2.0 * math.pi)) * phase_l * np.dot(weights, prods)
        tail = abs(weights[-1] * prods[-1]) * ratio / (1.0 - ratio)
        scale = max(abs(total), 1e-300)
        if tail * g / (2.0 * math.pi) <= _MODE_REL_TOL * scale:
            return complex(total)
        if prods.size + block > _MODE_MAX_TERMS:
            raise TruncationError("propagator mode sum did not converge",
                                  abs(total), tail)


def radial_delta_smear(p: KernelParams, rho: float) -> float:
    """Relative error of the smeared radial delta limit at Wick time.

    Integrates the closed kernel against a Gaussian test function g
    centered at rho and compares with i (gamma / 2 pi) g(rho); returns
    the relative deviation at dtheta = 0.
    """
    dt = complex(p.delta_t)
    if not (dt.real == 0.0 and dt.imag < 0.0):
        raise DomainError("smearing check runs on the Wick axis")
    width = _RADIAL_SMEAR_WIDTH
    grid = make_radial_grid(rho_max=rho + 14.0 * width + 6.0, tail_step=0.5)
    rp = grid.nodes
    gvals = np.exp(-((rp - rho) ** 2) / (2.0 * width**2))
    kvals = propagator_closed(p, 0.0, rho, rp)
    smeared = grid.integrate(kvals * gvals)
    target = 1j * p.cfg.gamma / (2.0 * math.pi)  # times g(rho) = 1
    return float(abs(smeared - target) / abs(target))


def angular_delta_smear(l_max: int) -> float:
    """Smeared check of sum_l e^{i l dtheta} / 2 pi -> delta(dtheta).

    Pairs the truncated Fourier comb with a smooth periodic Gaussian and
    returns |integral - h(0)| / |h(0)|.  Convergence in l_max verifies
    the angular part of the completeness statement.
    """
    theta = np.linspace(-math.pi, math.pi, _ANGULAR_SMEAR_POINTS)
    h = np.exp(-(theta**2) / (2.0 * _ANGULAR_SMEAR_WIDTH**2))
    # imaginary parts cancel pairwise; rows summed in l order
    comb = np.cos(np.outer(np.arange(-l_max, l_max + 1), theta)).sum(axis=0)
    comb /= 2.0 * math.pi
    integral = np.trapezoid(comb * h, theta)
    return float(abs(integral - h[theta.size // 2]) / abs(h[theta.size // 2]))
