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
  delta-function limits used to verify completeness numerically.  Its
  radial factor, :func:`_hille_hardy`, is one route for every time, and
  the proper-time kernel of :mod:`msf.dirac` shares it.

All delta-type statements are tested in smeared form only: the kernels
are paired with smooth concentrated test functions (Gaussians in rho,
Fourier modes in the angle).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .specfun import (
    DomainError,
    TruncationError,
    _integer,
    bessel_i,
    erf,
    exp_in_range,
    laguerre_fn_rows,
    ln_gamma,
    ln_marcum_p,
)
from .landau import (FieldConfig, _branch_of, _laguerre_order, _marcum_args,
                     _radial_numbers, make_quadrature, resolve_qnums)
from .radial import make_radial_grid

__all__ = [
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
# ratio grids kept by _unity_ratio; one verify pass uses one at mu = 1/2, two otherwise
_UNITY_CACHE_SIZE = 8


def weight_fn(j: int, u, v, mu: float):
    """Measure density W_j(u, v) on squared label moduli, elementwise.

    W_0 = pi^-2 exp(-(u+v)) Q_{1-mu}(sqrt u, sqrt v) = pi^-2 P_{1-mu}(u, v)
    W_1 = pi^-2 exp(-(u+v)) Q_mu(sqrt v, sqrt u)     = pi^-2 P_mu(v, u)

    with P the complementary Marcum function of
    :func:`msf.specfun.ln_marcum_p`, which rejects negative u, v, as
    :func:`landau._marcum_args` rejects j and mu.  Scalar inputs give a
    float, arrays an array.
    """
    w = np.exp(ln_marcum_p(*_marcum_args(j, mu, u, v))) / math.pi**2
    return float(w) if np.ndim(w) == 0 else w


def weight_half_closed(j: int, u, v):
    """Closed form of the weight at mu = 1/2, elementwise over finite u, v >= 0.

    W_j = [erf(sqrt u + sqrt v) -+ erf(sqrt u - sqrt v)] / (2 pi^2),
    minus sign for j = 0.  Scalar inputs give a float, arrays an array.
    """
    if j not in (0, 1):
        raise DomainError("branch j must be 0 or 1")
    if not all(np.all(np.less_equal(0.0, x) & np.less(x, math.inf)) for x in (u, v)):
        raise DomainError("weight_half_closed requires finite u, v >= 0")
    su, sv = np.sqrt(u), np.sqrt(v)
    sign = -1.0 if j == 0 else 1.0
    return (erf(su + sv) + sign * erf(su - sv)) / (2.0 * math.pi**2)


@dataclass(frozen=True)
class MomentCheck:
    quadrature_value: float
    gamma_value: float
    abs_err: float


def moment_check(n: float) -> MomentCheck:
    """Moment of exp(-x) on (0, inf): quadrature vs Gamma(1+n), finite n > -1.

    The fractional part of the exponent is moved into the quadrature
    weight so the remaining integrand is a polynomial and the Gauss rule
    is exact up to rounding.
    """
    if not -1.0 < n < math.inf:
        raise DomainError("moment exponent must be finite and exceed -1")
    k = max(0, math.floor(n))
    frac = n - k
    quad = make_quadrature(frac, max(_MOMENT_NODES, k + 2))
    gval = exp_in_range(ln_gamma(1.0 + n).real, "Gamma(1 + n)")
    # x^k overflows at the largest nodes long before the moment does: the
    # nodes are scaled by a power of two 2^e above them, undone exactly
    e = math.frexp(quad.nodes.max())[1]
    qval = math.ldexp(float(quad.integrate_weighted(np.ldexp(quad.nodes, -e) ** k)), e * k)
    return MomentCheck(quadrature_value=qval, gamma_value=gval, abs_err=abs(qval - gval))


def g_matrix(m: int, n: int, l: int, k: int, mu: float) -> float:
    """Radial measure integral G(m, n; l, k) for the exponential density.

    (l, m) and (k, n) are checked first, each on the branch holding l or k.
    The two angular integrals reduce to Kronecker deltas, so the value
    vanishes exactly unless m = n and l = k; the surviving double
    integral factorizes into two one-dimensional moments of exp(-x),
    each evaluated by a fractional-weight Gauss rule.  The closed form
    is Gamma(1+m) Gamma(1+m-l-mu) on branch 0 and
    Gamma(1+m+l+mu) Gamma(1+m) on branch 1: the u- and v-exponents are
    the branch quantum numbers (n1, n2).
    """
    cfg = FieldConfig(mu=mu)
    q, q_k = (resolve_qnums(_branch_of(a), a, b, cfg) for a, b in ((l, m), (k, n)))
    if q != q_k:
        return 0.0
    return moment_check(q.n1).quadrature_value * moment_check(q.n2).quadrature_value


def _ln_q_grid_series(nu: float, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ln Q_nu(sqrt x_i, sqrt y_j) on the tensor grid of two node vectors.

    Collapsing the double power series along diagonals l + m = k gives

        Q_nu = sum_k  y^(nu+k) e_k(x) / Gamma(nu+k+1),
        e_k(x) = sum_{m<=k} x^m / m!,

    which factors over the grid: with the x factor
    C[i, k] = e^(s_i - x_i) e_k(x_i), a cumulative sum of Poisson terms,
    and the y factor A[j, k] = y_j^(nu+k) e^(-y_j) / Gamma(nu+k+1), the
    series of every node is one entry of C @ A.T, and
    ln Q = ln (C @ A.T) + x_i - s_i + y_j.  The row shift
    s_i = max(0, x_i - 600) keeps C and the product in the double range
    up to the largest Gauss nodes (x ~ 965 at n = 250), where e^-x alone
    underflows.  The terms are log-concave in k, so a node has converged
    once its last term falls, is below _GRID_REL_TOL of its sum, and
    bounds the rest, last * r / (1 - r) with r the ratio of the last two
    terms, by the same fraction.  The first product takes
    max y + 9 sqrt(max y) + 40 terms, enough for every node of the
    Gauss grids of make_quadrature, and the count doubles until every
    node has converged, up to _GRID_MAX_TERMS.  Independent of the
    Marcum-P kernel, used as its cross-check on grids.  x and y are 1-d;
    DomainError where a node is not positive and finite, or where the
    sum leaves the double range (x > 600 with y near 0).
    """
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if not (np.all((0.0 < x) & (x < math.inf)) and np.all((0.0 < y) & (y < math.inf))):
        raise DomainError("grid Q evaluation requires positive, finite arguments")
    x_shifted = np.minimum(x, 600.0)  # x_i - s_i
    n_terms = math.ceil(y.max() + 9.0 * math.sqrt(y.max()) + 40.0)
    while True:
        k = np.arange(n_terms, dtype=float)
        ln_a = np.outer(np.log(y), nu + k) - y[:, None] - _sp.gammaln(nu + k + 1.0)
        # past the Gauss range C overflows or the product underflows, which
        # the check below catches; r = 1 gives an infinite tail bound
        with np.errstate(all="ignore"):
            c = np.cumsum(np.exp(np.outer(np.log(x), k) - x_shifted[:, None]
                                 - _sp.gammaln(k + 1.0)), axis=1)
            ln_total = np.log(c @ np.exp(ln_a).T)
            ln_prev, ln_last = (np.log(c[:, [t]]) + ln_a[:, t] for t in (-2, -1))
            ln_r = ln_last - ln_prev
            ln_tail = ln_last + ln_r - np.log(-np.expm1(np.minimum(ln_r, 0.0)))
        if not np.all(np.isfinite(ln_total)):
            raise DomainError("grid Q series leaves the double range")
        done = (ln_r < 0.0) & (np.maximum(ln_last, ln_tail) - ln_total < math.log(_GRID_REL_TOL))
        if done.all():
            return ln_total + x_shifted[:, None] + y
        if n_terms >= _GRID_MAX_TERMS:
            raise TruncationError("grid Q series did not converge",
                                  float(np.max(ln_total)), float(np.max(ln_tail)))
        n_terms = min(2 * n_terms, _GRID_MAX_TERMS)


def _unity_grid(mu: float, j: int, n_nodes: int):
    """Gauss rules (qu, qv) of the branch-j measure integral's tensor grid.

    The fractional parts of the exponents, shared within one branch, sit
    in the rule weights: on branch 0 the v-exponents are m - l - mu =
    integer - mu, and the weight v^(1-mu) leaves integer powers v^(m-l-1).
    """
    qu = make_quadrature(0.0 if j == 0 else mu, n_nodes)
    qv = make_quadrature((1.0 - mu if mu > 0 else 0.0) if j == 0 else 0.0, n_nodes)
    return qu, qv


@functools.lru_cache(maxsize=_UNITY_CACHE_SIZE)
def _unity_ratio(nu: float, alpha_x: float, alpha_y: float, n_nodes: int) -> np.ndarray:
    """pi^2 W exp(x + y) / N on the Gauss nodes of weights x^alpha_x e^-x
    and y^alpha_y e^-y, in the Marcum coordinates (x, y) of the branch.

    The weight comes from the Marcum-P kernel and the normalization from
    the independent diagonal power series; their ratio is the exponential
    density, reproduced numerically rather than by construction.  Built
    once per argument set and cached read-only: at mu = 1/2 both branches
    read one grid.
    """
    xs, ys = make_quadrature(alpha_x, n_nodes).nodes, make_quadrature(alpha_y, n_nodes).nodes
    x, y = np.meshgrid(xs, ys, indexing="ij")
    ratio = np.exp(ln_marcum_p(nu, x, y) + x + y - _ln_q_grid_series(nu, xs, ys))
    ratio.setflags(write=False)
    return ratio


def unity_reconstruction(
    basis_pairs: list[tuple[int, int]],
    mu: float,
    j: int,
    n_nodes: int,
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
    qu, qv = _unity_grid(mu, j, n_nodes)
    frac_u, frac_v = qu.alpha, qv.alpha
    # the rules of (x, y) are those of (u, v) on branch 0 and of (v, u) on
    # branch 1, whose transpose is copied: einsum sums a strided view in
    # another order
    nu, qx, qy = _marcum_args(j, mu, qu, qv)
    ratio = _unity_ratio(nu, qx.alpha, qy.alpha, n_nodes)
    if j == 1:
        ratio = np.ascontiguousarray(ratio.T)
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
    """Parameters of the fixed-l propagator kernel, on the branch holding l.

    delta_t may be complex with non-positive imaginary part; the purely
    imaginary axis delta_t = -i tau is the absolutely convergent
    (Wick-rotated) regime.  On the real axis only the closed form is
    defined, away from the zeros of sin(gamma t / 2).
    """

    l: int
    delta_t: complex
    cfg: FieldConfig

    def __post_init__(self):
        _integer(self.l, "angular number l")
        if complex(self.delta_t).imag > 1e-15:
            raise DomainError("delta_t must have non-positive imaginary part")


def _any(mask) -> bool:
    """mask.any(), with bool() on a scalar: nanoseconds, not microseconds."""
    return mask.any() if isinstance(mask, np.ndarray) else bool(mask)


def _all(mask) -> bool:
    """mask.all(), with bool() on a scalar, as :func:`_any`."""
    return mask.all() if isinstance(mask, np.ndarray) else bool(mask)


def _hille_hardy(nu: float, phi: complex, rho, rho_p, ln_pref: complex):
    """exp(ln_pref - (rho + rho') coth(phi) / 2) I_nu(sqrt(rho rho') / sinh phi) / sinh phi.

    The radial factor of both Hille-Hardy kernels (Erdelyi et al.,
    Higher Transcendental Functions vol. 2, 10.12), elementwise over rho
    and rho', Re phi >= 0; the Wick axis is real phi, which runs in
    float64, and a float rho rho' there in Python floats with one scipy
    call.  coth phi and 1 / sinh phi come from 1 - e^(-2 phi), and all
    exponents (Re ln_pref, the Bessel growth |Re z|, the logs of 1/sinh phi
    and of the scaled Bessel factor) meet before one exp, so long times
    stay finite.  Where the scaled factor underflows, ln I_nu = nu ln(z/2)
    - ln Gamma(nu + 1) + ln 0F1(; nu + 1; z^2/4), with I_-n = I_n.  z
    crosses the cut of I_nu at each caustic Im phi = (2k - 1) pi; continued
    from the Wick axis (k = 0) the factor is e^(-2 pi i nu k) I_nu(z) for
    k = floor((Im phi + pi) / 2 pi).  Raises DomainError on a non-finite
    phi or ln_pref, on a negative, nan or infinite radius, where sinh phi
    vanishes, where the Bessel factor has no finite value, and where the
    value leaves the double range.
    """
    if not cmath.isfinite(phi):
        raise DomainError("kernel time must be finite")
    # no ufunc on the scalar path: np.minimum there took a microsecond
    if not _all((0.0 <= rho) & (0.0 <= rho_p)):  # nan fails too
        raise DomainError("rho must be non-negative, not nan")
    r_sum = rho + rho_p  # inf at an infinite radius, with no inf * 0
    if not (_all(r_sum < math.inf) and cmath.isfinite(ln_pref)):
        raise DomainError("kernel inputs must be finite: radii, angle and time")
    lib = np
    if phi.imag == 0.0:
        phi, lib = phi.real, math  # math: nanoseconds a call on a float
    one_q = -lib.expm1(-2.0 * phi)  # 2 e^(-phi) sinh phi
    if abs(one_q) < 2e-12 * math.exp(-phi.real):
        raise DomainError("kernel singular: sinh(phi) vanishes")
    ln_inv_sh = lib.log(2.0 / one_q) - phi
    # where 1 / sinh phi underflows to 0, each Bessel factor off the origin
    # comes from the series at the end
    inv_sh = 2.0 * lib.exp(-phi) / one_q
    rr = rho * rho_p
    # a float rho rho' on the Wick axis stays in Python floats to the end
    zarg = (math.sqrt(rr) if lib is math and isinstance(rr, float) else np.sqrt(rr)) * inv_sh
    bes = bessel_i(nu, zarg if inv_sh else np.sign(rr), scaled=True)
    ln_mag = (ln_pref.real - 0.5 * r_sum * (2.0 - one_q) / one_q
              + abs(zarg.real) + ln_inv_sh)
    k = math.floor((phi.imag + math.pi) / (2.0 * math.pi))  # caustics crossed
    phase = cmath.exp(1j * ln_pref.imag)
    if k:
        phase *= cmath.exp(-2j * math.pi * nu * k)
    if inv_sh and not _any(bes == 0.0):
        log = math.log if isinstance(ln_mag, float) else np.log
        return exp_in_range(ln_mag + log(bes), "kernel value") * phase
    lost = np.asarray(((bes == 0.0) | (not inv_sh)) & (rr > 0.0))
    ln_bes = np.full(lost.shape, -np.inf, dtype=np.result_type(bes, ln_inv_sh))
    ok = ~lost & (bes != 0.0)  # I_nu(0) = 0 stays -inf at rho rho' = 0
    ln_bes[ok] = np.log(np.asarray(bes)[ok])
    arg = np.angle(np.exp(1j * np.imag(ln_inv_sh)))  # Arg z on the principal branch
    ln_h = 0.5 * np.log(np.asarray(rr)[lost] / 4.0) + np.real(ln_inv_sh)  # ln |z/2|
    ln_h = ln_h + 1j * arg if arg else ln_h
    a = abs(nu) if nu == round(nu) else nu
    series = _sp.hyp0f1(a + 1.0, np.exp(2.0 * ln_h))
    if not np.all(np.isfinite(series)):  # at large z, where the scaled factor underflows
        raise DomainError("kernel Bessel factor has no finite value: the scaled I_nu "
                          "underflows and its series overflows")
    ln_bes[lost] = (a * ln_h - _sp.gammaln(a + 1.0) - abs(np.asarray(zarg)[lost].real)
                    + np.log(series))
    return exp_in_range(ln_mag + ln_bes, "kernel value") * phase


def propagator_closed(p: KernelParams, dtheta: float, rho, rho_p):
    """Closed form of the fixed-l kernel (Hille-Hardy type).

    S_l = (gamma / 4 pi) exp[i (l - l0) dtheta - i (gamma/2)(l + mu) dt]
          * exp[(i/2)(rho + rho') cot(gamma dt / 2)] / sin(gamma dt / 2)
          * I_nu( sqrt(rho rho') / (i sin(gamma dt / 2)) ),

    nu = -(l + mu) on branch 0 and +(l + mu) on branch 1.  The radial
    factor is i :func:`_hille_hardy` at phi = i gamma dt / 2 for every
    time, real on the Wick axis, with the phase as its exponent (which
    grows at long Wick times when l + mu < 0).  Raises DomainError on a negative
    radius, at the zeros of sin(gamma dt / 2), where the Bessel factor
    has no finite value (tau <= 1e-9 at rho = rho' = 1), and where the
    value leaves the double range.  Elementwise over rho and rho'; scalar
    radii give a complex.
    """
    g, mu = p.cfg.gamma, p.cfg.mu
    dt = complex(p.delta_t)
    nu = _laguerre_order(_branch_of(p.l), p.l, mu)
    ln_phase = 1j * (p.l - p.cfg.l0) * dtheta - 1j * (g / 2.0) * (p.l + mu) * dt
    out = (g / (4.0 * math.pi)) * 1j * _hille_hardy(nu, 0.5j * g * dt, rho, rho_p, ln_phase)
    return complex(out) if np.ndim(out) == 0 else out


def propagator_series(p: KernelParams, dtheta: float, rho: float, rho_p: float) -> complex:
    """Spectral mode sum i sum_m exp(-i E_m dt) phi(x) conj(phi(x')).

    Absolutely convergent only for Im(dt) < 0; rejected otherwise, and at a
    non-finite angle or time before the first term.  One
    Laguerre recurrence feeds blocks of 48 terms into one running sum;
    the tail is bounded geometrically by |exp(-i gamma dt)| per step.
    """
    dt = complex(p.delta_t)
    if not (cmath.isfinite(dt) and cmath.isfinite(dtheta)):
        raise DomainError("mode sum requires a finite angle and time")
    if not dt.imag < 0.0:
        raise DomainError("mode sum requires Im(delta_t) < 0")
    g = p.cfg.gamma
    ratio = abs(cmath.exp(-1j * g * dt))  # < 1
    j = _branch_of(p.l)
    alpha = _laguerre_order(j, p.l, p.cfg.mu)
    # branch phases of phi(x) phi*(x') cancel; N^2 = gamma / 2 pi
    pref = 1j * (g / (2.0 * math.pi)) * cmath.exp(1j * (p.l - p.cfg.l0) * dtheta)
    block = 48
    rows = laguerre_fn_rows(alpha, _MODE_MAX_TERMS - 1, np.asarray([rho, rho_p]))
    acc = 0j
    for m0 in range(0, _MODE_MAX_TERMS - block + 1, block):
        tab = np.array([next(rows) for _ in range(block)])
        prods = tab[:, 0] * tab[:, 1]
        n1, _ = _radial_numbers(j, alpha, np.arange(m0, m0 + block, dtype=float))
        weights = np.exp(-1j * (g * (n1 + 0.5)) * dt)
        acc += np.dot(weights, prods)
        total = pref * acc
        tail = abs(weights[-1] * prods[-1]) * ratio / (1.0 - ratio)
        if tail * g / (2.0 * math.pi) <= _MODE_REL_TOL * max(abs(total), 1e-300):
            return complex(total)
    raise TruncationError("propagator mode sum did not converge", abs(total), tail)


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
