"""Special functions used throughout the package.

Everything here is a pure function of its inputs.  The conventions:

* ``ln_gamma`` is the principal branch of log-Gamma.
* ``laguerre_fn`` evaluates the normalized Laguerre function

      I_{n,m}(rho) = sqrt(Gamma(1+m)/Gamma(1+n))
                     * exp(-rho/2) * rho^((n-m)/2) * L_m^{n-m}(rho),

  an orthonormal family on the half line: integral of I_{n,m} I_{n',m'}
  over rho in (0, inf) is delta_{mm'} for fixed n-m.
* ``ln_marcum_p`` evaluates, elementwise over arrays of squared
  moduli, the logarithm of the complementary Marcum function

      P_nu(u, v) = exp(-(u+v)) Q_nu(sqrt u, sqrt v),

  the one route to the weights and normalizations of the coherent-state
  measure.
* ``q_sum`` evaluates the Bessel series

      Q_nu(u, v) = sum_{l>=0} (v/u)^{nu+l} I_{nu+l}(2 u v)

  as exp(u^2 + v^2) P_nu(u^2, v^2), through the same Marcum kernel.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from scipy import special as _sp

__all__ = [
    "DomainError",
    "TruncationError",
    "IrregularOriginError",
    "ln_gamma",
    "laguerre_fn",
    "laguerre_fn_rows",
    "laguerre_fn_table",
    "bessel_i",
    "erf",
    "ln_marcum_p",
    "exp_in_range",
    "q_sum",
]


class DomainError(ValueError):
    """Argument outside the mathematical domain of an operation."""


class IrregularOriginError(DomainError):
    """Evaluation at rho = 0 of a profile that diverges at the origin."""


class TruncationError(RuntimeError):
    """A series failed to converge within the allowed number of terms.

    Carries the partial sum and the estimated tail so the caller can
    decide whether the partial result is still usable.
    """

    def __init__(self, message: str, partial: float, tail_bound: float):
        super().__init__(f"{message} (partial={partial!r}, tail_bound={tail_bound!r})")
        self.partial = partial
        self.tail_bound = tail_bound


def ln_gamma(x):
    """Principal-branch log-Gamma.

    Real input x > 0 returns a float; complex input off the non-positive
    real axis returns the principal branch (scipy's ``loggamma``).
    Raises DomainError at the poles.
    """
    if np.iscomplexobj(x) or isinstance(x, complex):
        z = complex(x)
        if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
            raise DomainError(f"ln_gamma pole at {z}")
        return complex(_sp.loggamma(z))
    xf = float(x)
    if xf <= 0.0:
        if xf == int(xf):
            raise DomainError(f"ln_gamma pole at {xf}")
        return complex(_sp.loggamma(complex(xf)))
    return float(_sp.gammaln(xf))


# below exp(-600) the start of the Laguerre recurrence runs scaled
_LN_START_FLOOR = -600.0
# scaled iterates are renormalized once they exceed this
_SCALED_CEILING = 1e200


def laguerre_fn_rows(alpha, m_max: int, rho):
    """Yield I_{m+alpha,m}(rho) for m = 0..m_max, broadcast over alpha and rho.

    The weighted three-term recurrence keeps the exp(-rho/2) rho^(alpha/2)
    factor inside the iterate, so no intermediate overflows occur even
    for large rho or large m.  Where that start factor alone would
    underflow (rho beyond about 1200 at small alpha), the iterate runs
    scaled by exp(-ln_scale) and is renormalized as it grows, so the
    rows of order one further up are not lost.
    """
    scalar = np.ndim(alpha) == 0
    alpha = float(alpha) if scalar else np.asarray(alpha, dtype=float)
    sqrt = math.sqrt if scalar else np.sqrt
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    if not rho.size:
        raise DomainError("rho must be non-empty")
    if not (alpha > -1.0 if scalar else np.all(alpha > -1.0)):
        raise DomainError("alpha must exceed -1")
    rho_min = rho.min()
    if not 0 <= rho_min <= rho.max() < math.inf:  # nan fails too
        raise DomainError("rho must be finite and non-negative")
    if rho_min == 0 and np.min(alpha) < 0:
        raise IrregularOriginError("profile diverges at rho = 0 for order alpha < 0")
    ln_start = -rho / 2 + _sp.xlogy(alpha / 2, rho) - _sp.gammaln(alpha + 1.0) / 2
    ln_scale, scaled = 0.0, False
    if ln_start.min() < _LN_START_FLOOR:  # -inf at rho = 0 is an exact zero
        ln_scale = np.where(np.isfinite(ln_start) & (ln_start < _LN_START_FLOOR), ln_start, 0.0)
        scaled = bool(np.any(ln_scale))
    p_prev, p = None, np.exp(ln_start - ln_scale)
    for m in range(m_max + 1):
        yield p * np.exp(ln_scale) if scaled else p
        if m == m_max:
            return
        if m == 0:
            p_next = (1.0 + alpha - rho) * p / sqrt(1.0 + alpha)
        else:
            a = 2 * m + alpha + 1 - rho
            b = sqrt(m * (m + alpha))
            c = sqrt((m + 1) * (m + 1 + alpha))
            p_next = (a * p - b * p_prev) / c
        p_prev, p = p, p_next
        if scaled:
            s = np.where(np.abs(p) > _SCALED_CEILING, np.abs(p), 1.0)
            p, p_prev, ln_scale = p / s, p_prev / s, ln_scale + np.log(s)


def laguerre_fn_table(alpha: float, m_max: int, rho) -> np.ndarray:
    """Normalized Laguerre functions I_{m+alpha,m}(rho) for m = 0..m_max.

    Returns an array of shape (m_max+1, *broadcast(alpha, rho).shape), rho
    taken as at least 1-d: the rows of :func:`laguerre_fn_rows` stacked.
    A column of orders ``alpha[:, None]`` gives one table per order along
    axis 1, each equal to its scalar-order table.
    """
    rows = laguerre_fn_rows(alpha, m_max, rho)
    first = next(rows)
    tab = np.empty((m_max + 1,) + first.shape)
    tab[0] = first
    for m, row in enumerate(rows, 1):
        tab[m] = row
    return tab


def laguerre_fn(n: float, m: int, rho):
    """Laguerre function I_{n,m}(rho) with real first index n > m - 1.

    The index pair follows the convention that m is the polynomial
    degree and alpha = n - m the order; the normalization makes the
    family orthonormal in rho on (0, inf).
    """
    if m < 0 or m != int(m):
        raise DomainError("degree m must be a non-negative integer")
    val = laguerre_fn_table(float(n) - int(m), int(m), rho)[int(m)]
    return val if np.ndim(rho) else float(val[0])


def bessel_i(nu: float, z, scaled: bool = False):
    """Modified Bessel function of the first kind I_nu(z).

    Real order nu (any sign), real or complex argument; principal
    branch.  With ``scaled=True`` returns exp(-|Re z|) I_nu(z), which
    stays finite where the plain value would overflow.  At a finite
    argument both forms return a finite value or raise DomainError that
    names the cause: past the double range (plain form, about
    |Re z| > 700; points to ``scaled=True``), infinite or not real (z = 0
    at negative non-integer order, real z < 0 at non-integer order), or
    outside the range of scipy's routines (such as |z| = 2e9).
    """
    nu = float(nu)
    if abs(nu) < _DOUBLE_TINY:
        nu = 0.0  # scipy's iv returns nan at subnormal orders with complex z
    fn = _sp.ive if scaled else _sp.iv
    if isinstance(z, float):  # np.float64 too: one ufunc call, no 0-d array
        out = fn(nu, z)
        if math.isfinite(out):
            return float(out)
    cplx = np.iscomplexobj(z) or isinstance(z, complex)
    zarr = np.asarray(z, dtype=complex if cplx else float)
    out = fn(nu, zarr)
    # one check on the success path; on a scalar cmath.isfinite is about
    # 60 times cheaper than np.isfinite(out).all()
    if not (cmath.isfinite(out) if zarr.ndim == 0 else np.isfinite(out).all()):
        bad = ~np.isfinite(out) & np.isfinite(zarr)
        if np.any(bad):
            zb = zarr[bad][0]
            if not scaled and np.isfinite(_sp.ive(nu, zb)):
                why = "exceeds the double range; scaled=True gives exp(-|Re z|) I_nu(z)"
            elif (zb == 0 and nu < 0 and nu != math.floor(nu)) or (not cplx and zb < 0):
                why = "is infinite or not real"
            else:
                why = "lies outside the range of scipy's Bessel routines"
            raise DomainError(f"I_{nu}(z) at z = {zb} {why}")
    if zarr.ndim == 0:
        return complex(out) if cplx else float(out)
    return out


def erf(x):
    """Error function, elementwise."""
    out = _sp.erf(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


# below this chndtr loses relative accuracy, and near 1e-300 it underflows to 0
_CHNDTR_FLOOR = 1e-30


def _ln_gammainc(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln P(a, x) of the regularized lower incomplete gamma function, x > 0.

    Below the double range P is taken from its Kummer form
    x^a e^-x M(1, a+1, x) / Gamma(a+1); there x << a, so M stays near 1.
    """
    a, x = np.broadcast_arrays(a, x)
    g = _sp.gammainc(a, x)
    with np.errstate(divide="ignore"):
        out = np.log(g)
    low = g < 1e-280
    if np.any(low):
        a, x = a[low], x[low]
        out[low] = (a * np.log(x) - x - _sp.gammaln(a + 1.0)
                    + np.log(_sp.hyp1f1(1.0, a + 1.0, x)))
    return out


def _ln_poisson_gamma_mixture(nu: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """ln sum_m exp(-u + m ln u - lnGamma(m+1)) P(nu+m, v) over 1-d u, v > 0.

    Summed in blocks of 16 m with a running logaddexp; short blocks keep
    the (m x points) temporaries small.  The terms are log-concave in m,
    so once a block ends on a decreasing step the rest is bounded by the
    geometric series of that step.  A point retires, with its total, at
    the end of the first block where that bound falls below 1e-17 of its
    own total; the later blocks are summed over the live points only.
    """
    block, ln_tol = 16, math.log(1e-17)
    out = np.empty(u.shape)
    live = np.arange(u.size)
    total = np.full(u.shape, -np.inf)
    m0 = 0
    while True:
        m = np.arange(m0, m0 + block, dtype=float)[:, None]
        ln_t = -u + _sp.xlogy(m, u) - _sp.gammaln(m + 1.0) + _ln_gammainc(nu + m, v)
        total = np.logaddexp(total, np.logaddexp.reduce(ln_t, axis=0))
        with np.errstate(invalid="ignore"):
            step = ln_t[-1] - ln_t[-2]
            ln_tail = ln_t[-1] + step - np.log1p(-np.exp(step))
            done = (ln_t[-1] == -np.inf) | ((step < 0) & (ln_tail - total < ln_tol))
        if np.any(done):
            out[live[done]] = total[done]
            keep = ~done
            live, u, v, total, ln_tail = live[keep], u[keep], v[keep], total[keep], ln_tail[keep]
        if not live.size:
            return out
        m0 += block
        if m0 > 1_000_000:
            raise TruncationError("Poisson-gamma mixture did not converge (logarithms)",
                                  float(np.max(total)), float(np.max(ln_tail)))


def ln_marcum_p(nu: float, u, v):
    """ln P_nu(u, v) elementwise over squared moduli u, v >= 0, nu >= 0.

    P_nu is the complementary generalized Marcum function,

        P_nu(u, v) = exp(-(u+v)) Q_nu(sqrt u, sqrt v)
                   = sum_m e^-u u^m / m! P(nu+m, v)
                   = chndtr(2v, 2nu, 2u),

    the non-central chi-square CDF with 2nu degrees of freedom and
    non-centrality 2u at 2v (Gil, Segura & Temme, ACM TOMS 40(3), 2014).
    The bulk comes from chndtr.  At nu = 0, where chndtr is nan, it uses
    P_0 = P_1 + exp(-(u+v)) I_0(2 sqrt(uv)); subnormal nu, where chndtr
    is nan as well, takes this limit.  Where P falls below 1e-30,
    where chndtr loses accuracy and then underflows, the Poisson-gamma
    mixture is summed in log space, so ln P stays finite far past the
    double range of P.  Edges: P_nu(u, 0) = 0 for nu > 0 (ln P = -inf)
    and P_0(u, 0) = exp(-u).
    """
    nu = float(nu)
    if not nu >= 0.0:
        raise DomainError("ln_marcum_p requires nu >= 0")
    if nu < _DOUBLE_TINY:
        nu = 0.0
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u, v = np.broadcast_arrays(np.atleast_1d(np.asarray(u, dtype=float)),
                               np.atleast_1d(np.asarray(v, dtype=float)))
    if not (np.all(u >= 0.0) and np.all(v >= 0.0) and np.all(np.isfinite(u + v))):
        raise DomainError("ln_marcum_p requires finite u, v >= 0")
    if nu == 0.0:
        p = (_sp.chndtr(2.0 * v, 2.0, 2.0 * u)
             + np.exp(-((np.sqrt(u) - np.sqrt(v)) ** 2)) * _sp.i0e(2.0 * np.sqrt(u * v)))
    else:
        p = _sp.chndtr(2.0 * v, 2.0 * nu, 2.0 * u)
    with np.errstate(divide="ignore"):
        out = np.log(p)
    if nu == 0.0:
        out = np.where(v == 0.0, -u, out)
    tail = (p < _CHNDTR_FLOOR) & (v > 0.0)
    if np.any(tail):
        out[tail] = _ln_poisson_gamma_mixture(nu, u[tail], v[tail])
    if np.any(np.isnan(out)):
        # chndtr gives nan once u or v reach about 1e15
        raise DomainError("ln_marcum_p: arguments beyond the range of chndtr")
    return float(out[0]) if scalar else out


_LN_DOUBLE_MAX = math.log(np.finfo(float).max)
_DOUBLE_TINY = np.finfo(float).tiny  # smallest normal double


def exp_in_range(ln_x, what: str):
    """exp(ln_x) elementwise (a float for scalar input), or DomainError if
    any element exceeds the double range."""
    ln_max = np.max(ln_x, initial=-np.inf)
    if ln_max > _LN_DOUBLE_MAX:
        raise DomainError(f"{what} = exp({ln_max:.6g}) exceeds the double range")
    out = np.exp(ln_x)
    return float(out) if np.ndim(out) == 0 else out


def q_sum(nu: float, u: float, v: float) -> float:
    """Q_nu(u, v) = sum_{l>=0} (v/u)^(nu+l) I_{nu+l}(2uv) for u, v >= 0, nu >= 0.

    Evaluated as exp(u^2 + v^2 + ln P_nu(u^2, v^2)) through
    :func:`ln_marcum_p`; edge values follow the term-wise limits, so
    Q_nu(u, 0) = 0 for nu > 0 and Q_0(u, 0) = 1.  Raises DomainError
    where Q exceeds the double range.
    """
    if u < 0 or v < 0:
        raise DomainError("q_sum requires u, v >= 0")
    a, b = u * u, v * v
    return exp_in_range(a + b + ln_marcum_p(nu, a, b), f"Q_{nu}")
