"""Special functions used throughout the package.

Everything here is a pure function of its inputs.  The conventions:

* ``ln_gamma`` is the principal branch of log-Gamma.
* ``laguerre_poly`` evaluates associated Laguerre polynomials L_m^a with
  real order a > -1 by the ascending three-term recurrence.
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

  point by point; it is kept as the scalar reference of that series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

__all__ = [
    "DomainError",
    "TruncationError",
    "IrregularOriginError",
    "SeriesControl",
    "ln_gamma",
    "laguerre_poly",
    "laguerre_fn",
    "laguerre_fn_table",
    "bessel_i",
    "erf",
    "ln_marcum_p",
    "q_sum",
    "q_term",
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


@dataclass(frozen=True)
class SeriesControl:
    """Truncation control for the infinite sums.

    rel_tol is the target relative tail bound, max_terms a hard cap on
    the number of summed terms.
    """

    rel_tol: float = 1e-14
    max_terms: int = 10**6

    def __post_init__(self):
        if not (self.rel_tol > 0.0):
            raise DomainError("rel_tol must be positive")
        if self.max_terms < 1:
            raise DomainError("max_terms must be >= 1")


DEFAULT_CONTROL = SeriesControl()


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


def laguerre_poly(m: int, alpha: float, rho):
    """Associated Laguerre polynomial L_m^alpha(rho), ascending recurrence.

    m >= 0 integer, alpha > -1 real; rho scalar or array, rho >= 0.
    """
    if m < 0 or m != int(m):
        raise DomainError("Laguerre degree m must be a non-negative integer")
    if not alpha > -1.0:
        raise DomainError("Laguerre order alpha must exceed -1")
    rho = np.asarray(rho, dtype=float)
    if np.any(rho < 0):
        raise DomainError("rho must be non-negative")
    p_prev = np.ones_like(rho)
    if m == 0:
        return p_prev if p_prev.ndim else float(p_prev)
    p = 1.0 + alpha - rho
    for k in range(1, m):
        p, p_prev = ((2 * k + alpha + 1 - rho) * p - (k + alpha) * p_prev) / (k + 1), p
    return p if p.ndim else float(p)


def _laguerre_fn_start(alpha: float, rho: np.ndarray) -> np.ndarray:
    """m = 0 normalized Laguerre function, accumulated in log space."""
    out = np.zeros_like(rho)
    pos = rho > 0
    lg = _sp.gammaln(alpha + 1.0)
    out[pos] = np.exp(-rho[pos] / 2 + (alpha / 2) * np.log(rho[pos]) - lg / 2)
    if np.any(~pos):
        if alpha > 0:
            out[~pos] = 0.0
        elif alpha == 0:
            out[~pos] = 1.0
        else:
            raise IrregularOriginError(
                "profile diverges at rho = 0 for order alpha < 0"
            )
    return out


def laguerre_fn_table(alpha: float, m_max: int, rho) -> np.ndarray:
    """Normalized Laguerre functions I_{m+alpha,m}(rho) for m = 0..m_max.

    Returns an array of shape (m_max+1, *rho.shape).  The weighted
    three-term recurrence keeps the exp(-rho/2) rho^(alpha/2) factor
    inside the iterate, so no intermediate overflows occur even for
    large rho or large m.
    """
    if not alpha > -1.0:
        raise DomainError("alpha must exceed -1")
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    tab = np.zeros((m_max + 1,) + rho.shape)
    tab[0] = _laguerre_fn_start(alpha, rho)
    if m_max >= 1:
        tab[1] = (1.0 + alpha - rho) * tab[0] / math.sqrt(1.0 + alpha)
    for m in range(1, m_max):
        a = 2 * m + alpha + 1 - rho
        b = math.sqrt(m * (m + alpha))
        c = math.sqrt((m + 1) * (m + 1 + alpha))
        tab[m + 1] = (a * tab[m] - b * tab[m - 1]) / c
    return tab


def laguerre_fn(n: float, m: int, rho):
    """Laguerre function I_{n,m}(rho) with real first index n > m - 1.

    The index pair follows the convention that m is the polynomial
    degree and alpha = n - m the order; the normalization makes the
    family orthonormal in rho on (0, inf).
    """
    if m < 0 or m != int(m):
        raise DomainError("degree m must be a non-negative integer")
    alpha = float(n) - int(m)
    if not alpha > -1.0:
        raise DomainError("requires n - m > -1")
    rho_arr = np.atleast_1d(np.asarray(rho, dtype=float))
    if np.any(rho_arr < 0):
        raise DomainError("rho must be non-negative")
    val = laguerre_fn_table(alpha, int(m), rho_arr)[int(m)]
    return val if np.ndim(rho) else float(val[0])


def bessel_i(nu: float, z, scaled: bool = False):
    """Modified Bessel function of the first kind I_nu(z).

    Real order nu (any sign), real or complex argument; principal
    branch.  With ``scaled=True`` returns exp(-|Re z|) I_nu(z), which
    stays finite where the plain value would overflow.
    """
    nu = float(nu)
    fn = _sp.ive if scaled else _sp.iv
    if np.iscomplexobj(z) or isinstance(z, complex):
        out = fn(nu, np.asarray(z, dtype=complex))
        return complex(out) if np.ndim(z) == 0 else out
    out = fn(nu, np.asarray(z, dtype=float))
    return float(out) if np.ndim(z) == 0 else out


def erf(x):
    """Error function, elementwise."""
    out = _sp.erf(np.asarray(x, dtype=float))
    return float(out) if np.ndim(x) == 0 else out


def _q_inner_sum(p0: float, ln_a: float, ln_b: float, rel_tol: float) -> float:
    """sum_m exp((p0+m) ln_b + m ln_a - lgamma(m+1) - lgamma(p0+m+1)).

    All terms are positive; summed with a running maximum for scaling.
    p0 > -1.  ln_a/ln_b may be -inf (zero base), in which case only the
    admissible terms contribute.
    """
    if ln_b == -np.inf:
        # only the m = 0, p0 = 0 term can survive (0^0 = 1 convention)
        return 1.0 if p0 == 0.0 else 0.0
    if ln_a == -np.inf:
        return math.exp(p0 * ln_b - _sp.gammaln(p0 + 1.0))
    block = 64
    m0 = 0
    total = 0.0
    prev_max = -np.inf
    while True:
        m = np.arange(m0, m0 + block, dtype=float)
        ln_t = (p0 + m) * ln_b + m * ln_a - _sp.gammaln(m + 1.0) - _sp.gammaln(p0 + m + 1.0)
        t = np.exp(ln_t)
        total += float(t.sum())
        cur_max = float(ln_t.max())
        # terms decay super-geometrically once m >> sqrt(a b); stop when the
        # last block is negligible and decreasing
        if t[-1] <= rel_tol * max(total, 1e-300) and cur_max <= prev_max:
            return total
        prev_max = cur_max
        m0 += block
        if m0 > 100_000:
            raise TruncationError("inner Bessel-series sum did not converge", total, float(t[-1]))


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
    """ln sum_m exp(-u + m ln u - lnGamma(m+1)) P(nu+m, v), elementwise, v > 0.

    Summed in blocks of 16 m with a running logaddexp; short blocks keep
    the (m x points) temporaries small.  The terms are log-concave in m,
    so once a block ends on a decreasing step the rest is bounded by the
    geometric series of that step; the sum stops when the bound falls
    below 1e-17 of the total at every point.
    """
    block, ln_tol = 16, math.log(1e-17)
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
        if np.all(done):
            return total
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
    if nu < np.finfo(float).tiny:
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


def q_term(nu: float, l: int, u: float, v: float, rel_tol: float = 1e-16) -> float:
    """Single term (v/u)^(nu+l) I_{nu+l}(2uv) of the Q series, u, v >= 0.

    Evaluated through its power series in (u^2, v^2) so the u -> 0 limit
    is finite (the growing ratio and the vanishing Bessel factor are
    combined analytically).
    """
    p0 = nu + l
    ln_a = 2.0 * math.log(u) if u > 0 else -np.inf
    ln_b = 2.0 * math.log(v) if v > 0 else -np.inf
    return _q_inner_sum(p0, ln_a, ln_b, rel_tol)


def q_sum(nu: float, u: float, v: float, ctl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Q_nu(u, v) = sum_{l>=0} (v/u)^(nu+l) I_{nu+l}(2uv) for u, v >= 0.

    Terms are evaluated in log space through the double power series, so
    the sum is stable for u -> 0 and for large nu + l.  Edge values
    follow the term-wise limits: every term vanishes when v = 0 and
    nu > 0; Q_0(u, 0) = Q_0(0, 0) = 1.

    Raises TruncationError if the tail bound cannot be pushed below
    ctl.rel_tol within ctl.max_terms terms.
    """
    if u < 0 or v < 0:
        raise DomainError("q_sum requires u, v >= 0")
    if not nu > -1.0:
        raise DomainError("q_sum requires nu > -1")
    if v == 0.0:
        if nu > 0:
            return 0.0
        if nu == 0:
            return 1.0
        raise DomainError("q_sum diverges for v = 0 and nu < 0")
    total = 0.0
    prev = np.inf
    decreasing = 0
    terms_used = 0
    l = 0
    while True:
        t = q_term(nu, l, u, v, rel_tol=min(ctl.rel_tol, 1e-16))
        total += t
        terms_used += 1
        if t <= prev:
            decreasing += 1
        else:
            decreasing = 0
        if decreasing >= 2 and t > 0.0 and prev > 0.0:
            r = t / prev
            if r < 1.0:
                tail = t * r / (1.0 - r)
                if tail <= ctl.rel_tol * max(total, 1e-300):
                    return total
        if t == 0.0 and l > 2:
            return total
        if terms_used >= ctl.max_terms:
            raise TruncationError("q_sum did not converge", total, t)
        prev = t
        l += 1
