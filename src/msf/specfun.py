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


def _integer(x, what: str, non_negative: bool = False) -> int:
    """int(x), or DomainError unless x is a finite integer, >= 0 with ``non_negative``."""
    if not (math.isfinite(x) and x == int(x) and (x >= 0 or not non_negative)):
        raise DomainError(f"{what} must be a finite{' non-negative' * non_negative} integer")
    return int(x)


def ln_gamma(x):
    """Principal-branch log-Gamma.

    Real input x > 0 returns a float; complex input off the non-positive
    real axis returns the principal branch (scipy's ``loggamma``).
    Raises DomainError at the poles, at a nan or infinite argument and
    where the real part of the result leaves the double range (real x
    past about 2.5e305).
    """
    if not cmath.isfinite(x):
        raise DomainError(f"ln_gamma requires a finite argument, not {x}")
    if np.iscomplexobj(x) or isinstance(x, complex):
        z = complex(x)
        if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
            raise DomainError(f"ln_gamma pole at {z}")
        out = complex(_sp.loggamma(z))
    elif (xf := float(x)) > 0.0:
        out = float(_sp.gammaln(xf))
    elif xf == int(xf):
        raise DomainError(f"ln_gamma pole at {xf}")
    else:
        out = complex(_sp.loggamma(complex(xf)))
    if math.isinf(out.real):
        raise DomainError(f"ln_gamma at {x} has no finite value in the double range")
    return out


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
    if not (-1.0 < alpha < math.inf if scalar else np.all((alpha > -1.0) & (alpha < math.inf))):
        raise DomainError("alpha must be finite and exceed -1")
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
    m = _integer(m, "degree m", non_negative=True)
    val = laguerre_fn_table(float(n) - m, m, rho)[m]
    return val if np.ndim(rho) else float(val[0])


def bessel_i(nu: float, z, scaled: bool = False):
    """Modified Bessel function of the first kind I_nu(z).

    Real order nu (any sign), real or complex argument; principal
    branch.  With ``scaled=True`` returns exp(-|Re z|) I_nu(z), which
    stays finite where the plain value would overflow.  Both forms return
    a finite value or raise DomainError that names the cause: a nan or
    infinite argument, past the double range (plain form, about
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
        zb = zarr[~np.isfinite(out)][0]  # scipy gives nan at every non-finite z
        if not cmath.isfinite(zb):
            why = "is not a finite argument"
        elif not scaled and np.isfinite(_sp.ive(nu, zb)):
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
    """Error function, elementwise; DomainError at nan (erf(+-inf) = +-1)."""
    out = _sp.erf(np.asarray(x, dtype=float))
    if np.isnan(out).any():
        raise DomainError("erf requires finite or infinite arguments, not nan")
    return float(out) if np.ndim(x) == 0 else out


# below this chndtr loses relative accuracy, and near 1e-300 it underflows to 0
_CHNDTR_FLOOR = 1e-30


def _ln_gammainc(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln P(a, x) of the regularized lower incomplete gamma function, x > 0.

    Below the double range P is taken from its Kummer form
    x^a e^-x M(1, a+1, x) / Gamma(a+1); there x << a, so M stays near 1.
    """
    g = _sp.gammainc(a, x)
    with np.errstate(divide="ignore"):
        out = np.log(g)
    low = g < 1e-280
    if np.any(low):
        a, x = a[low], x[low]
        out[low] = (a * np.log(x) - x - _sp.gammaln(a + 1.0)
                    + np.log(_sp.hyp1f1(1.0, a + 1.0, x)))
    return out


# rows of one block: one incomplete gamma value at its top serves them all
_MIX_BLOCK = 16
# row offsets 1..15 above the first row of a block
_MIX_ROWS = np.arange(1.0, _MIX_BLOCK)[:, None]
# terms summed per point before the mixture gives up
_MIX_MAX_TERMS = 1_000_000
# terms of one round, past which the points run in groups
_MIX_ROUND_SIZE = 1 << 18


def _ln_poisson_gamma_mixture(nu: float, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """ln sum_m exp(-u + m ln u - lnGamma(m+1)) P(nu+m, v) over 1-d u >= 0, v > 0.

    The terms are log-concave in m, with their peak near the root m* of
    (m+1)(m+1+nu) = uv, capped at u, and fall off within a few
    sqrt(m*+1) of it.  Each point's first round sums the blocks of 16 m
    that meet m* - 6 sqrt(m*+1) .. m* + 8 sqrt(m*+1); each further round
    adds one block on each side whose edge does not yet bound the terms
    beyond it, by the geometric series of its last step, below 1e-17 of
    the point's own total.  A point retires once both sides hold.  Every
    point is summed on its own, so a set of points gives bitwise the
    values of its parts.  Raises TruncationError once a point has summed
    1e6 terms without meeting its bounds.  A first round capped at 1e6 / 14
    widths counts as all 1e6 terms, so its point raises right after it:
    its bounds cannot hold there, and past m* of about 1e17 its blocks no
    longer move apart in double precision, so further rounds would add
    one block at a time.
    """
    root = (np.hypot(nu, 2.0 * np.sqrt(u) * np.sqrt(v)) - nu) / 2.0  # u v may overflow
    peak = np.minimum(u, np.maximum(root - 1.0, 0.0))
    width = np.sqrt(peak + 1.0)
    capped = width >= _MIX_MAX_TERMS / 14.0
    width = np.minimum(width, _MIX_MAX_TERMS / 14.0)  # 14 widths: the first round
    lo = np.floor(np.maximum(peak - 6.0 * width, 0.0) / _MIX_BLOCK)
    hi = np.floor((peak + 8.0 * width) / _MIX_BLOCK)
    out = np.empty(u.shape)  # keep each round's arrays to about 2^18 terms
    first = np.cumsum(hi - lo + 1.0) * _MIX_BLOCK // _MIX_ROUND_SIZE
    for idx in np.split(np.arange(u.size), np.flatnonzero(np.diff(first)) + 1):
        out[idx] = _ln_mixture_sum(nu, u[idx], v[idx], lo[idx], hi[idx], capped[idx])
    return out


def _ln_mixture_sum(nu, u, v, lo, hi, capped):
    """The mixture over points whose first round spans the blocks lo..hi,
    counted as all the terms allowed where ``capped``."""
    ln_tol = math.log(1e-17)
    out = np.empty(u.shape)
    live = np.arange(u.size)
    # at u = 0 the terms past m = 0 then fall below e^-744 of the first, not to 0
    u = np.maximum(u, _DOUBLE_TRUE_MIN)
    total = np.full(u.shape, -np.inf)
    side = np.ones((2, u.size), dtype=bool)  # a block below and a block above this round
    counts = (hi - lo + 1.0).astype(int)
    starts = np.cumsum(counts) - counts
    pt = np.repeat(live, counts)
    blk = lo[pt] + (np.arange(pt.size) - starts[pt])
    summed = np.where(capped, _MIX_MAX_TERMS, _MIX_BLOCK * counts)
    while True:
        ends = starts + counts - 1
        ln_t, bound = _ln_mixture_rows(nu, u[pt], v[pt], blk, starts, ends)
        shift = np.maximum.reduceat(ln_t.max(axis=0), starts)
        # each point's terms in one run: reduceat sums it alike in any set of points
        terms = np.subtract(ln_t.T, shift[pt, None], order="C")
        point_sum = np.add.reduceat(np.exp(terms, out=terms).ravel(), _MIX_BLOCK * starts)
        total = np.logaddexp(total, shift + np.log(point_sum))
        tail = bound if side.all() else np.where(side, bound, tail)
        held = tail - total < ln_tol
        done = held.all(axis=0)
        if done.any():
            out[live[done]] = total[done] - u[done]
            keep = ~done
            live, u, v, lo, hi = live[keep], u[keep], v[keep], lo[keep], hi[keep]
            total, summed, tail, held = total[keep], summed[keep], tail[:, keep], held[:, keep]
            if not live.size:
                return out
        if summed.max() >= _MIX_MAX_TERMS:
            raise TruncationError("Poisson-gamma mixture did not converge (logarithms)",
                                  float(np.max(total - u)), float(np.max(np.logaddexp(*tail) - u)))
        side = ~held
        lo, hi = lo - side[0], hi + side[1]
        counts = side.sum(axis=0)
        starts = np.cumsum(counts) - counts
        summed += _MIX_BLOCK * counts
        pt = np.nonzero(side.T)[0]
        blk = np.stack([lo, hi], axis=1)[side.T]


def _ln_mixture_rows(nu, u, v, blk, starts, ends):
    """ln u^m / m! P(nu+m, v), the terms without e^-u, over the 16 rows m of each block.

    Rows are m and columns blocks; u and v hold each block's point, and
    the blocks of each point sit side by side from ``starts`` to ``ends``.  Also
    returns, per point, the ln of the bound on the terms below its first
    row (-inf at m = 0) and above its last: the geometric series of the
    edge step, inf where that step does not fall.  P at the top of a
    block is one incomplete gamma value, and P below it comes from the
    backward recurrence P(a, v) = P(a+1, v) + v^a e^-v / Gamma(a+1),
    whose terms are all positive: a reverse cumulative sum in exp
    space, shifted by the block maximum.  The log factorials are one
    gammaln per block plus cumulative logs.
    """
    ln_u, ln_v = np.log(u), np.log(v)
    m0 = blk * _MIX_BLOCK
    ln_p_top = _ln_gammainc(nu + m0 + (_MIX_BLOCK - 1), v)
    # ln u^m / m! and ln v^(nu+m) e^-v / Gamma(nu+m+1), accumulated down the rows
    acc = np.empty((_MIX_BLOCK, 2, blk.size))
    ln_pois, ln_d = acc.transpose(1, 0, 2)
    ln_pois[0] = m0 * ln_u - _sp.gammaln(m0 + 1.0)
    ln_d[0] = (nu + m0) * ln_v - v - _sp.gammaln(nu + m0 + 1.0)
    ln_m = np.log(np.add(m0, _MIX_ROWS, out=ln_pois[1:]), out=ln_pois[1:])
    np.log(np.add(nu + m0, _MIX_ROWS, out=ln_d[1:]), out=ln_d[1:])
    np.subtract(ln_v, ln_d[1:], out=ln_d[1:])
    np.subtract(ln_u, ln_m, out=ln_m)
    _accumulate(acc)
    ln_top2 = ln_pois[-2, ends] + np.logaddexp(ln_p_top[ends], ln_d[-2, ends])
    ln_d[-1] = ln_p_top
    shift = ln_d.max(axis=0)
    p = ln_d[::-1]  # P from the top row down
    _accumulate(np.exp(np.subtract(p, shift, out=p), out=p))
    with np.errstate(divide="ignore"):
        ln_t = np.log(ln_d)  # -inf in rows far below the block maximum, which add nothing
    ln_t += shift
    ln_t[-1] = ln_p_top
    ln_t += ln_pois
    edge = np.stack([ln_t[0, starts], ln_t[-1, ends]])
    step = np.minimum(edge - np.stack([ln_t[1, starts], ln_top2]), 0.0)
    with np.errstate(divide="ignore"):  # a step of 0 bounds nothing: inf
        bound = edge + step - np.log1p(-np.exp(step))
    bound[0, blk[starts] == 0.0] = -np.inf  # no terms below m = 0
    return ln_t, bound


def _accumulate(x):
    """Cumulative sum down the rows of x, in place, one vector add per row:
    past a few hundred columns several times faster than cumsum along the
    rows, with the same additions."""
    for r in range(1, len(x)):
        x[r] += x[r - 1]
    return x


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
    double range of P: from the peak term near m = sqrt(uv) outwards,
    with one incomplete gamma value per block of 16 terms and the rest
    from its backward recurrence, so its cost grows with the width
    sqrt(m+1) of the peak, not with u.
    Edges: P_nu(u, 0) = 0 for nu > 0 (ln P = -inf) and P_0(u, 0) = exp(-u).
    Raises TruncationError where the mixture needs more than 1e6 terms
    (uv past about 1e19).
    """
    nu = float(nu)
    if not nu >= 0.0:
        raise DomainError("ln_marcum_p requires nu >= 0")
    if nu < _DOUBLE_TINY:
        nu = 0.0
    scalar = np.ndim(u) == 0 and np.ndim(v) == 0
    u, v = np.broadcast_arrays(np.atleast_1d(np.asarray(u, dtype=float)),
                               np.atleast_1d(np.asarray(v, dtype=float)))
    if not (np.all((0.0 <= u) & (u < np.inf)) and np.all((0.0 <= v) & (v < np.inf))):
        raise DomainError("ln_marcum_p requires finite u, v >= 0")
    # 2u, 2v or u v past the double range: chndtr gives nan, 0 or 1
    with np.errstate(over="ignore"):
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
        raise DomainError("ln_marcum_p: no finite value beyond the range of chndtr")
    return float(out[0]) if scalar else out


_LN_DOUBLE_MAX = math.log(np.finfo(float).max)
_DOUBLE_TINY = np.finfo(float).tiny  # smallest normal double
_DOUBLE_TRUE_MIN = np.finfo(float).smallest_subnormal


def exp_in_range(ln_x, what: str):
    """exp(ln_x) elementwise, real or complex, or DomainError where a real
    part exceeds the double range.  A float, np.float64 too, runs through
    math.exp; other scalar or 0-d input gives a Python float or complex."""
    try:
        if isinstance(ln_x, float):
            return math.exp(ln_x)
        ln_max = np.real(ln_x)
        if isinstance(ln_max, np.ndarray):  # fmax skips nan; a scalar compares as it is
            ln_max = np.fmax.reduce(ln_max, axis=None, initial=-np.inf)
        if not ln_max > _LN_DOUBLE_MAX:  # a nan scalar passes, as np.exp passes it on
            out = np.exp(ln_x)
            return out if isinstance(out, np.ndarray) else out.item()
    except OverflowError:  # math.exp raises where np.exp gives inf
        ln_max = ln_x
    raise DomainError(f"{what} = exp({ln_max:.6g}) exceeds the double range")


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
