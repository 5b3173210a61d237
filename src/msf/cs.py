"""Coherent states in the magnetic-solenoid field.

A coherent state on branch j is the double series

    Phi^(j)_{z1,z2} = N_j^{-1/2} sum_l sum_m  c_{lm} phi^(j)_{n1,n2},
    c_{lm} = z1^n1 z2^n2 / sqrt(Gamma(1+n1) Gamma(1+n2)),

with (n1, n2) resolved per branch.  Powers with non-integer exponents
use the principal logarithm of each label, so every amplitude is
carried in log space as c = exp(ln|c| + i arg c) with

    ln|c| = n1 ln|z1| + n2 ln|z2| - (lnGamma(1+n1) + lnGamma(1+n2)) / 2,
    arg c = n1 Arg z1 + n2 Arg z2.

Every series of the module runs over one table of these logarithms,
grown by :func:`_grown_table`: rows are angular numbers l, columns the
radial numbers m = 0..M.  Along a row |c_{m+1} / c_m| <= |z1 z2| / (m+1),
so M is where that bound has taken the row below 1e-16 of its largest
amplitude; the rows stop by the quiet-block rule of
:func:`_quiet_blocks`.  The relativistic series of :mod:`msf.dirac`
reads the same table through the branch map of :mod:`msf.landau`: Dirac
row (j, l, sigma) has the (n1, n2) of planar row l_s = l - (1 + sigma)/2,
on the branch whose vartheta range holds l.

The normalization constants are the Bessel series
Q_nu(a, b) = sum_l (b/a)^(nu+l) I_{nu+l}(2ab),

    N_0(u, v) = Q_{1-mu}(sqrt u, sqrt v),
    N_1(u, v) = Q_mu(sqrt v, sqrt u),        u = |z1|^2, v = |z2|^2,

taken in log space as ln N_j = u + v + ln P_nu through the complementary
Marcum kernel :func:`msf.specfun.ln_marcum_p`.  States and overlaps
apply them as exp(ln|c| - ln N_j / 2), so normalized values stay finite
far past the double range of N_j itself.

The overlap of two states is the contraction
sum conj(c_a) c_b / sqrt(N_a N_b) of the two states' own tables over
their common (l, m) prefix, where each term past it is zero in one of
the two: the exact inner product of the states :func:`cs_state`
evaluates, in its phase convention.  The relativistic overlap of
:mod:`msf.dirac` contracts its two kept series the same way.  (Summing
the Q series at the label products conj(z1) z1', conj(z2) z2' instead
gives the same modulus, but a phase that can differ by a constant
unimodular factor, because the principal logarithm of a product is not
always the sum of the principal logarithms.)

The exponential sum rule N_0 + N_1 = exp(u + v) is exact at mu = 0
(integer Bessel orders, where the bilateral generating function
applies).  For mu in (0, 1) the order lattice is shifted and the sum
acquires a Bessel-K correction; at mu = 1/2 it evaluates in closed form
to exp(u+v) erf(sqrt u + sqrt v).  See :func:`mm_weight_sum` below.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special as _sp

from .specfun import DomainError, exp_in_range, laguerre_fn_rows, ln_marcum_p
from .completeness import weight_fn
from .landau import (FieldConfig, _branch_l_values, _branch_of, _laguerre_order, _marcum_args,
                     _profile_factor, _radial_numbers, resolve_qnums)

__all__ = [
    "CSLabel",
    "cs_branch",
    "cs_state",
    "cs_normalization",
    "cs_overlap",
    "mm_weight_sum",
]

# amplitude tolerance of the truncated series, relative to sqrt(N_j)
_EPS = 1e-16
# rows added to the table at a time
_L_CHUNK = 32
# table size beyond which a label is rejected (16 MB per real array)
_MAX_CELLS = 2_000_000


@dataclass(frozen=True)
class CSLabel:
    """Pair of complex labels; powers use the principal branch."""

    z1: complex
    z2: complex

    def __post_init__(self):
        if not (np.isfinite(self.z1) and np.isfinite(self.z2)):
            raise DomainError("labels must be finite")

    @property
    def u(self) -> float:
        return abs(self.z1) ** 2

    @property
    def v(self) -> float:
        return abs(self.z2) ** 2


def _ln_power(n: np.ndarray, r: float) -> np.ndarray:
    """ln r^n over an array of exponents, with 0^0 = 1 and 0^n = 0 otherwise."""
    if r > 0:
        return n * math.log(r)
    return np.where(n == 0, 0.0, -np.inf)


def _ln_amplitude(n1, n2, label: CSLabel) -> tuple[np.ndarray, np.ndarray]:
    """(ln|c|, arg c) of c = z1^n1 z2^n2 / sqrt(Gamma(1+n1) Gamma(1+n2)).

    Elementwise over arrays n1, n2 > -1, for planar and Dirac states;
    ln|c| = -inf where c vanishes.
    """
    n1 = np.asarray(n1, dtype=float)
    n2 = np.asarray(n2, dtype=float)
    ln_c = (_ln_power(n1, abs(label.z1)) + _ln_power(n2, abs(label.z2))
            - 0.5 * (_sp.gammaln(1.0 + n1) + _sp.gammaln(1.0 + n2)))
    return ln_c, n1 * cmath.phase(label.z1) + n2 * cmath.phase(label.z2)


def _m_last(label: CSLabel) -> int:
    """Last radial number M of every row of the table.

    Along a row |c_{m+1} / c_m| = sqrt(uv / ((n1+1)(n2+1))) <= s / (m+1)
    with s = |z1 z2| where n1, n2 >= m.  Past m = ceil(s) the row
    therefore falls by at least prod s / (i+1); M is where that bound
    first drops below _EPS, and the rest of the row is a geometric tail
    of ratio below one.  The irregular Dirac row (order in (-1, 0)) steps
    up to sqrt(1 + 1/m) past that bound, so it ends below sqrt(M) _EPS.
    DomainError where s >= _MAX_CELLS (s = inf included): M > s, so that
    row alone would pass the table limit of :func:`_grown_table`.
    """
    s = abs(label.z1 * label.z2)
    if not s < _MAX_CELLS:
        raise DomainError(
            f"label too large: the coherent-state table exceeds {_MAX_CELLS} amplitudes")
    m0 = math.ceil(s)
    i = np.arange(m0, m0 + 32 + int(12.0 * math.sqrt(s)))
    with np.errstate(divide="ignore"):
        ln_drop = np.cumsum(np.log(s / (i + 1.0)))
    return m0 + 1 + int(np.argmax(ln_drop <= math.log(_EPS)))


def _table(j: int, ls, label: CSLabel, cfg: FieldConfig, m_last: int):
    """Laguerre order per row and (ln|c|, arg c) over rows ls, m = 0..m_last,
    with the order and (n1, n2) of the branch map."""
    alpha = _laguerre_order(j, np.asarray(ls, dtype=float), cfg.mu)
    if not np.all(alpha > -1.0):
        raise DomainError("radial profile outside the Laguerre domain")
    n1, n2 = _radial_numbers(j, alpha[:, None], np.arange(m_last + 1.0))
    return (alpha, *_ln_amplitude(n1, n2, label))


def _grown_table(j: int, rows, label: CSLabel, cfg: FieldConfig):
    """(l, alpha, ln|c|, arg c) of the table over the row sequence ``rows``.

    Rows are added _L_CHUNK at a time until the quiet-block rule fires at
    weight tolerance _EPS^2, i.e. at amplitude tolerance _EPS relative to
    the square root of the summed weight.  Raises DomainError for labels
    whose table would exceed _MAX_CELLS amplitudes.
    """
    m_last = _m_last(label)
    ls: list[int] = []
    parts = []
    ln_w = np.empty(0)
    while True:
        if (len(ls) + _L_CHUNK) * (m_last + 1) > _MAX_CELLS:
            raise DomainError(
                f"label too large: the coherent-state table exceeds {_MAX_CELLS} amplitudes")
        chunk = list(itertools.islice(rows, _L_CHUNK))
        part = _table(j, chunk, label, cfg, m_last)
        ls += chunk
        parts.append(part)
        ln_w = np.concatenate((ln_w, np.logaddexp.reduce(2.0 * part[1], axis=1)))
        keep = _quiet_blocks(ln_w, 2.0 * math.log(_EPS))
        if keep is not None:
            break
    return (np.array(ls[:keep]),
            *(np.concatenate(arrays)[:keep] for arrays in zip(*parts)))


def _contract(ln_a: np.ndarray, arg_a: np.ndarray, ln_b: np.ndarray,
              arg_b: np.ndarray) -> complex:
    """sum exp(ln_a + ln_b + i (arg_b - arg_a)) over the common (l, m) prefix
    of two tables: the rows of both are prefixes of one branch sequence and
    their columns run m = 0..M, so a term past that prefix is zero in one
    of the two states and the sum is their exact inner product."""
    common = np.s_[:min(len(ln_a), len(ln_b)), :min(ln_a.shape[1], ln_b.shape[1])]
    return complex(np.sum(np.exp(ln_a[common] + ln_b[common]
                                 + 1j * (arg_b[common] - arg_a[common]))))


def _quiet_blocks(ln_w: np.ndarray, ln_tol: float) -> int | None:
    """Number of l blocks a series keeps, or None while the rule has not fired.

    The one truncation rule of the coherent-state series: the l-sum
    stops after the third consecutive quiet block, a block whose weight
    is at most exp(ln_tol) of the weight accumulated so far (itself
    included).  ln_w holds the logarithms of the block weights in l
    order; blocks of zero weight before any weight count as quiet.
    """
    quiet = ln_w <= ln_tol + np.logaddexp.accumulate(ln_w)
    hits = np.flatnonzero(quiet[2:] & quiet[1:-1] & quiet[:-2])
    return int(hits[0]) + 3 if hits.size else None


def cs_branch(l: int, label: CSLabel, cfg: FieldConfig) -> np.ndarray:
    """Row l of the coherent-state table, unnormalized: the amplitudes c_lm,
    m = 0..M, on the branch whose range holds l."""
    j = _branch_of(l)
    resolve_qnums(j, l, 0, cfg)  # DomainError unless l is an integer
    _, ln_c, phase = _table(j, [l], label, cfg, _m_last(label))
    return np.exp(ln_c[0] + 1j * phase[0])


def _ln_normalization(j: int, u, v, mu: float):
    """ln N_j = u + v + ln P_nu at squared label moduli (u, v), elementwise."""
    nu, x, y = _marcum_args(j, mu, u, v)
    return np.add(x, y) + ln_marcum_p(nu, x, y)


def _ln_half_norm(j: int, label: CSLabel, mu: float) -> float:
    """ln sqrt(N_j); DomainError where N_j = 0 and no state exists."""
    ln_n = _ln_normalization(j, label.u, label.v, mu)
    if ln_n == -np.inf:
        raise DomainError("coherent state undefined: zero normalization")
    return 0.5 * ln_n


def cs_normalization(j: int, u, v, mu: float):
    """N_j at squared label moduli (u, v) = (|z1|^2, |z2|^2), elementwise.

    N_0 = exp(u+v) P_{1-mu}(u, v) and N_1 = exp(u+v) P_mu(v, u), summed
    in log space.  Scalar inputs give a float, arrays an array.  Raises
    DomainError unless j is 0 or 1 and mu lies in [0, 1), and if N_j
    exceeds the double range at any point.
    """
    return exp_in_range(_ln_normalization(j, u, v, mu), f"N_{j}")


def cs_state(
    j: int,
    label: CSLabel,
    theta,
    rho,
    cfg: FieldConfig,
):
    """Coherent-state value, elementwise over theta and rho.

    Unit norm; the amplitudes are normalized in log space,
    exp(ln|c| - ln N_j / 2), so the value is finite wherever the
    normalized state is.  One Laguerre recurrence over m, vectorised
    over the rows of the :func:`_grown_table` table and the points,
    accumulates sum_m c_lm I_m(rho) per row: memory is O(rows x points).
    DomainError at a non-finite theta or rho.
    """
    theta, rho = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(rho, dtype=float))
    if not np.isfinite(theta).all():
        raise DomainError("theta must be finite")
    l, alpha, ln_c, arg_c = _grown_table(j, _branch_l_values(j), label, cfg)
    ln_scale = _ln_half_norm(j, label, cfg.mu)
    per_row = (slice(None),) + (None,) * rho.ndim
    amp = np.exp(ln_c - ln_scale + 1j * arg_c)
    radial = 0.0
    for m, lag in enumerate(laguerre_fn_rows(alpha[per_row], amp.shape[1] - 1, rho)):
        radial = radial + amp[:, m][per_row] * lag
    phase = np.exp(1j * np.multiply.outer(l - cfg.l0, theta))
    total = np.sum(phase * _profile_factor(j, l, cfg)[per_row] * radial, axis=0)
    return complex(total) if total.ndim == 0 else total


def cs_overlap(
    j_a: int,
    label_a: CSLabel,
    j_b: int,
    label_b: CSLabel,
    mu: float,
) -> complex:
    """Overlap <Phi_a | Phi_b> of two normalized coherent states.

    Cross-branch overlaps vanish exactly (disjoint angular ranges).  On
    one branch it is the contraction sum conj(c_a) c_b / sqrt(N_a N_b)
    of the two grown tables :func:`cs_state` evaluates, over their common
    prefix (:func:`_contract`), each term formed in log space: the exact
    inner product of the two states as built, so by Cauchy-Schwarz it
    never exceeds one in modulus.  Conjugate symmetric, in the phase
    convention of :func:`cs_state`.
    """
    if j_a != j_b:
        return 0.0 + 0.0j
    cfg = FieldConfig(mu=mu)
    _, _, ln_a, ph_a = _grown_table(j_a, _branch_l_values(j_a), label_a, cfg)
    _, _, ln_b, ph_b = _grown_table(j_a, _branch_l_values(j_a), label_b, cfg)
    ln_scale = _ln_half_norm(j_a, label_a, mu) + _ln_half_norm(j_a, label_b, mu)
    return _contract(ln_a, ph_a, ln_b - ln_scale, ph_b)


def mm_weight_sum(u, v):
    """Sum of the two zero-flux weight functions, elementwise; constant 1/pi^2.

    Evaluated through the Marcum-P kernel, branch 1 through its
    zero-order edge P_0 = P_1 + exp(-(u+v)) I_0(2 sqrt(uv)), with no
    shortcut, so the constancy is a genuine numerical check of the
    zero-flux measure.  Scalar inputs give a float, arrays an array.
    """
    return weight_fn(0, u, v, 0.0) + weight_fn(1, u, v, 0.0)
