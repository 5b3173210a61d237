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
reads the same table: Dirac row (j, l, sigma) has the (n1, n2) of
planar row l_s = l - (1 + sigma)/2.

The normalization constants are the Bessel series
Q_nu(a, b) = sum_l (b/a)^(nu+l) I_{nu+l}(2ab),

    N_0(u, v) = Q_{1-mu}(sqrt u, sqrt v),
    N_1(u, v) = Q_mu(sqrt v, sqrt u),        u = |z1|^2, v = |z2|^2,

taken in log space as ln N_j = u + v + ln P_nu through the complementary
Marcum kernel :func:`msf.specfun.ln_marcum_p`.  States and overlaps
apply them as exp(ln|c| - ln N_j / 2), so normalized values stay finite
far past the double range of N_j itself.

The overlap of two states is the contraction
sum conj(c_a) c_b / sqrt(N_a N_b) over the table: the exact inner
product of the states :func:`cs_state` evaluates, in its phase
convention.  (Summing the Q series at the label products
conj(z1) z1', conj(z2) z2' instead gives the same modulus, but a phase
that can differ by a constant unimodular factor, because the principal
logarithm of a product is not always the sum of the principal
logarithms.)

The exponential sum rule N_0 + N_1 = exp(u + v) is exact at mu = 0
(integer Bessel orders, where the bilateral generating function
applies).  For mu in (0, 1) the order lattice is shifted and the sum
acquires a Bessel-K correction; at mu = 1/2 it evaluates in closed form
to exp(u+v) erf(sqrt u + sqrt v).  See the zero-flux helpers below.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special as _sp

from .specfun import DomainError, exp_in_range, laguerre_fn_rows, ln_marcum_p
from .landau import FieldConfig, resolve_qnums

__all__ = [
    "CSLabel",
    "CSExpansion",
    "cs_coefficient",
    "cs_branch",
    "cs_expansion",
    "cs_state",
    "cs_normalization",
    "cs_overlap",
    "mm_superpose",
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


def cs_coefficient(j: int, l: int, m: int, label: CSLabel, cfg: FieldConfig) -> complex:
    """Series amplitude z1^n1 z2^n2 / sqrt(Gamma(1+n1) Gamma(1+n2))."""
    q = resolve_qnums(j, l, m, cfg)
    ln_c, phase = _ln_amplitude(q.n1, q.n2, label)
    return complex(np.exp(ln_c + 1j * phase))


def _m_last(label: CSLabel) -> int:
    """Last radial number M of every row of the table.

    Along a row |c_{m+1} / c_m| = sqrt(uv / ((n1+1)(n2+1))) <= s / (m+1)
    with s = |z1 z2| where n1, n2 >= m.  Past m = ceil(s) the row
    therefore falls by at least prod s / (i+1); M is where that bound
    first drops below _EPS, and the rest of the row is a geometric tail
    of ratio below one.  The irregular Dirac row (order in (-1, 0)) steps
    up to sqrt(1 + 1/m) past that bound, so it ends below sqrt(M) _EPS.
    """
    s = abs(label.z1 * label.z2)
    m0 = math.ceil(s)
    i = np.arange(m0, m0 + 32 + int(12.0 * math.sqrt(s)))
    with np.errstate(divide="ignore"):
        ln_drop = np.cumsum(np.log(s / (i + 1.0)))
    return m0 + 1 + int(np.argmax(ln_drop <= math.log(_EPS)))


def _table(j: int, ls, label: CSLabel, cfg: FieldConfig, m_last: int):
    """Laguerre order per row and (ln|c|, arg c) over rows ls, m = 0..m_last.

    Row l has order alpha = -(l + mu) on branch 0 and l + mu on branch 1,
    and (n1, n2) = (m, m + alpha) or (m + alpha, m) along the diagonal.
    """
    alpha = (np.asarray(ls, dtype=float) + cfg.mu) * (1.0 if j == 1 else -1.0)
    if not np.all(alpha > -1.0):
        raise DomainError("radial profile outside the Laguerre domain")
    m = np.arange(m_last + 1.0)
    n1, n2 = (alpha[:, None] + m, m) if j == 1 else (m, alpha[:, None] + m)
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


def _on_larger_table(j: int, rows_a, label_a: CSLabel, rows_b, label_b: CSLabel,
                     cfg: FieldConfig):
    """(alpha, ln|c|, arg c) of both labels over the larger of their tables,
    whose rows are prefixes of one branch sequence."""
    ls = max(rows_a, rows_b, key=len)
    m_last = max(_m_last(label_a), _m_last(label_b))
    return _table(j, ls, label_a, cfg, m_last), _table(j, ls, label_b, cfg, m_last)


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


@dataclass(frozen=True)
class BranchTerm:
    """Unnormalized amplitudes c_lm, m = 0..M, at fixed angular number l."""

    j: int
    l: int
    coeffs: np.ndarray  # index m

    def weight(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def cs_branch(j: int, l: int, label: CSLabel, cfg: FieldConfig) -> BranchTerm:
    """One row of the coherent-state table, unnormalized."""
    resolve_qnums(j, l, 0, cfg)
    _, ln_c, phase = _table(j, [l], label, cfg, _m_last(label))
    return BranchTerm(j=j, l=l, coeffs=np.exp(ln_c[0] + 1j * phase[0]))


def _branch_l_values(j: int, vartheta: int = -1):
    """Angular numbers of branch j, outward from the flux line.

    Branch 0 counts down from -(1 - vartheta)/2 and branch 1 up from
    (1 + vartheta)/2: vartheta = -1 gives the planar ranges l < 0 and
    l >= 0, and the Dirac extensions vartheta = +-1 their own ranges.
    """
    if j not in (0, 1):
        raise DomainError("branch j must be 0 or 1")
    if j == 0:
        return itertools.count(-(1 - vartheta) // 2, -1)
    return itertools.count((1 + vartheta) // 2)


@dataclass(frozen=True, eq=False)
class CSExpansion:
    """Truncated coherent-state series on one branch, in log space.

    Row k holds angular number l[k] with Laguerre order alpha[k], column
    m the radial number; c_lm = exp(ln_c + i phase).  ln_norm is the log
    of the truncated sum of |c_lm|^2, which approximates ln N_j.
    """

    j: int
    label: CSLabel
    l: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)
    ln_c: np.ndarray = field(repr=False)
    phase: np.ndarray = field(repr=False)
    ln_norm: float

    @property
    def norm_const(self) -> float:
        return exp_in_range(self.ln_norm, f"N_{self.j}")


def cs_expansion(j: int, label: CSLabel, cfg: FieldConfig) -> CSExpansion:
    """The (l, m) table of the branch-j series, grown by :func:`_grown_table`
    to amplitude tolerance _EPS relative to sqrt(N_j)."""
    l, alpha, ln_c, phase = _grown_table(j, _branch_l_values(j), label, cfg)
    peak = float(np.max(ln_c))
    ln_norm = -np.inf
    if peak > -np.inf:
        ln_norm = 2.0 * peak + math.log(np.sum(np.exp(2.0 * (ln_c - peak))))
    return CSExpansion(j=j, label=label, l=l, alpha=alpha,
                       ln_c=ln_c, phase=phase, ln_norm=ln_norm)


def _ln_normalization(j: int, u: float, v: float, mu: float) -> float:
    """ln N_j = u + v + ln P_nu at squared label moduli (u, v)."""
    if j == 0:
        return u + v + ln_marcum_p(1.0 - mu, u, v)
    if j == 1:
        return u + v + ln_marcum_p(mu, v, u)
    raise DomainError("branch j must be 0 or 1")


def _ln_half_norm(j: int, label: CSLabel, mu: float) -> float:
    """ln sqrt(N_j); DomainError where N_j = 0 and no state exists."""
    ln_n = _ln_normalization(j, label.u, label.v, mu)
    if ln_n == -np.inf:
        raise DomainError("coherent state undefined: zero normalization")
    return 0.5 * ln_n


def cs_normalization(j: int, u: float, v: float, mu: float) -> float:
    """N_j at squared label moduli (u, v) = (|z1|^2, |z2|^2).

    N_0 = exp(u+v) P_{1-mu}(u, v) and N_1 = exp(u+v) P_mu(v, u), summed
    in log space.  Raises DomainError where N_j exceeds the double
    range.
    """
    return exp_in_range(_ln_normalization(j, u, v, mu), f"N_{j}")


def cs_state(
    j: int,
    label: CSLabel,
    theta,
    rho,
    cfg: FieldConfig,
    normalized: bool = True,
):
    """Coherent-state value, elementwise over theta and rho.

    Unit norm unless disabled; the amplitudes are normalized in log
    space, exp(ln|c| - ln N_j / 2), so the value is finite wherever the
    normalized state is.  One Laguerre recurrence over m, vectorised
    over the rows of the :func:`cs_expansion` table and the points,
    accumulates sum_m c_lm I_m(rho) per row: memory is O(rows x points).
    """
    ex = cs_expansion(j, label, cfg)
    ln_scale = _ln_half_norm(j, label, cfg.mu) if normalized else 0.0
    theta, rho = np.broadcast_arrays(np.asarray(theta, dtype=float),
                                     np.asarray(rho, dtype=float))
    per_row = (slice(None),) + (None,) * rho.ndim
    amp = np.exp(ex.ln_c - ln_scale + 1j * ex.phase)
    radial = 0.0
    for m, lag in enumerate(laguerre_fn_rows(ex.alpha[per_row], amp.shape[1] - 1, rho)):
        radial = radial + amp[:, m][per_row] * lag
    phase = np.exp(1j * np.multiply.outer(ex.l - cfg.l0, theta))
    if j == 1:
        phase = phase * np.exp(-1j * math.pi * ex.l)[per_row]
    total = math.sqrt(cfg.gamma / (2.0 * math.pi)) * np.sum(phase * radial, axis=0)
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
    over the larger of the two tables, each term formed in log space;
    by Cauchy-Schwarz it never exceeds one in modulus.  Conjugate
    symmetric, in the phase convention of :func:`cs_state`.
    """
    if j_a != j_b:
        return 0.0 + 0.0j
    cfg = FieldConfig(mu=mu)
    ea, eb = cs_expansion(j_a, label_a, cfg), cs_expansion(j_b, label_b, cfg)
    (_, ln_a, ph_a), (_, ln_b, ph_b) = _on_larger_table(j_a, ea.l, label_a, eb.l, label_b, cfg)
    ln_scale = _ln_half_norm(j_a, label_a, mu) + _ln_half_norm(j_a, label_b, mu)
    return complex(np.sum(np.exp(ln_a + ln_b - ln_scale + 1j * (ph_b - ph_a))))


def mm_superpose(
    label: CSLabel,
    theta: float,
    rho: float,
    cfg: FieldConfig,
) -> complex:
    """Zero-flux coherent state: both branches superposed, unnormalized.

    Requires mu = 0 and l0 = 0.  Both branch series carry the uniform
    amplitudes z1^n1 z2^n2 / sqrt(n1! n2!); with that convention the
    (l, m) double sum is a free sum over the (n1, n2) lattice, equals
    the uniform-field coherent state

        sqrt(gamma/2 pi) exp(-rho/2) exp(z1 z2 - z1 w + z2 conj(w)),
        w = sqrt(rho) exp(i theta),

    and its squared norm is exp(|z1|^2 + |z2|^2).
    """
    if cfg.mu != 0.0 or cfg.l0 != 0:
        raise DomainError("zero-flux superposition requires mu = 0 and l0 = 0")
    total = 0.0 + 0.0j
    for j in (0, 1):
        # sqrt(N_j) times the normalized state = the bare branch series;
        # assembling it unnormalized avoids the 0/0 at zero labels
        total += cs_state(j, label, theta, rho, cfg, normalized=False)
    return total


def mm_weight_sum(u: float, v: float) -> float:
    """Sum of the two zero-flux weight functions; constant 1/pi^2.

    Evaluated through the Marcum-P kernel, branch 1 through its
    zero-order edge P_0 = P_1 + exp(-(u+v)) I_0(2 sqrt(uv)), with no
    shortcut, so the constancy is a genuine numerical check of the
    zero-flux measure.
    """
    from .completeness import WeightSpec, weight_fn

    return weight_fn(WeightSpec(j=0, mu=0.0), u, v) + weight_fn(WeightSpec(j=1, mu=0.0), u, v)
