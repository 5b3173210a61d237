"""Coherent states in the magnetic-solenoid field.

A coherent state on branch j is the double series

    Phi^(j)_{z1,z2} = N_j^{-1/2} sum_l sum_m  c_{lm} phi^(j)_{n1,n2},
    c_{lm} = z1^n1 z2^n2 / sqrt(Gamma(1+n1) Gamma(1+n2)),

with (n1, n2) resolved per branch.  Powers with non-integer exponents
use the principal logarithm of each label; this fixes the phase
convention (overlaps computed with other branch conventions can differ
by a constant unimodular factor, their moduli agree).

Normalization constants and overlaps are controlled by the Bessel
series Q_nu(a, b) = sum_l (b/a)^(nu+l) I_{nu+l}(2ab):

    N_0(u, v) = Q_{1-mu}(sqrt u, sqrt v),
    N_1(u, v) = Q_mu(sqrt v, sqrt u),        u = |z1|^2, v = |z2|^2.

The normalizations are evaluated as exp(u + v) P_nu through the
complementary Marcum kernel :func:`msf.specfun.ln_marcum_p`; overlaps
sum the Bessel series at complex arguments.

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

from .specfun import (
    DEFAULT_CONTROL,
    DomainError,
    SeriesControl,
    TruncationError,
    bessel_i,
    laguerre_fn_table,
    ln_gamma,
    ln_marcum_p,
)
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


def _cpow(z: complex, p: float) -> complex:
    """z**p via the principal logarithm, with 0**0 = 1 and 0**p = 0."""
    if z == 0:
        return 1.0 + 0.0j if p == 0 else 0.0 + 0.0j
    return cmath.exp(p * cmath.log(z))


def _amplitude(n1: float, n2: float, label: CSLabel) -> complex:
    """z1^n1 z2^n2 / sqrt(Gamma(1+n1) Gamma(1+n2)), for planar and Dirac states."""
    c = _cpow(label.z1, n1) * _cpow(label.z2, n2)
    if c == 0:
        return 0.0 + 0.0j
    return c * math.exp(-0.5 * (ln_gamma(1.0 + n1) + ln_gamma(1.0 + n2)).real)


def cs_coefficient(j: int, l: int, m: int, label: CSLabel, cfg: FieldConfig) -> complex:
    """Series amplitude z1^n1 z2^n2 / sqrt(Gamma(1+n1) Gamma(1+n2))."""
    q = resolve_qnums(j, l, m, cfg)
    return _amplitude(q.n1, q.n2, label)


@dataclass(frozen=True)
class BranchTerm:
    """Inner m-sum of the coherent state at fixed angular number l."""

    j: int
    l: int
    coeffs: np.ndarray  # index m
    tail_bound: float

    def weight(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))


def cs_branch(
    j: int,
    l: int,
    label: CSLabel,
    cfg: FieldConfig,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> BranchTerm:
    """Coefficients of the inner m-sum with a geometric tail bound.

    Truncation: |c_m| eventually decays faster than any geometric ratio
    (Gamma factors); the sum stops when the estimated amplitude tail
    drops below ctl.rel_tol relative to the largest amplitude seen, so
    pointwise state values inherit the requested relative accuracy.
    """
    coeffs = []
    amp_scale = 0.0
    prev = None
    m = 0
    while True:
        c = cs_coefficient(j, l, m, label, cfg)
        coeffs.append(c)
        a = abs(c)
        amp_scale = max(amp_scale, a)
        if prev is not None and a < prev and prev > 0.0:
            r = a / prev
            tail = a * r / (1.0 - r) if r < 1 else np.inf
            if m >= 2 and tail <= ctl.rel_tol * max(amp_scale, 1e-300):
                return BranchTerm(j=j, l=l, coeffs=np.array(coeffs), tail_bound=tail)
        if a == 0.0 and m >= 2:
            # zero label: at most a single surviving amplitude
            return BranchTerm(j=j, l=l, coeffs=np.array(coeffs), tail_bound=0.0)
        if m + 1 >= ctl.max_terms:
            raise TruncationError("coherent-state m-sum did not converge", amp_scale, a)
        prev = a
        m += 1


def _branch_l_values(j: int, vartheta: int = -1):
    """Angular numbers of branch j, outward from the flux line.

    Branch 0 counts down from -(1 - vartheta)/2 and branch 1 up from
    (1 + vartheta)/2: vartheta = -1 gives the planar ranges l < 0 and
    l >= 0, and the Dirac extensions vartheta = +-1 their own ranges.
    """
    if j == 0:
        return itertools.count(-(1 - vartheta) // 2, -1)
    return itertools.count((1 + vartheta) // 2)


@dataclass(frozen=True)
class CSExpansion:
    """Truncated coherent-state expansion on one branch.

    coeffs maps (l, m) to the series amplitude; norm_const is the
    truncated sum of |amplitude|^2 (approximates N_j).
    """

    j: int
    label: CSLabel
    coeffs: dict = field(repr=False)
    norm_const: float
    rel_tol: float


def cs_expansion(
    j: int,
    label: CSLabel,
    cfg: FieldConfig,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> CSExpansion:
    """Full (l, m) expansion, truncated when three consecutive l blocks
    contribute less than ctl.rel_tol of the accumulated weight."""
    coeffs: dict = {}
    total = 0.0
    small_blocks = 0
    for count, l in enumerate(_branch_l_values(j)):
        term = cs_branch(j, l, label, cfg, ctl)
        w = term.weight()
        for m, c in enumerate(term.coeffs):
            if c != 0:
                coeffs[(l, m)] = complex(c)
        total += w
        if total > 0 and w <= ctl.rel_tol * total:
            small_blocks += 1
            if small_blocks >= 3:
                break
        else:
            small_blocks = 0
        if count >= ctl.max_terms:
            raise TruncationError("coherent-state l-sum did not converge", total, w)
    return CSExpansion(j=j, label=label, coeffs=coeffs, norm_const=total, rel_tol=ctl.rel_tol)


_LN_DOUBLE_MAX = math.log(np.finfo(float).max)


def cs_normalization(j: int, u: float, v: float, mu: float) -> float:
    """N_j at squared label moduli (u, v) = (|z1|^2, |z2|^2).

    N_0 = exp(u+v) P_{1-mu}(u, v) and N_1 = exp(u+v) P_mu(v, u), summed
    in log space.  Raises DomainError where N_j exceeds the double
    range.
    """
    if j == 0:
        ln_p = ln_marcum_p(1.0 - mu, u, v)
    elif j == 1:
        ln_p = ln_marcum_p(mu, v, u)
    else:
        raise DomainError("branch j must be 0 or 1")
    ln_n = u + v + ln_p
    if ln_n > _LN_DOUBLE_MAX:
        raise DomainError(f"N_{j} = exp({ln_n:.6g}) exceeds the double range")
    return math.exp(ln_n)


def cs_state(
    j: int,
    label: CSLabel,
    theta: float,
    rho: float,
    cfg: FieldConfig,
    ctl: SeriesControl = DEFAULT_CONTROL,
    normalized: bool = True,
) -> complex:
    """Coherent-state value at a point (unit norm unless disabled).

    The l-sum is truncated by the same three-quiet-blocks rule as
    :func:`cs_expansion`; each radial m-sum reuses the coefficient
    truncation of :func:`cs_branch`.
    """
    if normalized:
        norm = cs_normalization(j, label.u, label.v, cfg.mu)
        if norm <= 0.0:
            raise DomainError("coherent state undefined: zero normalization")
    else:
        norm = 1.0
    pref = math.sqrt(cfg.gamma / (2.0 * math.pi))
    total = 0.0 + 0.0j
    running = 0.0
    small_blocks = 0
    for count, l in enumerate(_branch_l_values(j)):
        term = cs_branch(j, l, label, cfg, ctl)
        mmax = len(term.coeffs) - 1
        if j == 0:
            alpha = -l - cfg.mu
        else:
            alpha = l + cfg.mu
        tab = laguerre_fn_table(alpha, mmax, np.asarray([rho]))[:, 0]
        radial = np.dot(term.coeffs, tab)
        phase = cmath.exp(1j * (l - cfg.l0) * theta)
        if j == 1:
            phase *= cmath.exp(-1j * math.pi * l)
        contrib = pref * phase * radial
        total += contrib
        running += abs(contrib)
        quiet = (abs(contrib) <= ctl.rel_tol * running) if running > 0 else (count >= 1)
        if quiet:
            small_blocks += 1
            if small_blocks >= 3:
                break
        else:
            small_blocks = 0
        if count >= ctl.max_terms:
            raise TruncationError("coherent-state point value did not converge",
                                  abs(total), abs(contrib))
    return total / math.sqrt(norm)


def _q_complex(nu: float, a: complex, b: complex, ctl: SeriesControl) -> complex:
    """Q_nu(sqrt(a), sqrt(b)) for complex a, b via the Bessel term sum.

    Powers of a and b use the principal branch.  Used for overlaps,
    where a = conj(z1) z1' and b = conj(z2) z2'.
    """
    if a == 0 or b == 0:
        # termwise limits of the double power series
        if b == 0:
            if nu > 0:
                return 0.0 + 0.0j
            if nu == 0:
                return 1.0 + 0.0j
            raise DomainError("overlap series diverges")
        total = 0.0 + 0.0j
        for l in range(0, 10_000):
            t = _cpow(b, nu + l) * math.exp(-ln_gamma(nu + l + 1.0).real)
            total += t
            if abs(t) <= ctl.rel_tol * max(abs(total), 1e-300) and l > 2:
                return total
        raise TruncationError("overlap series did not converge", abs(total), abs(t))
    sa, sb = cmath.sqrt(a), cmath.sqrt(b)
    ratio_log = cmath.log(sb) - cmath.log(sa)
    zarg = 2.0 * sa * sb
    total = 0.0 + 0.0j
    prev = np.inf
    decreasing = 0
    for l in range(0, ctl.max_terms):
        t = cmath.exp((nu + l) * ratio_log) * bessel_i(nu + l, zarg)
        total += t
        at = abs(t)
        decreasing = decreasing + 1 if at <= prev else 0
        if decreasing >= 2 and at <= ctl.rel_tol * max(abs(total), 1e-300):
            return total
        prev = at
    raise TruncationError("overlap series did not converge", abs(total), at)


def cs_overlap(
    j_a: int,
    label_a: CSLabel,
    j_b: int,
    label_b: CSLabel,
    mu: float,
    ctl: SeriesControl = DEFAULT_CONTROL,
) -> complex:
    """Overlap of two normalized coherent states.

    Cross-branch overlaps vanish exactly (disjoint angular ranges).  On
    one branch the overlap is R / sqrt(N N') with R the Q series
    evaluated at the conjugated label products; it is conjugate
    symmetric away from the principal-branch cut (label products on the
    negative real axis).
    """
    if j_a != j_b:
        return 0.0 + 0.0j
    a = complex(np.conj(label_a.z1) * label_b.z1)
    b = complex(np.conj(label_a.z2) * label_b.z2)
    if j_a == 0:
        r = _q_complex(1.0 - mu, a, b, ctl)
    else:
        r = _q_complex(mu, b, a, ctl)
    na = cs_normalization(j_a, label_a.u, label_a.v, mu)
    nb = cs_normalization(j_b, label_b.u, label_b.v, mu)
    # N alone stays in range where the product N N' would not
    return r / (math.sqrt(na) * math.sqrt(nb))


def mm_superpose(
    label: CSLabel,
    theta: float,
    rho: float,
    cfg: FieldConfig,
    ctl: SeriesControl = DEFAULT_CONTROL,
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
        total += cs_state(j, label, theta, rho, cfg, ctl, normalized=False)
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
