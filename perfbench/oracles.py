"""Independent reference values for the benchmark's output checks.

Nothing here imports msf: every oracle is built from scipy, numpy and
mpmath, by a route other than the library's own, so a check compares
two implementations rather than one implementation with itself.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import special as sp

PI2 = math.pi ** 2


def marcum_p(nu: float, a: float, b: float) -> float:
    """Complementary generalised Marcum function, the non-central
    chi-square CDF: P_nu(a, b) = sum_m e^-a a^m/m! P(nu+m, b) =
    chndtr(2b, 2nu, 2a).

    chndtr keeps only about 1e-7 relative accuracy deep in the lower
    tail, and returns 0 once the value drops below ~1e-70; there the
    Poisson-gamma series is summed in mpmath at 40 digits.
    """
    val = float(sp.chndtr(2.0 * b, 2.0 * nu, 2.0 * a))
    if val >= 1e-6 or b == 0.0:
        return val
    with mpmath.workdps(40):
        a_m, b_m, nu_m = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(nu)
        pois = mpmath.exp(-a_m)
        total = mpmath.mpf(0)
        m = 0
        while True:
            term = pois * mpmath.gammainc(nu_m + m, 0, b_m, regularized=True)
            total += term
            # Poisson weights rise until m ~ a; past that, terms only shrink
            if m > a and term < total * mpmath.mpf(10) ** -30:
                return float(total)
            m += 1
            pois *= a_m / m


def weights(mu: float, u: float, v: float) -> tuple[float, float]:
    """(W_0, W_1) through pi^2 W_0 = P_{1-mu}(u, v), pi^2 W_1 = P_mu(v, u)."""
    return marcum_p(1.0 - mu, u, v) / PI2, marcum_p(mu, v, u) / PI2


def _ln_norm(j: int, mu: float, u: float, v: float) -> float:
    """ln N_j = u + v + ln P, so the normalisation never overflows."""
    p = marcum_p(1.0 - mu, u, v) if j == 0 else marcum_p(mu, v, u)
    return u + v + math.log(p)


def _laguerre_bessel(alpha: float, x: np.ndarray, t: complex) -> np.ndarray:
    """sum_m L_m^alpha(x) t^m / Gamma(m+alpha+1) = e^t (xt)^(-alpha/2) J_alpha(2 sqrt(xt))."""
    out = np.empty(x.shape, dtype=complex)
    zero = x == 0.0
    s = np.sqrt(x[~zero] * t + 0j)
    out[~zero] = np.exp(-alpha * np.log(s)) * sp.jv(alpha, 2.0 * s)
    out[zero] = 1.0 / math.gamma(alpha + 1.0)
    return np.exp(t) * out


def cs_state(j: int, z1: complex, z2: complex, mu: float, theta: float,
             rho: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Normalised coherent state on branch j, with l0 = 0.

    Each fixed-l block is summed over m in closed form by the
    Laguerre-Bessel generating function; the l-sum runs until three
    consecutive blocks are negligible.
    """
    rho = np.asarray(rho, dtype=float)
    t = z1 * z2
    lead = z1 if j == 1 else z2
    pref = math.sqrt(gamma / (2.0 * math.pi))
    total = np.zeros(rho.shape, dtype=complex)
    quiet = 0
    l = 0 if j == 1 else -1
    while quiet < 3:
        alpha = (l + mu) if j == 1 else (-l - mu)
        radial = np.zeros(rho.shape, dtype=complex)
        pos = rho > 0
        if lead != 0:
            ln_lead = np.log(complex(lead))
            radial[pos] = (np.exp(alpha * ln_lead + 0.5 * alpha * np.log(rho[pos]) - 0.5 * rho[pos])
                           * _laguerre_bessel(alpha, rho[pos], t))
        phase = np.exp(1j * l * theta) * (np.exp(-1j * math.pi * l) if j == 1 else 1.0)
        block = pref * phase * radial
        total += block
        big = np.max(np.abs(total))
        quiet = quiet + 1 if np.max(np.abs(block)) <= 1e-18 * max(big, 1e-300) else 0
        if abs(l) > 5000:
            raise RuntimeError("coherent-state oracle did not converge")
        l = l + 1 if j == 1 else l - 1
    return total * math.exp(-0.5 * _ln_norm(j, mu, abs(z1) ** 2, abs(z2) ** 2))


def kernel(l: int, mu: float, tau: float, rho: float, rhop: np.ndarray,
           gamma: float = 1.0) -> np.ndarray:
    """Wick-axis fixed-l kernel (Hille-Hardy closed form) at dtheta = 0, l0 = 0,
    evaluated over the whole grid with the scaled Bessel function."""
    rhop = np.asarray(rhop, dtype=float)
    nu = -(l + mu) if l < 0 else (l + mu)
    half = gamma * tau / 2.0
    sh, ch = math.sinh(half), math.cosh(half)
    zarg = np.sqrt(rho * rhop) / sh
    radial = np.exp(-0.5 * (rho + rhop) * ch / sh + zarg) * sp.ive(nu, zarg) / sh
    return (gamma / (4.0 * math.pi)) * math.exp(-half * (l + mu)) * 1j * radial


def laguerre_fn(alpha: float, m: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal Laguerre function sqrt(m!/Gamma(m+alpha+1)) x^(alpha/2) e^(-x/2) L_m^alpha(x)."""
    x = np.asarray(x, dtype=float)
    ln_n = 0.5 * (sp.gammaln(m + 1.0) - sp.gammaln(m + alpha + 1.0))
    with np.errstate(divide="ignore"):
        env = np.exp(ln_n + 0.5 * alpha * np.log(x) - 0.5 * x)
    return env * sp.eval_genlaguerre(m, alpha, x)


def state(l: int, m: int, mu: float, theta: float, rho: np.ndarray,
          gamma: float = 1.0) -> np.ndarray:
    """Stationary state phi^(j)_{n1,n2}(theta, rho) with l0 = 0."""
    alpha = (l + mu) if l >= 0 else (-l - mu)
    phase = np.exp(1j * l * theta) * (np.exp(-1j * math.pi * l) if l >= 0 else 1.0)
    return math.sqrt(gamma / (2.0 * math.pi)) * phase * laguerre_fn(alpha, m, rho)


def rel_kernel_diag(sigma: int, l: int, mu: float, vartheta: int, mass: float, tau: float,
                    rho: float, x: np.ndarray, gamma: float = 1.0) -> np.ndarray:
    """Spectral mode sum of the non-zero diagonal entry of the proper-time
    kernel block at s = -i tau, dtheta = dt = 0, l0 = 0.

    160 modes leave a tail below exp(-2 * 160 * gamma * tau), negligible
    for the tau >= 0.3 the benchmark uses.
    """
    if l != 0:
        nu = abs(l - (1 + sigma) // 2 + mu)
    else:
        nu = ((1 + sigma) / 2.0 - mu) * vartheta
    l_s = l - (1 + sigma) // 2
    x = np.asarray(x, dtype=float)
    xsum = np.zeros(x.shape)
    for m in range(160):
        xsum += (math.exp(-(2 * m + nu + 1) * gamma * tau)
                 * laguerre_fn(nu, m, np.array([rho]))[0] * laguerre_fn(nu, m, x))
    pref = -(gamma * math.exp(-mass ** 2 * tau) * math.exp(-(l_s + sigma + mu) * gamma * tau)
             / (8.0 * math.pi ** 1.5 * math.sqrt(tau)))
    return 2.0 * pref * xsum
