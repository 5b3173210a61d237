"""Verification and tabulation command line tool.

Usage:

    msf verify   [--suite S] [--list] [options]
    msf tabulate TARGET [grid flags] [options]

    options: [--mu F] [--l0 I] [--gamma F] [--vartheta +-1] [--mass F]
             [--out PATH] [--format csv|json]

``verify`` runs a named identity suite and writes a machine-readable
report; the exit status is 0 when every check passes, 1 on any check
failure, 2 on usage errors.  ``tabulate`` emits state/weight/kernel/
spectrum tables on rectangular grids.  A flat key=value config file can
be supplied through the MSF_CONFIG environment variable; its keys are
the option names, checked like the flags, and flags win over the file.
Every value is range-checked once, when the run configuration is built
(mu in [0, 1), finite gamma > 0, finite mass >= 0, integer l0): an
invalid one exits 2 with one ``error:`` line, whichever suite or table
is asked for.  A malformed grid or label and an unwritable ``--out``
are usage errors too.
A given ``mu`` replaces the flux values that each suite scans, and a
given ``vartheta`` the extensions that the dirac and rel-cs suites scan
(embed-3p1 and kernel-rel read ``vartheta`` either way, default +1).

Output files are deterministic: identical configuration produces
byte-identical bytes (timing information goes to the console only,
never into the file).
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .specfun import DomainError, TruncationError, laguerre_fn_table, ln_gamma
from .landau import (
    FieldConfig,
    _branch_l_values,
    _branch_of,
    _laguerre_order,
    energy_nonrel,
    gram_matrix,
    make_quadrature,
    resolve_qnums,
    stationary_state,
)
from .cs import CSLabel, cs_branch, cs_normalization, cs_state, mm_weight_sum
from .completeness import (
    KernelParams,
    angular_delta_smear,
    moment_check,
    g_matrix,
    propagator_closed,
    propagator_series,
    radial_delta_smear,
    unity_reconstruction,
    weight_fn,
    weight_half_closed,
)
from . import dirac as _dr
from .radial import make_radial_grid

TABULATE_TARGETS = ("state", "cs-density", "weight", "kernel", "spectrum")


# name -> (type, choices, help): the one list of settable values, read by
# the flags of both commands, the MSF_CONFIG parser and the config echo
OPTIONS = {
    "mu": (float, None, "fractional flux in [0,1); replaces each suite's flux values"),
    "l0": (int, None, "integer flux part"),
    "gamma": (float, None, "field strength scale, > 0"),
    "vartheta": (int, (-1, 1), "self-adjoint extension label; replaces the "
                               "dirac and rel-cs suites' extensions"),
    "mass": (float, None, "fermion mass, >= 0"),
    "out": (str, None, "output file path"),
    "format": (str, ("csv", "json"), "output format"),
}
_OUTPUT_OPTIONS = ("out", "format")  # where the output goes: not echoed


@dataclass(frozen=True)
class RunConfig:
    mu: float = 0.5
    l0: int = 0
    gamma: float = 1.0
    vartheta: int = 1
    mass: float = 1.0
    out: str | None = None
    format: str = "json"
    given: frozenset[str] = frozenset()  # option names set by flag or by MSF_CONFIG

    def __post_init__(self):
        # the ranges of FieldConfig and DiracConfig, checked once for every
        # suite and table: an out-of-range value raises DomainError here
        _dr.DiracConfig(field=self.field_config(), mass=self.mass, vartheta=self.vartheta)

    def field_config(self, mu: float | None = None) -> FieldConfig:
        return FieldConfig(gamma=self.gamma, l0=self.l0,
                           mu=self.mu if mu is None else mu)

    def values(self, name: str, default: tuple) -> tuple:
        """The given value of option ``name`` alone, else a suite's defaults."""
        return (getattr(self, name),) if name in self.given else default


@dataclass
class CheckRecord:
    name: str
    params: str
    achieved_error: float
    tolerance: float

    @property
    def status(self) -> str:
        return "pass" if self.achieved_error <= self.tolerance else "fail"


@dataclass
class VerificationReport:
    suite: str
    config: dict
    records: list = field(default_factory=list)

    def add(self, name: str, params: str, err: float, tol: float):
        self.records.append(CheckRecord(name, params, float(err), float(tol)))

    @property
    def passed(self) -> bool:
        return all(r.status == "pass" for r in self.records)


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def suite_orthonormality(cfg: RunConfig, rep: VerificationReport):
    tol = 1e-10
    for mu in cfg.values("mu", (0.0, 0.25, 0.5, 0.9)):
        fc = cfg.field_config(mu)
        states = [resolve_qnums(0, l, m, fc) for l in range(-10, 0) for m in range(11)]
        states += [resolve_qnums(1, l, m, fc) for l in range(0, 11) for m in range(11)]
        g = gram_matrix(states, fc)
        err = float(np.max(np.abs(g - np.eye(len(states)))))
        rep.add("gram-identity", f"mu={mu} m<=10 |l|<=10", err, tol)


def suite_cs_normalization(cfg: RunConfig, rep: VerificationReport):
    tol = 1e-10
    grid = np.linspace(0.0, 9.0, 10)
    u, v = np.meshgrid(grid, grid, indexing="ij")
    target = np.exp(u + v)
    for mu in cfg.values("mu", (0.0, 0.25, 0.5, 0.75)):
        total = cs_normalization(0, u, v, mu) + cs_normalization(1, u, v, mu)
        worst = np.max(np.abs(total - target) / target)
        rep.add("exp-sum-rule", f"mu={mu} u,v in [0,9]", worst, tol)
    # unit norm of the assembled state against the series normalization
    fc = cfg.field_config(*cfg.values("mu", (0.5,)))
    lab = CSLabel(0.7 + 0.2j, -0.4j)
    worst = 0.0
    for j in (0, 1):
        total = 0.0
        for l in itertools.islice(_branch_l_values(j), 29):
            coeffs = cs_branch(l, lab, fc)
            alpha = _laguerre_order(j, l, fc.mu)
            quad = make_quadrature(alpha, 48)
            tab = laguerre_fn_table(alpha, len(coeffs) - 1, quad.nodes)
            prof = coeffs @ tab
            total += float(quad.integrate(np.abs(prof) ** 2).real)
        n = cs_normalization(j, lab.u, lab.v, fc.mu)
        worst = max(worst, abs(total / n - 1.0))
    rep.add("cs-unit-norm", f"mu={fc.mu} z=(0.7+0.2i,-0.4i)", worst, 1e-9)


def suite_weights(cfg: RunConfig, rep: VerificationReport):
    grid = np.linspace(0.0, 9.0, 10)
    u, v = np.meshgrid(grid, grid, indexing="ij")
    worst = max(np.max(np.abs(weight_fn(j, u, v, 0.5)
                              - weight_half_closed(j, u, v))) for j in (0, 1))
    rep.add("half-flux-closed-form", "mu=0.5 u,v in [0,9]", worst, 1e-12)
    worst = np.max(np.abs(mm_weight_sum(u, v) - 1.0 / math.pi**2))
    rep.add("zero-flux-constant", "u,v in [0,9]", worst, 1e-10)
    # positivity on a sampled grid, all mu
    grid = np.linspace(0.25, 8.0, 6)
    u, v = np.meshgrid(grid, grid, indexing="ij")
    w_min = min(np.min(weight_fn(j, u, v, mu))
                for mu in cfg.values("mu", (0.1, 0.25, 0.5, 0.75, 0.9)) for j in (0, 1))
    rep.add("weight-positivity", "sampled grid", 1.0 - w_min if w_min <= 0 else 0.0, 0.5)


def suite_moments(cfg: RunConfig, rep: VerificationReport):
    tol = 1e-10
    for n in np.linspace(-0.85, 12.0, 50):
        mc = moment_check(float(n))
        rep.add("gamma-moment", f"n={n:.6g}", mc.abs_err / mc.gamma_value, tol)


def suite_g_matrix(cfg: RunConfig, rep: VerificationReport):
    tol = 1e-9
    worst = 0.0
    for mu in cfg.values("mu", (0.25, 0.5, 0.75)):
        for j, lrange in ((0, range(-4, 0)), (1, range(0, 5))):
            for m in range(0, 7):
                for l in lrange:
                    gq = g_matrix(m, m, l, l, mu)
                    # the Gamma exponents are written by hand as the independent
                    # oracle for g_matrix's branch map: reading them from
                    # resolve_qnums would compare g_matrix with its own inputs
                    if j == 0:
                        gc = math.exp(ln_gamma(1.0 + m).real + ln_gamma(1.0 + m - l - mu).real)
                    else:
                        gc = math.exp(ln_gamma(1.0 + m + l + mu).real + ln_gamma(1.0 + m).real)
                    worst = max(worst, abs(gq - gc) / gc)
        rep.add("g-matrix-closed-form", f"mu={mu} m<=6 |l|<=4", worst, tol)
    off = abs(g_matrix(1, 2, -1, -1, 0.5)) + abs(g_matrix(1, 1, -1, -2, 0.5))
    rep.add("g-matrix-off-diagonal", "angular deltas", off, 0.0)


def suite_unity(cfg: RunConfig, rep: VerificationReport):
    tol = 1e-6
    (mu,) = cfg.values("mu", (0.5,))
    for j in (0, 1):
        if j == 0:
            pairs = [(l, m) for l in range(-4, 0) for m in range(0, 5)]
        else:
            pairs = [(l, m) for l in range(0, 5) for m in range(0, 5)]
        g = unity_reconstruction(pairs, mu=mu, j=j, n_nodes=100)
        err = float(np.max(np.abs(g - np.eye(len(pairs)))))
        rep.add("unity-diagonal", f"j={j} mu={mu} m,|l|<=4", err, tol)


def suite_propagator(cfg: RunConfig, rep: VerificationReport):
    tol = 1e-8
    fc = cfg.field_config(*cfg.values("mu", (0.3,)))
    worst = 0.0
    for tau in (0.05, 0.1, 0.2, 0.5, 1.0):
        for l in (-1, 2):
            p = KernelParams(l=l, delta_t=-1j * tau, cfg=fc)
            a = propagator_closed(p, 0.7, 1.0, 2.0)
            b = propagator_series(p, 0.7, 1.0, 2.0)
            worst = max(worst, abs(a - b) / abs(a))
    rep.add("mode-sum-vs-closed", f"mu={fc.mu} tau in [0.05,1]", worst, tol)
    errs = []
    for tau in np.geomspace(0.2, 0.02, 6):
        p = KernelParams(l=-1, delta_t=-1j * float(tau), cfg=fc)
        errs.append(radial_delta_smear(p, rho=1.5))
    mono = all(a > b for a, b in zip(errs, errs[1:]))
    rep.add("radial-delta-monotone", "tau 0.2 -> 0.02", 0.0 if mono else 1.0, 0.5)
    a10, a40 = angular_delta_smear(10), angular_delta_smear(40)
    rep.add("angular-delta-smear", "l_max 40", a40, max(1e-8, a10 / 10))


def _dirac_setup(cfg: RunConfig, mu: float, vt: int):
    fc = cfg.field_config(mu)
    dc = _dr.DiracConfig(field=fc, mass=cfg.mass, vartheta=vt)
    grid = make_radial_grid(rho_max=70.0)
    return dc, grid


def suite_dirac(cfg: RunConfig, rep: VerificationReport):
    (mu,) = cfg.values("mu", (0.4,))
    for vt in cfg.values("vartheta", (1, -1)):
        dc, grid = _dirac_setup(cfg, mu, vt)
        base1, base0 = next(_branch_l_values(1, vt)), next(_branch_l_values(0, vt))
        combos = [(1, base1 + dl, m) for dl in range(3) for m in range(2)]
        combos += [(0, base0 - dl, m) for dl in range(2) for m in range(2)]
        spinors = []
        for (j, l, m) in combos:
            for charge in (1, -1):
                q = _dr.resolve_rel_qnums(j, l, m, charge, dc)
                psi, e = _dr.dirac_spinor(q, dc, charge, grid)
                spinors.append((psi, e, charge))
        n = len(spinors)
        g = np.array([[_dr.d_inner(spinors[a][0], spinors[b][0], dc) for b in range(n)]
                      for a in range(n)])
        rep.add("spinor-gram", f"vt={vt:+d} mu={mu} {n} states",
                float(np.max(np.abs(g - np.eye(n)))), 1e-8)
        worst_p = 0.0
        for (j, l, m, sig) in [(1, base1, 0, 1), (0, base0, 0, -1), (1, base1 + 1, 1, -1)]:
            q = _dr.resolve_rel_qnums(j, l, m, sig, dc)
            u = _dr.basis_spinor_component(q, dc, grid)
            ppu = _dr.apply_sigma_p(_dr.apply_sigma_p(u, dc), dc)
            t = _dr.e_perp_sq(q, dc)
            if t != 0:
                worst_p = max(worst_p, _dr.d_norm(ppu - t * u, dc, origin_tail=False)
                              / (abs(t) * _dr.d_norm(u, dc)))
            else:
                worst_p = max(worst_p, _dr.d_norm(ppu, dc, origin_tail=False)
                              / (2.0 * dc.field.gamma))
        rep.add("sigma-p-squared", f"vt={vt:+d} mu={mu}", worst_p, 1e-6)
        worst_h = 0.0
        for (psi, e, charge) in spinors[:10]:
            resid = _dr.hamiltonian_apply(psi, dc) - charge * e * psi
            worst_h = max(worst_h, _dr.d_norm(resid, dc, origin_tail=False) / e)
        rep.add("hamiltonian-residual", f"vt={vt:+d} mu={mu}", worst_h, 1e-5)


def suite_rel_cs(cfg: RunConfig, rep: VerificationReport):
    (mu,) = cfg.values("mu", (0.5,))
    lab_a = CSLabel(0.6 + 0.3j, -0.2 + 0.5j)
    lab_b = CSLabel(0.3 - 0.4j, 0.7j)
    worst_n = worst_o = 0.0
    # unpinned: branch 1 at vartheta = +1 (rows l >= 1) and branch 0 at
    # vartheta = -1 (rows l <= -1); pinned: both branches at the given one
    for j, vt in zip((1, 0), itertools.cycle(cfg.values("vartheta", (1, -1)))):
        dc, grid = _dirac_setup(cfg, mu, vt)
        for charge in (1, -1):
            a = _dr.rel_cs(j, lab_a, dc, charge, grid=grid)
            b = _dr.rel_cs(j, lab_b, dc, charge, grid=grid)
            worst_n = max(worst_n, abs(_dr.rel_cs_inner(a, a, dc).real - 1.0))
            ovq = _dr.rel_cs_inner(a, b, dc)
            ovc = _dr.rel_cs_overlap_closed(j, lab_a, lab_b, dc, charge)
            worst_o = max(worst_o, abs(ovq - ovc))
    rep.add("rel-cs-unit-norm", f"mu={mu} both branches/charges", worst_n, 1e-7)
    rep.add("rel-cs-overlap-dual", f"mu={mu}", worst_o, 1e-7)


def suite_embed(cfg: RunConfig, rep: VerificationReport):
    (mu,) = cfg.values("mu", (0.4,))
    dc, grid = _dirac_setup(cfg, mu, cfg.vartheta)
    base1 = next(_branch_l_values(1, cfg.vartheta))
    worst_sz = worst_n = worst_h = 0.0
    for s in (1, -1):
        psi, _ = _dr.embed_3p1(1, base1, 0, 1, s, 0.0, dc, grid)
        worst_n = max(worst_n, abs(math.sqrt(_dr.d_inner(psi, psi, dc).sum().real) - 1.0))
        diff = _dr.sz_apply(psi, 0.0, dc) - s * psi
        worst_sz = max(worst_sz, math.sqrt(abs(_dr.d_inner(diff, diff, dc).sum().real)))
    for p3 in (0.0, 0.7, -1.3):
        psi, et = _dr.embed_3p1(1, base1, 0, 1, 1, p3, dc, grid)
        diff = _dr.h3p1_apply(psi, p3, dc) - et * psi
        worst_h = max(worst_h, math.sqrt(abs(_dr.d_inner(diff, diff, dc).sum().real)) / et)
    rep.add("embed-unit-norm", f"mu={mu}", worst_n, 1e-10)
    rep.add("embed-sz-eigen", f"mu={mu} p3=0", worst_sz, 1e-5)
    rep.add("embed-energy-eigen", f"mu={mu} p3 in {{0,0.7,-1.3}}", worst_h, 1e-9)
    # non-relativistic suppression of the small components, O(1/M)
    ratios = []
    for mass in (10.0, 100.0, 1000.0):
        dcm = replace(dc, mass=mass)
        psi, _ = _dr.embed_3p1(1, base1, 0, 1, 1, 0.0, dcm, grid)
        norms = _dr.d_inner(psi, psi, dcm).real  # upper, lower column
        rest = 0.5 * (psi - psi.sigma3())  # (1 - sigma3)/2: the lower slot of each column
        small = math.sqrt(abs(_dr.d_inner(rest, rest, dcm)[0].real + norms[1]))
        ratios.append(small / math.sqrt(abs(norms[0])))
    scale_err = max(abs(ratios[i] * (10.0 ** (i + 1)) / (ratios[0] * 10.0) - 1.0)
                    for i in range(3))
    rep.add("embed-1-over-m-scaling", "M in {10,100,1000}", scale_err, 0.05)


def suite_kernel_rel(cfg: RunConfig, rep: VerificationReport):
    (mu,) = cfg.values("mu", (0.3,))
    fc = cfg.field_config(mu)
    dc = _dr.DiracConfig(field=fc, mass=cfg.mass, vartheta=cfg.vartheta)
    k = _dr.green_kernel_rel(1, 2, dc, -0.3j, 0.4, 0.0, 1.0, 2.0)
    proj_err = abs(k[0, 1]) + abs(k[1, 0]) + abs(k[1, 1])
    rep.add("projector-structure", "sigma=+1", proj_err, 0.0)
    worst = 0.0
    g = fc.gamma

    def prefactor(sig, l_s, tau):  # of the kernel diagonal on the Wick axis s = -i tau
        return -(g * math.exp(-cfg.mass**2 * tau) * math.exp(-(l_s + sig + mu) * g * tau)
                 / (8.0 * math.pi**1.5 * math.sqrt(tau)))

    for (sig, l, vt) in [(1, 2, 1), (-1, -1, 1), (1, 0, -1), (-1, 0, 1)]:
        dcv = _dr.DiracConfig(field=fc, mass=cfg.mass, vartheta=vt)
        tau, rho, rho_p = 0.35, 1.0, 2.0
        _, l_s, nu = _dr._row(sig, l, dcv)
        kv = _dr.green_kernel_rel(sig, l, dcv, -1j * tau, 0.0, 0.0, rho, rho_p)
        diag = kv[0, 0] if sig == 1 else kv[1, 1]
        tab = laguerre_fn_table(nu, 70, np.array([rho, rho_p]))
        xsum = 2.0 * np.dot(np.exp(-(2 * np.arange(71) + nu + 1) * g * tau),
                            tab[:, 0] * tab[:, 1])
        pred = prefactor(sig, l_s, tau) * xsum
        worst = max(worst, abs(diag.real - pred) / abs(pred) + abs(diag.imag))
    rep.add("kernel-mode-sum", f"mu={mu} incl. both vartheta l=0 channels",
            worst, 1e-10)
    grid = make_radial_grid(rho_max=24.0, tail_step=0.5)
    rho0, width = 1.5, 0.35
    gvals = np.exp(-((grid.nodes - rho0) ** 2) / (2.0 * width**2))
    l_s = _dr._row(1, 2, dc)[1]
    errs = []
    for tau in np.geomspace(0.2, 0.02, 6):
        kvals = _dr.green_kernel_rel(1, 2, dc, -1j * float(tau), 0.0, 0.0,
                                     rho0, grid.nodes)[:, 0, 0]
        sm = grid.integrate(kvals * gvals)
        pref = prefactor(1, l_s, tau) * 2.0
        errs.append(abs(sm - pref) / abs(pref))
    mono = all(a > b for a, b in zip(errs, errs[1:]))
    rep.add("rel-radial-delta-monotone", "tau 0.2 -> 0.02", 0.0 if mono else 1.0, 0.5)


SUITE_FUNCS = {
    "orthonormality": suite_orthonormality,
    "cs-normalization": suite_cs_normalization,
    "weights": suite_weights,
    "moments": suite_moments,
    "g-matrix": suite_g_matrix,
    "unity": suite_unity,
    "propagator": suite_propagator,
    "dirac": suite_dirac,
    "rel-cs": suite_rel_cs,
    "embed-3p1": suite_embed,
    "kernel-rel": suite_kernel_rel,
}
SUITES = (*SUITE_FUNCS, "all")


def verify_suite(cfg: RunConfig, suite: str) -> VerificationReport:
    """Run one named suite (or all of them) and return the report."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite {suite!r}; choose from {', '.join(SUITES)}")
    rep = VerificationReport(suite=suite, config=_config_echo(cfg))
    for name in SUITE_FUNCS if suite == "all" else [suite]:
        SUITE_FUNCS[name](cfg, rep)
    return rep


# ---------------------------------------------------------------------------
# tabulation
# ---------------------------------------------------------------------------


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(p) for p in spec.split(":"))
    except ValueError as exc:
        raise DomainError(f"malformed grid spec {spec!r}, expected start:stop:step") from exc
    if not (np.isfinite([start, stop, step]).all() and step > 0 and stop >= start):
        raise DomainError(f"malformed grid spec {spec!r}")
    n = math.floor((stop - start) / step + 1e-9)  # the slack keeps exact multiples
    return start + step * np.arange(n + 1)


def _finite_float(raw: str) -> float:
    """argparse type of the tabulate point values: a finite float."""
    val = float(raw)
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be finite, got {raw!r}")
    return val


def tabulate(cfg: RunConfig, target: str, args) -> tuple[list[str], list[list]]:
    """Build (header, columns) for a tabulation target: one list of Python
    scalars per column, each column of one type."""
    fc = cfg.field_config()
    if target == "weight":
        ugrid = _parse_grid(args.u)
        vgrid = _parse_grid(args.v)
        header = ["u", "v", "w0", "w1"]
        u, v = (a.ravel() for a in np.meshgrid(ugrid, vgrid, indexing="ij"))
        return header, [a.tolist() for a in (u, v, weight_fn(0, u, v, fc.mu),
                                             weight_fn(1, u, v, fc.mu))]
    if target == "spectrum":
        header = ["j", "l", "m", "n1", "energy"]
        rows = []
        for l in range(-args.lmax, args.lmax + 1):
            for m in range(0, args.mmax + 1):
                j = _branch_of(l)
                q = resolve_qnums(j, l, m, fc)
                rows.append((j, l, m, q.n1, energy_nonrel(q, fc)))
        return header, [list(col) for col in zip(*rows)] or [[] for _ in header]
    if target == "kernel":
        rhop = _parse_grid(args.rhop)
        p = KernelParams(l=args.l, delta_t=-1j * args.tau, cfg=fc)
        vals = propagator_closed(p, 0.0, args.rho, rhop)
        return ["rhop", "re", "im"], [rhop.tolist(), vals.real.tolist(), vals.imag.tolist()]
    if target == "state":
        rho = _parse_grid(args.rhop)
        q = resolve_qnums(_branch_of(args.l), args.l, args.m, fc)
        vals = stationary_state(q, args.theta, rho, fc)
        return ["rho", "re", "im"], [rho.tolist(), vals.real.tolist(), vals.imag.tolist()]
    if target == "cs-density":
        rho = _parse_grid(args.rhop)
        lab = CSLabel(args.z1, args.z2)
        vals = cs_state(args.j, lab, args.theta, rho, fc)
        # abs of each Python complex: np.abs rounds some last digits differently
        return ["rho", "re", "im", "abs2"], [rho.tolist(), vals.real.tolist(), vals.imag.tolist(),
                                             [abs(v) ** 2 for v in vals.tolist()]]
    raise DomainError(f"unknown tabulation target: {target}")


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _config_echo(cfg: RunConfig) -> dict:
    return {k: getattr(cfg, k) for k in OPTIONS if k not in _OUTPUT_OPTIONS}


REPORT_COLUMNS = ["name", "parameters", "achieved_error", "tolerance", "status"]


def _report_columns(rep: VerificationReport, comma: str = ",") -> list[list]:
    recs = rep.records
    return [[r.name for r in recs], [r.params.replace(",", comma) for r in recs],
            [r.achieved_error for r in recs], [r.tolerance for r in recs],
            [r.status for r in recs]]


def report_json(rep: VerificationReport) -> str:
    return _json_table({"suite": rep.suite, "config": rep.config},
                       REPORT_COLUMNS, _report_columns(rep))


def report_csv(rep: VerificationReport) -> str:
    return table_csv(REPORT_COLUMNS, _report_columns(rep, comma=";"))


def table_csv(header: list[str], columns: list[list]) -> str:
    """CSV text of a column-major table, formatted in one pass.

    A float cell is written as ``%.12g``, any other cell as ``str``.  Each
    column holds one type, so its first cell fixes the format of the whole
    column, and one row format applied to the flattened table writes every
    row.
    """
    head = ",".join(header) + "\n"
    if not columns[0]:
        return head
    row_fmt = ",".join("%.12g" if isinstance(col[0], float) else "%s" for col in columns) + "\n"
    return head + (row_fmt * len(columns[0])) % tuple(itertools.chain.from_iterable(zip(*columns)))


def table_json(header: list[str], columns: list[list], cfg: RunConfig) -> str:
    return _json_table({"config": _config_echo(cfg), "columns": header}, header, columns)


def _json_table(meta: dict, header: list[str], columns: list[list]) -> str:
    # json writes each double as its shortest round-trip repr, 17 digits at most
    obj = {"meta": meta, "records": [dict(zip(header, row)) for row in zip(*columns)]}
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _write_output(text: str, path: str | None):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------


def _load_config_file() -> dict:
    path = os.environ.get("MSF_CONFIG")
    if not path:
        return {}
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {line!r}")
            key, val = (p.strip() for p in line.split("=", 1))
            values[key] = val
    return values


def _config_value(key: str, raw: str):
    """One MSF_CONFIG value, with the type and choice checks of its flag."""
    if key not in OPTIONS:
        raise DomainError(f"unknown config key: {key}")
    typ, choices, _ = OPTIONS[key]
    val = typ(raw)
    if choices is not None and val not in choices:
        raise DomainError(f"config {key} = {raw!r}: choose from "
                          + ", ".join(map(str, choices)))
    return val


def _build_run_config(args) -> RunConfig:
    given = {key: _config_value(key, raw) for key, raw in _load_config_file().items()}
    given.update((key, getattr(args, key)) for key in OPTIONS
                 if getattr(args, key) is not None)  # flags win over the file
    return RunConfig(**given, given=frozenset(given))


def _add_common_flags(p: argparse.ArgumentParser):
    for name, (typ, choices, help_) in OPTIONS.items():
        p.add_argument(f"--{name}", type=typ, choices=choices, help=help_)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="msf",
        description="Verification and tabulation tool for magnetic-solenoid-field numerics",
    )
    sub = parser.add_subparsers(dest="command")

    pv = sub.add_parser("verify", help="run an identity suite")
    pv.add_argument("--suite", default="all", help="suite name (see --list)")
    pv.add_argument("--list", action="store_true", help="list available suites")
    _add_common_flags(pv)

    pt = sub.add_parser("tabulate", help="emit tables on parameter grids")
    pt.add_argument("target", choices=TABULATE_TARGETS)
    pt.add_argument("--u", default="0:4:0.5", help="u grid start:stop:step")
    pt.add_argument("--v", default="0:4:0.5", help="v grid start:stop:step")
    pt.add_argument("--rho", type=_finite_float, default=1.0)
    pt.add_argument("--rhop", default="0:6:0.05", help="rho grid start:stop:step")
    pt.add_argument("--theta", type=_finite_float, default=0.0)
    pt.add_argument("--tau", type=_finite_float, default=0.05, help="Wick time")
    pt.add_argument("--l", type=int, default=-1)
    pt.add_argument("--m", type=int, default=0)
    pt.add_argument("--j", type=int, choices=(0, 1), default=1)
    pt.add_argument("--z1", type=complex, default="0.5+0.2j", help="write a leading - as --z1=-1j")
    pt.add_argument("--z2", type=complex, default="-0.3j", help="write a leading - as --z2=-0.3j")
    pt.add_argument("--lmax", type=int, default=5)
    pt.add_argument("--mmax", type=int, default=5)
    _add_common_flags(pt)

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2

    try:
        cfg = _build_run_config(args)
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "verify":
        if args.list:
            for s in SUITES:
                print(s)
            return 0

    try:
        if args.command == "verify":
            t0 = time.perf_counter()
            rep = verify_suite(cfg, args.suite)
            wall = time.perf_counter() - t0
            text = report_csv(rep) if cfg.format == "csv" else report_json(rep)
        else:
            header, columns = tabulate(cfg, args.target, args)
            text = (table_csv(header, columns) if cfg.format == "csv"
                    else table_json(header, columns, cfg))
    except (DomainError, TruncationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        _write_output(text, cfg.out)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.command == "tabulate":
        return 0
    n_fail = sum(1 for r in rep.records if r.status == "fail")
    print(f"suite {args.suite}: {len(rep.records)} checks, {n_fail} failed, "
          f"{wall:.1f}s", file=sys.stderr)
    for r in rep.records:
        if r.status == "fail":
            print(f"  FAIL {r.name} [{r.params}]: "
                  f"err {r.achieved_error:.3e} > tol {r.tolerance:.1e}", file=sys.stderr)
    return 0 if rep.passed else 1


if __name__ == "__main__":
    sys.exit(main())
