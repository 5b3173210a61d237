"""Verification and tabulation command line tool.

Usage:

    msf verify   [--suite S] [--mu F] [--l0 I] [--gamma F] [--vartheta +-1]
                 [--tol F] [--nodes N] [--out PATH] [--format csv|json]
    msf tabulate TARGET [grid flags] [--out PATH] [--format csv|json]

``verify`` runs a named identity suite and writes a machine-readable
report; the exit status is 0 when every check passes, 1 on any check
failure, 2 on usage errors.  ``tabulate`` emits state/weight/kernel/
spectrum tables on rectangular grids.  A flat key=value config file can
be supplied through the MSF_CONFIG environment variable; command-line
flags win over the file.

Output files are deterministic: identical configuration produces
byte-identical bytes (timing information goes to the console only,
never into the file).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .specfun import DomainError, ln_gamma
from .landau import (
    FieldConfig,
    energy_nonrel,
    gram_matrix,
    make_quadrature,
    resolve_qnums,
    stationary_state,
)
from .cs import CSLabel, cs_branch, cs_normalization, cs_state, mm_weight_sum
from .completeness import (
    KernelParams,
    WeightSpec,
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

SUITES = (
    "orthonormality",
    "cs-normalization",
    "weights",
    "moments",
    "g-matrix",
    "unity",
    "propagator",
    "dirac",
    "rel-cs",
    "embed-3p1",
    "kernel-rel",
    "all",
)

TABULATE_TARGETS = ("state", "cs-density", "weight", "kernel", "spectrum")


@dataclass(frozen=True)
class RunConfig:
    mu: float = 0.5
    l0: int = 0
    gamma: float = 1.0
    vartheta: int = 1
    mass: float = 1.0
    tol: float | None = None
    nodes: int = 100
    out: str | None = None
    format: str = "json"
    mu_set: bool = False  # whether --mu was given explicitly

    def field_config(self, mu: float | None = None) -> FieldConfig:
        return FieldConfig(gamma=self.gamma, l0=self.l0,
                           mu=self.mu if mu is None else mu)

    def mu_values(self, default: tuple[float, ...]) -> tuple[float, ...]:
        return (self.mu,) if self.mu_set else default


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


def _tol(cfg: RunConfig, default: float) -> float:
    return cfg.tol if cfg.tol is not None else default


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------


def suite_orthonormality(cfg: RunConfig, rep: VerificationReport):
    tol = _tol(cfg, 1e-10)
    for mu in cfg.mu_values((0.0, 0.25, 0.5, 0.9)):
        fc = cfg.field_config(mu)
        states = [resolve_qnums(0, l, m, fc) for l in range(-10, 0) for m in range(11)]
        states += [resolve_qnums(1, l, m, fc) for l in range(0, 11) for m in range(11)]
        g = gram_matrix(states, fc)
        err = float(np.max(np.abs(g - np.eye(len(states)))))
        rep.add("gram-identity", f"mu={mu} m<=10 |l|<=10", err, tol)


def suite_cs_normalization(cfg: RunConfig, rep: VerificationReport):
    tol = _tol(cfg, 1e-10)
    grid = np.linspace(0.0, 9.0, 10)
    for mu in cfg.mu_values((0.0, 0.25, 0.5, 0.75)):
        worst = 0.0
        for u in grid:
            for v in grid:
                n0 = cs_normalization(0, float(u), float(v), mu)
                n1 = cs_normalization(1, float(u), float(v), mu)
                target = math.exp(u + v)
                worst = max(worst, abs(n0 + n1 - target) / target)
        rep.add("exp-sum-rule", f"mu={mu} u,v in [0,9]", worst, tol)
    # unit norm of the assembled state against the series normalization
    fc = cfg.field_config(0.5 if not cfg.mu_set else cfg.mu)
    lab = CSLabel(0.7 + 0.2j, -0.4j)
    worst = 0.0
    for j in (0, 1):
        total = 0.0
        lgen = range(-1, -30, -1) if j == 0 else range(0, 29)
        from .specfun import laguerre_fn_table

        for l in lgen:
            term = cs_branch(j, l, lab, fc)
            alpha = (-l - fc.mu) if j == 0 else (l + fc.mu)
            quad = make_quadrature(alpha, 48)
            tab = laguerre_fn_table(alpha, len(term.coeffs) - 1, quad.nodes)
            prof = term.coeffs @ tab
            total += float(quad.integrate(np.abs(prof) ** 2).real)
        n = cs_normalization(j, lab.u, lab.v, fc.mu)
        worst = max(worst, abs(total / n - 1.0))
    rep.add("cs-unit-norm", f"mu={fc.mu} z=(0.7+0.2i,-0.4i)", worst, _tol(cfg, 1e-9))


def suite_weights(cfg: RunConfig, rep: VerificationReport):
    grid = np.linspace(0.0, 9.0, 10)
    worst = 0.0
    for u in grid:
        for v in grid:
            for j in (0, 1):
                a = weight_fn(WeightSpec(j=j, mu=0.5), float(u), float(v))
                b = weight_half_closed(j, float(u), float(v))
                worst = max(worst, abs(a - b))
    rep.add("half-flux-closed-form", "mu=0.5 u,v in [0,9]", worst, _tol(cfg, 1e-12))
    worst = 0.0
    for u in grid:
        for v in grid:
            worst = max(worst, abs(mm_weight_sum(float(u), float(v)) - 1.0 / math.pi**2))
    rep.add("zero-flux-constant", "u,v in [0,9]", worst, _tol(cfg, 1e-10))
    # positivity on a sampled grid, all mu
    bad = 0.0
    for mu in cfg.mu_values((0.1, 0.25, 0.5, 0.75, 0.9)):
        for u in np.linspace(0.25, 8.0, 6):
            for v in np.linspace(0.25, 8.0, 6):
                for j in (0, 1):
                    w = weight_fn(WeightSpec(j=j, mu=mu), float(u), float(v))
                    if w <= 0:
                        bad = max(bad, -w + 1.0)
    rep.add("weight-positivity", "sampled grid", bad, 0.5)


def suite_moments(cfg: RunConfig, rep: VerificationReport):
    tol = _tol(cfg, 1e-10)
    for n in np.linspace(-0.85, 12.0, 50):
        mc = moment_check(float(n))
        rep.add("gamma-moment", f"n={n:.6g}", mc.abs_err / mc.gamma_value, tol)


def suite_g_matrix(cfg: RunConfig, rep: VerificationReport):
    tol = _tol(cfg, 1e-9)
    worst = 0.0
    for mu in cfg.mu_values((0.25, 0.5, 0.75)):
        for j, lrange in ((0, range(-4, 0)), (1, range(0, 5))):
            for m in range(0, 7):
                for l in lrange:
                    gq = g_matrix(m, m, l, l, mu, j=j)
                    if j == 0:
                        gc = math.exp(ln_gamma(1.0 + m).real + ln_gamma(1.0 + m - l - mu).real)
                    else:
                        gc = math.exp(ln_gamma(1.0 + m + l + mu).real + ln_gamma(1.0 + m).real)
                    worst = max(worst, abs(gq - gc) / gc)
        rep.add("g-matrix-closed-form", f"mu={mu} m<=6 |l|<=4", worst, tol)
    off = abs(g_matrix(1, 2, -1, -1, 0.5)) + abs(g_matrix(1, 1, -1, -2, 0.5))
    rep.add("g-matrix-off-diagonal", "angular deltas", off, 0.0)


def suite_unity(cfg: RunConfig, rep: VerificationReport):
    tol = _tol(cfg, 1e-6)
    mu = cfg.mu if cfg.mu_set else 0.5
    for j in (0, 1):
        if j == 0:
            pairs = [(l, m) for l in range(-4, 0) for m in range(0, 5)]
        else:
            pairs = [(l, m) for l in range(0, 5) for m in range(0, 5)]
        g = unity_reconstruction(pairs, mu=mu, j=j, n_nodes=min(cfg.nodes, 120))
        err = float(np.max(np.abs(g - np.eye(len(pairs)))))
        rep.add("unity-diagonal", f"j={j} mu={mu} m,|l|<=4", err, tol)


def suite_propagator(cfg: RunConfig, rep: VerificationReport):
    tol = _tol(cfg, 1e-8)
    fc = cfg.field_config(0.3 if not cfg.mu_set else cfg.mu)
    worst = 0.0
    for tau in (0.05, 0.1, 0.2, 0.5, 1.0):
        for (j, l) in ((0, -1), (1, 2)):
            p = KernelParams(j=j, l=l, mu=fc.mu, delta_t=-1j * tau, cfg=fc)
            a = propagator_closed(p, 0.7, 1.0, 2.0)
            b = propagator_series(p, 0.7, 1.0, 2.0)
            worst = max(worst, abs(a - b) / abs(a))
    rep.add("mode-sum-vs-closed", f"mu={fc.mu} tau in [0.05,1]", worst, tol)
    errs = []
    for tau in np.geomspace(0.2, 0.02, 6):
        p = KernelParams(j=0, l=-1, mu=fc.mu, delta_t=-1j * float(tau), cfg=fc)
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
    mu = cfg.mu if cfg.mu_set else 0.4
    for vt in (1, -1):
        dc, grid = _dirac_setup(cfg, mu, vt)
        base1 = 1 if vt == 1 else 0
        base0 = 0 if vt == 1 else -1
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
                float(np.max(np.abs(g - np.eye(n)))), _tol(cfg, 1e-8))
        worst_p = 0.0
        for (j, l, m, sig) in [(1, base1, 0, 1), (0, base0, 0, -1), (1, base1 + 1, 1, -1)]:
            q = _dr.resolve_rel_qnums(j, l, m, sig, dc)
            u = _dr.basis_spinor_component(q, dc, grid)
            ppu = _dr.apply_sigma_p(_dr.apply_sigma_p(u, dc), dc)
            t = _dr.e_perp_sq(q, dc)
            diff = _dr.Spinor2(grid=grid, l_up=u.l_up, up=ppu.up - t * u.up, dn=ppu.dn - t * u.dn)
            if t != 0:
                worst_p = max(worst_p, _dr.d_norm(diff, dc, origin_tail=False)
                              / (abs(t) * _dr.d_norm(u, dc)))
            else:
                worst_p = max(worst_p, _dr.d_norm(ppu, dc, origin_tail=False)
                              / (2.0 * dc.field.gamma))
        rep.add("sigma-p-squared", f"vt={vt:+d} mu={mu}", worst_p, _tol(cfg, 1e-6))
        worst_h = 0.0
        for (psi, e, charge) in spinors[:10]:
            hpsi = _dr.hamiltonian_apply(psi, dc)
            diff = _dr.Spinor2(grid=grid, l_up=psi.l_up,
                               up=hpsi.up - charge * e * psi.up,
                               dn=hpsi.dn - charge * e * psi.dn)
            worst_h = max(worst_h, _dr.d_norm(diff, dc, origin_tail=False) / e)
        rep.add("hamiltonian-residual", f"vt={vt:+d} mu={mu}", worst_h, _tol(cfg, 1e-5))


def suite_rel_cs(cfg: RunConfig, rep: VerificationReport):
    mu = cfg.mu if cfg.mu_set else 0.5
    lab_a = CSLabel(0.6 + 0.3j, -0.2 + 0.5j)
    lab_b = CSLabel(0.3 - 0.4j, 0.7j)
    worst_n = worst_o = 0.0
    for (j, vt) in ((1, 1), (0, -1)):
        dc, grid = _dirac_setup(cfg, mu, vt)
        for charge in (1, -1):
            a = _dr.rel_cs(j, lab_a, dc, charge, grid=grid)
            b = _dr.rel_cs(j, lab_b, dc, charge, grid=grid)
            worst_n = max(worst_n, abs(_dr.rel_cs_inner(a, a, dc).real - 1.0))
            ovq = _dr.rel_cs_inner(a, b, dc)
            ovc = _dr.rel_cs_overlap_closed(j, lab_a, lab_b, dc, charge)
            worst_o = max(worst_o, abs(ovq - ovc))
    rep.add("rel-cs-unit-norm", f"mu={mu} both branches/charges", worst_n, _tol(cfg, 1e-7))
    rep.add("rel-cs-overlap-dual", f"mu={mu}", worst_o, _tol(cfg, 1e-7))


def suite_embed(cfg: RunConfig, rep: VerificationReport):
    mu = cfg.mu if cfg.mu_set else 0.4
    dc, grid = _dirac_setup(cfg, mu, cfg.vartheta)
    base1 = 1 if cfg.vartheta == 1 else 0
    worst_sz = worst_n = worst_h = 0.0
    for s in (1, -1):
        for p3 in (0.0,):
            psi = _dr.embed_3p1(1, base1, 0, 1, s, p3, dc, grid)
            worst_n = max(worst_n, abs(math.sqrt(_dr.d_inner4(psi, psi, dc).real) - 1.0))
            sz = _dr.sz_apply(psi, p3, dc)
            diff = _dr.Spinor4(
                upper=_dr.Spinor2(grid=grid, l_up=psi.upper.l_up,
                                  up=sz.upper.up - s * psi.upper.up,
                                  dn=sz.upper.dn - s * psi.upper.dn),
                lower=_dr.Spinor2(grid=grid, l_up=psi.lower.l_up,
                                  up=sz.lower.up - s * psi.lower.up,
                                  dn=sz.lower.dn - s * psi.lower.dn))
            worst_sz = max(worst_sz, math.sqrt(abs(_dr.d_inner4(diff, diff, dc).real)))
    for p3 in (0.0, 0.7, -1.3):
        mt = math.sqrt(dc.mass**2 + p3 * p3)
        dct = replace(dc, mass=mt)
        q = _dr.resolve_rel_qnums(1, base1, 0, 1, dct)
        et = _dr.e_energy(q, dct)
        psi = _dr.embed_3p1(1, base1, 0, 1, 1, p3, dc, grid)
        h = _dr.h3p1_apply(psi, p3, dc)
        diff = _dr.Spinor4(
            upper=_dr.Spinor2(grid=grid, l_up=psi.upper.l_up,
                              up=h.upper.up - et * psi.upper.up,
                              dn=h.upper.dn - et * psi.upper.dn),
            lower=_dr.Spinor2(grid=grid, l_up=psi.lower.l_up,
                              up=h.lower.up - et * psi.lower.up,
                              dn=h.lower.dn - et * psi.lower.dn))
        worst_h = max(worst_h, math.sqrt(abs(_dr.d_inner4(diff, diff, dc).real)) / et)
    rep.add("embed-unit-norm", f"mu={mu}", worst_n, _tol(cfg, 1e-10))
    rep.add("embed-sz-eigen", f"mu={mu} p3=0", worst_sz, _tol(cfg, 1e-5))
    rep.add("embed-energy-eigen", f"mu={mu} p3 in {{0,0.7,-1.3}}", worst_h, _tol(cfg, 1e-9))
    # non-relativistic suppression of the small components, O(1/M)
    ratios = []
    for mass in (10.0, 100.0, 1000.0):
        dcm = replace(dc, mass=mass)
        psi = _dr.embed_3p1(1, base1, 0, 1, 1, 0.0, dcm, grid)
        big = math.sqrt(abs(_dr.d_inner(psi.upper, psi.upper, dcm).real))
        rest = _dr.Spinor2(grid=grid, l_up=psi.upper.l_up,
                           up=np.zeros_like(psi.upper.up), dn=psi.upper.dn)
        small = math.sqrt(abs(_dr.d_inner(rest, rest, dcm).real
                              + _dr.d_inner(psi.lower, psi.lower, dcm).real))
        ratios.append(small / big)
    scale_err = max(abs(ratios[i] * (10.0 ** (i + 1)) / (ratios[0] * 10.0) - 1.0)
                    for i in range(3))
    rep.add("embed-1-over-m-scaling", "M in {10,100,1000}", scale_err, 0.05)


def suite_kernel_rel(cfg: RunConfig, rep: VerificationReport):
    from .specfun import laguerre_fn_table
    from .dirac import _rel_bessel_index

    mu = cfg.mu if cfg.mu_set else 0.3
    fc = cfg.field_config(mu)
    dc = _dr.DiracConfig(field=fc, mass=cfg.mass, vartheta=cfg.vartheta)
    k = _dr.green_kernel_rel(1, 2, dc, -0.3j, 0.4, 0.0, 1.0, 2.0)
    proj_err = abs(k[0, 1]) + abs(k[1, 0]) + abs(k[1, 1])
    rep.add("projector-structure", "sigma=+1", proj_err, 0.0)
    worst = 0.0
    g = fc.gamma
    for (sig, l, vt) in [(1, 2, 1), (-1, -1, 1), (1, 0, -1), (-1, 0, 1)]:
        dcv = _dr.DiracConfig(field=fc, mass=cfg.mass, vartheta=vt)
        tau, rho, rho_p = 0.35, 1.0, 2.0
        nu = _rel_bessel_index(sig, l, mu, vt)
        kv = _dr.green_kernel_rel(sig, l, dcv, -1j * tau, 0.0, 0.0, rho, rho_p)
        diag = kv[0, 0] if sig == 1 else kv[1, 1]
        l_s = l - (1 + sig) // 2
        tab = laguerre_fn_table(nu, 70, np.array([rho, rho_p]))
        xsum = 2.0 * sum(math.exp(-(2 * m + nu + 1) * g * tau) * tab[m, 0] * tab[m, 1]
                         for m in range(71))
        pred = -(g * math.exp(-dcv.mass**2 * tau)
                 * math.exp(-(l_s + sig + mu) * g * tau)
                 / (8.0 * math.pi**1.5 * math.sqrt(tau))) * xsum
        worst = max(worst, abs(diag.real - pred) / abs(pred) + abs(diag.imag))
    rep.add("kernel-mode-sum", f"mu={mu} incl. both vartheta l=0 channels",
            worst, _tol(cfg, 1e-10))
    grid = make_radial_grid(rho_max=24.0, tail_step=0.5)
    rho0, width = 1.5, 0.35
    gvals = np.exp(-((grid.nodes - rho0) ** 2) / (2.0 * width**2))
    errs = []
    for tau in np.geomspace(0.2, 0.02, 6):
        kvals = _dr.green_kernel_rel(1, 2, dc, -1j * float(tau), 0.0, 0.0,
                                     rho0, grid.nodes)[:, 0, 0]
        sm = grid.integrate(kvals * gvals)
        l_s = 1
        pref = -(g * math.exp(-dc.mass**2 * tau) * math.exp(-(l_s + 1 + mu) * g * tau)
                 / (8.0 * math.pi**1.5 * math.sqrt(tau))) * 2.0
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


def verify_suite(cfg: RunConfig, suite: str) -> VerificationReport:
    """Run one named suite (or all of them) and return the report."""
    if suite not in SUITES:
        raise DomainError(f"unknown suite: {suite}")
    rep = VerificationReport(suite=suite, config=_config_echo(cfg))
    names = [s for s in SUITES if s != "all"] if suite == "all" else [suite]
    for name in names:
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
    if step <= 0 or stop < start:
        raise DomainError(f"malformed grid spec {spec!r}")
    n = int(round((stop - start) / step))
    return start + step * np.arange(n + 1)


def tabulate(cfg: RunConfig, target: str, args) -> tuple[list[str], list[list]]:
    """Build (header, rows) for a tabulation target."""
    fc = cfg.field_config()
    if target == "weight":
        ugrid = _parse_grid(args.u)
        vgrid = _parse_grid(args.v)
        header = ["u", "v", "w0", "w1"]
        u, v = (a.ravel() for a in np.meshgrid(ugrid, vgrid, indexing="ij"))
        w0 = weight_fn(WeightSpec(0, fc.mu), u, v)
        w1 = weight_fn(WeightSpec(1, fc.mu), u, v)
        return header, [list(row) for row in zip(u, v, w0, w1)]
    if target == "spectrum":
        header = ["j", "l", "m", "n1", "energy"]
        rows = []
        for l in range(-args.lmax, args.lmax + 1):
            for m in range(0, args.mmax + 1):
                j = 0 if l < 0 else 1
                q = resolve_qnums(j, l, m, fc)
                rows.append([j, l, m, q.n1, energy_nonrel(q, fc)])
        return header, rows
    if target == "kernel":
        rhop = _parse_grid(args.rhop)
        p = KernelParams(j=0 if args.l < 0 else 1, l=args.l, mu=fc.mu,
                         delta_t=-1j * args.tau, cfg=fc)
        header = ["rhop", "re", "im"]
        vals = propagator_closed(p, 0.0, args.rho, rhop)
        return header, [[rp, val.real, val.imag] for rp, val in zip(rhop, vals)]
    if target == "state":
        rho = _parse_grid(args.rhop)
        q = resolve_qnums(0 if args.l < 0 else 1, args.l, args.m, fc)
        header = ["rho", "re", "im"]
        vals = stationary_state(q, args.theta, rho, fc)
        return header, [[r, val.real, val.imag] for r, val in zip(rho, vals)]
    if target == "cs-density":
        rho = _parse_grid(args.rhop)
        lab = CSLabel(complex(args.z1), complex(args.z2))
        header = ["rho", "re", "im", "abs2"]
        vals = cs_state(args.j, lab, args.theta, rho, fc)
        return header, [[r, val.real, val.imag, abs(val) ** 2] for r, val in zip(rho, vals)]
    raise DomainError(f"unknown tabulation target: {target}")


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def _config_echo(cfg: RunConfig) -> dict:
    return {
        "mu": cfg.mu, "l0": cfg.l0, "gamma": cfg.gamma, "vartheta": cfg.vartheta,
        "mass": cfg.mass, "tol": cfg.tol, "nodes": cfg.nodes,
    }


def _fmt_json(x) -> float:
    return float(f"{x:.17g}") if isinstance(x, float) else x


def report_json(rep: VerificationReport) -> str:
    obj = {
        "meta": {"suite": rep.suite, "config": {k: _fmt_json(v) for k, v in rep.config.items()}},
        "records": [
            {
                "name": r.name,
                "parameters": r.params,
                "achieved_error": _fmt_json(r.achieved_error),
                "tolerance": _fmt_json(r.tolerance),
                "status": r.status,
            }
            for r in rep.records
        ],
    }
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def report_csv(rep: VerificationReport) -> str:
    lines = ["name,parameters,achieved_error,tolerance,status"]
    for r in rep.records:
        params = r.params.replace(",", ";")
        lines.append(f"{r.name},{params},{r.achieved_error:.12g},{r.tolerance:.12g},{r.status}")
    return "\n".join(lines) + "\n"


def table_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = [f"{c:.12g}" if isinstance(c, float) else str(c) for c in row]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def table_json(header: list[str], rows: list[list], cfg: RunConfig) -> str:
    obj = {
        "meta": {"config": {k: _fmt_json(v) for k, v in _config_echo(cfg).items()},
                 "columns": header},
        "records": [
            {h: _fmt_json(c) if isinstance(c, float) else c for h, c in zip(header, row)}
            for row in rows
        ],
    }
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


_CONFIG_TYPES = {
    "mu": float, "l0": int, "gamma": float, "vartheta": int, "mass": float,
    "tol": float, "nodes": int, "out": str, "format": str,
}


def _build_run_config(args) -> RunConfig:
    file_vals = _load_config_file()
    cfg = RunConfig()
    updates = {}
    for key, raw in file_vals.items():
        if key not in _CONFIG_TYPES:
            raise DomainError(f"unknown config key: {key}")
        updates[key] = _CONFIG_TYPES[key](raw)
    if "mu" in updates:
        updates["mu_set"] = True
    for key in _CONFIG_TYPES:
        val = getattr(args, key.replace("-", "_"), None)
        if val is not None:
            updates[key] = val
            if key == "mu":
                updates["mu_set"] = True
    return replace(cfg, **updates)


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--mu", type=float, default=None, help="fractional flux in [0,1)")
    p.add_argument("--l0", type=int, default=None, help="integer flux part")
    p.add_argument("--gamma", type=float, default=None, help="field strength scale")
    p.add_argument("--vartheta", type=int, choices=(-1, 1), default=None,
                   help="self-adjoint extension label")
    p.add_argument("--mass", type=float, default=None, help="fermion mass")
    p.add_argument("--tol", type=float, default=None, help="tolerance override")
    p.add_argument("--nodes", type=int, default=None, help="quadrature order")
    p.add_argument("--out", type=str, default=None, help="output file path")
    p.add_argument("--format", choices=("csv", "json"), default=None)


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
    pt.add_argument("--rho", type=float, default=1.0)
    pt.add_argument("--rhop", default="0:6:0.05", help="rho grid start:stop:step")
    pt.add_argument("--theta", type=float, default=0.0)
    pt.add_argument("--tau", type=float, default=0.05, help="Wick time")
    pt.add_argument("--l", type=int, default=-1)
    pt.add_argument("--m", type=int, default=0)
    pt.add_argument("--j", type=int, choices=(0, 1), default=1)
    pt.add_argument("--z1", default="0.5+0.2j")
    pt.add_argument("--z2", default="-0.3j")
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
        if args.suite not in SUITES:
            print(f"error: unknown suite {args.suite!r}; choose from {', '.join(SUITES)}",
                  file=sys.stderr)
            return 2
        t0 = time.perf_counter()
        rep = verify_suite(cfg, args.suite)
        wall = time.perf_counter() - t0
        text = report_csv(rep) if cfg.format == "csv" else report_json(rep)
        _write_output(text, cfg.out)
        n_fail = sum(1 for r in rep.records if r.status == "fail")
        print(f"suite {args.suite}: {len(rep.records)} checks, {n_fail} failed, "
              f"{wall:.1f}s", file=sys.stderr)
        for r in rep.records:
            if r.status == "fail":
                print(f"  FAIL {r.name} [{r.params}]: "
                      f"err {r.achieved_error:.3e} > tol {r.tolerance:.1e}", file=sys.stderr)
        return 0 if rep.passed else 1

    # tabulate
    try:
        header, rows = tabulate(cfg, args.target, args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = table_csv(header, rows) if cfg.format == "csv" else table_json(header, rows, cfg)
    _write_output(text, cfg.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
