"""Workload inputs (parent side) and pass bodies (child side).

``make_inputs`` turns a workload name and seed into plain JSON data; a
pass child receives only that data.  Each ``pass_*`` function runs one
pass inside a fresh interpreter and returns per-unit wall times plus
the raw outputs, which the parent checks against ``oracles``.

A *unit* is the smallest piece whose time is summarised by its median
over the passes of a run: one verify suite, one table, or one part of
a Dirac configuration.  Every unit is bracketed by runs of the reference
kernel (reference.py), so its time can be normalised for the speed the
machine had at that moment.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import random
import time

from reference import reference

WORKLOADS = ("verify-all", "tabulate-wide", "dirac-scan")

# verify-all: every suite of `msf verify --suite all`, in CLI order
SUITES = ("orthonormality", "cs-normalization", "weights", "moments", "g-matrix", "unity",
          "propagator", "dirac", "rel-cs", "embed-3p1", "kernel-rel")
REST_UNIT = "rest"  # argument parsing and report serialisation around the suites


def _grid(start: float, step: float, count: int) -> str:
    """CLI grid spec start:stop:step with exactly ``count`` points.

    The start is rounded so every grid value survives the 12 significant
    digits of the CSV output, which the checker reads back.
    """
    start = round(start, 3)
    return f"{start!r}:{round(start + step * (count - 1), 3)!r}:{step!r}"


def _label(rng: random.Random, modulus: float) -> tuple[complex, complex]:
    """(z1, z2) with |z1| = |z2| = modulus / sqrt 2 and seeded phases.

    The moduli set the series lengths, hence the cost and whether msf
    overflows; only the phases vary with the seed.
    """
    r = modulus / math.sqrt(2.0)
    phases = [rng.uniform(-math.pi, math.pi) for _ in range(2)]
    return tuple(complex(round(r * math.cos(a), 6), round(r * math.sin(a), 6)) for a in phases)


def _table(target: str, mu: float, flags: list, points: int, **check) -> dict:
    argv = ["tabulate", target, "--mu", repr(mu), *flags, "--format", "csv"]
    return {"target": target, "argv": argv, "points": points, "mu": mu, **check}


def _tabulate_inputs(rng: random.Random, tiny: bool) -> dict:
    def mu():
        return round(rng.uniform(0.15, 0.85), 6)

    def n(full, small):
        return small if tiny else full

    tables = []
    # weight: cost per point grows with u, v and is steepest in the lower tail
    tables.append(_table("weight", mu(), ["--u", "0:4:0.5", "--v", "0:4:0.5"], 81))
    side = n(10, 2)
    tables.append(_table("weight", mu(), ["--u", _grid(rng.uniform(0, 4), 4.0, side),
                                          "--v", _grid(rng.uniform(0, 4), 4.0, side)], side * side))
    side = n(5, 2)
    tables.append(_table("weight", mu(), ["--u", _grid(190 + rng.uniform(0, 5), 5.0, side),
                                          "--v", _grid(0.5 + rng.uniform(0, 0.5), 0.5, side)],
                         side * side))
    # u = v = 400: msf's Q series currently overflows to nan here (known defect)
    tables.append(_table("weight", mu(), ["--u", "400:400.5:0.5", "--v", "400:400:1"], 2))
    # cs-density: cost per point grows with |z|; at |z| = 20 cs_state currently raises OverflowError
    for modulus, j, (step, count) in ((0.3, 1, (0.25, n(25, 3))), (1.0, 0, (0.5, n(13, 3))),
                                      (3.0, 1, (1.0, n(9, 2))), (10.0, 0, (4.0, n(4, 2))),
                                      (20.0, 1, (3.0, 3))):
        z1, z2 = _label(rng, modulus)
        theta = round(rng.uniform(-math.pi, math.pi), 6)
        tables.append(_table("cs-density", mu(),
                             ["--j", str(j), "--z1", repr(z1), "--z2", repr(z2),
                              "--theta", repr(theta), "--rhop", _grid(0.0, step, count)],
                             count, j=j, z1=[z1.real, z1.imag], z2=[z2.real, z2.imag], theta=theta))
    # kernel and state cost microseconds per point: long grids keep their rate steady
    for _ in range(2):
        l = rng.choice((-2, -1, 0, 1, 2))
        tau, rho = round(rng.uniform(0.05, 0.2), 6), round(rng.uniform(0.5, 2.0), 6)
        count = n(15001, 201)
        tables.append(_table("kernel", mu(), ["--l", str(l), "--tau", repr(tau), "--rho", repr(rho),
                                              "--rhop", _grid(0.0, 0.002, count)],
                             count, l=l, tau=tau, rho=rho))
    for m in (2, 8):  # the Laguerre recurrence costs O(m) per point
        l = rng.choice((-2, -1, 0, 1, 2))
        theta = round(rng.uniform(-math.pi, math.pi), 6)
        count = n(3001, 101)
        tables.append(_table("state", mu(), ["--l", str(l), "--m", str(m), "--theta", repr(theta),
                                             "--rhop", _grid(0.0, 0.01, count)],
                             count, l=l, m=m, theta=theta))
    return {"tables": tables}


def _dirac_inputs(rng: random.Random, tiny: bool) -> dict:
    configs = []
    mus = [round(rng.uniform(0.15, 0.85), 6) for _ in range(1 if tiny else 2)]
    for mu in mus:
        for vt in (1, -1):
            # first two l of each branch; l = 0 is the irregular-capable channel
            l0 = (0, -1) if vt == 1 else (-1, -2)
            l1 = (1, 2) if vt == 1 else (0, 1)
            ms = (0,) if tiny else (0, 1, 2)
            spinors = [(j, l, m, c) for j, ls in ((0, l0), (1, l1)) for l in ls
                       for m in ms for c in (1, -1)]
            labels = [_label(rng, rng.uniform(0.6, 0.9)) for _ in range(2)]
            configs.append({
                "mu": mu, "vartheta": vt, "spinors": spinors,
                "rel_cs": [(j, c) for j in (0, 1) for c in (1, -1)][: 1 if tiny else 4],
                "labels": [[z.real, z.imag] for lab in labels for z in lab],
                "kernels": [(s, l) for s in (1, -1) for l in (0, 2)],
                "tau": round(rng.uniform(0.3, 0.45), 6),
            })
    return {"configs": configs, "rho_max": 70.0, "rho0": 1.5, "width": 0.35}


def make_inputs(workload: str, seed: int, tiny: bool = False) -> dict:
    """Inputs for one run; the same seed gives the same inputs."""
    rng = random.Random(seed)
    if workload == "verify-all":
        return {"argv": ["verify", "--suite", "all"]}  # fixed by the CLI: seed unused
    if workload == "tabulate-wide":
        return _tabulate_inputs(rng, tiny)
    if workload == "dirac-scan":
        return _dirac_inputs(rng, tiny)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# pass bodies: run in the child, after `import msf.cli` has been timed
# ---------------------------------------------------------------------------


class Units:
    """Wall time of each unit of a pass, and the mean of the reference
    times measured right before and right after it."""

    def __init__(self):
        self.times: dict = {}
        self.refs: dict = {}
        self.ref_seconds = 0.0  # reference time spent since construction
        self._last = reference()

    def record(self, name: str, seconds: float) -> None:
        ref = reference()
        self.ref_seconds += ref
        self.times[name] = seconds
        self.refs[name] = 0.5 * (self._last + ref)
        self._last = ref

    @contextlib.contextmanager
    def unit(self, name: str):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.record(name, time.perf_counter() - t0)

    def result(self) -> dict:
        return {"units": self.times, "refs": self.refs}


def _cli_call(cli, argv: list) -> tuple[int, str]:
    """One `msf` command through cli.main, its stdout captured as text."""
    buf, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def pass_verify(inputs: dict) -> dict:
    import msf.cli as cli

    units = Units()

    def timed(name, fn):
        def run(*args, **kwargs):
            with units.unit(name):
                return fn(*args, **kwargs)
        return run

    for name, fn in list(cli.SUITE_FUNCS.items()):
        cli.SUITE_FUNCS[name] = timed(name, fn)
    t0 = time.perf_counter()
    rc, text = _cli_call(cli, inputs["argv"])
    total = time.perf_counter() - t0
    # the reference runs between suites happen inside the call
    rest = total - sum(units.times.values()) - units.ref_seconds
    units.record(REST_UNIT, rest)
    return {**units.result(), "rc": rc, "report": text}


def pass_tabulate(inputs: dict) -> dict:
    import msf.cli as cli

    units, outputs = Units(), []
    for i, tab in enumerate(inputs["tables"]):
        with units.unit(str(i)):
            try:
                rc, text = _cli_call(cli, tab["argv"])
                out = {"rc": rc, "csv": text}
            except Exception as exc:  # a failing table is counted, and the pass goes on
                out = {"error": f"{type(exc).__name__}: {exc}"}
        outputs.append(out)
    return {**units.result(), "tables": outputs}


def _guard(ops: list, kind: str, key, fn):
    """Run one checked library call; an exception becomes a failed op."""
    try:
        ops.append([kind, key, fn()])
    except Exception as exc:
        ops.append([kind, key, None, f"{type(exc).__name__}: {exc}"])


def pass_dirac(inputs: dict) -> dict:
    import numpy as np
    from msf import cs, dirac, landau, radial

    units, configs = Units(), []
    for ci, cfg in enumerate(inputs["configs"]):
        ops: list = []
        with units.unit(f"{ci}.spinors"):
            dc = dirac.DiracConfig(field=landau.FieldConfig(mu=cfg["mu"]), mass=1.0,
                                   vartheta=cfg["vartheta"])
            grid = radial.make_radial_grid(rho_max=inputs["rho_max"])
            exact = math.exp(-grid.rho_min) - math.exp(-grid.rho_max)
            _guard(ops, "grid", None, lambda: abs(grid.integrate(np.exp(-grid.nodes)) / exact - 1.0))

            def spinor(j, l, m, charge):
                q = dirac.resolve_rel_qnums(j, l, m, charge, dc)
                psi, e = dirac.dirac_spinor(q, dc, charge, grid)
                hpsi = dirac.hamiltonian_apply(psi, dc)
                diff = dirac.Spinor2(grid=grid, l_up=psi.l_up, up=hpsi.up - charge * e * psi.up,
                                     dn=hpsi.dn - charge * e * psi.dn)
                return [abs(dirac.d_norm(psi, dc) - 1.0),
                        dirac.d_norm(diff, dc, origin_tail=False) / e]

            for key in cfg["spinors"]:
                _guard(ops, "spinor", key, lambda: spinor(*key))
        za = cfg["labels"]
        lab_a = cs.CSLabel(complex(*za[0]), complex(*za[1]))
        lab_b = cs.CSLabel(complex(*za[2]), complex(*za[3]))
        for (j, charge) in cfg["rel_cs"]:
            states = {}

            def build(name, lab):
                states[name] = dirac.rel_cs(j, lab, dc, charge, grid=grid)
                return abs(dirac.rel_cs_inner(states[name], states[name], dc).real - 1.0)

            with units.unit(f"{ci}.rel_cs.{j}.{charge}"):
                _guard(ops, "rel_cs", [j, charge, "a"], lambda: build("a", lab_a))
                _guard(ops, "rel_cs", [j, charge, "b"], lambda: build("b", lab_b))
                _guard(ops, "overlap", [j, charge], lambda: abs(
                    dirac.rel_cs_inner(states["a"], states["b"], dc)
                    - dirac.rel_cs_overlap_closed(j, lab_a, lab_b, dc, charge)))
        with units.unit(f"{ci}.smear"):
            gauss = np.exp(-((grid.nodes - inputs["rho0"]) ** 2) / (2.0 * inputs["width"] ** 2))
            for (sigma, l) in cfg["kernels"]:
                slot = 0 if sigma == 1 else 1

                def smear():
                    kv = np.array([dirac.green_kernel_rel(sigma, l, dc, -1j * cfg["tau"], 0.0, 0.0,
                                                          inputs["rho0"], float(x))[slot, slot]
                                   for x in grid.nodes])
                    return [float(grid.integrate(kv.real * gauss)),
                            float(grid.integrate(kv.imag * gauss))]

                _guard(ops, "smear", [sigma, l], smear)
        configs.append({"ops": ops, "nodes": grid.nodes.tolist(), "weights": grid.weights.tolist()})
    return {**units.result(), "configs": configs}


PASSES = {"verify-all": pass_verify, "tabulate-wide": pass_tabulate, "dirac-scan": pass_dirac}


def digest(obj) -> str:
    """Fingerprint of a pass's outputs, compared across the passes of a run."""
    return hashlib.sha256(repr(obj).encode()).hexdigest()
