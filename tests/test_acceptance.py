"""Acceptance suite: one test per criterion, at the stated tolerance.

The criteria are the checks of ``msf verify --suite all``: the suite
runs once per module, and each test reads the records it owns, asserts
that they carry the criterion's own parameters and tolerance, and
prints a single pass/fail line (visible with ``pytest -v -s`` or in the
failure report).  C02b and C09 have no CLI counterpart and compute their
checks here.

Criterion 2 asserts the exponential normalization sum rule
N0 + N1 = exp(u+v) at four flux fractions; the rule is an exact
identity only at mu = 0 (integer Bessel-order lattice) and fails by a
Bessel-K tail for fractional mu — at mu = 1/2 the sum has the closed
form exp(u+v) erf(sqrt u + sqrt v), which the companion test
test_c02_sum_rule_deviation_quantified pins down.  The criterion is
asserted as stated and is expected to fail at the fractional flux
values; this is a property of the mathematics, not of the code.
"""

import cmath
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import special as sp

from msf.cli import RunConfig, verify_suite
from msf.landau import FieldConfig, resolve_qnums
from msf.specfun import erf, ln_marcum_p
from msf.cs import CSLabel, cs_normalization, cs_state


@pytest.fixture(scope="module")
def records():
    return verify_suite(RunConfig(), "all").records


def own_errors(records, name: str, params: list[str], tol: float) -> list[float]:
    """Achieved errors of the records called ``name``, in report order.

    The records must carry exactly the criterion's parameters and
    tolerance, so an edit to a suite cannot loosen a criterion unseen.
    """
    own = [r for r in records if r.name == name]
    assert [(r.params, r.tolerance) for r in own] == [(p, tol) for p in params]
    return [r.achieved_error for r in own]


def report(tag: str, name: str, err: float, tol: float) -> bool:
    ok = err <= tol
    print(f"[{tag}] {name}: achieved={err:.3e} tol={tol:.1e} -> "
          f"{'PASS' if ok else 'FAIL'}")
    return ok


# (name, tolerance, count) runs of the default report, in order; the
# angular-delta-smear tolerance is computed as max(1e-8, a10/10), so only
# its name is pinned
REPORT_RUNS = [
    ("gram-identity", 1e-10, 4),
    ("exp-sum-rule", 1e-10, 4),
    ("cs-unit-norm", 1e-9, 1),
    ("half-flux-closed-form", 1e-12, 1),
    ("zero-flux-constant", 1e-10, 1),
    ("weight-positivity", 0.5, 1),
    ("gamma-moment", 1e-10, 50),
    ("g-matrix-closed-form", 1e-9, 3),
    ("g-matrix-off-diagonal", 0.0, 1),
    ("unity-diagonal", 1e-6, 2),
    ("mode-sum-vs-closed", 1e-8, 1),
    ("radial-delta-monotone", 0.5, 1),
    ("angular-delta-smear", None, 1),
    ("spinor-gram", 1e-8, 1),
    ("sigma-p-squared", 1e-6, 1),
    ("hamiltonian-residual", 1e-5, 1),
    ("spinor-gram", 1e-8, 1),
    ("sigma-p-squared", 1e-6, 1),
    ("hamiltonian-residual", 1e-5, 1),
    ("rel-cs-unit-norm", 1e-7, 1),
    ("rel-cs-overlap-dual", 1e-7, 1),
    ("embed-unit-norm", 1e-10, 1),
    ("embed-sz-eigen", 1e-5, 1),
    ("embed-energy-eigen", 1e-9, 1),
    ("embed-1-over-m-scaling", 0.05, 1),
    ("projector-structure", 0.0, 1),
    ("kernel-mode-sum", 1e-10, 1),
    ("rel-radial-delta-monotone", 0.5, 1),
]


def test_verify_all_report_shape(records):
    runs = [(name, None if name == "angular-delta-smear" else tol, len(list(group)))
            for (name, tol), group in itertools.groupby(records,
                                                        lambda r: (r.name, r.tolerance))]
    assert runs == REPORT_RUNS
    assert [(r.name, r.params) for r in records if r.status == "fail"] == [
        ("exp-sum-rule", f"mu={mu} u,v in [0,9]") for mu in (0.25, 0.5, 0.75)]


# the default `msf verify --suite all --format json` report, checked in
GOLDEN = Path(__file__).with_name("verify_all_golden.json")
# an achieved error may move by this fraction of its tolerance, far less
# than a 1e-6 fault in any route moves the records it feeds
GOLDEN_BAND = 1e-3


def test_verify_all_matches_golden_report(records):
    # names, parameters, statuses and tolerances exactly; the computed
    # angular-delta-smear tolerance and every achieved error within the
    # band, exactly where the tolerance is 0.  A change that moves a record
    # updates the golden file and states the move
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["records"]
    assert [(r.name, r.params, r.status) for r in records] == [
        (g["name"], g["parameters"], g["status"]) for g in golden]
    for r, g in zip(records, golden):
        tol = g["tolerance"]
        if r.name == "angular-delta-smear":
            assert abs(r.tolerance - tol) <= GOLDEN_BAND * tol, r
        else:
            assert r.tolerance == tol, r
        assert abs(r.achieved_error - g["achieved_error"]) <= GOLDEN_BAND * tol, r


def test_c01_orthonormality(records):
    errs = own_errors(records, "gram-identity",
                      [f"mu={mu} m<=10 |l|<=10" for mu in (0.0, 0.25, 0.5, 0.9)], 1e-10)
    assert report("C01", "stationary-state Gram matrix = identity", max(errs), 1e-10)


def test_c02_cs_normalization_sum_rule(records):
    mus = (0.0, 0.25, 0.5, 0.75)
    errs = own_errors(records, "exp-sum-rule", [f"mu={mu} u,v in [0,9]" for mu in mus], 1e-10)
    for mu, err in zip(mus, errs):
        print(f"      sum rule at mu={mu}: max rel deviation {err:.3e}")
    assert report("C02", "N0 + N1 = exp(u+v) on [0,9]^2, four flux values",
                  max(errs), 1e-10)


def test_c02_sum_rule_deviation_quantified():
    """Companion check: the mu = 1/2 sum has the erf closed form, so the
    fractional-flux deviation from exp(u+v) is exact mathematics."""
    grid = np.linspace(0.0, 9.0, 10)
    u, v = np.meshgrid(grid, grid, indexing="ij")
    total = cs_normalization(0, u, v, 0.5) + cs_normalization(1, u, v, 0.5)
    closed = np.exp(u + v) * erf(np.sqrt(u) + np.sqrt(v))
    worst = float(np.max(np.abs(total - closed) / np.maximum(closed, 1e-30)))
    assert report("C02b", "mu=1/2 sum equals exp(u+v) erf(sqrt u + sqrt v)",
                  worst, 1e-10)


def test_cs_state_unit_norm_by_quadrature(records):
    # 29 rows per branch, each on a 48-node rule of its Laguerre order
    errs = own_errors(records, "cs-unit-norm", ["mu=0.5 z=(0.7+0.2i,-0.4i)"], 1e-9)
    assert report("C02c", "coherent state unit norm by Gauss-Laguerre quadrature",
                  errs[0], 1e-9)


def test_c03_weight_closed_form(records):
    errs = own_errors(records, "half-flux-closed-form", ["mu=0.5 u,v in [0,9]"], 1e-12)
    assert report("C03", "half-flux weight: series vs erf closed form", errs[0], 1e-12)


def test_c04_zero_flux_weight_constant(records):
    errs = own_errors(records, "zero-flux-constant", ["u,v in [0,9]"], 1e-10)
    assert report("C04", "zero-flux weight sum = 1/pi^2", errs[0], 1e-10)


def test_c05_moment_problem(records):
    errs = own_errors(records, "gamma-moment",
                      [f"n={n:.6g}" for n in np.linspace(-0.85, 12.0, 50)], 1e-10)
    assert report("C05", "exponential moments = Gamma(1+n), 50 exponents", max(errs), 1e-10)


def test_c06_g_matrix(records):
    errs = own_errors(records, "g-matrix-closed-form",
                      [f"mu={mu} m<=6 |l|<=4" for mu in (0.25, 0.5, 0.75)], 1e-9)
    assert own_errors(records, "g-matrix-off-diagonal", ["angular deltas"], 0.0) == [0.0]
    assert report("C06", "measure moments vs Gamma closed form (+exact off-diag)",
                  max(errs), 1e-9)


def test_c07_unity_reconstruction(records):
    errs = own_errors(records, "unity-diagonal",
                      [f"j={j} mu=0.5 m,|l|<=4" for j in (0, 1)], 1e-6)
    assert report("C07", "coherent-state measure reconstructs the Gram identity",
                  max(errs), 1e-6)


def test_c08_propagator_equivalence_and_delta_limit(records):
    modes = own_errors(records, "mode-sum-vs-closed", ["mu=0.3 tau in [0.05,1]"], 1e-8)
    ok1 = report("C08a", "mode sum vs closed kernel, tau in [0.05, 1]", modes[0], 1e-8)
    mono = own_errors(records, "radial-delta-monotone", ["tau 0.2 -> 0.02"], 0.5)
    ok2 = report("C08b", "smeared radial delta limit monotone over tau decade", mono[0], 0.5)
    assert ok1 and ok2


def test_c09_zero_flux_coherent_state(rng):
    tol = 1e-10
    cfg = FieldConfig(mu=0.0)

    def lattice_series(lab, theta, rho, nmax=36):
        total = 0.0 + 0.0j
        for r1 in range(nmax):
            for r2 in range(nmax):
                c = (lab.z1 ** r1) * (lab.z2 ** r2) * math.exp(
                    -0.5 * (sp.gammaln(r1 + 1.0) + sp.gammaln(r2 + 1.0)))
                if abs(c) < 1e-22:
                    continue
                from msf.landau import stationary_state
                if r2 > r1:
                    q = resolve_qnums(0, r1 - r2, r1, cfg)
                else:
                    q = resolve_qnums(1, r1 - r2, r2, cfg)
                total += c * stationary_state(q, theta, rho, cfg)
        return total

    def branch_form(lab, theta, rho):
        # sum_j sqrt(N_j) Phi_j, ln N_j = u + v + ln P_j; no term where
        # N_j = 0 (branch 0 at z2 = 0)
        total = 0.0 + 0.0j
        for j, ln_p in enumerate((ln_marcum_p(1.0, lab.u, lab.v),
                                  ln_marcum_p(0.0, lab.v, lab.u))):
            if ln_p > -math.inf:
                total += (math.exp((lab.u + lab.v + ln_p) / 2.0)
                          * cs_state(j, lab, theta, rho, cfg))
        return total

    worst = 0.0
    for _ in range(20):
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        rho = float(rng.uniform(0.05, 8.0))
        lab = CSLabel(complex(*rng.uniform(-1.5, 1.5, 2)),
                      complex(*rng.uniform(-1.5, 1.5, 2)))
        a = branch_form(lab, theta, rho)
        b = lattice_series(lab, theta, rho)
        w = math.sqrt(rho) * cmath.exp(1j * theta)
        closed = (math.sqrt(cfg.gamma / (2 * math.pi)) * cmath.exp(-rho / 2)
                  * cmath.exp(lab.z1 * lab.z2 - lab.z1 * w + lab.z2 * np.conj(w)))
        worst = max(worst, abs(a - b) / abs(closed), abs(a - closed) / abs(closed))
    assert report("C09", "zero-flux state: branch form vs free lattice series "
                  "(20 random points)", worst, tol)


def test_c10_dirac_sector(records):
    per_vt = [f"vt={vt:+d} mu=0.4" for vt in (1, -1)]
    gram = own_errors(records, "spinor-gram", [f"{p} 20 states" for p in per_vt], 1e-8)
    ham = own_errors(records, "hamiltonian-residual", per_vt, 1e-5)
    sigp = own_errors(records, "sigma-p-squared", per_vt, 1e-6)
    ok1 = report("C10a", "spinor orthonormality, both extensions", max(gram), 1e-8)
    ok2 = report("C10b", "Hamiltonian eigen-residual", max(ham), 1e-5)
    ok3 = report("C10c", "(sigma.P)^2 eigenvalue = 2 gamma [n1 + (1+sigma)/2]",
                 max(sigp), 1e-6)
    assert ok1 and ok2 and ok3


def test_c11_relativistic_coherent_states(records):
    norm = own_errors(records, "rel-cs-unit-norm", ["mu=0.5 both branches/charges"], 1e-7)
    overlap = own_errors(records, "rel-cs-overlap-dual", ["mu=0.5"], 1e-7)
    ok1 = report("C11a", "relativistic coherent state unit norm", norm[0], 1e-7)
    ok2 = report("C11b", "overlap: spinor quadrature vs spectral formula", overlap[0], 1e-7)
    assert ok1 and ok2


def test_c12_embedding(records):
    sz = own_errors(records, "embed-sz-eigen", ["mu=0.4 p3=0"], 1e-5)
    ok1 = report("C12a", "spin-z eigenvalue at zero longitudinal momentum", sz[0], 1e-5)
    scaling = own_errors(records, "embed-1-over-m-scaling", ["M in {10,100,1000}"], 0.05)
    ok2 = report("C12b", "small components suppressed as O(1/M), M=10..1000",
                 scaling[0], 0.05)
    assert ok1 and ok2


def test_c13_relativistic_kernel(records):
    proj = own_errors(records, "projector-structure", ["sigma=+1"], 0.0)
    ok1 = report("C13a", "spin projector structure exact", proj[0], 0.0)
    mono = own_errors(records, "rel-radial-delta-monotone", ["tau 0.2 -> 0.02"], 0.5)
    ok2 = report("C13b", "Wick-rotated radial delta limit monotone over tau decade",
                 mono[0], 0.5)
    assert ok1 and ok2
