"""Output checks with failure accounting, one checker per workload.

A checker turns one pass result into (attempted, failed, failures) and
a fingerprint of the pass's outputs.  Operations that fail, including
msf's known defects, are counted, never raised.  Oracle values
depend only on the inputs, so they are computed once per run.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import oracles
from workloads import SUITES, digest

# achieved-error bounds of the checked identities
TOL = {
    "weight": 1e-10,      # relative, per value, against the Marcum-P oracle
    "cs-density": 1e-10,  # absolute, in units of sqrt(gamma/2 pi) (the state has unit norm)
    "kernel": 1e-10,      # relative to the table's largest |value|
    "state": 1e-10,       # relative to the table's largest |value|
    "grid": 1e-10,        # quadrature of exp(-rho) over the grid
    "spinor": (1e-10, 1e-5),  # unit norm, relative Hamiltonian residual
    "rel_cs": 1e-7,       # unit norm through rel_cs_inner
    "overlap": 1e-7,      # rel_cs_inner against rel_cs_overlap_closed
    "smear": 1e-8,        # smeared kernel against its spectral mode sum
}


def _finite(x) -> bool:
    return x is not None and all(math.isfinite(v) for v in np.ravel(x))


class VerifyChecker:
    """An operation is one check record of the report."""

    def __init__(self, inputs: dict):
        pass  # the CLI fixes verify-all's inputs

    def check(self, result: dict):
        report = json.loads(result["report"])
        failures = []
        for rec in report["records"]:
            err = rec["achieved_error"]
            if rec["status"] == "fail" or not _finite(err):
                failures.append(f"{rec['name']} [{rec['parameters']}]: err {err!r} > tol {rec['tolerance']!r}")
        missing = [s for s in SUITES if s not in result["units"]]
        if missing:
            raise ValueError(f"suites not run: {missing}")
        return len(report["records"]), failures, digest(result["report"])


class TabulateChecker:
    """An operation is one table: it fails if the call raises, returns a
    non-zero status, or gives a value that is non-finite or disagrees
    with the oracle."""

    def __init__(self, inputs: dict):
        self.tables = inputs["tables"]
        self.verdicts: dict = {}  # output fingerprint -> failure text or None

    @staticmethod
    def _oracle(tab: dict, cols: dict) -> np.ndarray:
        target, mu = tab["target"], tab["mu"]
        if target == "weight":
            ref = [oracles.weights(mu, u, v) for u, v in zip(cols["u"], cols["v"])]
            return np.array(ref)
        if target == "cs-density":
            return oracles.cs_state(tab["j"], complex(*tab["z1"]), complex(*tab["z2"]), mu,
                                    tab["theta"], cols["rho"])
        if target == "kernel":
            return oracles.kernel(tab["l"], mu, tab["tau"], tab["rho"], cols["rhop"])
        return oracles.state(tab["l"], tab["m"], mu, tab["theta"], cols["rho"])

    def _verdict(self, tab: dict, out: dict):
        if "error" in out:
            return f"raised {out['error']}"
        if out["rc"] != 0:
            return f"exit status {out['rc']}"
        rows = list(csv.reader(io.StringIO(out["csv"])))
        header, body = rows[0], rows[1:]
        if len(body) != tab["points"]:
            return f"{len(body)} rows, expected {tab['points']}"
        data = np.array(body, dtype=float)
        if not np.all(np.isfinite(data)):
            return f"{int(np.sum(~np.isfinite(data)))} non-finite values"
        cols = {h: data[:, k] for k, h in enumerate(header)}
        ref = self._oracle(tab, cols)
        if tab["target"] == "weight":
            got = data[:, 2:4]
            err = np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-300))
        elif tab["target"] == "cs-density":
            # pointwise values can be tiny next to the terms summed for them,
            # so the error is measured on the scale of a unit-norm state
            got = cols["re"] + 1j * cols["im"]
            scale = math.sqrt(1.0 / (2.0 * math.pi))
            err = max(np.max(np.abs(got - ref)), np.max(np.abs(cols["abs2"] - np.abs(got) ** 2))) / scale
        else:
            got = cols["re"] + 1j * cols["im"]
            err = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
        if not err <= TOL[tab["target"]]:
            return f"oracle error {err:.3e} > {TOL[tab['target']]:.0e}"
        return None

    def check(self, result: dict):
        failures = []
        for i, (tab, out) in enumerate(zip(self.tables, result["tables"])):
            key = digest(out)
            if key not in self.verdicts:
                self.verdicts[key] = self._verdict(tab, out)
            if self.verdicts[key] is not None:
                failures.append(f"table {i} {' '.join(tab['argv'][1:])}: {self.verdicts[key]}")
        return len(self.tables), failures, digest(result["tables"])


class DiracChecker:
    """An operation is one library call checked against its identity."""

    def __init__(self, inputs: dict):
        self.inputs = inputs
        self.smear_ref: dict = {}

    def _smear_oracle(self, cfg: dict, key, nodes: np.ndarray, weights: np.ndarray) -> complex:
        sigma, l = key
        ref_key = (cfg["mu"], cfg["vartheta"], cfg["tau"], sigma, l, digest(nodes.tolist()))
        if ref_key not in self.smear_ref:
            gauss = np.exp(-((nodes - self.inputs["rho0"]) ** 2) / (2.0 * self.inputs["width"] ** 2))
            diag = oracles.rel_kernel_diag(sigma, l, cfg["mu"], cfg["vartheta"], 1.0, cfg["tau"],
                                           self.inputs["rho0"], nodes)
            self.smear_ref[ref_key] = complex(np.sum(weights * diag * gauss))
        return self.smear_ref[ref_key]

    def _error(self, cfg: dict, out: dict, kind: str, key, value):
        if kind == "spinor":
            return max(value[0] / TOL["spinor"][0], value[1] / TOL["spinor"][1])
        if kind == "smear":
            ref = self._smear_oracle(cfg, key, np.array(out["nodes"]), np.array(out["weights"]))
            return abs(complex(*value) - ref) / abs(ref) / TOL["smear"]
        return value / TOL[kind]

    def check(self, result: dict):
        attempted, failures = 0, []
        for cfg, out in zip(self.inputs["configs"], result["configs"]):
            for op in out["ops"]:
                kind, key, value = op[:3]
                attempted += 1
                where = f"{kind} {key} mu={cfg['mu']} vt={cfg['vartheta']:+d}"
                if len(op) > 3:
                    failures.append(f"{where}: raised {op[3]}")
                    continue
                scaled = self._error(cfg, out, kind, key, value) if _finite(value) else math.nan
                if not scaled <= 1.0:
                    failures.append(f"{where}: error {value!r} beyond tolerance")
        return attempted, failures, digest(result["configs"])


CHECKERS = {"verify-all": VerifyChecker, "tabulate-wide": TabulateChecker,
            "dirac-scan": DiracChecker}
