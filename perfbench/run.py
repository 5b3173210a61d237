"""msf benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload verify-all --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Every pass is a fresh
interpreter that does what one `msf` invocation does (see child.py),
with BLAS/OpenMP thread pools pinned to one thread.  The last stdout
line is one JSON object {correct, attempted, failed, metrics}; the line
before it records the machine, the passes and every failed operation.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer span statistics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from reference import REF_SECONDS  # noqa: E402
from tracer import STATS, SUITE_PREFIX, boundary_names  # noqa: E402

# Multi-threaded OpenBLAS stalls tiny matmuls (RadialGrid.derivative) in
# some processes by 10-50x; one thread per pool keeps passes comparable.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_PROCESSES = 8  # import-only interpreters per run, besides the pass interpreters
CHILD_TIMEOUT_S = 150
TARGETS = ("weight", "cs-density", "kernel", "state")


class BenchError(RuntimeError):
    pass


def machine() -> dict:
    import numpy as np
    import scipy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except Exception:  # older numpy has no dict form; the version is informational
        openblas = "unknown"
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": openblas, "threads": PINNED_ENV}


def run_child(root: Path, env: dict, job: dict) -> dict:
    proc = subprocess.run([sys.executable, str(HERE / "child.py")], input=json.dumps(job).encode(),
                          capture_output=True, cwd=root, env=env, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"pass process exited {proc.returncode}:\n{proc.stderr.decode()[-4000:]}")
    return json.loads(proc.stdout.decode().strip().splitlines()[-1])


def unit_medians(results: list, normalised: bool = True) -> dict:
    """Median over passes of each unit's time; normalised, each time is
    first divided by its neighbouring reference time and expressed in
    seconds at the reference speed REF_SECONDS."""
    units = results[0]["units"]
    if not normalised:
        return {u: statistics.median(r["units"][u] for r in results) for u in units}
    return {u: REF_SECONDS * statistics.median(r["units"][u] / r["refs"][u] for r in results)
            for u in units}


def end_to_end(passes: list, setups: list) -> dict:
    return {
        "pass_s": (sum(unit_medians(passes).values()), "s"),
        "setup_s": (REF_SECONDS * statistics.median(s["setup_s"] / s["setup_ref"] for s in setups), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in passes), "MB"),
    }


def target_rates(inputs: dict, passes: list) -> dict:
    """Points per second of each tabulate target, tables' median times summed;
    0 where a workload tabulates nothing."""
    tables = inputs.get("tables", [])
    med = unit_medians(passes) if tables else {}
    rates = {}
    for target in TARGETS:
        idx = [i for i, t in enumerate(tables) if t["target"] == target]
        points = sum(tables[i]["points"] for i in idx)
        rates[f"{target}.pts_per_s"] = (points / sum(med[str(i)] for i in idx) if idx else 0.0, "1/s")
    return rates


def per_layer(inputs: dict, untraced: list, traced: list) -> tuple[dict, bool]:
    """Span statistics per pass, medians over the traced passes; tabulate
    rates from the untraced passes of the same run."""
    metrics, repeat = target_rates(inputs, untraced), True
    for name in boundary_names():
        rows = [r["layers"].get(name, [0, 0.0, 0.0]) for r in traced]
        repeat &= len({row[0] for row in rows}) == 1
        for k, stat in enumerate(STATS):
            unit = "count" if stat == "calls" else "s"
            value = rows[0][0] if stat == "calls" else statistics.median(row[k] for row in rows)
            metrics[f"{name}.{stat}"] = (value, unit)
    for suite in workloads.SUITES:
        rows = [r["layers"].get(SUITE_PREFIX + suite, [0, 0.0, 0.0]) for r in traced]
        metrics[f"{SUITE_PREFIX}{suite}.s"] = (statistics.median(row[1] for row in rows), "s")
    overhead = sum(unit_medians(traced).values()) / sum(unit_medians(untraced).values())
    metrics["trace.overhead"] = (overhead, "ratio")
    return metrics, repeat


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="small inputs, for the benchmark's own tests")
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "msf" / "cli.py").is_file():
        print("error: run from the root of an msf checkout (src/msf not found)", file=sys.stderr)
        return 2
    import checks

    env = dict(os.environ, **PINNED_ENV)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    out_dir = root / ".perfbench"
    out_dir.mkdir(exist_ok=True)

    inputs = workloads.make_inputs(args.workload, args.seed, args.tiny)
    checker = checks.CHECKERS[args.workload](inputs)
    base = {"workload": args.workload, "inputs": inputs,
            "spans_path": str(out_dir / f"spans-{args.workload}.tsv")}

    run_child(root, env, {"mode": "import"})  # writes bytecode caches; not timed
    setups = [run_child(root, env, {"mode": "import"})
              for _ in range(1 if args.tiny else SETUP_PROCESSES)]
    untraced, traced = [], []
    start = time.perf_counter()
    while not untraced or (args.trace and not traced) or time.perf_counter() - start < args.seconds:
        mode = "traced" if args.trace and len(traced) < len(untraced) else "plain"
        res = run_child(root, env, dict(base, mode=mode))
        (traced if mode == "traced" else untraced).append(res)
        setups.append(res)

    attempted, failed, prints, failures = 0, 0, set(), {}
    for res in untraced + traced:
        n, fails, fingerprint = checker.check(res)
        attempted += n
        failed += len(fails)
        prints.add(fingerprint)
        for f in fails:
            failures[f] = failures.get(f, 0) + 1
    # identical inputs must give byte-identical outputs in every pass
    correct = len(prints) == 1
    if args.trace:
        metrics, repeat = per_layer(inputs, untraced, traced)
        correct &= repeat
    else:
        metrics = end_to_end(untraced, setups)

    info = {"perfbench": {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "machine": machine(),
        "passes": {"plain": len(untraced), "traced": len(traced)},
        "per_pass": {"attempted": attempted // (len(untraced) + len(traced)),
                     "failed": failed // (len(untraced) + len(traced))},
        "failures": sorted(failures), "unit_medians_s": unit_medians(untraced),
        "wall": {"pass_s": sum(unit_medians(untraced, normalised=False).values()),
                 "setup_s": statistics.median(s["setup_s"] for s in setups),
                 "reference_s": statistics.median(v for r in untraced for v in r["refs"].values()),
                 "unit_medians_s": unit_medians(untraced, normalised=False)},
        "rates": {k: v for k, (v, _) in target_rates(inputs, untraced).items()},
        "outputs_repeat": len(prints) == 1}}
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6g} {unit}", file=sys.stderr)
    print(f"operations: {attempted} attempted, {failed} failed; correct={correct}", file=sys.stderr)
    print(json.dumps(info))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
