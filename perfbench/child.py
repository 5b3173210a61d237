"""One benchmark pass in a fresh interpreter, as one `msf` invocation.

Reads a JSON job on stdin, times `import msf.cli` (nothing but builtin
modules is loaded before it), runs the workload's pass, optionally
under the tracer, and prints one JSON result line on stdout.
"""

import sys
import time

raw = sys.stdin.buffer.read()
t0 = time.perf_counter()
import msf.cli  # noqa: E402,F401  (the timed set-up)
setup_s = time.perf_counter() - t0

import json  # noqa: E402
import resource  # noqa: E402

import workloads  # noqa: E402  (found beside this script)
from tracer import Tracer  # noqa: E402


def main() -> None:
    job = json.loads(raw)
    # the machine's speed right after the import, to normalise set-up time
    result = {"setup_s": setup_s, "setup_ref": workloads.reference()}
    if job["mode"] != "import":
        tracer = Tracer() if job["mode"] == "traced" else None
        if tracer:
            tracer.install()
            # a span of its own keeps the reference runs out of their parents' self time
            workloads.reference = tracer.wrap("perfbench.reference", workloads.reference)
        result.update(workloads.PASSES[job["workload"]](job["inputs"]))
        if tracer:
            result["layers"] = tracer.summary()
            tracer.write(job["spans_path"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")


main()
