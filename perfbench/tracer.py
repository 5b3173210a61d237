"""Spans around msf's public layer boundaries, recorded from outside.

``Tracer.install`` replaces each boundary function with a wrapper in
*every* msf namespace that holds it: `cli` binds `weight_fn`,
`cs_state`, ... with `from ... import`, and `dirac` binds
`laguerre_fn_table` and `make_radial_grid` the same way, so wrapping
only the defining module would miss those calls.  Spans (name, start,
end, parent) stay in memory until ``write``.
"""

from __future__ import annotations

import functools
import sys
import time

# layer -> public functions whose calls are spans; "Class.method" patches the class
BOUNDARIES = {
    "specfun": ("q_sum", "laguerre_fn_table", "bessel_i", "ln_gamma"),
    "completeness": ("weight_fn", "unity_reconstruction", "propagator_closed",
                     "propagator_series", "radial_delta_smear", "g_matrix", "moment_check"),
    "cs": ("cs_normalization", "cs_state", "cs_branch", "mm_weight_sum"),
    "landau": ("gram_matrix", "make_quadrature", "stationary_state", "resolve_qnums"),
    "radial": ("make_radial_grid", "RadialGrid.derivative", "RadialGrid.integrate"),
    "dirac": ("dirac_spinor", "rel_cs", "rel_cs_inner", "green_kernel_rel",
              "apply_sigma_p", "d_inner", "embed_3p1"),
    "cli": ("verify_suite", "tabulate", "report_json", "table_csv"),
}
SUITE_PREFIX = "cli.suite."
STATS = ("calls", "total_s", "self_s")


def boundary_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in BOUNDARIES.items() for fn in fns]


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name, t0, t1, parent)

        return traced

    def install(self) -> None:
        import msf.cli as cli

        namespaces = [m for n, m in sys.modules.items() if n == "msf" or n.startswith("msf.")]
        for layer, fns in BOUNDARIES.items():
            module = sys.modules[f"msf.{layer}"]
            for fn in fns:
                if "." in fn:
                    cls_name, meth = fn.split(".")
                    cls = getattr(module, cls_name)
                    setattr(cls, meth, self.wrap(f"{layer}.{fn}", cls.__dict__[meth]))
                    continue
                original = getattr(module, fn)
                wrapper = self.wrap(f"{layer}.{fn}", original)
                for ns in namespaces:
                    for attr, val in list(vars(ns).items()):
                        if val is original:
                            setattr(ns, attr, wrapper)
        for suite, fn in list(cli.SUITE_FUNCS.items()):
            cli.SUITE_FUNCS[suite] = self.wrap(SUITE_PREFIX + suite, fn)

    def summary(self) -> dict:
        """name -> [calls, total_s, self_s]; self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict = {}
        for idx, (name, t0, t1, _) in enumerate(self.spans):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += t1 - t0
            row[2] += t1 - t0 - child[idx]
        return out

    def write(self, path: str) -> None:
        """Spans as tab-separated name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, t0, t1, parent in self.spans:
                fh.write(f"{name}\t{t0!r}\t{t1!r}\t{parent}\n")
