"""The benchmark's traced names exist in the library.

perfbench/tracer.py wraps each name of its BOUNDARIES table with getattr
on its msf module, so a name the library drops breaks the traced
benchmark run.  The tracer is loaded by file path, as the benchmark
loads it, without importing the rest of the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _boundaries() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.BOUNDARIES


@pytest.mark.parametrize("layer,name", [(layer, fn) for layer, fns in _boundaries().items()
                                        for fn in fns])
def test_boundary_resolves_in_its_module(layer, name):
    module = importlib.import_module(f"msf.{layer}")
    if "." in name:  # Class.method: the tracer reads the method off the class itself
        cls_name, meth = name.split(".")
        assert callable(vars(getattr(module, cls_name))[meth])
    else:
        assert callable(getattr(module, name))
