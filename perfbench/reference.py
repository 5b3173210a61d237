"""Reference kernel that tracks the machine's speed between timed units.

On a shared host the speed of one core drifts by tens of percent over
seconds to minutes.  The kernel mixes the kinds of work msf does
(interpreted float arithmetic, special functions on short arrays, small
matmuls) and runs right before and after every timed unit; a unit's
time divided by the mean of its two neighbouring reference times is
nearly free of that drift.
"""

from __future__ import annotations

import math
import time

import numpy as np
from scipy import special as sp

# Normalised times are seconds on a machine where reference() takes this long.
REF_SECONDS = 0.010
_X = np.linspace(0.1, 5.0, 64)
_A = np.arange(144.0).reshape(12, 12) / 144.0
_B = np.ones((12, 64))


def reference() -> float:
    """Wall time of a fixed amount of mixed work (about 10 ms on a 2-core Xeon VM)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(1500):
        acc += math.exp(-i * 1e-3) * math.sqrt(i + 1.0)
        acc += float(sp.gammaln(_X + i * 1e-3).sum())
        acc += float((_A @ _B)[0, 0])
    return time.perf_counter() - t0
