"""Host-speed reference for normalising the end-to-end op timings.

On a shared host the speed of one core drifts: a fixed loop of banded
solves took 0.79 to 1.24 s from one second to the next, and the same
workload ran 25-40% faster or slower from one minute to the next.  Drift
of that size hides any change worth measuring, so the benchmark times a
fixed reference kernel every half second between its ops.  Each op's wall
time is divided by the factor

    f = mean(kernel time just before, kernel time just after) / NOMINAL

and ops_per_s is multiplied by the median factor of the run.  The scaled
values are seconds on a host that runs the kernel in NOMINAL seconds.

The kernel mixes what the ops spend their time on: scipy banded solves at
m = 512, interpreter bytecode and small numpy elementwise arrays.  It uses
no fujitalab code, so a change to the package cannot move it, and a
package change moves the scaled timings just as much as the raw ones.
"""

import bisect
import statistics
import time

import numpy as np
from scipy.linalg import solve_banded

# median kernel time on the 2-core Xeon host the bounds were set on
NOMINAL = 0.025

_BANDED = np.ones((3, 512))
_BANDED[1] = 4.0
_RHS = np.ones(512)


def reference_time() -> float:
    """Wall time of one run of the fixed reference kernel, about 20 ms."""
    x = np.linspace(0.0, 1.0, 512)
    t0 = time.perf_counter()
    for _ in range(300):
        solve_banded((1, 1), _BANDED, _RHS)
    acc = 0
    for i in range(60000):
        acc += i * i
    for _ in range(600):
        x = np.cos(x) * 0.5 + 0.1 * x
    return time.perf_counter() - t0


def speed_factor(samples) -> float:
    """How many times slower than nominal the host ran for these samples."""
    return statistics.median(samples) / NOMINAL


def local_factors(sample_at, samples, at):
    """Speed factor at each time in ``at`` from the samples around it.

    ``sample_at`` is increasing and its first entry precedes every time in
    ``at``; the factor averages the last sample before and the first after.
    """
    out = []
    for t in at:
        i = bisect.bisect_right(sample_at, t) - 1
        j = min(i + 1, len(samples) - 1)
        out.append(0.5 * (samples[i] + samples[j]) / NOMINAL)
    return out
