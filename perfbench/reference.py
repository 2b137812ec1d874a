"""Reference kernel: a fixed amount of the kinds of work the workloads do.

A shared 2-vCPU VM can slow down by 20-50 % for minutes at a time, which
moves every timing of a run alike.  The runner times this kernel between the
items of a run in the measuring process, and after set-up in each set-up
probe, and reports the end-to-end times in reference seconds: measured
seconds x NOMINAL_S / (median kernel time in the same processes).  Where the
kernel takes NOMINAL_S, reference seconds are seconds.  The kernel runs
interpreted Python, small-array numpy and scipy root-finding but no ucwaves
code, so a change to the package cannot move it.  numpy and scipy are
imported inside it, so that reading NOMINAL_S imports neither.
"""

import time

#: typical kernel time on a 2-vCPU Intel Xeon VM (Python 3.11, numpy 2.4)
NOMINAL_S = 0.11


def _interpreted():
    acc, table = 0.0, {}
    for i in range(100_000):
        x = (i % 97) * 0.5
        acc += x * x - x / 3.0
        table[i & 255] = (x, acc)
    return acc


def _small_arrays():
    import numpy as np
    a = np.linspace(0.0, 1.0, 800)
    for _ in range(1250):
        a = a + 1e-3 * (np.roll(a, 1) - 2.0 * a + np.roll(a, -1))
    return float(a.sum())


def _root_finds():
    from scipy.optimize import brentq
    return sum(brentq(lambda x, c: x**3 - x - c, 0.0, 3.0, args=(1.0 + k * 1e-4,))
               for k in range(1000))


def kernel_s():
    """Seconds taken by one run of the kernel."""
    t0 = time.perf_counter()
    _interpreted()
    _small_arrays()
    _root_finds()
    return time.perf_counter() - t0
