"""A fixed reference kernel that measures how fast the host is right now.

The 2-vCPU host this benchmark was calibrated on drifts in speed by
tens of percent between runs of identical code, with process CPU time
tracking wall time (so the drift is the CPU being slower, not the
process being descheduled).  Each timed slice of a workload is followed
by a timed call of :func:`reference_kernel`; the ratio of the two times
is steady where either time alone is not.

The kernel mixes the kinds of work the workloads do: interpreted Python
(dicts, integer and float arithmetic), many small numpy calls, numpy
generator construction, and vector passes over an L2-sized and an
L3-sized array.  It shares no state with the program under test and
imports nothing from it.
"""

from __future__ import annotations

import time

import numpy as np

#: Median time of one :func:`reference_kernel` call on the calibration
#: host (2 vCPU x86-64, Python 3.11, numpy 2.4).  Rates and times are
#: reported "at reference host speed": scaled by this over the kernel
#: time measured next to them.
NOMINAL_S = 0.0070

_SMALL = np.arange(64, dtype=np.float64)
_L2 = np.linspace(0.0, 1.0, 32_768)
_L3 = np.linspace(0.0, 1.0, 262_144)


def reference_kernel() -> float:
    """Run the fixed mix once; returns a checksum so no work is skipped."""
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(2500):
        k = i % 97
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += ((i * 2654435761) % 1000003) / 1000003.0
    for i in range(200):
        acc += float(np.sqrt(_SMALL + i).sum())
    for i in range(60):
        seq = np.random.SeedSequence(entropy=7, spawn_key=(i,))
        acc += np.random.default_rng(seq).random()
    for i in range(6):
        acc += float(np.minimum(_L2 * i, 0.5).sum())
    for i in range(2):
        acc += float(np.minimum(_L3 * i, 0.5).sum())
    return acc + len(table)


def time_reference(repeats: int = 1) -> float:
    """Median wall time of ``repeats`` kernel calls, in seconds.

    One untimed call comes first, so the timed calls find the kernel's
    data in cache whatever the workload before them left there.
    """
    reference_kernel()
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    times.sort()
    return times[len(times) // 2]
