"""CPU pinning and the calibration probe that puts host times on one speed.

The benchmark runs on virtual CPUs of a shared host.  Each virtual CPU
switches, every few seconds, between a fast state and one about 1.6 times
slower, independently of the other CPUs; the likely cause is another guest
on the same physical core.  Raw wall times therefore spread by 20-30%
between runs of the same code.  Two things take most of that out:

- ``pin()`` keeps the benchmark and every child it starts on one CPU, so
  that the probe and the op it brackets run on the same CPU.
- ``probe()`` times a fixed kernel that does the kind of work hqsim does
  (small numpy arrays, Python calls, dict updates) and never calls hqsim.
  An op's speed factor is the mean probe time just before and just after
  it, divided by ``REFERENCE_S``; its normalised time is its wall time
  divided by that factor: the time the op would take with the CPU in the
  fast state of the machine the benchmark was written on.
"""

from __future__ import annotations

import os
import time

import numpy as np

# Probe time with the CPU in its fast state on a 2-vCPU "Intel(R) Xeon(R)
# Processor" virtual machine, Python 3.11.7, numpy 2.4.
REFERENCE_S = 0.007
PROBE_REPEATS = 3
_KERNEL_STEPS = 3000


def pin() -> int | None:
    """Keep this process, and the children it starts, on its last usable
    CPU; returns that CPU, or None where affinity cannot be set."""
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        return None
    return cpu


def _kernel() -> float:
    a = np.arange(16, dtype=np.complex128)
    counts: dict[int, int] = {}
    acc = 0.0
    for i in range(_KERNEL_STEPS):
        b = a * (0.5 + 0.25j)
        acc += float(np.abs(b[i & 15]))
        counts[i & 63] = counts.get(i & 63, 0) + i
        acc += sum(counts.values()) * 1e-9
    return acc


def probe() -> float:
    """Mean wall time of a few runs of the kernel, in seconds."""
    total = 0.0
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _kernel()
        total += time.perf_counter() - start
    return total / PROBE_REPEATS


def normalised(seconds: float, probe_before: float, probe_after: float) -> float:
    """Wall time rescaled to the reference speed by the probes around it."""
    return seconds * REFERENCE_S / (0.5 * (probe_before + probe_after))
