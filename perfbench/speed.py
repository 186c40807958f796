"""A fixed reference kernel that measures how fast the machine runs right now.

On a shared virtual machine the CPU's speed drifts by a third or more over
seconds to minutes, for every process alike.  The benchmark runs this
kernel between jobs and divides each job's wall time by the kernel's time
measured around it, then multiplies by ``REF_S``: the result is the job's
time on a machine that runs the kernel in ``REF_S`` seconds.  The kernel
imports nothing from qrtour, so a change to the program cannot move it.

It mixes what qrtour's jobs spend their time on: interpreted Python
loops, numpy's own int64 matrix products and small BLAS float products.
"""

from __future__ import annotations

import time

import numpy as np

# The kernel's typical time between jobs on a 2-vCPU Intel Xeon KVM guest;
# it only fixes the scale of the normalised times.
REF_S = 0.002

_I = np.arange(96 * 96, dtype=np.int64).reshape(96, 96) % 7 - 3
_F = np.linspace(-1.0, 1.0, 160 * 160).reshape(160, 160)


def _python_loop() -> int:
    acc = 0
    for i in range(6000):
        acc = (acc + i * i) % 1000003
    return acc


def kernel() -> float:
    """Wall time of one run of the reference kernel, in seconds."""
    start = time.perf_counter()
    _python_loop()
    _I @ _I
    f = _F
    for _ in range(3):
        f = _F @ f
    return time.perf_counter() - start


def local_scale(refs: list[float], radius: int = 8) -> list[float]:
    """Per job, ``REF_S`` over the median kernel time measured near it.

    ``refs[i]`` is the kernel time measured just before job ``i`` and
    ``refs[-1]`` the one after the last job; job ``i`` is scaled by the
    median of the samples from ``i - radius`` to ``i + 1 + radius``.
    """
    r = np.asarray(refs)
    jobs = len(r) - 1
    return [
        REF_S / float(np.median(r[max(0, i - radius): i + 2 + radius]))
        for i in range(jobs)
    ]
