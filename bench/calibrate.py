"""Machine-speed calibration for the benchmark's timings.

The sandbox this benchmark was built on shares its cores with other
tenants: its speed drifts by up to 1.6x over seconds, which moved the
median round trip of whole runs by 15-20% between runs.  A fixed kernel
timed next to each measured command tracks that drift, and every timing
is reported in *reference seconds*: ``measured * REFERENCE_S / kernel``,
the time the command would take where the kernel takes ``REFERENCE_S``.
Raw wall times are printed beside the results.
"""

from __future__ import annotations

import json
import math
import time

import numpy as np

# About the kernel's time on an uncontended core of a 2-core Xeon sandbox.
REFERENCE_S = 0.001

_I2 = np.eye(2)
_X = np.array([[0, 1], [1, 0]], dtype=complex)


def _kernel_pass() -> float:
    t0 = time.perf_counter()
    u = np.eye(8, dtype=complex)
    for k in range(20):
        rot = math.cos(k) * _I2 - 1j * math.sin(k) * _X
        u = np.kron(np.kron(_I2, rot), _I2) @ u
    json.loads(json.dumps({"re": u.real.tolist(), "im": u.imag.tolist()}))
    return time.perf_counter() - t0


def kernel_seconds() -> float:
    """Time a fixed mix of the program's own kinds of work: small
    Kronecker embeddings and products, then JSON text both ways.  The
    faster of two back-to-back passes drops a pass that was preempted."""
    return min(_kernel_pass(), _kernel_pass())


def scale(before: float, after: float) -> float:
    """Factor from measured to reference seconds for work timed between
    two kernel passes."""
    return 2 * REFERENCE_S / (before + after)
