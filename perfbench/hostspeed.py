"""Host-speed calibration: a fixed kernel and a reference process.

The benchmark host is shared: measured back to back, the same evaluator
pass runs up to twice as fast in one second as in the next, in wall and
CPU time alike.  Both calibrations below are fixed work that never touches
kspecfun, so no change to the library can move them.

* In-process timings (one pass over an evaluator call list) are paired
  with the kernel, run right after the pass: Python calls and loops, float
  arithmetic, ``math.log``/``exp``/``lgamma`` and ``**``, the same kind of
  work as the evaluators.
* Whole-process timings (a fresh ``ksf`` process, a fresh import) are
  paired with the reference process (``python3 hostspeed.py``), run before
  and after: interpreter start-up, the standard-library imports the
  kspecfun CLI makes, and the kernel 40 times.  Process start-up and
  imports react to the host's load differently from pure computation, so
  the kernel alone tracks them badly.

``kernel_factor`` and ``process_factor`` scale a time (multiply) or a rate
(divide) to a host on which the kernel takes ``KERNEL_REF_S`` and the
reference process ``PROCESS_REF_S``.
"""

from __future__ import annotations

import math
import time

# Uncontended times on a 2.1 GHz Xeon vCPU with Python 3.11.  They only set
# the scale of the adjusted figures.
KERNEL_REF_S = 0.002
PROCESS_REF_S = 0.15
REFERENCE_KERNELS = 40

_TAIL = (1.0 / 12.0, -1.0 / 120.0, 1.0 / 252.0, -1.0 / 240.0, 1.0 / 132.0)


def _shifted_log_series(x: float) -> float:
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    u = 1.0 / (x * x)
    p = 0.0
    for c in reversed(_TAIL):
        p = (p + c) * u
    return acc + math.log(x) - 0.5 / x - p


def _scaled_gamma(k: float, x: float) -> float:
    return k ** (x / k - 1.0) * math.exp(math.lgamma(x / k))


def kernel_s() -> float:
    """Wall time of one run of the fixed kernel."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(2000):
        x = 0.3 + 0.005 * i
        s += _shifted_log_series(x) + _scaled_gamma(1.3, x)
    if not math.isfinite(s):
        raise ArithmeticError("calibration kernel overflowed")
    return time.perf_counter() - t0


def kernel_factor(kernel_seconds: float) -> float:
    """Host speed from a kernel time: multiply a time by it, divide a rate."""
    return KERNEL_REF_S / kernel_seconds


def process_factor(reference_seconds: float) -> float:
    """Host speed from a reference-process wall time, used like kernel_factor."""
    return PROCESS_REF_S / reference_seconds


if __name__ == "__main__":
    # the reference process
    import importlib

    for module in ("argparse", "csv", "dataclasses", "functools", "heapq", "json", "tempfile"):
        importlib.import_module(module)
    for _ in range(REFERENCE_KERNELS):
        kernel_s()
