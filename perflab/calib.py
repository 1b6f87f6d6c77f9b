"""The calibration kernel and the kernel unit (``ku``).

On the shared 2-core box raw seconds drift with machine speed (the same op
measured ±16 % across sets), while the same op divided by a fixed
pure-Python kernel timed right beside it holds to about ±5 %.  So every
real-time metric except ``setup_s`` and ``harness.*`` is a *cost* in kernel
units: ``op_seconds / mean(kernel_before, kernel_after)``.

The kernel is frozen once a baseline is committed: changing its body or
:data:`KERNEL_ITERATIONS` changes the unit, which is a benchmark change that
re-baselines every ``ku`` number.
"""

from __future__ import annotations

import gc
import time
from array import array

#: Loop trips of one kernel run (about 20 ms on the 2-core reference box).
KERNEL_ITERATIONS = 40_000


def kernel() -> int:
    """The engine's instruction mix: dict stores of small tuples, list and
    ``array('q')`` appends, integer adds.  Returns a checksum so the work
    cannot be skipped."""
    table: dict[tuple[int, int], tuple[int, int]] = {}
    values: list[int] = []
    packed = array("q")
    total = 0
    for i in range(KERNEL_ITERATIONS):
        table[(i & 2047, i >> 4)] = (i, total)
        values.append(i)
        packed.append(total)
        total += i & 7
    return total + len(table) + len(values) + len(packed)


def time_kernel() -> float:
    """Seconds one kernel run takes right now.

    The collector is paused for the run: the kernel allocates 80,000 tuples,
    and a generational collection triggered inside it would scan the whole
    live heap — the unit would then measure how much data the workload keeps
    resident, not how fast the machine is.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if was_enabled:
            gc.enable()


def cost_ku(op_seconds: float, kernel_before_s: float, kernel_after_s: float) -> float:
    """An op's cost in kernel units."""
    return op_seconds / ((kernel_before_s + kernel_after_s) / 2.0)
