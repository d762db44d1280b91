"""Host-speed calibration: a fixed pure-Python kernel and the scale it gives.

Wall-clock on a shared two-core box drifts slowly by several percent
(CPU frequency, the neighbour's load), and the drift moves the
simulator and any other interpreter-bound loop alike.  The benchmark
therefore runs :func:`calibrate` before and after every op, in the same
process, and divides the drift out: an op's latency is multiplied by
``CAL_NOMINAL_MS / mean(the calibrate times nearest to it)`` before any
statistic (:func:`op_scales`).  Longer stretches, such as set-up, use
the median of every calibration inside them (:func:`median_scale`).

The kernel imports nothing from ``repro`` — a change to the simulator
cannot move it — and touches only preallocated objects, so it has no
allocation growth and does identical work on every call.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

#: The kernel's duration on the reference host, fixed in this file so
#: calibrated numbers from different runs and commits share one unit.
CAL_NOMINAL_MS = 5.0

#: Iterations of the mixed loop; sized to CAL_NOMINAL_MS on the box the
#: benchmark was defined on.
_ITERATIONS = 13600

#: The value ``calibrate`` leaves in ``_STATE.acc`` (identical work on
#: every call; the benchmark's tests pin it).
CHECKSUM = 0x6F703371


class _State:
    """Attribute-access target of the kernel."""

    __slots__ = ("acc",)

    def __init__(self) -> None:
        self.acc = 0


_TABLE = [0] * 256
_SLOTS = dict.fromkeys(range(64), 0)
_STATE = _State()


def _fold(acc: int, value: int) -> int:
    return ((acc << 1) ^ value) & 0x7FFFFFFF


def calibrate() -> float:
    """Run the fixed kernel once; returns its wall time in seconds.

    The mix mirrors what the simulator's hot loops do in the
    interpreter: integer arithmetic (an LCG), list and dict indexing,
    attribute loads/stores and a function call per iteration.
    """
    table, slots, state = _TABLE, _SLOTS, _STATE
    start = perf_counter()
    for index in range(256):
        table[index] = 0
    for key in range(64):
        slots[key] = 0
    state.acc = 0
    x = 12345
    for _ in range(_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = (x >> 8) & 255
        table[j] = (table[j] + x) & 0xFFFF
        k = j & 63
        slots[k] = slots[k] ^ table[j]
        state.acc = _fold(state.acc, slots[k])
    return perf_counter() - start


#: Calibrations taken on each side of an op that enter its scale.  A
#: single 5 ms sample carries ~8 % of noise of its own (host speed also
#: jitters faster than the samples are spaced); three a side average
#: that down while still following drift slower than ~0.3 s.
WINDOW = 3


def op_scales(calibration_s: list[float]) -> list[float]:
    """Per-op scales of one round.

    ``calibration_s[i]`` was taken just before op ``i`` and the last
    entry after the last op, so op ``i`` sits between entries ``i`` and
    ``i + 1``; its scale uses ``WINDOW`` entries on each side (fewer at
    the ends of the round).
    """
    scales = []
    for index in range(len(calibration_s) - 1):
        near = calibration_s[max(0, index + 1 - WINDOW):index + 1 + WINDOW]
        scales.append(CAL_NOMINAL_MS / (sum(near) / len(near) * 1e3))
    return scales


def median_scale(calibration_s: list[float]) -> float:
    """Scale of a stretch of work from every calibration inside it."""
    if not calibration_s:
        raise ValueError("need at least one calibration sample")
    return CAL_NOMINAL_MS / (median(calibration_s) * 1e3)


def checksum() -> int:
    """The accumulator the last :func:`calibrate` call left behind."""
    return _STATE.acc
