"""The bench spine: one timer, one file format, one gate, one driver.

A bench is a :class:`Bench` record plus a cell function; what a bench
does *not* own is here, once: calibrated min-of-N wall-clock timing
(:func:`best_of`), the payload header and JSON file format
(:func:`run`, :func:`save`, :func:`load`), the floor gate
(:func:`check`) and the CLI sequence with its exit codes
(:func:`drive`), which ``repro bench`` and ``repro explore --depth``
both reach through :func:`get`.

Every time :func:`best_of` returns is calibrated: a fixed pure-Python
kernel (:func:`calibrate`, a copy of ``bench/calibrate.py``'s) runs
between the timed laps, and each lap is scaled to the host on which the
kernel takes ``CAL_NOMINAL_MS``.  A floor is therefore an absolute
speed in that one unit (kinst/s, jobs/s) or a ratio to a frozen oracle,
never a ratio to live code that may itself get faster: a floored key
fails when it drops more than ``tolerance`` below the baseline's value.
A baseline is only comparable with the bench that wrote it, so
:func:`load` refuses a file whose ``bench`` name or schema stamp differs
rather than gate on whatever keys overlap.  Each payload also records
the host it was measured on (:func:`machine`) and the calibration
kernel's times; a gate failure against a baseline from another host,
or from before the field, says so, since calibration divides out host
speed but not every difference between hosts.
"""

from __future__ import annotations

import functools
import importlib
import json
import operator
import platform
import sys
import time
from dataclasses import dataclass
from statistics import median
from typing import Any, Callable, TypeVar

import numpy as np

T = TypeVar("T")
Payload = dict[str, Any]

#: ``schema`` of the payloads whose header :func:`run` writes (2: every
#: timed number is calibrated).
SCHEMA = 2


class BenchError(ValueError):
    """A baseline file is missing, malformed, or from another bench."""


def _no_invariants(payload: Payload, baseline: Payload) -> list[str]:
    return []


@dataclass(frozen=True)
class Bench:
    """What is specific to one bench."""

    name: str                           # the payload's "bench" field
    run: Callable[..., Payload]         # run(quick, ...) -> payload body
    render: Callable[[Payload], str]    # the terminal table
    floors: tuple[str, ...]             # dotted payload keys held to a
    tolerance: float                    # ... (1 - tolerance) x baseline
    #: absolute checks of (payload, baseline) that no tolerance relaxes
    invariants: Callable[[Payload, Payload], list[str]] = _no_invariants
    stamp: tuple[str, int] = ("schema", SCHEMA)     # version key, value


#: Every bench: payload name -> (module, attribute) of its record
#: (named, not imported: the bench modules import this one).
_MODULES = {
    "emulator": ("repro.harness.layerbench", "EMULATOR"),
    "pipeline": ("repro.harness.layerbench", "PIPELINE"),
    "tier3": ("repro.harness.layerbench", "TIER3"),
    "vector": ("repro.harness.layerbench", "VECTOR"),
    "service": ("repro.service.bench", "BENCH"),
    "explore-depth": ("repro.harness.explore", "BENCH"),
}
NAMES = tuple(_MODULES)


def get(name: str) -> Bench:
    """The registered bench called *name*."""
    module, attribute = _MODULES[name]
    bench: Bench = getattr(importlib.import_module(module), attribute)
    assert bench.name == name, (bench.name, name)
    return bench


# -- calibration: a copy of bench/calibrate.py's kernel ----------------------

#: The kernel's time on the host its loop count was sized on: the unit of
#: every calibrated time, shared with the benchmark's ``sim_kips_norm``.
CAL_NOMINAL_MS = 5.0
_CAL_ITERATIONS = 13600


class _CalState:
    __slots__ = ("acc",)

    def __init__(self) -> None:
        self.acc = 0


_CAL_TABLE = [0] * 256
_CAL_SLOTS = dict.fromkeys(range(64), 0)
_CAL_STATE = _CalState()


def _fold(acc: int, value: int) -> int:
    return ((acc << 1) ^ value) & 0x7FFFFFFF


def calibrate() -> float:
    """Run the fixed kernel once; returns its wall time in seconds.

    It imports nothing from ``repro``, so no change to the simulator
    moves it, and it does identical work on every call: an LCG, list and
    dict indexing, attribute stores and a call per iteration, the mix of
    the simulator's own hot loops.
    """
    table, slots, state = _CAL_TABLE, _CAL_SLOTS, _CAL_STATE
    start = time.perf_counter()
    for index in range(256):
        table[index] = 0
    for key in range(64):
        slots[key] = 0
    state.acc = 0
    x = 12345
    for _ in range(_CAL_ITERATIONS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = (x >> 8) & 255
        table[j] = (table[j] + x) & 0xFFFF
        k = j & 63
        slots[k] = slots[k] ^ table[j]
        state.acc = _fold(state.acc, slots[k])
    return time.perf_counter() - start


def best_of(repeat: int,
            once: Callable[[Callable[..., Any]], T]) -> tuple[list[float], T]:
    """Calibrated min-of-N wall clock: run ``once(timed)`` *repeat* times.

    Inside a round, what goes through ``timed(fn, *args, **kwargs)`` is
    on the clock and everything else (set-up, a differential check) is
    off it.  A round that times several contenders back-to-back
    interleaves them, which keeps scheduler noise out of their ratio.
    The calibration kernel runs before every ``timed`` call and after
    each round.  Returns, for each ``timed`` call of a round in call
    order, its fastest raw time × ``CAL_NOMINAL_MS`` / the fastest
    kernel time of this call (seconds on the nominal host: a host *k*
    times slower takes *k* times as long on both), and the last round's
    return value.
    """
    if repeat < 1:
        raise ValueError(f"repeat must be at least 1, not {repeat}")
    laps: list[float] = []
    kernel: list[float] = []

    def timed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        kernel.append(calibrate())
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        laps.append(time.perf_counter() - start)
        return result

    best: list[float] = []
    for _ in range(repeat):
        laps.clear()
        value = once(timed)
        kernel.append(calibrate())
        best = list(map(min, best, laps)) if best else list(laps)
    scale = CAL_NOMINAL_MS / (min(kernel) * 1e3)
    return [lap * scale for lap in best], value


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def machine() -> dict[str, str]:
    """The host a payload is measured on: the CPU model and the Python
    and numpy versions."""
    return {"cpu": _cpu_model(), "python": platform.python_version(),
            "numpy": np.__version__}


#: Calibration kernel runs :func:`run` records on each side of a bench.
_HEADER_SAMPLES = 5


def run(bench: Bench, quick: bool = False, **options: Any) -> Payload:
    """Run *bench* and put the payload header on what it measured: the
    host, and the calibration kernel's times just before and after."""
    key, version = bench.stamp
    kernel = [calibrate() for _ in range(_HEADER_SAMPLES)]
    body = bench.run(quick=quick, **options)
    kernel += [calibrate() for _ in range(_HEADER_SAMPLES)]
    calibration = {"nominal_ms": CAL_NOMINAL_MS,
                   "min_ms": round(min(kernel) * 1e3, 4),
                   "p50_ms": round(median(kernel) * 1e3, 4)}
    return {key: version, "bench": bench.name, "quick": quick,
            "machine": machine(), "calibration": calibration, **body}


def save(payload: Payload, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path: str, bench: Bench) -> Payload:
    """Read a payload *bench* wrote; :class:`BenchError` otherwise."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except FileNotFoundError:
        raise BenchError(f"baseline {path} not found") from None
    except json.JSONDecodeError as exc:
        raise BenchError(f"{path}: not JSON ({exc})") from None
    if not isinstance(payload, dict):
        raise BenchError(f"{path}: expected a JSON object")
    if payload.get("bench") != bench.name:
        raise BenchError(f"{path}: a {payload.get('bench')!r} payload, "
                         f"not a baseline for the {bench.name!r} bench")
    key, version = bench.stamp
    if payload.get(key) != version:
        raise BenchError(f"{path}: {key} {payload.get(key)!r}, the "
                         f"{bench.name} bench writes {key} {version}")
    return payload


def _dig(payload: Payload, dotted: str) -> Any:
    """``payload[a][b]`` for ``"a.b"``; KeyError where a level is absent."""
    return functools.reduce(operator.getitem, dotted.split("."), payload)


def _other_machine(payload: Payload, baseline: Payload) -> str | None:
    """How *baseline*'s host differs from *payload*'s; None if it does
    not."""
    here, there = payload.get("machine") or {}, baseline.get("machine")
    if here == (there or {}):
        return None
    if not there:
        return "the baseline records no machine"
    return "measured on another machine: " + ", ".join(
        f"{field} {here.get(field)!r} (baseline {there.get(field)!r})"
        for field in sorted(set(here) | set(there))
        if here.get(field) != there.get(field))


def check(bench: Bench, payload: Payload, baseline: Payload,
          tolerance: float | None = None) -> list[str]:
    """Gate a fresh *payload* against *baseline*.

    Returns human-readable failure strings (empty = no regression): one
    per floored key that dropped more than *tolerance* (default: the
    bench's own) below a baseline that has it, then whatever the
    bench's invariants object to; each names the host difference when
    the two payloads' machines differ.
    """
    if tolerance is None:
        tolerance = bench.tolerance
    failures = []
    for key in bench.floors:
        try:
            base = _dig(baseline, key)
        except KeyError:        # an older baseline: nothing to hold to
            continue
        current = _dig(payload, key)
        floor = (base or 0.0) * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"{key} regressed: {current} < {floor:.4f} "
                f"(baseline {base}, tolerance {tolerance:.0%})")
    failures += bench.invariants(payload, baseline)
    other = _other_machine(payload, baseline) if failures else None
    if other:
        failures = [f"{failure}; {other}" for failure in failures]
    return failures


def drive(bench: Bench, out: str | None = None,
          baseline: str | None = None, tolerance: float | None = None,
          **options: Any) -> int:
    """The CLI body of every bench; returns the process exit code.

    0: ran and, given a baseline, held; 1: regression, one
    ``REGRESSION:`` line each; 2: the baseline is unusable, reported
    before the minutes-long run rather than after it.
    """
    try:
        reference = load(baseline, bench) if baseline else None
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = run(bench, **options)
    print(bench.render(payload))
    if out:
        save(payload, out)
        print(f"wrote {out}")
    if reference is None:
        return 0
    if tolerance is None:
        tolerance = bench.tolerance
    failures = check(bench, payload, reference, tolerance)
    for failure in failures:
        print(f"REGRESSION: {failure}")
    if failures:
        return 1
    band = f" (tolerance {tolerance:.0%})" if bench.floors else ""
    print(f"no regression vs {baseline}{band}")
    return 0


__all__ = ["Bench", "BenchError", "CAL_NOMINAL_MS", "NAMES", "SCHEMA",
           "best_of", "calibrate", "check", "drive", "get", "load",
           "machine", "run", "save"]
