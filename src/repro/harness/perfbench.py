"""Emulator / harness performance benchmark (``python -m repro bench``).

Times the functional emulator in both execution modes — the precise
per-step interpreter ("before") and the block-translation fast path
("after") — on the CoreMark/EEMBC/NBench kernels, plus the end-to-end
harness path (emulator + 12-stage timing model) per kernel, and writes
the numbers to ``BENCH_emulator.json`` so the repo's perf trajectory is
measured rather than asserted.

The committed JSON doubles as the CI regression baseline: the bench CI
job re-runs ``bench --quick`` and fails when fast-mode emulator MIPS
drops more than the tolerance (default 30%) below the checked-in
numbers.  MIPS is computed from the best of ``repeat`` runs to shave
scheduler noise; absolute numbers still vary across machines, which is
why the gate is a ratio, not a floor.
"""

from __future__ import annotations

import json
import time

from ..sim.emulator import Emulator
from ..workloads import (
    coremark_suite,
    eembc_suite,
    get_workload,
    nbench_suite,
)
from .report import geomean
from .runner import run_on_core

#: JSON schema version of BENCH_emulator.json
SCHEMA = 1
DEFAULT_TOLERANCE = 0.30


def _workloads(quick: bool):
    suites = [coremark_suite()]
    if not quick:
        suites += [eembc_suite(), nbench_suite()]
    return [w for suite in suites for w in suite]


def _time_emulator(workload, fast: bool, repeat: int) -> tuple[int, float]:
    """(retired instructions, best-of-*repeat* seconds) for one run."""
    best = float("inf")
    insts = 0
    for _ in range(repeat):
        emulator = Emulator(workload.program())
        start = time.perf_counter()
        emulator.run(fast=fast)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        insts = emulator.state.instret
    return insts, best


def _time_harness(workload, repeat: int) -> float:
    """Best-of-*repeat* wall-clock of emulator + timing model."""
    best = float("inf")
    for _ in range(repeat):
        program = workload.program()
        start = time.perf_counter()
        run_on_core(program, "xt910")
        best = min(best, time.perf_counter() - start)
    return best


def bench_workload(name: str, repeat: int = 3) -> dict:
    """Before/after numbers for one kernel."""
    workload = get_workload(name)
    insts, precise_s = _time_emulator(workload, fast=False, repeat=repeat)
    _, fast_s = _time_emulator(workload, fast=True, repeat=repeat)
    harness_s = _time_harness(workload, repeat=repeat)
    return {
        "insts": insts,
        "precise_s": round(precise_s, 6),
        "fast_s": round(fast_s, 6),
        "precise_mips": round(insts / precise_s / 1e6, 4),
        "fast_mips": round(insts / fast_s / 1e6, 4),
        "speedup": round(precise_s / fast_s, 3),
        "harness_s": round(harness_s, 6),
    }


def run_bench(quick: bool = False, repeat: int = 3) -> dict:
    """Benchmark every kernel; returns the BENCH_emulator.json payload."""
    workloads = _workloads(quick)
    results = {w.name: bench_workload(w.name, repeat=repeat)
               for w in workloads}
    coremark = [r for name, r in results.items()
                if name.startswith("coremark")]
    payload = {
        "schema": SCHEMA,
        "bench": "emulator",
        "quick": quick,
        "repeat": repeat,
        "workloads": results,
        "summary": {
            "geomean_speedup": round(
                geomean([r["speedup"] for r in results.values()]), 3),
            "coremark_precise_mips": round(
                geomean([r["precise_mips"] for r in coremark]), 4),
            "coremark_fast_mips": round(
                geomean([r["fast_mips"] for r in coremark]), 4),
            "coremark_speedup": round(
                geomean([r["speedup"] for r in coremark]), 3),
            "harness_wall_s": round(
                sum(r["harness_s"] for r in results.values()), 3),
        },
    }
    return payload


def check_regression(payload: dict, baseline: dict,
                     tolerance: float = DEFAULT_TOLERANCE) -> list[str]:
    """Compare a fresh bench run against the committed baseline.

    Returns human-readable failure strings (empty = no regression).
    The gate is fast-mode emulator throughput: absolute MIPS shifting
    with the host is expected, a >``tolerance`` drop is not.
    """
    failures = []
    base_summary = baseline.get("summary", {})
    for key in ("coremark_fast_mips",):
        base = base_summary.get(key)
        if not base:
            continue
        current = payload["summary"][key]
        floor = base * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"{key} regressed: {current} < {floor:.4f} "
                f"(baseline {base}, tolerance {tolerance:.0%})")
    base_speedup = base_summary.get("coremark_speedup")
    if base_speedup:
        current = payload["summary"]["coremark_speedup"]
        floor = base_speedup * (1.0 - tolerance)
        if current < floor:
            failures.append(
                f"coremark_speedup regressed: {current} < {floor:.3f} "
                f"(baseline {base_speedup}, tolerance {tolerance:.0%})")
    return failures


def render(payload: dict) -> str:
    """Terminal table for the bench payload."""
    lines = [f"{'workload':18s}{'insts':>9}{'precise':>10}{'fast':>10}"
             f"{'speedup':>9}{'harness':>10}",
             f"{'':18s}{'':>9}{'MIPS':>10}{'MIPS':>10}"
             f"{'':>9}{'s':>10}"]
    for name, r in payload["workloads"].items():
        lines.append(
            f"{name:18s}{r['insts']:>9}{r['precise_mips']:>10.2f}"
            f"{r['fast_mips']:>10.2f}{r['speedup']:>8.2f}x"
            f"{r['harness_s']:>10.3f}")
    s = payload["summary"]
    lines.append(
        f"{'geomean':18s}{'':>9}{s['coremark_precise_mips']:>10.2f}"
        f"{s['coremark_fast_mips']:>10.2f}{s['coremark_speedup']:>8.2f}x"
        f"{s['harness_wall_s']:>10.3f}")
    lines.append("(precise/fast MIPS over the coremark kernels; harness "
                 "column is emulator + xt910 timing model wall-clock)")
    return "\n".join(lines)


def save(payload: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path: str) -> dict:
    with open(path) as handle:
        return json.load(handle)


__all__ = ["run_bench", "bench_workload", "check_regression", "render",
           "save", "load", "DEFAULT_TOLERANCE", "SCHEMA"]
