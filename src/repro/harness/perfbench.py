"""Emulator / harness performance benchmark (``python -m repro bench``).

Times the functional emulator in both execution modes — the precise
per-step interpreter ("before") and the block-translation fast path
("after") — on the CoreMark/EEMBC/NBench kernels, plus the end-to-end
harness path (emulator + 12-stage timing model) per kernel, and writes
the numbers to ``BENCH_emulator.json`` so the repo's perf trajectory is
measured rather than asserted.

The committed JSON doubles as the CI regression baseline: the bench CI
job re-runs ``bench --quick`` and fails when fast-mode emulator MIPS
or the fast/precise speedup drops more than the tolerance (default
30%) below the checked-in numbers.  MIPS is computed from the best of
``repeat`` runs to shave scheduler noise.  Timing, file format and the
gate itself are :mod:`repro.harness.benchkit`'s.
"""

from __future__ import annotations

from ..workloads import (
    coremark_suite,
    eembc_suite,
    get_workload,
    nbench_suite,
)
from . import benchkit
from .report import geomean
from .runner import run_on_core


def workloads(quick: bool):
    """The kernel set, shared with the pipeline bench."""
    suites = [coremark_suite()]
    if not quick:
        suites += [eembc_suite(), nbench_suite()]
    return [w for suite in suites for w in suite]


def _time_harness(workload, repeat: int) -> float:
    """Best-of-*repeat* wall-clock of emulator + timing model."""
    def once(timed):
        program = workload.program()
        timed(run_on_core, program, "xt910")

    (best,), _ = benchkit.best_of(repeat, once)
    return best


def bench_workload(name: str, repeat: int = 3) -> dict:
    """Before/after numbers for one kernel."""
    workload = get_workload(name)
    precise_s, emulator = benchkit.best_emulation(repeat, workload, tier=1)
    fast_s, _ = benchkit.best_emulation(repeat, workload, tier=2)
    insts = emulator.state.instret
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


def summarize(results: dict, slow: str) -> dict:
    """What this bench and the pipeline bench both publish: the fast
    side's speedup over *slow* on every kernel, and both sides' MIPS
    and the speedup over the CoreMark kernels (the floored keys)."""
    coremark = [r for name, r in results.items()
                if name.startswith("coremark")]
    return {
        "geomean_speedup": round(
            geomean([r["speedup"] for r in results.values()]), 3),
        f"coremark_{slow}_mips": round(
            geomean([r[f"{slow}_mips"] for r in coremark]), 4),
        "coremark_fast_mips": round(
            geomean([r["fast_mips"] for r in coremark]), 4),
        "coremark_speedup": round(
            geomean([r["speedup"] for r in coremark]), 3),
    }


def run(quick: bool = False, repeat: int = 3) -> dict:
    """Benchmark every kernel; returns the BENCH_emulator.json body."""
    results = {w.name: bench_workload(w.name, repeat=repeat)
               for w in workloads(quick)}
    summary = summarize(results, "precise")
    summary["harness_wall_s"] = round(
        sum(r["harness_s"] for r in results.values()), 3)
    return {"repeat": repeat, "workloads": results, "summary": summary}


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


BENCH = benchkit.Bench(
    name="emulator", run=run, render=render,
    floors=("summary.coremark_fast_mips", "summary.coremark_speedup"),
    tolerance=0.30)

__all__ = ["BENCH", "bench_workload", "render", "run", "summarize",
           "workloads"]
