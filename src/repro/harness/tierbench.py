"""Tiered-execution benchmark (``python -m repro bench --tier 3``).

Times the functional emulator across all three execution tiers — the
precise interpreter (tier 1), the block-translation cache (tier 2) and
the specializing translator (tier 3) — on the CoreMark and
dhrystone-like kernels, and writes the numbers to ``BENCH_tier3.json``.
Tier 3 is timed twice per kernel: **cold**, against an empty on-disk
code cache (so the run pays Python codegen + ``compile()``), and
**warm**, re-using the cache the cold run just persisted (translation
time collapses to a disk ``marshal.load`` + link check).

The committed JSON doubles as the CI regression baseline: the bench CI
job re-runs ``bench --tier 3 --quick`` and fails when warm tier-3
CoreMark MIPS or the tier-3/tier-2 speedup drops more than the
tolerance (default 30%) below the checked-in numbers.  Each kernel also
records ``insts_per_dispatch``: instructions retired per unit the warm
tier-3 dispatch loop ran (superblocks, plus the tier-2 block runs that
earn them).  ``tests/sim/test_codegen.py`` asserts the warm-start
invariant directly: a second invocation compiles zero superblocks.
"""

from __future__ import annotations

import shutil
import tempfile

from ..workloads import coremark_suite, get_workload
from . import benchkit
from .report import geomean


def _workloads(quick: bool):
    names = [w.name for w in coremark_suite()] + ["dhrystone-like"]
    if not quick:
        names += ["specint-like", "nbench-numsort", "nbench-idea",
                  "eembc-aifirf", "eembc-idctrn"]
    return [get_workload(name) for name in names]


def bench_workload(workload, repeat: int, cache_dir: str) -> dict:
    """Tier-2 vs tier-3 (cold and warm) numbers for one kernel.

    ``cache_dir`` must start empty for the workload: the first tier-3
    run is the cold measurement (repeat=1 by definition — it populates
    the cache), the following runs are the warm best-of-*repeat*.
    """
    tier2_s, emulator = benchkit.best_emulation(repeat, workload, tier=2)
    insts = emulator.state.instret
    cold_s, emulator = benchkit.best_emulation(1, workload, cache_dir,
                                               tier=3)
    cold = emulator.counters()
    warm_s, emulator = benchkit.best_emulation(repeat, workload, cache_dir,
                                               tier=3)
    warm = emulator.counters()
    return {
        "insts": insts,
        "tier2_s": round(tier2_s, 6),
        "tier3_cold_s": round(cold_s, 6),
        "tier3_warm_s": round(warm_s, 6),
        "tier2_mips": round(insts / tier2_s / 1e6, 4),
        "tier3_mips": round(insts / warm_s / 1e6, 4),
        "speedup_vs_tier2": round(tier2_s / warm_s, 3),
        "blocks_compiled_cold": cold.get("codegen_blocks_compiled", 0),
        "compile_s_cold": cold.get("codegen_compile_s", 0.0),
        "blocks_compiled_warm": warm.get("codegen_blocks_compiled", 0),
        "compile_s_warm": warm.get("codegen_compile_s", 0.0),
        "disk_hits_warm": warm.get("codegen_disk_hits", 0),
        "insts_per_dispatch": round(insts / (warm["codegen_executions"]
                                             + warm["block_executions"]), 2),
    }


def run(quick: bool = False, repeat: int = 3) -> dict:
    """Benchmark every kernel; returns the BENCH_tier3.json body."""
    cache_dir = tempfile.mkdtemp(prefix="repro-tierbench-")
    try:
        results = {w.name: bench_workload(w, repeat=repeat,
                                          cache_dir=cache_dir)
                   for w in _workloads(quick)}
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    coremark = [r for name, r in results.items()
                if name.startswith("coremark")]
    all_r = list(results.values())
    return {
        "repeat": repeat,
        "workloads": results,
        "summary": {
            "geomean_speedup_vs_tier2": round(
                geomean([r["speedup_vs_tier2"] for r in all_r]), 3),
            "coremark_tier2_mips": round(
                geomean([r["tier2_mips"] for r in coremark]), 4),
            "coremark_tier3_mips": round(
                geomean([r["tier3_mips"] for r in coremark]), 4),
            "coremark_speedup_vs_tier2": round(
                geomean([r["speedup_vs_tier2"] for r in coremark]), 3),
            "cold_compile_s": round(
                sum(r["compile_s_cold"] for r in all_r), 6),
            "warm_compile_s": round(
                sum(r["compile_s_warm"] for r in all_r), 6),
            "warm_blocks_compiled": sum(
                r["blocks_compiled_warm"] for r in all_r),
        },
    }


def invariants(payload: dict, baseline: dict) -> list[str]:
    """The warm-start invariant (zero blocks compiled on a warm cache)
    is absolute: any recompilation is a bug, not noise."""
    warm_compiled = payload["summary"].get("warm_blocks_compiled", 0)
    if warm_compiled:
        return [f"warm-start violated: {warm_compiled} superblocks "
                f"recompiled with a populated disk cache (expected 0)"]
    return []


def render(payload: dict) -> str:
    """Terminal table for the tier bench payload."""
    lines = [f"{'workload':18s}{'insts':>9}{'tier2':>9}{'t3 cold':>9}"
             f"{'t3 warm':>9}{'speedup':>9}{'units':>8}{'insts':>8}",
             f"{'':18s}{'':>9}{'MIPS':>9}{'MIPS':>9}{'MIPS':>9}"
             f"{'vs t2':>9}{'':>8}{'/disp':>8}"]
    for name, r in payload["workloads"].items():
        cold_mips = r["insts"] / r["tier3_cold_s"] / 1e6
        lines.append(
            f"{name:18s}{r['insts']:>9}{r['tier2_mips']:>9.2f}"
            f"{cold_mips:>9.2f}{r['tier3_mips']:>9.2f}"
            f"{r['speedup_vs_tier2']:>8.2f}x"
            f"{r['blocks_compiled_cold']:>8}"
            f"{r['insts_per_dispatch']:>8.1f}")
    s = payload["summary"]
    lines.append(
        f"{'geomean':18s}{'':>9}{s['coremark_tier2_mips']:>9.2f}"
        f"{'':>9}{s['coremark_tier3_mips']:>9.2f}"
        f"{s['coremark_speedup_vs_tier2']:>8.2f}x{'':>8}")
    lines.append(
        f"(coremark geomeans; all-kernel geomean speedup "
        f"{s['geomean_speedup_vs_tier2']:.2f}x; cold translation "
        f"{s['cold_compile_s']:.3f}s, warm {s['warm_compile_s']:.3f}s, "
        f"{s['warm_blocks_compiled']} superblocks recompiled warm)")
    return "\n".join(lines)


BENCH = benchkit.Bench(
    name="tier3", run=run, render=render,
    floors=("summary.coremark_tier3_mips",
            "summary.coremark_speedup_vs_tier2"),
    tolerance=0.30, invariants=invariants)

__all__ = ["BENCH", "bench_workload", "invariants", "render", "run"]
