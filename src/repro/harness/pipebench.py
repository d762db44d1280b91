"""Pipeline timing-model benchmark (``python -m repro bench --pipeline``).

Times the 12-stage timing model in both implementations — the frozen
pre-fast-path oracle (:class:`repro.uarch.refmodel.ReferencePipelineModel`,
"ref") and the optimised production model
(:class:`repro.uarch.core.PipelineModel`, "fast") — over the full
harness path (block-translated emulator + timing model) on the CoreMark
kernels, and writes ``BENCH_pipeline.json``.

Methodology: ref and fast are interleaved back-to-back in the same
process and each cell keeps the best of ``repeat`` runs, which shaves
scheduler noise off the ratio; every pair of runs is also checked for
bit-identical :meth:`CoreStats.as_comparable` — a bench run that would
publish a speedup for a model that diverged from the oracle fails
instead.

The committed JSON doubles as the CI regression baseline, exactly like
``BENCH_emulator.json``: the bench CI job re-runs ``bench --pipeline
--quick`` and fails when fast-model harness MIPS or the fast/ref
speedup drops more than the tolerance (default 30%) below the
checked-in numbers.
"""

from __future__ import annotations

from ..mem.hierarchy import MemoryHierarchy
from ..sim.emulator import Emulator
from ..uarch.core import PipelineModel
from ..uarch.presets import get_preset
from ..uarch.refmodel import ReferencePipelineModel
from ..workloads import get_workload
from . import benchkit
from .perfbench import summarize, workloads

CORE = "xt910"


def _harness(model_cls, program):
    """One harness run (emulator + *model_cls*), ready to be timed."""
    config = get_preset(CORE)
    model = model_cls(config, MemoryHierarchy(config.mem))
    emulator = Emulator(program)
    return lambda: model.run(emulator.trace(None, tier=2))


def bench_workload(name: str, repeat: int = 3) -> dict:
    """Interleaved ref/fast numbers for one kernel."""
    program = get_workload(name).program()

    def once(timed):
        ref_stats = timed(_harness(ReferencePipelineModel, program))
        fast_stats = timed(_harness(PipelineModel, program))
        if fast_stats.as_comparable() != ref_stats.as_comparable():
            raise RuntimeError(
                f"{name}: fast model diverged from the reference oracle; "
                f"refusing to publish bench numbers")
        return fast_stats

    (best_ref, best_fast), fast_stats = benchkit.best_of(repeat, once)
    insts = fast_stats.instructions
    return {
        "insts": insts,
        "ref_s": round(best_ref, 6),
        "fast_s": round(best_fast, 6),
        "ref_mips": round(insts / best_ref / 1e6, 4),
        "fast_mips": round(insts / best_fast / 1e6, 4),
        "speedup": round(best_ref / best_fast, 3),
    }


def run(quick: bool = False, repeat: int = 3) -> dict:
    """Benchmark every kernel; returns the BENCH_pipeline.json body."""
    results = {w.name: bench_workload(w.name, repeat=repeat)
               for w in workloads(quick)}
    return {"core": CORE, "repeat": repeat, "workloads": results,
            "summary": summarize(results, "ref")}


def render(payload: dict) -> str:
    """Terminal table for the bench payload."""
    lines = [f"{'workload':18s}{'insts':>9}{'ref':>10}{'fast':>10}"
             f"{'speedup':>9}",
             f"{'':18s}{'':>9}{'MIPS':>10}{'MIPS':>10}{'':>9}"]
    for name, r in payload["workloads"].items():
        lines.append(
            f"{name:18s}{r['insts']:>9}{r['ref_mips']:>10.3f}"
            f"{r['fast_mips']:>10.3f}{r['speedup']:>8.2f}x")
    s = payload["summary"]
    lines.append(
        f"{'geomean':18s}{'':>9}{s['coremark_ref_mips']:>10.3f}"
        f"{s['coremark_fast_mips']:>10.3f}{s['coremark_speedup']:>8.2f}x")
    lines.append("(harness MIPS = emulator + xt910 timing model; ref is "
                 "the frozen pre-fast-path oracle, interleaved best-of-"
                 f"{payload['repeat']})")
    return "\n".join(lines)


BENCH = benchkit.Bench(
    name="pipeline", run=run, render=render,
    floors=("summary.coremark_fast_mips", "summary.coremark_speedup"),
    tolerance=0.30)

__all__ = ["BENCH", "CORE", "bench_workload", "render", "run"]
