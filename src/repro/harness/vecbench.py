"""Vector-engine benchmark (``python -m repro bench --vector``).

Times the RVV kernel suite under the per-element reference vector
engine and under the numpy-batched engine (``repro.sim.exec_vector``),
on every execution tier the batched engine plugs into, and writes the
numbers to ``BENCH_vector.json``.  Each batched measurement doubles as
an equivalence check: the run is only accepted if its architectural
state (:meth:`~repro.sim.emulator.Emulator.fingerprint`) is identical to
the reference engine's run of the same kernel.

The committed JSON is the CI regression baseline: the bench CI job
re-runs ``bench --vector --quick`` and fails when the geomean
numpy/reference speedup drops below both the absolute floor
(``MIN_GEOMEAN_SPEEDUP``, the ISSUE acceptance gate) and the
tolerance-scaled committed numbers.  The nightly lane runs the full
(non-quick) variant and separately re-verifies the whole suite with
``REPRO_VECTOR_ENGINE=ref`` forced on.
"""

from __future__ import annotations

from ..sim import exec_vector
from ..workloads import vector_suite
from . import benchkit
from .report import geomean

#: the ISSUE acceptance floor: batched must beat per-element by 3x
#: geomean on the vector suite at VLEN=128.
MIN_GEOMEAN_SPEEDUP = 3.0

#: kernels dominated by scalar work (kept out of the speedup geomean
#: but still run — they guard against the batched engine slowing the
#: scalar path down).
_SCALAR_BASELINES = frozenset({"scalar-mac16"})


def _workloads(quick: bool):
    suite = vector_suite()
    if quick:
        keep = {"vec-mac16", "scalar-mac16", "vec-axpy-f32",
                "vec-stencil32", "vec-gather", "vec-memcpy"}
        suite = [w for w in suite if w.name in keep]
    return suite


def bench_workload(workload, repeat: int, tiers=(1, 2, 3)) -> dict:
    """Reference vs numpy timings (plus identity proof) for one kernel.

    The reference engine is timed once per tier (it is the slow side
    by construction); the numpy engine gets best-of-*repeat*.
    """
    entry: dict = {"tiers": {}}
    entered = exec_vector.active_engine()
    try:
        for tier in tiers:
            exec_vector.select_engine("ref")
            ref_s, ref_emu = benchkit.best_emulation(1, workload, tier=tier)
            ref_fp = ref_emu.fingerprint()
            exec_vector.select_engine("numpy")
            best, np_emu = benchkit.best_emulation(repeat, workload,
                                                   tier=tier)
            np_fp = np_emu.fingerprint()
            if np_fp != ref_fp:
                raise AssertionError(
                    f"{workload.name} tier {tier}: numpy engine diverged "
                    f"from the reference engine")
            insts = np_emu.state.instret
            vec = np_emu.state.vec_counters
            entry["tiers"][str(tier)] = {
                "insts": insts,
                "ref_s": round(ref_s, 6),
                "numpy_s": round(best, 6),
                "speedup": round(ref_s / best, 3),
                "ref_mips": round(insts / ref_s / 1e6, 4),
                "numpy_mips": round(insts / best / 1e6, 4),
            }
            entry["batched_ops"] = vec["batched_ops"]
            entry["specialized_ops"] = vec["specialized_ops"]
            entry["fallback_ops"] = vec["fallback_ops"]
            entry["mask_density"] = round(
                vec["elems_active"] / vec["elems_total"], 4) if (
                    vec["elems_total"]) else 1.0
    finally:
        # leave the process on the engine it entered with (it may have
        # been started under REPRO_VECTOR_ENGINE=ref)
        exec_vector.select_engine(entered)
    entry["insts"] = entry["tiers"][str(tiers[0])]["insts"]
    return entry


def run(quick: bool = False, repeat: int = 3) -> dict:
    """Benchmark the vector suite; returns the BENCH_vector.json body.

    ``quick`` trims the workload list (the CI bench job's variant);
    both variants cover all three tiers so the tier-3 specialization
    path is always exercised.
    """
    tiers = (1, 2, 3)
    results = {w.name: bench_workload(w, repeat=repeat, tiers=tiers)
               for w in _workloads(quick)}
    vector_names = [name for name in results
                    if name not in _SCALAR_BASELINES]
    per_tier = {
        str(tier): round(geomean(
            [results[n]["tiers"][str(tier)]["speedup"]
             for n in vector_names]), 3)
        for tier in tiers}
    all_speedups = [results[n]["tiers"][str(t)]["speedup"]
                    for n in vector_names for t in tiers]
    return {
        "repeat": repeat,
        "vlen": 128,
        "workloads": results,
        "summary": {
            "geomean_speedup": round(geomean(all_speedups), 3),
            "geomean_speedup_per_tier": per_tier,
            "total_fallback_ops": sum(
                r["fallback_ops"] for r in results.values()),
        },
    }


def invariants(payload: dict, baseline: dict) -> list[str]:
    """The absolute ``MIN_GEOMEAN_SPEEDUP`` floor from the ISSUE
    acceptance criteria holds whatever the baseline and tolerance."""
    current = payload["summary"]["geomean_speedup"]
    if current < MIN_GEOMEAN_SPEEDUP:
        return [f"geomean numpy/ref speedup {current} below the absolute "
                f"floor {MIN_GEOMEAN_SPEEDUP}"]
    return []


def render(payload: dict) -> str:
    """Terminal table for the vector bench payload."""
    tiers = sorted(next(iter(payload["workloads"].values()))["tiers"])
    header = f"{'workload':16s}{'insts':>9}"
    for tier in tiers:
        header += f"{'t' + tier + ' ref':>9}{'t' + tier + ' np':>9}"
    header += f"{'speedup':>9}{'fallback':>9}"
    lines = [header]
    for name, r in payload["workloads"].items():
        line = f"{name:16s}{r['insts']:>9}"
        for tier in tiers:
            t = r["tiers"][tier]
            line += f"{t['ref_mips']:>9.2f}{t['numpy_mips']:>9.2f}"
        best = max(r["tiers"][t]["speedup"] for t in tiers)
        line += f"{best:>8.2f}x{r['fallback_ops']:>9}"
        lines.append(line)
    s = payload["summary"]
    per_tier = ", ".join(
        f"tier{t}: {v:.2f}x"
        for t, v in sorted(s["geomean_speedup_per_tier"].items()))
    lines.append(
        f"(geomean numpy/ref speedup {s['geomean_speedup']:.2f}x — "
        f"{per_tier}; {s['total_fallback_ops']} per-element fallbacks; "
        f"MIPS columns are ref vs numpy per tier)")
    return "\n".join(lines)


BENCH = benchkit.Bench(
    name="vector", run=run, render=render,
    floors=("summary.geomean_speedup",),
    tolerance=0.30, invariants=invariants)

__all__ = ["BENCH", "MIN_GEOMEAN_SPEEDUP", "bench_workload", "invariants",
           "render", "run"]
