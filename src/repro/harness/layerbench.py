"""Layer speeds, one table (``python -m repro bench`` and its ``--tier
3``, ``--pipeline`` and ``--vector`` variants).

Each bench here is one row of :data:`ROWS`: a layer of the simulator,
the kernels it is timed on and its *subjects*, each the layer run one
way.  A cell times every subject on one kernel through
:func:`benchkit.best_of`, so each speed is calibrated kinst/s, the unit
every floor is in.  A subject may name an *oracle*, another subject of
the row: its ratio to that oracle is recorded beside the speeds as
information, and floored only where the oracle is frozen code
(``refmodel.py``), since a live oracle that gets faster would otherwise
fail the gate (as tier 1 once did).

The rows:

* ``emulator`` — functional emulation on tiers 1, 2 and 3 (cold and
  warm) over CoreMark, plus EEMBC and NBench in the full run;
* ``tier3`` — tier 2 and tier 3 (cold and warm) over CoreMark and
  ``dhrystone-like``, plus five more kernels in the full run;
* ``pipeline`` — the harness path (tier-2 emulation + the xt910 timing
  model) with the frozen ``ReferencePipelineModel`` and the production
  ``PipelineModel``, interleaved, every pair's ``CoreStats`` checked
  identical before anything is published;
* ``vector`` — the RVV suite on each tier with the per-element
  reference engine and the numpy engine, every numpy run's
  ``fingerprint()`` checked against the reference engine's.

A tier-3 cell runs cold against an empty code cache (one run: it fills
the cache) and then warm from it; a warm run that compiles anything is
an exact failure, as is a numpy engine below ``MIN_GEOMEAN_SPEEDUP``
times the reference engine.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable

from ..mem.hierarchy import MemoryHierarchy
from ..sim import exec_vector
from ..sim.emulator import Emulator
from ..uarch.core import PipelineModel
from ..uarch.presets import get_preset
from ..uarch.refmodel import ReferencePipelineModel
from ..workloads import (
    coremark_suite,
    eembc_suite,
    get_workload,
    nbench_suite,
    vector_suite,
)
from . import benchkit
from .report import geomean

#: A cell: (workload, repeat) -> (instructions, calibrated seconds per
#: subject, further per-kernel numbers).
Cell = Callable[[Any, int], tuple[int, dict[str, float], dict[str, Any]]]

#: The numpy engine's absolute bar over the reference engine: geomean
#: over the vector kernels and the three tiers, at VLEN 128.
MIN_GEOMEAN_SPEEDUP = 3.0


@dataclass(frozen=True)
class Row:
    """One bench: a layer, its kernels and its subjects."""

    name: str                                   # the payload's "bench"
    layer: str                                  # the render's title
    kernels: Callable[[bool], list]             # quick -> workloads
    summarised: Callable[[str], bool]           # kernels in the geomeans
    subjects: dict[str, str | None]             # subject -> its oracle
    cell: Cell
    totals: tuple[str, ...] = ()                # per-kernel keys summed
    floor_ratios: bool = False                  # the oracle is frozen
    invariants: Callable[[dict], list[str]] = lambda payload: []


# -- the kernels -------------------------------------------------------------

def _suites(quick: bool) -> list:
    suites = [coremark_suite()]
    if not quick:
        suites += [eembc_suite(), nbench_suite()]
    return [w for suite in suites for w in suite]


def _tier3_kernels(quick: bool) -> list:
    names = [w.name for w in coremark_suite()] + ["dhrystone-like"]
    if not quick:
        names += ["specint-like", "nbench-numsort", "nbench-idea",
                  "eembc-aifirf", "eembc-idctrn"]
    return [get_workload(name) for name in names]


#: The quick vector set; its vector kernels are the summary in both
#: profiles, so a quick run gates against a full baseline like for like.
_VECTOR_QUICK = {"vec-mac16", "scalar-mac16", "vec-axpy-f32",
                 "vec-stencil32", "vec-gather", "vec-memcpy"}
#: run, but kept out of the summary and the engine bar: it guards the
#: scalar path against the numpy engine
_SCALAR_KERNEL = "scalar-mac16"


def _vector_kernels(quick: bool) -> list:
    return [w for w in vector_suite() if not quick or w.name in _VECTOR_QUICK]


def _coremark(name: str) -> bool:
    return name.startswith("coremark")


# -- the cells ---------------------------------------------------------------

def _emulate(repeat: int, workload: Any, cache: str | None = None,
             **run_options: Any) -> tuple[float, Emulator]:
    """Best-of-*repeat* calibrated seconds of ``Emulator.run`` on
    *workload*, and the last emulator.  Each round builds a fresh
    emulator off the clock: tiers 2 and 3 bind vector handlers and
    cached code at translate time, so a reused one times something else.
    """
    def once(timed: Callable[..., Any]) -> Emulator:
        emulator = Emulator(workload.program(), code_cache_dir=cache)
        timed(emulator.run, **run_options)
        return emulator

    (seconds,), emulator = benchkit.best_of(repeat, once)
    return seconds, emulator


_TIERS = {"tier1": 1, "tier2": 2, "tier3-cold": 3, "tier3": 3}


def _emulation(subjects: tuple[str, ...], workload: Any,
               repeat: int) -> tuple[int, dict[str, float], dict[str, Any]]:
    """Each subject in order on an empty code cache of its own kernel:
    ``tier3-cold`` is one run, which fills it for ``tier3``."""
    seconds, counters = {}, {}
    with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache:
        for subject in subjects:
            seconds[subject], emulator = _emulate(
                1 if subject == "tier3-cold" else repeat, workload, cache,
                tier=_TIERS[subject])
            counters[subject] = emulator.counters()
    insts = emulator.state.instret
    cold, warm = counters["tier3-cold"], counters["tier3"]
    dispatches = warm["codegen_executions"] + warm["block_executions"]
    return insts, seconds, {
        "compiled_cold": cold["codegen_blocks_compiled"],
        "compile_s_cold": round(cold["codegen_compile_s"], 6),
        "compiled_warm": warm["codegen_blocks_compiled"],
        "insts_per_dispatch": round(insts / dispatches, 2),
    }


def _harness(model_cls: type, program: Any) -> Callable[[], Any]:
    """One harness run (tier-2 emulator + *model_cls*), ready to time."""
    config = get_preset("xt910")
    model = model_cls(config, MemoryHierarchy(config.mem))
    emulator = Emulator(program)
    return lambda: model.run(emulator.trace(None, tier=2))


def _pipeline(workload: Any,
              repeat: int) -> tuple[int, dict[str, float], dict[str, Any]]:
    program = workload.program()

    def once(timed: Callable[..., Any]) -> Any:
        ref = timed(_harness(ReferencePipelineModel, program))
        fast = timed(_harness(PipelineModel, program))
        if fast.as_comparable() != ref.as_comparable():
            raise RuntimeError(
                f"{workload.name}: the timing model diverged from the "
                f"reference oracle; refusing to publish bench numbers")
        return fast

    (ref_s, fast_s), stats = benchkit.best_of(repeat, once)
    return stats.instructions, {"ref": ref_s, "timing": fast_s}, {}


_ENGINE_TIERS = (1, 2, 3)


def _vector(workload: Any,
            repeat: int) -> tuple[int, dict[str, float], dict[str, Any]]:
    """Both engines on each tier, on a code cache of the kernel's own (the
    engine is part of its key, and tier 3 is warm from the second round
    on); the process leaves on the engine it entered with (it may run
    under ``REPRO_VECTOR_ENGINE=ref``)."""
    seconds = {}
    entered = exec_vector.active_engine()
    try:
        with tempfile.TemporaryDirectory(prefix="repro-bench-") as cache:
            for tier in _ENGINE_TIERS:
                runs = {}
                for engine in ("ref", "numpy"):
                    exec_vector.select_engine(engine)
                    seconds[f"{engine}-t{tier}"], runs[engine] = _emulate(
                        repeat, workload, cache, tier=tier)
                if runs["numpy"].fingerprint() != runs["ref"].fingerprint():
                    raise AssertionError(
                        f"{workload.name} tier {tier}: numpy engine "
                        f"diverged from the reference engine")
    finally:
        exec_vector.select_engine(entered)
    state = runs["numpy"].state
    vec = state.vec_counters
    return state.instret, seconds, {
        "batched_ops": vec["batched_ops"],
        "specialized_ops": vec["specialized_ops"],
        "fallback_ops": vec["fallback_ops"],
        "mask_density": round(vec["elems_active"] / vec["elems_total"], 4)
        if vec["elems_total"] else 1.0,
    }


# -- the exact checks --------------------------------------------------------

def _warm_start(payload: dict) -> list[str]:
    """Zero superblocks compiled on a populated disk cache: any
    recompilation is a bug, not noise."""
    compiled = payload["summary"]["compiled_warm"]
    if compiled:
        return [f"warm-start violated: {compiled} superblocks recompiled "
                f"with a populated disk cache (expected 0)"]
    return []


def _engine_bar(payload: dict) -> list[str]:
    """The numpy engine's geomean over every vector kernel and tier."""
    current = round(geomean([
        result["vs_oracle"][f"numpy-t{tier}"]
        for name, result in payload["workloads"].items()
        if name != _SCALAR_KERNEL for tier in _ENGINE_TIERS]), 3)
    if current < MIN_GEOMEAN_SPEEDUP:
        return [f"geomean numpy/ref speedup {current} below the absolute "
                f"floor {MIN_GEOMEAN_SPEEDUP}"]
    return []


# -- the table ---------------------------------------------------------------

_EMULATION = {"tier1": None, "tier2": "tier1", "tier3-cold": "tier1",
              "tier3": "tier1"}
_TIER3 = {"tier2": None, "tier3-cold": "tier2", "tier3": "tier2"}
_TIER3_TOTALS = ("compiled_cold", "compile_s_cold", "compiled_warm")

ROWS = {row.name: row for row in (
    Row("emulator", "functional emulation, tiers 1-3", _suites, _coremark,
        _EMULATION, partial(_emulation, tuple(_EMULATION)),
        _TIER3_TOTALS, invariants=_warm_start),
    Row("pipeline", "harness: tier-2 emulation + xt910 timing model",
        _suites, _coremark, {"ref": None, "timing": "ref"}, _pipeline,
        floor_ratios=True),
    Row("tier3", "tier-3 translation, cold and warm", _tier3_kernels,
        _coremark, _TIER3, partial(_emulation, tuple(_TIER3)),
        _TIER3_TOTALS, invariants=_warm_start),
    Row("vector", "RVV suite, reference vs numpy engine per tier",
        _vector_kernels, (_VECTOR_QUICK - {_SCALAR_KERNEL}).__contains__,
        {f"{engine}-t{tier}": None if engine == "ref" else f"ref-t{tier}"
         for tier in _ENGINE_TIERS for engine in ("ref", "numpy")},
        _vector, ("fallback_ops",), invariants=_engine_bar),
)}


def _ratios(row: Row, kips: dict[str, float]) -> dict[str, float]:
    return {subject: round(kips[subject] / kips[oracle], 3)
            for subject, oracle in row.subjects.items() if oracle}


def run(row: Row, quick: bool = False, repeat: int = 3) -> dict:
    """Time every kernel of *row*; returns its payload body."""
    results = {}
    for workload in row.kernels(quick):
        insts, seconds, extra = row.cell(workload, repeat)
        kips = {subject: round(insts / seconds[subject] / 1e3, 2)
                for subject in row.subjects}
        results[workload.name] = {"insts": insts, "kips": kips,
                                  "vs_oracle": _ratios(row, kips), **extra}
    chosen = [r for name, r in results.items() if row.summarised(name)]
    kips = {subject: round(geomean([r["kips"][subject] for r in chosen]), 2)
            for subject in row.subjects}
    summary = {"kips": kips, "vs_oracle": _ratios(row, kips)}
    summary.update({key: round(sum(r[key] for r in results.values()), 6)
                    for key in row.totals})
    return {"repeat": repeat, "workloads": results, "summary": summary}


def render(row: Row, payload: dict) -> str:
    """Terminal table: calibrated kinst/s per kernel and subject."""
    width = max(10, *(len(subject) + 2 for subject in row.subjects))
    lines = [f"{row.name}: {row.layer}",
             f"{'workload':18s}{'insts':>9}"
             + "".join(f"{subject:>{width}}" for subject in row.subjects)]
    for name, result in payload["workloads"].items():
        lines.append(f"{name:18s}{result['insts']:>9}" + "".join(
            f"{result['kips'][subject]:>{width}.1f}"
            for subject in row.subjects))
    summary = payload["summary"]
    lines.append(f"{'geomean':18s}{'':>9}" + "".join(
        f"{summary['kips'][subject]:>{width}.1f}"
        for subject in row.subjects))
    notes = [f"{subject} {ratio:.2f}x {row.subjects[subject]}"
             for subject, ratio in summary["vs_oracle"].items()]
    notes += [f"{key} {summary[key]}" for key in row.totals]
    calibration = payload.get("calibration", {})
    lines += [
        f"(geomean over the summarised kernels; {', '.join(notes)})",
        f"(calibrated kinst/s: on a host where the calibration kernel "
        f"takes {benchkit.CAL_NOMINAL_MS} ms; it took "
        f"{calibration.get('min_ms', '?')} ms here)"]
    return "\n".join(lines)


def _bench(row: Row) -> benchkit.Bench:
    floors = tuple(f"summary.kips.{subject}" for subject in row.subjects)
    if row.floor_ratios:
        floors += tuple(f"summary.vs_oracle.{subject}"
                        for subject, oracle in row.subjects.items()
                        if oracle)
    return benchkit.Bench(
        name=row.name, run=partial(run, row), render=partial(render, row),
        floors=floors, tolerance=0.30,
        invariants=lambda payload, baseline: row.invariants(payload))


EMULATOR, PIPELINE, TIER3, VECTOR = map(_bench, ROWS.values())

__all__ = ["EMULATOR", "MIN_GEOMEAN_SPEEDUP", "PIPELINE", "ROWS", "Row",
           "TIER3", "VECTOR", "render", "run"]
