"""Glue: run an assembled program through emulator + timing model."""

from __future__ import annotations

from dataclasses import dataclass

from ..asm.program import Program
from ..mem.hierarchy import MemoryHierarchy
from ..sim.emulator import Emulator, WatchdogExpired
from ..uarch.config import CoreConfig
from ..uarch.core import PipelineModel
from ..uarch.presets import get_preset
from ..uarch.stats import CoreStats


@dataclass
class RunResult:
    """Functional + timing outcome of one program on one core."""

    core: str
    stats: CoreStats
    exit_code: int
    stdout: str
    pipeline: PipelineModel
    #: the WatchdogExpired that bounded this run, when the caller asked
    #: for a partial result instead of the exception (None = ran to exit)
    watchdog: WatchdogExpired | None = None

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class GuestExit(RuntimeError):
    """The guest ran to a non-zero exit code; ``result`` is the
    finished run, for callers that report it anyway."""

    def __init__(self, message: str, result: RunResult) -> None:
        super().__init__(message)
        self.result = result


def run_on_core(program: Program, core: CoreConfig | str,
                max_steps: int | None = None,
                hierarchy: MemoryHierarchy | None = None,
                tracer=None, profiler=None,
                max_insts: int | None = None,
                partial_on_watchdog: bool = False,
                tier: int = 2) -> RunResult:
    """Execute *program* functionally and time it on *core*.

    ``tier`` is the emulator tier asked to feed the timing model
    (``Emulator.trace(tier=)``: 1 = precise interpreter, 2 =
    block-translation cache, 3 = specializing translator); every tier
    retires the same stream, so timing results do not change.  The tier
    that ran lands in ``stats.extra["tier"]``, with
    ``stats.extra["tier_reason"]`` when the emulator had to run a lower
    one.

    ``tracer``/``profiler`` are optional ``repro.obs`` hook objects
    (a :class:`~repro.obs.PipelineTracer` / :class:`~repro.obs.
    GuestProfiler`); None keeps the hot loops hook-free.

    ``max_insts`` bounds the run with the emulator's instruction
    watchdog.  When the watchdog fires, ``partial_on_watchdog=True``
    returns the statistics accumulated up to expiry (with the
    exception attached as ``RunResult.watchdog`` and
    ``stats.extra["watchdog_expired"] = 1``) instead of raising —
    bounded jobs still return data.

    A guest that exits non-zero raises :class:`GuestExit`, which
    carries the complete :class:`RunResult`.
    """
    config = get_preset(core) if isinstance(core, str) else core
    emulator = Emulator(program, instruction_limit=max_insts,
                        vlen=config.vlen)
    pipeline = PipelineModel(config, hierarchy=hierarchy)
    pipeline.tracer = tracer
    pipeline.profiler = profiler
    trace = emulator.trace(max_steps, tier=tier)
    watchdog = None
    try:
        stats = pipeline.run(trace)
    except WatchdogExpired as exc:
        if not partial_on_watchdog:
            raise
        watchdog = exc
        stats = pipeline.finish()   # drain in-flight work, fold RAS counters
        stats.extra["watchdog_expired"] = 1
    stats.extra["tier"] = emulator.tier
    if emulator.tier_reason is not None:
        stats.extra["tier_reason"] = emulator.tier_reason
    stats.decode_cache_hits = emulator.decode_cache_hits
    stats.decode_cache_misses = emulator.decode_cache_misses
    if emulator._blocks is not None:
        stats.extra.update(emulator._blocks.counters())
    if emulator._codegen is not None:
        stats.extra.update((f"codegen_{name}", value) for name, value
                           in emulator._codegen.counters().items())
    vec = emulator.state.vec_counters
    if any(vec.values()):  # scalar workloads: extra stays unchanged
        stats.extra.update((f"vector_{name}", value)
                           for name, value in vec.items())
    result = RunResult(core=config.name, stats=stats,
                       exit_code=emulator.exit_code or 0,
                       stdout=emulator.stdout, pipeline=pipeline,
                       watchdog=watchdog)
    if watchdog is None and result.exit_code:
        raise GuestExit(
            f"program exited with {result.exit_code} on {config.name}; "
            f"stdout: {emulator.stdout!r}", result)
    return result


#: Component buckets for :func:`profile_run`, keyed by the ``repro``
#: subpackage that owns the profiled frame.
_PROFILE_BUCKETS = (
    ("emulation", "sim"),       # functional emulator + block cache
    ("timing_model", "uarch"),  # 12-stage pipeline model
    ("memory_hierarchy", "mem"),  # caches / TLBs / prefetch / DRAM model
)


def profile_run(program: Program, core: CoreConfig | str,
                max_steps: int | None = None,
                max_insts: int | None = None,
                partial_on_watchdog: bool = False,
                tier: int = 2) -> tuple[RunResult, dict]:
    """Run like :func:`run_on_core` under ``cProfile`` and attribute
    wall time to emulation vs timing model vs memory hierarchy.

    ``max_insts``, ``partial_on_watchdog`` and ``tier`` are
    :func:`run_on_core`'s: a profiled run is bounded by the same
    watchdog, and profiles the tier that runs (``stats.extra["tier"]``
    and ``["tier_reason"]`` say which, as for :func:`run_on_core`).

    Attribution is by owning subpackage of each profiled frame's file
    (``repro.sim`` / ``repro.uarch`` / ``repro.mem``; everything else is
    ``other``).  Note the caveat: the fast-path monolith inlines the
    L1/TLB hit paths directly into ``repro.uarch.core``, so demand *hits*
    are charged to ``timing_model`` — ``memory_hierarchy`` covers the
    miss paths, prefetch and refill machinery.  Profiling itself adds
    interpreter overhead, so use the ratios, not the absolute seconds.
    """
    import cProfile
    import os
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = run_on_core(program, core, max_steps=max_steps,
                             max_insts=max_insts,
                             partial_on_watchdog=partial_on_watchdog,
                             tier=tier)
    finally:
        profiler.disable()

    sep = os.sep
    breakdown = {name: 0.0 for name, _ in _PROFILE_BUCKETS}
    breakdown["other"] = 0.0
    total = 0.0
    for (filename, _line, _fn), (_cc, _nc, tt, _ct, _callers) \
            in pstats.Stats(profiler).stats.items():
        total += tt
        for name, pkg in _PROFILE_BUCKETS:
            if f"{sep}repro{sep}{pkg}{sep}" in filename:
                breakdown[name] += tt
                break
        else:
            breakdown["other"] += tt
    breakdown["total_s"] = total
    return result, breakdown


def render_profile(breakdown: dict) -> str:
    """Terminal table for a :func:`profile_run` breakdown."""
    total = breakdown["total_s"] or 1.0
    lines = [f"{'component':20s}{'seconds':>10}{'share':>8}"]
    for name in ("emulation", "timing_model", "memory_hierarchy", "other"):
        seconds = breakdown[name]
        lines.append(f"{name:20s}{seconds:>10.3f}{seconds / total:>7.1%}")
    lines.append(f"{'total':20s}{breakdown['total_s']:>10.3f}{'':>8}")
    lines.append("(cProfile self-time by owning subpackage; L1/TLB demand "
                 "hits are inlined into the timing model)")
    return "\n".join(lines)

