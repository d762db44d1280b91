"""Multi-core timing: per-core pipelines over one shared L2 (section VI).

Methodology: the functional SMP machine runs all harts round-robin
(real atomics, shared memory) through its one loop,
:meth:`~repro.smp.runner.SmpMachine.quanta`, ``INTERLEAVE`` steps per
hart per turn.  Every ``QUANTUM // INTERLEAVE`` turns the loop hands
over each hart's new records — one 64-record quantum per live hart —
and each quantum goes straight to that hart's pipeline model, in hart
order (``PipelineModel.run_quantum``: the same batched loop that times
a single core), and is then dropped.  The functional run never reads
timing state, so this streamed schedule times exactly the quanta, in
exactly the order, that slicing every finished trace into 64-record
pieces and taking them round-robin would.  The cores share the L2
cache and the DRAM bandwidth model, and writes invalidate other cores'
L1 copies (write-invalidate coherence), so capacity contention,
bandwidth contention and sharing misses are all represented.  The
makespan is the slowest core's cycle count.

Each store that reaches the hierarchy snoops the siblings once,
whichever path it takes through the timing loop: one the loop completes
inline as an L1D hit calls the hierarchy's ``snoop_store_hit`` hook,
and any other reaches ``access_data``, which calls the same method.
The snoop is an exact snoop filter: it probes only the siblings whose
L1D holds the line, where a broadcast would probe every sibling on
every store (:class:`SmpTimingResult` reports both counts).

Approximation: the per-core cycle clocks are not lock-stepped, so
fine-grained timing interleavings (e.g. lock convoy dynamics) are
outside the model — standard for trace-driven multi-core simulation.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..asm.program import Program
from ..mem.cache import Cache
from ..mem.dram import Dram
from ..mem.hierarchy import MemHierConfig, MemoryHierarchy
from ..uarch.config import CoreConfig
from ..uarch.core import PipelineModel
from ..uarch.presets import xt910
from ..uarch.stats import CoreStats
from .runner import SmpMachine

#: Cycles a store stalls when its snoop invalidated a sibling's copy.
SNOOP_LATENCY = 8
#: Functional steps each hart takes per round-robin turn.
INTERLEAVE = 4
#: Records each pipeline times per call; a multiple of ``INTERLEAVE``.
QUANTUM = 64


@dataclass
class SmpTimingStats:
    sharing_invalidations: int = 0
    snoop_stall_cycles: int = 0

    def counters(self) -> dict[str, int]:
        """Flat counter dict (the repro.obs metrics surface)."""
        return dict(vars(self))


class _CoherentHierarchy(MemoryHierarchy):
    """A per-core hierarchy whose writes invalidate sibling L1 copies."""

    def __init__(self, config: MemHierConfig, l2: Cache, dram: Dram,
                 shared_stats: SmpTimingStats):
        super().__init__(config, l2=l2, dram=dram)
        self._sibling_l1ds: list[Cache] = []
        self._shared = shared_stats

    def set_siblings(self, siblings: list["_CoherentHierarchy"]) -> None:
        self._sibling_l1ds = [s.l1d for s in siblings if s is not self]

    def access_data(self, vaddr: int, cycle: int, is_write: bool = False,
                    size: int = 8) -> int:
        latency = super().access_data(vaddr, cycle, is_write, size)
        if is_write:
            latency += self.snoop_store_hit(vaddr)
        return latency

    def snoop_store_hit(self, vaddr: int) -> int:
        """Invalidate every sibling L1D copy of *vaddr*'s line; returns
        the snoop latency, 0 when no sibling held the line.

        The timing loop calls this for each store or AMO it completes
        inline as an L1D hit, and :meth:`access_data` for every other
        store that reaches the hierarchy, so each of those snoops
        exactly once whichever path it takes."""
        laddr = vaddr >> self._line_shift
        index = laddr % self.l1d.num_sets
        invalidated = 0
        for l1d in self._sibling_l1ds:
            if laddr in l1d._sets[index]:
                l1d.invalidate(vaddr)
                invalidated += 1
        if not invalidated:
            return 0
        shared = self._shared
        shared.sharing_invalidations += invalidated
        shared.snoop_stall_cycles += SNOOP_LATENCY
        return SNOOP_LATENCY


@dataclass
class SmpTimingResult:
    per_core: list[CoreStats]
    coherence: SmpTimingStats
    exit_codes: list[int]
    stores: int     # that reached the harts' hierarchies; each snooped once

    @property
    def filtered_probes(self) -> int:
        """Snoop probes sent to the siblings that held the line."""
        return self.coherence.sharing_invalidations

    @property
    def broadcast_probes(self) -> int:
        """Snoop probes a cluster without a filter would send: every
        store probes every sibling."""
        return (len(self.per_core) - 1) * self.stores

    @property
    def makespan(self) -> int:
        return max(stats.cycles for stats in self.per_core)

    @property
    def total_instructions(self) -> int:
        return sum(stats.instructions for stats in self.per_core)

    def metrics(self) -> "MetricsRegistry":  # noqa: F821
        """Coherence + per-core counters as one metrics registry."""
        from ..obs.metrics import collect_core_stats, collect_smp

        registry = collect_smp(self.coherence)
        registry.set("smp.makespan_cycles", self.makespan)
        registry.set("smp.total_instructions", self.total_instructions)
        for index, stats in enumerate(self.per_core):
            collect_core_stats(stats, registry, prefix=f"smp.core{index}")
        return registry


def run_smp_timing(program: Program, cores: int = 4,
                   config: CoreConfig | None = None,
                   max_steps_per_hart: int = 5_000_000) -> SmpTimingResult:
    """Execute on *cores* harts, timing each hart's records in
    ``QUANTUM``-record slices as the round-robin retires them."""
    config = config if config is not None else xt910()

    # 1. Shared memory-system substrate.
    shared_stats = SmpTimingStats()
    mem = config.mem
    l2 = Cache("L2-shared", mem.l2_size, mem.l2_assoc, mem.line_size)
    dram = Dram(mem.dram)
    hierarchies = [
        _CoherentHierarchy(mem, l2=l2, dram=dram, shared_stats=shared_stats)
        for _ in range(cores)]
    for hierarchy in hierarchies:
        hierarchy.set_siblings(hierarchies)
    pipelines = [PipelineModel(config, hierarchy=hierarchy)
                 for hierarchy in hierarchies]

    # 2. Functional SMP run, timed one quantum per hart at a time so the
    # per-core cycle clocks stay roughly aligned (shared DRAM/L2 state
    # is meaningful only between cores at comparable times).  A live
    # hart retires exactly QUANTUM records in QUANTUM // INTERLEAVE
    # turns; one that exits hands over what it retired before exiting.
    machine = SmpMachine(program, cores=cores, interleave=INTERLEAVE,
                         vlen=config.vlen)
    for batches in machine.quanta(QUANTUM // INTERLEAVE,
                                  max_steps_per_hart):
        for pipeline, batch in zip(pipelines, batches):
            if batch:
                pipeline.run_quantum(batch)
    per_core = [pipeline.finish() for pipeline in pipelines]
    return SmpTimingResult(
        per_core=per_core, coherence=shared_stats,
        exit_codes=[h.exit_code if h.exit_code is not None else -1
                    for h in machine.harts],
        stores=sum(h.stats.stores for h in hierarchies))
