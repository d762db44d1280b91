"""SMP timing: the stream path against the staged oracle, and the
store-locality contract that makes the stream path usable there.

``run_smp_timing`` times every hart through the batched hot loop
(``PipelineModel.run_quantum``).  The driver it replaced — one staged
``feed()`` per instruction — lives on here, and only here, as the
reference, built on the frozen ``ReferencePipelineModel`` so it shares
no timing code with what it checks: same functional run, same shared
substrate, same 64-record round-robin, so per-core statistics and
coherence counters must be equal, not close.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.asm import assemble
from repro.asm.program import Program
from repro.mem.cache import Cache
from repro.mem.dram import Dram
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.emulator import Emulator
from repro.smp.runner import SmpMachine
from repro.smp.timing import (SmpTimingStats, _CoherentHierarchy,
                              run_smp_timing)
from repro.uarch.core import PipelineModel
from repro.uarch.presets import xt910
from repro.uarch.refmodel import ReferencePipelineModel
from repro.uarch.stats import CoreStats

from .test_smp_execution import PARALLEL_SUM, SPINLOCK
from .test_timing import SHARED_COUNTER, parallel_work

GUESTS = Path(__file__).resolve().parents[2] / "bench" / "guests"

PROGRAMS = {
    **{path.stem: path.read_text() for path in sorted(GUESTS.glob("*.s"))},
    "parallel_work": parallel_work(500),
    "shared_counter": SHARED_COUNTER,
    "spinlock": SPINLOCK,
    "parallel_sum": PARALLEL_SUM,
}


def staged_smp_timing(program: Program, cores: int
                      ) -> tuple[list[CoreStats], SmpTimingStats]:
    """``run_smp_timing`` as it was before the stream path: identical
    steps 1 and 2, then one reference-model ``feed()`` per record."""
    config = xt910()
    interleave = 4
    machine = SmpMachine(program, cores=cores, interleave=interleave)
    traces: list[list] = [[] for _ in range(cores)]
    active = True
    while active:
        active = False
        for index, hart in enumerate(machine.harts):
            if hart.halted:
                continue
            for _ in range(interleave):
                if hart.halted:
                    break
                traces[index].append(hart.step())
            active = True

    shared = SmpTimingStats()
    mem = config.mem
    l2 = Cache("L2-shared", mem.l2_size, mem.l2_assoc, mem.line_size)
    dram = Dram(mem.dram)
    hierarchies = [_CoherentHierarchy(mem, l2=l2, dram=dram,
                                      shared_stats=shared)
                   for _ in range(cores)]
    for hierarchy in hierarchies:
        hierarchy.set_siblings(hierarchies)
    pipelines = [ReferencePipelineModel(config, hierarchy=hierarchy)
                 for hierarchy in hierarchies]

    positions = [0] * cores
    chunk = 64
    remaining = True
    while remaining:
        remaining = False
        for index in range(cores):
            trace = traces[index]
            pos = positions[index]
            end = min(pos + chunk, len(trace))
            for k in range(pos, end):
                pipelines[index].feed(trace[k])
            positions[index] = end
            if end < len(trace):
                remaining = True
    return [pipeline.finish() for pipeline in pipelines], shared


@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_stream_path_equals_staged_driver(name, cores):
    program = assemble(PROGRAMS[name], compress=True)
    result = run_smp_timing(program, cores=cores)
    per_core, coherence = staged_smp_timing(program, cores)
    assert all(code == 0 for code in result.exit_codes)
    assert [stats.as_comparable() for stats in result.per_core] \
        == [stats.as_comparable() for stats in per_core]
    assert result.coherence == coherence


def test_false_sharing_invalidations_pinned():
    """The count a naive stream swap gets wrong: with store hits
    inlined, a hart that already owns the line never tells the others."""
    program = assemble(PROGRAMS["false_sharing"], compress=True)
    result = run_smp_timing(program, cores=4)
    assert result.coherence.sharing_invalidations == 199
    assert result.coherence.snoop_stall_cycles == 8 * 199


class _RecordingHierarchy(MemoryHierarchy):
    """Counts what reaches the slow path, split by direction."""

    store_hits_are_local = False

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.seen = {True: 0, False: 0}

    def access_data(self, vaddr, cycle, is_write=False, size=8):
        self.seen[is_write] += 1
        return super().access_data(vaddr, cycle, is_write, size)


def test_non_local_store_hits_all_reach_access_data():
    """``store_hits_are_local = False`` turns off the store-hit inline
    and nothing else: every store is seen by ``access_data``, load hits
    still bypass it, and the timing is unchanged because the inline and
    the call do the same accounting."""
    program = assemble(parallel_work(300), compress=True)
    config = xt910()
    records = [dyn for (dyn,) in Emulator(program).trace()]
    writes = sum(dyn.is_store for dyn in records)
    loads = sum(dyn.is_load and not dyn.is_store for dyn in records)
    assert writes >= 300 and loads >= 300

    hier = _RecordingHierarchy(config.mem)
    recorded = PipelineModel(config, hier).run((dyn,) for dyn in records)
    assert hier.seen[True] == writes == hier.stats.stores
    assert hier.seen[False] < loads          # the hits went inline
    assert hier.stats.loads >= hier.seen[False]

    plain = MemoryHierarchy(config.mem)
    inlined = PipelineModel(config, plain).run((dyn,) for dyn in records)
    assert recorded.as_comparable() == inlined.as_comparable()
    assert plain.stats == hier.stats
