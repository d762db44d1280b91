"""SMP timing: the stream path against the staged oracle, and the
store-hit snoop hook that makes the stream path usable there.

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


#: per iteration: an AMO and a store into the line the load just
#: brought in, and a store that opens a fresh line (the AMO comes
#: first: an AMO that forwards from a queued store reaches neither path)
STORE_HITS_AND_MISSES = """
    .text
_start:
    li s1, 0x100000
    li s3, 0x200000
    li s2, 300
loop:
    andi t2, s2, 0x3F
    slli t3, t2, 3
    add t3, s1, t3
    ld t4, 0(t3)
    addi t4, t4, 1
    amoadd.d x0, t4, (t3)
    sd t4, 0(t3)
    sd t4, 0(s3)
    addi s3, s3, 64
    addi s2, s2, -1
    bnez s2, loop
    li a0, 0
    li a7, 93
    ecall
"""


class _RecordingHierarchy(MemoryHierarchy):
    """A snoop hook that adds nothing and logs the stores it sees,
    beside a log of the stores that reach the slow path."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.snooped: list[int] = []
        self.snooped_resident: list[bool] = []
        self.slow: list[int] = []
        self.slow_resident: list[bool] = []

    def snoop_store_hit(self, vaddr):
        self.snooped.append(vaddr)
        self.snooped_resident.append(self.l1d.contains(vaddr))
        return 0

    def access_data(self, vaddr, cycle, is_write=False, size=8):
        if is_write:
            self.slow.append(vaddr)
            self.slow_resident.append(self.l1d.contains(vaddr))
        return super().access_data(vaddr, cycle, is_write, size)


def test_store_hits_call_the_snoop_hook_once():
    """The store-hit contract: every store (AMOs included) the loop
    completes inline calls ``snoop_store_hit`` once and skips
    ``access_data``, every other store (the misses among them) reaches
    ``access_data``, and a hook that adds no latency leaves the timing
    and the hierarchy's counters as a plain ``MemoryHierarchy`` (no
    hook) has them."""
    program = assemble(STORE_HITS_AND_MISSES, compress=True)
    config = xt910()
    records = [dyn for (dyn,) in Emulator(program).trace()]
    stores = sorted(dyn.mem_addr for dyn in records if dyn.is_store)
    assert len(stores) == 900

    hier = _RecordingHierarchy(config.mem)
    recorded = PipelineModel(config, hier).run((dyn,) for dyn in records)
    # each store took exactly one of the two paths
    assert sorted(hier.snooped + hier.slow) == stores
    assert hier.stats.stores == len(stores)
    # the hook saw only hits, and both paths were taken
    assert all(hier.snooped_resident) and len(hier.snooped) >= 600
    assert not all(hier.slow_resident)

    plain = MemoryHierarchy(config.mem)
    inlined = PipelineModel(config, plain).run((dyn,) for dyn in records)
    assert recorded.as_comparable() == inlined.as_comparable()
    assert plain.stats == hier.stats
    assert plain.l1d.stats == hier.l1d.stats
