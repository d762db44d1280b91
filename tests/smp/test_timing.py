"""Multi-core timing tests: scaling, sharing costs, snoop counts,
memory held."""

import gc
import tracemalloc

from repro.asm import assemble
from repro.smp import timing
from repro.smp.timing import SmpTimingStats, run_smp_timing


def parallel_work(n_per_hart: int = 2000) -> str:
    """Embarrassingly parallel per-hart compute on private regions."""
    return f"""
    .text
_start:
    csrr s0, mhartid
    li t0, 0x100000
    slli t1, s0, 16          # 64 KiB private region per hart
    add s1, t0, t1
    li s2, {n_per_hart}
loop:
    andi t2, s2, 0x3FF
    slli t3, t2, 3
    add t3, s1, t3
    ld t4, 0(t3)
    addi t4, t4, 1
    sd t4, 0(t3)
    addi s2, s2, -1
    bnez s2, loop
    li a0, 0
    li a7, 93
    ecall
"""


SHARED_COUNTER = """
    .data
    .align 3
counter: .dword 0
    .text
_start:
    la s1, counter
    li s2, 300
loop:
    li t0, 1
    amoadd.d x0, t0, (s1)
    addi s2, s2, -1
    bnez s2, loop
    li a0, 0
    li a7, 93
    ecall
"""


class TestScaling:
    def test_parallel_speedup(self):
        program = assemble(parallel_work(), compress=True)
        single = run_smp_timing(program, cores=1)
        quad = run_smp_timing(program, cores=4)
        assert all(code == 0 for code in quad.exit_codes)
        # Same per-hart work: the quad makespan stays close to the
        # single-core time (mild contention), i.e. ~4x the throughput.
        assert quad.makespan < single.makespan * 1.5
        assert quad.total_instructions \
            == 4 * single.total_instructions

    def test_two_core_intermediate(self):
        program = assemble(parallel_work(1000), compress=True)
        one = run_smp_timing(program, cores=1)
        two = run_smp_timing(program, cores=2)
        assert two.makespan < one.makespan * 1.5


class TestSharing:
    def test_shared_counter_invalidations(self):
        program = assemble(SHARED_COUNTER, compress=True)
        result = run_smp_timing(program, cores=4)
        assert all(code == 0 for code in result.exit_codes)
        # Every hart's AMO bounces the counter line around (the chunked
        # clock interleaving coalesces some of the ping-pong).
        assert result.coherence.sharing_invalidations > 50

    def test_private_work_no_sharing(self):
        program = assemble(parallel_work(500), compress=True)
        result = run_smp_timing(program, cores=4)
        assert result.coherence.sharing_invalidations == 0

    def test_sharing_costs_cycles(self):
        shared = run_smp_timing(assemble(SHARED_COUNTER, compress=True),
                                cores=4)
        assert shared.coherence.snoop_stall_cycles > 0


FALSE_SHARING = """
    .data
    .align 6
line: .zero 64
    .text
_start:
    csrr s0, mhartid
    la s1, line
    slli t0, s0, 3           # one dword a hart, all in one line
    add s1, s1, t0
    li s2, 200
loop:
    ld t1, 0(s1)
    addi t1, t1, 1
    sd t1, 0(s1)
    addi s2, s2, -1
    bnez s2, loop
    li a0, 0
    li a7, 93
    ecall
"""


class TestSnoopCounts:
    """The timed snoop probes exactly the siblings holding the line
    (``filtered_probes``); a broadcast snoop would probe every sibling
    on every store (``broadcast_probes``)."""

    def test_one_hart_probes_nothing(self):
        result = run_smp_timing(assemble(parallel_work(500)), cores=1)
        assert result.stores > 0
        assert result.filtered_probes == result.broadcast_probes == 0

    def test_disjoint_working_sets_need_no_probe(self):
        result = run_smp_timing(assemble(parallel_work(500)), cores=4)
        assert result.filtered_probes == 0
        assert result.stores == 4 * 500
        assert result.broadcast_probes == 3 * result.stores > 0

    def test_false_sharing_probes_only_the_holders(self, monkeypatch):
        snoops = []
        snoop = timing._CoherentHierarchy.snoop_store_hit

        def counted(self, vaddr):
            snoops.append(vaddr)
            return snoop(self, vaddr)

        monkeypatch.setattr(timing._CoherentHierarchy, "snoop_store_hit",
                            counted)
        result = run_smp_timing(assemble(FALSE_SHARING), cores=4)
        assert result.exit_codes == [0] * 4
        # The store count is the snoop count, read off the hierarchies.
        assert result.stores == len(snoops) == 4 * 200
        assert result.filtered_probes \
            == result.coherence.sharing_invalidations
        assert 0 < result.filtered_probes < result.broadcast_probes

    def test_coherence_counters_keep_their_two_keys(self):
        assert sorted(SmpTimingStats().counters()) \
            == ["sharing_invalidations", "snoop_stall_cycles"]


class TestResultShape:
    def test_makespan_is_slowest_core(self):
        program = assemble(parallel_work(500), compress=True)
        result = run_smp_timing(program, cores=2)
        assert result.makespan == max(stats.cycles
                                      for stats in result.per_core) > 0

    def test_per_core_stats_populated(self):
        program = assemble(parallel_work(500), compress=True)
        result = run_smp_timing(program, cores=2)
        assert len(result.per_core) == 2
        for stats in result.per_core:
            assert stats.instructions > 0
            assert stats.cycles > 0


class TestStreamedMemory:
    """Each hart's records are timed as the round-robin retires them and
    then dropped, so what a run holds does not grow with its length."""

    @staticmethod
    def peak_bytes(n_per_hart: int) -> tuple[int, int]:
        """(tracemalloc peak of a 4-hart run, records it timed)."""
        program = assemble(parallel_work(n_per_hart), compress=True)
        gc.collect()
        tracemalloc.start()
        try:
            result = run_smp_timing(program, cores=4)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.exit_codes == [0] * 4
        return peak, result.total_instructions

    def test_peak_does_not_grow_with_run_length(self):
        short_peak, short_records = self.peak_bytes(64)
        long_peak, long_records = self.peak_bytes(4 * 64)
        # A driver that keeps every record until the end grows by
        # ~200 B a record here (1.28 MB over these 6,144 records); the
        # streamed one by ~14 (the longer run's larger working set).
        assert long_peak - short_peak \
            < 32 * (long_records - short_records)
