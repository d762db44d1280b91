"""Functional SMP tests: real parallel programs over shared memory."""

import pytest

from repro.asm import assemble
from repro.sim.emulator import Emulator
from repro.smp import run_smp, runner
from repro.smp.runner import SmpMachine
from repro.smp.timing import run_smp_timing


ATOMIC_COUNTER = """
    .equ PER_HART, 200
    .data
    .align 3
counter: .dword 0
    .text
_start:
    csrr t0, mhartid
    li t1, 0
    la t2, counter
add_loop:
    li t3, 1
    amoadd.d x0, t3, (t2)
    addi t1, t1, 1
    li t4, PER_HART
    blt t1, t4, add_loop
    li a0, 0
    li a7, 93
    ecall
"""

LRSC_COUNTER = """
    .equ PER_HART, 100
    .data
    .align 3
counter: .dword 0
    .text
_start:
    li t1, 0
    la t2, counter
retry:
    lr.d t3, (t2)
    addi t3, t3, 1
    sc.d t4, t3, (t2)
    bnez t4, retry
    addi t1, t1, 1
    li t5, PER_HART
    blt t1, t5, retry_enter
    li a0, 0
    li a7, 93
    ecall
retry_enter:
    j retry
"""

SPINLOCK = """
    .equ PER_HART, 60
    .data
    .align 3
lock:    .dword 0
shared:  .dword 0
    .text
_start:
    li s0, 0
    la s1, lock
    la s2, shared
outer:
    # acquire (amoswap test-and-set)
acquire:
    li t0, 1
    amoswap.d t1, t0, (s1)
    bnez t1, acquire
    # critical section: non-atomic read-modify-write, safe under lock
    ld t2, 0(s2)
    addi t2, t2, 1
    sd t2, 0(s2)
    # release
    amoswap.d x0, x0, (s1)
    addi s0, s0, 1
    li t3, PER_HART
    blt s0, t3, outer
    li a0, 0
    li a7, 93
    ecall
"""

PARALLEL_SUM = """
    .equ N, 1024
    .data
    .align 3
arr:    .zero 8192
total:  .dword 0
done:   .dword 0
result: .dword 0
    .text
_start:
    csrr s0, mhartid
    la s1, arr
    # hart 0 initializes, others spin on 'done'
    bnez s0, wait_init
    li t0, 0
    li t1, N
init:
    slli t2, t0, 3
    add t3, s1, t2
    addi t4, t0, 1
    sd t4, 0(t3)         # arr[i] = i+1
    addi t0, t0, 1
    blt t0, t1, init
    la t5, done
    li t6, 1
    amoswap.d x0, t6, (t5)
    j compute
wait_init:
    la t5, done
spin:
    ld t6, 0(t5)
    beqz t6, spin
compute:
    # each hart sums a quarter: [hartid*N/4, (hartid+1)*N/4)
    li t0, N
    srli t0, t0, 2        # N/4
    mul t1, s0, t0        # start
    add t2, t1, t0        # end
    li t3, 0
sum_loop:
    slli t4, t1, 3
    add t5, s1, t4
    ld t6, 0(t5)
    add t3, t3, t6
    addi t1, t1, 1
    blt t1, t2, sum_loop
    la t5, total
    amoadd.d x0, t3, (t5)
    li a0, 0
    li a7, 93
    ecall
"""


class TestAtomics:
    def test_amoadd_counter_exact(self):
        program = assemble(ATOMIC_COUNTER)
        result = run_smp(program, cores=4, interleave=3)
        assert result.exit_codes == [0] * 4
        counter = result.memory.load_int(program.symbol("counter"), 8)
        assert counter == 4 * 200

    def test_lrsc_counter_exact(self):
        program = assemble(LRSC_COUNTER)
        result = run_smp(program, cores=4, interleave=2)
        assert result.exit_codes == [0] * 4
        counter = result.memory.load_int(program.symbol("counter"), 8)
        assert counter == 4 * 100

    def test_lrsc_with_adversarial_interleave(self):
        program = assemble(LRSC_COUNTER)
        for interleave in (1, 5, 17):
            result = run_smp(program, cores=2, interleave=interleave)
            counter = result.memory.load_int(program.symbol("counter"), 8)
            assert counter == 2 * 100, interleave


class TestSpinlock:
    def test_mutual_exclusion(self):
        program = assemble(SPINLOCK)
        result = run_smp(program, cores=4, interleave=7)
        assert result.exit_codes == [0] * 4
        shared = result.memory.load_int(program.symbol("shared"), 8)
        assert shared == 4 * 60
        lock = result.memory.load_int(program.symbol("lock"), 8)
        assert lock == 0  # released


class TestParallelKernel:
    def test_parallel_sum(self):
        program = assemble(PARALLEL_SUM)
        result = run_smp(program, cores=4, interleave=4)
        assert result.exit_codes == [0] * 4
        total = result.memory.load_int(program.symbol("total"), 8)
        assert total == 1024 * 1025 // 2

    def test_run_counts_what_traces_collects(self):
        """``run`` keeps no records, only counts them per hart."""
        program = assemble(LRSC_COUNTER)
        result = SmpMachine(program, cores=3, interleave=5).run()
        traces = SmpMachine(program, cores=3, interleave=5).traces()
        assert result.steps == [len(trace) for trace in traces]
        assert result.exit_codes == [0] * 3

    def test_single_core_degenerates(self):
        program = assemble(ATOMIC_COUNTER)
        result = run_smp(program, cores=1)
        counter = result.memory.load_int(program.symbol("counter"), 8)
        assert counter == 200



SPIN_FOREVER = """
    .text
_start:
    addi t0, t0, 1
    j _start
"""


class TestStepLimit:
    """``max_steps_per_hart`` stops a guest that never exits: the hart
    that first retires step limit + 1 raises, named, in the middle of
    its turn, and the harts after it have not yet had theirs."""

    @pytest.mark.parametrize("entry", ["SmpMachine.run", "run_smp_timing"])
    def test_runaway_hart_raises_on_the_step_past_the_limit(
            self, entry, monkeypatch):
        harts = []

        class Recorded(Emulator):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                harts.append(self)

        monkeypatch.setattr(runner, "Emulator", Recorded)
        program = assemble(SPIN_FOREVER)
        limit = 50
        with pytest.raises(RuntimeError, match="hart 0 exceeded 50 steps"):
            if entry == "SmpMachine.run":
                SmpMachine(program, cores=4, interleave=4).run(limit)
            else:
                run_smp_timing(program, cores=4, max_steps_per_hart=limit)
        # 12 full turns of 4 steps, then steps 49, 50 and 51 of hart 0
        assert [hart.state.instret for hart in harts] == [51, 48, 48, 48]
