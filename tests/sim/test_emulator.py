"""Emulator-level tests: fetch/decode path, traps, traces, limits."""

import pytest

from repro.asm import assemble
from repro.sim import Emulator, EmulatorError, run_program
from repro.sim.trace import DynInst


class TestFetchDecode:
    def test_executes_compressed_and_wide_mix(self):
        program = assemble("""
        _start:
            li t0, 5          # compressible
            lui t1, 0x12345   # not compressible
            add a0, t0, x0
            li a7, 93
            ecall
        """, compress=True)
        emulator = Emulator(program)
        assert emulator.run() == 5

    def test_decode_cache_reused(self):
        program = assemble("""
        _start:
            li t0, 100
        loop:
            addi t0, t0, -1
            bnez t0, loop
            li a0, 0
            li a7, 93
            ecall
        """)
        emulator = Emulator(program)
        emulator.run()
        # loop body decoded once, executed 100 times
        assert len(emulator._decode_cache) < 10

    def test_bad_instruction_raises(self):
        program = assemble("_start:\nnop\n")
        emulator = Emulator(program)
        # Jump into unmapped memory: zeros decode as illegal.
        emulator.state.pc = 0x9000_0000
        with pytest.raises(EmulatorError, match="cannot decode"):
            emulator.step()


class TestTraps:
    def test_ebreak_without_handler_raises(self):
        program = assemble("_start:\nebreak\n")
        with pytest.raises(EmulatorError, match="no mtvec handler"):
            Emulator(program).run(10)

    def test_ebreak_vectors_to_mtvec(self):
        program = assemble("""
        _start:
            la t0, handler
            csrw mtvec, t0
            ebreak
            li a0, 1          # skipped
            li a7, 93
            ecall
        handler:
            csrr t1, mcause
            mv a0, t1         # BREAKPOINT = 3
            li a7, 93
            ecall
        """)
        assert Emulator(program).run() == 3

    def test_mepc_records_faulting_pc(self):
        program = assemble("""
        _start:
            la t0, handler
            csrw mtvec, t0
        spot:
            ebreak
        handler:
            csrr t1, mepc
            la t2, spot
            sub a0, t1, t2    # 0 if mepc == &ebreak
            li a7, 93
            ecall
        """)
        assert Emulator(program).run() == 0

    def test_misaligned_amo_traps(self):
        program = assemble("""
        _start:
            la t0, handler
            csrw mtvec, t0
            li t1, 0x100001   # odd address
            amoadd.w t2, t3, (t1)
            li a0, 99
            li a7, 93
            ecall
        handler:
            csrr a0, mcause   # STORE_MISALIGNED = 6
            li a7, 93
            ecall
        """)
        assert Emulator(program).run() == 6


class TestTrace:
    def test_trace_records_everything(self):
        program = assemble("""
        .data
        x: .dword 7
        .text
        _start:
            la t0, x
            ld t1, 0(t0)
            beqz t1, never
            sd t1, 0(t0)
        never:
            li a0, 0
            li a7, 93
            ecall
        """)
        records = [r for (r,) in Emulator(program).trace()]
        assert all(isinstance(r, DynInst) for r in records)
        loads = [r for r in records if r.inst.mnemonic == "ld"]
        assert loads and loads[0].mem_size == 8
        branches = [r for r in records if r.inst.mnemonic == "beq"]
        assert branches and branches[0].taken is False
        stores = [r for r in records if r.inst.mnemonic == "sd"]
        assert stores[0].mem_addr == loads[0].mem_addr

    def test_div_bits_recorded(self):
        program = assemble("""
        _start:
            li t0, 255
            li t1, 3
            div t2, t0, t1
            li a0, 0
            li a7, 93
            ecall
        """)
        records = [r for (r,) in Emulator(program).trace()]
        divs = [r for r in records if r.inst.mnemonic == "div"]
        assert divs[0].div_bits == 8  # |255| needs 8 bits

    def test_seq_monotonic(self):
        program = assemble("_start:\nnop\nnop\nli a0, 0\nli a7, 93\necall\n")
        seqs = [r.seq for (r,) in Emulator(program).trace()]
        assert seqs == sorted(seqs)


class TestLimits:
    def test_infinite_loop_hits_limit(self):
        program = assemble("_start:\nj _start\n")
        with pytest.raises(EmulatorError, match="instruction limit"):
            Emulator(program).run(max_steps=1000)

    def test_run_program_helper(self):
        program = assemble("_start:\nli a0, 0\nli a7, 93\necall\n")
        emulator = run_program(program)
        assert emulator.halted
