"""Functional tests for the 0.7.1-flavoured vector extension."""

import struct

import pytest

from repro.asm import assemble
from repro.sim import Emulator

def dump_dwords(emu, symbol, count):
    base = emu.program.symbol(symbol)
    return [emu.state.memory.load_int(base + 8 * i, 8, signed=True)
            for i in range(count)]


def dump_words(emu, symbol, count):
    base = emu.program.symbol(symbol)
    return [emu.state.memory.load_int(base + 4 * i, 4, signed=True)
            for i in range(count)]


class TestVsetvl:
    def test_grants_vlmax(self, run):
        # VLEN=128, SEW=32, LMUL=1 -> VLMAX=4
        emu = run("li t0, 100\nvsetvli a0, t0, e32, m1\n")
        assert emu.exit_code == 4

    def test_grants_avl_when_small(self, run):
        emu = run("li t0, 3\nvsetvli a0, t0, e32, m1\n")
        assert emu.exit_code == 3

    def test_lmul_scales_vlmax(self, run):
        emu = run("li t0, 100\nvsetvli a0, t0, e16, m4\n")
        assert emu.exit_code == 32  # 128*4/16

    def test_sew64(self, run):
        emu = run("li t0, 100\nvsetvli a0, t0, e64, m1\n")
        assert emu.exit_code == 2

    def test_vsetvl_register_form(self, run):
        code = """
        li t0, 100
        li t1, 8              # vtype bits: sew=32 (code 2<<2), lmul=1
        vsetvl a0, t0, t1
        """
        assert run(code).exit_code == 4


@pytest.mark.parametrize("tier", [1, 2, 3])
@pytest.mark.parametrize("vlen", [128, 256])
def test_csrr_vlenb_reads_the_register_width_in_bytes(vlen, tier, tmp_path):
    """Read twice round, so tier 3 also reads it from a compiled block."""
    program = assemble("""
    li s0, 2
again:
    csrr a0, vlenb
    addi s0, s0, -1
    bnez s0, again
    li a7, 93
    ecall
""", compress=False)
    emulator = Emulator(program, vlen=vlen, code_cache_dir=str(tmp_path))
    assert emulator.run(tier=tier) == vlen // 8
    assert emulator.tier == tier


class TestIntVectorOps:
    def test_vadd_vv(self, run):
        code = """
        .data
        a: .word 1, 2, 3, 4
        b: .word 10, 20, 30, 40
        out: .zero 16
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        la t2, b
        vle32.v v1, (t1)
        vle32.v v2, (t2)
        vadd.vv v3, v1, v2
        la t3, out
        vse32.v v3, (t3)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [11, 22, 33, 44]

    def test_vadd_vx_and_vi(self, run):
        code = """
        .data
        a: .word 1, 2, 3, 4
        out: .zero 16
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        vle32.v v1, (t1)
        li t2, 100
        vadd.vx v2, v1, t2
        vadd.vi v2, v2, 5
        la t3, out
        vse32.v v2, (t3)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [106, 107, 108, 109]

    def test_vmul_and_vmacc(self, run):
        code = """
        .data
        a: .word 1, 2, 3, 4
        b: .word 5, 6, 7, 8
        out: .zero 16
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        la t2, b
        vle32.v v1, (t1)
        vle32.v v2, (t2)
        vmv.v.i v3, 1
        vmacc.vv v3, v1, v2    # v3 = 1 + a*b
        la t3, out
        vse32.v v3, (t3)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [6, 13, 22, 33]

    def test_masked_add(self, run):
        code = """
        .data
        a: .word 1, 1, 1, 1
        out: .word 0, 0, 0, 0
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        vle32.v v1, (t1)
        li t2, 0b0101              # mask elements 0 and 2
        vmv.s.x v0, t2
        la t3, out
        vle32.v v3, (t3)
        vadd.vi v3, v1, 9, v0.t    # only elements 0,2 updated
        vse32.v v3, (t3)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [10, 0, 10, 0]

    def test_vredsum(self, run):
        code = """
        .data
        a: .word 10, 20, 30, 40
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        vle32.v v1, (t1)
        vmv.v.i v2, 0
        vredsum.vs v3, v1, v2
        vmv.x.s a0, v3
        """
        assert run(code).exit_code == 100

    def test_vredmax(self, run):
        code = """
        .data
        a: .word 3, 17, 5, 11
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        vle32.v v1, (t1)
        vmv.v.i v2, 0
        vredmax.vs v3, v1, v2
        vmv.x.s a0, v3
        """
        assert run(code).exit_code == 17

    def test_widening_mac_16to32(self, run):
        # The AI/ML use case from section VII: 16-bit MACs accumulating
        # into 32 bits.
        code = """
        .data
        a: .half 100, 200, 300, 400, 500, 600, 700, 800
        b: .half 2, 2, 2, 2, 2, 2, 2, 2
        out: .zero 32
        .text
        li t0, 8
        vsetvli t0, t0, e16, m1
        la t1, a
        la t2, b
        vle16.v v1, (t1)
        vle16.v v2, (t2)
        vwmul.vv v4, v1, v2     # 32-bit results in v4..v5
        li t0, 8
        vsetvli t0, t0, e32, m2
        la t3, out
        vse32.v v4, (t3)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 8) == [200, 400, 600, 800, 1000,
                                             1200, 1400, 1600]

    def test_compare_writes_mask(self, run):
        code = """
        .data
        a: .word 5, -1, 7, -3
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        vle32.v v1, (t1)
        vmv.v.i v2, 0
        vmslt.vv v0, v1, v2     # mask = elements < 0 => 0b1010
        vmv.x.s t2, v0
        andi a0, t2, 0xF
        """
        assert run(code).exit_code == 0b1010


class TestVectorMemory:
    def test_strided_load(self, run):
        code = """
        .data
        mat: .word 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12
        out: .zero 16
        .text
        li t0, 3
        vsetvli t0, t0, e32, m1
        la t1, mat
        li t2, 16                # stride: 4 words = one row
        vlse32.v v1, (t1), t2    # column 0: 1, 5, 9
        la t3, out
        vse32.v v1, (t3)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 3) == [1, 5, 9]

    def test_strided_store(self, run):
        code = """
        .data
        out: .zero 48
        .text
        li t0, 3
        vsetvli t0, t0, e32, m1
        vmv.v.i v1, 7
        la t1, out
        li t2, 16
        vsse32.v v1, (t1), t2
        li a0, 0
        """
        emu = run(code)
        words = dump_words(emu, "out", 12)
        assert words[0] == 7 and words[4] == 7 and words[8] == 7
        assert words[1] == 0

    def test_load_store_64(self, run):
        code = """
        .data
        a: .dword 111, 222
        out: .zero 16
        .text
        li t0, 2
        vsetvli t0, t0, e64, m1
        la t1, a
        vle64.v v1, (t1)
        vadd.vi v1, v1, 1
        la t2, out
        vse64.v v1, (t2)
        li a0, 0
        """
        emu = run(code)
        assert dump_dwords(emu, "out", 2) == [112, 223]


class TestVectorFloat:
    def test_vfadd(self, run):
        code = """
        .data
        a: .float 1.5, 2.5, 3.5, 4.5
        b: .float 0.5, 0.5, 0.5, 0.5
        out: .zero 16
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        la t2, b
        vle32.v v1, (t1)
        vle32.v v2, (t2)
        vfadd.vv v3, v1, v2
        la t3, out
        vse32.v v3, (t3)
        li a0, 0
        """
        emu = run(code)
        base = emu.program.symbol("out")
        raw = emu.state.memory.load_bytes(base, 16)
        assert struct.unpack("<4f", raw) == (2.0, 3.0, 4.0, 5.0)

    def test_vfmacc_double(self, run):
        code = """
        .data
        a: .double 2.0, 3.0
        b: .double 10.0, 10.0
        acc: .double 1.0, 1.0
        out: .zero 16
        .text
        li t0, 2
        vsetvli t0, t0, e64, m1
        la t1, a
        la t2, b
        la t3, acc
        vle64.v v1, (t1)
        vle64.v v2, (t2)
        vle64.v v3, (t3)
        vfmacc.vv v3, v1, v2
        la t4, out
        vse64.v v3, (t4)
        li a0, 0
        """
        emu = run(code)
        base = emu.program.symbol("out")
        raw = emu.state.memory.load_bytes(base, 16)
        assert struct.unpack("<2d", raw) == (21.0, 31.0)

    def test_vfredsum(self, run):
        code = """
        .data
        a: .float 1.0, 2.0, 3.0, 4.0
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        vle32.v v1, (t1)
        vmv.v.i v2, 0
        vfredsum.vs v3, v1, v2
        vmv.x.s t2, v3
        fmv.w.x fa0, t2
        fcvt.w.s a0, fa0
        """
        assert run(code).exit_code == 10

    def test_half_precision(self, run):
        # FP16 vectors: not supported by Cortex-A73 NEON, a differentiator
        # the paper calls out for AI workloads.
        code = """
        .data
        a: .half 0x3C00, 0x4000, 0x4200, 0x4400   # 1.0, 2.0, 3.0, 4.0 fp16
        .text
        li t0, 4
        vsetvli t0, t0, e16, m1
        la t1, a
        vle16.v v1, (t1)
        vfadd.vv v2, v1, v1
        vmv.x.s a0, v2       # 2.0 in fp16 = 0x4000
        """
        assert run(code).exit_code == 0x4000


class TestVectorPermutation:
    def test_vslidedown(self, run):
        code = """
        .data
        a: .word 10, 20, 30, 40
        out: .zero 16
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        vle32.v v1, (t1)
        vslidedown.vi v2, v1, 1
        la t2, out
        vse32.v v2, (t2)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [20, 30, 40, 0]

    def test_vslideup(self, run):
        code = """
        .data
        a: .word 10, 20, 30, 40
        out: .word 9, 9, 9, 9
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        vle32.v v1, (t1)
        la t2, out
        vle32.v v2, (t2)
        vslideup.vi v2, v1, 2    # elements 0,1 untouched
        vse32.v v2, (t2)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [9, 9, 10, 20]

    def test_vrgather(self, run):
        code = """
        .data
        a: .word 10, 20, 30, 40
        idx: .word 3, 2, 1, 0
        out: .zero 16
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        la t2, idx
        vle32.v v1, (t1)
        vle32.v v2, (t2)
        vrgather.vv v3, v1, v2
        la t3, out
        vse32.v v3, (t3)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [40, 30, 20, 10]


class TestMaskOps:
    def test_mask_logical_family(self, run):
        code = """
        .data
        a: .word 5, -1, 7, -3
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, a
        vle32.v v1, (t1)
        vmv.v.i v2, 0
        vmslt.vv v3, v1, v2     # negatives: 0b1010
        vmsle.vv v4, v2, v1     # non-negatives: 0b0101
        vmor.mm v5, v3, v4
        vcpop.m t2, v5          # 4
        vmand.mm v6, v3, v4
        vcpop.m t3, v6          # 0
        vmxor.mm v7, v3, v4
        vcpop.m t4, v7          # 4
        vmnand.mm v8, v3, v3    # complement of v3 over vl: 0b0101
        vcpop.m t5, v8          # 2
        slli a0, t2, 12
        slli t3, t3, 8
        or a0, a0, t3
        slli t4, t4, 4
        or a0, a0, t4
        or a0, a0, t5
        """
        assert run(code).exit_code == 0x4042

    def test_vid(self, run):
        code = """
        .data
        out: .zero 16
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        vid.v v1
        la t1, out
        vse32.v v1, (t1)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [0, 1, 2, 3]

    def test_vid_masked(self, run):
        code = """
        .data
        out: .word 9, 9, 9, 9
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        li t2, 0b0110
        vmv.s.x v0, t2
        la t1, out
        vle32.v v1, (t1)
        vid.v v1, v0.t
        vse32.v v1, (t1)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [9, 1, 2, 9]

    def test_vcpop_respects_vl(self, run):
        code = """
        li t0, 3
        vsetvli t0, t0, e32, m1
        li t1, -1
        vmv.s.x v1, t1          # element 0 = all ones
        vcpop.m a0, v1          # only the first 3 bits counted
        """
        assert run(code).exit_code == 3


class TestVectorEdgeCases:
    def test_vl_zero_is_noop(self, run):
        code = """
        .data
        out: .word 7, 7, 7, 7
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, out
        vle32.v v1, (t1)
        li t0, 0
        vsetvli t0, t0, e32, m1  # vl = 0
        vadd.vi v1, v1, 9        # touches nothing
        li t0, 4
        vsetvli t0, t0, e32, m1
        vse32.v v1, (t1)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [7, 7, 7, 7]

    def test_lmul2_group_arithmetic(self, run):
        code = """
        .data
        a: .word 1, 2, 3, 4, 5, 6, 7, 8
        out: .zero 32
        .text
        li t0, 8
        vsetvli t0, t0, e32, m2  # one op covers v2-v3
        la t1, a
        vle32.v v2, (t1)
        vadd.vx v4, v2, t0       # +8 to all 8 elements
        la t2, out
        vse32.v v4, (t2)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 8) == [9, 10, 11, 12, 13, 14, 15, 16]

    def test_tail_undisturbed(self, run):
        code = """
        .data
        out: .word 5, 5, 5, 5
        .text
        li t0, 4
        vsetvli t0, t0, e32, m1
        la t1, out
        vle32.v v1, (t1)
        li t0, 2
        vsetvli t0, t0, e32, m1  # vl = 2
        vadd.vi v1, v1, 1
        li t0, 4
        vsetvli t0, t0, e32, m1
        vse32.v v1, (t1)
        li a0, 0
        """
        emu = run(code)
        assert dump_words(emu, "out", 4) == [6, 6, 5, 5]

    def test_sew8_elements(self, run):
        code = """
        .data
        a: .byte 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16
        out: .zero 16
        .text
        li t0, 16
        vsetvli t0, t0, e8, m1   # all 16 lanes of VLEN=128
        la t1, a
        vle8.v v1, (t1)
        vadd.vv v2, v1, v1
        la t2, out
        vse8.v v2, (t2)
        li a0, 0
        """
        emu = run(code)
        base = emu.program.symbol("out")
        data = emu.state.memory.load_bytes(base, 16)
        assert list(data) == [2 * i for i in range(1, 17)]
