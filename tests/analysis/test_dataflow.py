"""Dataflow passes: definite init, liveness."""

from repro.analysis import build_cfg
from repro.analysis.dataflow import (
    ALL_BITS,
    ENTRY_MASK,
    V_BASE,
    VCONFIG_BIT,
    bit_name,
    def_mask,
    liveness,
    must_init,
    use_mask,
)
from repro.asm import assemble
from repro.isa.registers import Reg


def cfg_of(source):
    return build_cfg(assemble(source))


BRANCHY = """
_start:
    li t0, 1
    beqz t0, skip
    li t1, 5
skip:
    add t2, t1, t0
    li a7, 93
    ecall
"""

INTERPROC = """
_start:
    li s0, 7
    jal ra, helper
    add t3, s0, a0
    li a7, 93
    ecall
helper:
    li t2, 2
    add a0, t2, t2
    jalr x0, 0(ra)
"""


class TestMasks:
    def test_use_def_masks(self):
        program = assemble("_start:\n  add t2, t0, t1\n  li a7, 93\n"
                           "  ecall\n")
        cfg = build_cfg(program)
        add = cfg.blocks[cfg.entry].insts[0].inst
        assert use_mask(add) == (1 << 5) | (1 << 6)   # t0, t1
        assert def_mask(add) == 1 << 7                # t2

    def test_ecall_defines_a0(self):
        program = assemble("_start:\n  li a7, 93\n  ecall\n")
        cfg = build_cfg(program)
        ecall = cfg.blocks[cfg.entry].insts[-1].inst
        assert def_mask(ecall) & (1 << 10)

    def test_vsetvli_sets_vconfig(self):
        program = assemble("_start:\n  li t0, 8\n"
                           "  vsetvli t1, t0, e32, m1\n"
                           "  li a7, 93\n  ecall\n")
        cfg = build_cfg(program)
        vset = cfg.blocks[cfg.entry].insts[1].inst
        assert def_mask(vset) & (1 << VCONFIG_BIT)

    def test_bit_names(self):
        assert bit_name(2) == "sp"
        assert bit_name(32 + 1) == "ft1"
        assert bit_name(V_BASE + 3) == "v3"
        assert bit_name(VCONFIG_BIT) == "vconfig"

    def test_reg_bit_roundtrip(self):
        from repro.analysis.dataflow import reg_bit

        assert reg_bit(Reg("x", 5)) == 5
        assert reg_bit(Reg("f", 5)) == 37
        assert reg_bit(Reg("v", 5)) == 69


class TestMustInit:
    def test_maybe_uninit_on_one_path(self):
        cfg = cfg_of(BRANCHY)
        state = must_init(cfg)
        skip = cfg.program.symbol("skip")
        # t1 (bit 6) only written on the fall-through path
        assert not state[skip] & (1 << 6)
        # t0 (bit 5) written before the branch on every path
        assert state[skip] & (1 << 5)

    def test_entry_mask_seeds_sp_gp(self):
        cfg = cfg_of(BRANCHY)
        state = must_init(cfg)
        assert state[cfg.entry] == ENTRY_MASK
        assert ENTRY_MASK & (1 << 2) and ENTRY_MASK & (1 << 3)

    def test_interprocedural_flow(self):
        cfg = cfg_of(INTERPROC)
        state = must_init(cfg)
        helper = cfg.program.symbol("helper")
        # s0, set before the call, is definite at the callee entry
        assert state[helper] & (1 << 8)
        # the call fall-through sees a0 defined by the callee
        call_block = cfg.blocks[cfg.entry]
        fall = call_block.end
        assert state[fall] & (1 << 10)
        assert state[fall] & (1 << 8)

    def test_unreachable_stays_top(self):
        cfg = cfg_of("""
_start:
    li a7, 93
    ecall
dead:
    add t0, t1, t2
    j dead
""")
        state = must_init(cfg)
        dead = cfg.program.symbol("dead")
        assert state[dead] == ALL_BITS


class TestLiveness:
    def test_loop_carried_liveness(self):
        cfg = cfg_of("""
_start:
    li t0, 10
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    li a7, 93
    ecall
""")
        func = cfg.functions[cfg.entry]
        live_in, live_out = liveness(cfg, func)
        loop = cfg.program.symbol("loop")
        # t0 and t1 are live around the back edge
        assert live_in[loop] & (1 << 5)
        assert live_in[loop] & (1 << 6)
        assert live_out[loop] & (1 << 5)

    def test_dead_def_not_live(self):
        cfg = cfg_of(BRANCHY)
        func = cfg.functions[cfg.entry]
        live_in, _ = liveness(cfg, func)
        skip = cfg.program.symbol("skip")
        # t2 is written at skip but never read: dead everywhere
        assert not live_in[cfg.entry] & (1 << 7)
        assert live_in[skip] & (1 << 6)  # t1 read at skip

