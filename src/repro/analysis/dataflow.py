"""Classic dataflow passes over the recovered CFG.

All register state is packed into one Python int per program point:
bits 0-31 are the integer registers, 32-63 the FP registers, 64-95 the
vector registers, and bit 96 records "vector unit configured by
``vsetvl``".  Must-analyses meet with AND (top is all-ones), may-
analyses with OR — big-int bitwise ops keep the worklist iterations
cheap even for whole-program runs.

Two passes live here:

* :func:`must_init` — interprocedural definite-initialization over the
  supergraph (call and return edges included),
* :func:`liveness` — per-function backward live-register analysis.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.classify import needs_vector_config
from ..isa.instructions import Instruction, InstrClass
from ..isa.registers import Reg, fpr_name, gpr_name
from .cfg import CFG, BasicBlock, Function

#: bit layout of a register-state word
X_BASE = 0
F_BASE = 32
V_BASE = 64
VCONFIG_BIT = 96
STATE_BITS = 97
ALL_BITS = (1 << STATE_BITS) - 1

#: registers the emulator defines before the first instruction:
#: x0 (hardwired), sp and gp (set by reset to the memory-layout values).
ENTRY_MASK = (1 << 0) | (1 << 2) | (1 << 3)

_FILE_BASE = {"x": X_BASE, "f": F_BASE, "v": V_BASE}


def reg_bit(reg: Reg) -> int:
    """State-word bit index of an architectural register."""
    return _FILE_BASE[reg.file] + reg.index


def bit_name(bit: int) -> str:
    """Human-readable register name for a state-word bit."""
    if bit == VCONFIG_BIT:
        return "vconfig"
    if bit >= V_BASE:
        return f"v{bit - V_BASE}"
    if bit >= F_BASE:
        return fpr_name(bit - F_BASE)
    return gpr_name(bit)


def use_mask(inst: Instruction) -> int:
    """Bits *inst* reads, including the implicit vector-config state."""
    mask = 0
    for reg in inst.srcs:
        mask |= 1 << reg_bit(reg)
    if needs_vector_config(inst):
        mask |= 1 << VCONFIG_BIT
    return mask


def def_mask(inst: Instruction) -> int:
    """Bits *inst* writes.

    ``vsetvl`` establishes the vector configuration; ``ecall`` returns
    its result in a0 (the syscall shim always writes it).
    """
    mask = 0
    for reg in inst.dests:
        mask |= 1 << reg_bit(reg)
    if inst.spec.iclass is InstrClass.VSET:
        mask |= 1 << VCONFIG_BIT
    if inst.spec.mnemonic == "ecall":
        mask |= 1 << 10  # a0
    return mask


@dataclass(frozen=True)
class BlockFacts:
    """Straight-line gen/kill summary of one basic block."""

    #: bits read before any write inside the block
    use_before_def: int
    #: bits written anywhere in the block
    defs: int


def block_facts(block: BasicBlock) -> BlockFacts:
    facts_use = 0
    facts_def = 0
    for di in block.insts:
        facts_use |= use_mask(di.inst) & ~facts_def
        facts_def |= def_mask(di.inst)
    return BlockFacts(use_before_def=facts_use, defs=facts_def)


# -- definite initialization ------------------------------------------------

def must_init(cfg: CFG, entry_mask: int = ENTRY_MASK) -> dict[int, int]:
    """Definitely-initialized register bits at each block entry.

    Forward must-analysis over the interprocedural supergraph: call
    blocks flow into their callee, return blocks flow back to every
    call site's fall-through.  Blocks never reached keep the top value
    ``ALL_BITS`` (vacuously all-initialized).
    """
    state_in: dict[int, int] = dict.fromkeys(cfg.order, ALL_BITS)
    defs = {start: block_facts(cfg.blocks[start]).defs
            for start in cfg.order}
    if cfg.entry not in cfg.blocks:
        return state_in
    state_in[cfg.entry] = entry_mask
    worklist = [cfg.entry]
    while worklist:
        start = worklist.pop()
        block = cfg.blocks[start]
        out = state_in[start] | defs[start]
        for succ in cfg.super_succs(block):
            if succ not in state_in:
                continue
            new = state_in[succ] & out
            if new != state_in[succ]:
                state_in[succ] = new
                worklist.append(succ)
    return state_in


def walk_init(block: BasicBlock, state: int):
    """Yield ``(decoded, missing_mask, state_before)`` for each
    instruction of *block*, threading the init state through."""
    for di in block.insts:
        missing = use_mask(di.inst) & ~state
        yield di, missing, state
        state |= def_mask(di.inst)


# -- liveness ---------------------------------------------------------------

def liveness(cfg: CFG, func: Function) -> tuple[dict[int, int],
                                                dict[int, int]]:
    """Backward live-register analysis over one function.

    Returns ``(live_in, live_out)`` per block start.  Intra-procedural:
    call blocks keep their fall-through edge, callee effects are not
    modelled (conservative for the vector checks this feeds).
    """
    members = set(func.blocks)
    facts = {start: block_facts(cfg.blocks[start]) for start in members}
    live_in = dict.fromkeys(members, 0)
    live_out = dict.fromkeys(members, 0)
    changed = True
    while changed:
        changed = False
        for start in reversed(func.blocks):
            block = cfg.blocks[start]
            out = 0
            for succ in block.succs:
                if succ in members:
                    out |= live_in[succ]
            fact = facts[start]
            new_in = fact.use_before_def | (out & ~fact.defs)
            if out != live_out[start] or new_in != live_in[start]:
                live_out[start] = out
                live_in[start] = new_in
                changed = True
    return live_in, live_out


def live_at(block: BasicBlock, live_out: int) -> dict[int, int]:
    """Live-bit mask *after* each instruction address in *block*."""
    after: dict[int, int] = {}
    state = live_out
    for di in reversed(block.insts):
        after[di.addr] = state
        state = use_mask(di.inst) | (state & ~def_mask(di.inst))
    return after

