"""Tier-3 specializing translator: superblocks compiled to Python.

Tier-2 (:mod:`repro.sim.blockcache`) already decodes each basic block
once, but still pays per retired instruction for the dispatch loop:
tuple unpacking, a flags test, a handler call through a function
pointer, and the bookkeeping branches.  This module removes that last
layer, and most of the per-dispatch one above it: it chains tier-2
blocks into a *superblock* and emits *specialized straight-line Python
source* for it — register indices, immediates, fall-through PCs and
handler references constant-folded into the text — ``compile()``s it
once, and runs the code object in place of the interpretation loop.

Formation: a block's second dispatch forms the superblock headed by
it.  The chain follows fall-throughs, ``jal`` targets and each
conditional branch in the direction its block took on its last
complete tier-2 run, through blocks tier 2 has already run, and stops
at ``jalr``, at CSR/SYSTEM/fence terminators, at a block not yet run
and at ``MAX_BLOCK_INSTS`` instructions; a back-edge to the head
repeats it (the loop unrolls).  Inside the chain a conditional branch
is a *guard*: the other direction leaves with ``state.pc`` and
``state.instret`` synced and a side exit counted, after the trace
variant filled its record.  The superblock owns its record slots, with
one persistent prefix batch per exit position.  There is one unit per
start pc.

Loops: a chain *closes on its head* where the next block is the head
again or the last block's successor is (a fall-through, a ``jal``, or
the loop branch in either direction).  The ``run`` variant of such a
chain wraps its longest closing prefix in ``while True:`` and goes
round again while another whole iteration fits the budget the
dispatcher passes (``limit - steps``) and no machine check is pending,
so a watchdog cut and a machine check still fall on an iteration
boundary; it does not emit the rest of the chain.  The ``trace``
variant never loops, so a timed run sees the same record batches.

Register locals: both variants read each integer register x1-x31 their
inline code names into a local ``x{i}`` once at entry, and inline code
works on those (``F`` and the folded x0 stay as they are).  A local
written inline is *dirty*: dirty locals are stored back to ``R`` at
every leave and before any call that reads registers from ``state`` or
can raise (the ``ld``/``st`` fallback arms, bare handlers, the full
step, a ``vapply`` with an integer operand), and the integer ``rd`` a
call may write is re-read after it.

Translation is two-pass, resolve-then-emit: pass one classifies every
entry into one emission kind — inline: ``alu`` (RV64IM and the XT-910
register extensions), ``load``/``store`` (read or written in its page
when ``Memory`` allows direct access and the access stays inside one
page: a byte by its index, a wider field by a precompiled little-endian
``struct`` codec; a load from a page nothing has written reads one
shared zero page; else ``load_int``/``store_int``), ``branch``,
``jal``, ``jalr``, ``auipc``, ``vsetvli`` (its vtype and VLMAX folded)
and, under the numpy vector engine, ``vmem`` (an unmasked unit-stride
``vle``/``vse``: one slice copy between its page and ``vbuf`` when the
page exists, holds the whole span and the register group ends inside
v31, with the full step as its ``else`` arm) and ``vapply`` (a batched
arithmetic op under a vtype its block proves static, unmasked or
masking for itself: a direct call of the op's ``apply``, bound once per
linked unit, with its handler's counting inlined); a ``bare`` handler
call for the other simple entries; or the *full step* for
CSR/AMO/DIV/system/fence and the other vector instructions, the
handler call with ``state`` synced as ``Emulator.step`` syncs it — and
pass two emits the source for
a ``make(E, records)`` factory whose inner function — ``run``, or
``trace``, which fills the record slots — binds the handlers,
instructions and record slots as default arguments (fast locals, zero
global lookups in the hot path).  Each variant is compiled and linked
the first time a dispatch needs it.

Persistent code cache: compiled module code objects are marshalled to
disk keyed by (the ``repro`` source digest, interpreter bytecode magic,
text section sha256, text base, VLEN, block size limit, vector engine),
so an edit to the emitter or any handler misses, and a second run of
the same workload skips source generation and ``compile()`` entirely —
each stored superblock is filed under its constituent ranges and
carries a digest of their bytes that is re-checked at link time, so
stale entries miss instead of silently reusing.  Formation is
deterministic, so a warm run forms the same chains and links them all.
A corrupt cache file is discarded (and counted), never fatal.
``fence.i``/``sfence.vma`` drop every superblock exactly like tier-2
drops its blocks, a tier-2 first-run SMC hit drops every superblock
containing the block, and nothing is persisted from a run that
observed any code mutation.

Semantics contract: the retired ``DynInst`` stream, architectural
state, exit code and memory image are bit-identical to tier-2 (and
therefore to ``Emulator.step``).  What raises retires through
``Emulator._retire_raised``, the path of every tier: the full step
catches its own, and the dispatcher retires what an ``ld``/``st``
fallback call lets escape (a wrapped ``Memory`` entry point or an MMIO
device), with ``pc``, ``instret`` and ``side`` read back from the
generated frame (``_retire_escaped``).  Two accepted diagnostic
deviations, mirroring tier-2's own envelope: instructions outside the
full step do not append to the crash-backtrace ring, and self-modifying
stores are only detected by the tier-2 first-run check (tier-3 only
executes blocks tier-2 has already run once) or an explicit
``fence.i``.
"""

from __future__ import annotations

import bisect
import hashlib
import importlib.util
import marshal
import os
import struct
import tempfile
import time
import weakref
from collections.abc import Iterator, Sequence
from functools import partial

import numpy as np

from .. import source_digest
from ..asm.assembler import decode_vtype
from .emulator import RAISED
from .exec_scalar import Trap
from .exec_vector import active_engine, bind_apply, bind_handler, direct_op
from .memory import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from .blockcache import (
    _TERMINATORS,
    FLAG_FENCE_I,
    FLAG_SFENCE,
    FLAG_VECTOR,
    MAX_BLOCK_INSTS,
)
from .trace import DynInst, RecordBatch

#: superblocks kept in memory before a wholesale flush
CODE_CACHE_LIMIT = 4096
#: on-disk cache files kept before mtime-based pruning
DISK_CACHE_FILES = 64

_M64 = 0xFFFFFFFFFFFFFFFF
_MHEX = "0xFFFFFFFFFFFFFFFF"
_S64 = 0x8000000000000000
#: the little-endian page-word codecs of the in-page 2-, 4- and 8-byte
#: loads and stores, bound as ``U{size}``/``K{size}`` defaults
_CODECS = {f"_{kind}{size}": getattr(struct.Struct(fmt), method)
           for size, fmt in ((2, "<H"), (4, "<I"), (8, "<Q"))
           for kind, method in (("U", "unpack_from"), ("K", "pack_into"))}
#: ``Z``: what an inline load reads in place of a page nothing has written
_ZERO_PAGE = bytes(PAGE_SIZE)

_LOADS = frozenset({"lb", "lh", "lw", "ld", "lbu", "lhu", "lwu",
                    "flw", "fld"})
_STORES = frozenset({"sb", "sh", "sw", "sd", "fsw", "fsd"})
#: the kinds whose inline code names their integer operands' locals
_INLINE = frozenset({"alu", "auipc", "load", "store", "branch", "jal",
                     "jalr", "vsetvli"})
_XT_MAC = frozenset({"mula", "muls", "mulaw", "mulsw", "mulah", "mulsh"})
_BRANCH_COND = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blt": "({a} ^ 0x8000000000000000) < ({b} ^ 0x8000000000000000)",
    "bge": "({a} ^ 0x8000000000000000) >= ({b} ^ 0x8000000000000000)",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
}


# -- pass 1: resolve ---------------------------------------------------------

def _rx(index: int) -> str:
    """Integer-register read: its local ``x{index}``, with the x0
    constant folded."""
    return "0" if index == 0 else f"x{index}"


def _address(inst) -> str:
    """A load's or store's effective address, ``rs1 + imm`` masked;
    a register alone is already masked."""
    if inst.imm == 0 and inst.rs1:
        return f"x{inst.rs1}"
    return f"({_rx(inst.rs1)} + {inst.imm}) & {_MHEX}"


def _sxw(dst: str, expr: str) -> list[str]:
    """``dst = sext32(expr) & MASK64`` with the call inlined."""
    return [f"v = ({expr}) & 0xFFFFFFFF",
            f"{dst} = v + 0xFFFFFFFF00000000 if v > 0x7FFFFFFF else v"]


def _alu_lines(inst) -> list[str] | None:
    """Specialized source for one integer-computational instruction.

    Each template is the corresponding ``exec_scalar`` handler body
    with the register locals and immediate substituted — the Python
    expressions are identical, so the results are bit-identical.
    Returns ``None`` for mnemonics left to a bare handler call.
    """
    mn = inst.spec.mnemonic
    rd, imm = inst.rd, inst.imm
    a, b = _rx(inst.rs1), _rx(inst.rs2)
    dst = f"x{rd}"
    if mn == "lui":
        return [f"{dst} = {imm & _M64}"]
    if mn == "addi":
        if imm == 0 and inst.rs1:      # mv: the source is already masked
            return [f"{dst} = {a}"]
        return [f"{dst} = ({a} + {imm}) & {_MHEX}"]
    if mn == "add":
        return [f"{dst} = ({a} + {b}) & {_MHEX}"]
    if mn == "sub":
        return [f"{dst} = ({a} - {b}) & {_MHEX}"]
    if mn == "andi":
        # the outer mask only matters for sign-extended (negative) imms
        if imm >= 0:
            return [f"{dst} = {a} & {imm}"]
        return [f"{dst} = ({a} & {imm}) & {_MHEX}"]
    if mn == "ori":
        if imm >= 0:
            return [f"{dst} = {a} | {imm}"]
        return [f"{dst} = ({a} | {imm}) & {_MHEX}"]
    if mn == "xori":
        if imm >= 0:
            return [f"{dst} = {a} ^ {imm}"]
        return [f"{dst} = ({a} ^ {imm}) & {_MHEX}"]
    if mn == "and":
        return [f"{dst} = {a} & {b}"]
    if mn == "or":
        return [f"{dst} = {a} | {b}"]
    if mn == "xor":
        return [f"{dst} = {a} ^ {b}"]
    if mn == "slli":
        return [f"{dst} = ({a} << {imm}) & {_MHEX}"]
    if mn == "srli":
        return [f"{dst} = {a} >> {imm}"]
    if mn == "srai":
        return [f"v = {a}",
                f"{dst} = ((v - 0x10000000000000000 if v > "
                f"0x7FFFFFFFFFFFFFFF else v) >> {imm}) & {_MHEX}"]
    if mn == "sll":
        return [f"{dst} = ({a} << ({b} & 63)) & {_MHEX}"]
    if mn == "srl":
        return [f"{dst} = {a} >> ({b} & 63)"]
    if mn == "sra":
        return [f"v = {a}",
                f"{dst} = ((v - 0x10000000000000000 if v > "
                f"0x7FFFFFFFFFFFFFFF else v) >> ({b} & 63)) & {_MHEX}"]
    if mn == "slt":
        return [f"{dst} = int(({a} ^ 0x8000000000000000) < "
                f"({b} ^ 0x8000000000000000))"]
    if mn == "sltu":
        return [f"{dst} = int({a} < {b})"]
    if mn == "slti":
        return [f"{dst} = int(({a} ^ 0x8000000000000000) < "
                f"{(imm & _M64) ^ _S64})"]
    if mn == "sltiu":
        return [f"{dst} = int({a} < {imm & _M64})"]
    if mn == "addiw":
        return _sxw(dst, f"{a} + {imm}")
    if mn == "addw":
        return _sxw(dst, f"{a} + {b}")
    if mn == "subw":
        return _sxw(dst, f"{a} - {b}")
    if mn == "slliw":
        return _sxw(dst, f"{a} << {imm}")
    if mn == "srliw":
        return _sxw(dst, f"({a} & 0xFFFFFFFF) >> {imm}")
    if mn == "sllw":
        return _sxw(dst, f"{a} << ({b} & 31)")
    if mn == "srlw":
        return _sxw(dst, f"({a} & 0xFFFFFFFF) >> ({b} & 31)")
    if mn == "sraiw":
        return [f"v = {a} & 0xFFFFFFFF",
                f"v = (v - 0x100000000 if v > 0x7FFFFFFF else v) >> {imm}",
                f"{dst} = v & {_MHEX}"]
    if mn == "sraw":
        return [f"v = {a} & 0xFFFFFFFF",
                f"v = (v - 0x100000000 if v > 0x7FFFFFFF else v) "
                f">> ({b} & 31)",
                f"{dst} = v & {_MHEX}"]
    if mn == "mul":
        return [f"{dst} = ({a} * {b}) & {_MHEX}"]
    if mn == "mulw":
        return _sxw(dst, f"{a} * {b}")
    # -- the XT-910 register ALU extensions (paper section VIII) --
    if mn in _XT_MAC:
        op = "+" if mn[3] == "a" else "-"
        if mn.endswith("h"):         # to_signed(x, 16), inlined
            prod = (f"((({a} & 0xFFFF) ^ 0x8000) - 0x8000) * "
                    f"((({b} & 0xFFFF) ^ 0x8000) - 0x8000)")
        else:
            prod = f"{a} * {b}"
        if mn in ("mula", "muls"):
            return [f"{dst} = ({dst} {op} {prod}) & {_MHEX}"]
        return _sxw(dst, f"{dst} {op} {prod}")
    if mn == "srri":
        amount = imm & 63
        return [f"v = {a}",
                f"{dst} = (v >> {amount} | v << {64 - amount}) & {_MHEX}"]
    if mn == "srriw":
        amount = imm & 31
        return [f"v = {a} & 0xFFFFFFFF",
                *_sxw(dst, f"v >> {amount} | v << {32 - amount}")]
    if mn == "addsl":
        return [f"{dst} = ({a} + ({b} << {inst.aux})) & {_MHEX}"]
    if mn in ("ext", "extu"):
        lsb = imm & 0x3F
        width = (imm >> 6 & 0x3F) - lsb + 1
        if width <= 0:
            return None              # the handler raises
        field = f"({a} >> {lsb}) & {(1 << width) - 1}"
        if mn == "extu":
            return [f"{dst} = {field}"]
        sign = 1 << (width - 1)      # to_signed(field, width), inlined
        return [f"{dst} = ((({field}) ^ {sign}) - {sign}) & {_MHEX}"]
    if mn == "ff0":                  # x's highest clear bit is ~x's highest set
        return [f"{dst} = 64 - ({a} ^ {_MHEX}).bit_length()"]
    if mn == "ff1":
        return [f"{dst} = 64 - ({a}).bit_length()"]
    if mn == "rev":
        return [f"{dst} = int.from_bytes(({a}).to_bytes(8, 'little'), "
                f"'big')"]
    if mn == "revw":
        return _sxw(dst, f"int.from_bytes(({a} & 0xFFFFFFFF).to_bytes("
                         f"4, 'little'), 'big')")
    if mn == "tstnbz":
        # bit 7 of (x & 0x7F) + 0x7F | x is set exactly when byte x is
        # non-zero (no byte carries into the next); each clear one,
        # shifted to bit 0 and times 0xFF, is a zero byte's 0xFF
        return [f"v = {a}",
                f"{dst} = ((~(((v & 0x7F7F7F7F7F7F7F7F) + 0x7F7F7F7F7F7F7F7F)"
                f" | v) & 0x8080808080808080) >> 7) * 0xFF"]
    return None


def _resolve(entry) -> str:
    """Classify one tier-2 entry into an emission kind."""
    _handler, inst, _pc, _fall, flags, _rec = entry
    spec = inst.spec
    mn = spec.mnemonic
    if flags == 0:
        if _alu_lines(inst) is not None:
            return "alu"
        return "bare"
    if mn == "vsetvli":
        return "vsetvli"
    if (spec.fmt in ("VL", "VS") and inst.aux
            and active_engine() == "numpy"):
        return "vmem"
    if flags & (FLAG_FENCE_I | FLAG_SFENCE | FLAG_VECTOR):
        return "full"
    if mn == "auipc":
        return "auipc"
    if mn in _LOADS:
        return "load"
    if mn in _STORES:
        return "store"
    if mn in _BRANCH_COND:
        return "branch"
    if mn == "jal":
        return "jal"
    if mn == "jalr":
        return "jalr"
    return "full"


# -- formation ---------------------------------------------------------------

def _successor(block) -> int | None:
    """The PC a superblock goes on at after *block*.

    A block that ends without a terminator (the size limit) falls
    through, a ``jal`` goes to its target, a conditional branch the way
    it went on the block's last complete tier-2 run; ``jalr`` and the
    CSR/SYSTEM/fence terminators end the chain (None), as does a branch
    never seen to complete.
    """
    _handler, inst, pc, fall, _flags, _rec = block.entries[-1]
    mnemonic = inst.spec.mnemonic
    if mnemonic in _BRANCH_COND:
        if block.exit in ((pc + inst.imm) & _M64, fall):
            return block.exit
        return None
    if mnemonic == "jal":
        return (pc + inst.imm) & _M64
    if inst.spec.iclass in _TERMINATORS:
        return None
    return fall


def _guarded(block) -> bool:
    """Whether *block* ends in a guard when a superblock goes on after
    it: a conditional branch whose two directions differ."""
    _handler, inst, pc, fall, _flags, _rec = block.entries[-1]
    return (inst.spec.mnemonic in _BRANCH_COND
            and (pc + inst.imm) & _M64 != fall)


# -- pass 2: emit ------------------------------------------------------------

class _Emitter:
    """Builds one ``run``/``trace`` function body.

    Inline code works on register locals.  ``dirty`` holds the integer
    registers whose local is ahead of ``R`` on the path being emitted,
    since its last flush; :meth:`_flush` stores them back at every
    leave and before any call that reads registers from ``state`` or
    can raise, and the register such a call may write is reloaded
    after it.  Both are markers resolved by :meth:`body`: a reload
    only for a register inline code uses, and a flush on a path that
    has not flushed since a loop's head also stores the registers the
    back-edge leaves dirty.  *loop* emits the ``run`` variant of a
    unit that closes on its head, whose leaves count the iterations
    before theirs.
    """

    def __init__(self, trace: bool, vlen: int, loop: bool = False):
        self.trace = trace
        self.vlen = vlen
        self.loop = loop
        self.lines: list = []          # source lines and markers
        self.params: list[str] = []
        self.indent = "            " if loop else "        "
        self.dirty: set[int] = set()
        self.unflushed = True          # no flush since the head
        self.used: set[int] = set()    # the registers inline code names
        self.needs_side = False        # the sd local required
        self.needs_full_state = False  # rc local and X required (+ sd)
        self.codecs: set[str] = set()  # the U{size}/K{size} locals
        self.needs_vector_file = False  # the D local required
        self.needs_counters = False    # the C local required
        self.needs_errstate = False    # the ES local required

    def out(self, line: str) -> None:
        self.lines.append(self.indent + line)

    def body(self) -> tuple[list[str], list[int]]:
        """The emitted lines with their markers resolved, and the
        registers kept in locals."""
        used = self.used
        # what the back-edge leaves dirty is dirty at the head
        entry = self.dirty if self.loop else set()
        lines = []
        for line in self.lines:
            if isinstance(line, str):
                lines.append(line)
            elif len(line) == 2:       # (indent, register): a reload
                indent, index = line
                if index in used:
                    lines.append(f"{indent}x{index} = R[{index}]")
            else:                      # (indent, dirty, unflushed)
                indent, dirty, unflushed = line
                lines.extend(f"{indent}R[{index}] = x{index}"
                             for index in sorted(dirty | entry
                                                 if unflushed else dirty))
        return lines, sorted(used)

    def _flush(self, indent: str = "") -> None:
        """Store every dirty register local back to ``R``."""
        self.lines.append((self.indent + indent, frozenset(self.dirty),
                           self.unflushed))

    def _call(self) -> None:
        """Before a call on the main path: ``R`` is current after it."""
        self._flush()
        self.dirty.clear()
        self.unflushed = False

    def _reload(self, inst) -> None:
        """After a call: re-read the integer register it may write."""
        if inst.spec.rd_file == "x" and inst.rd:
            self.lines.append((self.indent, inst.rd))

    def _wrote(self, inst) -> None:
        """Inline code wrote *inst*'s integer destination local."""
        if inst.spec.rd_file == "x" and inst.rd:
            self.dirty.add(inst.rd)

    def _retired(self, k: int) -> str:
        """A leave's return value: *k* more than the iterations before."""
        if not self.loop:
            return str(k)
        return f"n0 - s + {k}" if k else "n0 - s"

    def _fill(self, k: int, **fields: str) -> None:
        """One run's record writes: seq, *fields*, vl and sew.

        The record slot belongs to the superblock alone, so the fields
        that are the same on every run (``next_pc`` of a straight-line
        entry, a load's ``mem_size``, a branch's ``target``...) were
        written once, when ``make`` linked it (:func:`_prefill`).
        """
        self.out(f"r{k}.seq = n0 + {k}")
        for name, expr in fields.items():
            self.out(f"r{k}.{name} = {expr}")
        self.out(f"r{k}.vl = vl")
        self.out(f"r{k}.sew = sew")

    def _side(self, mem_addr: str = "0", mem_size: str = "0") -> None:
        """Write the five ``state.side`` fields (a step resets them to
        these defaults before its handler runs)."""
        self.out(f"sd.mem_addr = {mem_addr}")
        self.out(f"sd.mem_size = {mem_size}")
        self.out("sd.taken = False")
        self.out("sd.target = 0")
        self.out("sd.div_bits = 0")

    def _fallback(self, test: str, fast: str, slow: str) -> None:
        """``if test: fast`` and the entry-point call *slow* as its
        ``else`` arm, after the dirty locals are flushed there: the
        call can raise."""
        self.out(f"if {test}: {fast}")
        self.out("else:")
        self._flush("    ")
        self.out(f"    {slow}")

    def _load(self, inst) -> None:
        """A load from address ``a``: read straight out of its page
        ``P[a >> 12]`` when the access stays inside the page (a byte by
        its index, a wider field by the precompiled ``U{size}`` codec,
        ``struct``'s little-endian ``unpack_from``), else by ``ld``
        (``Memory.load_int``).  A page missing from ``P`` is the shared
        zero page ``Z``, so a load from memory nothing has written reads
        0 inline and allocates nothing, as ``load_int`` does.  Under
        MMIO or a wrapped entry point ``P`` is empty and ``Z`` is None,
        so every load goes through ``ld``.  Both read the unsigned
        field; a narrow signed load extends it after."""
        spec = inst.spec
        size = spec.mem_bytes
        call = f"ld(a, {size})"
        if spec.rd_file != "f" and not inst.rd:
            self._call()
            self.out(call)  # keep the access (MMIO side effects)
            return
        if size == 1:
            self.out(f"p = P.get(a >> {PAGE_SHIFT}, Z)")
            test, field = "p", f"p[a & {PAGE_MASK}]"
        else:
            self.codecs.add(f"U{size}")
            self.out(f"o = a & {PAGE_MASK}")
            self.out(f"p = P.get(a >> {PAGE_SHIFT}, Z)")
            test = f"p and o <= {PAGE_SIZE - size}"
            field = f"U{size}(p, o)[0]"
        if spec.rd_file == "f":
            # a single is NaN-boxed; a double is the 64-bit pattern
            box = " | 0xFFFFFFFF00000000" if size == 4 else ""
            self._fallback(test, f"F[{inst.rd}] = {field}{box}",
                           f"F[{inst.rd}] = {call}{box}")
        elif spec.mem_unsigned or size == 8:
            self._fallback(test, f"x{inst.rd} = {field}",
                           f"x{inst.rd} = {call}")
        else:
            bits = size * 8
            self._fallback(test, f"v = {field}", f"v = {call}")
            self.out(f"x{inst.rd} = v + 0x{_M64 + 1 - (1 << bits):X} "
                     f"if v > 0x{(1 << bits - 1) - 1:X} else v")
        self._wrote(inst)

    def _store(self, inst) -> None:
        """A store to address ``a``, into its page when it exists and
        holds the whole access (a byte by its index, a wider field by
        the precompiled ``K{size}`` codec, ``struct``'s little-endian
        ``pack_into``, of the value masked to its width; a register
        already holds 64 bits), else through ``st``
        (``Memory.store_int``, which allocates an untouched page).  A
        store never sees the zero page."""
        spec = inst.spec
        size = spec.mem_bytes
        value = (f"F[{inst.rs2}]" if spec.rs2_file == "f"
                 else _rx(inst.rs2))
        slow = f"st(a, {value}, {size})"
        if size == 1:
            self.out(f"p = P.get(a >> {PAGE_SHIFT})")
            self._fallback("p", f"p[a & {PAGE_MASK}] = {value} & 255", slow)
            return
        self.codecs.add(f"K{size}")
        data = (value if value == "0" or size == 8 else
                f"{value} & 0x{(1 << size * 8) - 1:X}")
        self.out(f"o = a & {PAGE_MASK}")
        self.out(f"p = P.get(a >> {PAGE_SHIFT})")
        self._fallback(f"p and o <= {PAGE_SIZE - size}",
                       f"K{size}(p, o, {data})", slow)

    def _vmem(self, k: int, entry, static_vtype, n: int) -> None:
        """An unmasked unit-stride ``vle``/``vse`` of ``n = vl * width``
        bytes at ``a``: ``_bind_vload``/``_bind_vstore``'s page copy,
        inlined.  It runs when ``vl`` > 0, the page exists and holds
        the whole span, and the register group ends inside v31, and
        counts and records what their apply does; every other case
        (``P`` is empty under MMIO or a wrapped entry point) takes the
        full step, its ``else`` arm."""
        self.needs_vector_file = self.needs_counters = self.needs_side = True
        inst = entry[1]
        spec = inst.spec
        width = spec.mem_bytes
        vlenb = self.vlen // 8
        lo = (inst.rd if spec.fmt == "VL" else inst.rs3) * vlenb
        self.out(f"a = {_rx(inst.rs1)}")
        self.out("v = state.vl")
        self.out(f"n = v * {width}" if width > 1 else "n = v")
        self.out(f"o = a & {PAGE_MASK}")
        self.out(f"p = P.get(a >> {PAGE_SHIFT})")
        self.out(f"if n and p and o + n <= {PAGE_SIZE} and "
                 f"n <= {32 * vlenb - lo}:")
        self.indent += "    "
        self.out(f"D[{lo}:{lo} + n] = p[o:o + n]" if spec.fmt == "VL"
                 else f"p[o:o + n] = D[{lo}:{lo} + n]")
        self.out('C["batched_ops"] += 1')
        self.out('C["elems_total"] += v')
        self.out('C["elems_active"] += v')
        self._side("a", "n")
        if self.trace:
            self._fill(k, mem_addr="a", mem_size="n")
        self.indent = self.indent[:-4]
        self.out("else:")
        self.indent += "    "
        # the first arm flushed nothing
        dirty, unflushed = set(self.dirty), self.unflushed
        self._full(k, entry, static_vtype, n)
        self.dirty, self.unflushed = dirty, unflushed
        self.indent = self.indent[:-4]

    def _vapply(self, k: int, entry, static_vtype) -> None:
        """A batched vector op as a direct call of its ``apply``, bound
        once per linked unit under the static vtype
        (``exec_vector.direct_op``): its handler's counting inlined, and
        ``state.side`` and the record left as the full step leaves them.
        The op touches no memory, so it cannot raise and needs neither
        the synced ``pc``/``instret`` nor the ``try``; a ``.vx`` op
        reads its integer register from ``state``, and an op with an
        integer ``rd`` writes it there.  An FP op
        of the trace variant opens its own ``np.errstate``; the run
        variant's runs inside ``Emulator.run``'s."""
        op = direct_op(entry[1], static_vtype, self.vlen)
        self.needs_side = self.needs_counters = True
        self.params.append(f"a{k}=_vapply(E[{k}][1], {static_vtype!r})")
        if self.trace:
            vl = "vl"                # the trace variant tracks state.vl
        else:
            vl = "v"
            self.out("v = state.vl")
        if op.specializable:
            self.out('C["specialized_ops"] += 1')
        if op.counted:               # unmasked
            self.out('C["batched_ops"] += 1')
            self.out(f'C["elems_total"] += {vl}')
            self.out(f'C["elems_active"] += {vl}')
        spec = entry[1].spec
        if "x" in (spec.rs1_file, spec.rs2_file):
            self._call()             # a ``.vx`` operand read from R
        if op.fp and self.trace:
            self.needs_errstate = True
            self.out('with ES(all="ignore"):')
            self.out(f"    a{k}({vl}, None)")
        else:
            self.out(f"a{k}({vl}, None)")
        self._reload(entry[1])
        self._side()
        if self.trace:
            self._fill(k)

    def _leave(self, retired: int, pc: str, indent: str = "",
               guard: bool = False) -> None:
        """Return to the dispatcher at *pc*, *retired* instructions into
        this iteration; a *guard* counts a side exit."""
        self._flush(indent)
        if guard:
            self.out(f"{indent}eng.side_exits += 1")
        self.out(f"{indent}state.instret = n0 + {retired}" if retired
                 else f"{indent}state.instret = n0")
        self.out(f"{indent}state.pc = {pc}")
        self.out(f"{indent}return {self._retired(retired)}")

    def back_edge(self, m: int, head: int) -> None:
        """The end of one *m*-instruction iteration: go round again
        while another whole one fits the budget and no machine check is
        pending, else leave at the head."""
        self.out(f"n0 += {m}")
        self.out("if n0 > L or emu._pending_mcheck is not None:")
        self._leave(0, str(head), indent="    ")

    def emit(self, k: int, entry, kind, n: int,
             follow: int | None) -> None:
        """Emit position *k* of an *n*-instruction superblock.

        *follow* is the PC the superblock goes on at when *entry* ends
        a constituent before the last, or the last of a loop (None
        otherwise): a conditional branch there becomes a guard that
        leaves on the other direction, a ``jal`` links and continues.
        """
        _handler, inst, pc, fall, _flags, _rec = entry
        spec = inst.spec
        static_vtype = None
        if isinstance(kind, tuple):  # (vector kind, (sew, lmul) | None)
            kind, static_vtype = kind
        self.out(f"# @{k}")          # _position() maps lines back to k
        if self.trace:
            self.params.append(f"r{k}=records[{k}]")
        if kind in _INLINE:
            self.used.update(index for index, file in (
                (inst.rs1, spec.rs1_file), (inst.rs2, spec.rs2_file),
                (inst.rd, spec.rd_file)) if index and file == "x")
        elif kind == "vmem" and inst.rs1:
            self.used.add(inst.rs1)
        if kind == "alu":
            if inst.rd:
                for line in _alu_lines(inst):
                    self.out(line)
                self._wrote(inst)
            if self.trace:
                self._fill(k)
            return
        if kind == "bare":
            self.params.append(f"h{k}=E[{k}][0]")
            self.params.append(f"i{k}=E[{k}][1]")
            self._call()
            self.out(f"h{k}(state, i{k})")
            self._reload(inst)
            if self.trace:
                self._fill(k)
            return
        if kind == "auipc":
            if inst.rd:
                self.out(f"x{inst.rd} = {(pc + inst.imm) & _M64}")
                self._wrote(inst)
            if self.trace:
                self._fill(k)
            return
        if kind == "load":
            self.out(f"a = {_address(inst)}")
            self._load(inst)
            if self.trace:
                self._fill(k, mem_addr="a")
            return
        if kind == "store":
            self.out(f"a = {_address(inst)}")
            self._store(inst)
            if self.trace:
                self._fill(k, mem_addr="a")
            return
        if kind == "vsetvli":
            # MachineState.set_vtype with the vtype literal folded in
            sew, lmul = decode_vtype(inst.imm)
            vlmax = self.vlen * lmul // sew
            self.out(f"state.vtype = {inst.imm}")
            self.out(f"state.sew = {sew}")
            self.out(f"state.lmul = {lmul}")
            if inst.rs1:
                self.out(f"v = x{inst.rs1}")
                granted = "v"
                self.out(f"state.vl = v = v if v < {vlmax} else {vlmax}")
            else:                    # AVL = VLEN * 8 >= VLMAX
                granted = str(vlmax)
                self.out(f"state.vl = {vlmax}")
            if inst.rd:
                self.out(f"x{inst.rd} = {granted}")
                self._wrote(inst)
            if self.trace:
                self.out(f"vl = {granted}")
                self.out(f"sew = {sew}")
                self._fill(k)
            return
        if kind == "branch":
            target = (pc + inst.imm) & _M64
            cond = _BRANCH_COND[spec.mnemonic].format(
                a=_rx(inst.rs1), b=_rx(inst.rs2))
            next_pc = f"{target} if t else {fall}"
            if follow is None:
                self.out(f"t = {cond}")
                if self.trace:
                    self._fill(k, taken="t", next_pc=next_pc)
                self._leave(n, next_pc)
                return
            if target == fall:              # both ways go on
                if self.trace:
                    self.out(f"r{k}.taken = {cond}")
                    self._fill(k)
                return
            other = fall if follow == target else target
            if self.trace:
                self.out(f"t = {cond}")
                self._fill(k, taken="t", next_pc=next_pc)
                self.out("if t:" if other == target else "if not t:")
            else:
                self.out(f"if {cond}:" if other == target
                         else f"if not ({cond}):")
            self._leave(k + 1, str(other), indent="    ", guard=True)
            return
        if kind == "jal":
            target = (pc + inst.imm) & _M64
            if inst.rd:
                self.out(f"x{inst.rd} = {(pc + inst.size) & _M64}")
                self._wrote(inst)
            if self.trace:
                self._fill(k)
            if follow is None:
                self._leave(n, str(target))
            return
        if kind == "jalr":
            self.out(f"t = ({_rx(inst.rs1)} + {inst.imm})"
                     f" & 0xFFFFFFFFFFFFFFFE")
            if inst.rd:
                self.out(f"x{inst.rd} = {(pc + inst.size) & _M64}")
                self._wrote(inst)
            if self.trace:
                self._fill(k, target="t", next_pc="t")
            self._leave(n, "t")
            return
        if kind == "vmem":
            self._vmem(k, entry, static_vtype, n)
        elif kind == "vapply":
            self._vapply(k, entry, static_vtype)
        else:
            self._full(k, entry, static_vtype, n)

    def _full(self, k: int, entry, static_vtype, n: int) -> None:
        """The full step of position *k*: the handler call with
        ``state`` synced, and what it raises retired, as on every tier,
        by ``Emulator._retire_raised`` (a fence's sync likewise by
        ``Emulator._sync_instruction_stream``)."""
        _handler, inst, pc, fall, flags, _rec = entry
        spec = inst.spec
        self.needs_side = self.needs_full_state = True
        vector = bool(flags & FLAG_VECTOR)
        if vector:
            # A handler of this variant's own for the instruction; a
            # static vtype (a constant-imm vsetvli dominates the entry
            # inside its block) is passed on and counted as specialized.
            # The run variant only runs under Emulator.run's errstate
            # scope, so its FP handlers open none per op.
            self.params.append(f"h{k}=_vbind(E[{k}][1], {static_vtype!r}, "
                               f"{self.trace})")
        else:
            self.params.append(f"h{k}=E[{k}][0]")
        self.params.append(f"i{k}=E[{k}][1]")
        terminator = spec.iclass in _TERMINATORS
        rec = f"r{k}" if self.trace else "None"
        self._call()
        self.out(f"state.pc = {pc}")
        self.out(f"state.instret = n0 + {k}")
        self._side()
        self.out(f"rc(({pc}, i{k}))")
        self.out("try:")
        # a vector handler's return value is discarded: it falls through
        self.out(f"    h{k}(state, i{k})" if vector
                 else f"    np = h{k}(state, i{k})")
        self.out("except X as exc:")
        self.out(f"    emu._retire_raised(exc, {fall}, {rec})")
        self.out(f"    return {self._retired(k + 1)}")
        self._reload(inst)
        if flags & (FLAG_FENCE_I | FLAG_SFENCE):
            self.out(f"emu._sync_instruction_stream("
                     f"{bool(flags & FLAG_SFENCE)})")
        if not vector:
            self.out("if np is None:")
            self.out(f"    np = {fall}")
        if self.trace:
            self.out(f"r{k}.seq = state.instret")
            self.out(f"r{k}.next_pc = {fall if vector else 'np'}")
            self.out(f"r{k}.taken = sd.taken")
            self.out(f"r{k}.target = sd.target")
            self.out(f"r{k}.mem_addr = sd.mem_addr")
            self.out(f"r{k}.mem_size = sd.mem_size")
            self.out("vl = state.vl")
            self.out("sew = state.sew")
            self.out(f"r{k}.vl = vl")
            self.out(f"r{k}.sew = sew")
            self.out(f"r{k}.div_bits = sd.div_bits")
        if terminator:
            self._leave(n, "np")
        elif not vector:
            self.out(f"if np != {fall}:")
            self._leave(k + 1, "np", indent="    ")


def _prefill(entry, kind) -> list[tuple[str, object]]:
    """The record fields of *entry* that every run leaves the same and
    the slot's constructor does not already hold (it has ``next_pc`` =
    the fall-through and zeros elsewhere): ``make`` writes them once."""
    _handler, inst, pc, _fall, _flags, _rec = entry
    if kind in ("load", "store"):
        return [("mem_size", inst.spec.mem_bytes)]
    if kind == "branch":
        return [("target", (pc + inst.imm) & _M64)]
    if kind == "jal":
        target = (pc + inst.imm) & _M64
        return [("next_pc", target), ("taken", True), ("target", target)]
    if kind == "jalr":
        return [("taken", True)]
    return []


def _kinds(block, vlen: int) -> list:
    """Pass 1 over one constituent, with its static vtypes.

    Inside one straight-line block, a constant-imm vsetvli fixes
    SEW/LMUL for every later vector entry (vsetvl takes vtype from a
    register, so it resets the knowledge).  The scan restarts at every
    constituent, so a vector op is specialized exactly where its own
    block proves it.  A full-step vector entry whose op
    ``exec_vector.direct_op`` accepts under that vtype becomes a
    ``vapply``: a choice made from the text, VLEN and the engine only,
    as the code cache's key is.
    """
    kinds: list = [_resolve(entry) for entry in block.entries]
    static = None
    for idx, entry in enumerate(block.entries):
        mn = entry[1].spec.mnemonic
        if mn == "vsetvli":
            static = decode_vtype(entry[1].imm)
        elif mn == "vsetvl":
            static = None
        elif kinds[idx] in ("full", "vmem") and (entry[4] & FLAG_VECTOR):
            kind = kinds[idx]
            if (kind == "full"
                    and direct_op(entry[1], static, vlen) is not None):
                kind = "vapply"
            kinds[idx] = (kind, static)
    return kinds


def _closing(chain: Sequence) -> int:
    """How many constituents of *chain* its longest prefix that closes
    on the head has (the next block is the head again, or the last
    block's successor is), or 0 when none does."""
    head = chain[0].start
    for count in range(len(chain), 0, -1):
        following = (chain[count].start if count < len(chain)
                     else _successor(chain[-1]))
        if following == head:
            return count
    return 0


def emit_source(chain: Sequence, trace: bool, vlen: int) -> str:
    """Emit the ``make(E, records)`` factory module of one variant of
    the superblock that runs the tier-2 blocks *chain* in order,
    entered at the first: ``trace`` fills *records*, ``run`` does not
    record.  *vlen* folds into each ``vsetvli``'s VLMAX.

    The ``run`` variant of a chain that closes on its head runs its
    longest closing prefix as a ``while True:`` loop, iterating while
    another whole iteration fits the budget ``B`` the dispatcher passes
    and no machine check is pending; the rest of the chain is not
    emitted.  Both variants keep the integer registers they use in
    locals, read once at entry."""
    closing = 0 if trace else _closing(chain)
    blocks = chain[:closing] if closing else chain
    entries: list = []
    kinds: list = []
    follows: list = []
    for index, block in enumerate(blocks):
        entries += block.entries
        kinds += _kinds(block, vlen)
        follows += [None] * (len(block.entries) - 1)
        follows.append(chain[index + 1].start if index + 1 < len(chain)
                       else chain[0].start if closing else None)
    n = len(entries)
    variant = "trace" if trace else "run"
    parts = [f"# generated by repro.sim.codegen: {variant} of the "
             f"superblock at {chain[0].start:#x} ({len(chain)} blocks, "
             f"{sum(len(block.entries) for block in chain)} insts"
             + (f", a {n}-instruction loop" if closing else "") + ")",
             "def make(E, records):"]
    emitter = _Emitter(trace, vlen, loop=bool(closing))
    for k, (entry, kind, follow) in enumerate(zip(entries, kinds, follows)):
        emitter.emit(k, entry, kind, n, follow)
    last_kind = kinds[-1]
    if closing:
        emitter.back_edge(n, chain[0].start)
    elif last_kind not in ("branch", "jal", "jalr") and not (
            last_kind == "full"
            and entries[-1][1].spec.iclass in _TERMINATORS):
        # fell off the end of a straight-line (or truncated) block
        emitter._leave(n, str(entries[-1][3]))
    params = "".join(f", {p}" for p in emitter.params)
    params += "".join(f", {name}=_{name}"
                      for name in sorted(emitter.codecs))
    if emitter.needs_full_state:
        params += ", X=_RAISED"
    if emitter.needs_errstate:
        params += ", ES=_errstate"
    if trace:
        prefill = tuple((k, name, value)
                        for k, (entry, kind) in enumerate(zip(entries, kinds))
                        for name, value in _prefill(entry, kind))
        if prefill:
            parts.append(f"    for k, name, value in {prefill!r}:")
            parts.append("        setattr(records[k], name, value)")
    parts.append(f"    def {variant}(emu, state, R, F, ld, st, P, Z, "
                 f"eng, B{params}):")
    parts.append("        n0 = state.instret")
    if closing:
        parts.append("        s = n0")
        parts.append(f"        L = n0 + B - {n}")
    if trace:
        parts.append("        vl = state.vl")
        parts.append("        sew = state.sew")
    if emitter.needs_side:
        parts.append("        sd = state.side")
    if emitter.needs_full_state:
        parts.append("        rc = emu._recent.append")
    if emitter.needs_vector_file:
        parts.append("        D = state.vbuf.data")
    if emitter.needs_counters:
        parts.append("        C = state.vec_counters")
    lines, used = emitter.body()
    parts.extend(f"        x{index} = R[{index}]" for index in used)
    if closing:
        parts.append("        while True:")
    parts.extend(lines)
    parts.append(f"    return {variant}")
    parts.append("")
    return "\n".join(parts)


def _filename(start: int) -> str:
    return f"<codegen:{start:#x}>"


class Superblock:
    """One compiled unit: a chain of tier-2 blocks entered at its head.

    ``entries`` are the constituents' tier-2 entries in order.
    ``variants`` holds ``[run, trace]``, indexed by whether the caller
    records, each linked on first use.  The trace variant fills record
    slots of the unit's own: ``records`` is the batch of a run to the
    end, and a run that leaves after *k* instructions yields
    ``prefix(k)`` — one persistent
    :class:`~repro.sim.trace.RecordBatch` per exit position, so a
    timing model keeps its per-batch resolution across side exits.
    ``guards`` are the exit positions of the internal conditional
    branches.
    """

    __slots__ = ("start", "n", "blocks", "ranges", "entries", "records",
                 "variants", "guards", "marks", "_prefixes")

    def __init__(self, blocks: list):
        self.start = blocks[0].start
        self.blocks = blocks
        self.ranges = tuple((block.start, block.end) for block in blocks)
        self.entries = [entry for block in blocks for entry in block.entries]
        self.n = len(self.entries)
        self.records: RecordBatch | None = None
        self.variants: list = [None, None]
        guards = set()
        position = 0
        for block in blocks[:-1]:
            position += len(block.entries)
            if _guarded(block):
                guards.add(position)
        self.guards = frozenset(guards)
        #: per variant, once a raise needs it: the source line of each
        #: ``# @k`` marker and its *k* (:func:`_position`)
        self.marks: list = [None, None]
        self._prefixes: dict[int, RecordBatch] = {}

    def link(self, variant: int, code, state) -> None:
        """Exec one generated module and bind its function; a ``vapply``
        entry's apply is bound to *state*."""
        if variant and self.records is None:
            self.records = RecordBatch(
                DynInst(seq=0, pc=pc, inst=inst, next_pc=fall)
                for _handler, inst, pc, fall, _flags, _rec in self.entries)
        module_globals = {"_RAISED": RAISED, "_vbind": bind_handler,
                          "_vapply": partial(bind_apply, state),
                          "_errstate": np.errstate, **_CODECS}
        exec(code, module_globals)
        self.variants[variant] = module_globals["make"](self.entries,
                                                        self.records)

    def prefix(self, retired: int) -> RecordBatch:
        """The batch of a run that left after *retired* instructions."""
        batch = self._prefixes.get(retired)
        if batch is None:
            batch = self._prefixes[retired] = RecordBatch(
                self.records[:retired])
        return batch

    def constituent(self, index: int):
        """The block position *index* belongs to."""
        for block in self.blocks:
            if index < len(block.entries):
                return block
            index -= len(block.entries)
        return self.blocks[-1]


def _generated(unit: Superblock, exc: Exception):
    """The innermost traceback entry of *exc* in *unit*'s generated
    function, or None."""
    name = _filename(unit.start)
    found = None
    tb = exc.__traceback__
    while tb is not None:
        if tb.tb_frame.f_code.co_filename == name:
            found = tb
        tb = tb.tb_next
    return found


def _position(unit: Superblock, variant: int, exc: Exception,
              vlen: int) -> int:
    """The position of *unit* that raised *exc* in *variant*: the
    generated frame's line, mapped back through the ``# @k`` markers of
    its source (which :func:`emit_source` reproduces exactly).  The
    markers are read once per unit and variant, on its first raise."""
    if unit.marks[variant] is None:
        lines, positions = [0], [0]
        source = emit_source(unit.blocks, bool(variant), vlen)
        for number, text in enumerate(source.splitlines(), 1):
            text = text.strip()
            if text.startswith("# @"):
                lines.append(number)
                positions.append(int(text[3:]))
        unit.marks[variant] = (lines, positions)
    lines, positions = unit.marks[variant]
    tb = _generated(unit, exc)
    line = tb.tb_lineno if tb is not None else 0
    return positions[bisect.bisect_right(lines, line) - 1]


# -- the engine --------------------------------------------------------------

def default_cache_dir() -> str | None:
    """Resolve the on-disk code cache directory (None = disabled)."""
    if os.environ.get("REPRO_CODE_CACHE", "1").lower() in ("0", "off", ""):
        return None
    explicit = os.environ.get("REPRO_CODE_CACHE_DIR")
    if explicit:
        return explicit
    return os.path.join(os.path.expanduser("~"), ".cache",
                        "repro-codegen")


class CodegenEngine:
    """Superblock cache + dispatcher for one :class:`Emulator`, which
    it refers back to weakly (as :class:`BlockEngine` does)."""

    def __init__(self, emulator, cache_dir: str | None = None):
        self._emu = weakref.ref(emulator)
        self.blocks = emulator._engine()     # the tier-2 BlockEngine
        #: head pc -> its superblock (one unit per start pc)
        self.compiled: dict[int, Superblock] = {}
        #: block start -> heads of the superblocks that contain it
        self._containing: dict[int, set[int]] = {}
        self.cache_dir = (cache_dir if cache_dir is not None
                          else default_cache_dir())
        #: (constituent ranges, variant) -> (code digest, module code)
        self._disk: dict[tuple, tuple[bytes, object]] = {}
        self._disk_loaded = False
        self._dirty = False
        self._mutated = False
        # counters (surfaced as sim.codegen.* through repro.obs)
        self.blocks_compiled = 0
        self.compile_s = 0.0
        self.executions = 0
        self.superblocks = 0
        self.side_exits = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_corrupt = 0
        self.invalidations = 0
        self.smc_drops = 0
        self.evictions = 0
        self.persisted = 0

    @property
    def emu(self):
        return self._emu()

    # -- invalidation (wired from BlockEngine) -------------------------------

    def invalidate(self) -> None:
        """``fence.i``/``sfence.vma``: drop every superblock."""
        if self.compiled:
            self.compiled.clear()
            self.invalidations += 1
        self._containing.clear()
        self._disk.clear()
        self._mutated = True

    def drop(self, start: int) -> None:
        """Tier 2 detected self-modified code in the block at *start*:
        drop every superblock that contains it.  Stored code for it
        misses on its own, on the digest of the constituent bytes."""
        for head in self._containing.pop(start, ()):
            self.compiled.pop(head, None)
        self.smc_drops += 1
        self._mutated = True

    # -- the persistent code cache -------------------------------------------

    def _cache_key(self) -> str:
        program = self.emu.program
        text_hash = hashlib.sha256(bytes(program.text)).hexdigest()
        raw = (f"{source_digest()}:{importlib.util.MAGIC_NUMBER.hex()}:"
               f"{text_hash}:{program.text_base}:{self.emu.state.vlen}:"
               f"{MAX_BLOCK_INSTS}:{active_engine()}")
        return hashlib.sha256(raw.encode()).hexdigest()[:24]

    def _cache_path(self) -> str | None:
        if self.cache_dir is None:
            return None
        return os.path.join(self.cache_dir, self._cache_key() + ".cgc")

    def _load_disk(self) -> None:
        self._disk_loaded = True
        path = self._cache_path()
        if path is None:
            return
        try:
            with open(path, "rb") as handle:
                payload = marshal.loads(handle.read())
            source, magic, units = payload
            if (source != source_digest()
                    or magic != importlib.util.MAGIC_NUMBER):
                raise ValueError("stale codegen cache header")
            self._disk = {key: (digest, code)
                          for key, (digest, code) in units.items()}
        except FileNotFoundError:
            pass
        except Exception:
            # Corrupt/stale cache files are discarded, never fatal.
            self.disk_corrupt += 1
            self._disk = {}
            try:
                os.unlink(path)
            except OSError:
                pass

    def persist(self) -> None:
        """Write newly compiled superblocks to disk (atomic, prunable).

        Skipped when the run observed any code mutation — a cache
        entry must only describe immutable text.
        """
        path = self._cache_path()
        if path is None or not self._dirty or self._mutated:
            return
        self._dirty = False
        payload = marshal.dumps(
            (source_digest(), importlib.util.MAGIC_NUMBER, dict(self._disk)))
        try:
            os.makedirs(self.cache_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(dir=self.cache_dir,
                                            suffix=".tmp")
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(tmp_path, path)
            self.persisted += 1
            self._prune()
        except OSError:
            return  # a read-only cache dir degrades silently

    def _prune(self) -> None:
        try:
            entries = [os.path.join(self.cache_dir, name)
                       for name in os.listdir(self.cache_dir)
                       if name.endswith(".cgc")]
            if len(entries) <= DISK_CACHE_FILES:
                return
            entries.sort(key=lambda p: os.path.getmtime(p))
            for stale in entries[:len(entries) - DISK_CACHE_FILES]:
                os.unlink(stale)
        except OSError:
            pass

    # -- formation and compilation -------------------------------------------

    def _chain(self, head) -> list:
        """The blocks of the superblock entered at *head*: each block's
        successor in turn, while it is a block tier 2 has already run
        and the total stays within ``MAX_BLOCK_INSTS``.  A successor may
        be a block already chained — a back-edge to the head unrolls
        the loop."""
        translated = self.blocks.blocks
        chain = [head]
        size = len(head.entries)
        while True:
            block = translated.get(_successor(chain[-1]))
            if (block is None or not block.run_count
                    or size + len(block.entries) > MAX_BLOCK_INSTS):
                return chain
            chain.append(block)
            size += len(block.entries)

    def form(self, head) -> Superblock:
        """Form the superblock at *head* and cache it."""
        if len(self.compiled) >= CODE_CACHE_LIMIT:
            self.compiled.clear()
            self._containing.clear()
            self.evictions += 1
        chain = self._chain(head)
        unit = self.compiled[head.start] = Superblock(chain)
        for block in chain:
            self._containing.setdefault(block.start, set()).add(head.start)
        if len(chain) > 1:
            self.superblocks += 1
        return unit

    def link(self, unit: Superblock, variant: int):
        """Compile (or warm-link) one variant of *unit*."""
        if not self._disk_loaded:
            self._load_disk()
        state = self.emu.state
        # one sha256 over the bytes of every constituent range
        load = state.memory.load_bytes
        hasher = hashlib.sha256()
        for start, end in dict.fromkeys(unit.ranges):
            hasher.update(load(start, end - start))
        digest = hasher.digest()
        key = (unit.ranges, variant)
        stored = self._disk.get(key)
        if stored is not None and stored[0] == digest:
            self.disk_hits += 1
            code = stored[1]
        else:
            self.disk_misses += 1
            began = time.perf_counter()
            source = emit_source(unit.blocks, bool(variant), state.vlen)
            code = compile(source, _filename(unit.start), "exec")
            self.compile_s += time.perf_counter() - began
            self.blocks_compiled += 1
            self._disk[key] = (digest, code)
            self._dirty = True
        unit.link(variant, code, state)
        return unit.variants[variant]

    # -- dispatch ------------------------------------------------------------

    def _crash(self, unit: Superblock, variant: int, exc: Exception):
        from .emulator import EmulatorError

        if isinstance(exc, EmulatorError):
            raise exc
        index = _position(unit, variant, exc, self.emu.state.vlen)
        _handler, inst, pc, _fall, _flags, _rec = unit.entries[index]
        where = (f"{inst.spec.mnemonic} (block "
                 f"{unit.constituent(index).start:#x} of the superblock at "
                 f"{unit.start:#x})")
        raise EmulatorError(self.emu._crash_report(pc, where, exc)) from exc

    def _retire_escaped(self, unit: Superblock, variant: int,
                        exc: Exception) -> tuple[int, list | None]:
        """Retire the load or store of *unit* whose ``ld``/``st`` call
        raised *exc* (one of ``RAISED``, from a wrapped ``Memory`` entry
        point or an MMIO device), as tier 1 would; the full step
        retires its own, and a bare handler or ``vapply`` raises none.

        The generated frame's ``n0`` (the iteration's first instret)
        and ``a`` (the address) set ``state.pc``, ``instret`` and
        ``side`` as the handler would have.  Returns, like
        :meth:`BlockEngine.execute`, the instructions the call retired
        and their batch (None when not recording), which ends in a
        fresh record: the unit's own slot holds fields ``make`` wrote
        once for every later run.
        """
        state = self.emu.state
        k = _position(unit, variant, exc, state.vlen)
        frame = _generated(unit, exc).tb_frame.f_locals
        _handler, inst, pc, fall, _flags, _rec = unit.entries[k]
        n0 = frame["n0"]
        state.pc = pc
        state.instret = n0 + k
        side = state.side
        side.mem_addr = frame["a"]
        side.mem_size = inst.spec.mem_bytes
        side.taken = False
        side.target = 0
        side.div_bits = 0
        rec = DynInst(0, pc, inst, fall) if variant else None
        self.emu._retire_raised(exc, fall, rec)
        retired = n0 - frame.get("s", n0) + k + 1
        return retired, (unit.records[:k] + [rec] if variant else None)

    def dispatch(self, limit: int, record: bool) -> Iterator[Sequence]:
        """Tier 3's dispatch loop: superblocks where they exist, the
        tier-2 engine (whose first run of a block earns it a place in
        superblocks) elsewhere.

        A block's second dispatch forms the superblock headed by it.
        Yields the DynInst batches (slots reused) when *record*; else
        runs each superblock's non-recording variant and yields nothing
        for it, for :meth:`Emulator.run` to drain.  Each call of a
        generated function gets the steps left, which a looping ``run``
        variant never passes.  Newly compiled
        superblocks are persisted to the on-disk cache on the way out.
        """
        # the generator holds the emulator; the engine's reference is weak
        return self._batches(self.emu, limit, record)

    def _batches(self, emu, limit: int,
                 record: bool) -> Iterator[Sequence]:
        state = emu.state
        memory = state.memory
        regs, fregs = state.regs, state.fregs
        load, store = memory.load_int, memory.store_int
        # the pages generated loads and stores access directly, and the
        # zero page a load reads an untouched one from, read once per
        # dispatch like load/store; none (so every access goes through
        # those) where Memory refuses direct access
        pages, zero = memory.store_pages, _ZERO_PAGE
        if pages is None:
            pages, zero = {}, None
        compiled_map = self.compiled
        engine = self.blocks
        translated = engine.blocks
        variant = 1 if record else 0      # Superblock.variants index
        steps = 0
        try:
            while not emu.halted and steps < limit:
                if emu._pending_mcheck is not None:
                    emu._deliver_machine_check()
                pc = state.pc
                unit = compiled_map.get(pc)
                if unit is None:
                    block = translated.get(pc)
                    if block is not None and block.run_count:
                        unit = self.form(block)
                if unit is not None and unit.n <= limit - steps:
                    run = unit.variants[variant]
                    if run is None:
                        run = self.link(unit, variant)
                    self.executions += 1
                    try:
                        retired = run(emu, state, regs, fregs, load, store,
                                      pages, zero, self, limit - steps)
                    except RAISED as exc:
                        retired, batch = self._retire_escaped(unit, variant,
                                                              exc)
                        steps += retired
                        if batch:
                            yield batch
                        continue
                    except Exception as exc:
                        self._crash(unit, variant, exc)
                    steps += retired
                    if record:
                        yield (unit.records if retired == unit.n
                               else unit.prefix(retired))
                    continue
                block = translated.get(pc)
                if block is None:
                    try:
                        block = engine.translate(pc)
                    except Trap as trap:
                        yield (emu._fetch_trap(pc, trap),)
                        steps += 1
                        continue
                retired, batch = engine.execute(block, limit - steps, record)
                steps += retired
                if retired == len(block.entries):
                    block.exit = state.pc
                if batch:
                    yield batch
            if not emu.halted:
                raise emu._watchdog(limit)
        finally:
            self.persist()

    # -- metrics -------------------------------------------------------------

    def counters(self) -> dict:
        return {
            "blocks_compiled": self.blocks_compiled,
            "compile_s": round(self.compile_s, 6),
            "compiled_blocks": len(self.compiled),
            "executions": self.executions,
            "superblocks": self.superblocks,
            "side_exits": self.side_exits,
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "disk_corrupt": self.disk_corrupt,
            "invalidations": self.invalidations,
            "smc_drops": self.smc_drops,
            "evictions": self.evictions,
            "persisted": self.persisted,
        }


__all__ = ["CodegenEngine", "Superblock", "CODE_CACHE_LIMIT",
           "emit_source", "default_cache_dir"]
