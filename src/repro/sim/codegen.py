"""Tier-3 specializing translator: per-block Python codegen.

Tier-2 (:mod:`repro.sim.blockcache`) already decodes each basic block
once, but still pays per retired instruction for the dispatch loop:
tuple unpacking, a flags test, a handler call through a function
pointer, and the bookkeeping branches.  This module removes that last
layer: for every :class:`~repro.sim.blockcache.TranslatedBlock` it
emits *specialized straight-line Python source* — register indices,
immediates, fall-through PCs and handler references constant-folded
into the text — ``compile()``s it once, and runs the code object in
place of the interpretation loop.

Translation is two-pass, resolve-then-emit: pass one classifies every
entry of the tier-2 block (inline-specializable ALU/load/store/branch,
bare handler call, or the full ``step()``-equivalent "cold dance" for
CSR/AMO/DIV/system/vector instructions); pass two emits the source for
a ``make(E)`` factory whose inner ``run``/``trace`` functions bind the
handlers, instructions and record slots as default arguments (fast
locals, zero global lookups in the hot path).

Persistent code cache: compiled module code objects are marshalled to
disk keyed by (the ``repro`` source digest, interpreter bytecode magic,
text section sha256, text base, VLEN, block size limit, vector engine),
so an edit to the emitter or any handler misses, and a second run of
the same workload skips source generation and ``compile()`` entirely —
each stored block additionally carries a digest of its code bytes that
is re-checked at link time, so stale entries miss instead of silently
reusing.  A corrupt cache file is discarded (and counted), never
fatal.  ``fence.i``/``sfence.vma`` invalidate compiled blocks exactly
like tier-2, and nothing is persisted from a run that observed any
code mutation.

Semantics contract: the retired ``DynInst`` stream, architectural
state, exit code and memory image are bit-identical to tier-2 (and
therefore to ``Emulator.step``).  Two accepted diagnostic deviations,
mirroring tier-2's own envelope: inlined instructions do not append to
the crash-backtrace ring, and self-modifying stores are only detected
by the tier-2 first-run check (tier-3 only executes blocks tier-2 has
already run once) or an explicit ``fence.i``.
"""

from __future__ import annotations

import hashlib
import importlib.util
import marshal
import os
import tempfile
import time
from collections.abc import Iterator, Sequence

from .. import source_digest
from ..isa.instructions import InstrClass
from .exec_scalar import EcallShim, Trap
from .exec_vector import active_engine, bind_handler
from .syscalls import ExitRequest
from .blockcache import (
    FLAG_FENCE_I,
    FLAG_SFENCE,
    FLAG_VECTOR,
    MAX_BLOCK_INSTS,
    _fill,
)

#: compiled blocks kept in memory before a wholesale flush
CODE_CACHE_LIMIT = 4096
#: on-disk cache files kept before mtime-based pruning
DISK_CACHE_FILES = 64

_EXC = (EcallShim, ExitRequest, Trap)
_M64 = 0xFFFFFFFFFFFFFFFF
_MHEX = "0xFFFFFFFFFFFFFFFF"
_S64 = 0x8000000000000000

_LOADS = frozenset({"lb", "lh", "lw", "ld", "lbu", "lhu", "lwu",
                    "flw", "fld"})
_STORES = frozenset({"sb", "sh", "sw", "sd", "fsw", "fsd"})
_BRANCH_COND = {
    "beq": "{a} == {b}",
    "bne": "{a} != {b}",
    "blt": "({a} ^ 0x8000000000000000) < ({b} ^ 0x8000000000000000)",
    "bge": "({a} ^ 0x8000000000000000) >= ({b} ^ 0x8000000000000000)",
    "bltu": "{a} < {b}",
    "bgeu": "{a} >= {b}",
}


def _cold(emu, exc, fall, rec):
    """The exceptional retire paths, shared by every compiled block.

    Line-for-line equivalent of the ``except`` arms in
    ``BlockEngine.execute``; the caller synced ``state.pc`` and
    ``state.instret`` before the handler ran, so the record/trap state
    here matches the interpreter exactly.  *rec* is ``None`` in the
    non-recording variant.
    """
    from ..isa.csr import PrivMode, TrapCause

    state = emu.state
    side = state.side
    if isinstance(exc, EcallShim):
        if state.priv == PrivMode.MACHINE:
            try:
                emu.syscalls.handle(state)
            except ExitRequest as exit_req:
                emu.exit_code = exit_req.code
                emu.halted = True
            if rec is not None:
                _fill(rec, state, side, fall)
            state.pc = fall
            state.instret += 1
            return
        cause = (TrapCause.ECALL_FROM_U if state.priv == PrivMode.USER
                 else TrapCause.ECALL_FROM_S)
        emu._take_trap(Trap(cause, 0))
        if rec is not None:
            _fill(rec, state, side, state.pc)
        state.instret += 1
        return
    if isinstance(exc, ExitRequest):
        emu.exit_code = exc.code
        emu.halted = True
        if rec is not None:
            _fill(rec, state, side, fall)
        state.pc = fall
        state.instret += 1
        return
    # a synchronous Trap raised mid-instruction
    emu._take_trap(exc)
    if rec is not None:
        _fill(rec, state, side, state.pc)
    state.instret += 1


# -- pass 1: resolve ---------------------------------------------------------

def _rx(index: int) -> str:
    """Integer-register read with the x0 constant folded."""
    return "0" if index == 0 else f"R[{index}]"


def _sxw(dst: str, expr: str) -> list[str]:
    """``dst = sext32(expr) & MASK64`` with the call inlined."""
    return [f"v = ({expr}) & 0xFFFFFFFF",
            f"{dst} = v + 0xFFFFFFFF00000000 if v > 0x7FFFFFFF else v"]


def _alu_lines(inst) -> list[str] | None:
    """Specialized source for one integer-computational instruction.

    Each template is the corresponding ``exec_scalar`` handler body
    with the register indices and immediate substituted — the Python
    expressions are identical, so the results are bit-identical.
    Returns ``None`` for mnemonics left to a bare handler call.
    """
    mn = inst.spec.mnemonic
    rd, imm = inst.rd, inst.imm
    a, b = _rx(inst.rs1), _rx(inst.rs2)
    dst = f"R[{rd}]"
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


# -- pass 2: emit ------------------------------------------------------------

class _Emitter:
    """Builds one ``run``/``trace`` function body."""

    def __init__(self, trace: bool):
        self.trace = trace
        self.lines: list[str] = []
        self.params: list[str] = []
        self.needs_cold_state = False  # sd/rc locals required

    def out(self, line: str) -> None:
        self.lines.append("        " + line)

    def _simple_fill(self, k: int) -> None:
        """Record fill for tier-2 short-path entries (prefill intact)."""
        self.out(f"r{k}.seq = n0 + {k}")
        self.out(f"r{k}.vl = vl")
        self.out(f"r{k}.sew = sew")

    def _const_fill(self, k: int, fall: int, *, taken: str = "False",
                    target: str = "0", next_pc: str | None = None,
                    mem_addr: str = "0", mem_size: str = "0") -> None:
        """Record fill for inlined tier-2 full-path entries.

        Every field is written: the record may have been clobbered by
        a tier-2 execution of the same block (budget-cut dispatch).
        """
        self.out(f"r{k}.seq = n0 + {k}")
        self.out(f"r{k}.next_pc = {next_pc if next_pc is not None else fall}")
        self.out(f"r{k}.taken = {taken}")
        self.out(f"r{k}.target = {target}")
        self.out(f"r{k}.mem_addr = {mem_addr}")
        self.out(f"r{k}.mem_size = {mem_size}")
        self.out(f"r{k}.vl = vl")
        self.out(f"r{k}.sew = sew")
        self.out(f"r{k}.div_bits = 0")

    def emit(self, k: int, entry, kind, n: int) -> None:
        handler, inst, pc, fall, flags, _rec = entry
        spec = inst.spec
        static_vtype = None
        if isinstance(kind, tuple):  # ("full", (sew, lmul) | None)
            kind, static_vtype = kind
        if self.trace:
            self.params.append(f"r{k}=E[{k}][5]")
        if kind == "alu":
            if inst.rd:
                for line in _alu_lines(inst):
                    self.out(line)
            if self.trace:
                self._simple_fill(k)
            return
        if kind == "bare":
            self.params.append(f"h{k}=E[{k}][0]")
            self.params.append(f"i{k}=E[{k}][1]")
            self.out(f"h{k}(state, i{k})")
            if self.trace:
                self._simple_fill(k)
            return
        if kind == "auipc":
            if inst.rd:
                self.out(f"R[{inst.rd}] = {(pc + inst.imm) & _M64}")
            if self.trace:
                self._const_fill(k, fall)
            return
        if kind == "load":
            signed = not spec.mem_unsigned
            size = spec.mem_bytes
            self.out(f"a = ({_rx(inst.rs1)} + {inst.imm}) & {_MHEX}")
            call = f"ld(a, {size}, True)" if signed else f"ld(a, {size})"
            if spec.rd_file == "f":
                if size == 4:
                    self.out(f"F[{inst.rd}] = ({call} & 0xFFFFFFFF)"
                             f" | 0xFFFFFFFF00000000")
                else:
                    self.out(f"F[{inst.rd}] = {call} & {_MHEX}")
            elif inst.rd:
                # write_x masks: a signed load_int result is negative
                mask = f" & {_MHEX}" if signed else ""
                self.out(f"R[{inst.rd}] = {call}{mask}")
            else:
                self.out(call)  # keep the access (MMIO side effects)
            if self.trace:
                self._const_fill(k, fall, mem_addr="a", mem_size=str(size))
            return
        if kind == "store":
            size = spec.mem_bytes
            value = (f"F[{inst.rs2}]" if spec.rs2_file == "f"
                     else _rx(inst.rs2))
            self.out(f"a = ({_rx(inst.rs1)} + {inst.imm}) & {_MHEX}")
            self.out(f"st(a, {value}, {size})")
            if self.trace:
                self._const_fill(k, fall, mem_addr="a", mem_size=str(size))
            return
        if kind == "branch":
            target = (pc + inst.imm) & _M64
            cond = _BRANCH_COND[spec.mnemonic].format(
                a=_rx(inst.rs1), b=_rx(inst.rs2))
            self.out(f"t = {cond}")
            if self.trace:
                self._const_fill(k, fall, taken="t", target=str(target),
                                 next_pc=f"{target} if t else {fall}")
            self.out(f"state.instret = n0 + {n}")
            self.out(f"state.pc = {target} if t else {fall}")
            self.out(f"return {n}")
            return
        if kind == "jal":
            target = (pc + inst.imm) & _M64
            if inst.rd:
                self.out(f"R[{inst.rd}] = {(pc + inst.size) & _M64}")
            if self.trace:
                self._const_fill(k, fall, taken="True", target=str(target),
                                 next_pc=str(target))
            self.out(f"state.instret = n0 + {n}")
            self.out(f"state.pc = {target}")
            self.out(f"return {n}")
            return
        if kind == "jalr":
            self.out(f"t = ({_rx(inst.rs1)} + {inst.imm})"
                     f" & 0xFFFFFFFFFFFFFFFE")
            if inst.rd:
                self.out(f"R[{inst.rd}] = {(pc + inst.size) & _M64}")
            if self.trace:
                self._const_fill(k, fall, taken="True", target="t",
                                 next_pc="t")
            self.out(f"state.instret = n0 + {n}")
            self.out("state.pc = t")
            self.out(f"return {n}")
            return
        # -- the full step()-equivalent dance --------------------------------
        self.needs_cold_state = True
        vector = bool(flags & FLAG_VECTOR)
        if vector:
            # A handler of this variant's own for the instruction; a
            # static vtype (a constant-imm vsetvli dominates the entry
            # inside the block) is passed on and counted as specialized.
            # The run variant only runs under Emulator.run's errstate
            # scope, so its FP handlers open none per op.
            self.params.append(f"h{k}=_vbind(E[{k}][1], {static_vtype!r}, "
                               f"{self.trace})")
        else:
            self.params.append(f"h{k}=E[{k}][0]")
        self.params.append(f"i{k}=E[{k}][1]")
        terminator = spec.iclass in (InstrClass.BRANCH, InstrClass.JUMP,
                                     InstrClass.SYSTEM, InstrClass.CSR)
        rec = f"r{k}" if self.trace else "None"
        self.out(f"state.pc = {pc}")
        self.out(f"state.instret = n0 + {k}")
        self.out("sd.mem_addr = 0")
        self.out("sd.mem_size = 0")
        self.out("sd.taken = False")
        self.out("sd.target = 0")
        self.out("sd.div_bits = 0")
        self.out(f"rc(({pc}, i{k}))")
        self.out("try:")
        # a vector handler's return value is discarded: it falls through
        self.out(f"    h{k}(state, i{k})" if vector
                 else f"    np = h{k}(state, i{k})")
        self.out("except X as exc:")
        self.out(f"    cold(emu, exc, {fall}, {rec})")
        self.out(f"    return {k + 1}")
        if flags & (FLAG_FENCE_I | FLAG_SFENCE):
            self.out("emu._decode_cache.clear()")
            self.out("eng.on_fence()")
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
            self.out("state.pc = np")
            self.out(f"state.instret = n0 + {n}")
            self.out(f"return {n}")
        elif not vector:
            self.out(f"if np != {fall}:")
            self.out("    state.pc = np")
            self.out(f"    state.instret = n0 + {k + 1}")
            self.out(f"    return {k + 1}")


def emit_source(block) -> str:
    """Emit the ``make(E)`` factory module for one tier-2 block."""
    entries = block.entries
    n = len(entries)
    kinds: list = [_resolve(entry) for entry in entries]
    # Static-vtype scan: inside one straight-line block, a constant-imm
    # vsetvli fixes SEW/LMUL for every later vector entry (vsetvl takes
    # vtype from a register, so it resets the knowledge; jumps into the
    # middle of a block start a new block and never see these kinds).
    static = None
    for idx, entry in enumerate(entries):
        mn = entry[1].spec.mnemonic
        if mn == "vsetvli":
            from ..asm.assembler import decode_vtype
            static = decode_vtype(entry[1].imm)
        elif mn == "vsetvl":
            static = None
        elif kinds[idx] == "full" and (entry[4] & FLAG_VECTOR):
            kinds[idx] = ("full", static)
    parts = [f"# generated by repro.sim.codegen for "
             f"block {block.start:#x}..{block.end:#x} ({n} insts)",
             "def make(E):"]
    for variant in ("run", "trace"):
        emitter = _Emitter(trace=variant == "trace")
        for k, (entry, kind) in enumerate(zip(entries, kinds)):
            emitter.emit(k, entry, kind, n)
        last_kind = kinds[-1]
        if last_kind not in ("branch", "jal", "jalr") and not (
                last_kind == "full" and entries[-1][1].spec.iclass in (
                    InstrClass.BRANCH, InstrClass.JUMP,
                    InstrClass.SYSTEM, InstrClass.CSR)):
            # fell off the end of a straight-line (or truncated) block
            emitter.out(f"state.pc = {entries[-1][3]}")
            emitter.out(f"state.instret = n0 + {n}")
            emitter.out(f"return {n}")
        params = "".join(f", {p}" for p in emitter.params)
        if emitter.needs_cold_state:
            params += ", X=_EXC"
        parts.append(f"    def {variant}(emu, state, R, F, ld, st, "
                     f"cold, eng{params}):")
        parts.append("        n0 = state.instret")
        if emitter.trace:
            parts.append("        vl = state.vl")
            parts.append("        sew = state.sew")
        if emitter.needs_cold_state:
            parts.append("        sd = state.side")
            parts.append("        rc = emu._recent.append")
        parts.extend(emitter.lines)
    parts.append("    return run, trace")
    parts.append("")
    return "\n".join(parts)


class CompiledBlock:
    """One specialized block: two code paths plus its tier-2 twin.

    ``variants`` is ``(run, trace)``: indexed by whether the caller
    records, so the dispatch loop picks the variant once per call.
    """

    __slots__ = ("start", "end", "n", "variants", "records", "block")

    def __init__(self, block, variants):
        self.start = block.start
        self.end = block.end
        self.n = len(block.entries)
        self.variants = variants
        self.records = block.records
        self.block = block


def _link(code, block):
    """Exec one generated module and bind it to *block*'s entries."""
    module_globals = {"_EXC": _EXC, "_vbind": bind_handler}
    exec(code, module_globals)
    return CompiledBlock(block, module_globals["make"](block.entries))


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
    """Compiled-block cache + dispatcher for one :class:`Emulator`."""

    def __init__(self, emulator, cache_dir: str | None = None):
        self.emu = emulator
        self.blocks = emulator._engine()     # the tier-2 BlockEngine
        self.compiled: dict[int, CompiledBlock] = {}
        self.cache_dir = (cache_dir if cache_dir is not None
                          else default_cache_dir())
        #: pc -> (end, code_digest, module code object)
        self._disk: dict[int, tuple[int, bytes, object]] = {}
        self._disk_loaded = False
        self._dirty = False
        self._mutated = False
        # counters (surfaced as sim.codegen.* through repro.obs)
        self.blocks_compiled = 0
        self.compile_s = 0.0
        self.executions = 0
        self.disk_hits = 0
        self.disk_misses = 0
        self.disk_corrupt = 0
        self.invalidations = 0
        self.smc_drops = 0
        self.evictions = 0
        self.persisted = 0

    # -- invalidation (wired from BlockEngine) -------------------------------

    def invalidate(self) -> None:
        """``fence.i``/``sfence.vma``: drop every compiled block."""
        if self.compiled:
            self.compiled.clear()
            self.invalidations += 1
        self._disk.clear()
        self._mutated = True

    def drop(self, start: int) -> None:
        """Tier-2 detected self-modified code in the block at *start*."""
        self.compiled.pop(start, None)
        self._disk.pop(start, None)
        self.smc_drops += 1
        self._mutated = True

    def on_fence(self) -> None:
        """Called from generated code; tier-2 notifies us back."""
        self.blocks.invalidate()

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
            source, magic, blocks = payload
            if (source != source_digest()
                    or magic != importlib.util.MAGIC_NUMBER):
                raise ValueError("stale codegen cache header")
            self._disk = {int(pc): (int(end), digest, code)
                          for pc, (end, digest, code) in blocks.items()}
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

    def _code_digest(self, start: int, end: int) -> bytes:
        memory = self.emu.state.memory
        return hashlib.sha256(memory.load_bytes(start, end - start)).digest()

    def persist(self) -> None:
        """Write newly compiled blocks to disk (atomic, prunable).

        Skipped when the run observed any code mutation — a cache
        entry must only describe immutable text.
        """
        path = self._cache_path()
        if path is None or not self._dirty or self._mutated:
            return
        self._dirty = False
        payload = marshal.dumps(
            (source_digest(), importlib.util.MAGIC_NUMBER,
             {pc: entry for pc, entry in self._disk.items()}))
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

    # -- compilation ---------------------------------------------------------

    def compile_block(self, block) -> CompiledBlock:
        """Compile (or warm-link) *block* and cache the result."""
        if not self._disk_loaded:
            self._load_disk()
        if len(self.compiled) >= CODE_CACHE_LIMIT:
            self.compiled.clear()
            self.evictions += 1
        start = block.start
        digest = self._code_digest(start, block.end)
        stored = self._disk.get(start)
        if (stored is not None and stored[0] == block.end
                and stored[1] == digest):
            self.disk_hits += 1
            code = stored[2]
        else:
            self.disk_misses += 1
            began = time.perf_counter()
            source = emit_source(block)
            code = compile(source, f"<codegen:{start:#x}>", "exec")
            self.compile_s += time.perf_counter() - began
            self.blocks_compiled += 1
            self._disk[start] = (block.end, digest, code)
            self._dirty = True
        compiled = _link(code, block)
        self.compiled[start] = compiled
        return compiled

    # -- dispatch ------------------------------------------------------------

    def _crash(self, compiled: CompiledBlock, before: int, exc: Exception):
        from .emulator import EmulatorError

        state = self.emu.state
        if isinstance(exc, EmulatorError):
            raise exc
        retired = max(0, state.instret - before)
        index = min(retired, compiled.n - 1)
        entry = compiled.block.entries[index]
        raise EmulatorError(
            self.emu._crash_report(entry[2], entry[1].spec.mnemonic,
                                   exc)) from exc

    def dispatch(self, limit: int, record: bool) -> Iterator[Sequence]:
        """Tier 3's dispatch loop: compiled blocks where they exist, the
        tier-2 engine (which earns a block its compilation) elsewhere.

        Yields the DynInst batches (slots reused) when *record*; else
        runs each compiled block's non-recording variant and yields
        stale batches, for :meth:`Emulator.run` to drain.  Newly
        compiled blocks are persisted to the on-disk cache on the way
        out.
        """
        emu = self.emu
        state = emu.state
        memory = state.memory
        regs, fregs = state.regs, state.fregs
        load, store = memory.load_int, memory.store_int
        compiled_map = self.compiled
        engine = self.blocks
        translated = engine.blocks
        variant = 1 if record else 0      # CompiledBlock.variants index
        steps = 0
        try:
            while not emu.halted and steps < limit:
                if emu._pending_mcheck is not None:
                    emu._deliver_machine_check()
                pc = state.pc
                compiled = compiled_map.get(pc)
                if compiled is not None and compiled.n <= limit - steps:
                    self.executions += 1
                    before = state.instret
                    try:
                        retired = compiled.variants[variant](
                            emu, state, regs, fregs, load, store, _cold,
                            self)
                    except _EXC:
                        raise
                    except Exception as exc:
                        self._crash(compiled, before, exc)
                    steps += retired
                    yield (compiled.records if retired == compiled.n
                           else compiled.records[:retired])
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
                if (compiled is None and not emu.halted
                        and translated.get(pc) is block):
                    self.compile_block(block)
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
            "disk_hits": self.disk_hits,
            "disk_misses": self.disk_misses,
            "disk_corrupt": self.disk_corrupt,
            "invalidations": self.invalidations,
            "smc_drops": self.smc_drops,
            "evictions": self.evictions,
            "persisted": self.persisted,
        }


__all__ = ["CodegenEngine", "CompiledBlock", "CODE_CACHE_LIMIT",
           "emit_source", "default_cache_dir"]
