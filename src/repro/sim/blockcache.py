"""Basic-block translation cache: decode straight-line runs once, replay fast.

The precise interpreter (:meth:`repro.sim.emulator.Emulator.step`) pays
per retired instruction for a handler-dict lookup, a side-effect reset,
a fresh :class:`~repro.sim.trace.DynInst` allocation, and the
fence/trap bookkeeping.  Profiles show those fixed costs outweigh the
actual instruction semantics by ~3:1, so this module translates each
basic block exactly once into a :class:`TranslatedBlock`:

* handler references are resolved at translation time (no
  ``SCALAR_EXEC``/``VECTOR_EXEC`` dict lookup per step); a vector
  instruction gets a handler of its own that keeps its operand
  binding (:func:`~repro.sim.exec_vector.bind_handler`),
* fall-through PCs are pre-computed per entry,
* each entry owns a reusable ``DynInst`` slot, pre-filled with every
  field that is constant across executions (pc, inst, and — for pure
  compute instructions — the whole record minus seq/vl/sew),
* instructions that provably produce no side effects, never read the
  PC and never trap take a short path that is just the handler call
  plus three slot writes.

Architectural behavior is preserved exactly: the full path below does
what ``Emulator.step`` does around a handler call (the same side-effect
reset and DynInst field values), and what only a few instructions need
is ``Emulator``'s own, shared by every tier: an ecall, an exit or a
trap retires through ``Emulator._retire_raised``, and
``fence.i``/``icache``/``sfence.vma`` go through
``Emulator._sync_instruction_stream``, which invalidates the whole
cache.  The block dispatcher re-checks machine-check banks between
blocks.
Self-modifying stores that hit the *not-yet-executed* tail of the
block being translated-and-run for the first time invalidate that tail
so the fresh bytes are re-decoded, matching the precise interpreter's
decode-at-first-execution order (see DESIGN.md for the one accepted
deviation: SMC without ``fence.i`` after a partial first execution).

Record lifetime contract: the batches ``Emulator.trace`` yields on
tiers 2 and 3 reuse their ``DynInst`` slots — each batch is only valid
until the next batch is requested.  Consumers that need to retain
records (e.g. equivalence tests) must copy them; tier 1's 1-tuples hold
fresh records.
"""

from __future__ import annotations

import weakref

from ..isa.instructions import InstrClass
from .emulator import RAISED
from .exec_scalar import SCALAR_EXEC, Trap
from .exec_vector import VECTOR_EXEC, bind_handler
from .trace import DynInst, RecordBatch

#: longest straight-line run translated into one block
MAX_BLOCK_INSTS = 64
#: cached blocks before the whole cache is flushed (bounds memory under
#: JIT-style guests that keep generating fresh code regions)
BLOCK_CACHE_LIMIT = 4096

# Per-entry flag bits.  flags == 0 is the short "pure compute" path.
FLAG_FULL = 1          # needs the step-equivalent path
FLAG_MAY_WRITE = 2     # store/AMO: may hit translated code
FLAG_FENCE_I = 4       # fence.i / icache.*: flush decode + block caches
FLAG_SFENCE = 8        # sfence.vma: same, plus a TLB flush
FLAG_VECTOR = 16       # VECTOR_EXEC handler: return value is discarded

#: classes that may redirect the PC and therefore end a block
_TERMINATORS = frozenset({InstrClass.BRANCH, InstrClass.JUMP,
                          InstrClass.SYSTEM, InstrClass.CSR})
#: classes whose handlers never touch ``state.side``, never read
#: ``state.pc`` and never raise (architecturally) — eligible for the
#: short path.  DIV is excluded (records div_bits), auipc reads the PC.
_SIMPLE_CLASSES = frozenset({InstrClass.ALU, InstrClass.MUL,
                             InstrClass.FP, InstrClass.FMUL,
                             InstrClass.FDIV})
_PC_READERS = frozenset({"auipc"})
_WRITE_CLASSES = frozenset({InstrClass.STORE, InstrClass.VSTORE,
                            InstrClass.AMO})

_MASK64 = (1 << 64) - 1


class TranslatedBlock:
    """One decoded straight-line run.

    ``entries`` holds ``(handler, inst, pc, fall, flags, rec)`` tuples
    in program order; ``records`` is the parallel list of reusable
    ``DynInst`` slots, so a fully executed block can yield it without
    any per-instruction list building.  It is a
    :class:`~repro.sim.trace.RecordBatch` — the same object every time
    the block runs to its end — so the timing model can keep its static
    resolution of the block on it; a partially executed block yields a
    plain-list slice.  ``exit`` is the PC the block's last complete
    run left it for (None before one): tier 3 chains a superblock
    through a conditional branch in that direction.
    """

    __slots__ = ("start", "end", "entries", "records", "run_count",
                 "exit", "sanitize")

    def __init__(self, start: int, end: int, entries: list):
        self.start = start
        self.end = end          # exclusive byte bound of translated code
        self.entries = entries
        self.records = RecordBatch(entry[5] for entry in entries)
        self.run_count = 0
        self.exit: int | None = None
        #: lazily built repro.analysis.sanitize._BlockSummary
        self.sanitize = None


class BlockEngine:
    """Block cache + dispatcher state for one :class:`Emulator`.

    The emulator owns the engine and the engine refers back to it
    weakly, so a finished emulator and everything its translations
    reach is freed when its last reference goes, not at the next full
    garbage collection.
    """

    def __init__(self, emulator):
        self._emu = weakref.ref(emulator)
        self.blocks: dict[int, TranslatedBlock] = {}
        # counters (surfaced through CoreStats.extra / bench output)
        self.translated_blocks = 0
        self.translated_insts = 0
        self.executions = 0
        self.flushes = 0
        self.smc_invalidations = 0

    @property
    def emu(self):
        return self._emu()

    # -- cache maintenance ---------------------------------------------------

    def invalidate(self) -> None:
        """Drop every translation (fence.i / sfence.vma semantics)."""
        if self.blocks:
            self.blocks.clear()
            self.flushes += 1
        codegen = self.emu._codegen
        if codegen is not None:
            codegen.invalidate()

    def _invalidate_tail(self, block: TranslatedBlock, executed: int) -> None:
        """A store hit the untranslated-yet-unexecuted tail of *block*.

        Drop the block and evict the tail's decode-cache entries (they
        were filled at translation time from the pre-store bytes) so
        the next dispatch re-decodes the fresh bytes — the order the
        precise interpreter would have seen.
        """
        self.smc_invalidations += 1
        self.blocks.pop(block.start, None)
        codegen = self.emu._codegen
        if codegen is not None:
            codegen.drop(block.start)
        decode_cache = self.emu._decode_cache
        for entry in block.entries[executed:]:
            decode_cache.pop(entry[2], None)

    # -- translation ---------------------------------------------------------

    def translate(self, pc: int) -> TranslatedBlock:
        """Decode the basic block starting at *pc* and cache it.

        Raises exactly what the precise interpreter would raise on its
        first step at *pc* (a fetch ``Trap`` or an ``EmulatorError``);
        decode problems *past* the first instruction just truncate the
        block, so the error surfaces when execution actually reaches
        the bad PC.
        """
        from .emulator import EmulatorError

        emu = self.emu
        entries: list = []
        cur = pc
        fall = pc
        while True:
            try:
                inst = emu._fetch(cur)
            except (Trap, EmulatorError):
                if not entries:
                    raise
                break
            spec = inst.spec
            mnemonic = spec.mnemonic
            vector = False
            handler = SCALAR_EXEC.get(mnemonic)
            if handler is None:
                if mnemonic not in VECTOR_EXEC:
                    if not entries:
                        raise EmulatorError(
                            f"no semantics for {mnemonic} at pc={cur:#x}")
                    break
                handler = bind_handler(inst)
                vector = True
            fall = (cur + inst.size) & _MASK64
            iclass = spec.iclass
            if iclass in _SIMPLE_CLASSES and mnemonic not in _PC_READERS:
                flags = 0
            else:
                flags = FLAG_FULL
                if vector:
                    flags |= FLAG_VECTOR
                if iclass in _WRITE_CLASSES:
                    flags |= FLAG_MAY_WRITE
                if mnemonic in ("fence.i", "icache.iall", "icache.iva"):
                    flags |= FLAG_FENCE_I
                elif mnemonic == "sfence.vma":
                    flags |= FLAG_SFENCE
            rec = DynInst(seq=0, pc=cur, inst=inst, next_pc=fall)
            entries.append((handler, inst, cur, fall, flags, rec))
            if iclass in _TERMINATORS or len(entries) >= MAX_BLOCK_INSTS:
                break
            cur = fall
        block = TranslatedBlock(pc, fall, entries)
        if len(self.blocks) >= BLOCK_CACHE_LIMIT:
            self.blocks.clear()
            self.flushes += 1
        self.blocks[pc] = block
        self.translated_blocks += 1
        self.translated_insts += len(entries)
        return block

    # -- execution -----------------------------------------------------------

    def execute(self, block: TranslatedBlock, budget: int,
                record: bool = True):
        """Run *block* (at most *budget* instructions).

        Returns ``(retired_count, batch)`` where *batch* is the list of
        reused ``DynInst`` slots for the executed prefix (``None`` when
        *record* is false).  The loop below is the fast twin of
        ``Emulator.step``: every architectural effect, trap path and
        record field matches the precise interpreter bit for bit.
        """
        emu = self.emu
        state = emu.state
        side = state.side
        entries = block.entries
        if budget < len(entries):
            entries = entries[:budget]
        first_run = block.run_count == 0
        block.run_count += 1
        self.executions += 1
        start_ret = state.instret
        # The simple-path loop keeps instret/vl/sew in locals: simple
        # handlers never read them (no CSR access, no vector config),
        # so ``state`` only needs syncing around full-path entries.
        # On any exit the true count is max(state.instret, instret) —
        # whichever side advanced last.
        instret = start_ret
        vl_now = state.vl
        sew_now = state.sew
        recent_append = emu._recent.append
        try:
            for handler, inst, pc, fall, flags, rec in entries:
                if flags == 0:
                    # Pure compute: no side effects, no PC read, no
                    # traps.  rec.next_pc/taken/target/mem/div were
                    # pre-filled at translation time.
                    handler(state, inst)
                    if record:
                        rec.seq = instret
                        rec.vl = vl_now
                        rec.sew = sew_now
                    instret += 1
                    continue

                # -- full, step()-equivalent path -----------------------
                state.instret = instret
                state.pc = pc
                # The SideEffects reset, spelled out as in step().
                side.mem_addr = 0
                side.mem_size = 0
                side.taken = False
                side.target = 0
                side.div_bits = 0
                recent_append((pc, inst))
                try:
                    next_pc = handler(state, inst)
                except RAISED as exc:
                    emu._retire_raised(exc, fall, rec if record else None)
                    break
                if flags & (FLAG_FENCE_I | FLAG_SFENCE):
                    emu._sync_instruction_stream(bool(flags & FLAG_SFENCE))
                if flags & FLAG_VECTOR:
                    next_pc = None  # step() ignores vector return values
                if next_pc is None:
                    next_pc = fall
                if record:
                    rec.seq = state.instret
                    rec.next_pc = next_pc
                    rec.taken = side.taken
                    rec.target = side.target
                    rec.mem_addr = side.mem_addr
                    rec.mem_size = side.mem_size
                    rec.vl = state.vl
                    rec.sew = state.sew
                    rec.div_bits = side.div_bits
                state.pc = next_pc
                state.instret += 1
                instret = state.instret
                vl_now = state.vl
                sew_now = state.sew

                if flags & FLAG_MAY_WRITE and first_run and side.mem_size:
                    addr = side.mem_addr
                    if addr < block.end and addr + side.mem_size > fall:
                        self._invalidate_tail(
                            block, state.instret - start_ret)
                        break
                if emu.halted or next_pc != fall:
                    break
            else:
                # Ran off the end of a straight-line (or budget-cut)
                # block: resume at the last fall-through.
                state.pc = entries[-1][3]
        except Exception as exc:
            from .emulator import EmulatorError

            if instret > state.instret:
                state.instret = instret
            if isinstance(exc, EmulatorError):
                raise
            retired = state.instret - start_ret
            index = min(retired, len(entries) - 1)
            bad = entries[index]
            raise EmulatorError(
                emu._crash_report(bad[2], bad[1].spec.mnemonic,
                                  exc)) from exc

        if instret > state.instret:
            state.instret = instret
        retired = state.instret - start_ret
        if not record:
            return retired, None
        records = block.records
        if retired == len(records):
            return retired, records
        return retired, records[:retired]

    def counters(self) -> dict[str, int]:
        return {
            "translated_blocks": self.translated_blocks,
            "translated_insts": self.translated_insts,
            "block_executions": self.executions,
            "block_flushes": self.flushes,
            "smc_invalidations": self.smc_invalidations,
        }


__all__ = ["BlockEngine", "TranslatedBlock", "MAX_BLOCK_INSTS",
           "BLOCK_CACHE_LIMIT"]
