"""The functional RV64GCV emulator.

Executes assembled programs instruction-by-instruction and (optionally)
yields a :class:`~repro.sim.trace.DynInst` stream for the timing model.
Decoding goes through the real binary encodings — the emulator fetches
bytes from memory, checks the RVC parcel bits, and expands/decodes, so
the assembler and decoder continuously validate each other.
"""

from __future__ import annotations

import hashlib
from collections import deque
from collections.abc import Iterator, Sequence

import numpy as np

from ..asm.program import STACK_TOP, Program
from ..isa import compressed
from ..isa.csr import (
    CSR_MCAUSE,
    CSR_MCECNT,
    CSR_MCERR,
    CSR_MCERR_ADDR,
    CSR_MEPC,
    CSR_MIE,
    CSR_MSTATUS,
    CSR_MTVAL,
    CSR_MTVEC,
    MCERR_SOURCE_SHIFT,
    MCERR_UNCORRECTABLE,
    MCERR_VALID,
    PrivMode,
    TrapCause,
)
from ..isa.encoding import decode_word
from ..isa.instructions import SPECS, Instruction
from .exec_scalar import SCALAR_EXEC, EcallShim, Trap
from .exec_vector import VECTOR_EXEC
from .memory import PAGE_SIZE, Memory
from .state import MASK64, MachineState
from .syscalls import ExitRequest, SyscallShim
from .trace import DynInst


#: how many retired instructions the crash/watchdog backtrace keeps
RECENT_WINDOW = 16

_ZERO_PAGE = bytes(PAGE_SIZE)

#: mnemonics after which no decode (and, for ``sfence.vma``, no
#: translation) made before them may be reused
_SYNC_MNEMONICS = frozenset(("fence.i", "icache.iall", "icache.iva",
                             "sfence.vma"))

#: what an instruction's semantics raise to be retired by
#: :meth:`Emulator._retire_raised` rather than crash the run
RAISED = (EcallShim, ExitRequest, Trap)


class EmulatorError(Exception):
    """Raised for unrecoverable emulation problems (bad fetch etc.)."""


class WatchdogExpired(EmulatorError):
    """The instruction-limit watchdog fired (a hang, not a halt).

    Distinguishable from a normal exit and carries a post-mortem dump:
    ``pc``, the integer register file, a disassembled backtrace of the
    last retired instructions, and a ``partial`` snapshot (retired
    instruction count plus the functional-engine counters) so a
    bounded run still returns data instead of discarding everything it
    measured before the budget expired.
    """

    def __init__(self, message: str, pc: int, regs: list[int],
                 backtrace: list[str],
                 partial: dict | None = None):
        super().__init__(message)
        self.pc = pc
        self.regs = regs
        self.backtrace = backtrace
        self.partial = partial if partial is not None else {}


class MachineCheckError(EmulatorError):
    """An uncorrectable hardware error with no guest handler installed."""

    def __init__(self, message: str, addr: int, source: int):
        super().__init__(message)
        self.addr = addr
        self.source = source


class Emulator:
    """One hart running a program on a (possibly shared) memory."""

    DEFAULT_INSTRUCTION_LIMIT = 50_000_000
    #: decode-cache entries before a wholesale flush.  Self-modifying or
    #: JIT-style guests keep minting fresh PCs; without a bound the
    #: cache grows with the dynamic code footprint.
    DECODE_CACHE_LIMIT = 1 << 16

    def __init__(self, program: Program, memory: Memory | None = None,
                 hart_id: int = 0, stack_top: int = STACK_TOP,
                 load: bool = True, interrupt_fn=None,
                 enable_mmu: bool = False,
                 instruction_limit: int | None = None,
                 fault_injector=None, code_cache_dir: str | None = None,
                 vlen: int = MachineState.VLEN_DEFAULT):
        self.program = program
        self.state = MachineState(memory=memory, hart_id=hart_id, vlen=vlen)
        #: optional zero-arg callable returning pending mip bits
        #: (wired to a CLINT/PLIC via repro.smp.interrupts)
        self.interrupt_fn = interrupt_fn
        self.mmu = None
        if enable_mmu:
            from .vm import VirtualMemoryView

            self.mmu = VirtualMemoryView(self.state.memory, self.state)
            self.state.memory = self.mmu
        if load:
            self.state.memory.load_program(program)
        self.state.pc = program.entry
        self.state.regs[2] = stack_top - hart_id * 0x1_0000  # sp
        self.state.regs[3] = program.data_base + 0x800       # gp anchor
        self.syscalls = SyscallShim()
        self.exit_code: int | None = None
        self.halted = False
        self._decode_cache: dict[int, Instruction] = {}
        self.instruction_limit = (instruction_limit
                                  if instruction_limit is not None
                                  else self.DEFAULT_INSTRUCTION_LIMIT)
        #: optional repro.ras.FaultInjector applied at step boundaries
        self.fault_injector = fault_injector
        self.machine_checks = 0
        self._pending_mcheck: tuple[int, int] | None = None
        self._recent: deque[tuple[int, Instruction]] = deque(
            maxlen=RECENT_WINDOW)
        self.decode_cache_hits = 0
        self.decode_cache_misses = 0
        self.decode_cache_flushes = 0
        #: lazily created block-translation engine (fast mode)
        self._blocks = None
        #: lazily created tier-3 specializing translator
        self._codegen = None
        #: on-disk code cache override (None = env/default resolution)
        self.code_cache_dir = code_cache_dir
        #: optional repro.analysis.sanitize.Sanitizer checked at block
        #: boundaries on tier 2 (None = zero overhead)
        self.sanitizer = None
        #: the tier the last run/trace selected, and why it is not the
        #: tier asked for (None when it is): see _select_tier
        self.tier: int | None = None
        self.tier_reason: str | None = None

    # -- fetch/decode -----------------------------------------------------------

    def _fetch(self, pc: int) -> Instruction:
        cached = self._decode_cache.get(pc)
        if cached is not None:
            self.decode_cache_hits += 1
            return cached
        self.decode_cache_misses += 1
        mem = self.state.memory
        if self.mmu is not None:
            half = int.from_bytes(self.mmu.fetch_bytes(pc, 2), "little")
        else:
            half = mem.load_int(pc, 2)
        try:
            if compressed.is_compressed(half):
                inst = compressed.expand(half)
            else:
                if self.mmu is not None:
                    upper = int.from_bytes(
                        self.mmu.fetch_bytes(pc + 2, 2), "little")
                else:
                    upper = mem.load_int(pc + 2, 2)
                word = half | (upper << 16)
                inst = decode_word(word)
        except Trap:
            raise
        except Exception as exc:
            raise EmulatorError(
                f"cannot decode instruction at pc={pc:#x}: {exc}\n"
                + self._recent_window_text()) from exc
        if self.mmu is None or not self.mmu._active():
            if len(self._decode_cache) >= self.DECODE_CACHE_LIMIT:
                self._decode_cache.clear()
                self.decode_cache_flushes += 1
            self._decode_cache[pc] = inst
        return inst

    # -- execution --------------------------------------------------------------

    def step(self) -> DynInst:
        """Execute one instruction and return its dynamic record.

        The common path is spelled out here: the decode-cache hit
        (:meth:`_fetch` runs only on a miss), the ``SideEffects`` reset
        and the record itself; what raises retires through
        :meth:`_retire_raised`, as on tiers 2 and 3.  Multi-hart runs
        step every hart through this method, so each opcode here is paid
        once per simulated SMP instruction.
        """
        state = self.state
        if self._pending_mcheck is not None:
            self._deliver_machine_check()
        if self.fault_injector is not None:
            self.fault_injector.step_hook(self)
        if self.interrupt_fn is not None:
            self._check_interrupts()
        pc = state.pc
        inst = self._decode_cache.get(pc)
        if inst is not None:
            self.decode_cache_hits += 1
        else:
            try:
                inst = self._fetch(pc)
            except Trap as trap:
                return self._fetch_trap(pc, trap)
        side = state.side
        side.mem_addr = 0
        side.mem_size = 0
        side.taken = False
        side.target = 0
        side.div_bits = 0
        mnemonic = inst.spec.mnemonic
        self._recent.append((pc, inst))

        handler = SCALAR_EXEC.get(mnemonic)
        vhandler = None
        if handler is None:
            vhandler = VECTOR_EXEC.get(mnemonic)
            if vhandler is None:
                raise EmulatorError(
                    f"no semantics for {mnemonic} at pc={pc:#x}")
        next_pc: int | None = None
        try:
            if handler is not None:
                next_pc = handler(state, inst)
            else:
                vhandler(state, inst)
        except RAISED as exc:
            record = DynInst(0, pc, inst, 0)
            self._retire_raised(exc, (pc + inst.size) & MASK64, record)
            return record
        except EmulatorError:
            raise
        except Exception as exc:
            raise EmulatorError(
                self._crash_report(pc, mnemonic, exc)) from exc

        if mnemonic in _SYNC_MNEMONICS:
            self._sync_instruction_stream(mnemonic == "sfence.vma")
        if next_pc is None:
            next_pc = (pc + inst.size) & MASK64
        seq = state.instret
        state.pc = next_pc
        state.instret = seq + 1
        return DynInst(seq, pc, inst, next_pc, side.taken, side.target,
                       side.mem_addr, side.mem_size, state.vl, state.sew,
                       side.div_bits)

    def _fetch_trap(self, pc: int, trap: Trap) -> DynInst:
        """Take a trap raised fetching *pc*; returns its retired record
        (a placeholder ``addi`` whose next PC is the handler)."""
        state = self.state
        seq = state.instret
        self._take_trap(trap)
        state.instret = seq + 1
        return DynInst(seq=seq, pc=pc, inst=Instruction(spec=SPECS["addi"]),
                       next_pc=state.pc)

    def _retire_raised(self, exc: Exception, fall: int,
                       rec: DynInst | None) -> None:
        """Retire the instruction at ``state.pc`` whose semantics raised
        *exc* (one of :data:`RAISED`): the one retire path for what
        raises, on every tier.

        The caller synced ``state.pc``, ``state.instret`` and
        ``state.side`` as for the handler's call; *fall* is the
        instruction's fall-through, and *rec*, its record slot, gets
        every field but ``pc`` and ``inst`` (None when not recording).
        An ``ecall`` in M-mode runs the syscall shim and, like an exit,
        retires to *fall*; an ``ecall`` from U or S and every other trap
        retire to the trap handler (:meth:`_take_trap`, which raises
        :class:`EmulatorError` when there is none).
        """
        state = self.state
        next_pc = fall
        if isinstance(exc, EcallShim):
            if state.priv == PrivMode.MACHINE:
                try:
                    self.syscalls.handle(state)
                except ExitRequest as exit_req:
                    self.exit_code = exit_req.code
                    self.halted = True
            else:
                self._take_trap(Trap(TrapCause.ECALL_FROM_U
                                     if state.priv == PrivMode.USER
                                     else TrapCause.ECALL_FROM_S, 0))
                next_pc = state.pc
        elif isinstance(exc, ExitRequest):
            self.exit_code = exc.code
            self.halted = True
        else:
            self._take_trap(exc)
            next_pc = state.pc
        if rec is not None:
            side = state.side
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

    def _sync_instruction_stream(self, sfence: bool) -> None:
        """``fence.i``, ``icache.*`` and (*sfence*) ``sfence.vma`` on
        every tier: no decode, block or superblock made before the fence
        is reused, and after ``sfence.vma`` no address translation."""
        self._decode_cache.clear()
        if self._blocks is not None:
            self._blocks.invalidate()
        if sfence and self.mmu is not None:
            self.mmu.flush_tlb()

    # -- diagnostics ------------------------------------------------------------

    def recent_instructions(self) -> list[str]:
        """Disassembled window of the last retired instructions."""
        from ..isa.disasm import disassemble

        lines = []
        for pc, inst in self._recent:
            try:
                text = disassemble(inst, pc)
            except Exception:
                text = inst.spec.mnemonic
            lines.append(f"{pc:#010x}: {text}")
        return lines

    def _recent_window_text(self, last: int = 8) -> str:
        recent = self.recent_instructions()
        window = "\n  ".join(recent[-last:]) if recent else "(none)"
        return f"last retired instructions:\n  {window}"

    def _crash_report(self, pc: int, mnemonic: str, exc: Exception) -> str:
        return (f"{type(exc).__name__} while executing {mnemonic} at "
                f"pc={pc:#x}: {exc}\n" + self._recent_window_text())

    def _watchdog(self, limit: int) -> WatchdogExpired:
        regs = list(self.state.regs)
        backtrace = self.recent_instructions()
        names = (("ra", 1), ("sp", 2), ("gp", 3), ("a0", 10), ("a7", 17))
        regdump = "  ".join(f"{n}={regs[i]:#x}" for n, i in names)
        message = (
            f"watchdog: instruction limit {limit} exceeded at "
            f"pc={self.state.pc:#x} (instret={self.state.instret})\n"
            f"  {regdump}\n" + self._recent_window_text())
        partial = {"instret": self.state.instret, "limit": limit,
                   "counters": self.counters()}
        return WatchdogExpired(message, self.state.pc, regs, backtrace,
                               partial=partial)

    # -- machine checks (RAS) ----------------------------------------------------

    def post_machine_check(self, addr: int, source: int = 0) -> None:
        """Bank an uncorrectable-error report; trap at the next boundary.

        The error is delivered asynchronously, like a real machine
        check: the failing address and source are latched in the mcerr
        CSRs, and the trap is taken before the next instruction issues.
        """
        if self._pending_mcheck is None:     # first error wins the bank
            self._pending_mcheck = (addr & MASK64, source)

    def report_corrected(self, addr: int = 0, source: int = 0) -> None:
        """Count a hardware-corrected error in the guest-visible CSR."""
        csrs = self.state.csrs
        csrs.write(CSR_MCECNT, csrs.read(CSR_MCECNT) + 1)

    def _deliver_machine_check(self) -> None:
        addr, source = self._pending_mcheck
        self._pending_mcheck = None
        csrs = self.state.csrs
        csrs.write(CSR_MCERR, MCERR_VALID | MCERR_UNCORRECTABLE
                   | ((source & 0xFF) << MCERR_SOURCE_SHIFT))
        csrs.write(CSR_MCERR_ADDR, addr)
        self.machine_checks += 1
        if csrs.read(CSR_MTVEC) == 0:
            raise MachineCheckError(
                f"uncorrectable hardware error at addr={addr:#x} "
                f"(source {source}) with no mtvec handler", addr, source)
        self._take_trap(Trap(TrapCause.MACHINE_CHECK, addr))

    def _check_interrupts(self) -> None:
        """Take the highest-priority enabled pending interrupt, if any."""
        csrs = self.state.csrs
        mstatus = csrs.read(CSR_MSTATUS)
        if not mstatus & 0x8:        # mstatus.MIE clear: masked
            return
        pending = self.interrupt_fn() & csrs.read(CSR_MIE)
        if not pending:
            return
        # Priority order per the privileged spec: MEI > MSI > MTI.
        for bit, code in ((11, 11), (3, 3), (7, 7)):
            if (pending >> bit) & 1:
                break
        else:  # pragma: no cover
            return
        mtvec = csrs.read(CSR_MTVEC)
        if mtvec == 0:
            raise EmulatorError("interrupt pending with no mtvec handler")
        csrs.write(CSR_MEPC, self.state.pc)
        csrs.write(CSR_MCAUSE, (1 << 63) | code)
        # Push the interrupt-enable stack (MPIE <- MIE, MIE <- 0) and
        # record the interrupted privilege in MPP.
        mpie = (mstatus >> 3) & 1
        mstatus = (mstatus & ~0x88 & ~(3 << 11)) | (mpie << 7) \
            | (int(self.state.priv) << 11)
        csrs.write(CSR_MSTATUS, mstatus)
        self.state.priv = PrivMode.MACHINE
        self.state.pc = mtvec & ~3

    def _take_trap(self, trap: Trap) -> None:
        csrs = self.state.csrs
        csrs.write(CSR_MEPC, self.state.pc)
        csrs.write(CSR_MCAUSE, trap.cause.value)
        csrs.write(CSR_MTVAL, trap.tval)
        mtvec = csrs.read(CSR_MTVEC)
        if mtvec == 0:
            raise EmulatorError(
                f"trap {trap.cause.name} at pc={self.state.pc:#x} "
                f"with no mtvec handler")
        # Record the interrupted privilege in mstatus.MPP; enter M-mode.
        mstatus = csrs.read(CSR_MSTATUS)
        mstatus = (mstatus & ~(3 << 11)) | (int(self.state.priv) << 11)
        csrs.write(CSR_MSTATUS, mstatus)
        self.state.priv = PrivMode.MACHINE
        self.state.pc = mtvec & ~3

    # -- tiers ------------------------------------------------------------------

    def _select_tier(self, asked: int) -> tuple[int, str | None]:
        """The tier that can run *asked* exactly here, and why not
        *asked* (None when it can).

        Block dispatch (tiers 2 and 3) elides the per-step MMU,
        fault-injector and interrupt hooks, so any of those forces the
        precise interpreter; compiled blocks (tier 3) also skip the
        per-block hooks a sanitizer relies on, so a sanitizer caps the
        run at tier 2.  The reason is the first blocker in that order.
        """
        if asked not in (1, 2, 3):
            raise ValueError(f"unknown execution tier {asked!r}")
        if asked > 1:
            for reason, hook in (("mmu", self.mmu),
                                 ("fault_injector", self.fault_injector),
                                 ("interrupts", self.interrupt_fn)):
                if hook is not None:
                    return 1, reason
        if asked == 3 and self.sanitizer is not None:
            return 2, "sanitizer"
        return asked, None

    def _engine(self):
        if self._blocks is None:
            from .blockcache import BlockEngine

            self._blocks = BlockEngine(self)
        return self._blocks

    def _codegen_engine(self):
        if self._codegen is None:
            from .codegen import CodegenEngine

            self._codegen = CodegenEngine(self,
                                          cache_dir=self.code_cache_dir)
        return self._codegen

    def counters(self) -> dict[str, int]:
        """Functional-engine counters (the repro.obs metrics surface):
        decode cache, machine checks, and — once the fast path has run —
        the block-translation engine's counters."""
        counters = {
            "decode_cache_hits": self.decode_cache_hits,
            "decode_cache_misses": self.decode_cache_misses,
            "decode_cache_flushes": self.decode_cache_flushes,
            "machine_checks": self.machine_checks,
        }
        if self._blocks is not None:
            counters.update(self._blocks.counters())
        if self._codegen is not None:
            counters.update({f"codegen_{name}": value for name, value
                             in self._codegen.counters().items()})
        counters.update({f"vector_{name}": value for name, value
                         in self.state.vec_counters.items()})
        return counters

    # -- the dispatch loops: one per tier, each serving run and trace ----------
    #
    # Each loop is a generator of record batches.  ``trace`` hands it to
    # the consumer; ``run`` drains it with ``record=False``, in which
    # case tiers 2 and 3 fill no records and yield only fetch traps.

    def _interpret(self, limit: int) -> Iterator[tuple[DynInst]]:
        """Tier 1: the precise interpreter, one 1-tuple per step."""
        steps = 0
        while not self.halted and steps < limit:
            yield (self.step(),)
            steps += 1
        if not self.halted:
            raise self._watchdog(limit)

    def _dispatch_blocks(self, limit: int,
                         record: bool) -> Iterator[Sequence[DynInst]]:
        """Tier 2: translated blocks, with the sanitizer's block hooks."""
        engine = self._engine()
        blocks = engine.blocks
        state = self.state
        sanitizer = self.sanitizer
        steps = 0
        while not self.halted and steps < limit:
            if self._pending_mcheck is not None:
                self._deliver_machine_check()
            pc = state.pc
            block = blocks.get(pc)
            if block is None:
                try:
                    block = engine.translate(pc)
                except Trap as trap:
                    yield (self._fetch_trap(pc, trap),)
                    steps += 1
                    continue
            if sanitizer is not None:
                sanitizer.pre_block(block)
            retired, batch = engine.execute(block, limit - steps, record)
            if sanitizer is not None:
                sanitizer.post_block(block, retired, state)
            steps += retired
            if batch:
                yield batch
        if not self.halted:
            raise self._watchdog(limit)

    def codegen_trace(self, limit: int) -> Iterator[Sequence[DynInst]]:
        """The tier-3 batch generator behind ``trace(tier=3)``.

        It decides nothing; it is a method of its own so that a
        subclass can wrap the tier-3 batch stream (the benchmark's layer
        tracer charges the time spent producing it to emulation).
        """
        return self._codegen_engine().dispatch(limit, record=True)

    # -- execution entry points --------------------------------------------------

    def _start(self, max_steps: int | None, tier: int) -> int:
        """Select and record the tier; returns the step limit."""
        self.tier, self.tier_reason = self._select_tier(tier)
        return max_steps if max_steps is not None else self.instruction_limit

    def run(self, max_steps: int | None = None, tier: int = 1) -> int:
        """Run to exit (or the watchdog); returns the exit code.

        A normal halt returns; a runaway loop raises
        :class:`WatchdogExpired` with a post-mortem dump.

        ``tier`` asks for a speed tier: 1 = precise interpreter, 2 =
        block-translation cache, 3 = specializing translator.  Every
        tier retires the same instructions; a configuration a tier
        cannot run exactly runs on a lower one, and ``tier`` /
        ``tier_reason`` record which and why (see :meth:`_select_tier`).
        """
        limit = self._start(max_steps, tier)
        if self.tier == 3:
            batches = self._codegen_engine().dispatch(limit, record=False)
        elif self.tier == 2:
            batches = self._dispatch_blocks(limit, record=False)
        else:
            batches = self._interpret(limit)
        # One FP error-state scope for the whole run: the non-recording
        # variant of a compiled block links its vector FP handlers
        # without a per-op scope of their own (exec_vector.bind_handler).
        with np.errstate(all="ignore"):
            deque(batches, maxlen=0)
        return self.exit_code if self.exit_code is not None else -1

    def trace(self, max_steps: int | None = None,
              tier: int = 1) -> Iterator[Sequence[DynInst]]:
        """The dynamic instruction stream until exit, in batches.

        Tier 1 yields one fresh record per 1-tuple.  Tiers 2 and 3
        yield a translated block's worth at a time in **reused** slots:
        each batch is only valid until the next one is requested, so
        consumers that retain records must copy them.  The stream is
        field-for-field identical on every tier; ``tier`` is selected
        and recorded as in :meth:`run`, when this is called.
        """
        limit = self._start(max_steps, tier)
        if self.tier == 3:
            return self.codegen_trace(limit)
        if self.tier == 2:
            return self._dispatch_blocks(limit, record=True)
        return self._interpret(limit)

    @property
    def stdout(self) -> str:
        return self.syscalls.stdout_text

    def fingerprint(self) -> dict:
        """The architectural state, one JSON-able value per component,
        so that two runs compare with ``==`` and a diff names what
        differs.

        Memory is one sha256 over every page holding a non-zero byte,
        with its page number, in address order: content-defined, so a
        zero page one path allocated and another did not is no
        difference.  ``state.vec_counters`` count work, they are not
        state, and stay out.
        """
        state = self.state
        memory = self.mmu.physical if self.mmu is not None else state.memory
        pages = hashlib.sha256()
        for ppn, page in sorted(memory._pages.items()):
            if page != _ZERO_PAGE:
                pages.update(ppn.to_bytes(8, "little"))
                pages.update(page)
        return {
            "pc": state.pc, "instret": state.instret,
            "exit_code": self.exit_code, "stdout": self.stdout,
            "priv": int(state.priv),
            "regs": list(state.regs), "fregs": list(state.fregs),
            "vbuf": hashlib.sha256(state.vbuf.tobytes()).hexdigest(),
            "vl": state.vl, "vtype": state.vtype,
            "csrs": {f"{addr:#x}": value
                     for addr, value in sorted(state.csrs._regs.items())},
            "memory": pages.hexdigest(),
        }


def run_program(program: Program, max_steps: int | None = None) -> Emulator:
    """Convenience: run *program* to completion, return the emulator."""
    emulator = Emulator(program)
    emulator.run(max_steps)
    return emulator
