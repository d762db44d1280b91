"""The trace-driven 12-stage out-of-order pipeline model.

The model pushes the functional emulator's dynamic instruction stream
through the XT-910 pipeline structure (Fig. 4):

* a frontend (IF/IP/IB) with the hybrid direction predictor, cascaded
  L0/L1 BTBs, return-address stack, indirect predictor and loop buffer,
  all trained *online* with real outcomes and charged with redirect
  bubbles at the pipeline stage where each correction happens;
* decode (3-wide), rename (4-wide) with ROB/IQ/SQ occupancy
  backpressure;
* out-of-order issue into 8 execution pipes (2 ALU, 1 BJU, a dual-issue
  LSU with split st.addr/st.data micro-ops, 2 FPUs, 2 vector slices)
  with full operand forwarding;
* in-order retirement through a 192-entry ROB.

Every instruction receives fetch/dispatch/issue/complete/retire
timestamps; widths and structural hazards are enforced by monotonic
slot allocators, so the model is cycle-accounting rather than
event-queue driven — the standard trace-driven methodology (see
DESIGN.md for the accepted approximations).

Fast path
---------

The model has one execution path, the **batched hot loop**
(:meth:`PipelineModel._run_stream`).  :meth:`PipelineModel.run` drives
it over a whole trace (``Emulator.trace`` yields one
``TranslatedBlock`` worth of records at a time on tiers 2 and 3);
:meth:`PipelineModel.run_quantum` resumes it for one slice of records,
which is how :mod:`repro.smp.timing` interleaves the harts of a
cluster.  The loop is the per-stage accounting (frontend, dispatch,
execute, retire, control resolution) inlined over per-instruction
timing *rows* (below).  The readable, staged form of the same
semantics is the frozen :mod:`repro.uarch.refmodel` — the specification
the tests hold this loop equal to.  Per-PC stall attribution
(:mod:`repro.obs.guestprof`) reads this loop's own dispatch, issue and
completion cycles through the ``profiler`` hook.

The hot loop inlines clean L1 hits instead of calling the hierarchy.
A store hit (a store's, or an AMO's) may have an effect outside the
core's own hierarchy: the write-invalidate SMP hierarchy must
invalidate the siblings' copies.  So after each inlined store hit the
loop calls the hierarchy's ``snoop_store_hit`` hook when it is set,
and adds the latency it returns; ``MemoryHierarchy.snoop_store_hit``
is ``None``.

Static per-instruction facts (pipe selection, latency, operand register
ids, store addr/data operand split, branch kind) are resolved once per
static instruction into a :class:`TimingInfo` plus the flat *row* tuple
of its hot fields, cached by PC; the cache validates by ``Instruction``
object identity, so the same fence.i / icache events that rebuild the
emulator's decode cache and block cache automatically invalidate stale
timing entries (a re-decoded PC carries a fresh ``Instruction``).

That lookup-and-validate runs once per *block*, not once per
instruction: a translated block always yields the same
:class:`~repro.sim.trace.RecordBatch`, and the loop parks the block's
rows on it the first time it sees it.  A re-translated block is a new
batch, so the rows are invalidated by exactly the events that invalidate
the block.  Anything else the loop is handed — the partial slice of a
block cut short by a trap or the step budget, an SMP quantum, a tier-1
1-tuple — has no persistent identity and is resolved record by record on
the spot (quanta therefore pay the per-instruction lookup);
both feed the same loop body.  What is a function of the batch rather
than of the instruction (instruction count, pipe-window prune, eager
store-queue age prune) runs at the batch boundary.

Scheduling state lives in flat ring buffers (:class:`PipeGroup`, the
ROB, the register scoreboard) so the per dynamic instruction cost is a
short run of array operations.  Differential tests lock the loop to the
:mod:`repro.uarch.refmodel` oracle — see DESIGN.md ("Timing fast
path") for the equivalence argument, and
``tests/uarch/test_hotloop_budget.py`` for the loop's
executed-lines-per-instruction budget.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Iterable
from heapq import heappush, heappop
from operator import length_hint
from types import SimpleNamespace

from ..isa.instructions import InstrClass
from ..mem.hierarchy import MemoryHierarchy
from ..sim.trace import DynInst, RecordBatch
from .branch import HybridDirectionPredictor
from .btb import CascadedBtb, IndirectPredictor, ReturnAddressStack
from .config import CoreConfig
from .loopbuf import LoopBuffer
from .lsu import MemDepPredictor, StoreRecord
from .stats import CoreStats

#: Cycle span of the PipeGroup booking window; bookings outside the
#: window spill to an exact overflow dict, so the window size is a
#: performance knob, not a correctness bound.  The stream loop moves
#: the window up every ``_WINDOW // 4`` dispatch cycles, so it follows
#: simulated time at any IPC.
_WINDOW = 1 << 12
_MASK = _WINDOW - 1
_ZEROS = [0] * _WINDOW

#: Flat register-id space: x0-x31 -> 0-31, f0-f31 -> 32-63, v0-v31 -> 64-95.
_FILE_BASE = {"x": 0, "f": 32, "v": 64}
_NUM_REGS = 96

#: Timing row ``kind`` codes.
K_SIMPLE, K_DIV, K_VEC, K_LOAD, K_VLOAD, K_STORE = range(6)
#: Timing row ``pipe`` codes (indices into PipelineModel._pipe_list).
P_ALU, P_BJU, P_DIV, P_LOAD, P_STADDR, P_STDATA, P_FPU, P_VEC = range(8)
#: Timing row ``ctrl`` codes.
(C_NONE, C_BRANCH, C_JAL_CALL, C_JAL,
 C_RETURN, C_IND_CALL, C_INDIRECT) = range(7)

#: Bits of a timing row's ``rare`` mask: each one takes an instruction
#: off the straight-line common path of the stream loop.
(R_SERIALIZE, R_STORE_Q, R_SRC_REST, R_DEST_REST, R_VEC_STAT,
 R_OCCUPY, R_INORDER) = (1 << bit for bit in range(7))
#: The bits tested together where operands are collected / written back.
_R_READY = R_SRC_REST | R_INORDER
_R_WRITEBACK = R_DEST_REST | R_VEC_STAT

#: Static timing cache bound (distinct static PCs; cleared when full).
TCACHE_LIMIT = 1 << 16


#: Stands in for "the record before this batch" (see
#: ``PipelineModel._resolve``): its store-queue age bound prunes nothing.
_NO_RECORD = SimpleNamespace(seq=-(1 << 62))


class SlotAllocator:
    """Bandwidth limiter: at most ``width`` grants per cycle, monotonic."""

    def __init__(self, width: int):
        self.width = width
        self.cycle = -1
        self.used = 0

    def allocate(self, earliest: int) -> int:
        if earliest > self.cycle:
            self.cycle = earliest
            self.used = 1
            return earliest
        if self.used < self.width:
            self.used += 1
            return self.cycle
        self.cycle += 1
        self.used = 1
        return self.cycle


class PipeGroup:
    """N identical execution pipes with out-of-order backfill.

    Bookings are per-cycle counters rather than next-free pointers, so a
    younger instruction whose operands are ready early can slip into a
    cycle an older long-waiting instruction left idle — what an age-
    vector scheduler actually does.

    Counters live in a flat ring covering ``[_base, _base + _WINDOW)``
    (4096 cycles, 32 KB a ring); bookings outside the window go to the
    exact ``_far`` dict (normally empty).  :meth:`advance` moves the
    window floor up, recycling slots, so memory stays constant over
    arbitrarily long runs; the stream loop calls it every
    ``_WINDOW // 4`` dispatch cycles.
    """

    __slots__ = ("count", "_ring", "_base", "_limit", "_far")

    def __init__(self, count: int):
        self.count = max(count, 1)
        self._ring = [0] * _WINDOW
        self._base = 0
        self._limit = _WINDOW
        self._far: dict[int, int] = {}

    def reset(self) -> None:
        """Clear all bookings in place (cheaper than reallocating)."""
        self._ring[:] = _ZEROS
        self._base = 0
        self._limit = _WINDOW
        self._far.clear()

    @property
    def used(self) -> dict[int, int]:
        """Booked {cycle: pipes-in-use} view (introspection/tests)."""
        booked = {}
        ring = self._ring
        for cycle in range(self._base, self._limit):
            n = ring[cycle & _MASK]
            if n:
                booked[cycle] = n
        booked.update(self._far)
        return booked

    def _get(self, cycle: int) -> int:
        if self._base <= cycle < self._limit:
            return self._ring[cycle & _MASK]
        return self._far.get(cycle, 0)

    def earliest(self, ready: int, occupy: int = 1) -> int:
        count = self.count
        if occupy <= 1:
            if not self._far:
                ring = self._ring
                base = self._base
                limit = self._limit
                cycle = ready
                while base <= cycle < limit and ring[cycle & _MASK] >= count:
                    cycle += 1
                # cycle < base (pruned horizon: free) or past the
                # window (no far bookings: free) both terminate here.
                return cycle
            get = self._get
            cycle = ready
            while get(cycle) >= count:
                cycle += 1
            return cycle
        get = self._get
        cycle = ready
        while True:
            k = 0
            while k < occupy and get(cycle + k) < count:
                k += 1
            if k == occupy:
                return cycle
            # Slot cycle+k is full: every window containing it fails,
            # so the next candidate start is just past the blocker.
            cycle += k + 1

    def book(self, cycle: int, occupy: int = 1) -> None:
        base = self._base
        limit = self._limit
        ring = self._ring
        for k in range(occupy):
            c = cycle + k
            if base <= c < limit:
                ring[c & _MASK] += 1
            else:
                far = self._far
                far[c] = far.get(c, 0) + 1

    def advance(self, floor: int) -> None:
        """Forget bookings below *floor* and recycle their slots."""
        base = self._base
        if floor <= base:
            return
        ring = self._ring
        if floor - base >= _WINDOW:
            ring[:] = _ZEROS
        else:
            lo = base & _MASK
            hi = floor & _MASK
            if lo < hi:
                ring[lo:hi] = _ZEROS[lo:hi]
            else:
                ring[lo:] = _ZEROS[lo:]
                ring[:hi] = _ZEROS[:hi]
        self._base = floor
        self._limit = limit = floor + _WINDOW
        far = self._far
        if far:
            for c in [c for c in far if c < floor]:
                del far[c]
            for c in [c for c in far if c < limit]:
                ring[c & _MASK] += far.pop(c)


class TimingInfo:
    """The cold static timing facts of one decoded instruction, cached
    by PC; the hot ones (register ids, kind, pipe, latency, control
    kind, the ``rare`` mask) exist only as fields of its row.

    Everything here is a function of the ``Instruction`` alone (plus
    core config), so it is resolved once per static instruction instead
    of once per dynamic instance.  ``inst`` anchors cache validation:
    a re-decode after fence.i/icache maintenance produces a fresh
    ``Instruction`` object, which fails the identity check and forces a
    rebuild — the same invalidation events as the emulator's decode and
    block caches.

    The cache stores each ``TimingInfo`` as the last element of its
    *row* — the tuple the stream loop unpacks (see
    :meth:`PipelineModel._build_info`).  Rows end up parked on the
    emulator's record batches, and a dead emulator is cyclic garbage
    that lingers until a full collection — so neither a row nor a
    ``TimingInfo`` may reference the model or its booking rings
    (0.3 MB a model), and a ``TimingInfo`` does not point back at its
    row.
    """

    __slots__ = ("inst", "occupy", "base", "is_vdiv", "addr_rids",
                 "data_rids", "is_amo", "size",
                 # The rare >3-src / >1-dest remainders of the row's
                 # unrolled s0..s2 / d0 dependency fields.
                 "src_rest", "dest_rest")


class PipelineModel:
    """Runs a dynamic instruction stream through one core."""

    def __init__(self, config: CoreConfig | None = None,
                 hierarchy: MemoryHierarchy | None = None):
        self.config = config = config if config is not None else CoreConfig()
        self.hier = hierarchy if hierarchy is not None \
            else MemoryHierarchy(config.mem)
        self.stats = CoreStats()
        self._vec_bits = config.fu.vec_slices * 128
        self._tcache: dict[int, tuple] = {}   # pc -> timing row
        #: marks the rows this model parks on record batches as its own
        #: (not ``self``: see :class:`TimingInfo` on what rows may hold)
        self._rows_key = object()
        #: opt-in observability hooks (repro.obs): a PipelineTracer /
        #: GuestProfiler, None-guarded in the hot loops like the
        #: sanitizer — None costs nothing and changes nothing.
        self.tracer = None
        self.profiler = None
        self._reset_run_state()

    # -- public API ---------------------------------------------------------------

    def run(self, trace: Iterable) -> CoreStats:
        """Consume a dynamic instruction stream; returns the statistics.

        *trace* yields batches — lists/tuples of records, as
        ``Emulator.trace`` does on every tier.  The timing result does
        not depend on how the stream is batched; batching only
        amortises per-instruction overhead through the inlined hot loop.
        """
        # A model that has timed nothing since its last reset (fresh
        # from the constructor, typically) is already in reset state.
        if self.stats.instructions:
            self._reset_run_state()
        self._run_stream(trace)
        return self.finish()

    def run_quantum(self, records: Iterable[DynInst]) -> None:
        """Resume the hot loop for one slice of the stream.

        No reset and no drain: the loop reloads every piece of run
        state from the model on entry and writes it back on exit, so
        ``run(trace)`` equals any chunking of the same trace through
        ``run_quantum`` followed by :meth:`finish`.  Multi-core timing
        interleaves its harts this way to keep their clocks aligned.
        """
        self._run_stream((records,))

    def finish(self) -> CoreStats:
        """Drain the pipeline and close out the statistics of a run
        driven by :meth:`run_quantum`."""
        self._drain()
        self._collect_ras()
        return self.stats

    def _collect_ras(self) -> None:
        """Fold the hierarchy's RAS counters into the run statistics.

        With a shared L2 (SMP runs) the L2's events appear in every
        core's stats; the campaign reads the hierarchy directly when it
        needs exact attribution.
        """
        summary = self.hier.ras_summary()
        self.stats.ecc_corrected = summary["ecc_corrected"]
        self.stats.ecc_uncorrectable = summary["ecc_uncorrectable"]
        self.stats.parity_errors = summary["parity_errors"]
        self.stats.ways_disabled = summary["ways_disabled"]

    # -- state -----------------------------------------------------------------------

    def _reset_run_state(self) -> None:
        """Restore a reused model to its construction state.

        Recreates the predictors as well as the scheduling structures,
        so two runs on the same model object start from identical
        state (the static timing cache survives — it holds facts, not
        history, and revalidates by instruction identity).
        """
        cfg = self.config
        fe = cfg.frontend
        self.direction = HybridDirectionPredictor(fe.direction)
        self.btb = CascadedBtb(fe.btb)
        self.ras = ReturnAddressStack(fe.ras_entries)
        self.indirect = IndirectPredictor(fe.indirect_entries)
        self.lbuf = LoopBuffer(fe.loop_buffer)
        self.memdep = MemDepPredictor(cfg.lsu.memdep_entries,
                                      cfg.lsu.memdep_predictor)
        self.stats = CoreStats()
        self._fetch_cycle = 0
        self._fetch_group: int | None = None
        self._fetch_slots = 0
        self._group_shift = fe.fetch_bytes.bit_length() - 1
        self._pending_redirect: int | None = None
        self._last_was_branch_cycle = -2
        self._decode_slots = SlotAllocator(cfg.decode_width)
        self._last_dispatch = 0
        self._rename_slots = SlotAllocator(cfg.rename_width)
        self._retire_slots = SlotAllocator(cfg.retire_width)
        # IBUF ring: fetch may run at most ibuf_entries ahead of the
        # cycle decode drains into rename.
        self._dr_cap = max(fe.ibuf_entries, 1)
        self._dr_buf = [0] * self._dr_cap
        self._dr_start = 0
        self._dr_count = 0
        # Register scoreboard: flat ready-cycle array indexed by rid.
        # Two spare slots back the unrolled dependency fields: index
        # _NUM_REGS is src padding (never written, always reads 0) and
        # _NUM_REGS + 1 is dest padding (written, never read).
        self._reg_ready = [0] * (_NUM_REGS + 2)
        # ROB ring: only the completion cycle is needed per entry.
        self._rob_size = max(cfg.rob_entries, 1)
        self._rob_buf = [0] * self._rob_size
        self._rob_head = 0
        self._rob_count = 0
        self._last_retire = 0
        self._iq_heap: list[int] = []
        self._sq_heap: list[int] = []
        self._serialize_until = 0
        self._last_issue = 0          # for in-order issue
        self._inorder_slots = SlotAllocator(cfg.issue_width)
        self._max_complete = 0
        self._last_target_seen: dict[int, int] = {}
        #: dispatch cycle at which the stream loop next advances the
        #: booking windows
        self._next_prune = _WINDOW // 4
        fu = cfg.fu
        pipes = getattr(self, "_pipe_list", None)
        if pipes is not None:
            # Reuse the existing rings: zeroing in place avoids the
            # allocate/free churn of ~9 window-sized lists per run.
            self._issue_bw.reset()
            for group in dict.fromkeys(pipes):
                group.reset()
        else:
            self._issue_bw = PipeGroup(cfg.issue_width)
            alu = PipeGroup(fu.alu_count)
            load = PipeGroup(1)
            if cfg.lsu.dual_issue:
                staddr = PipeGroup(1)
                stdata = PipeGroup(1)
            else:
                staddr = stdata = load
            self._pipe_list = [alu, PipeGroup(fu.bju_count), PipeGroup(1),
                               load, staddr, stdata,
                               PipeGroup(fu.fpu_count),
                               PipeGroup(fu.vec_slices)]
        # In-flight stores for the LSU ordering checks, in program
        # order; the loop bounds it at twice the SQ and by age.
        self._stores: deque[StoreRecord] = deque()

    # -- static timing cache --------------------------------------------------------

    def _resolve(self, batch) -> tuple[list[tuple], tuple]:
        """Resolve *batch* into what the stream loop zips it with:
        one timing row per record (the per-instruction cache lookup +
        ``Instruction`` identity check, run here once per position) and
        each record's predecessor — position 0 has none inside the
        batch and gets ``_NO_RECORD``.  Both are functions of the record
        *slots* and their ``inst``, so for a
        :class:`~repro.sim.trace.RecordBatch` they stay valid for the
        life of the batch."""
        tcache_get = self._tcache.get
        build_info = self._build_info
        rows = []
        for dyn in batch:
            row = tcache_get(dyn.pc)
            if row is None or row[-1].inst is not dyn.inst:
                row = build_info(dyn)
            rows.append(row)
        return rows, (_NO_RECORD, *batch[:-1])

    def _build_info(self, dyn: DynInst) -> tuple:
        """Build and cache the timing row of ``dyn.inst``:
        ``(pc, s0, s1, s2, d0, kind, pipe, latency, ctrl, rare, info)``.

        ``s0..s2`` are the source rids padded with ``_NUM_REGS`` (a
        spare reg-ready slot that is never written, so it always reads
        0) and ``d0`` the first dest padded with ``_NUM_REGS + 1`` (a
        spare slot that is never read).  ``rare`` is the ``R_*`` mask;
        ``info`` the full :class:`TimingInfo`, read only behind a
        ``rare`` bit, on a non-simple ``kind`` or for control flow.
        """
        inst = dyn.inst
        spec = inst.spec
        iclass = spec.iclass
        fu = self.config.fu
        ti = TimingInfo()
        ti.inst = inst
        ti.size = inst.size
        srcs = tuple(_FILE_BASE[r.file] + r.index for r in inst.srcs)
        dests = tuple(_FILE_BASE[r.file] + r.index for r in inst.dests)
        ti.src_rest = srcs[3:]
        ti.dest_rest = dests[1:]
        serialize = iclass is InstrClass.CSR or iclass is InstrClass.SYSTEM
        vec_stat = iclass.value[0] == "v"
        ti.is_amo = iclass is InstrClass.AMO
        ti.is_vdiv = False
        ti.addr_rids = ti.data_rids = ()
        ti.base = 0

        if iclass is InstrClass.BRANCH:
            ctrl = C_BRANCH
        elif iclass is InstrClass.JUMP:
            if spec.mnemonic == "jal":
                ctrl = C_JAL_CALL if inst.rd == 1 else C_JAL
            elif inst.rd == 0 and inst.rs1 == 1:
                ctrl = C_RETURN
            elif inst.rd == 1:
                ctrl = C_IND_CALL
            else:
                ctrl = C_INDIRECT
        else:
            ctrl = C_NONE

        kind = K_SIMPLE
        pipe = P_ALU
        latency = 1
        ti.occupy = 1
        if iclass is InstrClass.ALU:
            pass
        elif iclass is InstrClass.LOAD or iclass is InstrClass.AMO:
            kind = K_LOAD
            pipe = P_LOAD
        elif iclass is InstrClass.STORE or iclass is InstrClass.VSTORE:
            kind = K_STORE
            pipe = P_STADDR
            addr_rids: list[int] = []
            data_rids: list[int] = []
            fmt = spec.fmt
            for reg in inst.srcs:
                if fmt == "S":
                    is_data = reg.file == spec.rs2_file \
                        and reg.index == inst.rs2
                elif fmt == "XTIDXS":
                    is_data = reg.file == "x" and reg.index == inst.rs3
                elif fmt in ("VS", "VSS"):
                    is_data = reg.file == "v"
                else:
                    is_data = False
                (data_rids if is_data else addr_rids).append(
                    _FILE_BASE[reg.file] + reg.index)
            ti.addr_rids = tuple(addr_rids)
            ti.data_rids = tuple(data_rids)
        elif iclass is InstrClass.BRANCH or iclass is InstrClass.JUMP:
            pipe = P_BJU
        elif iclass is InstrClass.MUL:
            latency = fu.mul_latency
        elif iclass is InstrClass.DIV:
            kind = K_DIV
            pipe = P_DIV
            latency = fu.div_latency_min
            ti.base = fu.div_latency_max - fu.div_latency_min
        elif iclass is InstrClass.FP:
            pipe = P_FPU
            latency = fu.fp_latency
        elif iclass is InstrClass.FMUL:
            pipe = P_FPU
            latency = fu.fmul_latency
        elif iclass is InstrClass.FDIV:
            pipe = P_FPU
            latency = fu.fdiv_latency
            ti.occupy = fu.fdiv_latency
        elif iclass in (InstrClass.CSR, InstrClass.SYSTEM, InstrClass.VSET):
            pass
        elif iclass is InstrClass.VLOAD:
            kind = K_VLOAD
            pipe = P_LOAD
        else:
            # vector compute classes
            kind = K_VEC
            pipe = P_VEC
            ti.base = {InstrClass.VALU: fu.valu_latency,
                       InstrClass.VMUL: fu.vmul_latency,
                       InstrClass.VFP: fu.vfp_latency,
                       InstrClass.VFMUL: fu.vfmul_latency,
                       InstrClass.VFDIV: fu.vdiv_latency,
                       InstrClass.VDIV: fu.vdiv_latency,
                       InstrClass.VREDUCE: fu.vreduce_latency,
                       InstrClass.VPERM: fu.vperm_latency}.get(iclass, 3)
            ti.is_vdiv = iclass in (InstrClass.VDIV, InstrClass.VFDIV)

        rare = (R_SERIALIZE * serialize
                | R_STORE_Q * (kind == K_STORE)
                | R_SRC_REST * bool(ti.src_rest)
                | R_DEST_REST * bool(ti.dest_rest)
                | R_VEC_STAT * vec_stat
                | R_OCCUPY * (ti.occupy != 1)
                | R_INORDER * (not self.config.out_of_order))
        s0, s1, s2 = (srcs + (_NUM_REGS,) * 3)[:3]
        row = (dyn.pc, s0, s1, s2, dests[0] if dests else _NUM_REGS + 1,
               kind, pipe, latency, ctrl, rare, ti)

        tcache = self._tcache
        if len(tcache) >= TCACHE_LIMIT:
            tcache.clear()
        tcache[dyn.pc] = row
        return row

    # -- batched hot loop -----------------------------------------------------------

    def _run_stream(self, trace: Iterable) -> None:
        """The timing model: per-stage accounting, inlined.

        One dynamic instruction costs a short run of array and integer
        operations over its unpacked timing row; all mutable scalar
        state lives in locals and is written back in ``finally``.  The
        frozen :mod:`repro.uarch.refmodel` is the readable, staged
        specification of the same semantics; differential tests pin
        this loop to it.

        Work is split by how often its answer can change.  Per *block*:
        a :class:`~repro.sim.trace.RecordBatch` carries its rows in
        ``resolved`` as ``(rows_key, rows, prevs)``, written the first
        time this model meets it (see :meth:`_resolve`); any other sequence
        is resolved on the spot.  Per *batch*: the instruction count,
        the pipe-window prune and the store-queue age prune.  Per
        *instruction*: one body, fed by either entry.  A batch is also
        the prune granule, so callers should keep hand-made batches to
        block size (the emulator's are at most 64 records): a batch of
        many thousands spills bookings past the pipe window into the
        exact but slow overflow path until it ends.
        """
        cfg = self.config
        fe = cfg.frontend
        lsu = cfg.lsu
        st = self.stats
        hier = self.hier
        access_inst = hier.access_inst
        access_data = hier.access_data

        # Memory fast path: pre-resolved structures for the all-hit
        # case (single-line access, 4K-private uTLB hit, clean L1 hit).
        # Anything else falls back to the full access_data/access_inst
        # path, which performs the identical accounting.
        h_cfg = hier.config
        h_stats = hier.stats
        tlb = hier.tlb
        utlb = tlb._utlb
        tlb_stats = tlb.stats
        mem_tlb = h_cfg.model_tlb
        mem_inline = (not mem_tlb) or h_cfg.tlb.utlb_latency == 0
        # An inlined store hit ends with the hierarchy's snoop, if it
        # has one (see MemoryHierarchy.snoop_store_hit).
        snoop_store_hit = hier.snoop_store_hit
        l1_latency = h_cfg.l1_latency
        l1d = hier.l1d
        l1d_shift = l1d._offset_bits
        l1d_nsets = l1d.num_sets
        l1d_sets = l1d._sets
        l1d_stats = l1d.stats
        l1i = hier.l1i
        l1i_shift = l1i._offset_bits
        l1i_nsets = l1i.num_sets
        l1i_sets = l1i._sets
        l1i_stats = l1i.stats
        observe_l1 = hier.l1_prefetcher.observe

        resolve = self._resolve
        rows_key = self._rows_key
        tracer = self.tracer
        profiler = self.profiler
        hooks = tracer is not None or profiler is not None
        reg_ready = self._reg_ready
        iq_heap = self._iq_heap
        sq_heap = self._sq_heap
        pipe_list = self._pipe_list
        pipe_set = list(dict.fromkeys(pipe_list)) + [self._issue_bw]
        issue_on = self._issue_on
        issue_bw = self._issue_bw
        bw_ring = issue_bw._ring
        bw_cnt = issue_bw.count
        rings = [(group._ring, group.count) for group in pipe_list]
        ld_ring, ld_cnt = rings[P_LOAD]
        sa_ring, sa_cnt = rings[P_STADDR]
        sd_ring, sd_cnt = rings[P_STDATA]
        # One issue window for every ring.  The pipe groups and the
        # issue-bandwidth group are created, reset and advanced only
        # together (at the batch boundary below, always with one floor),
        # so they share _base/_limit and one local limit stands for all
        # of them.  The inline scans below need no lower bound and no
        # look at the _far overflow dicts:
        # * they start at ready >= dispatch + 1, dispatch never
        #   decreases, and the window floor is some earlier dispatch
        #   - 64, so a scanned cycle is never below the window;
        # * inside the window a ring slot *is* the booking count —
        #   book() and advance() keep only out-of-window cycles in
        #   _far — so a scan that stays under win_limit is exact, and
        #   one that reaches it hands over to _issue_on, the exact
        #   ring + overflow search.
        win_limit = issue_bw._limit

        decode_width = cfg.decode_width
        fetch_insts = fe.fetch_insts
        group_shift = self._group_shift
        rob_entries = cfg.rob_entries
        iq_entries = cfg.iq_entries
        sq_entries = lsu.sq_entries
        mispredict_extra = fe.mispredict_extra
        tb_l0 = fe.taken_bubble_l0
        tb_l1 = fe.taken_bubble_l1
        tb_miss = fe.taken_bubble_miss
        load_to_use = lsu.load_to_use
        forward_latency = lsu.forward_latency
        violation_flush_penalty = lsu.violation_flush_penalty
        pseudo_dual = lsu.pseudo_dual_store
        vec_bits = self._vec_bits

        dirp = self.direction
        bim_tab = dirp._bimodal.table
        bim_mask = dirp._bimodal.mask
        gsh_tab = dirp._gshare.table
        gsh_mask = dirp._gshare.mask
        cho_tab = dirp._chooser.table
        cho_mask = dirp._chooser.mask
        dir_hist = dirp._history
        dir_hist_mask = dirp._history_mask
        consecutive_ok = dirp.config.two_level_buffers
        btb = self.btb
        btb_l0 = btb._l0
        btb_l1 = btb._l1
        btb_l1_nsets = btb._l1_sets
        btb_stats = btb.stats
        btb_l1_ways = btb.config.l1_ways
        btb_l0_entries = btb.config.l0_entries
        ras = self.ras
        indirect_update = self.indirect.update
        lbuf = self.lbuf
        observe_branch = lbuf.observe_branch
        lb_enabled = lbuf.config.enabled
        lbuf_active = lbuf._active
        loop_lo = lbuf._loop_target if lbuf_active else 0
        loop_hi = lbuf._loop_pc if lbuf_active else 0
        memdep = self.memdep
        memdep_on = memdep.enabled
        md_tagged = memdep._tagged
        sq_deque = self._stores
        sq_model_cap = lsu.sq_entries * 2
        # Cached seq of the oldest queued store (sentinel when empty):
        # turns the per-instruction age-prune check into one compare.
        sq0_seq = sq_deque[0].seq if sq_deque else 1 << 62
        last_target_seen = self._last_target_seen

        # Mutable scalar state (sentinel -1 encodes None).
        fetch_cycle = self._fetch_cycle
        fetch_group = -1 if self._fetch_group is None else self._fetch_group
        fetch_slots = self._fetch_slots
        pending_redirect = -1 if self._pending_redirect is None \
            else self._pending_redirect
        last_was_branch_cycle = self._last_was_branch_cycle
        last_dispatch = self._last_dispatch
        serialize_until = self._serialize_until
        last_issue = self._last_issue
        max_complete = self._max_complete
        dec = self._decode_slots
        dec_cycle, dec_used, dec_width = dec.cycle, dec.used, dec.width
        ren = self._rename_slots
        ren_cycle, ren_used, ren_width = ren.cycle, ren.used, ren.width
        ret = self._retire_slots
        ret_cycle, ret_used, ret_width = ret.cycle, ret.used, ret.width
        ino = self._inorder_slots
        io_cycle, io_used, io_width = ino.cycle, ino.used, ino.width
        dr_buf = self._dr_buf
        dr_cap = self._dr_cap
        dr_start = self._dr_start
        dr_count = self._dr_count
        rob_buf = self._rob_buf
        rob_size = self._rob_size
        rob_head = self._rob_head
        rob_count = self._rob_count

        # Hot statistics accumulate in locals; written back in finally.
        # Instructions are counted a batch at a time; uops are derived
        # on exit as one per retired instruction plus one per store.
        n_inst = 0
        n_store_uops = 0
        unretired = 0
        next_prune = self._next_prune      # a dispatch cycle
        n_branch = 0
        n_taken_bub = 0
        n_lbuf = 0
        n_vec = 0
        n_beats = 0
        dir_preds = 0
        dir_misp = 0

        row_iter = None     # the rows iterator while a batch is in the body
        dyn = _NO_RECORD    # so that an empty first batch has a boundary
        try:
            for batch in trace:
                # ---- batch entry: rows, resolved once per block ----
                if type(batch) is RecordBatch:
                    resolved = batch.resolved
                    if resolved is None or resolved[0] is not rows_key:
                        # First sight of this block (a re-translation
                        # is a fresh batch), or another model's rows.
                        resolved = batch.resolved = (rows_key,
                                                     *resolve(batch))
                    _, rows, prevs = resolved
                else:
                    # Slices, SMP quanta, tier-1 1-tuples: nothing
                    # persistent to keep rows on.
                    batch = tuple(batch)
                    rows, prevs = resolve(batch)
                n_inst += len(rows)
                row_iter = iter(rows)
                for dyn, prev, (pc, s0, s1, s2, d0, kind, pipe, latency,
                                ctrl, rare, ti) \
                        in zip(batch, prevs, row_iter):
                    # ---- frontend (IF/IP/IB) ----
                    if pending_redirect >= 0:
                        if pending_redirect > fetch_cycle:
                            fetch_cycle = pending_redirect
                        fetch_group = -1
                        pending_redirect = -1
                    if lbuf_active and loop_lo <= pc <= loop_hi:
                        if fetch_slots >= decode_width:
                            fetch_cycle += 1
                            fetch_slots = 0
                        fetch_slots += 1
                        n_lbuf += 1
                        fetch_group = -1
                        fetch = fetch_cycle
                    else:
                        group = pc >> group_shift
                        if group != fetch_group \
                                or fetch_slots >= fetch_insts:
                            if fetch_group != -1:
                                fetch_cycle += 1
                            laddr = pc >> l1i_shift
                            cs = l1i_sets[laddr % l1i_nsets]
                            line = cs.get(laddr)
                            if line is not None \
                                    and not line.tag_fault \
                                    and not line.data_faults:
                                # Clean L1I hit: access_inst would
                                # charge 0 cycles and touch only these
                                # counters and the LRU order.
                                cs.move_to_end(laddr)
                                l1i_stats.hits += 1
                                if line.prefetched:
                                    l1i_stats.prefetch_hits += 1
                                    line.prefetched = False
                                h_stats.inst_fetches += 1
                            else:
                                extra = access_inst(pc, fetch_cycle)
                                if extra:
                                    fetch_cycle += extra
                                    st.icache_stall_cycles += extra
                            fetch_group = group
                            fetch_slots = 0
                        fetch_slots += 1
                        if dr_count == dr_cap:
                            t = dr_buf[dr_start]
                            if t > fetch_cycle:
                                fetch_cycle = t
                        fetch = fetch_cycle

                    # ---- decode/rename/dispatch ----
                    e = fetch + 3
                    if e > dec_cycle:
                        dec_cycle = e
                        dec_used = 1
                        decode = e
                    elif dec_used < dec_width:
                        dec_used += 1
                        decode = dec_cycle
                    else:
                        dec_cycle += 1
                        dec_used = 1
                        decode = dec_cycle

                    earliest = decode + 2
                    if last_dispatch > earliest:
                        earliest = last_dispatch

                    # No ``elif serialize_until > earliest`` arm: it is
                    # dead.  serialize_until is only ever set to the
                    # ``earliest`` of a serializing instruction, whose
                    # own dispatch — and so every later last_dispatch,
                    # which ``earliest`` starts from — is >= that.
                    if rare & R_SERIALIZE:
                        wait = max_complete \
                            if max_complete > serialize_until \
                            else serialize_until
                        if wait > earliest:
                            st.serializations += 1
                            earliest = wait
                        serialize_until = earliest

                    if rob_count >= rob_entries:
                        # Full: the ring is exactly rob_entries long,
                        # so the slot the head vacates is the one this
                        # instruction's completion is written to below
                        # and rob_count does not move.
                        slot = rob_head
                        rob_head += 1
                        if rob_head == rob_size:
                            rob_head = 0
                        e = rob_buf[slot] + 2
                        if e > ret_cycle:
                            ret_cycle = e
                            ret_used = 1
                            head_retire = e
                        elif ret_used < ret_width:
                            ret_used += 1
                            head_retire = ret_cycle
                        else:
                            ret_cycle += 1
                            ret_used = 1
                            head_retire = ret_cycle
                        if head_retire > earliest:
                            # The stall is charged from the dispatch
                            # floor, before any serialization wait.
                            floor = decode + 2
                            if last_dispatch > floor:
                                floor = last_dispatch
                            st.rob_stall_cycles += head_retire - floor
                            earliest = head_retire
                    else:
                        slot = rob_head + rob_count
                        if slot >= rob_size:
                            slot -= rob_size
                        rob_count += 1

                    while iq_heap and iq_heap[0] <= earliest:
                        heappop(iq_heap)
                    if len(iq_heap) >= iq_entries:
                        soonest = heappop(iq_heap)
                        if soonest > earliest:
                            st.iq_stall_cycles += soonest - earliest
                            earliest = soonest

                    if rare & R_STORE_Q:
                        while sq_heap and sq_heap[0] <= earliest:
                            heappop(sq_heap)
                        if len(sq_heap) >= sq_entries:
                            soonest = heappop(sq_heap)
                            if soonest > earliest:
                                st.sq_stall_cycles += soonest - earliest
                                earliest = soonest

                    if earliest > ren_cycle:
                        ren_cycle = earliest
                        ren_used = 1
                        dispatch = earliest
                    elif ren_used < ren_width:
                        ren_used += 1
                        dispatch = ren_cycle
                    else:
                        ren_cycle += 1
                        ren_used = 1
                        dispatch = ren_cycle
                    last_dispatch = dispatch

                    if dr_count == dr_cap:
                        dr_buf[dr_start] = dispatch - 2
                        dr_start += 1
                        if dr_start == dr_cap:
                            dr_start = 0
                    else:
                        idx = dr_start + dr_count
                        if idx >= dr_cap:
                            idx -= dr_cap
                        dr_buf[idx] = dispatch - 2
                        dr_count += 1

                    # ---- issue/execute ----
                    ready = dispatch + 1
                    t = reg_ready[s0]
                    if t > ready:
                        ready = t
                    t = reg_ready[s1]
                    if t > ready:
                        ready = t
                    t = reg_ready[s2]
                    if t > ready:
                        ready = t
                    if rare & _R_READY:
                        if rare & R_SRC_REST:
                            for rid in ti.src_rest:
                                t = reg_ready[rid]
                                if t > ready:
                                    ready = t
                        if rare & R_INORDER:
                            if last_issue > ready:
                                ready = last_issue
                            if ready > io_cycle:
                                io_cycle = ready
                                io_used = 1
                            elif io_used < io_width:
                                io_used += 1
                                ready = io_cycle
                            else:
                                io_cycle += 1
                                io_used = 1
                                ready = io_cycle
                            last_issue = ready

                    if kind == 0:       # K_SIMPLE
                        if rare & R_OCCUPY:
                            issue = issue_on(pipe, ready, ti.occupy)
                        else:
                            p_ring, p_cnt = rings[pipe]
                            c = ready
                            while c < win_limit and (
                                    p_ring[i := c & _MASK] >= p_cnt
                                    or bw_ring[i] >= bw_cnt):
                                c += 1
                            if c < win_limit:
                                p_ring[i] += 1
                                bw_ring[i] += 1
                                issue = c
                            else:
                                issue = issue_on(pipe, ready, 1)
                        complete = issue + latency
                    elif kind == 3 or kind == 4:    # K_LOAD / K_VLOAD
                        c = ready
                        while c < win_limit and (
                                ld_ring[i := c & _MASK] >= ld_cnt
                                or bw_ring[i] >= bw_cnt):
                            c += 1
                        if c < win_limit:
                            ld_ring[i] += 1
                            bw_ring[i] += 1
                            issue = c
                        else:
                            issue = issue_on(P_LOAD, ready, 1)

                        # Lazy store-queue age prune.  Retiring an
                        # instruction drops queued stores more than a
                        # ROB older than it; only a load's two scans, a
                        # store's append (its capacity check) and the
                        # written-back deque ever see the result.  seq
                        # never decreases, so the previous record's
                        # bound covers every earlier one, and running
                        # the prune with it here — the batch boundary
                        # prunes with the last record's, which is why
                        # position 0's stand-in prunes nothing — leaves
                        # exactly the deque the per-instruction prune
                        # would have.
                        bound = prev.seq - rob_entries
                        while sq0_seq < bound:
                            sq_deque.popleft()
                            sq0_seq = sq_deque[0].seq if sq_deque \
                                else 1 << 62
                        seq = dyn.seq
                        if memdep_on and md_tagged.get(pc, 0) > 0:
                            barrier = 0
                            unresolved = False
                            for s in sq_deque:
                                if s.seq < seq and s.addr_ready > issue:
                                    unresolved = True
                                    if s.addr_ready > barrier:
                                        barrier = s.addr_ready
                            if unresolved:
                                if barrier > issue:
                                    st.memdep_delays += 1
                                    issue = issue_on(P_LOAD, barrier, 1)
                            else:
                                memdep.train_no_conflict(pc)

                        addr = dyn.mem_addr
                        size = dyn.mem_size
                        if size < 1:
                            size = 1
                        violation_store = None
                        forward_store = None
                        for s in sq_deque:
                            if s.seq < seq:
                                s_addr = s.addr
                                if addr < s_addr + s.size \
                                        and s_addr < addr + size:
                                    if s.addr_ready > issue:
                                        violation_store = s
                                    else:
                                        forward_store = s
                        if violation_store is not None:
                            st.lsu_violations += 1
                            memdep.train_violation(pc)
                            restart = violation_store.data_ready \
                                + violation_flush_penalty
                            if restart < issue:
                                restart = issue
                            issue = issue_on(P_LOAD, restart, 1)
                            forward_store = violation_store
                        if forward_store is not None:
                            st.lsu_forwards += 1
                            fwd_data = forward_store.data_ready
                            if fwd_data <= issue + 1:
                                complete = issue + forward_latency + 1
                                alt = fwd_data + forward_latency
                                if alt > complete:
                                    complete = alt
                            else:
                                complete = fwd_data + forward_latency + 1
                        else:
                            extra = -1
                            laddr = addr >> l1d_shift
                            if mem_inline \
                                    and (addr + size - 1) >> l1d_shift \
                                    == laddr:
                                if mem_tlb:
                                    tkey = (addr >> 12, 4096, tlb.asid)
                                    tentry = None if tlb._utlb_nonstd \
                                        else utlb.get(tkey)
                                    tlb_ok = tentry is not None \
                                        and not tentry.poisoned
                                else:
                                    tlb_ok = True
                                if tlb_ok:
                                    cs = l1d_sets[laddr % l1d_nsets]
                                    line = cs.get(laddr)
                                    if line is not None \
                                            and not line.tag_fault \
                                            and not line.data_faults:
                                        if mem_tlb:
                                            utlb.move_to_end(tkey)
                                            tlb_stats.utlb_hits += 1
                                        cs.move_to_end(laddr)
                                        l1d_stats.hits += 1
                                        if line.prefetched:
                                            l1d_stats.prefetch_hits += 1
                                            line.prefetched = False
                                        observe_l1(addr, issue)
                                        extra = l1_latency
                                        if ti.is_amo:   # a store hit
                                            line.dirty = True
                                            h_stats.stores += 1
                                            if snoop_store_hit is not None:
                                                extra += snoop_store_hit(addr)
                                        else:
                                            h_stats.loads += 1
                            if extra < 0:
                                extra = access_data(addr, issue,
                                                    ti.is_amo, size)
                            if kind == 4:
                                vl = dyn.vl
                                if vl < 1:
                                    vl = 1
                                sew = dyn.sew
                                if sew < 8:
                                    sew = 8
                                extra += (vl * sew + vec_bits - 1) \
                                    // vec_bits - 1
                            complete = issue + load_to_use + extra
                    elif kind == 5:     # K_STORE
                        n_store_uops += 1   # the extra st.data uop
                        if pseudo_dual:
                            addr_ready = dispatch + 1
                            for rid in ti.addr_rids:
                                t = reg_ready[rid]
                                if t > addr_ready:
                                    addr_ready = t
                            data_ready = dispatch + 1
                            for rid in ti.data_rids:
                                t = reg_ready[rid]
                                if t > data_ready:
                                    data_ready = t
                            if rare & R_INORDER:
                                if ready > addr_ready:
                                    addr_ready = ready
                                if ready > data_ready:
                                    data_ready = ready
                            c = addr_ready
                            while c < win_limit and (
                                    sa_ring[i := c & _MASK] >= sa_cnt
                                    or bw_ring[i] >= bw_cnt):
                                c += 1
                            if c < win_limit:
                                sa_ring[i] += 1
                                bw_ring[i] += 1
                                addr_issue = c
                            else:
                                addr_issue = issue_on(P_STADDR,
                                                      addr_ready, 1)
                            c = data_ready
                            while c < win_limit and (
                                    sd_ring[i := c & _MASK] >= sd_cnt
                                    or bw_ring[i] >= bw_cnt):
                                c += 1
                            if c < win_limit:
                                sd_ring[i] += 1
                                bw_ring[i] += 1
                                data_issue = c
                            else:
                                data_issue = issue_on(P_STDATA,
                                                      data_ready, 1)
                        else:
                            addr_issue = issue_on(P_STADDR, ready, 1)
                            data_issue = addr_issue
                        addr_done = addr_issue + 1
                        data_done = data_issue + 1
                        complete = data_done if data_done > addr_done \
                            else addr_done
                        size = dyn.mem_size
                        if size < 1:
                            size = 1
                        addr = dyn.mem_addr
                        drain = -1
                        laddr = addr >> l1d_shift
                        if mem_inline \
                                and (addr + size - 1) >> l1d_shift == laddr:
                            if mem_tlb:
                                tkey = (addr >> 12, 4096, tlb.asid)
                                tentry = None if tlb._utlb_nonstd \
                                    else utlb.get(tkey)
                                tlb_ok = tentry is not None \
                                    and not tentry.poisoned
                            else:
                                tlb_ok = True
                            if tlb_ok:
                                cs = l1d_sets[laddr % l1d_nsets]
                                line = cs.get(laddr)
                                if line is not None \
                                        and not line.tag_fault \
                                        and not line.data_faults:
                                    if mem_tlb:
                                        utlb.move_to_end(tkey)
                                        tlb_stats.utlb_hits += 1
                                    cs.move_to_end(laddr)
                                    l1d_stats.hits += 1
                                    if line.prefetched:
                                        l1d_stats.prefetch_hits += 1
                                        line.prefetched = False
                                    line.dirty = True
                                    h_stats.stores += 1
                                    observe_l1(addr, complete)
                                    drain = l1_latency
                                    if snoop_store_hit is not None:
                                        drain += snoop_store_hit(addr)
                        if drain < 0:
                            drain = access_data(addr, complete, True,
                                                size)
                        heappush(sq_heap, complete + drain)
                        # The age prune a load runs before its scans
                        # (see there), here before the capacity check.
                        bound = prev.seq - rob_entries
                        while sq0_seq < bound:
                            sq_deque.popleft()
                            sq0_seq = sq_deque[0].seq if sq_deque \
                                else 1 << 62
                        if not sq_deque:
                            sq0_seq = dyn.seq
                        sq_deque.append(StoreRecord(
                            seq=dyn.seq, pc=pc, addr=dyn.mem_addr,
                            size=size, addr_ready=addr_done,
                            data_ready=data_done))
                        if len(sq_deque) > sq_model_cap:
                            sq_deque.popleft()
                            sq0_seq = sq_deque[0].seq
                        issue = data_issue if data_issue > addr_issue \
                            else addr_issue
                    elif kind == 1:     # K_DIV
                        spread = ti.base
                        if spread > 0:
                            bits = dyn.div_bits
                            if bits < 1:
                                bits = 1
                            elif bits > 64:
                                bits = 64
                            latency += (spread * bits) // 64
                        issue = issue_on(P_DIV, ready, latency)
                        complete = issue + latency
                    else:               # K_VEC
                        vl = dyn.vl
                        if vl < 1:
                            vl = 1
                        sew = dyn.sew
                        if sew < 8:
                            sew = 8
                        beats = (vl * sew + vec_bits - 1) // vec_bits
                        n_beats += beats
                        base = ti.base
                        occupy = base * beats if ti.is_vdiv else beats
                        issue = issue_on(P_VEC, ready, occupy)
                        complete = issue + base + beats - 1

                    reg_ready[d0] = complete
                    if rare & _R_WRITEBACK:
                        if rare & R_VEC_STAT:
                            n_vec += 1
                        for rid in ti.dest_rest:
                            reg_ready[rid] = complete
                    if complete > max_complete:
                        max_complete = complete
                    heappush(iq_heap, issue)

                    # ---- retire bookkeeping ----
                    rob_buf[slot] = complete

                    # ---- observability hooks (None = off) ----
                    if hooks:
                        if tracer is not None:
                            tracer.record(dyn, fetch, decode, dispatch,
                                          issue, complete)
                        if profiler is not None:
                            profiler.record(
                                pc, complete, ctrl, dyn.target,
                                dispatch, issue,
                                complete - issue - load_to_use - 1
                                if kind == 3 or kind == 4 else 0)

                    # ---- control resolution ----
                    if ctrl:
                        n_branch += 1
                        taken = dyn.taken
                        target = dyn.target
                        seq = dyn.seq
                        key = target if taken else dyn.next_pc
                        in_lbuf = lbuf_active and loop_lo <= pc <= loop_hi
                        # observe_branch() is a no-op unless a backward
                        # taken branch can start/stop a capture or the
                        # locked loop's own branch falls through — gate
                        # the call (and the body-size lookup) on that.
                        if lb_enabled:
                            if taken and target <= pc:
                                if not (lbuf_active and pc == loop_hi):
                                    body = 0
                                    last_seen = last_target_seen.get(target)
                                    if last_seen is not None:
                                        body = seq - last_seen
                                    observe_branch(pc, key, taken, body)
                                    lbuf_active = lbuf._active
                                    if lbuf_active:
                                        loop_lo = lbuf._loop_target
                                        loop_hi = lbuf._loop_pc
                            elif lbuf_active and not taken \
                                    and pc == loop_hi:
                                observe_branch(pc, key, taken, 0)
                                lbuf_active = lbuf._active
                        last_target_seen[key] = seq
                        if len(last_target_seen) > 4096:
                            last_target_seen.clear()

                        if ctrl == 1:   # conditional branch
                            i_b = pc >> 1
                            bi = i_b & bim_mask
                            b_val = bim_tab[bi]
                            bimodal_pred = b_val >= 2
                            gi = (i_b ^ dir_hist) & gsh_mask
                            g_val = gsh_tab[gi]
                            gshare_pred = g_val >= 2
                            ci = i_b & cho_mask
                            prediction = gshare_pred \
                                if cho_tab[ci] >= 2 else bimodal_pred
                            dir_preds += 1
                            mispredicted = prediction != taken
                            if mispredicted:
                                dir_misp += 1
                            if bimodal_pred != gshare_pred:
                                cv = cho_tab[ci]
                                if gshare_pred == taken:
                                    if cv < 3:
                                        cho_tab[ci] = cv + 1
                                elif cv > 0:
                                    cho_tab[ci] = cv - 1
                            if taken:
                                if b_val < 3:
                                    bim_tab[bi] = b_val + 1
                                if g_val < 3:
                                    gsh_tab[gi] = g_val + 1
                            else:
                                if b_val > 0:
                                    bim_tab[bi] = b_val - 1
                                if g_val > 0:
                                    gsh_tab[gi] = g_val - 1
                            dir_hist = ((dir_hist << 1) | taken) \
                                & dir_hist_mask
                            if mispredicted:
                                resume = complete + mispredict_extra
                                if resume > pending_redirect:
                                    pending_redirect = resume
                                continue
                            if taken:
                                # Fused CascadedBtb.predict + .update
                                # (same lookups, LRU moves, eviction
                                # decisions and counters, one pass).
                                l1s = btb_l1[(pc >> 1) % btb_l1_nsets]
                                predicted = btb_l0.get(pc)
                                if predicted is not None:
                                    btb_l0.move_to_end(pc)
                                    btb_stats.l0_hits += 1
                                    lvl = 0
                                else:
                                    predicted = l1s.get(pc)
                                    if predicted is not None:
                                        l1s.move_to_end(pc)
                                        btb_stats.l1_hits += 1
                                        lvl = 1
                                    else:
                                        btb_stats.misses += 1
                                        lvl = 2
                                if pc in l1s:
                                    l1s[pc] = target
                                    l1s.move_to_end(pc)
                                else:
                                    if len(l1s) >= btb_l1_ways:
                                        l1s.popitem(last=False)
                                    l1s[pc] = target
                                if btb_l0_entries > 0:
                                    if pc in btb_l0:
                                        btb_l0[pc] = target
                                        btb_l0.move_to_end(pc)
                                    else:
                                        if len(btb_l0) >= btb_l0_entries:
                                            btb_l0.popitem(last=False)
                                        btb_l0[pc] = target
                                if predicted is not None \
                                        and predicted != target:
                                    btb_stats.target_mispredicts += 1
                                    st.target_mispredicts += 1
                                    bubbles = tb_miss
                                elif in_lbuf:
                                    bubbles = 0
                                elif lvl == 0:
                                    bubbles = tb_l0
                                elif lvl == 1:
                                    bubbles = tb_l1
                                else:
                                    bubbles = tb_miss
                                if bubbles:
                                    fetch_cycle += bubbles
                                    n_taken_bub += bubbles
                                fetch_group = -1
                            if not consecutive_ok:
                                if fetch - last_was_branch_cycle <= 1:
                                    fetch_cycle += 1
                                    st.fetch_bubbles += 1
                            last_was_branch_cycle = fetch
                            continue

                        # jumps
                        redirected = False
                        if ctrl == 2:       # jal, rd == ra
                            ras.push(pc + ti.size)
                        elif ctrl == 4:     # jalr return
                            predicted = ras.predict_pop()
                            if ras.check(predicted, target):
                                st.ras_mispredicts += 1
                                resume = complete + mispredict_extra
                                if resume > pending_redirect:
                                    pending_redirect = resume
                                redirected = True
                        elif ctrl == 5 or ctrl == 6:    # jalr indirect
                            if ctrl == 5:
                                ras.push(pc + ti.size)
                            if indirect_update(pc, target):
                                st.indirect_mispredicts += 1
                                resume = complete + mispredict_extra
                                if resume > pending_redirect:
                                    pending_redirect = resume
                                redirected = True
                        if not redirected:
                            l1s = btb_l1[(pc >> 1) % btb_l1_nsets]
                            predicted = btb_l0.get(pc)
                            if predicted is not None:
                                btb_l0.move_to_end(pc)
                                btb_stats.l0_hits += 1
                                lvl = 0
                            else:
                                predicted = l1s.get(pc)
                                if predicted is not None:
                                    l1s.move_to_end(pc)
                                    btb_stats.l1_hits += 1
                                    lvl = 1
                                else:
                                    btb_stats.misses += 1
                                    lvl = 2
                            if pc in l1s:
                                l1s[pc] = target
                                l1s.move_to_end(pc)
                            else:
                                if len(l1s) >= btb_l1_ways:
                                    l1s.popitem(last=False)
                                l1s[pc] = target
                            if btb_l0_entries > 0:
                                if pc in btb_l0:
                                    btb_l0[pc] = target
                                    btb_l0.move_to_end(pc)
                                else:
                                    if len(btb_l0) >= btb_l0_entries:
                                        btb_l0.popitem(last=False)
                                    btb_l0[pc] = target
                            if predicted is not None \
                                    and predicted != target:
                                btb_stats.target_mispredicts += 1
                                st.target_mispredicts += 1
                                bubbles = tb_miss
                            elif in_lbuf:
                                bubbles = 0
                            elif lvl == 0:
                                bubbles = tb_l0
                            elif lvl == 1:
                                bubbles = tb_l1
                            else:
                                bubbles = tb_miss
                            if bubbles:
                                fetch_cycle += bubbles
                                n_taken_bub += bubbles
                            fetch_group = -1

                # ---- batch boundary ----
                row_iter = None
                # Bring the store queue to its eagerly pruned state:
                # the next batch's first record (whose stand-in
                # predecessor prunes nothing) starts from it.
                bound = dyn.seq - rob_entries
                while sq0_seq < bound:
                    sq_deque.popleft()
                    sq0_seq = sq_deque[0].seq if sq_deque else 1 << 62
                if last_dispatch >= next_prune:
                    # Any floor that no later scan starts below will
                    # do, and every later ready is > last_dispatch.
                    next_prune = last_dispatch + _WINDOW // 4
                    floor = last_dispatch - 64
                    for pg in pipe_set:
                        pg.advance(floor)
                    win_limit = issue_bw._limit
        except BaseException:
            if row_iter is not None:
                # Raised inside the body (a faulting hierarchy call,
                # say), which ends the run.  Rows never started are not
                # instructions, and the record in flight counts the way
                # the per-instruction counters had it at that point:
                # fetched (instructions) but not retired (uops).
                pending = length_hint(row_iter)
                n_inst -= pending
                if pending < len(rows):
                    unretired = 1
            raise
        finally:
            self._fetch_cycle = fetch_cycle
            self._fetch_group = None if fetch_group == -1 else fetch_group
            self._fetch_slots = fetch_slots
            self._pending_redirect = None if pending_redirect < 0 \
                else pending_redirect
            self._last_was_branch_cycle = last_was_branch_cycle
            self._last_dispatch = last_dispatch
            # The retire allocator is monotone, so its cycle is the
            # latest retirement granted (-1 before the first).
            if ret_cycle > self._last_retire:
                self._last_retire = ret_cycle
            self._serialize_until = serialize_until
            self._last_issue = last_issue
            self._max_complete = max_complete
            self._next_prune = next_prune
            dec.cycle, dec.used = dec_cycle, dec_used
            ren.cycle, ren.used = ren_cycle, ren_used
            ret.cycle, ret.used = ret_cycle, ret_used
            ino.cycle, ino.used = io_cycle, io_used
            self._dr_start = dr_start
            self._dr_count = dr_count
            self._rob_head = rob_head
            self._rob_count = rob_count
            st.instructions += n_inst
            st.uops += n_inst - unretired + n_store_uops
            st.branches += n_branch
            st.taken_branch_bubbles += n_taken_bub
            st.lbuf_supplied += n_lbuf
            st.vector_instructions += n_vec
            st.vector_beats += n_beats
            st.direction_mispredicts += dir_misp
            dirp.stats.predictions += dir_preds
            dirp.stats.mispredictions += dir_misp
            dirp._history = dir_hist
            lbuf.stats.supplied_insts += n_lbuf

    # -- exact issue fallback and drain ------------------------------------------

    def _issue_on(self, pipe_index: int, ready: int, occupy: int = 1) -> int:
        """Find the earliest cycle satisfying the pipe and the global
        8-wide issue bandwidth, then book both."""
        pipe = self._pipe_list[pipe_index]
        bw = self._issue_bw
        cycle = ready
        while True:
            c1 = pipe.earliest(cycle, occupy)
            c2 = bw.earliest(c1)
            if c2 == c1:
                pipe.book(c1, occupy)
                bw.book(c1)
                return c1
            cycle = c2

    def _drain(self) -> None:
        while self._rob_count:
            head_complete = self._rob_buf[self._rob_head]
            self._rob_head += 1
            if self._rob_head == self._rob_size:
                self._rob_head = 0
            self._rob_count -= 1
            cycle = self._retire_slots.allocate(head_complete + 2)
            self._last_retire = max(self._last_retire, cycle)
        self.stats.cycles = max(self._last_retire, self._fetch_cycle, 1)
        self.hier.drain_pending()
