"""Tier 3's own rules: superblocks, the persistent code cache and its
lifecycle.

Superblocks leave at their guards with the precise records, in one
persistent batch per exit position; a source edit, a text mutation and
a mutated constituent miss, corrupt cache files are discarded rather
than fatal, ``fence.i`` and self-modifying stores drop superblocks,
and ineligible configurations run on a lower tier that says why.  That
tier 3 retires the precise stream and state on every bundled workload,
cold and warm, is the equivalence lattice's job
(``tests/integration/test_lattice.py``).
"""

import collections
import gc
import os
import struct
import sys
import weakref

import pytest

from repro.asm import assemble
from repro.isa.csr import TrapCause
from repro.isa.instructions import SPECS, Instruction
from repro.sim import Emulator, EmulatorError, WatchdogExpired
from repro.sim import blockcache, codegen, exec_scalar, exec_vector
from repro.sim.emulator import MachineCheckError
from repro.sim.state import MachineState
from repro.sim.trace import RecordBatch
from repro.workloads import coremark_suite

from ..integration.test_lattice import (
    ALL,
    INLINE,
    SMC,
    Functional,
    assert_cells,
    project,
    smc_source,
    stream,
)


@pytest.mark.parametrize("name", ALL)
def test_equivalence_cold_and_warm(name):
    """The lattice's tier-3 cells of each bundled workload: a cold
    code cache, then the warm one it persisted."""
    assert_cells(name, Functional(3, cache="cold"),
                 Functional(3, cache="warm"))


# -- the persistent code cache ----------------------------------------------

_TINY = """
_start:
    li t0, 50
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a0, 7
    li a7, 93
    ecall
"""


def _cache_dir():
    return os.environ["REPRO_CODE_CACHE_DIR"]


def _cache_files():
    directory = _cache_dir()
    if not os.path.isdir(directory):
        return []
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".cgc"))


class TestDiskCache:
    def test_warm_start_skips_translation(self):
        first = Emulator(assemble(_TINY))
        assert first.run(tier=3) == 7
        assert first.counters()["codegen_blocks_compiled"] > 0
        assert len(_cache_files()) == 1

        second = Emulator(assemble(_TINY))
        assert second.run(tier=3) == 7
        counters = second.counters()
        assert counters["codegen_blocks_compiled"] == 0
        assert counters["codegen_compile_s"] == 0.0
        assert counters["codegen_disk_hits"] > 0

    def test_source_edit_retranslates(self, monkeypatch):
        Emulator(assemble(_TINY)).run(tier=3)
        monkeypatch.setattr(codegen, "source_digest", lambda: "edited")
        emulator = Emulator(assemble(_TINY))
        assert emulator.run(tier=3) == 7
        counters = emulator.counters()
        assert counters["codegen_disk_hits"] == 0
        assert counters["codegen_blocks_compiled"] > 0

    def test_text_mutation_retranslates(self):
        Emulator(assemble(_TINY)).run(tier=3)
        mutated = _TINY.replace("li a0, 7", "li a0, 9")
        emulator = Emulator(assemble(mutated))
        assert emulator.run(tier=3) == 9
        counters = emulator.counters()
        assert counters["codegen_disk_hits"] == 0
        assert counters["codegen_blocks_compiled"] > 0

    def test_corrupt_cache_file_discarded_not_fatal(self):
        Emulator(assemble(_TINY)).run(tier=3)
        (name,) = _cache_files()
        path = os.path.join(_cache_dir(), name)
        with open(path, "wb") as handle:
            handle.write(b"\x00garbage, not a marshal payload")

        emulator = Emulator(assemble(_TINY))
        assert emulator.run(tier=3) == 7
        counters = emulator.counters()
        assert counters["codegen_disk_corrupt"] == 1
        assert counters["codegen_blocks_compiled"] > 0
        # The poisoned file was unlinked and replaced by a fresh one.
        assert _cache_files() == [name]
        second = Emulator(assemble(_TINY))
        assert second.run(tier=3) == 7
        assert second.counters()["codegen_disk_hits"] > 0

    def test_cache_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_CODE_CACHE", "0")
        emulator = Emulator(assemble(_TINY))
        assert emulator.run(tier=3) == 7
        assert emulator.counters()["codegen_blocks_compiled"] > 0
        assert _cache_files() == []

    def test_prune_bounds_cache_files(self, monkeypatch):
        monkeypatch.setattr(codegen, "DISK_CACHE_FILES", 2)
        for value in range(4):
            source = _TINY.replace("li a0, 7", f"li a0, {value}")
            Emulator(assemble(source)).run(tier=3)
        assert len(_cache_files()) <= 2


# -- invalidation ------------------------------------------------------------

class TestInvalidation:
    def test_fence_i_invalidates_compiled_blocks(self):
        emulator = Emulator(assemble(smc_source("fence.i"),
                                     compress=False))
        assert emulator.run(tier=3) == 2

    def test_without_fence_matches_precise_staleness(self):
        # The precise interpreter keeps the stale decode without a
        # fence (exit 1); tier-3 must reproduce that, not fix it.
        source = smc_source("nop")
        precise = Emulator(assemble(source, compress=False))
        tier3 = Emulator(assemble(source, compress=False))
        assert precise.run() == tier3.run(tier=3) == 1

    def test_smc_stream_equivalence(self):
        for name in SMC:
            assert_cells(name, Functional(3, cache="cold"))

    def test_mutated_run_not_persisted(self):
        # A run that observed code mutation must not seed the disk
        # cache: the entries describe text that no longer holds.
        emulator = Emulator(assemble(smc_source("fence.i"),
                                     compress=False))
        assert emulator.run(tier=3) == 2
        assert _cache_files() == []


# -- dispatch, fallback and bounds -------------------------------------------

class TestTier3Mode:
    def test_run_rejects_unknown_tier(self):
        with pytest.raises(ValueError):
            Emulator(assemble(_TINY)).run(tier=4)

    def test_run_tier_selects_engines(self):
        tier1 = Emulator(assemble(_TINY))
        assert tier1.run(tier=1) == 7
        assert tier1._blocks is None and tier1._codegen is None
        tier2 = Emulator(assemble(_TINY))
        assert tier2.run(tier=2) == 7
        assert tier2._blocks is not None and tier2._codegen is None
        tier3 = Emulator(assemble(_TINY))
        assert tier3.run(tier=3) == 7
        assert tier3._codegen is not None

    def test_sanitizer_falls_back_to_fast(self):
        from repro.analysis import Sanitizer

        program = assemble(_TINY)
        emulator = Emulator(program)
        emulator.sanitizer = Sanitizer(program)
        assert emulator.run(tier=3) == 7
        assert (emulator.tier, emulator.tier_reason) == (2, "sanitizer")
        assert emulator._codegen is None         # engine never built
        assert emulator._blocks is not None      # tier-2 ran instead

    def test_interrupt_fn_falls_back_to_precise(self):
        emulator = Emulator(assemble(_TINY), interrupt_fn=lambda: 0)
        batches = list(emulator.trace(tier=3))
        assert (emulator.tier, emulator.tier_reason) == (1, "interrupts")
        assert all(len(batch) == 1 for batch in batches)
        assert emulator._codegen is None
        assert emulator._blocks is None
        assert emulator.exit_code == 7

    def test_run_tier3_watchdog(self):
        emulator = Emulator(assemble(_TINY))
        with pytest.raises(WatchdogExpired):
            emulator.run(max_steps=10, tier=3)

    def test_trace_respects_budget_mid_block(self):
        precise, tier3 = Emulator(assemble(_TINY)), Emulator(assemble(_TINY))
        assert (stream(tier3.trace(7, tier=3), cut=True)
                == stream(precise.trace(7), cut=True))
        assert tier3.state.instret == precise.state.instret == 7

    def test_code_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(codegen, "CODE_CACHE_LIMIT", 2)
        emulator = Emulator(assemble(_TINY))
        assert emulator.run(tier=3) == 7
        engine = emulator._codegen
        assert len(engine.compiled) <= 2

    def test_counters_exposed(self):
        emulator = Emulator(assemble(_TINY))
        emulator.run(tier=3)
        counters = emulator.counters()
        for key in ("codegen_blocks_compiled", "codegen_compile_s",
                    "codegen_executions", "codegen_superblocks",
                    "codegen_side_exits", "codegen_disk_hits",
                    "codegen_disk_misses", "codegen_persisted"):
            assert key in counters
        # The loop's first trip runs in the entry's block, its second
        # on tier 2; its third dispatch links one superblock, the loop
        # unrolled 32 times, which closes on its head: the run variant
        # iterates it in one call.  Trips 3-34 are its first iteration,
        # and on the second it leaves at the 16th copy's guard when
        # trip 50 exits the loop.
        assert counters["codegen_superblocks"] == 1
        assert counters["codegen_executions"] == 1
        assert counters["codegen_side_exits"] == 1
        assert counters["codegen_persisted"] == 1

    @pytest.mark.parametrize("tier", [2, 3])
    def test_finished_emulator_freed_without_a_collection(self, tier):
        # the engines refer back to their emulator weakly: no cycle
        # keeps its superblocks and record slots until a full collection
        emulator = Emulator(assemble(_TINY))
        list(emulator.trace(tier=tier))
        emulator.run(tier=tier)
        ref = weakref.ref(emulator)
        gc.disable()
        try:
            del emulator
            assert ref() is None
        finally:
            gc.enable()
        # and a trace keeps the emulator it came from alive
        assert stream(Emulator(assemble(_TINY)).trace(tier=tier)) == stream(
            Emulator(assemble(_TINY)).trace())

    def test_surfaced_in_core_stats(self):
        from repro.harness.runner import run_on_core

        result = run_on_core(
            assemble(_TINY.replace("li a0, 7", "li a0, 0")), "xt910",
            tier=3)
        assert result.stats.extra["codegen_blocks_compiled"] >= 1
        assert "codegen_disk_hits" in result.stats.extra


# -- superblocks --------------------------------------------------------------

#: an if/else whose direction alternates with the trip count's parity,
#: inside a loop: superblocks leave at guards in both directions
_ALTERNATE = """
_start:
    li s0, 9
    j loop
loop:
    andi t0, s0, 1
    beqz t0, even
    addi a1, a1, 1
    j join
even:
    addi a2, a2, 1
join:
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
"""


def _precise_and_tier3(source: str, max_steps: int | None = None,
                       prepare=lambda emulator: None):
    """Tier 3's run of *source*, after checking its records and final
    state against the precise interpreter's; *prepare* sees each fresh
    emulator, the precise one first, before it runs."""
    program = assemble(source, compress=False)
    precise, tier3 = Emulator(program), Emulator(program)
    prepare(precise)
    prepare(tier3)
    cut = max_steps is not None
    assert (stream(tier3.trace(max_steps, tier=3), cut=cut)
            == stream(precise.trace(max_steps), cut=cut))
    assert tier3.fingerprint() == precise.fingerprint()
    return tier3


class TestSuperblocks:
    def test_side_exits_in_both_directions_match_precise(self):
        program = assemble(_ALTERNATE, compress=False)
        precise, tier3 = Emulator(program), Emulator(program)
        records, yielded = [], []
        for batch in tier3.trace(tier=3):
            records.extend(project(record) for record in batch)
            # the guard's outcome, read before the slots are reused
            yielded.append((batch, batch[-1].taken))
        assert records == stream(precise.trace())
        assert tier3.fingerprint() == precise.fingerprint()
        exits = {id(batch) for unit in tier3._codegen.compiled.values()
                 for position, batch in unit._prefixes.items()
                 if position in unit.guards}
        # left taken where the chain went on untaken, and the reverse
        assert {taken for batch, taken in yielded
                if id(batch) in exits} == {True, False}
        counters = tier3.counters()
        assert counters["codegen_superblocks"] >= 1
        assert counters["codegen_side_exits"] >= 2

    def test_repeated_exit_at_one_position_is_one_batch(self):
        emulator = Emulator(assemble(_ALTERNATE.replace("li s0, 9",
                                                        "li s0, 41"),
                                     compress=False))
        batches = list(emulator.trace(tier=3))   # kept alive: ids unique
        objects = collections.defaultdict(set)
        for batch in batches:
            if type(batch) is RecordBatch:
                objects[id(batch[0]), len(batch)].add(id(batch))
        assert all(len(ids) == 1 for ids in objects.values())
        exits = {id(batch)
                 for unit in emulator._codegen.compiled.values()
                 for position, batch in unit._prefixes.items()
                 if position in unit.guards}
        # the superblock at `even` leaves at one guard every other trip
        repeats = collections.Counter(id(batch) for batch in batches
                                      if id(batch) in exits)
        assert max(repeats.values()) >= 10

    @pytest.mark.parametrize("limit", [40, 100])
    def test_budget_cut_inside_a_superblock(self, limit):
        # 100: the loop's superblock (the body unrolled to 64) runs
        # once, then the 31 instructions left fall back to tier 2
        tier3 = _precise_and_tier3(_TINY, limit)
        assert tier3.state.instret == limit
        assert tier3.counters()["codegen_superblocks"] == 1
        assert tier3.counters()["codegen_executions"] == (limit > 69)

    def test_smc_into_a_non_head_constituent_drops_the_superblock(
            self, monkeypatch):
        # The loop's superblock chains `loop` into `body`.  Past the
        # loop, a four-block tier-2 bound has flushed `body`'s
        # translation when the epilogue jumps back to it: on that
        # re-translation's first run its store hits its own tail
        # (rewriting the instruction with its own encoding), and every
        # superblock containing `body` must go.
        source = """
            .data
        scratch: .zero 8
            .text
        _start:
            li s0, 8
            la t0, scratch
            la t2, tail
            lw t1, 0(t2)
            j loop
        loop:
            addi s0, s0, -1
            j body
        body:
            sw t1, 0(t0)
        tail:
            addi a0, a0, 1
            bnez s0, loop
            bnez s1, done
            li s1, 1
            mv t0, t2
            j body
        done:
            li a7, 93
            ecall
        """
        monkeypatch.setattr(blockcache, "BLOCK_CACHE_LIMIT", 4)
        dropped = []
        drop = codegen.CodegenEngine.drop

        def spy(engine, start):
            dropped.append((start, set(engine._containing.get(start, ()))))
            drop(engine, start)
            dropped.append(set(engine.compiled))

        monkeypatch.setattr(codegen.CodegenEngine, "drop", spy)
        tier3 = _precise_and_tier3(source)
        program = tier3.program
        body, loop = program.symbol("body"), program.symbol("loop")
        assert dropped == [(body, {loop}), set()]
        assert tier3.counters()["codegen_smc_drops"] == 1

    def test_fence_i_inside_a_chain_drops_everything(self):
        # Every fourth trip leaves the loop's superblock at a guard for
        # a fence.i, which drops every translation; the loop re-forms.
        # A block ending in a fence never joins a chain: running it
        # drops it with everything else.
        source = """
        _start:
            li s0, 40
            j loop
        loop:
            addi s0, s0, -1
            andi t0, s0, 3
            bnez t0, skip
            fence.i
        skip:
            addi a0, a0, 1
            bnez s0, loop
            li a7, 93
            ecall
        """
        formed = []
        form = codegen.CodegenEngine.form

        def spy(engine, head):
            unit = form(engine, head)
            formed.append(unit)
            return unit

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(codegen.CodegenEngine, "form", spy)
            tier3 = _precise_and_tier3(source)
        counters = tier3.counters()
        assert counters["codegen_invalidations"] >= 5
        assert counters["codegen_superblocks"] >= 5
        assert not any(entry[4] & blockcache.FLAG_FENCE_I
                       for unit in formed for entry in unit.entries)

    def test_crash_names_the_faulting_constituent(self, monkeypatch):
        source = """
        _start:
            li s0, 8
            j loop
        loop:
            addi s0, s0, -1
            j body
        body:
            fadd.d f0, f1, f2
            bnez s0, loop
            li a7, 93
            ecall
        """
        calls = []
        fadd = exec_scalar.SCALAR_EXEC["fadd.d"]

        def failing(state, inst):
            calls.append(None)
            if len(calls) == 4:     # inside the loop's superblock
                raise ValueError("injected")
            return fadd(state, inst)

        monkeypatch.setitem(exec_scalar.SCALAR_EXEC, "fadd.d", failing)
        emulator = Emulator(assemble(source, compress=False))
        with pytest.raises(EmulatorError) as excinfo:
            emulator.run(tier=3)
        body = emulator.program.symbol("body")
        loop = emulator.program.symbol("loop")
        assert (f"fadd.d (block {body:#x} of the superblock at {loop:#x})"
                f" at pc={body:#x}") in str(excinfo.value)


class TestSuperblockDiskCache:
    def test_coremark_warm_start_links_superblocks_from_disk(self):
        for workload in coremark_suite():
            Emulator(workload.program()).run(tier=3)     # cold: persist
        for workload in coremark_suite():
            emulator = Emulator(workload.program())
            emulator.run(tier=3)                         # warm: link only
            counters = emulator.counters()
            assert counters["codegen_blocks_compiled"] == 0, workload.name
            assert counters["codegen_compile_s"] == 0.0, workload.name
            assert counters["codegen_disk_hits"] > 0, workload.name
            assert counters["codegen_superblocks"] > 0, workload.name

    def test_mutated_constituent_misses(self):
        # Two loops, one superblock each; `body` is a non-head
        # constituent of the first.  The warm run patches it in memory
        # (the text, and so the cache file, is the same): its
        # superblock misses on the constituent digest, the other links.
        source = """
        _start:
            li s0, 6
            j loop
        loop:
            addi s0, s0, -1
            j body
        body:
            addi a0, a0, 1
            bnez s0, loop
            li s0, 6
        again:
            addi a0, a0, 3
            addi s0, s0, -1
            bnez s0, again
            li a7, 93
            ecall
        """
        program = assemble(source, compress=False)
        patched = assemble(source.replace("addi a0, a0, 1",
                                          "addi a0, a0, 2"), compress=False)
        assert Emulator(program).run(tier=3) == 6 + 18
        warm, precise = Emulator(program), Emulator(patched)
        warm.state.memory.store_bytes(program.text_base, bytes(patched.text))
        assert warm.run(tier=3) == precise.run() == 12 + 18
        assert warm.fingerprint() == precise.fingerprint()
        counters = warm.counters()
        assert counters["codegen_disk_misses"] == 1
        assert counters["codegen_blocks_compiled"] == 1
        assert counters["codegen_disk_hits"] >= 1


# -- inline kinds and their fallback ------------------------------------------

_EDGES = [0, 1, 0x7F, 0x80, 0xFF, 0x7FFF, 0x8000, 0xFFFF, 0x8001,
          0x7FFFFFFF, 0x80000000, 0xFFFFFFFF, 0x0123456789ABCDEF,
          0x00FF00FF00FF0000, 0x8000000000000000, 0xFFFFFFFFFFFF8003,
          0xFFFFFFFFFFFFFFFF]
#: (imm, aux) operands of each inlined XT mnemonic
_XT_OPERANDS = {
    **{mn: [(0, 0)] for mn in ("mula", "muls", "mulaw", "mulsw", "mulah",
                               "mulsh", "ff0", "ff1", "rev", "revw",
                               "tstnbz")},
    "srri": [(amount, 0) for amount in (0, 1, 31, 32, 63)],
    "srriw": [(amount, 0) for amount in (0, 1, 31)],
    "addsl": [(0, aux) for aux in range(4)],
    "ext": [(msb << 6 | lsb, 0) for msb, lsb in ((63, 0), (39, 4),
                                                 (7, 7), (31, 16))],
}
_XT_OPERANDS["extu"] = _XT_OPERANDS["ext"]


@pytest.mark.parametrize("mnemonic", sorted(_XT_OPERANDS))
def test_xt_template_is_its_handler(mnemonic):
    """Each inlined XT template against its ``exec_scalar`` handler on
    edge values, with rd also a source (the MAC accumulator).  The
    template works on the register locals ``x1``-``x3``, read from and
    stored back to ``R`` as a generated unit does."""
    handler = exec_scalar.SCALAR_EXEC[mnemonic]
    state = MachineState()
    for imm, aux in _XT_OPERANDS[mnemonic]:
        inst = Instruction(spec=SPECS[mnemonic], rd=3, rs1=1, rs2=2,
                           imm=imm, aux=aux)
        lines = ["x1, x2, x3 = R[1], R[2], R[3]",
                 *codegen._alu_lines(inst), "R[3] = x3"]
        scope: dict = {}
        exec("def template(R):\n" + "".join(f"    {line}\n"
                                             for line in lines), scope)
        for a in _EDGES:
            for b in _EDGES:
                regs = [0, a, b, a ^ b] + [0] * 28
                state.regs[:] = regs
                handler(state, inst)
                scope["template"](regs)
                assert regs == state.regs, (mnemonic, imm, aux, a, b)


class _Device:
    """An MMIO toy: logs every access; a load reads the access count."""

    def __init__(self):
        self.log: list[tuple] = []

    def load(self, offset, size):
        self.log.append(("load", offset, size))
        return len(self.log) * 0x0101010101010101 & ((1 << size * 8) - 1)

    def store(self, offset, value, size):
        self.log.append(("store", offset, value, size))


class TestInlineFallback:
    """Tier 3 slices pages directly; everything else keeps calling
    ``Memory.load_int``/``store_int``.  Each program runs superblocks."""

    def test_instance_wrapped_store_int_sees_every_store(self):
        stores = []

        def wrap(emulator):
            memory = emulator.state.memory
            calls, original = [], memory.store_int
            stores.append(calls)

            def store_int(addr, value, size):
                calls.append((addr, value, size))
                original(addr, value, size)
            memory.store_int = store_int

        tier3 = _precise_and_tier3(INLINE.source, prepare=wrap)
        assert tier3.counters()["codegen_executions"] > 0
        precise_stores, tier3_stores = stores
        assert len(tier3_stores) > 100
        assert tier3_stores == precise_stores

    def test_mmio_device_sees_its_loads_and_stores(self):
        source = """
        _start:
            li s0, 5
            li s1, 0x10000000
        loop:
            lw t0, 4(s1)
            lb t1, 1(s1)
            ld t2, 8(s1)
            lw zero, 0(s1)
            sw t0, 16(s1)
            sd t2, 24(s1)
            sb t1, 3(s1)
            add a0, a0, t1
            addi s0, s0, -1
            bnez s0, loop
            andi a0, a0, 127
            li a7, 93
            ecall
        """
        logs = []

        def mmio(emulator):
            device = _Device()
            logs.append(device.log)
            emulator.state.memory.register_mmio(0x10000000, 0x1000, device)

        tier3 = _precise_and_tier3(source, prepare=mmio)
        assert tier3.counters()["codegen_executions"] > 0
        precise_log, tier3_log = logs
        assert len(tier3_log) == 5 * 7
        assert tier3_log == precise_log

    def test_untouched_page_loads_allocate_nothing(self):
        # the fingerprint ignores zero pages, so it cannot see this
        emulators = []
        _precise_and_tier3(INLINE.source, prepare=emulators.append)
        precise, tier3 = emulators
        assert tier3.counters()["codegen_executions"] > 0
        assert (tier3.state.memory.allocated_bytes
                == precise.state.memory.allocated_bytes)

    def test_page_straddling_accesses_match(self):
        source = """
        _start:
            li s0, 5
            li s1, 0x201FFC
            li t0, 0x1122334455667788
        loop:
            sd t0, 0(s1)
            ld t1, 0(s1)
            sw t1, 2(s1)
            lw t2, 2(s1)
            sh t2, 3(s1)
            lh t3, 3(s1)
            lhu t4, 3(s1)
            add t0, t0, t3
            xor t0, t0, t4
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """
        tier3 = _precise_and_tier3(source)
        assert tier3.counters()["codegen_executions"] > 0


VMEM = """
_start:
    li s0, 5
    li s1, 0x201000          # the source, filled below
    li s2, 0x203000          # allocated by its first vse
    li s3, 0x205000          # never stored to: its loads read zeros
    li s4, 0x210000          # a fresh page every round
    li t0, 0x1122334455667788
    li t1, 0
fill:
    slli t2, t1, 3
    add t2, t2, s1
    sd t0, 0(t2)
    addi t0, t0, 0x135
    addi t1, t1, 1
    li t2, 64
    blt t1, t2, fill
loop:
    li t0, 16
    vsetvli t1, t0, e8, m1
    vle8.v v1, (s1)
    vse8.v v1, (s2)
    vse8.v v1, (s4)
    li t0, 8
    vsetvli t1, t0, e16, m1
    vle16.v v2, (s1)
    addi a1, s2, 16
    vse16.v v2, (a1)
    li t0, 16
    vsetvli t1, t0, e32, m4
    vle32.v v4, (s1)
    addi a1, s2, 64
    vse32.v v4, (a1)
    li t0, 4
    vsetvli t1, t0, e64, m2
    addi a1, s1, 8
    vle64.v v10, (a1)
    vle64.v v12, (s3)
    addi a1, s2, 160
    vse64.v v10, (a1)
    addi a1, s2, 200
    vse64.v v12, (a1)
    addi s1, s1, 24
    addi s2, s2, 8
    li t2, 4096
    add s4, s4, t2
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
"""


def _vector_tiers(source: str, prepare=lambda emulator: None):
    """The precise, tier-3 ``trace`` and tier-3 ``run`` emulators of
    *source*, after checking that both tier-3 variants ran superblocks
    and left the precise records, state and ``vec_counters``; *prepare*
    sees each fresh emulator, in that order, before it runs."""
    program = assemble(source, compress=False)
    precise, traced, ran = (Emulator(program) for _ in range(3))
    for emulator in (precise, traced, ran):
        prepare(emulator)
    assert stream(traced.trace(None, tier=3)) == stream(precise.trace(None))
    ran.run(tier=3)
    for emulator in (traced, ran):
        assert emulator.counters()["codegen_executions"] > 0
        assert emulator.fingerprint() == precise.fingerprint()
        assert emulator.state.vec_counters == precise.state.vec_counters
    return precise, traced, ran


def _kinds_by_mnemonic(emulator) -> dict[str, set]:
    """Each vector mnemonic of the compiled superblocks but ``vsetvli``
    -> the emission kinds pass 1 gave it."""
    kinds = collections.defaultdict(set)
    vlen = emulator.state.vlen
    for unit in emulator._codegen.compiled.values():
        for block in unit.blocks:
            for entry, kind in zip(block.entries,
                                   codegen._kinds(block, vlen)):
                if isinstance(kind, tuple):     # (vector kind, static)
                    kinds[entry[1].spec.mnemonic].add(kind[0])
    return kinds


class TestVectorInlineFallback:
    """Tier 3 copies an unmasked unit-stride ``vle``/``vse`` straight
    between its page and ``vbuf``; every case the copy cannot serve
    takes the full step, whose handler is the template's oracle.  Each
    program runs superblocks, in both variants."""

    @pytest.fixture(autouse=True)
    def _numpy_engine(self):
        entered = exec_vector.active_engine()
        exec_vector.select_engine("numpy")
        yield
        exec_vector.select_engine(entered)

    def test_templates_serve_the_resident_pages(self, monkeypatch):
        """Only the load from an untouched page and the store to a fresh
        one call their handler at tier 3."""
        calls = collections.Counter()
        bind = codegen.bind_handler

        def counting(inst, static=None, scoped=True):
            handler = bind(inst, static, scoped)

            def count(state, i):
                calls[i.spec.mnemonic] += 1
                handler(state, i)
            return count

        monkeypatch.setattr(codegen, "bind_handler", counting)
        precise, _traced, ran = _vector_tiers(VMEM)
        assert precise.state.vec_counters["fallback_ops"] == 0
        assert set(calls) == {"vle64.v", "vse8.v"}
        assert {kind for kinds in _kinds_by_mnemonic(ran).values()
                for kind in kinds} == {"vmem"}

    def test_instance_wrapped_store_bytes_sees_every_vse(self):
        logs = []

        def wrap(emulator):
            memory = emulator.state.memory
            calls, original = [], memory.store_bytes
            logs.append(calls)

            def store_bytes(addr, data):
                calls.append((addr, bytes(data)))
                original(addr, data)
            memory.store_bytes = store_bytes

        _vector_tiers(VMEM, prepare=wrap)
        precise_log, traced_log, ran_log = logs
        assert len(precise_log) == 5 * 6
        assert traced_log == ran_log == precise_log

    def test_mmio_device_sees_the_same_vector_accesses(self):
        source = """
        _start:
            li s0, 5
            li s1, 0x10000000
            li s2, 0x201000
            sd zero, 0(s2)
        loop:
            li t0, 4
            vsetvli t1, t0, e32, m1
            vle32.v v1, (s1)
            addi a1, s1, 64
            vse32.v v1, (a1)
            li t0, 16
            vsetvli t1, t0, e8, m1
            vle8.v v2, (s2)
            vse8.v v2, (s1)
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """
        logs = []

        def mmio(emulator):
            device = _Device()
            logs.append(device.log)
            emulator.state.memory.register_mmio(0x10000000, 0x1000, device)

        _vector_tiers(source, prepare=mmio)
        precise_log, traced_log, ran_log = logs
        assert len(precise_log) == 5 * (4 + 4 + 16)
        assert traced_log == ran_log == precise_log

    def test_untouched_page_loads_allocate_nothing(self):
        # the fingerprint ignores zero pages, so it cannot see this
        precise, traced, ran = _vector_tiers(VMEM)
        assert (traced.state.memory.allocated_bytes
                == ran.state.memory.allocated_bytes
                == precise.state.memory.allocated_bytes)
        assert 0x205 not in precise.state.memory._pages

    def test_page_straddling_accesses_match(self):
        source = """
        _start:
            li s0, 5
            li s1, 0x201FF8          # 8 bytes before a page boundary
            li s2, 0x203FF0          # 16 bytes before one
            li t0, 0x1122334455667788
            sd t0, 0(s1)
            sd t0, 8(s1)
            sd t0, -8(s1)
        loop:
            li t0, 4
            vsetvli t1, t0, e32, m1
            vle32.v v1, (s1)         # 8 bytes on each page
            addi a1, s1, -8
            vle32.v v2, (a1)         # ends at the boundary
            vse32.v v1, (s2)         # ends at the boundary
            addi a1, s2, 8
            vse32.v v2, (a1)         # onto the untouched next page
            li t0, 16
            vsetvli t1, t0, e64, m8
            addi a1, s1, -96
            vle64.v v8, (a1)         # 128 bytes, 24 of them on the next page
            addi a1, s2, -64
            vse64.v v8, (a1)
            add t0, t0, s0
            sd t0, 0(s1)
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """
        _vector_tiers(source)

    def test_vl_zero_matches(self):
        source = """
        _start:
            li s0, 5
            li s1, 0x201000
            li t0, 0x1122334455667788
            sd t0, 0(s1)
        loop:
            li t0, 4
            vsetvli t1, t0, e32, m1
            vle32.v v1, (s1)
            li t0, 0
            vsetvli t1, t0, e32, m1
            vle32.v v2, (s1)
            addi a1, s1, 64
            vse32.v v1, (a1)
            vse8.v v1, (s1)
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """
        precise, _traced, _ran = _vector_tiers(source)
        assert precise.state.vec_counters["elems_total"] == 5 * 4

    def test_group_past_v31_falls_back(self):
        source = """
        _start:
            li s0, 5
            li s1, 0x201000
            li t0, 0x1122334455667788
            sd t0, 0(s1)
            sd t0, 1016(s1)
        loop:
            li t0, 128
            vsetvli t1, t0, e8, m8
            vle8.v v24, (s1)         # 128 bytes: v24-v31 exactly
            vle64.v v24, (s1)        # 1,024 bytes from v24 on
            addi a1, s1, 2040
            vse64.v v24, (a1)
            vse8.v v24, (a1)
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """
        precise, _traced, _ran = _vector_tiers(source)
        assert precise.state.vec_counters["fallback_ops"] == 5 * 2

    def test_masked_and_strided_forms_take_the_full_step(self):
        source = """
        _start:
            li s0, 5
            li s1, 0x201000
            li t0, 0x1122334455667788
            sd t0, 0(s1)
            sd t0, 8(s1)
            sd t0, 24(s1)
        loop:
            li t0, 16
            vsetvli t1, t0, e8, m1
            vle8.v v0, (s1)
            li t0, 4
            vsetvli t1, t0, e32, m1
            vle32.v v1, (s1), v0.t
            li t2, 8
            vlse32.v v2, (s1), t2
            addi a1, s1, 64
            vse32.v v1, (a1), v0.t
            vsse32.v v2, (a1), t2
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """
        _precise, _traced, ran = _vector_tiers(source)
        assert _kinds_by_mnemonic(ran) == {
            "vle8.v": {"vmem"}, "vle32.v": {"full"}, "vlse32.v": {"full"},
            "vse32.v": {"full"}, "vsse32.v": {"full"}}

    def test_reference_engine_emits_no_template(self):
        exec_vector.select_engine("ref")
        _precise, _traced, ran = _vector_tiers(VMEM)
        assert {kind for kinds in _kinds_by_mnemonic(ran).values()
                for kind in kinds} == {"full"}
        assert all("D = state.vbuf.data" not in codegen.emit_source(
                       unit.blocks, trace, ran.state.vlen)
                   for unit in ran._codegen.compiled.values()
                   for trace in (False, True))


def _scalar(body: str) -> str:
    """A program that runs *body* five times round, with ``t0``, ``ft0``
    and ``ft1`` holding sign-bit-set values, ``s2`` a page the body
    stores to, ``s3`` the middle of a page nothing writes, ``s4`` 8
    bytes before the end of another page, and ``s5``/``s6`` free for
    checksums."""
    return f"""
        .data
        .align 3
    vals: .dword 0x8091A2B3C4D5E6F7, 0xF0E1D2C3B4A59687, 0xFFFFFFFF80008080
        .text
    _start:
        li s0, 5
        la s1, vals
        li s2, 0x201000
        li s3, 0x300800
        li s4, 0x204FF8
        li s5, 0
        li s6, 0
        ld t0, 0(s1)
        fld ft0, 8(s1)
        flw ft1, 16(s1)
    loop:
    {body}
        addi t0, t0, 0x135
        addi s0, s0, -1
        bnez s0, loop
        li a0, 0
        li a7, 93
        ecall
    """


def _round_trip(base: str, offsets: dict[str, int]) -> str:
    """Every scalar store of the sign-bit-set values at
    ``offsets[mnemonic](base)``, then every load back from the same
    places (each integer load at its store's field), folded into
    ``s5``/``s6`` so the fingerprint sees each value."""
    def at(mnemonic: str) -> str:
        return f"{offsets[mnemonic]}({base})"
    lines = [f"sd t0, {at('sd')}", f"sw t0, {at('sw')}",
             f"sh t0, {at('sh')}", f"sb t0, {at('sb')}",
             f"fsd ft0, {at('fsd')}", f"fsw ft1, {at('fsw')}"]
    for load, store, reg in (("lb", "sb", "t1"), ("lbu", "sb", "t2"),
                             ("lh", "sh", "t3"), ("lhu", "sh", "t4"),
                             ("lw", "sw", "t5"), ("lwu", "sw", "t6"),
                             ("ld", "sd", "a1")):
        lines += [f"{load} {reg}, {at(store)}", f"add s5, s5, {reg}",
                  f"xor s6, s6, {reg}"]
    lines += [f"flw ft2, {at('fsw')}", f"fld ft3, {at('fsd')}",
              "fmv.x.d a2, ft2", "fmv.x.d a3, ft3",
              "add s5, s5, a2", "xor s6, s6, a3"]
    return "\n".join(f"        {line}" for line in lines)


#: one field per store, packed: a 1-byte field at 14, and so on
_IN_PAGE = {"sd": 0, "sw": 8, "sh": 12, "sb": 14, "fsd": 16, "fsw": 24}
#: every field unaligned, none crossing the page
_UNALIGNED = {"sd": 35, "sw": 45, "sh": 51, "sb": 53, "fsd": 57, "fsw": 67}
#: each field's last byte is its page's last (s4 is 8 before the end);
#: the FP stores overwrite the integer ones, so the loads read theirs
_PAGE_END = {"sd": 0, "sw": 4, "sh": 6, "sb": 7, "fsd": 0, "fsw": 4}
#: each field one byte later, so it crosses into the next page (the
#: byte lands in it)
_STRADDLE = {"sd": 1, "sw": 5, "sh": 7, "sb": 8, "fsd": 1, "fsw": 5}
#: every load width from the page nothing writes: aligned, unaligned,
#: ending at the page end, and one crossing into the next page
_UNTOUCHED = "\n".join(
    f"        {load} {reg}, {offset}(s3)\n        add s5, s5, {reg}"
    for load, reg, offset in (("lb", "t1", -2041), ("lbu", "t2", 2047),
                              ("lh", "t3", 6), ("lhu", "t4", 2046),
                              ("lw", "t5", 1), ("lwu", "t6", 2044),
                              ("ld", "a1", 2040), ("ld", "a2", -2045),
                              ("lw", "a5", 2045))
) + """
        flw ft2, 12(s3)
        fld ft3, 16(s3)
        fmv.x.d a4, ft3
        add s5, s5, a4"""
#: loads into x0, some from the page nothing writes, and stores of x0
#: over fields the round filled first
_X0 = """
        sd t0, 0(s2)
        sd t0, 8(s2)
        sd t0, 16(s2)
        lw zero, 0(s2)
        ld zero, 8(s2)
        lh zero, 16(s3)
        ld zero, 24(s3)
        sd zero, 0(s2)
        sw zero, 8(s2)
        sh zero, 12(s2)
        sb zero, 16(s2)
        ld t1, 0(s2)
        ld t2, 8(s2)
        ld t3, 16(s2)
        add s5, s5, t1
        add s5, s5, t2
        xor s6, s6, t3"""


class TestScalarPageCodecs:
    """Tier 3 reads and writes a 2-, 4- or 8-byte field inside one page
    with a ``struct`` codec and reads a page nothing wrote from the
    shared zero page; a byte keeps its index, and everything else still
    goes through ``Memory.load_int``/``store_int``.  Each program runs
    superblocks, and both tier-3 variants must leave the precise
    records and state (``_vector_tiers``)."""

    def test_every_width_round_trips_sign_bit_set_values(self):
        _precise, traced, _ran = _vector_tiers(
            _scalar(_round_trip("s2", _IN_PAGE)))
        sources = "".join(
            codegen.emit_source(unit.blocks, trace, traced.state.vlen)
            for unit in traced._codegen.compiled.values()
            for trace in (False, True))
        for codec in ("U2(", "U4(", "U8(", "K2(", "K4(", "K8("):
            assert codec in sources

    def test_unaligned_in_page_accesses(self):
        _vector_tiers(_scalar(_round_trip("s2", _UNALIGNED)))

    def test_fields_ending_at_the_page_end(self):
        _vector_tiers(_scalar(_round_trip("s4", _PAGE_END)))

    def test_fields_crossing_the_page_end_fall_back(self):
        precise, traced, ran = _vector_tiers(
            _scalar(_round_trip("s4", _STRADDLE)))
        # the fallback stores allocate the next page, as tier 1's do
        assert (traced.state.memory.allocated_bytes
                == ran.state.memory.allocated_bytes
                == precise.state.memory.allocated_bytes)

    def test_untouched_page_loads_read_zero_inline(self):
        sizes, load_calls = [], []

        def prepare(emulator):
            sizes.append(emulator.state.memory.allocated_bytes)

        precise, traced, ran = _vector_tiers(_scalar(_UNTOUCHED),
                                             prepare=prepare)
        for emulator, size in zip((precise, traced, ran), sizes):
            assert emulator.state.regs[21] == 0          # s5
            assert emulator.state.memory.allocated_bytes == size
        # the rounds superblocks run call load_int for the untouched
        # pages only at the load crossing the page end
        emulator = Emulator(assemble(_scalar(_UNTOUCHED), compress=False))

        def count(frame, event, arg):
            if (event == "call" and frame.f_code.co_name == "load_int"
                    and frame.f_locals["addr"] >= 0x300000):
                load_calls.append(frame.f_locals["addr"])

        previous = sys.getprofile()
        sys.setprofile(count)
        try:
            emulator.run(tier=3)
        finally:
            sys.setprofile(previous)
        assert emulator.counters()["codegen_executions"] > 0
        calls = collections.Counter(load_calls)
        assert calls.pop(0x300800 + 2045) == 5
        assert len(calls) == 10 and max(calls.values()) < 5

    def test_loads_into_and_stores_of_x0(self):
        _vector_tiers(_scalar(_X0))

    def test_mmio_device_sees_every_access(self):
        logs = []

        def mmio(emulator):
            device = _Device()
            logs.append(device.log)
            emulator.state.memory.register_mmio(0x201000, 0x1000, device)

        _vector_tiers(_scalar(_round_trip("s2", _IN_PAGE) + "\n" + _X0),
                      prepare=mmio)
        precise_log, traced_log, ran_log = logs
        assert len(precise_log) == 5 * 27
        assert traced_log == ran_log == precise_log

    @pytest.mark.parametrize("entry", ["load_int", "store_int"])
    def test_instance_wrapped_entry_point_sees_every_access(self, entry):
        logs = []

        def wrap(emulator):
            memory = emulator.state.memory
            calls, original = [], getattr(memory, entry)
            logs.append(calls)

            def wrapped(*args, **kwargs):
                if args[0] >= 0x100000:     # data, not instruction fetch
                    # no kwargs: tier 3 passes no ``signed`` (it extends
                    # the unsigned field itself)
                    calls.append(args)
                return original(*args, **kwargs)
            setattr(memory, entry, wrapped)

        body = "\n".join((_round_trip("s2", _IN_PAGE),
                          _round_trip("s4", _PAGE_END), _UNTOUCHED, _X0))
        _vector_tiers(_scalar(body), prepare=wrap)
        precise_log, traced_log, ran_log = logs
        # 36 loads a round, 4 of them into x0, after the 3 loading the
        # values, or 19 stores a round
        assert len(precise_log) == (5 * 36 + 3 if entry == "load_int"
                                    else 5 * 19)
        assert traced_log == ran_log == precise_log


def _direct_tiers(source: str, tmp_path):
    """The precise, tier-3 ``trace`` and tier-3 ``run`` emulators of
    *source*, after checking that both tier-3 variants ran superblocks
    and left the precise records and state, and the ``vec_counters`` of
    tier 3 with every vector op on its handler: the precise interpreter
    proves no vtype static, so it counts no ``specialized_ops``."""
    program = assemble(source, compress=False)
    precise, traced, ran = (Emulator(program) for _ in range(3))
    assert stream(traced.trace(None, tier=3)) == stream(precise.trace(None))
    ran.run(tier=3)
    handlers = Emulator(program, code_cache_dir=str(tmp_path / "handlers"))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(codegen, "direct_op", lambda inst, static, vlen: None)
        handlers.run(tier=3)
    for emulator in (traced, ran):
        assert emulator.counters()["codegen_executions"] > 0
        assert emulator.fingerprint() == precise.fingerprint()
        assert emulator.state.vec_counters == handlers.state.vec_counters
    assert (dict(handlers.state.vec_counters, specialized_ops=0)
            == precise.state.vec_counters)
    return precise, traced, ran


#: one of every kind of batched arithmetic op under static vtypes: a
#: counted one, a compare, FP, a widening MAC, a reduction, and ops that
#: count for themselves (vmerge, the mask logicals, vmv.x.s)
VAPPLY = """
_start:
    li s0, 5
    li s1, 0x201000
    li s2, 0x203000
    li t0, 0x4010000040200000
    sd t0, 0(s1)
    li t0, 0x3FC00000C0400000
    sd t0, 8(s1)
    li t0, 0x00000005FFFFFFFD
    sd t0, 16(s1)
loop:
    li t0, 4
    vsetvli t1, t0, e32, m1
    vle32.v v0, (s1)
    addi a1, s1, 8
    vle32.v v1, (a1)
    vadd.vv v3, v1, v0
    vmsne.vv v4, v1, v3
    vcpop.m t2, v4
    vmerge.vvm v5, v1, v3, v0
    vmand.mm v6, v4, v0
    vredsum.vs v7, v3, v1
    vmv.x.s t3, v7
    add s3, s3, t2
    add s3, s3, t3
    flw fa0, 0(s1)
    vfmacc.vf v8, fa0, v1
    vfnmacc.vv v9, v1, v0
    vfmadd.vf v9, fa0, v8
    li t0, 4
    vsetvli t1, t0, e16, m1
    vwmacc.vv v10, v1, v0
    vadd.vi v12, v1, 3
    vmul.vx v13, v1, s0
    li t0, 4
    vsetvli t1, t0, e32, m1
    vse32.v v9, (s2)
    addi a1, s2, 16
    vse32.v v10, (a1)
    addi s2, s2, 32
    addi s0, s0, -1
    bnez s0, loop
    mv a0, zero
    li a7, 93
    ecall
"""

_ARITH = {"vadd.vv", "vmsne.vv", "vcpop.m", "vmerge.vvm", "vmand.mm",
          "vredsum.vs", "vmv.x.s", "vfmacc.vf", "vfnmacc.vv", "vfmadd.vf",
          "vwmacc.vv", "vadd.vi", "vmul.vx"}


def _fp_edges(sew: int) -> list[int]:
    """Sixteen SEW-bit patterns: NaNs with payloads, quiet and
    signalling, of both signs; +-inf; +-0; subnormals; +-the largest
    finite value (twice it overflows); and four ordinary values."""
    exp = {16: 5, 32: 8, 64: 11}[sew]
    man = sew - 1 - exp
    sign, inf, quiet = 1 << (sew - 1), ((1 << exp) - 1) << man, 1 << (man - 1)
    fmt, raw = {16: ("<e", "<H"), 32: ("<f", "<I"), 64: ("<d", "<Q")}[sew]

    def bits(value: float) -> int:
        return struct.unpack(raw, struct.pack(fmt, value))[0]
    return [inf | quiet | 5, sign | inf | quiet | 0x23, inf | 1,
            sign | inf | 5, inf, sign | inf, sign, 0, 1, sign | (quiet - 1),
            inf - 1, sign | (inf - 1), bits(1.5), bits(-2.0), bits(3.25),
            bits(0.1)]


_FP_MACS = ("vfmacc", "vfnmacc", "vfmadd")


def _fp_edge_program(sew: int, sfx: str) -> tuple[str, list[list[int]]]:
    """Five rounds of the three FP multiply-adds over the edge lanes
    (vs2 = the edges, vs1 and vd rotations of them, the .vf scalar a
    NaN, inf, -0, a subnormal and 2.0 in turn), each result stored; and
    per stored lane, its inputs."""
    lanes = _fp_edges(sew)
    vs1, vd = lanes[5:] + lanes[:5], lanes[11:] + lanes[:11]
    scalars = [lanes[1], lanes[4], lanes[6], lanes[8], lanes[13]]
    directive = {16: ".half", 32: ".word", 64: ".dword"}[sew]
    ops = "".join(f"""
    la a0, vd
    vle{sew}.v v24, (a0)
    {op}.{sfx} v24, {"v16" if sfx == "vv" else "fa0"}, v8
    vse{sew}.v v24, (s2)
    addi s2, s2, {2 * sew}""" for op in _FP_MACS)
    inputs = [[lanes[k], vs1[k] if sfx == "vv" else scalars[r], vd[k]]
              for r in range(5) for _op in _FP_MACS for k in range(16)]

    def row(values: list[int]) -> str:
        return ", ".join(str(v) for v in values)
    return f"""
    .data
    .align 3
va: {directive} {row(lanes)}
vb: {directive} {row(vs1)}
vd: {directive} {row(vd)}
sc: .dword {row(scalars)}
out: .zero {len(inputs) * sew // 8}
    .text
_start:
    li s0, 5
    la s1, sc
    la s2, out
loop:
    fld fa0, 0(s1)
    li t0, 16
    vsetvli t1, t0, e{sew}, m{sew // 8}
    la a0, va
    vle{sew}.v v8, (a0)
    la a0, vb
    vle{sew}.v v16, (a0){ops}
    addi s1, s1, 8
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
""", inputs


class TestVectorApply:
    """Tier 3 calls a statically typed batched op's bound ``apply``
    directly (the ``vapply`` kind); a masked counted op, an op without a
    static vtype, a binding that falls back and the reference engine
    keep the full step.  Each program runs superblocks, in both
    variants, and counts what the handlers count."""

    @pytest.fixture(autouse=True)
    def _numpy_engine(self):
        entered = exec_vector.active_engine()
        exec_vector.select_engine("numpy")
        yield
        exec_vector.select_engine(entered)

    def test_static_ops_are_called_directly(self, tmp_path):
        precise, _traced, ran = _direct_tiers(VAPPLY, tmp_path)
        counters = ran.state.vec_counters
        assert counters["fallback_ops"] == 0
        assert counters["specialized_ops"] > 0
        kinds = _kinds_by_mnemonic(ran)
        assert {mn: kinds[mn] for mn in _ARITH} == {
            mn: {"vapply"} for mn in _ARITH}
        assert precise.state.regs[19] != 0       # s3 saw vcpop and vmv.x.s

    def test_no_static_vtype_keeps_the_full_step(self, tmp_path):
        """A vsetvl takes its vtype from a register, here e32 and e16 in
        turn: the ops after it keep their handler, which rebinds."""
        source = """
        _start:
            li s0, 6
            li s1, 0x201000
            li s2, 0x203000
            li s3, 8                 # vtype e32,m1; xor 12 gives e16,m1
            li t0, 0x4010000040200000
            sd t0, 0(s1)
            sd t0, 8(s1)
        loop:
            li t0, 4
            vsetvli t1, t0, e32, m1
            vle32.v v1, (s1)
            vle32.v v2, (s1)
            vadd.vv v3, v1, v2
            flw fa0, 0(s1)
            vsetvl t1, t0, s3
            vadd.vv v4, v1, v3
            vfmacc.vf v4, fa0, v2
            li t0, 4
            vsetvli t1, t0, e32, m1
            vse32.v v4, (s2)
            addi s2, s2, 16
            xori s3, s3, 12
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """
        _precise, _traced, ran = _direct_tiers(source, tmp_path)
        kinds = _kinds_by_mnemonic(ran)
        assert kinds["vadd.vv"] == {"vapply", "full"}
        assert kinds["vfmacc.vf"] == {"full"}

    def test_masked_counted_ops_keep_the_full_step(self, tmp_path):
        source = """
        _start:
            li s0, 5
            li s1, 0x201000
            li t0, 0x4010000040200005
            sd t0, 0(s1)
            sd t0, 8(s1)
        loop:
            li t0, 4
            vsetvli t1, t0, e32, m1
            vle32.v v0, (s1)
            vle32.v v1, (s1)
            flw fa0, 4(s1)
            vadd.vv v3, v1, v0, v0.t
            vfmacc.vf v4, fa0, v1, v0.t
            vmerge.vvm v5, v1, v3, v0
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """
        precise, _traced, ran = _direct_tiers(source, tmp_path)
        assert precise.state.vec_counters["masked_ops"] == 5 * 3
        assert {mn: kinds for mn, kinds in _kinds_by_mnemonic(ran).items()
                if mn != "vle32.v"} == {
            "vadd.vv": {"full"}, "vfmacc.vf": {"full"},
            "vmerge.vvm": {"vapply"}}

    def test_group_past_v31_keeps_the_full_step(self, tmp_path):
        source = """
        _start:
            li s0, 5
            li s1, 0x201000
            li t0, 0x4010000040200000
            sd t0, 0(s1)
            sd t0, 8(s1)
            flw fa0, 0(s1)
        loop:
            li t0, 16
            vsetvli t1, t0, e32, m4
            vle32.v v4, (s1)
            vadd.vv v28, v4, v8      # v28-v31 exactly
            vadd.vv v30, v4, v8      # v30-v33: wraps
            vfmacc.vf v29, fa0, v4   # wraps
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """
        precise, _traced, ran = _direct_tiers(source, tmp_path)
        assert precise.state.vec_counters["fallback_ops"] == 5 * 2
        kinds = _kinds_by_mnemonic(ran)
        assert kinds["vadd.vv"] == {"vapply", "full"}
        assert kinds["vfmacc.vf"] == {"full"}

    def test_vl_zero_matches(self, tmp_path):
        source = """
        _start:
            li s0, 5
            li s1, 0x201000
            li t0, 0x4010000040200000
            sd t0, 0(s1)
            li t0, 4
            vsetvli t1, t0, e32, m1
            vle32.v v1, (s1)
            vle32.v v7, (s1)
            flw fa0, 0(s1)
        loop:
            li t0, 0
            vsetvli t1, t0, e32, m1
            vadd.vv v3, v1, v1
            vfmacc.vf v5, fa0, v1
            vmsne.vv v4, v1, v3
            vcpop.m t2, v4
            vredsum.vs v7, v3, v1    # writes vd[0] even at vl = 0
            add s3, s3, t2
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """
        precise, _traced, ran = _direct_tiers(source, tmp_path)
        assert precise.state.vec_counters["elems_total"] == 2 * 4
        assert _kinds_by_mnemonic(ran)["vfmacc.vf"] == {"vapply"}

    def test_reference_engine_emits_no_direct_call(self):
        exec_vector.select_engine("ref")
        program = assemble(VAPPLY, compress=False)
        precise, ran = Emulator(program), Emulator(program)
        precise.run()
        ran.run(tier=3)
        assert ran.fingerprint() == precise.fingerprint()
        assert {kind for kinds in _kinds_by_mnemonic(ran).values()
                for kind in kinds} == {"full"}
        assert all("_vapply" not in codegen.emit_source(
                       unit.blocks, trace, ran.state.vlen)
                   for unit in ran._codegen.compiled.values()
                   for trace in (False, True))

    @pytest.mark.parametrize("sfx", ["vv", "vf"])
    @pytest.mark.parametrize("sew", [16, 32, 64])
    def test_fp_edge_lanes(self, sew, sfx, tmp_path):
        """NaN payloads of both signs, infinities, signed zeros,
        subnormals and overflowing results: both tier-3 variants match
        the precise interpreter, and every lane the reference engine's
        Python floats: the same bits, or a NaN of the same sign where
        the lane had at most one NaN input (which NaN two of them give
        is the host's choice, and CPython 3.11 reads every binary16 NaN
        as its canonical NaN)."""
        source, inputs = _fp_edge_program(sew, sfx)
        precise, _traced, ran = _direct_tiers(source, tmp_path)
        assert {mn: kinds for mn, kinds in _kinds_by_mnemonic(ran).items()
                if mn.startswith("vf")} == {
            f"{op}.{sfx}": {"vapply"} for op in _FP_MACS}
        exec_vector.select_engine("ref")
        reference = Emulator(precise.program)
        reference.run()
        exp = {16: 5, 32: 8, 64: 11}[sew]
        inf = ((1 << exp) - 1) << (sew - 1 - exp)

        def is_nan(value: int) -> bool:
            return value & ~(1 << (sew - 1)) > inf

        def out(emulator) -> list[int]:
            size = sew // 8
            data = emulator.state.memory.load_bytes(
                emulator.program.symbol("out"), len(inputs) * size)
            return [int.from_bytes(data[k:k + size], "little")
                    for k in range(0, len(data), size)]
        for got, want, lane in zip(out(precise), out(reference), inputs):
            if not is_nan(want):
                assert got == want, (hex(got), hex(want), lane)
            elif sum(map(is_nan, lane)) <= 1:
                assert is_nan(got) and got >> (sew - 1) == want >> (sew - 1), (
                    hex(got), hex(want), lane)
            else:
                assert is_nan(got)


# -- loops: the run variant iterates a superblock that closes on its head ----

def _loops(emulator) -> int:
    """How many of *emulator*'s superblocks close on their head, so
    that their ``run`` variant iterates."""
    return sum(codegen._closing(unit.blocks) > 0
               for unit in emulator._codegen.compiled.values())


def _outcome(emulator, tier: int, max_steps: int | None = None):
    """What ``emulator.run`` raised at *tier*, or None."""
    try:
        emulator.run(max_steps, tier=tier)
    except (EmulatorError, exec_scalar.Trap) as exc:
        return exc
    return None


def _counted(emulator) -> dict:
    """The ``vec_counters`` every tier counts: tier 1 proves no vtype
    static, so it counts no ``specialized_ops``."""
    return {name: value for name, value in emulator.state.vec_counters.items()
            if name != "specialized_ops"}


def _run_tiers(source: str, max_steps: int | None = None,
               prepare=lambda emulator: None):
    """The precise and tier-3 ``run`` emulators of *source* and what
    each run raised, after checking that tier 3 ran a looping
    superblock and left tier 1's state (``fingerprint()``: instret,
    exit code, registers, memory) and ``vec_counters`` (against tier 3's
    ``trace`` variant, which does not loop, in full).  *prepare* sees
    each fresh emulator, the precise one first, before it runs."""
    program = assemble(source, compress=False)
    precise, ran, traced = (Emulator(program) for _ in range(3))
    for emulator in (precise, ran, traced):
        prepare(emulator)
    outcomes = (_outcome(precise, 1, max_steps), _outcome(ran, 3, max_steps))
    try:
        stream(traced.trace(max_steps, tier=3))
    except (EmulatorError, exec_scalar.Trap):
        pass
    assert _loops(ran) > 0
    assert ran.fingerprint() == precise.fingerprint()
    assert _counted(ran) == _counted(precise)
    assert ran.state.vec_counters == traced.state.vec_counters
    return precise, ran, outcomes


#: a three-instruction loop: its superblock is 21 copies, 63 instructions
#: an iteration, entered at instret 7 (the entry's block runs ``li`` and
#: trip 1, tier 2 trip 2), so its iterations end at instret 70, 133...
_COUNT = """
_start:
    li s0, 100
loop:
    addi a1, a1, 3
    addi s0, s0, -1
    bnez s0, loop
    andi a0, a1, 127
    li a7, 93
    ecall
"""

#: a six-instruction loop over ``buf``: 10 copies, 60 instructions an
#: iteration, entered at instret 15 on trip 3, so its iterations end at
#: instret 75, 135 and 195 (trips 3-12, 13-22, 23-32).  a1 and a2 are
#: written in locals before the store.
_ACCESS = """
    .data
buf: .dword 5, 0
    .text
_start:
    la s1, buf
    li s0, 60
loop:
    addi a1, a1, 1
    ld t1, 0(s1)
    add a2, a2, t1
    sd a1, 8(s1)
    addi s0, s0, -1
    bnez s0, loop
    li a0, 0
    li a7, 93
    ecall
"""

#: ``_ACCESS`` with an ``mtvec`` handler that skips the faulting
#: instruction and counts the traps in a3
_SKIPPED = _ACCESS.replace("""_start:
""", """_start:
    la t0, skip
    csrw mtvec, t0
""") + """
skip:
    csrr t0, mepc
    addi t0, t0, 4
    csrw mepc, t0
    addi a3, a3, 1
    mret
"""


def _wrap_data(emulator, entry: str, on_access) -> None:
    """Instance-wrap ``Memory.<entry>``: *on_access(count, emulator)*
    runs before each access to ``buf`` (the count from 1), never on an
    instruction fetch."""
    memory = emulator.state.memory
    original = getattr(memory, entry)
    buf = emulator.program.symbol("buf")
    count = 0

    def wrapped(addr, *args, **kwargs):
        nonlocal count
        if buf <= addr < buf + 16:
            count += 1
            on_access(count, emulator)
        return original(addr, *args, **kwargs)
    setattr(memory, entry, wrapped)


class TestLoopSuperblocks:
    """The ``run`` variant of a superblock whose chain closes on its
    head iterates inside its one call, on register locals, while a
    whole iteration fits the budget and no machine check is pending.
    Every program leaves tier 1's state, and so the iterations' exits,
    flushes and reloads are the precise ones."""

    def test_single_block_loop_is_one_call(self):
        precise, ran, _ = _run_tiers(_COUNT)
        assert ran.exit_code == precise.exit_code == 300 & 127
        # trips 3-23, 24-44... are whole iterations, and the fifth
        # leaves at its guard when trip 100 exits the loop
        counters = ran.counters()
        assert counters["codegen_executions"] == 1
        assert counters["codegen_side_exits"] == 1
        unit = ran._codegen.compiled[ran.program.symbol("loop")]
        assert "while True:" in codegen.emit_source(unit.blocks, False,
                                                    ran.state.vlen)
        assert "while" not in codegen.emit_source(unit.blocks, True,
                                                  ran.state.vlen)

    def test_multi_block_loop_with_a_forward_branch(self):
        source = """
        _start:
            li s0, 300
        loop:
            andi t0, s0, 15
            bnez t0, skip
            addi a1, a1, 1
        skip:
            add a2, a2, s0
            addi s0, s0, -1
            bnez s0, loop
            add a0, a1, a2
            andi a0, a0, 127
            li a7, 93
            ecall
        """
        precise, ran, _ = _run_tiers(source)
        assert ran.exit_code == precise.exit_code
        # the guard leaves the loop on every 16th trip
        assert ran.counters()["codegen_side_exits"] >= 300 // 16

    def test_watchdog_at_every_offset_of_two_iterations(self):
        # the superblock is formed at instret 7 and entered there once
        # 63 instructions fit; its iterations end at 70, 133 and 196
        for limit in range(8, 7 + 3 * 63 + 1):
            precise, ran, (cut, cut3) = _run_tiers(_COUNT, max_steps=limit)
            assert isinstance(cut, WatchdogExpired)
            assert isinstance(cut3, WatchdogExpired)
            assert (cut3.pc, cut3.partial["instret"]) == (
                cut.pc, cut.partial["instret"])
            assert ran.state.instret == limit

    def test_csrr_instret_inside_the_loop(self):
        # A CSR ends its block, so no superblock through it closes on
        # its head: the loop around it runs as the full step's dance.
        source = """
        _start:
            li s0, 40
        loop:
            addi a1, a1, 1
            csrr t1, instret
            add a2, a2, t1
            addi s0, s0, -1
            bnez s0, loop
            andi a0, a2, 127
            li a7, 93
            ecall
        """
        program = assemble(source, compress=False)
        precise, ran = Emulator(program), Emulator(program)
        assert ran.run(tier=3) == precise.run()
        assert ran.counters()["codegen_executions"] > 0
        assert _loops(ran) == 0
        assert ran.fingerprint() == precise.fingerprint()

    def test_full_step_trap_inside_the_loop(self):
        # On trip 21 (the third iteration of eight copies) the
        # amoadd's address is misaligned: its full step takes the trap, with the iteration's
        # pc and instret, to a handler that reads both.
        source = """
            .data
        word: .word 0, 0
            .text
        _start:
            la t0, handler
            csrw mtvec, t0
            la s1, word
            li s0, 40
        loop:
            addi a1, a1, 1
            addi t3, s0, -20
            seqz t3, t3
            add t2, s1, t3
            amoadd.w a4, a1, (t2)
            div a5, a4, s0
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        handler:
            csrr a6, instret
            csrr a7, mepc
            sub a0, a7, a6
            andi a0, a0, 127
            li a7, 93
            ecall
        """
        precise, ran, _ = _run_tiers(source)
        assert ran.state.regs[8] == precise.state.regs[8] == 20  # s0
        assert ran.exit_code == precise.exit_code

    def test_mmio_device_inside_the_loop(self):
        source = """
        _start:
            li s0, 40
            li s1, 0x10000000
        loop:
            lw t0, 4(s1)
            lb t1, 1(s1)
            ld t2, 8(s1)
            lw zero, 0(s1)
            addi a1, a1, 1
            sw t0, 16(s1)
            sd a1, 24(s1)
            sb t1, 3(s1)
            add a0, a0, t1
            addi s0, s0, -1
            bnez s0, loop
            andi a0, a0, 127
            li a7, 93
            ecall
        """
        logs = []

        def mmio(emulator):
            device = _Device()
            logs.append(device.log)
            emulator.state.memory.register_mmio(0x10000000, 0x1000, device)

        _run_tiers(source, prepare=mmio)
        precise_log, ran_log, _traced_log = logs
        assert len(ran_log) == 40 * 7
        assert ran_log == precise_log

    @pytest.mark.parametrize("entry", ["load_int", "store_int"])
    def test_trap_from_a_wrapped_entry_point(self, entry):
        # The 30th access (trip 30: the third iteration) raises; the
        # registers its loop wrote in locals are in the file at the
        # trap.  Every tier takes it at that access, with no handler:
        # EmulatorError, pc and instret at the faulting instruction.
        def fault(count, emulator):
            if count == 30:
                raise exec_scalar.Trap(TrapCause.LOAD_ACCESS_FAULT, 0)

        program = assemble(_ACCESS, compress=False)
        precise, ran = Emulator(program), Emulator(program)
        for emulator in (precise, ran):
            _wrap_data(emulator, entry, fault)
        assert isinstance(_outcome(precise, 1), EmulatorError)
        assert isinstance(_outcome(ran, 3), EmulatorError)
        assert _loops(ran) == 1
        assert ran.state.pc == precise.state.pc
        assert ran.state.instret == precise.state.instret
        assert ran.state.regs == precise.state.regs
        assert ran.state.regs[11] == 30                    # a1
        assert ran.state.memory.load_bytes(
            program.symbol("buf"), 16) == precise.state.memory.load_bytes(
                program.symbol("buf"), 16)

    @pytest.mark.parametrize("entry", ["load_int", "store_int"])
    def test_trap_from_a_wrapped_entry_point_to_a_handler(self, entry):
        # Every 7th access raises, in looping units, in the trace
        # variant and on tier 2, and the handler skips the access; each
        # tier retires tier 1's records and leaves its state.
        def fault(count, emulator):
            if count % 7 == 0:
                raise exec_scalar.Trap(TrapCause.LOAD_ACCESS_FAULT, 0)

        def prepare(emulator):
            _wrap_data(emulator, entry, fault)

        precise, ran, outcomes = _run_tiers(_SKIPPED, prepare=prepare)
        assert outcomes == (None, None)
        assert ran.state.regs[13] == precise.state.regs[13] == 60 // 7
        program = assemble(_SKIPPED, compress=False)
        streams = []
        for tier in (1, 2, 3):
            emulator = Emulator(program)
            prepare(emulator)
            streams.append(stream(emulator.trace(tier=tier)))
            assert emulator.fingerprint() == precise.fingerprint()
        assert streams[2] == streams[1] == streams[0]

    @pytest.mark.parametrize("variant", [0, 1], ids=["run", "trace"])
    def test_escaped_traps_read_a_units_source_once(self, monkeypatch,
                                                    tmp_path, variant):
        # An escaped trap finds its position through the unit's `# @k`
        # markers; the markers are read once per unit and variant, not
        # by emitting its whole source again on every trap.
        def fault(count, emulator):
            if count % 7 == 0:
                raise exec_scalar.Trap(TrapCause.LOAD_ACCESS_FAULT, 0)

        positions, emitted = collections.Counter(), collections.Counter()
        position, emit = codegen._position, codegen.emit_source

        def counting_position(unit, variant, exc, vlen):
            positions[id(unit.blocks), variant] += 1
            return position(unit, variant, exc, vlen)

        def counting_emit(blocks, trace, vlen):
            emitted[id(blocks), int(trace)] += 1
            return emit(blocks, trace, vlen)

        monkeypatch.setattr(codegen, "_position", counting_position)
        monkeypatch.setattr(codegen, "emit_source", counting_emit)
        emulator = Emulator(assemble(_SKIPPED, compress=False),
                            code_cache_dir=str(tmp_path))
        _wrap_data(emulator, "load_int", fault)
        if variant:
            stream(emulator.trace(tier=3))
        else:
            emulator.run(tier=3)
        assert emulator.state.regs[13] == 60 // 7
        key, traps = positions.most_common(1)[0]
        assert key[1] == variant and traps >= 2
        # one emit to compile it (the cache starts empty), one for its
        # markers
        assert emitted[key] == 2

    def test_machine_check_taken_at_the_next_back_edge(self):
        # The 20th load (trip 20, in the second iteration) posts an
        # uncorrectable error; the loop leaves at that iteration's end,
        # instret 135, where the dispatcher delivers it (no handler).
        def post(count, emulator):
            if count == 20:
                emulator.post_machine_check(0x1234)

        program = assemble(_ACCESS, compress=False)
        ran = Emulator(program)
        _wrap_data(ran, "load_int", post)
        assert isinstance(_outcome(ran, 3), MachineCheckError)
        assert _loops(ran) == 1
        assert ran.state.instret == 135
        assert ran.state.pc == program.symbol("loop")
        assert ran.state.regs[11] == 22                    # a1
        assert ran.machine_checks == 1

    def test_writes_to_x0(self):
        source = """
            .data
        buf: .dword 7, 9
            .text
        _start:
            la s1, buf
            li s0, 40
        loop:
            addi zero, s0, 5
            add zero, s0, s1
            lui zero, 0x12
            auipc zero, 0
            lw zero, 0(s1)
            ld zero, 8(s1)
            mulh zero, s0, s1
            div zero, s0, s1
            jal zero, next
        next:
            add a1, a1, zero
            addi a2, zero, 1
            add a3, a3, a2
            addi s0, s0, -1
            bnez s0, loop
            andi a0, a3, 127
            li a7, 93
            ecall
        """
        precise, ran, _ = _run_tiers(source)
        assert ran.state.regs[0] == 0
        assert ran.exit_code == precise.exit_code == 40

    def test_vector_ops_read_and_write_integer_registers(self):
        # vadd.vx reads a1 just written in a local; the loop reads
        # vmv.x.s's a2 on the next instruction.
        source = """
        _start:
            li s0, 40
        loop:
            li t0, 4
            vsetvli t1, t0, e32, m1
            addi a1, a1, 7
            vadd.vx v1, v1, a1
            vmv.x.s a2, v1
            add a3, a3, a2
            addi s0, s0, -1
            bnez s0, loop
            andi a0, a3, 127
            li a7, 93
            ecall
        """
        entered = exec_vector.active_engine()
        exec_vector.select_engine("numpy")
        try:
            precise, ran, _ = _run_tiers(source)
        finally:
            exec_vector.select_engine(entered)
        kinds = _kinds_by_mnemonic(ran)
        assert kinds["vadd.vx"] == kinds["vmv.x.s"] == {"vapply"}
        assert ran.exit_code == precise.exit_code

    def test_crash_on_the_third_iteration_names_its_instruction(
            self, monkeypatch):
        # fadd.d is a bare handler call; its 40th run (trip 40, in the
        # third iteration of 16 copies) raises a non-trap exception
        source = """
        _start:
            li s0, 60
        loop:
            addi a1, a1, 1
            fadd.d f0, f1, f2
            addi s0, s0, -1
            bnez s0, loop
            li a7, 93
            ecall
        """
        calls = []
        fadd = exec_scalar.SCALAR_EXEC["fadd.d"]

        def failing(state, inst):
            calls.append(None)
            if len(calls) == 40:
                raise ValueError("injected")
            return fadd(state, inst)

        monkeypatch.setitem(exec_scalar.SCALAR_EXEC, "fadd.d", failing)
        program = assemble(source, compress=False)
        precise, ran = Emulator(program), Emulator(program)
        assert isinstance(_outcome(precise, 1), EmulatorError)
        calls.clear()
        with pytest.raises(EmulatorError) as excinfo:
            ran.run(tier=3)
        assert _loops(ran) == 1
        loop = program.symbol("loop")
        fadd_pc = loop + 4
        assert (f"fadd.d (block {loop:#x} of the superblock at {loop:#x})"
                f" at pc={fadd_pc:#x}") in str(excinfo.value)
        assert ran.state.regs == precise.state.regs
