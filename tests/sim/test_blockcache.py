"""Fast (block-translated) execution must be bit-identical to step().

The equivalence gate for the translation cache: every bundled workload
retires the same DynInst stream, register file, memory image and exit
code through ``trace(tier=2)`` as through the precise interpreter, and the
invalidation rules (fence.i, bounded caches, ineligible configurations)
behave exactly like the per-step path.
"""

import hashlib

import pytest

from repro.asm import assemble
from repro.sim import Emulator, WatchdogExpired
from repro.sim import blockcache
from repro.workloads import coremark_suite, eembc_suite, nbench_suite

ALL_WORKLOADS = (list(coremark_suite()) + list(eembc_suite())
                 + list(nbench_suite()))

_FIELDS = ("seq", "pc", "next_pc", "taken", "target", "mem_addr",
           "mem_size", "vl", "sew", "div_bits")


def _snap(dyn):
    return (dyn.inst.spec.mnemonic,) + tuple(
        getattr(dyn, f) for f in _FIELDS)


def _memory_digest(emulator):
    mem = emulator.state.memory
    digest = hashlib.sha256()
    for base in sorted(mem._pages):
        digest.update(base.to_bytes(8, "little"))
        digest.update(bytes(mem._pages[base]))
    return digest.hexdigest()


def _run_both(program_factory, max_steps=None):
    precise = Emulator(program_factory())
    fast = Emulator(program_factory())
    precise_stream = [_snap(d) for (d,) in precise.trace(max_steps)]
    fast_stream = []
    for batch in fast.trace(max_steps, tier=2):
        fast_stream.extend(_snap(d) for d in batch)
    return precise, fast, precise_stream, fast_stream


def _assert_equivalent(precise, fast, precise_stream, fast_stream):
    assert precise_stream == fast_stream
    assert list(precise.state.regs) == list(fast.state.regs)
    assert list(precise.state.fregs) == list(fast.state.fregs)
    assert precise.state.pc == fast.state.pc
    assert precise.state.instret == fast.state.instret
    assert precise.exit_code == fast.exit_code
    assert _memory_digest(precise) == _memory_digest(fast)


@pytest.mark.parametrize("workload", ALL_WORKLOADS,
                         ids=[w.name for w in ALL_WORKLOADS])
def test_equivalence_on_bundled_workloads(workload):
    _assert_equivalent(*_run_both(workload.program))


# -- invalidation rules ----------------------------------------------------

_PATCH_WORD = 0x00200513       # "addi a0, x0, 2"


def _smc_source(barrier: str) -> str:
    return f"""
    _start:
        li s0, 2
        la t0, patchme
        li t1, {_PATCH_WORD:#x}
    again:
    patchme:
        addi a0, x0, 1
        sw t1, 0(t0)
        {barrier}
        addi s0, s0, -1
        bnez s0, again
        li a7, 93
        ecall
    """


class TestInvalidation:
    def test_fence_i_invalidates_blocks(self):
        emulator = Emulator(assemble(_smc_source("fence.i"),
                                     compress=False))
        assert emulator.run(tier=2) == 2
        assert emulator._blocks.flushes >= 1

    def test_without_fence_matches_precise_staleness(self):
        # The precise interpreter keeps the stale decode without a
        # fence (exit 1); fast mode must reproduce that, not fix it.
        source = _smc_source("nop")
        precise = Emulator(assemble(source, compress=False))
        fast = Emulator(assemble(source, compress=False))
        assert precise.run() == fast.run(tier=2) == 1

    def test_smc_stream_equivalence(self):
        for barrier in ("fence.i", "nop", "icache.iall"):
            _assert_equivalent(*_run_both(
                lambda: assemble(_smc_source(barrier), compress=False)))


# -- fallback and bounds ---------------------------------------------------

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


class TestFastMode:
    def test_ineligible_config_falls_back_to_precise(self):
        emulator = Emulator(assemble(_TINY), interrupt_fn=lambda: 0)
        batches = list(emulator.trace(tier=2))
        assert (emulator.tier, emulator.tier_reason) == (1, "interrupts")
        assert all(len(batch) == 1 for batch in batches)
        assert emulator._blocks is None          # engine never built
        assert emulator.exit_code == 7

    def test_run_fast_exit_code(self):
        emulator = Emulator(assemble(_TINY))
        assert emulator.run(tier=2) == 7

    def test_run_fast_watchdog(self):
        emulator = Emulator(assemble(_TINY))
        with pytest.raises(WatchdogExpired):
            emulator.run(max_steps=10, tier=2)

    def test_fast_trace_watchdog(self):
        emulator = Emulator(assemble(_TINY))
        with pytest.raises(WatchdogExpired):
            for _ in emulator.trace(10, tier=2):
                pass

    def test_fast_trace_respects_budget_mid_block(self):
        precise = Emulator(assemble(_TINY))
        fast = Emulator(assemble(_TINY))
        precise_stream = []
        try:
            for (dyn,) in precise.trace(7):
                precise_stream.append(_snap(dyn))
        except WatchdogExpired:
            pass
        fast_stream = []
        try:
            for batch in fast.trace(7, tier=2):
                fast_stream.extend(_snap(d) for d in batch)
        except WatchdogExpired:
            pass
        assert precise_stream == fast_stream
        assert fast.state.instret == precise.state.instret == 7

    def test_block_cache_bounded(self, monkeypatch):
        monkeypatch.setattr(blockcache, "BLOCK_CACHE_LIMIT", 2)
        emulator = Emulator(assemble(_TINY))
        emulator.run(tier=2)
        engine = emulator._blocks
        assert len(engine.blocks) <= 2
        assert engine.flushes >= 1

    def test_counters_exposed(self):
        emulator = Emulator(assemble(_TINY))
        emulator.run(tier=2)
        counters = emulator._blocks.counters()
        assert counters["translated_blocks"] >= 2
        assert counters["block_executions"] >= 50


class TestDecodeCache:
    def test_hit_miss_counters(self):
        emulator = Emulator(assemble(_TINY))
        emulator.run()
        assert emulator.decode_cache_misses > 0
        assert emulator.decode_cache_hits > emulator.decode_cache_misses

    def test_bounded(self):
        emulator = Emulator(assemble(_TINY))
        emulator.DECODE_CACHE_LIMIT = 2
        emulator.run()
        assert len(emulator._decode_cache) <= 2
        assert emulator.decode_cache_flushes >= 1

    def test_surfaced_in_core_stats(self):
        from repro.harness.runner import run_on_core

        result = run_on_core(
            assemble(_TINY.replace("li a0, 7", "li a0, 0")), "xt910")
        stats = result.stats
        assert stats.decode_cache_hits > 0
        assert stats.decode_cache_misses > 0
        assert "decode cache" in stats.summary()
        assert stats.extra["translated_blocks"] >= 1
