"""The tier-2 translation cache's own rules.

Invalidation (fence.i, bounded caches), ineligible configurations and
the step budget behave exactly like the per-step path.  That tier 2
retires the precise stream and state on every bundled workload is the
equivalence lattice's job (``tests/integration/test_lattice.py``).
"""

import pytest

from repro.asm import assemble
from repro.sim import Emulator, WatchdogExpired
from repro.sim import blockcache

from ..integration.test_lattice import (
    KERNELS,
    SMC,
    Functional,
    assert_cells,
    smc_source,
    stream,
)


@pytest.mark.parametrize("name", KERNELS)
def test_equivalence_on_bundled_workloads(name):
    """The lattice's tier-2 cell of each CoreMark/EEMBC/nbench kernel."""
    assert_cells(name, Functional(2))


# -- invalidation rules ----------------------------------------------------

class TestInvalidation:
    def test_fence_i_invalidates_blocks(self):
        emulator = Emulator(assemble(smc_source("fence.i"),
                                     compress=False))
        assert emulator.run(tier=2) == 2
        assert emulator._blocks.flushes >= 1

    def test_without_fence_matches_precise_staleness(self):
        # The precise interpreter keeps the stale decode without a
        # fence (exit 1); fast mode must reproduce that, not fix it.
        source = smc_source("nop")
        precise = Emulator(assemble(source, compress=False))
        fast = Emulator(assemble(source, compress=False))
        assert precise.run() == fast.run(tier=2) == 1

    def test_smc_stream_equivalence(self):
        for name in SMC:
            assert_cells(name, Functional(2))


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
        precise, fast = Emulator(assemble(_TINY)), Emulator(assemble(_TINY))
        assert (stream(fast.trace(7, tier=2), cut=True)
                == stream(precise.trace(7), cut=True))
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
