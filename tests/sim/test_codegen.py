"""Tier 3's own rules: the persistent code cache and its lifecycle.

A source edit and a text mutation miss, corrupt cache files are
discarded rather than fatal, ``fence.i`` drops compiled blocks, and
ineligible configurations run on a lower tier that says why.  That
tier 3 retires the precise stream and state on every bundled workload,
cold and warm, is the equivalence lattice's job
(``tests/integration/test_lattice.py``).
"""

import os

import pytest

from repro.asm import assemble
from repro.sim import Emulator, WatchdogExpired
from repro.sim import codegen

from ..integration.test_lattice import (
    ALL,
    SMC,
    Functional,
    assert_cells,
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
                    "codegen_executions", "codegen_disk_hits",
                    "codegen_disk_misses", "codegen_persisted"):
            assert key in counters
        # The loop block's first iterations run on tier-2 (compile is
        # deferred until a block has proven itself once), so the
        # compiled execution count is a little under the trip count.
        assert counters["codegen_executions"] >= 40
        assert counters["codegen_persisted"] == 1

    def test_surfaced_in_core_stats(self):
        from repro.harness.runner import run_on_core

        result = run_on_core(
            assemble(_TINY.replace("li a0, 7", "li a0, 0")), "xt910",
            tier=3)
        assert result.stats.extra["codegen_blocks_compiled"] >= 1
        assert "codegen_disk_hits" in result.stats.extra
