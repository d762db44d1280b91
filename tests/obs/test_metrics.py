"""Metrics registry: validation, export, diff, and the harness schema."""

from __future__ import annotations

import pytest

from repro.harness.report import ExperimentResult
from repro.harness.runner import run_on_core
from repro.harness.table1 import run_table1
from repro.obs import MetricsRegistry, collect_run, diff_metrics, render_diff
from repro.obs.metrics import _KEY_RE, collect_core_stats
from repro.uarch.stats import CoreStats
from repro.workloads import coremark_suite


def test_set_validates_keys_and_values():
    registry = MetricsRegistry()
    registry.set("core.cycles", 100)
    registry.set("mem.l1d.hit-rate", 0.97)
    registry.set("run.core", "xt910")
    registry.set("lint.ok", True)                # bools coerce to int
    assert registry["lint.ok"] == 1
    for bad_key in ("Core.cycles", "core..x", ".core", "core.", "a b"):
        with pytest.raises(ValueError):
            registry.set(bad_key, 1)
    with pytest.raises(TypeError):
        registry.set("core.bad", [1, 2])


def test_update_namespaces_and_ordering():
    registry = MetricsRegistry()
    registry.update("mem.l1d", {"hits": 10, "misses": 2})
    assert list(registry.as_dict()) == ["mem.l1d.hits", "mem.l1d.misses"]
    assert len(registry) == 2
    assert "mem.l1d.hits" in registry


def test_json_and_csv_round_trip(tmp_path):
    registry = MetricsRegistry()
    registry.set("core.cycles", 123)
    registry.set("core.ipc", 1.5)
    path = tmp_path / "metrics.json"
    registry.save(str(path))
    assert MetricsRegistry.load(str(path)).as_dict() == registry.as_dict()
    csv_text = registry.to_csv()
    assert csv_text.splitlines()[0] == "metric,value"
    assert "core.cycles,123" in csv_text


def test_diff_metrics():
    before = {"core.cycles": 100, "core.ipc": 2.0, "gone.key": 1}
    after = {"core.cycles": 110, "core.ipc": 2.0, "new.key": 5}
    deltas = {d.key: d for d in diff_metrics(before, after)}
    assert sorted(deltas) == ["core.cycles", "gone.key", "new.key"]
    assert deltas["core.cycles"].change == pytest.approx(0.10)
    assert deltas["new.key"].before is None
    assert deltas["gone.key"].after is None
    rendered = render_diff(list(deltas.values()))
    assert "core.cycles" in rendered
    assert render_diff([]) == "no differences"


def test_collect_run_namespaces():
    workload = next(w for w in coremark_suite()
                    if w.name == "coremark-list")
    registry = collect_run(run_on_core(workload.program(), "xt910"))
    prefixes = {key.split(".", 1)[0] for key in registry.keys()}
    assert prefixes == {"core", "emu", "mem", "sim"}
    assert registry["sim.tier"] == 2
    assert registry["core.cycles"] > 0
    assert "core.ipc" in registry
    for sub in ("l1i", "l1d", "l2", "tlb", "l1_prefetch",
                "l2_prefetch", "dram"):
        assert any(key.startswith(f"mem.{sub}.") for key in registry)


def test_codegen_counters_get_their_own_namespace():
    """A tier-3 run surfaces the translator's counters as
    ``sim.codegen.*`` — not folded into ``emu.*`` — and every key
    passes registry validation (blocks compiled, compile seconds,
    disk-cache hits/misses)."""
    workload = next(w for w in coremark_suite()
                    if w.name == "coremark-crc")
    registry = collect_run(
        run_on_core(workload.program(), "xt910", tier=3))
    for key in ("sim.codegen.blocks_compiled", "sim.codegen.compile_s",
                "sim.codegen.disk_hits", "sim.codegen.disk_misses",
                "sim.codegen.executions", "sim.codegen.superblocks",
                "sim.codegen.side_exits", "sim.codegen.persisted"):
        assert key in registry.keys()
        assert _KEY_RE.match(key)
    assert registry["sim.codegen.blocks_compiled"] >= 1
    assert not any(key.startswith("emu.codegen_")
                   for key in registry.keys())
    prefixes = {key.split(".", 1)[0] for key in registry.keys()}
    assert prefixes == {"core", "emu", "mem", "sim"}


def test_superblocks_cut_dispatches_per_kinst():
    """Tier 3 runs coremark-crc as superblocks, so a dispatch retires
    several basic blocks: its dispatches per kinst (superblock runs plus
    the tier-2 runs that earn them) fall to under a third of tier 2's,
    one per basic block."""
    program = next(w for w in coremark_suite()
                   if w.name == "coremark-crc").program()

    def per_kinst(registry, *keys):
        return (1000 * sum(registry[key] for key in keys)
                / registry["core.instructions"])

    tier2 = collect_run(run_on_core(program, "xt910", tier=2))
    tier3 = collect_run(run_on_core(program, "xt910", tier=3))
    assert tier3["sim.codegen.superblocks"] >= 1
    assert (3 * per_kinst(tier3, "sim.codegen.executions",
                          "emu.block_executions")
            < per_kinst(tier2, "emu.block_executions"))


def test_tier_and_its_reason_get_the_sim_namespace():
    """The emulator tier that fed the timing model is ``sim.tier``; the
    reason it is not the tier asked for, when there is one, is
    ``sim.tier_reason`` — neither lands under ``emu.*``."""
    stats = CoreStats(extra={"tier": 1, "tier_reason": "interrupts",
                             "translated_blocks": 0})
    registry = collect_core_stats(stats)
    assert registry["sim.tier"] == 1
    assert registry["sim.tier_reason"] == "interrupts"
    assert registry["emu.translated_blocks"] == 0
    assert not any(key.startswith("emu.tier") for key in registry)

    workload = next(w for w in coremark_suite()
                    if w.name == "coremark-crc")
    ran = collect_run(run_on_core(workload.program(), "xt910", tier=3))
    assert ran["sim.tier"] == 3
    assert "sim.tier_reason" not in ran


def test_experiment_metric_namespacing():
    result = ExperimentResult(experiment="figx", title="t")
    result.metric("speedup.kernel", 1.5)
    assert result.metrics["figx.speedup.kernel"] == 1.5
    payload = result.to_json_dict()
    assert payload["experiment"] == "figx"
    assert payload["metrics"] == {"figx.speedup.kernel": 1.5}
    assert payload["rows"] == []


def test_harness_experiment_keys_are_schema_stable():
    """The shared key-naming gate for migrated experiments: every key
    a harness experiment emits is namespaced under the experiment name
    and survives registry validation (set() enforces ``_KEY_RE``, so a
    completed run proves the schema; this asserts it explicitly)."""
    result = run_table1(quick=True)
    keys = result.metrics.keys()
    assert keys == ["table1.configurations_built", "table1.smoke_runs"]
    for key in keys:
        assert _KEY_RE.match(key)
        assert key.startswith(f"{result.experiment}.")
    assert result.to_json_dict()["metrics"] == result.metrics.as_dict()
