"""Guest profiler: cycle attribution vs the recovered CFG, and per-PC
stall attribution (the CDS tooling reproduction, section IX)."""

from __future__ import annotations

import pytest

from repro.analysis.cfg import build_cfg
from repro.asm import assemble
from repro.harness.runner import run_on_core
from repro.obs import GuestProfiler
from repro.workloads import all_workloads


def _profiled(name: str):
    workload = next(w for w in all_workloads() if w.name == name)
    program = workload.program()
    profiler = GuestProfiler()
    result = run_on_core(program, "xt910", profiler=profiler)
    return program, profiler, result


@pytest.fixture(scope="module")
def dhrystone():
    """The bundled multi-function workload (4 recovered functions)."""
    return _profiled("dhrystone-like")


def test_attribution_coverage(dhrystone):
    """>= 95% of cycles must land inside cfg-recovered functions."""
    program, profiler, _ = dhrystone
    report = profiler.attribute(program)
    assert report.coverage >= 0.95
    assert report.attributed_cycles \
        + sum(report.unattributed.values()) == report.total_cycles


def test_bins_decompose_the_run(dhrystone):
    """Per-PC bins sum to the completion clock, which is within the
    pipeline drain of the stats cycle count."""
    _, profiler, result = dhrystone
    assert sum(profiler.bins().values()) == profiler.total_cycles
    assert 0 < profiler.total_cycles <= result.stats.cycles


def test_function_boundaries_match_cfg(dhrystone):
    """Every reported function is a cfg function and its hottest PC
    lies inside one of that function's own blocks."""
    program, profiler, _ = dhrystone
    report = profiler.attribute(program)
    cfg = build_cfg(program)
    assert len(report.rows) >= 2                  # calls really profiled
    names = {f.name for f in cfg.functions.values()}
    for row in report.rows:
        assert row.name in names
        func = cfg.functions[row.entry]
        assert any(cfg.blocks[b].start <= row.hot_pc < cfg.blocks[b].end
                   for b in func.blocks)
        assert row.cum_cycles >= row.self_cycles


def test_root_function_spans_the_run(dhrystone):
    program, profiler, _ = dhrystone
    report = profiler.attribute(program)
    cfg = build_cfg(program)
    root = next(r for r in report.rows if r.entry == cfg.entry)
    assert root.cum_cycles == profiler.total_cycles


def test_render_smoke(dhrystone):
    program, profiler, _ = dhrystone
    report = profiler.attribute(program)
    flat = report.render(top=10)
    assert "guest profile (flat)" in flat
    cum = report.render(top=10, cumulative=True)
    assert "guest profile (cumulative)" in cum
    for row in report.rows[:2]:
        assert row.name in flat


def test_single_function_workload_fully_attributed():
    program, profiler, _ = _profiled("coremark-list")
    report = profiler.attribute(program)
    assert report.coverage == 1.0
    assert len(report.rows) == 1
    assert report.rows[0].name == "_start"


STRIDING = assemble("""
    .data
arr: .zero 65536
    .text
_start:
    li s0, 200
    la s1, arr
hot_loop:
    ld t0, 0(s1)          # cold-missing load: the hot spot
    add t1, t1, t0
    addi s1, s1, 256
    addi s0, s0, -1
    bnez s0, hot_loop
    call helper
    li a0, 0
    li a7, 93
    ecall
helper:
    li t2, 30
spin:
    addi t2, t2, -1
    bnez t2, spin
    ret
""")


@pytest.fixture(scope="module")
def striding():
    profiler = GuestProfiler()
    result = run_on_core(STRIDING, "xt910", profiler=profiler)
    return profiler, result.stats


class TestHotspots:
    def test_executions_sum_to_instructions(self, striding):
        profiler, stats = striding
        assert stats.instructions == \
            sum(s.executions for s in profiler.samples.values())

    def test_hot_load_attributed(self, striding):
        # The striding load is the loop's first instruction, and it
        # dominates memory stalls.
        profiler, _ = striding
        load = profiler.samples[STRIDING.symbol("hot_loop")]
        assert load.mem_stall_cycles > 1000
        assert load in sorted(profiler.samples.values(),
                              key=lambda s: s.total_stalls)[-3:]

    def test_execution_counts(self, striding):
        profiler, _ = striding
        assert profiler.samples[STRIDING.symbol("hot_loop")].executions \
            == 200

    def test_regions_aggregate(self, striding):
        profiler, _ = striding
        regions = profiler.regions(STRIDING)
        assert "hot_loop" in regions
        assert "helper" in regions or "spin" in regions
        assert regions["hot_loop"].executions >= 1000  # 200 x 5 insts

    def test_report_renders(self, striding):
        profiler, stats = striding
        report = profiler.hotspots(STRIDING, stats, top=5)
        assert "IPC" in report
        assert "ld t0, 0(s1)" in report
        assert "hot_loop" in report
