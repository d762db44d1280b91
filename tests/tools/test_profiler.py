"""Profiler tests (the CDS tooling reproduction, section IX)."""

from repro.asm import assemble
from repro.harness.runner import run_on_core
from repro.tools import profile_program

PROGRAM = assemble("""
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


class TestProfiler:
    def test_counts_match_pipeline(self):
        profile = profile_program(PROGRAM)
        assert profile.stats.instructions == \
            sum(s.executions for s in profile.samples.values())

    def test_stats_equal_a_timed_run(self):
        # The profiler steps the reference model, ``run --core`` the
        # stream loop: the totals the two verbs print must not drift.
        assert profile_program(PROGRAM).stats.as_comparable() \
            == run_on_core(PROGRAM, "xt910").stats.as_comparable()

    def test_hot_load_attributed(self):
        profile = profile_program(PROGRAM)
        hottest = profile.hottest(3)
        # The striding load dominates memory stalls.
        assert any("ld" in s.text for s in hottest)
        load = next(s for s in profile.samples.values() if "ld " in s.text)
        assert load.mem_stall_cycles > 1000

    def test_execution_counts(self):
        profile = profile_program(PROGRAM)
        loads = [s for s in profile.samples.values() if "ld " in s.text]
        assert loads[0].executions == 200

    def test_regions_aggregate(self):
        profile = profile_program(PROGRAM)
        regions = {r.name: r for r in profile.regions}
        assert "hot_loop" in regions
        assert "helper" in regions or "spin" in regions
        assert regions["hot_loop"].executions >= 1000  # 200 x 5 insts

    def test_report_renders(self):
        profile = profile_program(PROGRAM)
        report = profile.report(top=5)
        assert "IPC" in report
        assert "hot" in report or "0x" in report

    def test_mispredict_attribution(self):
        # A data-dependent branch accumulates mispredict samples.
        program = assemble("""
        _start:
            li s0, 500
            li s1, 12345
            li s2, 1103515245
        loop:
            mul s1, s1, s2
            addi s1, s1, 1013
            srli t0, s1, 16
            andi t0, t0, 1
            beqz t0, skip
            addi t1, t1, 1
        skip:
            addi s0, s0, -1
            bnez s0, loop
            li a0, 0
            li a7, 93
            ecall
        """)
        profile = profile_program(program)
        branch_samples = [s for s in profile.samples.values()
                          if s.mispredicts > 0]
        assert branch_samples
        assert max(s.mispredicts for s in branch_samples) > 50
