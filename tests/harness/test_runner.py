"""Runner-glue tests: functional + timing integration."""

import pytest

from repro.asm import assemble
from repro.harness.runner import GuestExit, profile_run, run_on_core
from repro.uarch.presets import get_preset

PROGRAM = assemble("""
_start:
    li t0, 50
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
""", compress=True)

FAILING = assemble("""
_start:
    li a0, 7
    li a7, 93
    ecall
""")


class TestRunOnCore:
    def test_by_name(self):
        result = run_on_core(PROGRAM, "xt910")
        assert result.core == "xt910"
        assert result.cycles > 0
        assert result.exit_code == 0

    def test_by_config(self):
        config = get_preset("u74")
        result = run_on_core(PROGRAM, config)
        assert result.core == "u74"

    def test_unknown_preset(self):
        with pytest.raises(KeyError, match="unknown core preset"):
            run_on_core(PROGRAM, "pentium4")

    def test_nonzero_exit_raises(self):
        with pytest.raises(RuntimeError, match="exited with 7") as caught:
            run_on_core(FAILING, "xt910")
        # ... as a GuestExit that carries the finished run
        assert isinstance(caught.value, GuestExit)
        assert caught.value.result.exit_code == 7
        assert caught.value.result.stats.instructions == 3

    def test_instruction_count_matches_emulator(self):
        from repro.sim import run_program

        emulator = run_program(PROGRAM)
        result = run_on_core(PROGRAM, "xt910")
        assert result.stats.instructions == emulator.state.instret


class TestProfileRun:
    def test_profiles_the_run_it_is_asked_for(self):
        """Same arguments as run_on_core, same run: the tier is the
        caller's and the stats are the unprofiled ones."""
        result, breakdown = profile_run(PROGRAM, "xt910", tier=3)
        plain = run_on_core(PROGRAM, "xt910", tier=3)
        assert result.stats.as_comparable() == plain.stats.as_comparable()
        assert "codegen_blocks_compiled" in result.stats.extra
        assert breakdown["timing_model"] > 0

    def test_watchdog_bound_reaches_the_profiled_run(self):
        spin = assemble("_start:\nspin:\n    j spin\n")
        result, _ = profile_run(spin, "xt910", max_insts=500,
                                partial_on_watchdog=True)
        assert result.watchdog is not None
        assert result.stats.instructions == 500


class TestExperimentRegistry:
    def test_all_experiments_registered(self):
        from repro.harness import EXPERIMENTS

        expected = {"table1", "table2", "fig17", "fig18", "fig19",
                    "fig20", "fig21", "spec", "asid", "vecmac",
                    "blockchain", "ras", "lint", "service", "explore"}
        assert set(EXPERIMENTS) == expected

    def test_fast_experiments_run(self):
        from repro.harness import run_table1, run_table2, run_vecmac

        for fn in (run_table1, run_table2, run_vecmac):
            result = fn(quick=True)
            assert result.rows
            assert result.render()
