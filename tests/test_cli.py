"""CLI tests: python -m repro <subcommand>."""

import pytest

from repro.__main__ import main
from repro.sim import Emulator

SOURCE = """
_start:
    li t0, 10
    li t1, 0
loop:
    add t1, t1, t0
    addi t0, t0, -1
    bnez t0, loop
    li a0, 0
    li a7, 93
    ecall
"""


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(SOURCE)
    return str(path)


class TestCli:
    def test_run_emulate(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out
        assert "exit 0" in out

    def test_run_timed(self, program_file, capsys):
        assert main(["run", program_file, "--core", "xt910",
                     "--stats"]) == 0
        out = capsys.readouterr().out
        assert "IPC" in out and "cycles" in out

    def test_disasm(self, program_file, capsys):
        assert main(["disasm", program_file]) == 0
        out = capsys.readouterr().out
        assert "addi" in out and "ecall" in out

    def test_profile(self, program_file, capsys):
        assert main(["profile", program_file, "--top", "5"]) == 0
        out = capsys.readouterr().out
        assert "hottest" in out

    def test_compare(self, program_file, capsys):
        assert main(["compare", program_file, "--cores", "xt910",
                     "u54"]) == 0
        out = capsys.readouterr().out
        # same binary on both cores; the out-of-order one needs fewer cycles
        cycles = {row.split()[0]: int(row.split()[1])
                  for row in out.splitlines()[1:]}
        assert set(cycles) == {"xt910", "u54"}
        assert cycles["xt910"] < cycles["u54"]

    def test_no_compress_flag(self, program_file, capsys):
        assert main(["run", program_file, "--no-compress"]) == 0

    def test_bad_core_rejected(self, program_file):
        with pytest.raises(SystemExit):
            main(["run", program_file, "--core", "pentium"])


EXIT3_SOURCE = """
_start:
    li t0, 5
loop:
    addi t0, t0, -1
    bnez t0, loop
    li a0, 3
    li a7, 93
    ecall
"""


@pytest.fixture
def exit3_file(tmp_path):
    path = tmp_path / "exit3.s"
    path.write_text(EXIT3_SOURCE)
    return str(path)


class TestGuestExitCli:
    """A guest's non-zero exit code is a result, as it is for the
    functional ``run``: every timed verb used to die in a traceback."""

    def test_timed_run_prints_its_lines_and_returns_the_code(
            self, exit3_file, capsys):
        assert main(["run", exit3_file, "--core", "xt910", "--stats"]) == 3
        out = capsys.readouterr().out
        assert "exit 3" in out and "instructions      14" in out

    @pytest.mark.parametrize("verb, expected", [
        ("profile", "hottest instructions"),
        ("top", "guest profile (flat)"),
        ("metrics", '"core.instructions": 14'),
        ("compare", "vs xt910"),
    ])
    def test_reporting_verbs_still_report(self, verb, expected,
                                          exit3_file, capsys):
        assert main([verb, exit3_file]) == 0
        assert expected in capsys.readouterr().out

    def test_verb_with_nothing_to_report_ends_in_one_line(
            self, exit3_file, capsys):
        assert main(["run", exit3_file, "--core", "xt910",
                     "--profile"]) == 3
        captured = capsys.readouterr()
        assert captured.err == \
            "error: program exited with 3 on xt910; stdout: ''\n"
        assert captured.out == ""


HANG_SOURCE = """
_start:
    li s0, 42
spin:
    j spin
"""


@pytest.fixture
def hang_file(tmp_path):
    path = tmp_path / "hang.s"
    path.write_text(HANG_SOURCE)
    return str(path)


class TestRasCli:
    def test_max_insts_watchdog(self, hang_file, capsys):
        assert main(["run", hang_file, "--max-insts", "200"]) == 2
        out = capsys.readouterr().out
        assert "watchdog" in out
        assert "pc=" in out

    def test_max_insts_does_not_trip_on_clean_exit(self, program_file,
                                                   capsys):
        assert main(["run", program_file, "--max-insts", "100000"]) == 0
        assert "exit 0" in capsys.readouterr().out

    def test_profiled_timed_run_honours_max_insts(self, hang_file, capsys):
        # --profile used to drop the bound and spin to the 50 M default.
        assert main(["run", hang_file, "--core", "xt910", "--profile",
                     "--max-insts", "2000"]) == 0
        out = capsys.readouterr().out
        assert "instruction limit 2000" in out
        assert "stats below cover the bounded prefix" in out
        assert "timing_model" in out        # and the profile still prints

    @pytest.mark.parametrize("verb", ["profile", "top", "metrics",
                                      "compare"])
    def test_spinning_guest_ends_in_the_watchdog_line(
            self, verb, hang_file, capsys, monkeypatch):
        # These verbs take no --max-insts: the default limit bounds
        # them, and its expiry used to escape main() as a traceback.
        monkeypatch.setattr(Emulator, "DEFAULT_INSTRUCTION_LIMIT", 5000)
        assert main([verb, hang_file]) == 2
        out = capsys.readouterr().out
        assert "watchdog: instruction limit 5000" in out
        assert "Traceback" not in out

    def test_lockstep_clean(self, program_file, capsys):
        assert main(["run", program_file, "--lockstep"]) == 0
        out = capsys.readouterr().out
        assert "no divergence" in out

    def test_lockstep_with_max_insts(self, hang_file, capsys):
        # Both primary and shadow hit the watchdog together; the
        # checker reports the crash as a divergence-free abort or the
        # CLI surfaces the watchdog -- either way no traceback leaks.
        rc = main(["run", hang_file, "--lockstep", "--max-insts", "100"])
        assert rc in (1, 2)


BROKEN_SOURCE = """
_start:
    li a0, 1
    jal ra, broken
    li a7, 93
    ecall
broken:
    addi sp, sp, -16
    add a1, a2, s3
    jalr x0, 0(ra)
"""


@pytest.fixture
def broken_file(tmp_path):
    path = tmp_path / "broken.s"
    path.write_text(BROKEN_SOURCE)
    return str(path)


class TestLintCli:
    def test_lint_clean_program(self, program_file, capsys):
        assert main(["lint", program_file]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_lint_reports_findings(self, broken_file, capsys):
        assert main(["lint", broken_file]) == 1
        captured = capsys.readouterr()
        assert "uninit-read" in captured.out
        assert "stack-imbalance" in captured.out
        # single-file lint ignores the committed workload baseline
        assert "finding(s) reported" in captured.err
        assert "lint_baseline.json" not in captured.err

    def test_lint_json_output(self, broken_file, capsys):
        import json

        assert main(["lint", broken_file, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["programs"][0]["findings"]
        assert payload["new"]

    def test_lint_baseline_cycle(self, broken_file, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main(["lint", broken_file, "--update-baseline",
                     "--baseline", baseline]) == 0
        capsys.readouterr()
        # with the accepted baseline the same findings now pass
        assert main(["lint", broken_file, "--baseline", baseline]) == 0

    def test_lint_requires_input(self, capsys):
        assert main(["lint"]) == 2
        assert "needs a program" in capsys.readouterr().err


class TestSanitizeCli:
    def test_sanitize_clean(self, program_file, capsys):
        assert main(["run", program_file, "--sanitize"]) == 0
        out = capsys.readouterr().out
        assert "sanitized" in out and "0 violations" in out

    def test_sanitize_catches_violation(self, tmp_path, capsys):
        path = tmp_path / "bad.s"
        path.write_text("""
_start:
    add t1, t0, t2
    li a0, 0
    li a7, 93
    ecall
""")
        assert main(["run", str(path), "--sanitize"]) == 1
        out = capsys.readouterr().out
        assert "uninit-read" in out

    def test_sanitize_excludes_core_modes(self, program_file, capsys):
        assert main(["run", program_file, "--sanitize", "--core",
                     "xt910"]) == 2
        assert "--sanitize" in capsys.readouterr().err


class TestUarchCli:
    """--uarch/--extend: config documents on the run/compare path."""

    @pytest.fixture
    def xt910_doc(self, tmp_path):
        path = tmp_path / "core.json"
        from repro.uarch import uconfig
        from repro.uarch.presets import get_preset
        uconfig.dump_config(get_preset("xt910"), str(path))
        return str(path)

    def test_uarch_file_matches_preset(self, program_file, xt910_doc,
                                       capsys):
        assert main(["run", program_file, "--core", "xt910",
                     "--stats"]) == 0
        preset_out = capsys.readouterr().out
        assert main(["run", program_file, "--uarch", xt910_doc,
                     "--stats"]) == 0
        file_out = capsys.readouterr().out
        assert file_out == preset_out       # bit-identical stats block

    def test_core_accepts_a_document_path(self, program_file,
                                          xt910_doc, capsys):
        # --core is not limited to preset names any more
        assert main(["run", program_file, "--core", xt910_doc]) == 0
        assert "cycles" in capsys.readouterr().out

    def test_extend_overlay_changes_the_run(self, program_file,
                                            tmp_path, capsys):
        import json as _json
        overlay = tmp_path / "slow.json"
        overlay.write_text(_json.dumps(
            {"mem": {"dram": {"latency": 400}}}))
        assert main(["run", program_file, "--core", "xt910",
                     "--stats"]) == 0
        base = capsys.readouterr().out
        assert main(["run", program_file, "--core", "xt910",
                     "--extend", str(overlay), "--stats"]) == 0
        slowed = capsys.readouterr().out
        assert slowed != base

    def test_core_and_uarch_are_exclusive(self, program_file,
                                          xt910_doc, capsys):
        assert main(["run", program_file, "--core", "xt910",
                     "--uarch", xt910_doc]) == 2
        assert "exclusive" in capsys.readouterr().err

    def test_extend_needs_a_base(self, program_file, tmp_path, capsys):
        overlay = tmp_path / "o.json"
        overlay.write_text("{}")
        assert main(["run", program_file,
                     "--extend", str(overlay)]) == 2
        assert "--extend" in capsys.readouterr().err

    def test_bad_core_error_lists_presets(self, program_file, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", program_file, "--core", "pentium"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "xt910" in err               # names the valid presets

    def test_invalid_document_is_a_clean_error(self, program_file,
                                               tmp_path, capsys):
        import json as _json
        bad = tmp_path / "bad.json"
        bad.write_text(_json.dumps({"rob_entries": -1}))
        with pytest.raises(SystemExit):
            main(["run", program_file, "--uarch", str(bad)])
        err = capsys.readouterr().err
        assert "rob_entries" in err and "Traceback" not in err


class TestExploreCli:
    def test_spec_file_sweep(self, tmp_path, capsys):
        import json as _json
        spec = tmp_path / "sweep.json"
        spec.write_text(_json.dumps({
            "name": "cli-sweep", "base": "xt910",
            "workloads": ["blockchain-base"], "tier": 2,
            "axes": [{"path": "mem.dram.latency",
                      "values": [100, 200]}]}))
        assert main(["explore", str(spec)]) == 0
        out = capsys.readouterr().out
        assert "2 point(s)" in out and "2 simulated" in out
        # second invocation replays entirely from the store
        assert main(["explore", str(spec)]) == 0
        assert "2 cached, 0 simulated" in capsys.readouterr().out

    def test_spec_or_depth_required(self, capsys):
        assert main(["explore"]) == 2
        assert "sweep spec" in capsys.readouterr().err

    def test_bad_spec_is_a_clean_error(self, tmp_path, capsys):
        spec = tmp_path / "bad.json"
        spec.write_text('{"axes": [{"path": "frontend.depht", '
                        '"values": [1]}]}')
        assert main(["explore", str(spec)]) == 2
        err = capsys.readouterr().err
        assert "frontend.depht" in err and "Traceback" not in err


class TestServiceCli:
    def test_serve_answers_every_line_and_leaves_no_child(
            self, monkeypatch, capsys):
        import io
        import json as _json
        import multiprocessing

        lines = [_json.dumps({"source": SOURCE, "core": None,
                              "name": f"job-{i}", "max_insts": 1000 + i})
                 for i in range(5)]
        lines.insert(2, "this is not json")
        monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
        assert main(["serve", "--jobs", "1"]) == 0
        results = [_json.loads(line)
                   for line in capsys.readouterr().out.splitlines()]
        assert [r["state"] for r in results] == \
            ["completed", "completed", "rejected"] + ["completed"] * 3
        assert multiprocessing.active_children() == []

    def test_submit_json_shows_the_launch_counter(self, program_file,
                                                  capsys):
        import json as _json

        assert main(["submit", program_file, "--jobs", "1", "--json"]) == 0
        counters = _json.loads(capsys.readouterr().out)["counters"]
        assert counters["workers_launched"] == 1

    def test_submit_store_is_reused_by_a_fresh_process(self, program_file,
                                                       tmp_path):
        """``--store DIR`` puts results on disk: the same job submitted
        again from a new process is answered from the store."""
        import json as _json
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(pathlib.Path(repro.__file__).parents[1]),
                          os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-m", "repro", "submit", program_file,
                   "--no-isolation", "--json",
                   "--store", str(tmp_path / "store")]
        hits = []
        for _ in range(2):
            done = subprocess.run(command, capture_output=True, text=True,
                                  env=env, timeout=120)
            assert done.returncode == 0, done.stderr[-2000:]
            hits.append(_json.loads(done.stdout)["counters"]["cache_hits"])
        assert hits == [0, 1]

    def test_serve_store_answers_a_repeat_from_disk(self, monkeypatch,
                                                   capsys, tmp_path):
        import io
        import json as _json

        line = _json.dumps({"source": SOURCE, "core": None, "name": "j"})
        hits = []
        for _ in range(2):
            monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
            assert main(["serve", "--no-isolation",
                         "--store", str(tmp_path / "store")]) == 0
            hits.append(_json.loads(capsys.readouterr().out)["cache_hit"])
        assert hits == [False, True]


# tests/sim/test_vm.py's boot stub, with the guest building its own SV39
# root table (the CLI loads no host-side tables): two 1 GiB leaves map
# VA 0 and VA 0x40000000 onto physical 0.  The S-mode payload stores
# through the alias and loads through the identity mapping, so the exit
# code is 42 only when translation is on.
SV39_SOURCE = """
_start:
    la t0, mhandler
    csrw mtvec, t0
    li t0, 0x80000000   # root table
    li t1, 0xCF         # V|R|W|X|A|D
    sd t1, 0(t0)
    sd t1, 8(t0)
    li t1, 8            # satp: mode=8 (SV39), root ppn 0x80000
    slli t1, t1, 60
    li t2, 0x80000
    or t1, t1, t2
    csrw satp, t1
    li t3, 0x800        # mstatus.MPP = supervisor
    csrs mstatus, t3
    la t4, payload
    csrw mepc, t4
    mret
payload:
    la t0, cell
    li t1, 0x40000000
    add t1, t1, t0
    li t2, 42
    sd t2, 0(t1)
    ld s1, 0(t0)
    ecall               # from S-mode: traps to mhandler
mhandler:
    csrr t0, mcause
    li t1, 9            # ECALL_FROM_S
    mv a0, s1
    beq t0, t1, done
    li a0, 1
done:
    li a7, 93
    ecall
    .data
cell:
    .dword 0
"""


class TestEntryPoints:
    """CLI paths that are the only product route into their modules:
    ``--mmu`` (``repro.sim.vm``), ``--trace`` (``repro.obs.trace``) and
    ``python -m repro.harness --json``."""

    def test_run_mmu_translates_an_sv39_guest(self, tmp_path, capsys):
        path = tmp_path / "sv39.s"
        path.write_text(SV39_SOURCE)
        assert main(["run", str(path), "--mmu"]) == 42
        assert "exit 42" in capsys.readouterr().out
        # without --mmu the alias store lands elsewhere in physical memory
        assert main(["run", str(path)]) == 0

    @staticmethod
    def _traced_run(program_file, trace, capsys) -> int:
        assert main(["run", program_file, "--core", "xt910", "--stats",
                     "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert f"wrote {trace}" in out
        line = next(line for line in out.splitlines()
                    if line.startswith("instructions"))
        return int(line.split()[1])

    def test_run_trace_kanata_has_one_record_per_retired_inst(
            self, program_file, tmp_path, capsys):
        from repro.obs.trace import read_kanata

        trace = tmp_path / "run.kanata"
        retired = self._traced_run(program_file, trace, capsys)
        assert retired == 35
        assert len(read_kanata(str(trace))) == retired

    def test_run_trace_jsonl_has_one_record_per_retired_inst(
            self, program_file, tmp_path, capsys):
        import json as _json

        trace = tmp_path / "run.jsonl"
        retired = self._traced_run(program_file, trace, capsys)
        records = [_json.loads(line)
                   for line in trace.read_text().splitlines()]
        assert len(records) == retired == 35

    def test_harness_json_runs_one_experiment(self, capsys):
        import json as _json

        from repro.harness.__main__ import main as harness_main

        assert harness_main(["table2", "--json"]) == 0
        results = _json.loads(capsys.readouterr().out)
        assert isinstance(results, list) and len(results) == 1
        assert results[0]["experiment"] == "table2"
