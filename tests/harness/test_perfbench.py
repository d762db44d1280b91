"""The emulator bench's cell function, renderer and committed baseline
(the gate itself is tests/harness/test_benchkit.py)."""

import pathlib

from repro.harness import benchkit, perfbench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestBenchRun:
    def test_bench_workload_shape(self):
        result = perfbench.bench_workload("coremark-list", repeat=1)
        assert result["insts"] > 0
        assert result["precise_mips"] > 0
        assert result["fast_mips"] > result["precise_mips"]
        assert result["speedup"] > 1.0
        assert result["harness_s"] > 0

    def test_render_and_save(self, tmp_path):
        payload = {
            "schema": benchkit.SCHEMA,
            "bench": "emulator",
            "workloads": {
                "coremark-list": {
                    "insts": 100, "precise_s": 1.0, "fast_s": 0.25,
                    "precise_mips": 0.0001, "fast_mips": 0.0004,
                    "speedup": 4.0, "harness_s": 0.5}},
            "summary": {"coremark_precise_mips": 0.0001,
                        "coremark_fast_mips": 0.0004,
                        "coremark_speedup": 4.0,
                        "geomean_speedup": 4.0,
                        "harness_wall_s": 0.5},
        }
        text = perfbench.render(payload)
        assert "coremark-list" in text
        assert "4.00x" in text
        path = tmp_path / "bench.json"
        benchkit.save(payload, str(path))
        assert benchkit.load(str(path), perfbench.BENCH) == payload


class TestCommittedBaseline:
    def test_checked_in_payload_is_valid(self):
        payload = benchkit.load(str(REPO_ROOT / "BENCH_emulator.json"),
                                perfbench.BENCH)
        summary = payload["summary"]
        # The acceptance bar this PR ships under: >= 3x on CoreMark.
        assert summary["coremark_speedup"] >= 3.0
        assert summary["coremark_fast_mips"] > summary[
            "coremark_precise_mips"]
        for result in payload["workloads"].values():
            assert result["insts"] > 0
            assert result["speedup"] > 1.0
