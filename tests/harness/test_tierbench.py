"""The tier bench's cell function and committed baseline (the gate
itself is tests/harness/test_benchkit.py)."""

import pathlib

from repro.harness import benchkit, tierbench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


class TestBenchRun:
    def test_bench_workload_shape(self, tmp_path):
        workload = tierbench._workloads(quick=True)[0]
        result = tierbench.bench_workload(workload, repeat=1,
                                          cache_dir=str(tmp_path))
        assert result["insts"] > 0
        assert result["tier2_mips"] > 0
        assert result["tier3_mips"] > 0
        assert result["blocks_compiled_cold"] > 0
        # The warm runs hit the disk cache the cold run persisted.
        assert result["blocks_compiled_warm"] == 0
        assert result["disk_hits_warm"] >= result["blocks_compiled_cold"]
        # superblocks: a dispatch retires more than one basic block
        assert result["insts_per_dispatch"] > 10


class TestCommittedBaseline:
    def test_checked_in_payload_is_valid(self):
        payload = benchkit.load(str(REPO_ROOT / "BENCH_tier3.json"),
                                tierbench.BENCH)
        summary = payload["summary"]
        # The acceptance bar this PR ships under: >= 2x over tier-2
        # on CoreMark, and a genuinely warm second start.
        assert summary["coremark_speedup_vs_tier2"] >= 2.0
        assert summary["coremark_tier3_mips"] > summary[
            "coremark_tier2_mips"]
        assert summary["warm_blocks_compiled"] == 0
        for result in payload["workloads"].values():
            assert result["insts"] > 0
            assert result["blocks_compiled_warm"] == 0
            assert result["insts_per_dispatch"] > 0
