"""The tier bench's cell and committed baseline (the gate itself is
tests/harness/test_benchkit.py)."""

import pathlib

from repro.harness import benchkit, layerbench

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
ROW = layerbench.ROWS["tier3"]


class TestBenchRun:
    def test_bench_workload_shape(self):
        workload = ROW.kernels(True)[0]
        insts, seconds, extra = ROW.cell(workload, 1)
        assert insts > 0
        assert list(seconds) == ["tier2", "tier3-cold", "tier3"]
        assert all(value > 0 for value in seconds.values())
        assert extra["compiled_cold"] > 0
        # The warm runs load what the cold run persisted: no compile,
        # and superblocks, so a dispatch retires more than one block.
        assert extra["compiled_warm"] == 0
        assert extra["insts_per_dispatch"] > 10


class TestCommittedBaseline:
    def test_checked_in_payload_is_valid(self):
        payload = benchkit.load(str(REPO_ROOT / "BENCH_tier3.json"),
                                layerbench.TIER3)
        summary = payload["summary"]
        # The acceptance bar this bench shipped under: >= 2x over
        # tier 2 on CoreMark, and a genuinely warm second start.
        assert summary["vs_oracle"]["tier3"] >= 2.0
        assert summary["kips"]["tier3"] > summary["kips"]["tier2"]
        assert summary["compiled_warm"] == 0
        for result in payload["workloads"].values():
            assert result["insts"] > 0
            assert result["compiled_warm"] == 0
            assert result["insts_per_dispatch"] > 0
