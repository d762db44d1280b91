"""The emulator bench's cell, renderer and committed baseline (the
gate itself is tests/harness/test_benchkit.py)."""

import dataclasses
import pathlib
import types

from repro.harness import benchkit, layerbench
from repro.workloads import get_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
ROW = layerbench.ROWS["emulator"]
TIERS = ["tier1", "tier2", "tier3-cold", "tier3"]


class TestBenchRun:
    def test_bench_workload_shape(self):
        insts, seconds, extra = ROW.cell(get_workload("coremark-list"), 1)
        assert insts > 0
        assert list(seconds) == TIERS
        assert 0 < seconds["tier2"] < seconds["tier1"]
        assert extra["compiled_cold"] > 0 and extra["compiled_warm"] == 0

    def test_render_and_save(self, tmp_path):
        kernel = types.SimpleNamespace(name="coremark-list")
        seconds = {"tier1": 1.0, "tier2": 0.25, "tier3-cold": 0.5,
                   "tier3": 0.05}
        extra = {"compiled_cold": 3, "compile_s_cold": 0.1,
                 "compiled_warm": 0, "insts_per_dispatch": 20.0}
        row = dataclasses.replace(
            ROW, kernels=lambda quick: [kernel],
            cell=lambda workload, repeat: (100, seconds, extra))
        payload = layerbench.run(row, repeat=1)
        result = payload["workloads"]["coremark-list"]
        # 100 instructions in a calibrated second: 0.1 kinst/s
        assert result["kips"] == {"tier1": 0.1, "tier2": 0.4,
                                  "tier3-cold": 0.2, "tier3": 2.0}
        assert result["vs_oracle"] == {"tier2": 4.0, "tier3-cold": 2.0,
                                       "tier3": 20.0}
        assert payload["summary"]["kips"] == result["kips"]
        assert payload["summary"]["compiled_cold"] == 3
        text = layerbench.render(row, payload)
        assert "coremark-list" in text and "tier2 4.00x tier1" in text
        path = tmp_path / "bench.json"
        payload = {"schema": benchkit.SCHEMA, "bench": "emulator",
                   **payload}
        benchkit.save(payload, str(path))
        assert benchkit.load(str(path), layerbench.EMULATOR) == payload


class TestCommittedBaseline:
    def test_checked_in_payload_is_valid(self):
        payload = benchkit.load(str(REPO_ROOT / "BENCH_emulator.json"),
                                layerbench.EMULATOR)
        summary = payload["summary"]
        # Each tier is faster than the one below it on CoreMark (PR 3's
        # bar, tier 2 >= 3x tier 1, held a ratio to live code; the ratio
        # stays recorded), and every floor is a calibrated speed.
        kips = summary["kips"]
        assert kips["tier3"] > kips["tier2"] > kips["tier1"] > 0
        assert summary["vs_oracle"]["tier2"] > 1.0
        assert set(layerbench.EMULATOR.floors) == {
            f"summary.kips.{tier}" for tier in TIERS}
        assert summary["compiled_warm"] == 0
        assert payload["calibration"]["nominal_ms"] == \
            benchkit.CAL_NOMINAL_MS
        assert payload["machine"]["cpu"]
        for result in payload["workloads"].values():
            assert result["insts"] > 0
            assert all(value > 0 for value in result["kips"].values())
