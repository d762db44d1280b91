"""Tests of the benchmark itself: ``python -m pytest bench/``.

Kept out of the tier-1 ``testpaths`` on purpose — the smoke tests run
every workload for real and take about a minute.
"""

import json
import os
import subprocess
import sys
from types import SimpleNamespace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run as bench_run  # noqa: E402  (also puts src/ on sys.path)

import calibrate  # noqa: E402
import digests  # noqa: E402
import measure  # noqa: E402
import ops  # noqa: E402
from repro.service import JobService  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)


def _run(workload: str, trace: int, seed: int = 7) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--rounds", "2",
         "--trace", str(trace)],
        capture_output=True, text=True, check=True, cwd=ROOT)
    return json.loads(done.stdout.splitlines()[-1])


# -- smoke: every workload, both modes, names and units ----------------------


@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_untraced_run_prints_the_end_to_end_metrics(workload):
    result = _run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == declared
    assert all(metric["value"] > 0 for metric in result["metrics"].values())


@pytest.mark.parametrize("workload", bench_run.WORKLOAD_NAMES)
def test_traced_run_prints_the_per_layer_metrics(workload):
    seed = 11
    result = _run(workload, trace=1, seed=seed)
    assert result["correct"] and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: metric["unit"]
            for name, metric in result["metrics"].items()} == declared
    # Self times are non-negative and partition the op span (to within
    # the cost of opening and closing the root span itself).  The one
    # exception is service.overhead_s: isolated latency minus the inline
    # time of a second execution, which noise can push below zero.
    path = os.path.join(bench_run.OUT_DIR,
                        f"spans-{workload}-seed{seed}.json")
    with open(path) as handle:
        records = json.load(handle)
    assert records
    for record in records:
        span = record["end"] - record["start"]
        assert all(value >= 0.0 for layer, value in record["self_s"].items()
                   if layer != "service.overhead_s"), record
        assert sum(record["self_s"].values()) == pytest.approx(
            span, abs=2e-4), record


def test_benchmark_json_names_the_workloads_and_metric_tables():
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == list(bench_run.WORKLOAD_NAMES) == list(ops.WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} \
        == measure.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} \
        == measure.PER_LAYER_UNITS
    assert BENCHMARK["paths"] == ["bench"]


# -- calibration arithmetic --------------------------------------------------


def test_calibration_kernel_does_identical_work_every_call():
    calibrate.calibrate()
    first = calibrate.checksum()
    calibrate.calibrate()
    assert calibrate.checksum() == first == calibrate.CHECKSUM


def test_scale_arithmetic_on_synthetic_timings():
    # A host running the kernel in 10 ms is half the nominal speed, so
    # what it measures is halved.
    assert calibrate.op_scales([0.010, 0.010]) == pytest.approx([0.5])
    assert calibrate.op_scales([0.004, 0.006]) == pytest.approx([1.0])
    # Each op averages WINDOW calibrations a side, fewer at the ends.
    assert calibrate.WINDOW == 3
    series = [0.005] * 4 + [0.010] * 4
    scales = calibrate.op_scales(series)
    assert len(scales) == len(series) - 1
    assert scales[0] == pytest.approx(1.0)            # 0.005 x4
    assert scales[3] == pytest.approx(5.0 / 7.5)      # 3 fast + 3 slow
    assert scales[-1] == pytest.approx(0.5)           # 0.010 x4
    assert calibrate.median_scale([0.004, 0.005, 0.020]) \
        == pytest.approx(1.0)
    with pytest.raises(ValueError):
        calibrate.median_scale([])


def _synthetic_round(index, seconds_by_op, scale):
    samples = []
    for name, seconds in seconds_by_op.items():
        op = ops.Op(name, "timed", run=None, read=None)
        samples.append(measure.Sample(
            op, seconds, ops.Outcome(None, insts=1000), None, None,
            scale=scale))
    return measure.Round(index, False, samples, calibration_s=[0.005])


def test_metrics_come_from_per_op_medians_of_calibrated_latency():
    # Three rounds on a host that is 2x slow in the last one; one op is
    # hit by a burst once.  Calibration undoes the slow round and the
    # per-op median ignores the burst.
    rounds = [
        _synthetic_round(0, {"a": 0.010, "b": 0.030}, 1.0),
        _synthetic_round(1, {"a": 0.010, "b": 0.090}, 1.0),   # burst on b
        _synthetic_round(2, {"a": 0.020, "b": 0.060}, 0.5),   # slow host
    ]
    assert measure.op_medians(rounds) == pytest.approx(
        {"a": 0.010, "b": 0.030})
    metrics = measure.end_to_end(rounds, setup_s=1.0)
    assert metrics["sim_kips_norm"] == pytest.approx(2000 / 0.040 / 1e3)
    assert metrics["op_p50_ms"] == pytest.approx(20.0)
    assert metrics["op_p90_ms"] == pytest.approx(30.0)
    assert measure.kips(rounds, calibrated=False) == pytest.approx(
        2000 / (0.010 + 0.060) / 1e3)


def test_nearest_rank_percentile():
    assert measure.percentile(list(range(1, 101)), 90.0) == 90
    assert measure.percentile([5.0], 90.0) == 5.0


# -- failures are counted ----------------------------------------------------


def test_a_wrong_digest_is_a_failed_op(tmp_path):
    workload = ops.smp_cluster()
    op = workload.ops[0]
    env = ops.Env(tmpdir=str(tmp_path))
    good = digests.load_expected()[workload.name]
    assert measure.run_op(op, env, good).error is None
    planted = {op.name: {"digest": "0" * 64, "golden": None}}
    sample = measure.run_op(op, env, planted)
    assert sample.error == "result digest differs from expected.json"


def test_a_rejected_job_is_a_failed_op(tmp_path):
    bogus = SimpleNamespace(name="bogus", compress=True,
                            source="    .text\n_start:\n    frobnicate x1\n")
    cold, _hit = ops._job_ops(bogus)
    env = ops.Env(tmpdir=str(tmp_path),
                  service=JobService(workers=1, isolation=True))
    sample = measure.run_op(cold, env, {cold.name: {"digest": ""}})
    assert sample.outcome is None
    assert "rejected" in sample.error


def test_an_op_that_raises_is_a_failed_op(tmp_path):
    def boom(env):
        raise RuntimeError("boom")

    op = ops.Op("boom", "timed", run=boom, read=None)
    sample = measure.run_op(op, ops.Env(tmpdir=str(tmp_path)), {})
    assert sample.error == "RuntimeError: boom"


# -- expected.json cannot drift from the repo's oracle -----------------------


def test_expected_json_matches_golden_stats_and_covers_them():
    expected = digests.load_expected()          # raises on any mismatch
    golden = digests.load_golden()
    named = {entry["golden"] for entries in expected.values()
             for entry in entries.values() if entry["golden"]}
    assert named | set(digests.NOT_RUN) == set(golden)


def test_a_drifted_golden_digest_is_refused():
    expected = digests.load_expected()
    golden = digests.load_golden()
    name = next(iter(golden))
    golden[name] = dict(golden[name], cycles=golden[name]["cycles"] + 1)
    with pytest.raises(digests.ExpectedError):
        digests.check_against_golden(expected, golden)


def test_every_op_of_every_workload_has_an_expected_digest():
    expected = digests.load_expected()
    for name, build in ops.WORKLOADS.items():
        assert {op.name for op in build().ops} == set(expected[name])


# -- hermetic host state -----------------------------------------------------


def test_run_dir_is_inside_the_checkout_and_owns_every_cache(monkeypatch):
    for name in ("REPRO_CODE_CACHE", "REPRO_CODE_CACHE_DIR",
                 "REPRO_EXPLORE_CACHE_DIR", "TMPDIR"):
        monkeypatch.setenv(name, "unset-by-test")
    import tempfile
    monkeypatch.setattr(tempfile, "tempdir", None)
    run_dir = bench_run.hermetic_run_dir()
    assert os.path.dirname(run_dir) == bench_run.OUT_DIR
    assert bench_run.OUT_DIR.startswith(ROOT + os.sep)
    for name in ("REPRO_CODE_CACHE_DIR", "REPRO_EXPLORE_CACHE_DIR",
                 "TMPDIR"):
        assert os.environ[name].startswith(run_dir)
    from repro.harness.explore import default_store_dir
    from repro.sim.codegen import default_cache_dir
    assert default_cache_dir().startswith(run_dir)
    assert default_store_dir().startswith(run_dir)


def test_seed_changes_the_op_order_and_nothing_else():
    import random
    workload = ops.job_path()
    first = measure.op_order(workload.ops, random.Random(1))
    second = measure.op_order(workload.ops, random.Random(2))
    assert [op.name for op in first] != [op.name for op in second]
    assert sorted(op.name for op in first) == sorted(
        op.name for op in second)
    for order in (first, second):    # every hit follows every cold op
        phases = [op.phase for op in order]
        assert phases == sorted(phases)
