"""The bench spine, checked once for every registered bench.

Each committed ``BENCH_*.json`` is the fixture for its own bench: the
gate tests perturb a copy of it and run it through the shared
``benchkit.check`` against the original.  The layer benches' cells and
their exact checks are here too (``repro.harness.layerbench``).
"""

import copy
import json
import pathlib
import types

import pytest

from repro.harness import benchkit, layerbench
from repro.sim import exec_vector
from repro.uarch.refmodel import ReferencePipelineModel
from repro.workloads import get_workload

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

COMMITTED = {
    "emulator": "BENCH_emulator.json",
    "pipeline": "BENCH_pipeline.json",
    "tier3": "BENCH_tier3.json",
    "vector": "BENCH_vector.json",
    "service": "BENCH_service.json",
    "explore-depth": "BENCH_explore.json",
}


def _committed(name):
    return benchkit.load(str(REPO_ROOT / COMMITTED[name]),
                         benchkit.get(name))


def _scaled(payload, dotted, factor):
    """A copy of *payload* with the value at *dotted* multiplied."""
    scaled = copy.deepcopy(payload)
    *parents, leaf = dotted.split(".")
    node = scaled
    for part in parents:
        node = node[part]
    node[leaf] = node[leaf] * factor
    return scaled


FLOORS = [(name, key) for name in benchkit.NAMES
          for key in benchkit.get(name).floors]
FLOORED = sorted({name for name, _ in FLOORS})


def test_every_bench_is_registered_with_a_committed_baseline():
    assert set(benchkit.NAMES) == set(COMMITTED)
    assert FLOORED == sorted(set(COMMITTED) - {"explore-depth"})


def test_only_the_frozen_oracles_ratio_is_floored():
    # ratios to live code (tier 1, tier 2, the reference vector engine)
    # are recorded, not floored: an oracle that gets faster is no
    # regression
    assert [key for _name, key in FLOORS if "vs_oracle" in key] == [
        "summary.vs_oracle.timing"]


@pytest.mark.parametrize("name", benchkit.NAMES)
def test_identical_payload_passes(name):
    payload = _committed(name)
    assert benchkit.check(benchkit.get(name), payload, payload) == []


@pytest.mark.parametrize("name", FLOORED)
def test_faster_passes(name):
    bench, baseline = benchkit.get(name), _committed(name)
    payload = baseline
    for key in bench.floors:
        payload = _scaled(payload, key, 4.0)
    assert benchkit.check(bench, payload, baseline) == []


@pytest.mark.parametrize("name", FLOORED)
def test_inside_tolerance_passes(name):
    bench, baseline = benchkit.get(name), _committed(name)
    payload = baseline
    for key in bench.floors:
        payload = _scaled(payload, key, 1.0 - 0.9 * bench.tolerance)
    assert benchkit.check(bench, payload, baseline) == []


def _fails_below_band(name, key):
    bench, baseline = benchkit.get(name), _committed(name)
    assert key in bench.floors, (name, key)
    payload = _scaled(baseline, key, 1.0 - 1.1 * bench.tolerance)
    failures = benchkit.check(bench, payload, baseline)
    assert any(key in failure and "regressed" in failure
               for failure in failures), failures
    # ... and the CLI's --tolerance is what moves that floor
    relaxed = benchkit.check(bench, payload, baseline, tolerance=1.0)
    assert not any("regressed" in failure for failure in relaxed)


@pytest.mark.parametrize("name,key", FLOORS,
                         ids=[f"{n}-{k}" for n, k in FLOORS])
def test_calibrated_floor_fails_below_band(name, key):
    _fails_below_band(name, key)


#: Each key the gate floored before its timed numbers were calibrated
#: (schema 1), and the floored keys that hold what it held: a speed's
#: calibrated self, and both sides of a ratio to live code as calibrated
#: speeds; the ratio to the frozen ``refmodel.py`` stays a ratio.
COUNTERPARTS = {
    ("emulator", "summary.coremark_fast_mips"): ["summary.kips.tier2"],
    ("emulator", "summary.coremark_speedup"): [
        "summary.kips.tier2", "summary.kips.tier1"],
    ("pipeline", "summary.coremark_fast_mips"): ["summary.kips.timing"],
    ("pipeline", "summary.coremark_speedup"): ["summary.vs_oracle.timing"],
    ("tier3", "summary.coremark_tier3_mips"): ["summary.kips.tier3"],
    ("tier3", "summary.coremark_speedup_vs_tier2"): [
        "summary.kips.tier3", "summary.kips.tier2"],
    ("vector", "summary.geomean_speedup"): [
        f"summary.kips.{engine}-t{tier}" for engine in ("numpy", "ref")
        for tier in (1, 2, 3)],
    ("service", "jobs_per_s"): ["jobs_per_s"],
}


@pytest.mark.parametrize("name,old", COUNTERPARTS,
                         ids=[f"{n}-{k}" for n, k in COUNTERPARTS])
def test_floor_fails_below_band(name, old):
    """Parametrized by the schema-1 floors: each one's calibrated
    counterparts are floored and fail below their band."""
    for key in COUNTERPARTS[name, old]:
        _fails_below_band(name, key)


@pytest.mark.parametrize("name", FLOORED)
def test_empty_baseline_passes(name):
    bench, payload = benchkit.get(name), _committed(name)
    assert benchkit.check(bench, payload, {}) == []
    assert benchkit.check(bench, payload, {"summary": {}}) == []


def test_explore_baseline_must_cover_every_depth():
    # The exact gate has nothing to relax: a depth the baseline does
    # not pin is a failure, not a pass.
    bench, payload = benchkit.get("explore-depth"), \
        _committed("explore-depth")
    failures = benchkit.check(bench, payload, {})
    assert len(failures) == len(payload["rows"])
    assert all("not in baseline" in failure for failure in failures)


def _recompiled_warm(payload):
    payload["summary"]["compiled_warm"] = 3


def _below_absolute_speedup(payload):
    for result in payload["workloads"].values():
        ratios = result["vs_oracle"]
        for subject in ratios:
            ratios[subject] = layerbench.MIN_GEOMEAN_SPEEDUP - 0.1


def _lost_a_job(payload):
    payload["completed"] = payload["jobs"] - 1


def _cycle_drift(payload):
    row = payload["rows"][0]
    row["workloads"][next(iter(row["workloads"]))]["cycles"] += 1


def _deeper_got_cheaper(payload):
    payload["rows"][-1]["cycles_total"] = 1


@pytest.mark.parametrize("name,violate,message", [
    ("emulator", _recompiled_warm, "warm-start"),
    ("tier3", _recompiled_warm, "warm-start"),
    ("vector", _below_absolute_speedup, "absolute floor"),
    ("service", _lost_a_job, "lost jobs"),
    ("explore-depth", _cycle_drift, "timing-model change"),
    ("explore-depth", _deeper_got_cheaper, "not monotonic"),
], ids=["emulator-warm-start", "tier3-warm-start", "vector-absolute-floor",
        "service-completed", "explore-exact-cycles", "explore-monotone"])
def test_invariant_fails_at_any_tolerance(name, violate, message):
    bench, baseline = benchkit.get(name), _committed(name)
    payload = copy.deepcopy(baseline)
    violate(payload)
    failures = benchkit.check(bench, payload, baseline, tolerance=1.0)
    assert len(failures) == 1 and message in failures[0], failures


@pytest.mark.parametrize("name", benchkit.NAMES)
def test_load_refuses_what_the_bench_did_not_write(name, tmp_path):
    bench, payload = benchkit.get(name), _committed(name)
    for other in set(COMMITTED) - {name}:
        with pytest.raises(benchkit.BenchError, match=other):
            benchkit.load(str(REPO_ROOT / COMMITTED[other]), bench)
    path = tmp_path / "baseline.json"
    key, version = bench.stamp
    benchkit.save({**payload, key: version + 1}, str(path))
    with pytest.raises(benchkit.BenchError, match=key):
        benchkit.load(str(path), bench)
    path.write_text("[1, 2]\n")
    with pytest.raises(benchkit.BenchError, match="JSON object"):
        benchkit.load(str(path), bench)
    path.write_text("{truncated")
    with pytest.raises(benchkit.BenchError, match="not JSON"):
        benchkit.load(str(path), bench)
    with pytest.raises(benchkit.BenchError, match="not found"):
        benchkit.load(str(tmp_path / "absent.json"), bench)


@pytest.mark.parametrize("name", benchkit.NAMES)
def test_save_load_round_trip_and_render(name, tmp_path):
    bench, payload = benchkit.get(name), _committed(name)
    path = tmp_path / "out.json"
    benchkit.save(payload, str(path))
    assert benchkit.load(str(path), bench) == payload
    assert json.loads(path.read_text()) == payload
    assert bench.render(payload)


# -- the timer and the driver, on a bench that costs nothing -----------------


def _clock(monkeypatch, *deltas):
    """Make benchkit's clock step through *deltas* (seconds between
    successive readings): the calibration kernel reads it twice a run,
    a timed call twice."""
    readings = [0.0]
    for delta in deltas:
        readings.append(readings[-1] + delta)
    clock = iter(readings)
    monkeypatch.setattr(benchkit, "time", types.SimpleNamespace(
        perf_counter=lambda: next(clock)))


def test_best_of_keeps_the_minimum_per_timed_call(monkeypatch):
    # each round: kernel, lap, kernel, lap, kernel (10 ms each)
    _clock(monkeypatch, .01, 0, 5, 0, .01, 0, 1, 0, .01, 0,    # laps 5, 1
           .01, 0, 2, 0, .01, 0, 4, 0, .01)                  # laps 2, 4
    rounds = []

    def once(timed):
        rounds.append(timed(len, "ab") + timed(len, "abc"))
        return len(rounds)

    # the fastest lap of each call, at 5 ms nominal / 10 ms measured
    laps, value = benchkit.best_of(2, once)
    assert laps == pytest.approx([1.0, 0.5]) and value == 2
    assert rounds == [5, 5]
    with pytest.raises(ValueError, match="repeat"):
        benchkit.best_of(0, once)


@pytest.mark.parametrize("slower", [1.0, 3.0])
def test_a_calibrated_lap_is_raw_times_nominal_over_calibration(
        monkeypatch, slower):
    # kernel 6.5 ms, lap 300 ms, kernel 6 ms: 0.3 x 5 / 6 seconds, and
    # a host *slower* times slower on both reads the same
    _clock(monkeypatch, *(slower * delta
                          for delta in (.0065, 0, .3, 0, .006)))
    (lap,), _ = benchkit.best_of(1, lambda timed: timed(len, ""))
    assert lap == pytest.approx(0.3 * benchkit.CAL_NOMINAL_MS / 6.0)


def test_the_calibration_kernel_does_the_benchmarks_work():
    # bench/calibrate.py's CHECKSUM: the copy runs the same kernel, so
    # benchkit's calibrated unit is the benchmark's sim_kips_norm unit
    assert benchkit.calibrate() > 0
    assert benchkit._CAL_STATE.acc == 0x6F703371


def _toy(score, runs):
    def run(quick, repeat=3):
        runs.append(repeat)
        return {"repeat": repeat, "score": score}

    return benchkit.Bench(
        name="toy", run=run, render=lambda p: f"score {p['score']}",
        floors=("score",), tolerance=0.30,
        invariants=lambda p, b: ["odd"] if p["score"] % 2 else [])


def test_drive_exit_codes(tmp_path, capsys):
    runs = []
    baseline = str(tmp_path / "toy.json")
    assert benchkit.drive(_toy(10, runs), out=baseline, repeat=1) == 0
    written = json.loads(open(baseline).read())
    assert sorted(written.pop("calibration")) == [
        "min_ms", "nominal_ms", "p50_ms"]
    assert written == {
        "schema": benchkit.SCHEMA, "bench": "toy", "quick": False,
        "machine": benchkit.machine(), "repeat": 1, "score": 10}
    assert benchkit.drive(_toy(8, runs), baseline=baseline) == 0
    assert "no regression" in capsys.readouterr().out
    # a regression, and an invariant, are one REGRESSION line each
    assert benchkit.drive(_toy(5, runs), baseline=baseline) == 1
    out = capsys.readouterr().out
    assert out.count("REGRESSION:") == 2 and "score regressed" in out
    assert benchkit.drive(_toy(5, runs), baseline=baseline,
                          tolerance=0.6) == 1          # still odd
    assert capsys.readouterr().out.count("REGRESSION:") == 1
    # an unusable baseline is exit 2 *before* the bench runs
    before = len(runs)
    emulator = str(REPO_ROOT / COMMITTED["emulator"])
    assert benchkit.drive(_toy(10, runs), baseline=emulator) == 2
    assert benchkit.drive(_toy(10, runs),
                          baseline=str(tmp_path / "absent")) == 2
    assert len(runs) == before
    assert capsys.readouterr().err.count("error: ") == 2


def test_payload_records_its_machine():
    machine = benchkit.machine()
    assert sorted(machine) == ["cpu", "numpy", "python"]
    assert all(isinstance(value, str) and value for value in machine.values())
    payload = benchkit.run(_toy(10, []), repeat=1)
    assert payload["machine"] == machine
    calibration = payload["calibration"]
    assert calibration["nominal_ms"] == benchkit.CAL_NOMINAL_MS
    assert 0 < calibration["min_ms"] <= calibration["p50_ms"]


def test_regression_names_a_baseline_from_another_machine():
    bench = _toy(10, [])
    here = {"score": 10, "machine": {"cpu": "A", "python": "3.11.7",
                                     "numpy": "2.4.6"}}
    slower = {**here, "score": 5}
    elsewhere = {**here, "machine": {**here["machine"], "cpu": "B"}}
    assert benchkit.check(bench, here, elsewhere) == []
    [same] = benchkit.check(bench, {**slower, "score": 6}, here)
    assert "machine" not in same
    [moved] = benchkit.check(bench, {**slower, "score": 6}, elsewhere)
    assert moved.startswith("score regressed") and (
        "another machine: cpu 'A' (baseline 'B')" in moved)
    failures = benchkit.check(bench, slower, {"score": 10})   # odd, too
    assert len(failures) == 2 and all(
        "the baseline records no machine" in failure
        for failure in failures)


# -- the layer benches' cells and their oracle checks ------------------------


def test_pipeline_cell_runs_and_is_oracle_checked(monkeypatch):
    workload = get_workload("coremark-list")
    cell = layerbench.ROWS["pipeline"].cell
    insts, seconds, extra = cell(workload, 1)
    assert insts > 0 and extra == {}
    assert sorted(seconds) == ["ref", "timing"]
    assert all(value > 0 for value in seconds.values())

    class Diverged(ReferencePipelineModel):
        def run(self, batches):
            stats = super().run(batches)
            stats.cycles += 1
            return stats

    monkeypatch.setattr(layerbench, "PipelineModel", Diverged)
    with pytest.raises(RuntimeError, match="diverged"):
        cell(workload, 1)


@pytest.mark.parametrize("engine", ["numpy", "ref"])
def test_vector_cell_runs_and_leaves_the_engine_as_found(engine):
    entered = exec_vector.active_engine()
    exec_vector.select_engine(engine)
    try:
        insts, seconds, extra = layerbench.ROWS["vector"].cell(
            get_workload("vec-memcpy"), 1)
        assert exec_vector.active_engine() == engine
    finally:
        exec_vector.select_engine(entered)
    assert sorted(seconds) == ["numpy-t1", "numpy-t2", "numpy-t3",
                               "ref-t1", "ref-t2", "ref-t3"]
    assert insts > 0 and extra["batched_ops"] > 0
    assert all(value > 0 for value in seconds.values())
