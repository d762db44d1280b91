"""The bench spine, checked once for every registered bench.

Each committed ``BENCH_*.json`` is the fixture for its own bench: the
gate tests perturb a copy of it and run it through the shared
``benchkit.check`` against the original.
"""

import copy
import json
import pathlib
import types

import pytest

from repro.harness import benchkit, pipebench, vecbench
from repro.sim import exec_vector
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


@pytest.mark.parametrize("name,key", FLOORS,
                         ids=[f"{n}-{k}" for n, k in FLOORS])
def test_floor_fails_below_band(name, key):
    bench, baseline = benchkit.get(name), _committed(name)
    payload = _scaled(baseline, key, 1.0 - 1.1 * bench.tolerance)
    failures = benchkit.check(bench, payload, baseline)
    assert any(key in failure and "regressed" in failure
               for failure in failures), failures
    # ... and the CLI's --tolerance is what moves that floor
    relaxed = benchkit.check(bench, payload, baseline, tolerance=1.0)
    assert not any("regressed" in failure for failure in relaxed)


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
    payload["summary"]["warm_blocks_compiled"] = 3


def _below_absolute_speedup(payload):
    payload["summary"]["geomean_speedup"] = \
        vecbench.MIN_GEOMEAN_SPEEDUP - 0.1


def _lost_a_job(payload):
    payload["completed"] = payload["jobs"] - 1


def _cycle_drift(payload):
    row = payload["rows"][0]
    row["workloads"][next(iter(row["workloads"]))]["cycles"] += 1


def _deeper_got_cheaper(payload):
    payload["rows"][-1]["cycles_total"] = 1


@pytest.mark.parametrize("name,violate,message", [
    ("tier3", _recompiled_warm, "warm-start"),
    ("vector", _below_absolute_speedup, "absolute floor"),
    ("service", _lost_a_job, "lost jobs"),
    ("explore-depth", _cycle_drift, "timing-model change"),
    ("explore-depth", _deeper_got_cheaper, "not monotonic"),
], ids=["tier3-warm-start", "vector-absolute-floor", "service-completed",
        "explore-exact-cycles", "explore-monotone"])
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


def test_best_of_keeps_the_minimum_per_timed_call(monkeypatch):
    clock = iter([0, 5, 5, 6,       # round 1: laps 5 and 1
                  10, 12, 12, 16])  # round 2: laps 2 and 4
    monkeypatch.setattr(benchkit, "time", types.SimpleNamespace(
        perf_counter=lambda: next(clock)))
    rounds = []

    def once(timed):
        rounds.append(timed(len, "ab") + timed(len, "abc"))
        return len(rounds)

    assert benchkit.best_of(2, once) == ([2, 1], 2)
    assert rounds == [5, 5]
    with pytest.raises(ValueError, match="repeat"):
        benchkit.best_of(0, once)


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
    assert json.loads(open(baseline).read()) == {
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
    assert benchkit.run(_toy(10, []), repeat=1)["machine"] == machine


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


# -- the two cell functions no tier-1 test used to import --------------------


def test_pipeline_cell_runs_and_is_oracle_checked():
    result = pipebench.bench_workload("coremark-list", repeat=1)
    assert result["insts"] > 0
    assert result["ref_mips"] > 0 and result["fast_mips"] > 0
    assert result["speedup"] == pytest.approx(
        result["ref_s"] / result["fast_s"], rel=1e-2)


@pytest.mark.parametrize("engine", ["numpy", "ref"])
def test_vector_cell_runs_and_leaves_the_engine_as_found(engine):
    entered = exec_vector.active_engine()
    exec_vector.select_engine(engine)
    try:
        entry = vecbench.bench_workload(get_workload("vec-memcpy"),
                                        repeat=1)
        assert exec_vector.active_engine() == engine
    finally:
        exec_vector.select_engine(entered)
    assert sorted(entry["tiers"]) == ["1", "2", "3"]
    assert entry["insts"] > 0 and entry["batched_ops"] > 0
    for tier in entry["tiers"].values():
        assert tier["ref_s"] > 0 and tier["numpy_s"] > 0
