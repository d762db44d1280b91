"""The design-space exploration harness (``repro.harness.explore``).

Covers sweep-spec parsing (both axis forms and their negatives), point
expansion with validation at expansion time, the content-addressed
result store (second-pass-all-hits, corrupt records as misses, and key
separation across program/config/tier/budget), the one job path (a
sweep cell and the equivalent service job are one store record; sweeps
inherit the service's watchdog and failure semantics), the depth
bench's trade-off shape against the committed BENCH_explore.json, and
a >=100-point sweep actually fanned through the worker pool.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.harness import benchkit, explore
from repro.harness.parallel import CellFailure
from repro.service import JobResult, JobService, JobSpec, JobState
from repro.uarch import uconfig
from repro.workloads import Workload, get_workload

REPO_ROOT = Path(__file__).resolve().parents[2]


# -- spec parsing ------------------------------------------------------------


def test_axis_scalar_form():
    axis = explore.SweepAxis.from_dict(
        {"path": "frontend.depth", "values": [3, 5, 7]})
    assert axis.label == "frontend.depth"
    assert axis.values == [3, 5, 7]
    assert axis.points == [{"frontend.depth": 3}, {"frontend.depth": 5},
                           {"frontend.depth": 7}]


def test_axis_range_form():
    axis = explore.SweepAxis.from_dict(
        {"path": "mem.dram.latency",
         "range": {"start": 100, "stop": 300, "step": 100}})
    assert axis.values == [100, 200, 300]


def test_axis_linked_points_form():
    axis = explore.SweepAxis.from_dict({
        "label": "depth",
        "points": [{"frontend.depth": 3, "frontend.mispredict_extra": 0},
                   {"frontend.depth": 9,
                    "frontend.mispredict_extra": 12}]})
    assert axis.label == "depth"
    assert len(axis.points) == 2
    # multi-knob axes expose the whole point dict as the value
    assert axis.values == axis.points


@pytest.mark.parametrize("payload", [
    {"values": [1]},                                   # missing path
    {"path": "x"},                                     # neither form
    {"path": "x", "values": [1], "range": {}},         # both forms
    {"path": "x", "values": []},                       # empty values
    {"path": "x", "range": {"start": 5, "stop": 1}},   # inverted range
    {"points": []},                                    # empty points
    {"points": [{}]},                                  # empty point
    {"points": [{"a": 1}], "path": "x"},               # mixed forms
    {"path": "x", "values": [1], "bogus": True},       # unknown key
])
def test_axis_negatives(payload):
    with pytest.raises(explore.ExploreError):
        explore.SweepAxis.from_dict(payload)


def test_sweep_spec_parsing_and_negatives():
    spec = explore.SweepSpec.from_dict({
        "name": "s", "base": "u74", "workloads": ["coremark-list"],
        "axes": [{"path": "rob_entries", "values": [64, 96]}],
        "tier": 2})
    assert spec.base == "u74" and spec.axes[0].values == [64, 96]
    with pytest.raises(explore.ExploreError):
        explore.SweepSpec.from_dict({"tier": 5})
    with pytest.raises(explore.ExploreError):
        explore.SweepSpec.from_dict({"workloads": []})
    with pytest.raises(explore.ExploreError):
        explore.SweepSpec.from_dict({"bogus": 1})


def test_load_sweep_file(tmp_path):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({
        "name": "file-sweep",
        "axes": [{"path": "iq_entries", "values": [8, 16]}]}))
    spec = explore.load_sweep(str(path))
    assert spec.name == "file-sweep"
    assert spec.workloads == ["coremark-list"]


# -- expansion ---------------------------------------------------------------


def test_expand_cartesian_product_with_digests():
    spec = explore.SweepSpec(axes=[
        explore.SweepAxis.single("frontend.depth", [5, 7]),
        explore.SweepAxis.single("mem.dram.latency", [100, 200, 300]),
    ])
    points = explore.expand(spec)
    assert len(points) == 6
    assert points[0].overrides == {"frontend.depth": 5,
                                   "mem.dram.latency": 100}
    assert points[-1].overrides == {"frontend.depth": 7,
                                    "mem.dram.latency": 300}
    assert len({p.digest for p in points}) == 6   # all distinct configs
    assert points[3].label == "p0003"


def test_expand_validates_each_point():
    spec = explore.SweepSpec(axes=[
        explore.SweepAxis.single("decode_width", [2, 99])])
    with pytest.raises(explore.ExploreError) as excinfo:
        explore.expand(spec)
    assert "out of range" in str(excinfo.value)


def test_expand_point_ceiling():
    spec = explore.SweepSpec(axes=[
        explore.SweepAxis.single("rob_entries",
                                 range(1, explore.MAX_POINTS + 2))])
    with pytest.raises(explore.ExploreError) as excinfo:
        explore.expand(spec)
    assert "ceiling" in str(excinfo.value)


def test_no_axes_is_one_point():
    points = explore.expand(explore.SweepSpec())
    assert len(points) == 1 and points[0].overrides == {}


# -- the store ---------------------------------------------------------------


#: a cell's job as ``run_sweep`` spells it (tier 2, unvetted, unbudgeted)
_CELL = JobSpec(source="prog", core="xt910", mode="fast", vet=False,
                max_insts=None)


def test_store_key_separates_every_component():
    keys = {
        _CELL.key(),
        dataclasses.replace(_CELL, source="prog2").key(),       # program
        dataclasses.replace(_CELL, core="u74").key(),           # config
        dataclasses.replace(_CELL, mode="tier3").key(),         # tier
        dataclasses.replace(_CELL, max_insts=1000).key(),       # budget
    }
    assert len(keys) == 5


def test_store_key_no_collision_across_field_boundaries():
    """The key material is delimited: shifting characters between
    adjacent fields must not produce the same address."""
    assert dataclasses.replace(_CELL, mode="fast", max_insts=12).key() != \
        dataclasses.replace(_CELL, mode="fast1", max_insts=2).key()


def test_store_round_trip_and_corrupt_record_is_miss(tmp_path):
    root = str(tmp_path / "store")
    store = explore.ExploreStore(root)
    key = _CELL.key()
    result = JobResult(name="cell", state=JobState.COMPLETED,
                       metrics={"cycles": 123})
    assert store.get(key) is None
    assert store.put(key, result)
    assert store.get(key).metrics == {"cycles": 123}
    # a second process sees the record on disk
    assert explore.ExploreStore(root).get(key).metrics == {"cycles": 123}
    # corrupt the record on disk: a counted miss, not an error ...
    Path(store._path(key)).write_text("{truncated")
    fresh = explore.ExploreStore(root)
    assert fresh.get(key) is None
    assert fresh.counters() == {"hits": 0, "misses": 1, "entries": 0,
                                "discards": 1}
    # ... that the next put overwrites
    fresh.put(key, result)
    assert explore.ExploreStore(root).get(key).metrics == {"cycles": 123}


def test_default_store_dir_honours_env(monkeypatch):
    monkeypatch.setenv("REPRO_EXPLORE_CACHE_DIR", "/tmp/somewhere")
    assert explore.default_store_dir() == "/tmp/somewhere"


# -- running sweeps ----------------------------------------------------------


def _tiny_spec(values=(100, 200)):
    return explore.SweepSpec(
        base="xt910", workloads=["blockchain-base"],
        axes=[explore.SweepAxis.single("mem.dram.latency",
                                       list(values))],
        tier=2, name="tiny")


def test_second_pass_is_pure_cache(tmp_path):
    store = explore.ExploreStore(str(tmp_path / "store"))
    first = explore.run_sweep(_tiny_spec(), store=store)
    assert first.simulated == 2 and first.cache_hits == 0
    second = explore.run_sweep(_tiny_spec(), store=store)
    assert second.simulated == 0 and second.cache_hits == 2
    # identical records either way, and flagged as cached
    assert [c.record["cycles"] for c in second.results] == \
        [c.record["cycles"] for c in first.results]
    assert all(c.cached for c in second.results)


def test_growing_a_sweep_only_simulates_the_new_column(tmp_path):
    store = explore.ExploreStore(str(tmp_path / "store"))
    explore.run_sweep(_tiny_spec((100, 200)), store=store)
    grown = explore.run_sweep(_tiny_spec((100, 200, 300)), store=store)
    assert grown.cache_hits == 2 and grown.simulated == 1


def test_config_actually_changes_the_simulation(tmp_path):
    store = explore.ExploreStore(str(tmp_path / "store"))
    report = explore.run_sweep(_tiny_spec((100, 400)), store=store)
    cycles = [cell.record["cycles"] for cell in report.results]
    assert cycles[0] < cycles[1]       # 4x DRAM latency costs cycles


def test_hundred_point_sweep_through_the_pool(tmp_path):
    """The acceptance sweep: >=100 points fanned over worker
    processes, then replayed entirely from the store."""
    spec = explore.smoke_spec()
    store = explore.ExploreStore(str(tmp_path / "store"))
    report = explore.run_sweep(spec, jobs=2, store=store)
    assert report.points >= 100
    assert report.simulated == report.cells
    again = explore.run_sweep(spec, jobs=2, store=store)
    assert again.simulated == 0
    assert again.cache_hits == again.cells


def test_report_json_is_metrics_schema(tmp_path):
    from repro.obs import MetricsRegistry

    store = explore.ExploreStore(str(tmp_path / "store"))
    report = explore.run_sweep(_tiny_spec(), store=store)
    path = tmp_path / "report.json"
    report.save(str(path))
    payload = json.loads(path.read_text())
    # every metrics key passes MetricsRegistry validation on reload
    registry = MetricsRegistry.from_dict(payload["metrics"])
    assert registry["explore.sweep"] == "tiny"
    assert registry["explore.p0000.blockchain-base.cycles"] == \
        report.results[0].record["cycles"]
    assert registry["explore.p0001.axis.mem.dram.latency"] == 200


# -- one job path ------------------------------------------------------------


def _cell_job(latency: int, tier_mode: str = "fast") -> JobSpec:
    """The service job equivalent to one ``_tiny_spec`` cell, spelled
    the way ``repro submit --core xt910 --extend overlay`` would: the
    preset document with a nested overlay merged on top."""
    workload = get_workload("blockchain-base")
    doc = uconfig.merge_overlay(
        uconfig.config_to_doc(uconfig.resolve_core("xt910")),
        {"mem": {"dram": {"latency": latency}}})
    return JobSpec(source=workload.source, compress=workload.compress,
                   core=None, mode=tier_mode, vet=False, max_insts=None,
                   uarch=doc)


def test_sweep_cell_is_a_hit_for_the_equivalent_job(tmp_path):
    root = str(tmp_path / "store")
    report = explore.run_sweep(_tiny_spec((100,)),
                               store=explore.ExploreStore(root))
    assert report.simulated == 1
    service = JobService(isolation=False, store=explore.ExploreStore(root))
    job = service.submit(_cell_job(100))
    assert job.state is JobState.COMPLETED and job.cache_hit
    assert job.metrics["cycles"] == report.results[0].record["cycles"]
    assert job.metrics["stats"] == report.results[0].record["stats"]
    # a different tier or point is a different record
    assert not service.submit(_cell_job(100, "tier3")).cache_hit
    assert not service.submit(_cell_job(300)).cache_hit


def test_job_is_a_hit_for_the_equivalent_sweep_cell(tmp_path):
    root = str(tmp_path / "store")
    service = JobService(isolation=False, store=explore.ExploreStore(root))
    job = service.submit(_cell_job(200))
    assert job.state is JobState.COMPLETED and not job.cache_hit
    report = explore.run_sweep(_tiny_spec((100, 200)),
                               store=explore.ExploreStore(root))
    assert [cell.cached for cell in report.results] == [False, True]
    assert report.results[1].record["cycles"] == job.metrics["cycles"]


def test_corrupt_records_are_resimulated_and_overwritten(tmp_path):
    root = tmp_path / "store"
    explore.run_sweep(_tiny_spec(), store=explore.ExploreStore(str(root)))
    records = sorted(root.rglob("*.json"))
    assert len(records) == 2
    records[0].write_text("")                       # truncated
    records[1].write_text('{"state": "no-such"}')   # parses, not a result
    store = explore.ExploreStore(str(root))
    again = explore.run_sweep(_tiny_spec(), store=store)
    assert again.simulated == 2 and again.cache_hits == 0
    assert store.discards == 2
    healed = explore.run_sweep(_tiny_spec(),
                               store=explore.ExploreStore(str(root)))
    assert healed.simulated == 0 and healed.cache_hits == 2


def test_budgeted_sweep_returns_partial_records_and_never_quarantines(
        tmp_path):
    """Every cell of one program expires its instruction budget: that
    is data (the budget is in the key), not a breaker failure."""
    spec = _tiny_spec((100, 200, 300, 400, 500))
    spec.max_insts = 500
    store = explore.ExploreStore(str(tmp_path / "store"))
    first = explore.run_sweep(spec, store=store)   # raises if quarantined
    assert first.simulated == 5
    for cell in first.results:
        assert cell.record["watchdog_expired"] == 1
        assert cell.record["instructions"] > 0 and cell.record["cycles"] > 0
    second = explore.run_sweep(spec, store=store)
    assert second.simulated == 0 and second.cache_hits == 5
    assert [c.record for c in second.results] == \
        [c.record for c in first.results]
    # the unbudgeted sweep is a different set of records
    assert explore.run_sweep(_tiny_spec((100,)), store=store).simulated == 1


def test_failing_cells_are_named_after_siblings_finish(tmp_path,
                                                       monkeypatch):
    bad = Workload("exits-nonzero", "li a0, 3\nli a7, 93\necall\n")
    monkeypatch.setattr(
        explore, "get_workload",
        lambda name: bad if name == bad.name else get_workload(name))
    spec = _tiny_spec()
    spec.workloads = [bad.name, "blockchain-base"]
    store = explore.ExploreStore(str(tmp_path / "store"))
    with pytest.raises(CellFailure) as excinfo:
        explore.run_sweep(spec, store=store)
    failure = excinfo.value
    assert failure.total == 4
    assert [f.cell for f in failure.failures] == \
        [(bad.name, "p0000"), (bad.name, "p0001")]
    message = str(failure)
    assert "2 of 4 cells failed" in message
    # the service's rendered error chain, per cell
    assert message.count("guest-fault: program exited with 3") == 2
    assert "<- caused by" in message and "GuestExit" in message
    # the siblings finished and were stored before the failure surfaced
    spec.workloads = ["blockchain-base"]
    assert explore.run_sweep(spec, store=store).cache_hits == 2


def test_unknown_workload_is_an_explore_error():
    spec = _tiny_spec()
    spec.workloads = ["no-such-kernel"]
    with pytest.raises(explore.ExploreError) as excinfo:
        explore.run_sweep(spec)
    assert "blockchain-base" in str(excinfo.value)   # names the known


# -- the depth bench ---------------------------------------------------------


def test_depth_points_scale_redirect_penalties():
    shallow = explore.depth_point(3)
    deep = explore.depth_point(13)
    assert shallow["frontend.mispredict_extra"] == 0
    assert deep["frontend.mispredict_extra"] > \
        shallow["frontend.mispredict_extra"]
    assert deep["frontend.taken_bubble_miss"] >= \
        shallow["frontend.taken_bubble_miss"]


def test_frequency_scale_shape():
    assert explore.frequency_scale(7) == pytest.approx(1.0)
    # deeper clocks faster, but sublinearly
    assert 1.0 < explore.frequency_scale(13) < 13 / 7
    assert explore.frequency_scale(3) < 1.0


def test_depth_bench_quick_matches_committed_baseline(tmp_path):
    baseline = benchkit.load(str(REPO_ROOT / "BENCH_explore.json"),
                             explore.BENCH)
    payload = benchkit.run(
        explore.BENCH, quick=True,
        store=explore.ExploreStore(str(tmp_path / "s")))
    assert benchkit.check(explore.BENCH, payload, baseline) == []
    cycles = [row["cycles_total"] for row in payload["rows"]]
    assert cycles == sorted(cycles)       # deeper is never cheaper
    # the committed full-suite optimum is interior, the trade-off shape
    assert min(explore.DEPTHS) < baseline["best_depth"] \
        < max(explore.DEPTHS)


def test_check_regression_flags_cycle_drift():
    baseline = benchkit.load(str(REPO_ROOT / "BENCH_explore.json"),
                             explore.BENCH)
    payload = json.loads(json.dumps(baseline))
    row = payload["rows"][0]
    name = next(iter(row["workloads"]))
    row["workloads"][name]["cycles"] += 1
    failures = benchkit.check(explore.BENCH, payload, baseline)
    assert any("timing-model change" in failure for failure in failures)


# -- uconfig integration edge ------------------------------------------------


def test_sweep_base_may_be_inline_document():
    spec = explore.SweepSpec(
        base={"name": "inline", "rob_entries": 64},
        axes=[explore.SweepAxis.single("iq_entries", [8, 12])])
    points = explore.expand(spec)
    assert len(points) == 2
    config = uconfig.config_from_doc(points[0].doc)
    assert config.rob_entries == 64 and config.iq_entries == 8
