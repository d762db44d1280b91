"""Chaos harness mechanics: seeded plans, audit classification, and a
small end-to-end campaign (CI runs the full 100-fault campaign in its
own job; this suite keeps the in-tree cost low)."""

import multiprocessing

from repro.harness import benchkit
from repro.service import JobResult, JobState
from repro.service import bench as service_bench
from repro.service.chaos import (
    ChaosReport,
    PlannedJob,
    _audit,
    clean_source,
    generate_plan,
    run_chaos,
)
from repro.service.job import JobSpec


class TestPlan:
    def test_deterministic_given_seed(self):
        a = generate_plan(target_faults=30, seed=2020)
        b = generate_plan(target_faults=30, seed=2020)
        assert [(j.kind, j.spec.name, j.spec.program_hash) for j in a] \
            == [(j.kind, j.spec.name, j.spec.program_hash) for j in b]

    def test_different_seed_different_plan(self):
        a = generate_plan(target_faults=30, seed=1)
        b = generate_plan(target_faults=30, seed=2)
        assert [j.kind for j in a] != [j.kind for j in b]

    def test_carries_at_least_target_faults(self):
        plan = generate_plan(target_faults=30, seed=7)
        assert sum(j.faults for j in plan) >= 30

    def test_program_hashes_are_unique_per_job(self):
        # Accidental hash collisions would let the cache or the
        # breaker couple jobs the plan meant to be independent.
        plan = generate_plan(target_faults=30, seed=7)
        hashes = [j.spec.program_hash for j in plan]
        assert len(set(hashes)) == len(hashes)


def _planned(expected=JobState.COMPLETED) -> PlannedJob:
    spec = JobSpec(source=clean_source(0), core=None, name="p")
    return PlannedJob("clean-functional", spec,
                      frozenset({expected}), faults=0)


class TestAudit:
    def test_missing_result_is_silent(self):
        report = ChaosReport()
        _audit(_planned(), None, report)
        assert report.silent and "no result" in report.silent[0]

    def test_non_terminal_is_silent(self):
        report = ChaosReport()
        _audit(_planned(),
               JobResult(name="p", state=JobState.RUNNING), report)
        assert report.silent

    def test_failure_without_error_is_silent(self):
        report = ChaosReport()
        _audit(_planned(JobState.FAILED),
               JobResult(name="p", state=JobState.FAILED, error=None),
               report)
        assert report.silent and "without a structured error" \
            in report.silent[0]

    def test_wrong_state_is_unexpected_not_silent(self):
        report = ChaosReport()
        _audit(_planned(JobState.FAILED),
               JobResult(name="p", state=JobState.COMPLETED), report)
        assert report.unexpected and not report.silent

    def test_classification_buckets(self):
        report = ChaosReport()
        _audit(_planned(), JobResult(name="p", state=JobState.COMPLETED),
               report)
        _audit(_planned(), JobResult(name="p", state=JobState.COMPLETED,
                                     attempts=2), report)
        _audit(_planned(), JobResult(name="p", state=JobState.COMPLETED,
                                     downgraded=True), report)
        assert report.outcomes == {"completed-clean": 1,
                                   "recovered-retry": 1,
                                   "recovered-fallback": 1}


class TestCampaign:
    def test_small_campaign_has_no_silent_losses(self):
        report = run_chaos(target_faults=12, seed=11, workers=2,
                           toxic_submissions=4)
        assert report.faults_injected >= 12
        assert report.definitive == report.jobs
        assert report.silent == []
        assert report.unexpected == []
        assert multiprocessing.active_children() == []


class TestServiceBench:
    def test_quick_bench_payload_and_gate(self):
        bench = service_bench.BENCH
        payload = benchkit.run(bench, quick=True, jobs=4, workers=2)
        assert payload["bench"] == "service"
        assert payload["completed"] == payload["jobs"] == 4
        assert payload["jobs_per_s"] > 0
        assert benchkit.check(bench, payload, payload) == []
        # A faster baseline beyond tolerance must trip the gate.
        baseline = dict(payload)
        baseline["jobs_per_s"] = payload["jobs_per_s"] * 10
        failures = benchkit.check(bench, payload, baseline)
        assert failures and "jobs_per_s" in failures[0]

    def test_gate_catches_a_fork_per_job(self):
        payload = benchkit.run(service_bench.BENCH, quick=True, jobs=4,
                               workers=2)
        assert payload["workers_launched"] == 2
        forked = dict(payload, workers_launched=4)
        [problem] = service_bench.invariants(forked, payload)
        assert "forked 4 workers for 2 slots" in problem
