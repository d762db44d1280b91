"""JobService end-to-end: retries, quarantine, cache, degradation.

Pooled tests keep worker counts small (CI machines may expose a single
CPU); chaos crash/hang plans only ever run under process isolation —
inline they would take the test process with them.
"""

import gc
import json
import multiprocessing
import os
import time

from repro.asm import assemble
from repro.harness.runner import run_on_core
from repro.obs import collect_service
from repro.service import (
    JobResult,
    JobService,
    JobSpec,
    JobState,
    RetryPolicy,
    WorkerPool,
)
from repro.service.chaos import clean_source, wild_jump_source
from repro.service.worker import execute_job
from repro.workloads.vector import vec_axpy_f32, vec_strcmp

FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                         backoff_cap_s=0.05, jitter=0.2)


def _service(**kwargs) -> JobService:
    kwargs.setdefault("retry", FAST_RETRY)
    return JobService(**kwargs)


class TestHealthyJobs:
    def test_functional_inline(self):
        result = _service(isolation=False).submit(
            JobSpec(source=clean_source(0), core=None, name="fn"))
        assert result.state is JobState.COMPLETED
        assert result.exit_code == 0
        assert result.metrics["instret"] > 0

    def test_timed_inline(self):
        result = _service(isolation=False).submit(
            JobSpec(source=clean_source(1), core="xt910", name="timed"))
        assert result.state is JobState.COMPLETED
        assert result.metrics["cycles"] > 0
        assert 0.0 < result.metrics["ipc"] < 8.0

    def test_batch_order_and_job_ids(self):
        service = _service(isolation=False)
        specs = [JobSpec(source=clean_source(i), core=None, name=f"j{i}")
                 for i in range(4)]
        results = service.run(specs)
        assert [r.name for r in results] == [f"j{i}" for i in range(4)]
        assert sorted(r.job_id for r in results) == [1, 2, 3, 4]


class TestRetries:
    def test_crash_once_recovers(self):
        result = _service(workers=2).submit(
            JobSpec(source=clean_source(2), core=None, name="c1",
                    chaos={"crash_attempts": [1]}))
        assert result.state is JobState.COMPLETED
        assert result.attempts == 2

    def test_crash_always_exhausts_with_worker_crash_error(self):
        service = _service(workers=2)
        result = service.submit(
            JobSpec(source=clean_source(3), core=None, name="c3",
                    chaos={"crash_attempts": [1, 2, 3]}))
        assert result.state is JobState.FAILED
        assert result.attempts == 3
        assert result.error["kind"] == "worker-crash"
        assert service.counters()["worker_crashes"] == 3

    def test_hang_is_reaped_and_retried(self):
        result = _service(workers=2).submit(
            JobSpec(source=clean_source(4), core=None, name="h1",
                    wall_timeout_s=3.0, chaos={"hang_attempts": [1]}))
        assert result.state is JobState.COMPLETED
        assert result.attempts == 2

    def test_internal_error_is_retried(self):
        result = _service(isolation=False).submit(
            JobSpec(source=clean_source(5), core=None, name="e1",
                    chaos={"error_attempts": [1]}))
        assert result.state is JobState.COMPLETED
        assert result.attempts == 2

    def test_deterministic_failures_are_not_retried(self):
        service = _service(isolation=False)
        result = service.submit(
            JobSpec(source=wild_jump_source(), core=None, name="wild"))
        assert result.state is JobState.FAILED
        assert result.attempts == 1
        assert service.counters()["retries"] == 0


class TestQuarantine:
    def test_breaker_opens_after_threshold(self):
        service = _service(isolation=False, breaker_threshold=3)
        spec = JobSpec(source=wild_jump_source(), core=None, name="toxic")
        states = [service.submit(spec).state for _ in range(5)]
        assert states[:3] == [JobState.FAILED] * 3
        assert states[3:] == [JobState.QUARANTINED] * 2
        counters = service.counters()
        assert counters["breaker_trips"] == 1
        assert counters["jobs_quarantined"] == 2
        quarantined = service.submit(spec)
        assert quarantined.error["kind"] == "internal"
        assert spec.program_hash in quarantined.error["message"]

    def test_healthy_programs_unaffected_by_open_breaker(self):
        service = _service(isolation=False, breaker_threshold=1)
        service.submit(JobSpec(source=wild_jump_source(), core=None))
        healthy = service.submit(JobSpec(source=clean_source(6), core=None))
        assert healthy.state is JobState.COMPLETED


class TestCache:
    def test_resubmission_hits(self):
        service = _service(isolation=False)
        spec = JobSpec(source=clean_source(7), core=None, name="cached")
        first = service.submit(spec)
        second = service.submit(spec)
        assert not first.cache_hit
        assert second.cache_hit
        assert second.metrics == first.metrics
        assert service.counters()["cache_hits"] == 1

    def test_duplicates_inside_one_batch_hit(self):
        service = _service(isolation=False)
        spec = JobSpec(source=clean_source(8), core=None)
        first, second = service.run([spec, spec])
        assert not first.cache_hit
        assert second.cache_hit

    def test_different_config_misses(self):
        service = _service(isolation=False)
        a = JobSpec(source=clean_source(9), core=None, max_insts=1000)
        b = JobSpec(source=clean_source(9), core=None, max_insts=2000)
        service.submit(a)
        assert not service.submit(b).cache_hit

    def test_failures_are_not_cached(self):
        service = _service(isolation=False)
        spec = JobSpec(source=wild_jump_source(), core=None)
        service.submit(spec)
        assert not service.submit(spec).cache_hit


class TestDegradation:
    def test_fast_fault_falls_back_to_precise(self):
        result = _service(isolation=False).submit(
            JobSpec(source=clean_source(10), core="xt910",
                    chaos={"fast_fault": True}))
        assert result.state is JobState.COMPLETED
        assert result.downgraded
        assert "fast-path fault" in result.downgrade_reason

    def test_divergence_falls_back_to_precise(self):
        result = _service(isolation=False).submit(
            JobSpec(source=clean_source(11), core="xt910",
                    chaos={"divergence": True}))
        assert result.state is JobState.COMPLETED
        assert result.downgraded
        assert "divergence" in result.downgrade_reason

    def test_fallback_is_bit_identical_to_direct_precise_run(self):
        # The degraded result must carry exactly the statistics a
        # direct precise-mode run of the same program produces.
        spec = JobSpec(source=clean_source(12), core="xt910",
                       chaos={"fast_fault": True})
        degraded = _service(isolation=False).submit(spec)
        assert degraded.downgraded
        program = assemble(spec.source, compress=spec.compress)
        direct = run_on_core(program, "xt910", tier=1,
                             max_insts=spec.max_insts)
        assert degraded.metrics["stats"] == direct.stats.as_comparable()

    def test_fast_mode_does_not_fall_back(self):
        result = _service(isolation=False).submit(
            JobSpec(source=clean_source(13), core="xt910", mode="fast",
                    chaos={"fast_fault": True}))
        assert result.state is JobState.FAILED
        assert not result.downgraded


def _open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def _submit_some(service: JobService, count: int, base: int) -> None:
    for i in range(count):
        result = service.submit(
            JobSpec(source=clean_source(base + i), core=None))
        assert result.state is JobState.COMPLETED


class TestPoolLifetime:
    """One pool per service; nothing left behind after ``close()``."""

    def test_close_leaves_no_child_and_no_descriptor(self):
        with _service(workers=1) as warm:       # multiprocessing warm-up
            _submit_some(warm, 1, base=30)
        baseline = _open_fds()
        with _service(workers=1) as service:
            pool = service._pool
            _submit_some(service, 4, base=31)
            assert service._pool is pool
        counters = service.counters()
        assert counters["workers_launched"] == 1    # one worker, reused
        assert counters["workers_retired"] == 0
        assert multiprocessing.active_children() == []
        assert _open_fds() == baseline

    def test_dropped_service_leaves_nothing_behind(self):
        # No close(): the last job's child is still exiting when the
        # service goes away, and finishes on its own.
        with _service(workers=1) as warm:
            _submit_some(warm, 1, base=35)
        baseline = _open_fds()
        service = _service(workers=1)
        _submit_some(service, 2, base=36)
        del service
        gc.collect()
        patience = time.monotonic() + 5.0
        while multiprocessing.active_children() \
                and time.monotonic() < patience:
            time.sleep(0.01)
        assert multiprocessing.active_children() == []
        assert _open_fds() == baseline

    def test_pool_survives_an_exception_out_of_a_batch(self, monkeypatch):
        with _service(workers=1) as service:
            def interrupted(*args, **kwargs):
                raise KeyboardInterrupt
            monkeypatch.setattr(service, "_absorb", interrupted)
            try:
                service.submit(JobSpec(source=clean_source(40), core=None))
            except KeyboardInterrupt:
                pass
            assert multiprocessing.active_children() == []
            monkeypatch.undo()
            _submit_some(service, 1, base=41)

    def test_an_internal_error_retires_its_worker(self):
        with _service(workers=1) as service:
            _submit_some(service, 1, base=43)
            [before] = [entry.process.pid for entry in service._pool._idle]
            result = service.submit(
                JobSpec(source=clean_source(44), core=None,
                        chaos={"error_attempts": [1]}))
            assert result.state is JobState.COMPLETED
            assert result.attempts == 2
            [after] = [entry.process.pid for entry in service._pool._idle]
            counters = service.counters()
        assert after != before
        assert counters["workers_launched"] == 2
        assert counters["workers_retired"] == 1

    def test_latency_window_is_bounded(self):
        service = _service(isolation=False)
        assert service.latencies_s.maxlen == 4096
        service.latencies_s.extend([9.0] * 5000)
        service.submit(JobSpec(source=clean_source(42), core=None))
        assert len(service.latencies_s) == 4096
        assert service.counters()["latency_p50_ms"] == 9000.0


class TestWorkerReuse:
    def test_a_reused_worker_gives_a_fresh_workers_result(self):
        # The fifth task of one worker, after a timed, a functional, a
        # guest-fault and a vector job, must answer exactly as a
        # worker that never ran anything else.
        vector = vec_strcmp()
        earlier = [
            JobSpec(source=clean_source(50), core="xt910", name="timed"),
            JobSpec(source=clean_source(51), core=None, name="functional"),
            JobSpec(source=wild_jump_source(), core=None, name="fault"),
            JobSpec(source=vector.source, compress=vector.compress,
                    core=None, name="vector"),
        ]
        axpy = vec_axpy_f32()
        fixed = JobSpec(source=axpy.source, compress=axpy.compress,
                        core="xt910", name="fixed")

        def answers(specs):
            with WorkerPool(1, execute_job) as pool:
                for index, spec in enumerate(specs):
                    pool.submit(index, {"spec": spec.to_dict(),
                                        "attempt": 1})
                outcomes = dict(pool.drain())
                assert pool.launched == 1
            results = [JobResult.from_dict(outcomes[index].value)
                       for index in range(len(specs))]
            payloads = [result.to_dict() for result in results]
            for payload in payloads:
                payload.pop("duration_s")
            return [result.state for result in results], payloads

        states, reused = answers(earlier + [fixed])
        assert states == [JobState.COMPLETED, JobState.COMPLETED,
                          JobState.FAILED, JobState.COMPLETED,
                          JobState.COMPLETED]
        _, [fresh] = answers([fixed])
        assert reused[-1] == fresh


class TestInvariants:
    def test_no_silent_loss_on_a_mixed_batch(self):
        service = _service(workers=2)
        specs = [
            JobSpec(source=clean_source(20), core=None, name="ok"),
            JobSpec(source=wild_jump_source(), core=None, name="bad"),
            JobSpec(source=clean_source(21), core=None, name="crashy",
                    chaos={"crash_attempts": [1]}),
            JobSpec(source="this is not assembly", core=None, name="junk"),
        ]
        results = service.run(specs)
        assert len(results) == len(specs)
        assert all(r.terminal for r in results)
        assert [r.name for r in results] == ["ok", "bad", "crashy", "junk"]
        for r in results:
            payload = json.dumps(r.to_dict())   # always serializable
            assert json.loads(payload)["state"] == r.state.value

    def test_counters_walk_into_the_metrics_registry(self):
        service = _service(isolation=False)
        service.submit(JobSpec(source=clean_source(22), core=None))
        registry = collect_service(service)
        assert registry["service.jobs_completed"] == 1
        assert "service.latency_p50_ms" in registry
        assert registry["service.workers_launched"] == 0
        assert registry["service.workers_retired"] == 0
