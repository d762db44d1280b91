"""The fault-tolerant job service: submit specs, get terminal results.

:class:`JobService` wraps the whole existing stack — analyzer/sanitizer
vetting, blockcache/fast-path execution, the timing model, the metrics
surface — behind one supervisor with a full robustness envelope:

* a **content-addressed result store** in front of the pool
  (:mod:`repro.service.store`), so retries, repeat submissions and
  sweep cells of identical work are free,
* a **circuit breaker** per program hash, so a toxic program stops
  burning worker slots after N consecutive terminal failures,
* **crash-isolated execution** on :class:`~repro.service.pool.
  WorkerPool` — a worker that dies or wedges is reaped and classified,
  never propagated; a healthy worker takes job after job, and any
  other outcome retires it, so a job that raised never shares a
  process with the next one,
* **retry with exponential backoff + jitter** for the transient
  failure classes (worker crash, wall-clock timeout, internal worker
  error), seeded so campaigns replay deterministically,
* the **degradation ladder** inside the worker (fast → precise) for
  fast-path faults and divergence.

The service-level invariant, proven by :mod:`repro.service.chaos` and
gated in CI: *every submitted job terminates in exactly one definitive
terminal state, with a structured, serializable error chain when it
did not complete* — no job is ever silently lost.
"""

from __future__ import annotations

import heapq
import os
import random
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Sequence, cast

from .errors import ServiceError, WatchdogTimeout, WorkerCrash
from .job import JobResult, JobSpec, JobState
from .pool import TaskOutcome, WorkerPool, serialize_exception
from .retry import CircuitBreaker, RetryPolicy
from .store import ResultStore, storable
from .worker import execute_job


def default_workers() -> int:
    """A sensible pool width for this machine."""
    return max(1, min(8, os.cpu_count() or 1))


@dataclass
class _Batch:
    """Per-job state of one ``run()``; every list parallels ``specs``."""

    specs: Sequence[JobSpec]
    #: store key per job, computed once (None: the core did not resolve)
    keys: list[str | None]
    results: list[JobResult | None]
    started: list[float]
    #: heap of (ready_time, index, attempt) — jobs awaiting (re)launch
    ready: list[tuple[float, int, int]]


class JobService:
    """Supervisor for batches of simulation jobs.

    ``store`` is the result store in front of the pool; the default is
    a private in-memory :class:`ResultStore`, and passing one rooted
    on disk shares results across services, sweeps and processes.
    ``isolation=False`` runs jobs inline in this process — no crash
    containment and no wall-clock reaping (chaos crash/hang plans
    would take this process with them), but single-stepping a job
    under pdb works.  The default is full process isolation, on one
    :class:`WorkerPool` that lives as long as the service and reuses
    its workers across jobs and batches: use the service as a context
    manager (or call :meth:`close`) to reap its idle workers at once
    rather than when the service is collected or at interpreter exit.
    """

    def __init__(self, *, workers: int | None = None,
                 retry: RetryPolicy | None = None,
                 breaker_threshold: int = 3,
                 store: ResultStore | None = None,
                 seed: int = 2020,
                 isolation: bool = True,
                 start_method: str | None = None) -> None:
        self.workers = workers if workers is not None else default_workers()
        self.retry = retry if retry is not None else RetryPolicy()
        self.breaker = CircuitBreaker(breaker_threshold)
        self.store = store if store is not None else ResultStore()
        self.isolation = isolation
        self._pool = WorkerPool(self.workers, execute_job,
                                start_method=start_method) \
            if isolation else None
        self._rng = random.Random(seed)
        self._job_seq = 0
        #: terminal latencies of the most recent jobs (bounded window)
        self.latencies_s: deque[float] = deque(maxlen=4096)
        self._counts: dict[str, int] = {
            "jobs_submitted": 0, "jobs_completed": 0, "jobs_degraded": 0,
            "jobs_timeout": 0, "jobs_failed": 0, "jobs_rejected": 0,
            "jobs_quarantined": 0, "retries": 0, "fallbacks": 0,
            "worker_crashes": 0, "wall_timeouts": 0, "internal_errors": 0,
        }

    def close(self) -> None:
        """Release the pool's children; the service stays usable."""
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "JobService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- public API ---------------------------------------------------------

    def submit(self, spec: JobSpec) -> JobResult:
        """Run one job to its terminal state."""
        return self.run([spec])[0]

    def run(self, specs: Sequence[JobSpec]) -> list[JobResult]:
        """Run a batch; the result list parallels the input order.

        Every entry is terminal on return — the method does not raise
        for job-level problems of any kind.
        """
        if not specs:
            return []
        self._counts["jobs_submitted"] += len(specs)
        now = time.monotonic()
        batch = _Batch(
            specs=specs, keys=[self._key(spec) for spec in specs],
            results=[None] * len(specs), started=[now] * len(specs),
            ready=[(now, index, 1) for index in range(len(specs))])
        if self._pool is not None:
            self._run_pooled(batch, self._pool)
        else:
            self._run_inline(batch)
        done = [result for result in batch.results if result is not None]
        assert len(done) == len(specs)  # the no-silent-loss invariant
        return done

    # -- supervision --------------------------------------------------------

    def _run_pooled(self, batch: _Batch, pool: WorkerPool) -> None:
        ready = batch.ready
        try:
            while ready or pool.outstanding:
                now = time.monotonic()
                while ready and ready[0][0] <= now:
                    _, index, attempt = heapq.heappop(ready)
                    if not self._settled(batch, index, attempt):
                        spec = batch.specs[index]
                        pool.submit((index, attempt),
                                    {"spec": spec.to_dict(),
                                     "attempt": attempt},
                                    timeout=spec.wall_timeout_s)
                if pool.outstanding:
                    next_ready = ready[0][0] - now if ready else None
                    for key, outcome in pool.wait(timeout=next_ready):
                        index, attempt = cast(tuple[int, int], key)
                        self._absorb(batch, index, attempt, outcome)
                elif ready:
                    time.sleep(max(0.0, min(ready[0][0] - now, 0.05)))
        except BaseException:
            pool.close()              # kill what this batch left running
            raise

    def _run_inline(self, batch: _Batch) -> None:
        while batch.ready:
            ready_time, index, attempt = heapq.heappop(batch.ready)
            time.sleep(max(0.0, ready_time - time.monotonic()))
            if self._settled(batch, index, attempt):
                continue
            payload = {"spec": batch.specs[index].to_dict(),
                       "attempt": attempt}
            try:
                outcome = TaskOutcome(status="ok",
                                      value=execute_job(payload))
            except Exception as exc:
                outcome = TaskOutcome(status="error",
                                      value=serialize_exception(exc))
            self._absorb(batch, index, attempt, outcome)

    def _settled(self, batch: _Batch, index: int, attempt: int) -> bool:
        """Finalize a job that needs no worker: its breaker is open, or
        (first attempt) the store already holds its result.  Checked at
        launch time, not submit time — the breaker may have opened, and
        a duplicate earlier in the batch may have stored the answer,
        while this job sat in the queue."""
        spec = batch.specs[index]
        if self.breaker.is_open(spec.program_hash):
            self._finalize(batch, index, self._quarantined(spec))
            return True
        key = batch.keys[index]
        if attempt == 1 and key is not None:
            stored = self.store.get(key)
            if stored is not None:
                stored.name = spec.name
                self._finalize(batch, index, stored, from_store=True)
                return True
        return False

    def _absorb(self, batch: _Batch, index: int, attempt: int,
                outcome: TaskOutcome) -> None:
        """Fold one pool outcome into a terminal result or a retry."""
        spec = batch.specs[index]
        if outcome.status == "ok":
            result = JobResult.from_dict(outcome.value)
            result.attempts = attempt
            error = result.error
            retryable = bool(error and error.get("retryable"))
        else:
            error_obj = self._supervisor_error(outcome, attempt)
            result = JobResult(
                name=spec.name,
                state=(JobState.TIMEOUT
                       if isinstance(error_obj, WatchdogTimeout)
                       else JobState.FAILED),
                attempts=attempt, error=error_obj.to_dict(),
                program_hash=spec.program_hash)
            retryable = error_obj.retryable
        if retryable and not self.retry.exhausted(attempt) \
                and not self.breaker.is_open(spec.program_hash):
            self._counts["retries"] += 1
            delay = self.retry.delay(attempt, self._rng)
            heapq.heappush(batch.ready,
                           (time.monotonic() + delay, index, attempt + 1))
            return
        self._finalize(batch, index, result)

    def _supervisor_error(self, outcome: TaskOutcome,
                          attempt: int) -> ServiceError:
        """Classify an outcome the worker could not report itself."""
        if outcome.status == "crash":
            self._counts["worker_crashes"] += 1
            return WorkerCrash(
                f"worker process died (exit code {outcome.exitcode}) "
                f"on attempt {attempt}",
                detail={"exitcode": outcome.exitcode,
                        "attempt": attempt})
        if outcome.status == "timeout":
            self._counts["wall_timeouts"] += 1
            return WatchdogTimeout(
                f"wall-clock watchdog: worker exceeded its deadline "
                f"({outcome.duration_s:.2f}s) on attempt {attempt}",
                detail={"watchdog": "wall-clock",
                        "duration_s": round(outcome.duration_s, 3),
                        "attempt": attempt},
                retryable=True)
        # "error": the worker raised outside the job's own containment.
        self._counts["internal_errors"] += 1
        payload = outcome.value if isinstance(outcome.value, dict) else {}
        message = payload.get("message", "worker exception")
        error = ServiceError(
            f"internal worker error on attempt {attempt}: "
            f"{payload.get('type', 'Exception')}: {message}",
            detail={"attempt": attempt}, retryable=True)
        return error

    # -- bookkeeping --------------------------------------------------------

    def _quarantined(self, spec: JobSpec) -> JobResult:
        error = ServiceError(
            f"circuit breaker open for program {spec.program_hash}: "
            f"{self.breaker.threshold} consecutive failures",
            detail={"program_hash": spec.program_hash},
            retryable=False)
        return JobResult(name=spec.name, state=JobState.QUARANTINED,
                         error=error.to_dict(), attempts=0,
                         program_hash=spec.program_hash)

    @staticmethod
    def _key(spec: JobSpec) -> str | None:
        """The spec's store key, or None when its core does not resolve
        (invalid document, unreadable path): such a job bypasses the
        store and the worker's admission reports the problem, so
        ``run`` stays total over hostile specs."""
        try:
            return spec.key()
        except Exception:
            return None

    def _finalize(self, batch: _Batch, index: int, result: JobResult,
                  from_store: bool = False) -> None:
        self._job_seq += 1
        result.job_id = self._job_seq
        result.duration_s = round(
            time.monotonic() - batch.started[index], 6)
        batch.results[index] = result
        self.latencies_s.append(result.duration_s)
        state_counter = {
            JobState.COMPLETED: "jobs_completed",
            JobState.TIMEOUT: "jobs_timeout",
            JobState.FAILED: "jobs_failed",
            JobState.REJECTED: "jobs_rejected",
            JobState.QUARANTINED: "jobs_quarantined",
        }[result.state]
        self._counts[state_counter] += 1
        if result.downgraded:
            self._counts["jobs_degraded"] += 1
            self._counts["fallbacks"] += 1
        if from_store:
            return
        program_hash = batch.specs[index].program_hash
        key = batch.keys[index]
        if storable(result):
            # An instruction-budget expiry that returned data is an
            # answer, not a failure: a budgeted sweep of one program
            # over many configs must not quarantine itself.
            self.breaker.record_success(program_hash)
            if key is not None:
                self.store.put(key, result)
        elif result.state is not JobState.QUARANTINED:
            self.breaker.record_failure(program_hash)

    # -- metrics ------------------------------------------------------------

    def counters(self) -> dict[str, Any]:
        """Service-namespace counter snapshot (ints/floats only)."""
        counters: dict[str, Any] = dict(self._counts)
        pool = self._pool
        counters["workers_launched"] = pool.launched if pool else 0
        counters["workers_retired"] = pool.retired if pool else 0
        counters["breaker_trips"] = self.breaker.trips
        counters["breaker_open"] = len(self.breaker.open_keys)
        for name, value in self.store.counters().items():
            counters[f"cache_{name}"] = value
        lat = sorted(self.latencies_s)
        counters["latency_p50_ms"] = round(_percentile(lat, 50.0) * 1e3, 3)
        counters["latency_p99_ms"] = round(_percentile(lat, 99.0) * 1e3, 3)
        return counters


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile over an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(1, int(-(-q * len(sorted_values) // 100)))  # ceil
    return sorted_values[min(rank, len(sorted_values)) - 1]


__all__ = ["JobService", "default_workers"]
