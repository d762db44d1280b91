"""Service throughput benchmark (``python -m repro bench --service``).

Drives a healthy mixed load (functional + timed jobs, unique program
hashes so the result cache cannot shortcut the measurement) through a
fully-isolated :class:`~repro.service.core.JobService` and records
calibrated jobs/sec (:func:`~repro.harness.benchkit.best_of`) plus the
raw end-to-end latency percentiles to ``BENCH_service.json``.

The committed JSON doubles as the CI regression baseline, like every
``benchkit`` bench: the bench job re-runs the quick profile and fails
when throughput drops more than the tolerance below the checked-in
number.  The jobs are tiny, so the pipe round trip and the
supervisor's polling weigh heavily and vary widely across hosts; the
default tolerance is looser than the layer benches'.  Worker reuse
is gated exactly instead: a healthy load forks one worker per slot.
"""

from __future__ import annotations

from typing import Any

from ..harness import benchkit
from .chaos import clean_source
from .core import JobService, default_workers
from .job import JobSpec, JobState


def _load(jobs: int, timed_every: int = 4) -> list[JobSpec]:
    """A healthy mixed batch with *jobs* unique program hashes."""
    specs = []
    for index in range(jobs):
        timed = index % timed_every == 0
        specs.append(JobSpec(
            source=clean_source(index),
            name=f"bench-{'timed' if timed else 'functional'}-{index}",
            core="xt910" if timed else None))
    return specs


def run(quick: bool = True, jobs: int | None = None,
        workers: int | None = None) -> dict[str, Any]:
    """Benchmark the service; returns the BENCH_service.json body."""
    count = jobs if jobs is not None else (32 if quick else 128)
    width = workers if workers is not None else default_workers()
    specs = _load(count)
    with JobService(workers=width) as service:
        (wall_s,), results = benchkit.best_of(
            1, lambda timed: timed(service.run, specs))
        counters = service.counters()
    completed = sum(1 for r in results if r.state is JobState.COMPLETED)
    return {
        "jobs": count,
        "workers": width,
        "completed": completed,
        "jobs_per_s": round(count / wall_s, 3),
        "latency_p50_ms": counters["latency_p50_ms"],
        "latency_p99_ms": counters["latency_p99_ms"],
        "workers_launched": counters["workers_launched"],
        "retries": counters["retries"],
    }


def invariants(payload: dict[str, Any],
               baseline: dict[str, Any]) -> list[str]:
    """Every job must complete, and a healthy load must fork one
    worker per slot and reuse it: exact floors, no tolerance."""
    problems = []
    if payload["completed"] != payload["jobs"]:
        problems.append(f"service bench lost jobs: {payload['completed']} "
                        f"completed of {payload['jobs']}")
    slots = min(payload["workers"], payload["jobs"])
    if payload["workers_launched"] != slots:
        problems.append(f"service bench forked "
                        f"{payload['workers_launched']} workers for "
                        f"{slots} slots: healthy workers must be reused")
    return problems


def render(payload: dict[str, Any]) -> str:
    """Terminal table for the service bench payload."""
    lines = [
        f"service bench: {payload['jobs']} jobs on "
        f"{payload['workers']} workers "
        f"({'quick' if payload['quick'] else 'full'} profile)",
        f"{'completed':16s}{payload['completed']:>10}",
        f"{'throughput':16s}{payload['jobs_per_s']:>10.3f}  jobs/s "
        f"(calibrated)",
        f"{'latency p50':16s}{payload['latency_p50_ms']:>10.3f}  ms",
        f"{'latency p99':16s}{payload['latency_p99_ms']:>10.3f}  ms",
        f"{'workers launched':16s}{payload['workers_launched']:>10}",
    ]
    lines.append("(end-to-end submit-to-terminal latency; every job runs "
                 "in a reapable worker process, reused while its jobs "
                 "end ok)")
    return "\n".join(lines)


BENCH = benchkit.Bench(
    name="service", run=run, render=render, floors=("jobs_per_s",),
    tolerance=0.50, invariants=invariants)

__all__ = ["BENCH", "invariants", "render", "run"]
