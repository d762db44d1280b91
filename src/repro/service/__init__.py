"""Hardened simulation job service.

The fault-tolerance layer over the emulator + timing-model stack:
crash-isolated worker processes, wall-clock and instruction watchdogs,
retry with backoff + jitter, a per-program circuit breaker, one
content-addressed result store (shared with explore sweeps, whose
cells are jobs), and the tier3→fast→precise degradation ladder.  The chaos harness (:mod:`repro.service.chaos`) proves the
core invariant — every submitted job terminates in a definitive state
with no silent loss — and CI gates it at zero.
"""

from __future__ import annotations

from .core import JobService, default_workers
from .errors import (
    DivergenceDetected,
    GuestFault,
    ResourceExhausted,
    ServiceError,
    WatchdogTimeout,
    WorkerCrash,
    error_from_dict,
)
from .job import TERMINAL_STATES, JobResult, JobSpec, JobState
from .pool import TaskOutcome, WorkerPool, run_tasks
from .retry import CircuitBreaker, RetryPolicy
from .store import ResultStore

__all__ = [
    "CircuitBreaker",
    "DivergenceDetected",
    "GuestFault",
    "JobResult",
    "JobService",
    "JobSpec",
    "JobState",
    "ResourceExhausted",
    "ResultStore",
    "RetryPolicy",
    "ServiceError",
    "TERMINAL_STATES",
    "TaskOutcome",
    "WatchdogTimeout",
    "WorkerCrash",
    "WorkerPool",
    "default_workers",
    "error_from_dict",
    "run_tasks",
]
