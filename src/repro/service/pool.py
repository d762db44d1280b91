"""Crash-isolated worker pool with wall-clock reaping.

The pool runs every task in a **single-shot child process**: the task
function executes once, ships its result (or serialized exception)
back over a dedicated pipe, and the process exits.  Compared to a
persistent-worker executor this trades a ``fork()`` per task for three
robustness properties the service core is built on:

* **containment** — a task that segfaults, ``os._exit``\\ s, or is
  OOM-killed takes down exactly one process; sibling tasks and the
  supervisor never see more than a closed pipe,
* **reapability** — a hung task is removed with ``SIGKILL``.  Because
  each result travels over its own pipe there is no shared queue whose
  internal lock a killed worker could be holding — the classic way
  ``multiprocessing.Queue``-based pools deadlock or lose results,
* **attribution** — the supervisor always knows which task a dead
  process was running, so a crash becomes a *classified outcome for
  that task* instead of a pool-wide ``BrokenProcessPool``.

The supervisor never raises for task-level problems: every submitted
task produces exactly one :class:`TaskOutcome` whose ``status`` is
``ok``, ``error`` (the function raised; serialized exception payload),
``crash`` (process died) or ``timeout`` (deadline exceeded, SIGKILLed).

A child's life is **running → exiting → reaped**.  A child that has
reported is *exiting*: its outcome is returned at once and the process
is reaped by a later pool call without blocking (SIGKILLed if still
alive ``_EXIT_GRACE_S`` later), so the pool may live as long as its
owner and a slow exit holds up nobody.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Hashable, cast

from .errors import ServiceError

#: traceback tail kept in serialized error payloads
_TRACEBACK_LIMIT = 20

#: how long a worker that has reported may take to exit before SIGKILL
_EXIT_GRACE_S = 5.0


@dataclass
class TaskOutcome:
    """What happened to one submitted task."""

    status: str                       # "ok" | "error" | "crash" | "timeout"
    value: Any = None                 # result ("ok") or error payload dict
    exitcode: int | None = None       # child exit code for crash outcomes
    duration_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class _Running:
    key: Hashable
    process: Any                      # multiprocessing.Process; None = reaped
    conn: multiprocessing.connection.Connection
    started: float
    #: running: the task's wall-clock deadline; exiting: the SIGKILL time
    deadline: float | None


@dataclass
class _Queued:
    key: Hashable
    payload: Any
    timeout: float | None


def serialize_exception(exc: BaseException) -> dict[str, Any]:
    """JSON-safe payload for an exception crossing the process pipe.

    :class:`ServiceError` serializes its full taxonomy form (kind,
    detail, cause chain); anything else keeps its type name, message
    and a traceback tail for post-mortems.
    """
    if isinstance(exc, ServiceError):
        return exc.to_dict()
    return {
        "kind": "external",
        "type": type(exc).__name__,
        "message": str(exc),
        "traceback": traceback.format_exception(
            type(exc), exc, exc.__traceback__, limit=_TRACEBACK_LIMIT),
    }


def _task_main(conn: multiprocessing.connection.Connection,
               fn: Callable[[Any], Any], payload: Any) -> None:
    """Child entry point: run the task, ship one message, exit."""
    try:
        result = fn(payload)
    except BaseException as exc:  # noqa: B036 - the pipe IS the handler
        try:
            conn.send(("error", serialize_exception(exc)))
        except Exception:
            os._exit(81)          # unpicklable error payload: crash outcome
    else:
        try:
            conn.send(("ok", result))
        except Exception:
            os._exit(82)          # unpicklable result: crash outcome
    finally:
        conn.close()


class WorkerPool:
    """Bounded-concurrency supervisor over single-shot task processes.

    Use as a context manager.  ``submit`` queues work; ``wait`` blocks
    until at least one outcome is available (launching queued tasks as
    slots free up); ``drain`` collects everything outstanding.  The
    pool may live as long as its owner: between tasks it holds nothing
    but children on their way out.
    """

    def __init__(self, workers: int,
                 fn: Callable[[Any], Any],
                 start_method: str | None = None,
                 poll_interval_s: float = 0.02) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.fn = fn
        self._ctx = (multiprocessing.get_context(start_method)
                     if start_method else multiprocessing.get_context())
        self._poll = poll_interval_s
        self._queue: deque[_Queued] = deque()
        self._running: list[_Running] = []
        self._exiting: list[_Running] = []
        self._outcomes: list[tuple[Hashable, TaskOutcome]] = []
        self.launched = 0
        self.crashes = 0
        self.timeouts = 0

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """SIGKILL every child, running or exiting, and drop queued
        work and uncollected outcomes.  The pool stays usable.

        Safe after an exception out of ``_step``: an entry that pass
        had already resolved may still be listed as running.
        """
        entries = self._running + self._exiting
        self._running, self._exiting = [], []
        self._queue.clear()
        self._outcomes.clear()
        for entry in entries:
            self._bury(entry)

    @staticmethod
    def _bury(entry: _Running, grace_s: float = 0.0) -> int | None:
        """Reap one child — SIGKILLed if it is still alive ``grace_s``
        from now — and release its descriptors; returns its exit code
        (None for an entry that was already reaped)."""
        process, entry.process = entry.process, None
        if process is None:
            return None
        if grace_s:
            process.join(grace_s)
        if process.is_alive():
            process.kill()
        process.join()
        exitcode: int | None = process.exitcode
        process.close()
        entry.conn.close()
        return exitcode

    def _reap_exited(self, now: float) -> None:
        """Reap reported workers that have exited, without blocking;
        one that is still alive past its grace is SIGKILLed."""
        still_exiting: list[_Running] = []
        for entry in self._exiting:
            if entry.process.is_alive() \
                    and now < cast(float, entry.deadline):
                still_exiting.append(entry)
            else:
                self._bury(entry)
        self._exiting = still_exiting

    # -- submission ---------------------------------------------------------

    def submit(self, key: Hashable, payload: Any,
               timeout: float | None = None) -> None:
        """Queue one task; ``timeout`` is its wall-clock budget."""
        self._queue.append(_Queued(key, payload, timeout))
        self._launch_ready()

    @property
    def outstanding(self) -> int:
        """Tasks submitted but not yet resolved to an outcome."""
        return len(self._queue) + len(self._running)

    def _launch_ready(self) -> None:
        if self._exiting:
            self._reap_exited(time.monotonic())
        while self._queue and len(self._running) < self.workers:
            task = self._queue.popleft()
            parent, child = self._ctx.Pipe(duplex=False)
            process = self._ctx.Process(
                target=_task_main, args=(child, self.fn, task.payload),
                daemon=True)
            process.start()
            child.close()
            now = time.monotonic()
            deadline = now + task.timeout if task.timeout is not None \
                else None
            self._running.append(_Running(task.key, process, parent,
                                          now, deadline))
            self.launched += 1

    # -- collection ---------------------------------------------------------

    def wait(self, timeout: float | None = None) \
            -> list[tuple[Hashable, TaskOutcome]]:
        """Block until at least one outcome is ready (or ``timeout``).

        Returns every outcome that resolved, in completion order.
        """
        start = time.monotonic()
        while not self._outcomes and self.outstanding:
            self._launch_ready()
            self._step()
            if self._outcomes:
                break
            if timeout is not None \
                    and time.monotonic() - start >= timeout:
                break
        ready = self._outcomes
        self._outcomes = []
        return ready

    def drain(self) -> list[tuple[Hashable, TaskOutcome]]:
        """Run everything to completion; returns all pending outcomes."""
        collected: list[tuple[Hashable, TaskOutcome]] = []
        while self.outstanding:
            collected.extend(self.wait())
        collected.extend(self._outcomes)
        self._outcomes = []
        return collected

    def _step(self) -> None:
        """One supervision quantum: results, corpses, deadlines."""
        if not self._running:
            return
        conns = [entry.conn for entry in self._running]
        ready = multiprocessing.connection.wait(conns, timeout=self._poll)
        now = time.monotonic()
        still_running: list[_Running] = []
        for entry in self._running:
            outcome: TaskOutcome | None = None
            if entry.conn in ready:
                outcome = self._collect(entry, now)
            elif not entry.process.is_alive():
                outcome = self._reap_crash(entry, now)
            elif entry.deadline is not None and now >= entry.deadline:
                outcome = self._reap_timeout(entry, now)
            if outcome is None:
                still_running.append(entry)
            else:
                self._outcomes.append((entry.key, outcome))
        self._running = still_running

    def _collect(self, entry: _Running, now: float) -> TaskOutcome:
        """The task's pipe is readable: a result, or EOF from a corpse."""
        duration = now - entry.started
        try:
            status, value = entry.conn.recv()
        except (EOFError, OSError):
            return self._finish_crash(entry, duration)
        # The outcome does not wait for the process to finish exiting,
        # so a worker that reported but wedged on the way out holds up
        # neither its own result nor its siblings' supervision.
        entry.deadline = now + _EXIT_GRACE_S
        self._exiting.append(entry)
        return TaskOutcome(status=status, value=value, duration_s=duration)

    def _reap_crash(self, entry: _Running, now: float) -> TaskOutcome:
        """Process died; its last words may still be in the pipe.

        A worker can send its result and exit between the connection
        wait and the aliveness check — that is a completion, not a
        crash, so the pipe is always drained first.  ``_collect``'s
        ``recv`` turns a truly empty pipe (EOF) into the crash outcome.
        """
        if entry.conn.poll(0):
            return self._collect(entry, now)
        return self._finish_crash(entry, now - entry.started)

    def _finish_crash(self, entry: _Running, duration: float) -> TaskOutcome:
        self.crashes += 1
        # EOF can arrive a moment before the exit status does: wait for
        # the child's own code rather than record our SIGKILL.
        return TaskOutcome(status="crash",
                           exitcode=self._bury(entry, grace_s=1.0),
                           duration_s=duration)

    def _reap_timeout(self, entry: _Running, now: float) -> TaskOutcome:
        """Deadline exceeded: SIGKILL the worker, classify as timeout.

        A worker that slipped its result in just before the kill still
        counts as completed — the pipe is checked one final time.
        """
        if entry.conn.poll(0):
            return self._collect(entry, now)
        self._bury(entry)
        self.timeouts += 1
        return TaskOutcome(status="timeout", duration_s=now - entry.started)


def run_tasks(fn: Callable[[Any], Any], payloads: list[Any],
              workers: int, timeout: float | None = None) \
        -> list[TaskOutcome]:
    """Convenience: run ``fn`` over ``payloads``, input-order outcomes."""
    outcomes: dict[int, TaskOutcome] = {}
    with WorkerPool(workers, fn) as pool:
        for index, payload in enumerate(payloads):
            pool.submit(index, payload, timeout=timeout)
        for key, outcome in pool.drain():
            outcomes[cast(int, key)] = outcome
    return [outcomes[i] for i in range(len(payloads))]


__all__ = ["WorkerPool", "TaskOutcome", "run_tasks", "serialize_exception"]
