"""Crash-isolated worker pool with wall-clock reaping.

The pool runs tasks on **reusable child processes**, each with its own
duplex pipe: a worker receives a payload, runs the task function,
ships the result (or serialized exception) back, and waits for the
next one.  Compared to an in-process executor this keeps three
robustness properties the service core is built on:

* **containment** — a task that segfaults, ``os._exit``\\ s, or is
  OOM-killed takes down exactly one process; sibling tasks and the
  supervisor never see more than a closed pipe,
* **reapability** — a hung task is removed with ``SIGKILL``.  Because
  each worker talks over its own pipe there is no shared queue whose
  internal lock a killed worker could be holding — the classic way
  ``multiprocessing.Queue``-based pools deadlock or lose results,
* **attribution** — the supervisor always knows which task a dead
  process was running, so a crash becomes a *classified outcome for
  that task* instead of a pool-wide ``BrokenProcessPool``.

The supervisor never raises for task-level problems: every submitted
task produces exactly one :class:`TaskOutcome` whose ``status`` is
``ok``, ``error`` (the function raised; serialized exception payload),
``crash`` (process died) or ``timeout`` (deadline exceeded, SIGKILLed).

A worker's life is **spawned → running ⇄ idle → exiting → reaped**.
It is forked only when a task is waiting, no worker is idle and fewer
than ``workers`` exist; nothing is pre-forked.  After an ``ok`` outcome
it goes idle and takes the next task, so fork, the child's
copy-on-write faults and teardown are paid once per worker, not once
per task.  Any other outcome retires it, so a task that raised never
shares a process with the next task: on ``error`` the child reports
and exits by itself (*exiting*: reaped by a later pool call without
blocking, SIGKILLed if still alive ``_EXIT_GRACE_S`` later), on
``crash`` it is already dead, on ``timeout`` it is SIGKILLed.  An idle
worker found dead is reaped and not given a task.  ``close()`` — or a
finalizer, when a pool is dropped without it — SIGKILLs and reaps
every worker: end-of-file cannot end one, because a forked worker
inherits the supervisor ends of its siblings' pipes.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import os
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass
from multiprocessing.reduction import ForkingPickler
from typing import Any, Callable, Hashable, cast

from .errors import ServiceError

#: traceback tail kept in serialized error payloads
_TRACEBACK_LIMIT = 20

#: how long a worker that has reported an error may take to exit
#: before SIGKILL
_EXIT_GRACE_S = 5.0

#: how often an idle worker checks that its supervisor is still alive
_ORPHAN_POLL_S = 1.0


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


@dataclass(eq=False)
class _Worker:
    process: Any                      # multiprocessing.Process; None = reaped
    conn: multiprocessing.connection.Connection
    key: Hashable = None              # the task it runs (or last ran)
    started: float = 0.0              # when that task was dispatched
    #: running: the task's wall-clock deadline; exiting: the SIGKILL time
    deadline: float | None = None


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


def _worker_main(conn: multiprocessing.connection.Connection,
                 fn: Callable[[Any], Any], supervisor: int) -> None:
    """Child entry point: receive a task, run it, ship one message;
    repeat until a task raises or the supervisor is gone."""
    while True:
        try:
            while not conn.poll(_ORPHAN_POLL_S):
                if os.getppid() != supervisor:
                    return        # orphaned: nobody will send or reap
            payload = conn.recv()
        except (EOFError, OSError, KeyboardInterrupt):
            return
        try:
            result = fn(payload)
        except BaseException as exc:  # noqa: B036 - the pipe IS the handler
            try:
                conn.send(("error", serialize_exception(exc)))
            except Exception:
                os._exit(81)      # unpicklable error payload: crash outcome
            return                # retire: the next task gets a new process
        try:
            conn.send(("ok", result))
        except Exception:
            os._exit(82)          # unpicklable result: crash outcome


def _bury(entry: _Worker, grace_s: float = 0.0) -> int | None:
    """Reap one worker — SIGKILLed if it is still alive ``grace_s``
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


def _bury_all(*groups: list[_Worker]) -> None:
    """Empty each worker list in place and reap every worker on it."""
    for group in groups:
        entries = group[:]
        group.clear()
        for entry in entries:
            _bury(entry)


class WorkerPool:
    """Bounded-concurrency supervisor over reusable task processes.

    Use as a context manager.  ``submit`` queues work; ``wait`` blocks
    until at least one outcome is available (dispatching queued tasks
    as workers free up); ``drain`` collects everything outstanding.
    The pool may live as long as its owner: between tasks it holds its
    idle workers and children on their way out.
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
        # The three worker lists are only ever mutated in place: the
        # finalizer holds them, not the pool.
        self._running: list[_Worker] = []
        self._idle: list[_Worker] = []
        self._exiting: list[_Worker] = []
        self._outcomes: list[tuple[Hashable, TaskOutcome]] = []
        self.launched = 0
        self.retired = 0
        self.crashes = 0
        self.timeouts = 0
        weakref.finalize(self, _bury_all, self._running, self._idle,
                         self._exiting)

    # -- lifecycle ----------------------------------------------------------

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """SIGKILL every worker, running, idle or exiting, and drop
        queued work and uncollected outcomes.  The pool stays usable.

        Safe after an exception out of ``_step``: a worker that pass
        had already resolved may still be listed as running too.
        """
        self._queue.clear()
        self._outcomes.clear()
        _bury_all(self._running, self._idle, self._exiting)

    def _reap_exited(self, now: float) -> None:
        """Reap retired workers that have exited, without blocking;
        one that is still alive past its grace is SIGKILLed."""
        still_exiting: list[_Worker] = []
        for entry in self._exiting:
            if entry.process.is_alive() \
                    and now < cast(float, entry.deadline):
                still_exiting.append(entry)
            else:
                _bury(entry)
        self._exiting[:] = still_exiting

    # -- submission ---------------------------------------------------------

    def submit(self, key: Hashable, payload: Any,
               timeout: float | None = None) -> None:
        """Queue one task; ``timeout`` is its wall-clock budget."""
        self._queue.append(_Queued(key, payload, timeout))
        self._assign()

    @property
    def outstanding(self) -> int:
        """Tasks submitted whose outcome has not been collected."""
        return len(self._queue) + len(self._running) + len(self._outcomes)

    def _assign(self) -> None:
        """Hand queued tasks to idle workers, forking one only when
        none is idle and fewer than ``workers`` exist."""
        if self._exiting:
            self._reap_exited(time.monotonic())
        while self._queue and len(self._running) < self.workers:
            task = self._queue.popleft()
            try:
                message = ForkingPickler.dumps(task.payload)
            except Exception as exc:
                self._outcomes.append((task.key, TaskOutcome(
                    status="error", value=serialize_exception(exc))))
                continue
            entry = self._take_idle() or self._spawn()
            try:
                entry.conn.send_bytes(message)
            except OSError:
                pass    # died after _take_idle looked: _step reports it
            now = time.monotonic()
            entry.key, entry.started = task.key, now
            entry.deadline = now + task.timeout \
                if task.timeout is not None else None
            self._running.append(entry)

    def _take_idle(self) -> _Worker | None:
        """An idle worker that is still alive; dead ones are reaped."""
        while self._idle:
            entry = self._idle.pop()
            if entry.process.is_alive() and not entry.conn.poll(0):
                return entry
            _bury(entry)
            self.retired += 1
        return None

    def _spawn(self) -> _Worker:
        parent, child = self._ctx.Pipe()
        process = self._ctx.Process(
            target=_worker_main, args=(child, self.fn, os.getpid()),
            daemon=True)
        process.start()
        child.close()
        self.launched += 1
        return _Worker(process, parent)

    # -- collection ---------------------------------------------------------

    def wait(self, timeout: float | None = None) \
            -> list[tuple[Hashable, TaskOutcome]]:
        """Block until at least one outcome is ready (or ``timeout``).

        Returns every outcome that resolved, in completion order.
        """
        start = time.monotonic()
        while not self._outcomes and self.outstanding:
            self._assign()
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
        return collected

    def _step(self) -> None:
        """One supervision quantum: results, corpses, deadlines."""
        if not self._running:
            return
        conns = [entry.conn for entry in self._running]
        ready = multiprocessing.connection.wait(conns, timeout=self._poll)
        now = time.monotonic()
        still_running: list[_Worker] = []
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
        self._running[:] = still_running

    def _collect(self, entry: _Worker, now: float) -> TaskOutcome:
        """The task's pipe is readable: a result, or EOF from a corpse."""
        duration = now - entry.started
        try:
            status, value = entry.conn.recv()
        except (EOFError, OSError):
            return self._finish_crash(entry, duration)
        if status == "ok":
            self._idle.append(entry)
        else:
            # The child exits by itself after an error.  The outcome
            # does not wait for that, so a worker that wedges on its
            # way out holds up neither its own result nor its
            # siblings' supervision.
            entry.deadline = now + _EXIT_GRACE_S
            self._exiting.append(entry)
            self.retired += 1
        return TaskOutcome(status=status, value=value, duration_s=duration)

    def _reap_crash(self, entry: _Worker, now: float) -> TaskOutcome:
        """Process died; its last words may still be in the pipe.

        A worker can send its result and die between the connection
        wait and the aliveness check — that is a completion, not a
        crash, so the pipe is always drained first.  ``_collect``'s
        ``recv`` turns a truly empty pipe (EOF) into the crash outcome.
        """
        if entry.conn.poll(0):
            return self._collect(entry, now)
        return self._finish_crash(entry, now - entry.started)

    def _finish_crash(self, entry: _Worker, duration: float) -> TaskOutcome:
        self.crashes += 1
        self.retired += 1
        # EOF can arrive a moment before the exit status does: wait for
        # the child's own code rather than record our SIGKILL.
        return TaskOutcome(status="crash",
                           exitcode=_bury(entry, grace_s=1.0),
                           duration_s=duration)

    def _reap_timeout(self, entry: _Worker, now: float) -> TaskOutcome:
        """Deadline exceeded: SIGKILL the worker, classify as timeout.

        A worker that slipped its result in just before the kill still
        counts as completed — the pipe is checked one final time.
        """
        if entry.conn.poll(0):
            return self._collect(entry, now)
        _bury(entry)
        self.timeouts += 1
        self.retired += 1
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
