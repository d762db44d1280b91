"""Process-pool execution of independent figure-harness cells.

Every figure sweep and the RAS campaign decompose into independent
(core, workload)-style cells: each cell builds its own program and
emulator, runs, and returns a small picklable result.  Python threads
would serialize on the GIL (the emulator is pure Python), so the
parallel path uses processes; cell functions must therefore be
module-level and take primitive arguments (workload *names*, core
*names*, seeds) — children rebuild the heavyweight objects themselves.

``jobs=None`` / ``jobs<=1`` runs the cells serially in-process, which
keeps single-cell debugging (pdb, coverage, exceptions with full
context) trivial and is the default everywhere.

Failure handling is collect-and-report: a failing cell never aborts
its siblings.  Every cell runs to its own outcome, and ``run_cells``
then raises one :class:`CellFailure` naming each failed cell — which
workload/config tuple, which function, and the serialized error (or
crash/timeout classification from the worker pool).  The parallel path
runs on :class:`repro.service.pool.WorkerPool`, so a cell that
segfaults or hangs is reaped and attributed instead of taking the
whole sweep down with a ``BrokenProcessPool``.

Design-space sweeps (:mod:`repro.harness.explore`) do not come through
here: their cells are service jobs, supervised by ``JobService``.  They
report failed cells with the same :class:`CellFailure`.
"""

from __future__ import annotations

import os
import reprlib
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field

#: failed cells spelled out in a CellFailure message before truncating
_REPORT_LIMIT = 8


def default_jobs() -> int:
    """A sensible ``--jobs`` value for this machine."""
    return max(1, os.cpu_count() or 1)


@dataclass
class CellError:
    """One failed cell: which cell, which function, what happened."""

    index: int
    fn: str
    cell: tuple
    status: str                      # "error" | "crash" | "timeout"
    error: dict = field(default_factory=dict)

    def render(self) -> str:
        args = reprlib.repr(self.cell)
        what = (f"{self.error.get('type', self.error.get('kind', '?'))}: "
                f"{self.error.get('message', '?')}"
                if self.status == "error" else self.status)
        return f"cell {self.index} {self.fn}{args}: {what}"


class CellFailure(RuntimeError):
    """One or more cells failed; siblings completed first.

    ``failures`` holds a :class:`CellError` per failed cell (input
    order), so callers can attribute every failure to its workload and
    configuration instead of seeing only whichever exception happened
    to surface first.
    """

    def __init__(self, failures: list[CellError], total: int) -> None:
        self.failures = failures
        self.total = total
        lines = [f"{len(failures)} of {total} cells failed:"]
        lines += [f"  {f.render()}" for f in failures[:_REPORT_LIMIT]]
        if len(failures) > _REPORT_LIMIT:
            lines.append(f"  ... and {len(failures) - _REPORT_LIMIT} more")
        super().__init__("\n".join(lines))


def _invoke(payload):
    fn, args = payload
    return fn(*args)


def _fn_name(fn: Callable) -> str:
    return getattr(fn, "__name__", repr(fn))


def run_cells(fn: Callable, cells: Iterable[tuple], jobs: int | None = None,
              timeout: float | None = None) -> list:
    """Run ``fn(*cell)`` for every cell, preserving input order.

    With ``jobs`` > 1 the cells are fanned out over crash-isolated
    worker processes (``fn`` and each cell must be picklable) with
    ``timeout`` as the per-cell wall-clock budget; otherwise they run
    serially in this process.  Either way every cell runs to its own
    outcome before failures are reported: if any cell raised (or, in
    parallel mode, crashed its worker or hit the deadline), one
    aggregated :class:`CellFailure` is raised naming each failed cell
    with its function and arguments.  Callers that want per-cell
    containment *as data* (e.g. the RAS campaign) catch inside the
    cell function as before.
    """
    # Imported lazily: repro.service pulls in repro.harness (the job
    # worker runs cells through run_on_core), so a module-level import
    # here would be circular.
    from ..service.pool import WorkerPool, serialize_exception

    cells = list(cells)
    name = _fn_name(fn)
    results: list = [None] * len(cells)
    failures: list[CellError] = []
    if jobs is None or jobs <= 1 or len(cells) <= 1:
        last_exc: Exception | None = None
        for index, cell in enumerate(cells):
            try:
                results[index] = fn(*cell)
            except Exception as exc:
                last_exc = exc
                failures.append(CellError(
                    index, name, tuple(cell), "error",
                    serialize_exception(exc)))
        if failures:
            raise CellFailure(failures, len(cells)) from last_exc
        return results
    workers = min(jobs, len(cells))
    with WorkerPool(workers, _invoke) as pool:
        for index, cell in enumerate(cells):
            pool.submit(index, (fn, tuple(cell)), timeout=timeout)
        for key, outcome in pool.drain():
            index = int(key)  # submitted as int; Hashable in the pool API
            if outcome.ok:
                results[index] = outcome.value
            elif outcome.status == "error":
                failures.append(CellError(index, name, tuple(cells[index]),
                                          "error", outcome.value))
            elif outcome.status == "crash":
                failures.append(CellError(
                    index, name, tuple(cells[index]), "crash",
                    {"type": "WorkerCrash",
                     "message": f"worker process died "
                                f"(exit code {outcome.exitcode})"}))
            else:
                failures.append(CellError(
                    index, name, tuple(cells[index]), "timeout",
                    {"type": "Timeout",
                     "message": f"cell exceeded its {timeout}s "
                                f"wall-clock budget"}))
    if failures:
        failures.sort(key=lambda f: f.index)
        raise CellFailure(failures, len(cells))
    return results


__all__ = ["run_cells", "default_jobs", "CellFailure", "CellError"]
