"""Outside-in layer trace: spans recorded from the benchmark's own files.

Nothing under ``src/`` records a span yet, so the traced run wraps the
public calls at each layer boundary from here:

* ``asm``      — ``assemble`` as the workloads, the job worker and the
  sweep runner reach it,
* ``analysis`` — ``lint_program`` in the job worker's admission,
* ``sim``      — ``Emulator`` construction and a timing iterator round
  ``Emulator.codegen_trace()`` (or ``run`` for a functional op),
* ``uarch``    — preset / config-document resolution,
  ``PipelineModel`` construction and ``PipelineModel.run``,
* ``mem``      — a ``MemoryHierarchy`` subclass timing ``access_data``
  and ``access_inst``, i.e. the slow path the timing model's inlined
  L1-hit code falls back to,
* ``service`` / ``explore`` / ``smp`` — whole entry points, opened by
  the workloads themselves with :meth:`Tracer.span`.

A layer's self time is its span minus the part its child spans cover;
the stack in :class:`Tracer` does that subtraction as spans close, so
the per-op record is already a flat ``{layer: self seconds}``.  The
per-block emulator spans and per-access hierarchy spans are far too
many to keep one by one (10^5 per round); they are folded into their
layer as they close and counted.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter
from typing import Any, Iterator


class Tracer:
    """Span stack with self-time accounting for one traced op at a time."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        #: [layer, start, seconds covered by children] per open span
        self._stack: list[list[Any]] = []
        #: objects whose counters are harvested when the op closes
        self._hierarchies: list[Any] = []
        self._emulators: list[Any] = []
        #: one record per traced op, written out when the run ends
        self.records: list[dict[str, Any]] = []

    # -- spans --------------------------------------------------------------

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        frame = [layer, perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = perf_counter() - frame[1]
            self._stack.pop()
            self.self_s[layer] += duration - frame[2]
            self.calls[layer] += 1
            if self._stack:
                self._stack[-1][2] += duration

    def leaf(self, layer: str, seconds: float, calls: int = 1) -> None:
        """Fold an already-timed childless span into *layer*."""
        self.self_s[layer] += seconds
        self.calls[layer] += calls
        if self._stack:
            self._stack[-1][2] += seconds

    # -- per-op records -----------------------------------------------------

    def begin_op(self) -> None:
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self._hierarchies.clear()
        self._emulators.clear()

    def end_op(self, name: str, round_index: int, start: float,
               end: float) -> dict[str, Any]:
        """Close the op whose root span ran from *start* to *end*."""
        for hierarchy in self._hierarchies:
            self.counts["mem.l1d_misses"] += hierarchy.l1d.stats.misses
            self.counts["mem.l2_misses"] += hierarchy.l2.stats.misses
            self.counts["mem.prefetch_issued"] += (
                hierarchy.l1_prefetcher.stats.issued
                + hierarchy.l2_prefetcher.stats.issued)
        for emulator in self._emulators:
            counters = emulator.counters()
            self.counts["sim.codegen_compiled"] += counters.get(
                "codegen_blocks_compiled", 0)
            self.counts["sim.codegen_disk_hits"] += counters.get(
                "codegen_disk_hits", 0)
            self.counts["sim.vector_batched_ops"] += counters.get(
                "vector_batched_ops", 0)
            self.counts["sim.vector_fallback_ops"] += counters.get(
                "vector_fallback_ops", 0)
        record = {
            "op": name, "round": round_index, "start": start, "end": end,
            "self_s": dict(self.self_s), "calls": dict(self.calls),
            "counts": dict(self.counts),
        }
        self.records.append(record)
        return record

    def write(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.records, handle)
            handle.write("\n")


def _timed_batches(inner: Any, tracer: Tracer) -> Iterator[Any]:
    """Re-yield *inner*'s batches, charging the time spent inside the
    producer (between a ``next`` and its yield) to ``sim.emulate_s``."""
    iterator = iter(inner)
    total = 0.0
    batches = 0
    try:
        while True:
            start = perf_counter()
            try:
                batch = next(iterator)
            except StopIteration:
                total += perf_counter() - start
                return
            total += perf_counter() - start
            batches += 1
            yield batch
    finally:
        tracer.leaf("sim.emulate_s", total, batches)


@contextmanager
def tracing(tracer: Tracer) -> Iterator[type]:
    """Swap the traced wrappers in for the duration of the block; yields
    the traced ``Emulator`` class for ops that construct one themselves.

    The wrappers subclass (or wrap) the public objects and are patched
    over the module attributes their callers look them up through, so
    ``run_on_core``, ``execute_job`` and ``run_sweep`` run unmodified.
    """
    from repro.harness import runner as runner_mod
    from repro.mem.hierarchy import MemoryHierarchy
    from repro.service import worker as worker_mod
    from repro.sim.emulator import Emulator
    from repro.uarch import core as core_mod
    from repro.uarch import uconfig as uconfig_mod
    from repro.uarch.core import PipelineModel
    from repro.workloads import base as base_mod

    class TracedHierarchy(MemoryHierarchy):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            super().__init__(*args, **kwargs)
            tracer._hierarchies.append(self)

        def access_data(self, vaddr: int, cycle: int,
                        is_write: bool = False, size: int = 8) -> int:
            start = perf_counter()
            latency = super().access_data(vaddr, cycle, is_write, size)
            tracer.leaf("mem.slow_s", perf_counter() - start)
            tracer.counts["mem.data_calls"] += 1
            return latency

        def access_inst(self, vaddr: int, cycle: int) -> int:
            start = perf_counter()
            latency = super().access_inst(vaddr, cycle)
            tracer.leaf("mem.slow_s", perf_counter() - start)
            tracer.counts["mem.inst_calls"] += 1
            return latency

    class TracedEmulator(Emulator):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            with tracer.span("sim.construct_s"):
                super().__init__(*args, **kwargs)
            tracer._emulators.append(self)

        def codegen_trace(self, max_steps: int | None = None) -> Any:
            return _timed_batches(super().codegen_trace(max_steps), tracer)

        def run(self, *args: Any, **kwargs: Any) -> int:
            with tracer.span("sim.emulate_s"):
                return super().run(*args, **kwargs)

    class TracedPipelineModel(PipelineModel):
        def __init__(self, *args: Any, **kwargs: Any) -> None:
            with tracer.span("uarch.build_s"):
                super().__init__(*args, **kwargs)

        def run(self, trace: Any) -> Any:
            with tracer.span("uarch.run_s"):
                return super().run(trace)

    def traced(layer: str, fn: Any) -> Any:
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            with tracer.span(layer):
                return fn(*args, **kwargs)
        return wrapper

    patches = [
        (core_mod, "MemoryHierarchy", TracedHierarchy),
        (runner_mod, "Emulator", TracedEmulator),
        (runner_mod, "PipelineModel", TracedPipelineModel),
    ] + [(module, name, traced(layer, getattr(module, name)))
         for module, name, layer in (
             (runner_mod, "get_preset", "uarch.build_s"),
             (uconfig_mod, "resolve_core", "uarch.build_s"),
             (uconfig_mod, "config_from_doc", "uarch.build_s"),
             (base_mod, "assemble", "asm.assemble_s"),
             (worker_mod, "assemble", "asm.assemble_s"),
             (worker_mod, "lint_program", "analysis.lint_s"))]
    saved = [(module, name, getattr(module, name))
             for module, name, _ in patches]
    for module, name, replacement in patches:
        setattr(module, name, replacement)
    try:
        yield TracedEmulator
    finally:
        for module, name, original in saved:
            setattr(module, name, original)
