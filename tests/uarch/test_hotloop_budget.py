"""A deterministic budget for the stream loop.

Wall-clock gates cannot see a few statements creeping back into
``PipelineModel._run_stream`` on a noisy CI runner; a count can.  This
test counts the ``sys.settrace`` *line* events, and the *opcode* events
(``f_trace_opcodes``), inside ``_run_stream`` per simulated instruction
on two CoreMark kernels — the numbers are a function of the source and
the guest only, not of the host — and fails above a committed budget
(the measured value + 5 %).  The bytecode stream also depends on the
interpreter's compiler, so the opcode budget holds for the CPython
minor version it was measured on and is skipped on others; the line
budget runs everywhere.

For scale: the loop that re-derived every static and per-batch fact per
instruction (before rows were resolved per block) ran 116.8 lines per
instruction on ``coremark-crc`` and 136.0 on ``coremark-list``.
"""

from __future__ import annotations

import functools
import linecache
import sys

import pytest

from repro.harness.runner import run_on_core
from repro.uarch.core import PipelineModel
from repro.workloads import get_workload

#: Executed ``_run_stream`` lines per simulated instruction; measured
#: 87.3 / 105.9 when committed.  Raise it only with the reason in the
#: commit message — every line here is paid a hundred thousand times a
#: second.
BUDGET = {"coremark-crc": 91.7, "coremark-list": 111.2}
#: Executed ``_run_stream`` bytecodes per simulated instruction on
#: CPython 3.11; measured 382.0 / 462.9 when committed.  Same rule.
OPCODE_BUDGET = {"coremark-crc": 401.1, "coremark-list": 486.0}
OPCODE_PYTHON = (3, 11)


def count_events(codes, run):
    """Call *run* under ``sys.settrace`` and count the ``line`` and
    ``opcode`` events of every frame whose code object is in *codes*.

    Returns ``(run(), {event: {(file, line): executions}})``.
    """
    counts: dict[str, dict[tuple[str, int], int]] = {"line": {},
                                                     "opcode": {}}

    def count(frame, event, arg):
        if event in counts:
            key = (frame.f_code.co_filename, frame.f_lineno)
            counts[event][key] = counts[event].get(key, 0) + 1
        return count

    def trace_calls(frame, event, arg):
        if frame.f_code not in codes:
            return None
        frame.f_trace_opcodes = True
        return count

    previous = sys.gettrace()
    sys.settrace(trace_calls)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, counts


def check_budget(what, counts, units, budget):
    """Fail, listing the most-executed lines, when *counts* (one
    event's, from :func:`count_events`) exceed *budget* per unit of
    work; *what* names the event and the unit."""
    per_unit = sum(counts.values()) / units
    if per_unit > budget:
        hottest = sorted(counts.items(), key=lambda item: -item[1])[:10]
        listing = "\n".join(
            f"  {count:9d}x  {filename}:{line}: "
            f"{linecache.getline(filename, line).strip()}"
            for (filename, line), count in hottest)
        pytest.fail(f"{what}: {per_unit:.1f}, budget {budget}; "
                    f"most-executed lines:\n{listing}")


@functools.cache
def _events_per_instruction(name):
    """(simulated instructions, {event: {(file, line): executions}})
    of one traced run, for the ``line`` and ``opcode`` events."""
    program = get_workload(name).program()
    result, counts = count_events({PipelineModel._run_stream.__code__},
                                  lambda: run_on_core(program, "xt910"))
    return result.stats.instructions, counts


def _check(name, event, budget):
    instructions, counts = _events_per_instruction(name)
    check_budget(f"{name}: executed {event}s in _run_stream per simulated "
                 "instruction", counts[event], instructions, budget)


@pytest.mark.parametrize("name", sorted(BUDGET))
def test_stream_loop_stays_inside_its_line_budget(name):
    _check(name, "line", BUDGET[name])


@pytest.mark.skipif(
    sys.version_info[:2] != OPCODE_PYTHON,
    reason="the opcode budget was measured on CPython "
           f"{'.'.join(map(str, OPCODE_PYTHON))}; bytecode differs between "
           "interpreter versions")
@pytest.mark.parametrize("name", sorted(OPCODE_BUDGET))
def test_stream_loop_stays_inside_its_opcode_budget(name):
    _check(name, "opcode", OPCODE_BUDGET[name])
