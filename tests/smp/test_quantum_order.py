"""The order in which ``run_smp_timing`` times its harts.

Every hart's records reach its pipeline as 64-record quanta through
``PipelineModel.run_quantum``.  The calls must be the ones that slicing
each finished trace of the functional round-robin into 64-record pieces
gives, taken position-major and hart-minor (piece 0 of every hart that
has one, in hart order, then piece 1, ...): the timed cluster's shared
L2, DRAM and snoops see the cores in that order, so any other order
moves the statistics.
"""

from __future__ import annotations

import pytest

from repro.asm import assemble
from repro.smp import timing
from repro.smp.runner import SmpMachine
from repro.smp.timing import run_smp_timing
from repro.uarch.core import PipelineModel

from .test_timing_equivalence import PROGRAMS

#: Hart *i* runs 100 + 37 * i iterations, so its trace is 307, 418, 529
#: and 640 records long: the harts exit in different turns, three of
#: them part-way through a turn (307, 418 and 529 are not multiples of
#: 4) and the last one on a quantum boundary (640 = 10 * 64).
STAGGERED = """
    .text
_start:
    csrr s0, mhartid
    li t0, 37
    mul t0, t0, s0
    addi s2, t0, 100
loop:
    addi t1, t1, 1
    addi s2, s2, -1
    bnez s2, loop
    li a0, 0
    li a7, 93
    ecall
"""

CASES = {**PROGRAMS, "staggered": STAGGERED}


def timed_quanta(monkeypatch, program, cores: int
                 ) -> list[tuple[int, int, int]]:
    """(hart, first ``seq``, length) of every ``run_quantum`` call that
    ``run_smp_timing`` makes, in call order."""
    pipelines: list[PipelineModel] = []
    log: list[tuple[int, int, int]] = []

    class Logged(PipelineModel):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pipelines.append(self)

        def run_quantum(self, records):
            records = list(records)
            log.append((pipelines.index(self), records[0].seq,
                        len(records)))
            super().run_quantum(records)

    monkeypatch.setattr(timing, "PipelineModel", Logged)
    result = run_smp_timing(program, cores=cores)
    assert all(code == 0 for code in result.exit_codes)
    return log


def sliced_quanta(traces) -> list[tuple[int, int, int]]:
    """The same triples from slicing finished traces into quanta."""
    chunk = 64
    return [(hart, trace[pos].seq, len(trace[pos:pos + chunk]))
            for pos in range(0, max(map(len, traces)), chunk)
            for hart, trace in enumerate(traces) if pos < len(trace)]


@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("name", sorted(CASES))
def test_quanta_follow_the_sliced_traces(monkeypatch, name, cores):
    program = assemble(CASES[name], compress=True)
    traces = SmpMachine(program, cores=cores, interleave=4).traces()
    assert timed_quanta(monkeypatch, program, cores) \
        == sliced_quanta(traces)


def test_staggered_guest_exits_in_different_turns():
    """The schedule's edge cases are exercised by ``staggered``."""
    program = assemble(STAGGERED, compress=True)
    lengths = [len(trace) for trace in
               SmpMachine(program, cores=4, interleave=4).traces()]
    assert lengths == [307, 418, 529, 640]
