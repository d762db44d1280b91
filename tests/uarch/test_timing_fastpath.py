"""Equivalence gates for the timing-model fast path.

The optimised :class:`repro.uarch.core.PipelineModel` (static timing
cache, ring-array scheduling structures, block-batched monolith) is
only allowed to be fast because it is *stats-identical* to the slow
model.  Two independent oracles pin that down, both as cells of the
equivalence lattice (``tests/integration/test_lattice.py``):

1. the frozen pre-fast-path copy
   (:class:`repro.uarch.refmodel.ReferencePipelineModel`), replaying
   the same dynamic trace — on every preset, so the in-order and
   single-issue-LSU rows are held to it too;
2. the committed ``golden_stats.json`` snapshot, generated with the
   reference model on every bundled workload — catches drift that a
   same-commit differential cannot (both models changing together).

The monolith is also resumable (``run_quantum``, how SMP timing drives
it): ``run(trace)`` must equal any chunking of the same trace.

Plus the operational properties the fast path must not break:
determinism across runs, ``_reset_run_state`` completeness on model
reuse, static-cache revalidation by instruction identity, bounded
``PipeGroup`` memory over long runs, and exact bookings past the
booking window.
"""

from __future__ import annotations

import copy
import functools
import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.asm import assemble
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.emulator import Emulator, WatchdogExpired
from repro.uarch.core import _WINDOW, PipeGroup, PipelineModel
from repro.uarch.presets import get_preset
from repro.uarch.refmodel import ReferencePipelineModel
from repro.workloads import all_workloads, get_workload

from ..integration.test_lattice import (
    GOLDEN_SUBSET,
    OTHER_PRESETS,
    PRESET_SAMPLE,
    REFERENCE_SAMPLE,
    Timed,
    assert_cells,
)

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_stats.json").read_text())


@pytest.mark.parametrize("name, preset", [
    pytest.param(name, "xt910", id=name) for name in REFERENCE_SAMPLE] + [
    pytest.param(name, preset, id=f"{name}@{preset}")
    for preset in OTHER_PRESETS for name in PRESET_SAMPLE])
def test_fast_path_matches_reference_oracle(name, preset):
    """Stream model == reference model: through the golden snapshot on
    xt910, in process on the eight other presets."""
    if preset == "xt910":
        assert_cells(name, Timed(2), Timed(2, model="reference"))
    else:
        assert_cells(name, Timed(2, preset=preset))


@pytest.mark.parametrize("name", GOLDEN_SUBSET)
def test_matches_committed_golden_stats(name):
    assert_cells(name, Timed(2))


@pytest.mark.parametrize("name", GOLDEN_SUBSET)
def test_tier3_matches_committed_golden_stats(name):
    """The specializing translator feeds the same timing model the
    same stream: its stats must hit the frozen oracle exactly."""
    assert_cells(name, Timed(3))


def test_golden_file_covers_every_bundled_workload():
    assert sorted(GOLDEN) == sorted(w.name for w in all_workloads())


#: Small enough to replay one instruction per quantum: FP, vector,
#: load/store-heavy and branchy integer code; coremark-list is long
#: enough to cross many booking-window prunes.
RESUME_WORKLOADS = ["nbench-fourier", "vec-mac16", "nbench-lu",
                    "eembc-canrdr", "coremark-list"]


@functools.cache
def _whole_run_and_records(name):
    """``run()`` over the natural block batches, and the same stream
    as a flat list of retained records (tier 1 allocates a fresh
    ``DynInst`` per step; tier-2 batches are reused slots)."""
    program = get_workload(name).program()
    config = get_preset("xt910")
    whole = PipelineModel(config, MemoryHierarchy(config.mem)).run(
        Emulator(program).trace(None, tier=2)).as_comparable()
    return whole, [dyn for (dyn,) in Emulator(program).trace(None)]


@settings(max_examples=8, deadline=None)
@given(name=st.sampled_from(RESUME_WORKLOADS),
       sizes=st.lists(st.integers(min_value=1, max_value=48),
                      min_size=1, max_size=5))
@example(name="nbench-fourier", sizes=[1])
@example(name="vec-mac16", sizes=[64])
def test_run_equals_any_chunking_through_run_quantum(name, sizes):
    """The resumable quantum is ``run()`` cut anywhere: the sizes are
    cycled, so cuts land inside basic blocks, between a branch and its
    target, and (size 1) after every instruction."""
    whole, records = _whole_run_and_records(name)
    config = get_preset("xt910")
    model = PipelineModel(config, MemoryHierarchy(config.mem))
    pos = 0
    for size in itertools.cycle(sizes):
        if pos >= len(records):
            break
        model.run_quantum(records[pos:pos + size])
        pos += size
    assert model.finish().as_comparable() == whole


def _stats_for(model, program, max_steps):
    """Run *program* through *model*; a trace cut short by the step
    watchdog is closed out with ``finish()`` — the monolith's
    try/finally write-back must leave consistent, deterministic stats
    even when the feeding generator raises mid-run."""
    try:
        model.run(Emulator(program).trace(max_steps, tier=2))
    except WatchdogExpired:
        model.finish()
    return model.stats.as_comparable()


@settings(max_examples=6, deadline=None)
@given(name=st.sampled_from(["coremark-list", "stream-copy",
                             "nbench-fourier"]),
       max_steps=st.one_of(st.none(),
                           st.integers(min_value=200, max_value=4000)))
def test_determinism_and_reset_completeness(name, max_steps):
    """Identical inputs give identical stats — from a fresh model and
    from a reused one (``_reset_run_state`` must forget everything;
    the hierarchy is external state and is swapped fresh)."""
    program = get_workload(name).program()
    config = get_preset("xt910")

    fresh = PipelineModel(config, MemoryHierarchy(config.mem))
    first = _stats_for(fresh, program, max_steps)

    reused = PipelineModel(config, MemoryHierarchy(config.mem))
    second = _stats_for(reused, program, max_steps)
    assert second == first

    reused.hier = MemoryHierarchy(config.mem)
    third = _stats_for(reused, program, max_steps)
    assert third == first


def test_reset_is_skipped_only_while_nothing_was_timed():
    """``run()`` on a just-constructed model must not rebuild the
    predictors and re-zero the rings a second time; once the model has
    timed anything, the next ``run()`` must."""
    program = get_workload("nbench-fourier").program()
    model = PipelineModel(get_preset("xt910"))
    built = model.direction
    model.run(Emulator(program).trace(None, tier=2))
    assert model.direction is built
    model.run(Emulator(program).trace(None, tier=2))
    assert model.direction is not built


def test_tcache_revalidates_on_new_instruction_object():
    """The static cache is keyed by PC but validated by ``inst``
    identity: a re-decode (fence.i, icache maintenance) produces a new
    ``Instruction`` object and must force a rebuild."""
    program = get_workload("coremark-list").program()
    model = PipelineModel(get_preset("xt910"))
    (dyn,) = next(Emulator(program).trace(4))

    def row_of(record):
        (row,), _ = model._resolve([record])
        return row

    row = row_of(dyn)
    assert row_of(dyn) is row                # same object: cache hit

    redecoded = copy.copy(dyn)
    redecoded.inst = copy.copy(dyn.inst)     # fresh Instruction object
    rebuilt = row_of(redecoded)
    assert rebuilt is not row                # identity miss: rebuilt
    assert rebuilt[:-1] == row[:-1]          # same facts, fresh info
    assert rebuilt[-1].inst is redecoded.inst
    assert row_of(redecoded) is rebuilt      # and re-cached


def test_pipegroup_memory_bounded_over_one_million_cycles():
    """The booking window recycles in place: a synthetic 1M-cycle run
    must not grow the ring or leak bookings into the far dict."""
    group = PipeGroup(2)
    ring_len = len(group._ring)
    for cycle in range(0, 1_000_000, 5):
        slot = group.earliest(cycle, occupy=2)
        group.book(slot, occupy=2)
        if cycle % (_WINDOW // 4) == 0 and cycle:
            group.advance(cycle - 64)
    assert len(group._ring) == ring_len == _WINDOW
    assert len(group._far) < 64
    # and the window actually advanced with the pruning
    assert group._base > 0


def _cold_chase_program(chain=28, trips=4):
    """A pointer chase through never-touched lines in random order,
    unrolled *chain* deep inside one block, with a tail of two ``div``
    on the last value (they contend for the one divider) and an
    ``fdiv.d``.  Every load is a DRAM miss that waits for the one
    before it, so a block's dependants issue thousands of cycles after
    their dispatch: bookings land, and contend, past the booking
    window."""
    nodes = chain * trips + 1
    order = list(range(nodes))
    random.Random(7).shuffle(order)
    deltas = [0] * nodes
    for here, succ in zip(order, order[1:]):
        deltas[here] = (succ - here) * 64
    chase = "\n".join(["    ld t0, 0(t1)\n    add t1, t1, t0"] * chain)
    data = "\n".join(f"    .dword {delta}\n    .zero 56"
                     for delta in deltas)
    return assemble(f"""
_start:
    la    t1, nodes
    li    t2, {order[0] * 64}
    add   t1, t1, t2
    li    s3, {trips}
loop:
{chase}
    div   t3, t0, s3
    div   t4, t0, s3
    add   t3, t3, t4
    fcvt.d.l ft1, t3
    fdiv.d ft0, ft1, ft1
    addi  s3, s3, -1
    bnez  s3, loop
    li    a0, 0
    li    a7, 93
    ecall
    .data
    .align 6
nodes:
{data}
""")


def test_bookings_past_the_window_spill_exactly(monkeypatch):
    """The stream loop's inline scans stop at the window limit and hand
    over to the exact ring + ``_far`` search: a run that books past
    the window must use ``_far`` and still equal the reference model."""
    program = _cold_chase_program()
    config = get_preset("xt910")
    far_peak = 0
    book = PipeGroup.book

    def spying_book(self, cycle, occupy=1):
        nonlocal far_peak
        book(self, cycle, occupy)
        far_peak = max(far_peak, len(self._far))

    monkeypatch.setattr(PipeGroup, "book", spying_book)
    stats = PipelineModel(config, MemoryHierarchy(config.mem)).run(
        Emulator(program).trace(None, tier=2)).as_comparable()
    monkeypatch.undo()
    assert far_peak > 0
    reference = ReferencePipelineModel(
        config, MemoryHierarchy(config.mem)).run(
        Emulator(program).trace(None, tier=1)).as_comparable()
    assert stats == reference
