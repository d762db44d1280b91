"""The block-resolved row contract of the stream loop.

``PipelineModel._run_stream`` resolves a
:class:`~repro.sim.trace.RecordBatch` once and keeps the rows on it;
every other sequence is resolved on the spot, and both feed one body.
These tests pin what that must not change: the statistics (whatever
shape the trace arrives in: the equivalence lattice's feed cells),
invalidation (rows die with the block),
ownership (one emulator, two models), the counters written back when
the body is left by an exception, and that a copied or pickled batch
takes no consumer state with it.
"""

from __future__ import annotations

import copy
import pickle

import pytest

from repro.asm import assemble
from repro.mem.hierarchy import MemoryHierarchy
from repro.sim.emulator import Emulator
from repro.sim.trace import RecordBatch
from repro.uarch.core import R_INORDER, PipelineModel
from repro.uarch.presets import get_preset
from repro.workloads import get_workload

from ..integration.test_lattice import GOLDEN_SUBSET, Timed, assert_cells


def _count_resolves(model):
    """Record every RecordBatch the model resolves (not the plain
    sequences it resolves on the spot)."""
    seen = []
    resolve = model._resolve

    def counting(batch):
        if type(batch) is RecordBatch:
            seen.append(batch)
        return resolve(batch)

    model._resolve = counting
    return seen


# -- (i) one answer, whatever shape the trace arrives in ---------------------

@pytest.mark.parametrize("name", GOLDEN_SUBSET)
def test_every_trace_shape_gives_the_same_stats(name):
    """Resolved tier-2 blocks, plain lists, tier-1 singles and chunks
    of 7 through ``run_quantum``: one answer, the golden one."""
    assert_cells(name, Timed(2), Timed(2, feed="lists"), Timed(1),
                 Timed(1, feed="chunks"))


def test_an_empty_batch_is_a_no_op():
    program = get_workload("nbench-fourier").program()
    config = get_preset("xt910")
    want = PipelineModel(config).run(Emulator(program).trace(None, tier=2))

    def with_gaps(trace):
        yield []
        for batch in trace:
            yield batch
            yield ()

    model = PipelineModel(config)
    model.run_quantum([])
    got = model.run(with_gaps(Emulator(program).trace(None, tier=2)))
    assert got.as_comparable() == want.as_comparable()


# -- (ii) rows die with the block --------------------------------------------

def _word(instruction: str) -> int:
    text = assemble(f"_start:\n    {instruction}\n", compress=False).text
    return int.from_bytes(text[:4], "little")


#: Forty trips round a loop whose first instruction feeds the second,
#: then the guest overwrites that instruction — a 1-cycle ``addi``
#: becomes a multi-cycle ``mul`` at the same PC — fences, and goes
#: round forty more times.
_SMC = f"""
_start:
    li s1, 2
    la t0, patchme
    li t1, {_word("mul a0, a0, a1"):#x}
    li a1, 3
phase:
    li s0, 40
loop:
patchme:
    addi a0, a0, 1
    addi a2, a0, 0
    addi s0, s0, -1
    bnez s0, loop
    sw t1, 0(t0)
    fence.i
    addi s1, s1, -1
    bnez s1, phase
    li a0, 0
    li a7, 93
    ecall
"""


@pytest.mark.parametrize("tier", [2, 3], ids=["tier2", "tier3"])
def test_retranslated_block_gets_fresh_rows(tier):
    program = assemble(_SMC, compress=False)
    config = get_preset("xt910")

    by_rows = PipelineModel(config)
    resolved = _count_resolves(by_rows)
    got = by_rows.run(Emulator(program).trace(None, tier=tier))

    precise = PipelineModel(config).run(Emulator(program).trace(None))
    assert got.as_comparable() == precise.as_comparable()

    # Each batch was resolved once, and the loop was translated twice.
    # On tier 2 that is two batch objects; tier 3 adds, per
    # translation, the superblock that unrolls the loop and the prefix
    # batch its guard leaves by when the loop ends.  Every batch holds
    # the rows of its own instructions.
    assert len({id(batch) for batch in resolved}) == len(resolved)
    patchme = program.symbol("patchme")
    loops = [batch for batch in resolved if batch[0].pc == patchme]
    assert len(loops) == (2 if tier == 2 else 6)
    latency = {}
    for batch in loops:
        # row = (pc, s0, s1, s2, d0, kind, pipe, latency, ctrl, rare, info)
        *_, row_latency, _, _, info = batch.resolved[1][0]
        assert info.inst is batch[0].inst
        latency[info.inst.spec.mnemonic] = row_latency
    # stale rows would have shown
    assert latency.keys() == {"addi", "mul"}
    assert latency["mul"] > latency["addi"]


# -- (iii) rows belong to the model that wrote them --------------------------

def test_two_models_sharing_one_emulators_batches():
    program = get_workload("eembc-canrdr").program()
    configs = [get_preset("xt910"), get_preset("u74")]

    solo = [PipelineModel(config).run(Emulator(program).trace(None, tier=2))
            .as_comparable() for config in configs]
    assert solo[0] != solo[1]

    models = [PipelineModel(config) for config in configs]
    resolves = [_count_resolves(model) for model in models]
    for batch in Emulator(program).trace(None, tier=2):
        for model in models:
            model.run_quantum(batch)
            if type(batch) is RecordBatch:
                # resolved = (key, rows, prevs); a row ends (rare, info)
                in_order = batch.resolved[1][0][-2] & R_INORDER
                assert bool(in_order) == (not model.config.out_of_order)
    assert [model.finish().as_comparable() for model in models] == solo
    # Alternating consumers evict each other's rows every time.
    assert len(resolves[0]) == len(resolves[1]) > len(
        {id(batch) for batch in resolves[0]})


# -- (iv) counters written back when the body is left by an exception --------

class _FaultyHierarchy(MemoryHierarchy):
    """``access_data`` raises on its *fail_on*-th call."""

    def __init__(self, config, fail_on: int):
        super().__init__(config)
        self._calls_left = fail_on

    def access_data(self, *args, **kwargs):
        self._calls_left -= 1
        if not self._calls_left:
            raise RuntimeError("injected hierarchy fault")
        return super().access_data(*args, **kwargs)


def _run_until_fault(trace, fail_on):
    config = get_preset("xt910")
    model = PipelineModel(config, _FaultyHierarchy(config.mem, fail_on))
    with pytest.raises(RuntimeError, match="injected"):
        model.run(trace)
    counts = model.stats.instructions, model.stats.uops
    # The aborted run can still be closed out, the same way from
    # either trace shape.
    return counts, model.finish().as_comparable()


def test_exception_mid_batch_leaves_per_instruction_counts():
    mid_batch = 0
    faulting_stores = set()
    for name, fail_on in [("dhrystone-like", 1), ("dhrystone-like", 2),
                          ("dhrystone-like", 4), ("stream-triad", 5),
                          ("stream-triad", 13)]:
        program = get_workload(name).program()
        # One record per batch: the generator knows which instruction
        # was in flight, so the expected counts need no model — every
        # instruction handed over was fetched; all but the last
        # retired (one uop each, two for a store), and a faulting
        # store had already counted its st.data uop.
        handed = []

        def singles():
            for batch in Emulator(program).trace(None):
                (dyn,) = batch
                handed.append(dyn.inst.spec.iclass.value
                              in ("store", "vstore"))
                yield batch

        want = _run_until_fault(singles(), fail_on)
        assert want[0] == (len(handed),
                           len(handed) - 1 + sum(handed))
        faulting_stores.add(handed[-1])

        # The same fault, arriving inside a resolved block batch.
        ends = []

        def blocks():
            done = 0
            for batch in Emulator(program).trace(None, tier=2):
                done += len(batch)
                ends.append(done)
                yield batch

        assert _run_until_fault(blocks(), fail_on) == want
        mid_batch += len(handed) != ends[-1]
    assert faulting_stores == {False, True}     # loads and stores
    assert mid_batch     # and not only on the last row of a batch


# -- (v) a copied batch takes no consumer state with it ----------------------

def test_record_batch_copies_and_pickles_as_a_list():
    program = get_workload("nbench-fourier").program()
    model = PipelineModel(get_preset("xt910"))
    emulator = Emulator(program)
    model.run(emulator.trace(None, tier=2))
    batch = next(block.records for block in emulator._blocks.blocks.values()
                 if block.records.resolved is not None)

    for clone in (copy.copy(batch), copy.deepcopy(batch),
                  pickle.loads(pickle.dumps(batch))):
        assert type(clone) is RecordBatch
        assert clone.resolved is None
        assert [dyn.pc for dyn in clone] == [dyn.pc for dyn in batch]
    assert copy.copy(batch) == list(batch)      # same record slots
    assert type(batch[:1]) is list              # slices carry no slot
    assert b"repro.uarch" not in pickle.dumps(batch)
