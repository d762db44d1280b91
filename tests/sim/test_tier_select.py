"""The tier selector: ``Emulator.run(tier=)`` / ``Emulator.trace(tier=)``.

One decision point, ``Emulator._select_tier``, picks the tier a
configuration can run exactly and records it as ``emulator.tier``, with
``emulator.tier_reason`` naming the first blocker when that is not the
tier asked for.  Every hook that block dispatch elides (MMU, fault
injector, interrupts) forces tier 1; a sanitizer caps tier 3 at tier 2.
Whatever ran, the retired stream is the precise interpreter's, record
for record.
"""

import pytest

from repro.analysis import Sanitizer
from repro.asm import assemble
from repro.ras.injector import FaultInjector
from repro.sim import Emulator, WatchdogExpired

from ..integration.test_lattice import stream

#: a loop with loads, stores, a call and a taken branch per trip
_SOURCE = """
    .data
buf: .zero 64
    .text
_start:
    la s0, buf
    li t0, 12
    li t2, 0
loop:
    sd t0, 0(s0)
    ld t1, 0(s0)
    jal ra, bump
    addi t0, t0, -1
    bnez t0, loop
    mv a0, t2
    andi a0, a0, 63
    li a7, 93
    ecall
bump:
    add t2, t2, t1
    jalr x0, 0(ra)
"""

#: blocker -> how to attach it to a fresh emulator
_BLOCKERS = {
    "nothing": lambda program: Emulator(program),
    "mmu": lambda program: Emulator(program, enable_mmu=True),
    "fault_injector": lambda program: Emulator(
        program, fault_injector=FaultInjector()),
    "interrupt_fn": lambda program: Emulator(
        program, interrupt_fn=lambda: 0),
    "sanitizer": lambda program: _sanitized(program),
}

#: (asked, blocker) -> (tier that runs, tier_reason)
_EXPECTED = {
    (1, "nothing"): (1, None),
    (1, "mmu"): (1, None),
    (1, "fault_injector"): (1, None),
    (1, "interrupt_fn"): (1, None),
    (1, "sanitizer"): (1, None),
    (2, "nothing"): (2, None),
    (2, "mmu"): (1, "mmu"),
    (2, "fault_injector"): (1, "fault_injector"),
    (2, "interrupt_fn"): (1, "interrupts"),
    (2, "sanitizer"): (2, None),
    (3, "nothing"): (3, None),
    (3, "mmu"): (1, "mmu"),
    (3, "fault_injector"): (1, "fault_injector"),
    (3, "interrupt_fn"): (1, "interrupts"),
    (3, "sanitizer"): (2, "sanitizer"),
}


def _sanitized(program):
    emulator = Emulator(program)
    emulator.sanitizer = Sanitizer(program)
    return emulator


def _engines(emulator):
    """The tier whose engine the run built (1 = neither)."""
    if emulator._codegen is not None:
        return 3
    return 2 if emulator._blocks is not None else 1


@pytest.fixture(scope="module")
def precise():
    emulator = Emulator(assemble(_SOURCE))
    return (stream(emulator.trace(None, tier=1)), list(emulator.state.regs),
            emulator.exit_code)


@pytest.mark.parametrize("asked, blocker", sorted(_EXPECTED),
                         ids=[f"tier{asked}-{blocker}"
                              for asked, blocker in sorted(_EXPECTED)])
def test_selected_tier_and_reason(asked, blocker, precise):
    want = _EXPECTED[asked, blocker]
    precise_stream, precise_regs, precise_exit = precise

    ran = _BLOCKERS[blocker](assemble(_SOURCE))
    assert ran.run(tier=asked) == precise_exit
    assert (ran.tier, ran.tier_reason) == want
    assert _engines(ran) == want[0]
    assert list(ran.state.regs) == precise_regs

    traced = _BLOCKERS[blocker](assemble(_SOURCE))
    assert stream(traced.trace(None, tier=asked)) == precise_stream
    assert (traced.tier, traced.tier_reason) == want
    assert _engines(traced) == want[0]
    assert traced.exit_code == precise_exit


def test_the_reason_is_the_first_blocker_in_order():
    program = assemble(_SOURCE)
    emulator = Emulator(program, enable_mmu=True, interrupt_fn=lambda: 0,
                        fault_injector=FaultInjector())
    emulator.sanitizer = Sanitizer(program)
    assert emulator._select_tier(3) == (1, "mmu")
    emulator.mmu = None
    assert emulator._select_tier(3) == (1, "fault_injector")
    emulator.fault_injector = None
    assert emulator._select_tier(3) == (1, "interrupts")
    emulator.interrupt_fn = None
    assert emulator._select_tier(3) == (2, "sanitizer")
    assert emulator._select_tier(2) == (2, None)


@pytest.mark.parametrize("tier", [0, 4, "3"])
def test_unknown_tier_is_refused_by_both_entry_points(tier):
    emulator = Emulator(assemble(_SOURCE))
    with pytest.raises(ValueError):
        emulator.run(tier=tier)
    with pytest.raises(ValueError):
        emulator.trace(tier=tier)
    assert emulator.state.instret == 0


@pytest.mark.parametrize("tier", [1, 2, 3])
def test_every_tier_yields_batches_and_honours_the_watchdog(tier):
    emulator = Emulator(assemble(_SOURCE))
    seen = 0
    with pytest.raises(WatchdogExpired):
        for batch in emulator.trace(10, tier=tier):
            assert isinstance(batch, (list, tuple))
            seen += len(batch)
    assert seen == emulator.state.instret == 10
    assert emulator.tier == tier
