"""A deterministic budget for the tier-1 interpreter step.

Every multi-hart run steps its harts one instruction at a time through
``Emulator.step``, so a statement that creeps into it is paid once per
simulated SMP instruction.  This test counts the bytecodes
(``f_trace_opcodes``) executed in ``step`` and in every ``Emulator``
method it calls, per step, on the ``lrsc_counter`` SMP guest, and fails
above a committed budget (the measured value + 5 %).  The instruction's
own semantics (its handler, the memory it touches) and the record's
constructor are the instruction's cost, not the interpreter's, and are
not counted.  Bytecode differs between interpreter versions, so the
budget holds only on the CPython minor version it was measured on.

For scale: the step that called ``_fetch`` on every decode-cache hit,
``SideEffects.reset`` and a keyword-argument ``_record`` ran 170.1
opcodes per step here, ``reset``'s own included.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from repro.asm import assemble
from repro.sim.emulator import Emulator
from repro.smp.runner import SmpMachine

from ..uarch.test_hotloop_budget import (OPCODE_PYTHON, check_budget,
                                         count_events)

GUEST = Path(__file__).resolve().parents[2] / "bench" / "guests" \
    / "lrsc_counter.s"

#: Executed opcodes per step in ``Emulator.step`` and the ``Emulator``
#: methods it calls, on CPython 3.11; measured 132.2 when committed.
#: Raise it only with the reason in the commit message.
STEP_OPCODE_BUDGET = 138.8


@pytest.mark.skipif(
    sys.version_info[:2] != OPCODE_PYTHON,
    reason="the opcode budget was measured on CPython "
           f"{'.'.join(map(str, OPCODE_PYTHON))}; bytecode differs between "
           "interpreter versions")
def test_step_stays_inside_its_opcode_budget():
    program = assemble(GUEST.read_text(), compress=True)
    codes = {member.__code__ for member in vars(Emulator).values()
             if hasattr(member, "__code__")}
    machine = SmpMachine(program, cores=1)
    traces, counts = count_events(codes, machine.traces)
    assert machine.harts[0].exit_code == 0
    check_budget("executed opcodes in Emulator.step and its helpers per "
                 "step", counts["opcode"], len(traces[0]), STEP_OPCODE_BUDGET)
