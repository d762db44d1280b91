"""Functional SMP execution: several harts sharing one memory.

The emulators share a single :class:`~repro.sim.memory.Memory` and step
round-robin; LR/SC reservations and AMOs provide synchronization, and
``mhartid`` tells each hart who it is — enough to run real parallel
kernels (the section VI claim that each cluster's cores boot one
coherent OS reduces, at this modeling level, to coherent shared-memory
execution with working atomics).

Every multi-hart run goes through one loop, :meth:`SmpMachine.quanta`:
each turn it calls each live hart's tier-1 ``Emulator.step``
``interleave`` times, and every few turns it hands each hart's new
records to its caller and drops them.  Functional runs
(:meth:`SmpMachine.run`) only count them; timed ones
(:func:`~repro.smp.timing.run_smp_timing`) time each hart's batch as
soon as it is handed over, so no run keeps a whole trace.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from ..asm.program import Program, STACK_TOP
from ..sim.emulator import Emulator
from ..sim.memory import Memory
from ..sim.state import MachineState
from ..sim.trace import DynInst


@dataclass
class SmpResult:
    exit_codes: list[int]
    steps: list[int]
    memory: Memory


class SmpMachine:
    """N harts, one physical memory, round-robin interleaving."""

    def __init__(self, program: Program, cores: int = 4,
                 interleave: int = 1,
                 vlen: int = MachineState.VLEN_DEFAULT):
        self.memory = Memory()
        self.memory.load_program(program)
        self.interleave = interleave
        self.harts = [
            Emulator(program, memory=self.memory, hart_id=i,
                     stack_top=STACK_TOP, load=False, vlen=vlen)
            for i in range(cores)
        ]
        # Any store by another hart breaks an LR reservation; emulators
        # share memory but not reservation state, so bridge it here.
        self._wrap_reservations()

    def _wrap_reservations(self) -> None:
        original_store = self.memory.store_bytes
        original_store_int = self.memory.store_int
        harts = self.harts

        def break_reservations(addr: int, size: int) -> None:
            for hart in harts:
                reservation = hart.state.reservation
                if reservation is not None and \
                        addr <= reservation < addr + max(size, 1):
                    hart.state.reservation = None

        def store_bytes(addr: int, data: bytes | memoryview) -> None:
            original_store(addr, data)
            break_reservations(addr, len(data))

        def store_int(addr: int, value: int, size: int) -> None:
            original_store_int(addr, value, size)
            break_reservations(addr, size)

        # Both entry points must be wrapped: store_int has a single-page
        # RAM fast path that writes pages directly without going through
        # store_bytes.  Wrapping them also turns off Memory.ram_view's
        # writable views, so the numpy vector engine's batched stores
        # come through here too.
        self.memory.store_bytes = store_bytes  # type: ignore[method-assign]
        self.memory.store_int = store_int  # type: ignore[method-assign]

    def quanta(self, turns: int, max_steps_per_hart: int = 5_000_000
               ) -> Iterator[list[list[DynInst]]]:
        """Round-robin step all harts until they all exit, yielding each
        hart's new records every *turns* turns.

        This is the one multi-hart loop.  Every turn steps each live
        hart ``interleave`` times (fewer if it exits); a hart that exits
        leaves the rotation after the turn it exits in.  Every *turns*
        turns, and once more after the last hart exits, the loop yields
        one list per hart (in hart order) of the records it retired
        since the previous yield — empty for a hart that has exited —
        and keeps none of them.  A hart whose step
        *max_steps_per_hart* + 1 retires raises ``RuntimeError`` naming
        it, in the middle of its turn.
        """
        interleave = self.interleave
        harts = self.harts
        steps = [0] * len(harts)
        live = list(enumerate(harts))
        while live:
            batches: list[list[DynInst]] = [[] for _ in harts]
            for _ in range(turns):
                for index, hart in live:
                    batch = batches[index]
                    taken = len(batch)
                    count = interleave
                    room = max_steps_per_hart - steps[index]
                    if room < count:
                        count = room + 1
                    step = hart.step
                    append = batch.append
                    for _ in range(count):
                        append(step())
                        if hart.halted:
                            break
                    steps[index] += len(batch) - taken
                    if steps[index] > max_steps_per_hart:
                        raise RuntimeError(
                            f"hart {index} exceeded {max_steps_per_hart} "
                            "steps")
                live = [entry for entry in live if not entry[1].halted]
                if not live:
                    break
            yield batches

    def traces(self, max_steps_per_hart: int = 5_000_000
               ) -> list[list[DynInst]]:
        """Run :meth:`quanta` to the end, collecting each hart's
        dynamic records in retirement order."""
        traces: list[list[DynInst]] = [[] for _ in self.harts]
        for batches in self.quanta(64, max_steps_per_hart):
            for trace, batch in zip(traces, batches):
                trace.extend(batch)
        return traces

    def run(self, max_steps_per_hart: int = 5_000_000) -> SmpResult:
        """Run :meth:`quanta` to the end, counting each hart's steps and
        keeping none of its records."""
        steps = [0] * len(self.harts)
        for batches in self.quanta(1, max_steps_per_hart):
            for index, batch in enumerate(batches):
                steps[index] += len(batch)
        return SmpResult(
            exit_codes=[h.exit_code if h.exit_code is not None else -1
                        for h in self.harts],
            steps=steps, memory=self.memory)


def run_smp(program: Program, cores: int = 4,
            interleave: int = 1) -> SmpResult:
    """Run *program* on all harts simultaneously."""
    machine = SmpMachine(program, cores=cores, interleave=interleave)
    return machine.run()
