"""Pipeline event trace: per-instruction stage-entry cycles.

:class:`PipelineTracer` is the hook object the timing model calls once
per instruction from its batched hot loop
(``PipelineModel.tracer``, None-guarded like the sanitizer hooks).
Records land in a bounded ring buffer — the ``--trace-window`` knob —
and export in two formats:

* **Kanata** (a.k.a. Konata), the pipeline-visualiser format: a
  ``Kanata\\t0004`` header, a cycle cursor (``C=`` start, ``C`` delta)
  and per-instruction ``I``/``L``/``S``/``E``/``R`` lines.  The five
  modeled stages map onto lane 0 as F → Dc → Rn → Is → Cm.
* **JSONL**, one object per instruction for ad-hoc tooling.

The model does not time retirement per instruction (the ROB drains at
``complete + 2`` — see ``PipelineModel._drain``), so the exported
retire cycle is that same synthetic skew.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, TextIO

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..isa.instructions import Instruction
    from ..sim.trace import DynInst

KANATA_HEADER = "Kanata\t0004"

#: modeled stage names in pipeline order (fetch, decode, rename/
#: dispatch, issue, complete) — the Konata lane-0 sequence.
STAGES = ("F", "Dc", "Rn", "Is", "Cm")

#: synthetic retire skew: the ROB retires entries at complete + 2.
RETIRE_SKEW = 2

DEFAULT_WINDOW = 65_536


@dataclass(slots=True)
class TraceRecord:
    """Stage-entry cycles of one dynamic instruction."""

    seq: int
    pc: int
    inst: "Instruction"
    fetch: int
    decode: int
    dispatch: int
    issue: int
    complete: int

    @property
    def retire(self) -> int:
        return self.complete + RETIRE_SKEW

    def stage_cycles(self) -> tuple[int, int, int, int, int]:
        """Cycles in :data:`STAGES` order."""
        return (self.fetch, self.decode, self.dispatch, self.issue,
                self.complete)

    def text(self) -> str:
        from ..isa.disasm import disassemble

        return disassemble(self.inst, self.pc)

    def as_dict(self) -> dict[str, Any]:
        return {
            "seq": self.seq,
            "pc": self.pc,
            "asm": self.text(),
            "fetch": self.fetch,
            "decode": self.decode,
            "dispatch": self.dispatch,
            "issue": self.issue,
            "complete": self.complete,
            "retire": self.retire,
        }


class PipelineTracer:
    """Bounded ring buffer of per-instruction stage timings.

    The hot loop hands over the live ``DynInst`` whose slot the block
    engine reuses between batches, so :meth:`record` copies the
    primitives immediately; the ``Instruction`` itself persists in the
    decode cache and is kept by reference.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window <= 0:
            raise ValueError(f"trace window must be positive, got {window}")
        self.window = window
        self._records: deque[TraceRecord] = deque(maxlen=window)
        #: total instructions seen (the ring may have dropped older ones)
        self.recorded = 0

    def record(self, dyn: "DynInst", fetch: int, decode: int,
               dispatch: int, issue: int, complete: int) -> None:
        """Hot-loop hook: capture one instruction's stage cycles."""
        self.recorded += 1
        self._records.append(TraceRecord(
            dyn.seq, dyn.pc, dyn.inst, fetch, decode, dispatch, issue,
            complete))

    def records(self) -> list[TraceRecord]:
        return list(self._records)

    def __len__(self) -> int:
        return len(self._records)

    # -- export -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Export by extension: ``.jsonl`` → JSONL, anything else Kanata."""
        if path.endswith(".jsonl"):
            self.write_jsonl(path)
        else:
            self.write_kanata(path)

    def write_kanata(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(render_kanata(self.records()))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            self.dump_jsonl(handle)

    def dump_jsonl(self, handle: TextIO) -> None:
        for rec in self._records:
            handle.write(json.dumps(rec.as_dict()) + "\n")


def render_kanata(records: list[TraceRecord]) -> str:
    """Render trace records as Kanata text.

    Events from all instructions are merged into one monotonic cycle
    stream (the format's cycle cursor only moves forward); each record
    becomes an ``I``/``L`` pair, one ``S`` per stage entry, an ``E``
    closing the last stage and an ``R`` retire line.
    """
    if not records:
        return f"{KANATA_HEADER}\nC=\t0\n"
    # (cycle, record index, intra-record order, line)
    events: list[tuple[int, int, int, str]] = []
    for lane_id, rec in enumerate(records):
        stages = rec.stage_cycles()
        events.append((stages[0], lane_id, 0,
                       f"I\t{lane_id}\t{rec.seq}\t0"))
        events.append((stages[0], lane_id, 1,
                       f"L\t{lane_id}\t0\t{rec.pc:#x}: {rec.text()}"))
        for sidx, (name, cyc) in enumerate(zip(STAGES, stages)):
            events.append((cyc, lane_id, 2 + sidx,
                           f"S\t{lane_id}\t0\t{name}"))
        retire = rec.retire
        events.append((retire, lane_id, 2 + len(STAGES),
                       f"E\t{lane_id}\t0\t{STAGES[-1]}"))
        events.append((retire, lane_id, 3 + len(STAGES),
                       f"R\t{lane_id}\t{rec.seq}\t0"))
    events.sort()
    start = events[0][0]
    lines = [KANATA_HEADER, f"C=\t{start}"]
    current = start
    for cycle, _lane, _order, text in events:
        if cycle > current:
            lines.append(f"C\t{cycle - current}")
            current = cycle
        lines.append(text)
    return "\n".join(lines) + "\n"


@dataclass
class ParsedInst:
    """One instruction reconstructed from a Kanata file."""

    lane_id: int
    seq: int
    thread: int
    label: str = ""
    #: stage name -> entry cycle, in first-seen order
    stages: dict[str, int] | None = None
    ended: dict[str, int] | None = None
    retired: int | None = None
    retire_type: int = 0


def parse_kanata(text: str) -> dict[int, ParsedInst]:
    """Parse Kanata text back into per-instruction stage cycles.

    Strict enough to act as the format validator for the golden test:
    raises ``ValueError`` on a bad header, an unknown line type, a
    non-monotonic cycle cursor, or an event for an undeclared id.
    """
    lines = text.splitlines()
    if not lines or lines[0] != KANATA_HEADER:
        raise ValueError("not a Kanata file: missing Kanata\\t0004 header")
    insts: dict[int, ParsedInst] = {}
    cycle: int | None = None
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split("\t")
        kind = fields[0]
        if kind == "C=":
            cycle = int(fields[1])
            continue
        if kind == "C":
            if cycle is None:
                raise ValueError(f"line {lineno}: C before C=")
            delta = int(fields[1])
            if delta < 0:
                raise ValueError(f"line {lineno}: cycle cursor moved "
                                 f"backwards ({delta})")
            cycle += delta
            continue
        if kind == "I":
            lane_id = int(fields[1])
            insts[lane_id] = ParsedInst(
                lane_id=lane_id, seq=int(fields[2]), thread=int(fields[3]),
                stages={}, ended={})
            continue
        if kind not in ("L", "S", "E", "R"):
            raise ValueError(f"line {lineno}: unknown record {kind!r}")
        lane_id = int(fields[1])
        inst = insts.get(lane_id)
        if inst is None:
            raise ValueError(f"line {lineno}: {kind} for undeclared id "
                             f"{lane_id}")
        if kind == "L":
            inst.label = fields[3]
        elif kind == "S":
            if cycle is None:
                raise ValueError(f"line {lineno}: S before C=")
            assert inst.stages is not None
            inst.stages[fields[3]] = cycle
        elif kind == "E":
            if cycle is None:
                raise ValueError(f"line {lineno}: E before C=")
            assert inst.ended is not None
            inst.ended[fields[3]] = cycle
        elif kind == "R":
            if cycle is None:
                raise ValueError(f"line {lineno}: R before C=")
            inst.retired = cycle
            inst.retire_type = int(fields[3])
    return insts


def read_kanata(path: str) -> dict[int, ParsedInst]:
    with open(path) as handle:
        return parse_kanata(handle.read())
