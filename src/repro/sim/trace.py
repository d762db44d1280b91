"""Dynamic-instruction records consumed by the timing model.

The timing pipeline is trace-driven: the functional emulator retires an
instruction and emits one :class:`DynInst` carrying everything the
cycle model needs — control-flow outcome for predictor training, memory
footprint for the cache/TLB hierarchy, and the static
:class:`~repro.isa.instructions.Instruction` for operand dependences.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..isa.instructions import Instruction


@dataclass(slots=True)
class DynInst:
    """One retired instruction in the dynamic stream."""

    seq: int
    pc: int
    inst: Instruction
    next_pc: int
    # Control flow (valid when inst is a branch/jump).
    taken: bool = False
    target: int = 0
    # Memory (valid for loads/stores/AMOs; vector accesses set
    # mem_size to the whole access footprint).
    mem_addr: int = 0
    mem_size: int = 0
    # Vector state at this instruction (for slice timing).
    vl: int = 0
    sew: int = 0
    # Dividend magnitude (bit length) for early-out divider timing.
    div_bits: int = 0

    @property
    def is_store(self) -> bool:
        return self.inst.spec.iclass.value in ("store", "vstore", "amo")


class RecordBatch(list):
    """The persistent record list of one translated block.

    A plain ``list`` of :class:`DynInst` slots plus one opaque
    ``resolved`` slot for the batch's consumer: the timing model parks
    its per-position static resolution there
    (``PipelineModel._run_stream``), so a block that is replayed
    thousands of times is resolved once.  The slot belongs to whoever
    wrote it — a consumer must recognise its own value and overwrite
    anything else — and it dies with the batch: a re-translated block
    gets a fresh ``RecordBatch``, so whatever invalidates the block
    invalidates the resolution.  Slices and copies are plain lists (or
    empty-slot batches): ``resolved`` may reference consumer state and
    is never pickled or copied.
    """

    __slots__ = ("resolved",)

    def __init__(self, records=()):
        super().__init__(records)
        self.resolved = None

    def __reduce__(self):
        return RecordBatch, (), None, iter(self)
