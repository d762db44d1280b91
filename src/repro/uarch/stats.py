"""Aggregated run statistics for one core."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class CoreStats:
    """Everything a benchmark harness needs to report."""

    instructions: int = 0
    uops: int = 0
    cycles: int = 0
    # frontend
    fetch_bubbles: int = 0
    taken_branch_bubbles: int = 0
    direction_mispredicts: int = 0
    target_mispredicts: int = 0
    ras_mispredicts: int = 0
    indirect_mispredicts: int = 0
    branches: int = 0
    icache_stall_cycles: int = 0
    lbuf_supplied: int = 0
    # backend
    rob_stall_cycles: int = 0
    iq_stall_cycles: int = 0
    sq_stall_cycles: int = 0
    lsu_violations: int = 0
    lsu_forwards: int = 0
    memdep_delays: int = 0
    serializations: int = 0
    vector_instructions: int = 0
    vector_beats: int = 0
    # RAS (reliability) events from the memory hierarchy
    ecc_corrected: int = 0
    ecc_uncorrectable: int = 0
    parity_errors: int = 0
    ways_disabled: int = 0
    # emulator decode cache (functional front end, not the timing I$)
    decode_cache_hits: int = 0
    decode_cache_misses: int = 0

    extra: dict = field(default_factory=dict)

    #: Fields excluded from :meth:`as_comparable`: ``extra`` holds
    #: harness-side annotations (block-cache counters) and the decode
    #: cache belongs to the functional emulator, not the timing model,
    #: so neither is part of the timing-equivalence contract.
    _NON_TIMING_FIELDS = frozenset(
        {"extra", "decode_cache_hits", "decode_cache_misses"})

    def as_comparable(self) -> dict:
        """Timing-model counters as a plain dict, for equality checks.

        Two models are *stats-identical* iff their ``as_comparable()``
        dicts are equal; this is the contract the fast path is gated on.
        """
        return {name: value for name, value in vars(self).items()
                if name not in self._NON_TIMING_FIELDS}

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    @property
    def cpi(self) -> float:
        return self.cycles / self.instructions if self.instructions else 0.0

    @property
    def branch_mispredict_rate(self) -> float:
        if not self.branches:
            return 0.0
        return self.direction_mispredicts / self.branches

    def summary(self) -> str:
        lines = [
            f"instructions      {self.instructions}",
            f"cycles            {self.cycles}",
            f"IPC               {self.ipc:.3f}",
            f"branches          {self.branches}"
            f" (mispredict {100 * self.branch_mispredict_rate:.2f}%)",
            f"taken bubbles     {self.taken_branch_bubbles}",
            f"icache stalls     {self.icache_stall_cycles}",
            f"LBUF supplied     {self.lbuf_supplied}",
            f"LSU violations    {self.lsu_violations}"
            f" forwards {self.lsu_forwards}",
        ]
        if self.decode_cache_hits or self.decode_cache_misses:
            total = self.decode_cache_hits + self.decode_cache_misses
            rate = 100 * self.decode_cache_hits / total if total else 0.0
            lines.append(
                f"decode cache      {self.decode_cache_hits} hits /"
                f" {self.decode_cache_misses} misses ({rate:.1f}%)")
        if (self.ecc_corrected or self.ecc_uncorrectable
                or self.parity_errors or self.ways_disabled):
            lines.append(
                f"RAS events        ecc_corrected {self.ecc_corrected}"
                f" uncorrectable {self.ecc_uncorrectable}"
                f" parity {self.parity_errors}"
                f" ways_disabled {self.ways_disabled}")
        return "\n".join(lines)
