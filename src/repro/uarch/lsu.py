"""LSU ordering structures (paper section V.A).

The model covers the three mechanisms the paper describes:

* **LQ/SQ ordering checks** — a load probes all older stores still in
  the store queue; matching addresses forward; a load that slipped past
  an older same-address store whose address was not yet known triggers
  a speculative failure and a global flush.
* **store-to-load forwarding** — same-address older store with data
  ready forwards at a short latency instead of going to the cache.
* **memory-dependence prediction** — loads that caused violations are
  tagged; future instances are held until the conflicting store's
  address resolves ("the execution is blocked by the execution unit to
  ensure that the load instruction is not executed ahead of the store").
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class StoreRecord:
    """One in-flight store's timing/address facts."""

    seq: int
    pc: int
    addr: int
    size: int
    addr_ready: int      # cycle the st.addr uop completes
    data_ready: int      # cycle the st.data uop completes

    def overlaps(self, addr: int, size: int) -> bool:
        return addr < self.addr + self.size and self.addr < addr + size


class MemDepPredictor:
    """Store-set-lite: tags load PCs that violated ordering."""

    def __init__(self, entries: int = 256, enabled: bool = True):
        self.entries = entries
        self.enabled = enabled
        self._tagged: dict[int, int] = {}   # load pc -> confidence

    def predicts_conflict(self, load_pc: int) -> bool:
        return self.enabled and self._tagged.get(load_pc, 0) > 0

    def train_violation(self, load_pc: int) -> None:
        if not self.enabled:
            return
        if len(self._tagged) >= self.entries and load_pc not in self._tagged:
            # Evict the weakest tag.
            weakest = min(self._tagged, key=self._tagged.get)
            del self._tagged[weakest]
        self._tagged[load_pc] = min(self._tagged.get(load_pc, 0) + 2, 3)

    def train_no_conflict(self, load_pc: int) -> None:
        if load_pc in self._tagged:
            self._tagged[load_pc] -= 1
            if self._tagged[load_pc] <= 0:
                del self._tagged[load_pc]

