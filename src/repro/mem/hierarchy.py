"""The per-core memory hierarchy timing model.

Composes the L1I/L1D caches, a private or cluster-shared L2 (not
inclusive: an L2 eviction leaves L1 copies in place), the multi-size
TLBs, the multi-mode multi-stream prefetchers and the fixed-latency
DRAM into one object with two entry points:

* :meth:`MemoryHierarchy.access_data` — loads/stores from the LSU,
* :meth:`MemoryHierarchy.access_inst` — fetch-line requests from the IFU.

Both return a latency in cycles.  Prefetches are timeliness-modeled: an
in-flight prefetch has a ready-cycle, and a demand access that arrives
early pays only the remaining latency (this is what makes the Fig. 21
small-vs-large distance experiment behave like the paper's).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from .cache import Cache
from .dram import Dram, DramConfig
from .prefetch import PrefetchConfig, StreamPrefetcher
from .tlb import Tlb, TlbConfig


@dataclass
class MemHierConfig:
    """Sizes/latencies for one core's hierarchy (paper Table I defaults)."""

    line_size: int = 64
    l1i_size: int = 64 << 10
    l1i_assoc: int = 4
    l1d_size: int = 64 << 10
    l1d_assoc: int = 4
    l2_size: int = 1 << 20
    l2_assoc: int = 16
    l1_latency: int = 1          # beyond the pipelined load-to-use stages
    l2_latency: int = 12
    dram: DramConfig = field(default_factory=DramConfig)
    l1_prefetch: PrefetchConfig = field(default_factory=PrefetchConfig)
    l2_prefetch: PrefetchConfig = field(
        default_factory=lambda: PrefetchConfig(distance=8, max_depth=64))
    tlb: TlbConfig = field(default_factory=TlbConfig)
    tlb_prefetch: bool = True
    model_tlb: bool = True
    ptw_latency: int = 90        # 3 PTE loads, typically L2-resident tables
    mshrs: int = 4               # outstanding demand-load misses (MLP cap)


@dataclass
class HierarchyStats:
    loads: int = 0
    stores: int = 0
    inst_fetches: int = 0
    tlb_stall_cycles: int = 0
    l1d_miss_stall_cycles: int = 0

    def counters(self) -> dict[str, int]:
        """Flat counter dict (the repro.obs metrics surface)."""
        return dict(vars(self))


class MemoryHierarchy:
    """One core's view of the memory system."""

    #: The store-hit hook of the timing model's inlined L1 fast path.
    #: ``PipelineModel._run_stream`` completes a store or AMO that hits
    #: a clean, valid L1D line in place, without :meth:`access_data`,
    #: and then calls ``snoop_store_hit(vaddr)`` if it is set, adding
    #: the latency it returns.  A subclass whose stores are visible outside
    #: this hierarchy (write-invalidate coherence) defines it as a
    #: method and calls it from its own ``access_data`` for the stores
    #: that take the slow path.  ``None`` here: a store hit is local.
    snoop_store_hit = None

    def __init__(self, config: MemHierConfig | None = None,
                 l2: Cache | None = None, dram: Dram | None = None):
        self.config = config = config if config is not None else MemHierConfig()
        ls = config.line_size
        self.l1i = Cache("L1I", config.l1i_size, config.l1i_assoc, ls)
        self.l1d = Cache("L1D", config.l1d_size, config.l1d_assoc, ls)
        self.l2 = l2 if l2 is not None else Cache(
            "L2", config.l2_size, config.l2_assoc, ls)
        self.dram = dram if dram is not None else Dram(config.dram)
        self.tlb = Tlb(config.tlb)
        self.stats = HierarchyStats()
        self._line_shift = ls.bit_length() - 1
        self._pending_l1: dict[int, int] = {}   # line -> ready cycle
        self._pending_l2: dict[int, int] = {}
        self._mshr_heap: list[int] = []          # demand-miss completions

        # RAS: forward per-cache ECC events to whoever owns the hart
        # (the campaign/emulator wires these to the machine-check path).
        self.on_corrected = None        # callable(addr, source_name)
        self.on_uncorrectable = None    # callable(addr, source_name)
        for cache in (self.l1i, self.l1d, self.l2):
            cache.on_corrected = self._ras_corrected
            cache.on_uncorrectable = self._ras_uncorrectable

        tlb_fn = self._tlb_prefetch if (config.tlb_prefetch
                                        and config.model_tlb) else None
        self.l1_prefetcher = StreamPrefetcher(
            config.l1_prefetch, ls, self._issue_l1_prefetch, tlb_fn)
        self.l2_prefetcher = StreamPrefetcher(
            config.l2_prefetch, ls, self._issue_l2_prefetch, tlb_fn)

    # -- translation --------------------------------------------------------------

    def translate(self, vaddr: int, cycle: int) -> int:
        """TLB lookup; returns added latency (0 on uTLB hit)."""
        if not self.config.model_tlb:
            return 0
        latency, entry = self.tlb.translate(vaddr)
        if entry is None:
            latency += self.config.ptw_latency
            self.tlb.refill(vaddr)
        self.stats.tlb_stall_cycles += latency
        return latency

    # -- RAS ----------------------------------------------------------------------

    def _ras_corrected(self, addr: int, source: str) -> None:
        if self.on_corrected is not None:
            self.on_corrected(addr, source)

    def _ras_uncorrectable(self, addr: int, source: str) -> None:
        if self.on_uncorrectable is not None:
            self.on_uncorrectable(addr, source)

    def scrub(self) -> dict[str, dict[str, int]]:
        """Sweep every array for latent faults (end-of-run scrubber)."""
        report = {cache.name: cache.scrub()
                  for cache in (self.l1i, self.l1d, self.l2)}
        report["TLB"] = {"parity": self.tlb.scrub()}
        return report

    def ras_summary(self) -> dict[str, int]:
        """Aggregate RAS counters across all arrays."""
        caches = (self.l1i, self.l1d, self.l2)
        return {
            "ecc_corrected": sum(c.stats.ecc_corrected for c in caches),
            "ecc_uncorrectable": sum(
                c.stats.ecc_uncorrectable for c in caches),
            "parity_errors": sum(c.stats.parity_errors for c in caches)
            + self.tlb.stats.parity_errors,
            "ways_disabled": sum(c.disabled_way_count() for c in caches),
        }

    def _tlb_prefetch(self, vpage: int) -> None:
        vaddr = vpage << 12
        if not self.tlb.contains(vaddr):
            self.tlb.refill(vaddr, prefetched=True)

    # -- demand paths --------------------------------------------------------------

    def access_data(self, vaddr: int, cycle: int, is_write: bool = False,
                    size: int = 8) -> int:
        """One LSU access; returns total latency in cycles."""
        stats = self.stats
        if is_write:
            stats.stores += 1
        else:
            stats.loads += 1
        shift = self._line_shift
        latency = self.translate(vaddr, cycle)
        first_line = vaddr >> shift
        last_line = (vaddr + max(size, 1) - 1) >> shift
        latency += self._access_line(vaddr, cycle + latency, is_write)
        if last_line != first_line:  # line-crossing access: second lookup
            next_addr = (first_line + 1) << shift
            latency += 1 + self._access_line(next_addr, cycle + latency,
                                             is_write)
        self.l1_prefetcher.observe(vaddr, cycle)
        return latency

    def _access_line(self, addr: int, cycle: int, is_write: bool) -> int:
        cfg = self.config
        if self.l1d.access(addr, is_write):
            return cfg.l1_latency
        # L1 miss: maybe an in-flight prefetch covers it.
        line = self.l1d.line_addr(addr)
        stall = self._consume_pending(self._pending_l1, line, cycle)
        if stall is not None:
            self.l1d.fill(addr, dirty=is_write, prefetched=True)
            self.l1d.stats.prefetch_hits += 1
            self.stats.l1d_miss_stall_cycles += stall
            return cfg.l1_latency + stall
        # Demand-load misses contend for MSHRs: the LSU can only track
        # a handful of outstanding misses, capping memory-level
        # parallelism (stores drain through the write buffer instead).
        mshr_wait = 0 if is_write else self._mshr_wait(cycle)
        start = cycle + mshr_wait
        self.l2_prefetcher.observe(addr, start)
        downstream = self._access_l2(addr, start, is_write)
        latency = cfg.l1_latency + mshr_wait + downstream
        if not is_write:
            heapq.heappush(self._mshr_heap, start + downstream)
        self.l1d.fill(addr, dirty=is_write)
        self.stats.l1d_miss_stall_cycles += latency - cfg.l1_latency
        return latency

    def _mshr_wait(self, cycle: int) -> int:
        heap = self._mshr_heap
        while heap and heap[0] <= cycle:
            heapq.heappop(heap)
        if len(heap) < self.config.mshrs:
            return 0
        earliest = heapq.heappop(heap)
        return max(0, earliest - cycle)

    def _access_l2(self, addr: int, cycle: int, is_write: bool) -> int:
        cfg = self.config
        if self.l2.access(addr, is_write):
            return cfg.l2_latency
        line = self.l2.line_addr(addr)
        stall = self._consume_pending(self._pending_l2, line, cycle)
        if stall is not None:
            self.l2.fill(addr, prefetched=True)
            self.l2.stats.prefetch_hits += 1
            return cfg.l2_latency + stall
        ready = self.dram.request(cycle, cfg.line_size)
        self.l2.fill(addr)
        return cfg.l2_latency + (ready - cycle)

    def access_inst(self, vaddr: int, cycle: int) -> int:
        """IFU line fetch; returns latency (0 = same-cycle L1I hit)."""
        self.stats.inst_fetches += 1
        if self.l1i.access(vaddr):
            return 0
        if self.l2.access(vaddr):
            self.l1i.fill(vaddr)
            return self.config.l2_latency
        ready = self.dram.request(cycle, self.config.line_size)
        self.l2.fill(vaddr)
        self.l1i.fill(vaddr)
        return self.config.l2_latency + (ready - cycle)

    # -- prefetch plumbing ------------------------------------------------------------

    @staticmethod
    def _consume_pending(pending: dict[int, int], line: int,
                         cycle: int) -> int | None:
        """Pop an in-flight prefetch; returns the residual stall or None."""
        ready = pending.pop(line, None)
        if ready is None:
            return None
        return max(0, ready - cycle)

    def _issue_l1_prefetch(self, addr: int, cycle: int) -> None:
        line = self.l1d.line_addr(addr)
        if self.l1d.contains(addr) or line in self._pending_l1:
            return
        if self.l2.contains(addr):
            ready = cycle + self.config.l2_latency
        else:
            # The L2 prefetcher trains on all L2-reaching traffic,
            # including L1 prefetch fills — that is what lets it run a
            # full prefetch distance ahead of the L1 engine.
            self.l2_prefetcher.observe(addr, cycle)
            l2_line = self.l2.line_addr(addr)
            pending = self._pending_l2.get(l2_line)
            if pending is not None:
                ready = pending
            else:
                ready = self.dram.request(cycle, self.config.line_size)
            self.l2.fill(addr, prefetched=True)
        self._pending_l1[line] = ready

    def _issue_l2_prefetch(self, addr: int, cycle: int) -> None:
        line = self.l2.line_addr(addr)
        if self.l2.contains(addr) or line in self._pending_l2:
            return
        ready = self.dram.request(cycle, self.config.line_size)
        self._pending_l2[line] = ready

    def drain_pending(self) -> None:
        """Materialize all in-flight prefetches (end-of-run cleanup)."""
        for line in list(self._pending_l1):
            self.l1d.fill(line << (self.config.line_size.bit_length() - 1),
                          prefetched=True)
        for line in list(self._pending_l2):
            self.l2.fill(line << (self.config.line_size.bit_length() - 1),
                         prefetched=True)
        self._pending_l1.clear()
        self._pending_l2.clear()
