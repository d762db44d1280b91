"""Set-associative cache model.

Used for the L1 instruction/data caches (32/64 KB) and the L2
(256 KB - 8 MB, 8/16-way) described in section II of the paper.  A
line is present or absent; a present line is clean or dirty, and a
dirty line counts a writeback when it is evicted.  The SMP cluster
(:mod:`repro.smp.timing`) keeps its L1Ds coherent by invalidating
sibling copies on every store, so the paper's MOSEI line states are
not modelled (DESIGN.md, known deviations).
"""

from __future__ import annotations

import types
from collections import OrderedDict
from dataclasses import dataclass


@dataclass
class CacheStats:
    """Hit/miss accounting, including prefetch usefulness and RAS events."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    prefetch_hits: int = 0      # demand hits on prefetched lines
    # RAS: ECC on the data array, parity on the tag array.
    ecc_corrected: int = 0      # single-bit data errors repaired in place
    ecc_uncorrectable: int = 0  # multi-bit data errors -> machine check
    parity_errors: int = 0      # tag parity hits -> line dropped, refetched
    ways_disabled: int = 0      # ways quarantined after repeated correctables

    def counters(self) -> dict[str, int]:
        """Flat counter dict (the repro.obs metrics surface)."""
        return dict(vars(self))


@dataclass(slots=True)
class CacheLine:
    dirty: bool = False
    prefetched: bool = False
    way: int = 0                # physical way this line occupies
    data_faults: int = 0        # flipped bits pending in the data array
    tag_fault: bool = False     # flipped bit pending in the tag array


#: What every set of a new cache holds until its first fill: one
#: shared, read-only empty mapping, so building a cache allocates no
#: per-set structure (an L2 has 2048 sets).
_EMPTY_SET = types.MappingProxyType({})


class Cache:
    """An LRU set-associative cache.

    Addresses are split as ``| tag | set | offset |``.  The model tracks
    which lines are present and which of them are dirty (data lives in
    the functional memory), which is exactly what the timing model
    needs.

    A set is made on first fill: until then its ``_sets`` entry is the
    shared read-only ``_EMPTY_SET``, which answers every probe
    (``get``, ``in``, ``len``, iteration) as an empty set would.
    Only :meth:`fill` stores into a set, and it gives the set its own
    ``OrderedDict`` first; every other mutation (LRU update, drop) is
    reached only through a line the set holds, or skips the shared
    mapping.
    """

    #: correctable errors on one (set, way) before it is quarantined
    QUARANTINE_THRESHOLD = 3

    def __init__(self, name: str, size: int, assoc: int,
                 line_size: int = 64,
                 quarantine_threshold: int | None = None):
        if size % (assoc * line_size):
            raise ValueError(
                f"{name}: size {size} not divisible by assoc*line_size")
        self.name = name
        self.size = size
        self.assoc = assoc
        self.line_size = line_size
        self.num_sets = size // (assoc * line_size)
        self._offset_bits = line_size.bit_length() - 1
        self._sets: list[OrderedDict[int, CacheLine]] = \
            [_EMPTY_SET] * self.num_sets  # type: ignore[list-item]
        self.stats = CacheStats()
        # RAS: per-(set, way) correctable-error history, quarantined ways,
        # and callbacks into the machine-check path.
        self.quarantine_threshold = (
            quarantine_threshold if quarantine_threshold is not None
            else self.QUARANTINE_THRESHOLD)
        self._corr_counts: dict[tuple[int, int], int] = {}
        self._disabled_ways: dict[int, set[int]] = {}
        # While True, every set's occupied ways are exactly {0..len-1}
        # (fills append the next way, evictions reuse the victim's), so
        # fill() can assign ways without scanning.  Any out-of-order
        # removal — invalidate, parity/ECC drop, quarantine — clears it.
        self._ways_dense = True
        self.on_corrected = None        # callable(addr, cache_name)
        self.on_uncorrectable = None    # callable(addr, cache_name)

    # -- address helpers ------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr >> self._offset_bits

    def _index(self, line_addr: int) -> int:
        return line_addr % self.num_sets

    # -- operations ------------------------------------------------------------

    def lookup(self, addr: int) -> CacheLine | None:
        """Probe for the line containing *addr*; None on miss.  The LRU
        order is left as it was.

        The probe is where the arrays are actually read, so pending
        ECC/parity faults resolve here: a tag parity error drops the
        line (refetch recovers it), a single data-bit error is corrected
        and counted, a multi-bit error escalates to a machine check.
        """
        laddr = self.line_addr(addr)
        index = self._index(laddr)
        line = self._sets[index].get(laddr)
        if line is not None and (line.tag_fault or line.data_faults):
            line = self._resolve_faults(addr, laddr, index, line)
        return line

    # -- RAS: ECC/parity resolution and fault injection hooks -----------------

    def _resolve_faults(self, addr: int, laddr: int, index: int,
                        line: CacheLine) -> CacheLine | None:
        """Apply SEC-DED/parity semantics to a faulted line being read."""
        cache_set = self._sets[index]
        if line.tag_fault:
            # Tag parity: the match cannot be trusted, so the line is
            # dropped and the access replays as a miss (clean recovery —
            # the data is refetched from the next level).
            self.stats.parity_errors += 1
            del cache_set[laddr]
            self._ways_dense = False
            return None
        if line.data_faults == 1:
            # SEC-DED corrects a single flipped data bit in place.
            self.stats.ecc_corrected += 1
            line.data_faults = 0
            if self.on_corrected is not None:
                self.on_corrected(addr, self.name)
            self._note_corrected(index, line.way)
            if line.way in self._disabled_ways.get(index, ()):
                return None     # correction triggered quarantine
            return line
        # Two or more flipped bits: detected but uncorrectable.
        self.stats.ecc_uncorrectable += 1
        del cache_set[laddr]
        self._ways_dense = False
        if self.on_uncorrectable is not None:
            self.on_uncorrectable(addr, self.name)
        return None

    def _note_corrected(self, index: int, way: int) -> None:
        """Track per-way correctable history; quarantine a weak way."""
        key = (index, way)
        count = self._corr_counts.get(key, 0) + 1
        self._corr_counts[key] = count
        disabled = self._disabled_ways.setdefault(index, set())
        if count >= self.quarantine_threshold \
                and len(disabled) < self.assoc - 1:
            disabled.add(way)
            self.stats.ways_disabled += 1
            self._ways_dense = False
            cache_set = self._sets[index]
            stale = [tag for tag, line in cache_set.items()
                     if line.way == way]
            for tag in stale:
                del cache_set[tag]

    def inject_data_fault(self, addr: int | None = None, bits: int = 1,
                          rng=None) -> int | None:
        """Flip *bits* bits in the data array of a resident line.

        Targets the line holding *addr*, or (with *rng*) a random
        resident line biased toward recently used entries.  Returns the
        faulted line address, or None when nothing is resident.
        """
        picked = self._pick_line(addr, rng)
        if picked is None:
            return None
        laddr, line = picked
        line.data_faults += bits
        return laddr << self._offset_bits

    def inject_tag_fault(self, addr: int | None = None,
                         rng=None) -> int | None:
        """Flip a bit in the tag array of a resident line."""
        picked = self._pick_line(addr, rng)
        if picked is None:
            return None
        laddr, line = picked
        line.tag_fault = True
        return laddr << self._offset_bits

    def _pick_line(self, addr: int | None,
                   rng) -> tuple[int, CacheLine] | None:
        """The resident ``(line address, line)`` a fault lands on."""
        if addr is not None:
            laddr = self.line_addr(addr)
            line = self._sets[self._index(laddr)].get(laddr)
            return None if line is None else (laddr, line)
        # MRU end of each set's LRU order: the lines a running workload
        # is most likely to touch again.
        candidates = [next(reversed(cache_set.items()))
                      for cache_set in self._sets if cache_set]
        if not candidates:
            return None
        if rng is None:
            return candidates[0]
        return rng.choice(candidates)

    def scrub(self) -> dict[str, int]:
        """Background scrubber: sweep every line, resolving latent faults.

        Returns the delta of RAS events this sweep produced.
        """
        before = (self.stats.ecc_corrected, self.stats.ecc_uncorrectable,
                  self.stats.parity_errors)
        for index, cache_set in enumerate(self._sets):
            for laddr, line in list(cache_set.items()):
                if line.tag_fault or line.data_faults:
                    self._resolve_faults(laddr << self._offset_bits,
                                         laddr, index, line)
        return {
            "corrected": self.stats.ecc_corrected - before[0],
            "uncorrectable": self.stats.ecc_uncorrectable - before[1],
            "parity": self.stats.parity_errors - before[2],
        }

    def disabled_way_count(self) -> int:
        """Total quarantined ways across all sets."""
        return sum(len(ways) for ways in self._disabled_ways.values())

    def access(self, addr: int, is_write: bool = False) -> bool:
        """Demand access; returns True on hit and updates stats and the
        LRU order (a write hit marks the line dirty)."""
        # Inlined lookup(): this runs once per demand access at every
        # level, so the common clean-hit path avoids the extra call.
        laddr = addr >> self._offset_bits
        index = laddr % self.num_sets
        cache_set = self._sets[index]
        line = cache_set.get(laddr)
        if line is None:
            self.stats.misses += 1
            return False
        if line.tag_fault or line.data_faults:
            line = self._resolve_faults(addr, laddr, index, line)
            if line is None:
                self.stats.misses += 1
                return False
        cache_set.move_to_end(laddr)
        self.stats.hits += 1
        if line.prefetched:
            self.stats.prefetch_hits += 1
            line.prefetched = False
        if is_write:
            line.dirty = True
        return True

    def fill(self, addr: int, dirty: bool = False,
             prefetched: bool = False) -> CacheLine | None:
        """Insert the line for *addr*; returns the evicted line (if any).

        *dirty* is a write-allocate fill: the store that missed has
        written the line.  Refilling a present line can mark it dirty
        but never cleans it.
        """
        laddr = self.line_addr(addr)
        index = self._index(laddr)
        cache_set = self._sets[index]
        if cache_set is _EMPTY_SET:
            cache_set = self._sets[index] = OrderedDict()
        victim: CacheLine | None = None
        if laddr in cache_set:
            line = cache_set[laddr]
            if dirty:
                line.dirty = True
            line.prefetched = prefetched
            cache_set.move_to_end(laddr)
            return None
        disabled = self._disabled_ways.get(index, ())
        if len(cache_set) >= self.assoc - len(disabled):
            _, victim = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if victim.dirty:
                self.stats.writebacks += 1
        if victim is not None:
            way = victim.way
        elif self._ways_dense and not disabled:
            way = len(cache_set)
        else:
            used = {line.way for line in cache_set.values()}
            way = next((w for w in range(self.assoc)
                        if w not in used and w not in disabled), 0)
        cache_set[laddr] = CacheLine(dirty=dirty, prefetched=prefetched,
                                     way=way)
        if prefetched:
            self.stats.prefetch_fills += 1
        return victim

    def invalidate(self, addr: int) -> CacheLine | None:
        """Drop the line containing *addr*; returns it if present."""
        laddr = self.line_addr(addr)
        cache_set = self._sets[self._index(laddr)]
        if cache_set is _EMPTY_SET:
            return None
        line = cache_set.pop(laddr, None)
        if line is not None:
            self._ways_dense = False
        return line

    def contains(self, addr: int) -> bool:
        return self.lookup(addr) is not None

    @property
    def occupancy(self) -> int:
        return sum(len(s) for s in self._sets)

    def lines(self):
        """Iterate over all (line_addr, CacheLine) pairs."""
        for cache_set in self._sets:
            yield from cache_set.items()
