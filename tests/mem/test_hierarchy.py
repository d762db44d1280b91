"""Memory-hierarchy integration tests: latencies, prefetch timeliness."""

from repro.mem import MemHierConfig, MemoryHierarchy, PrefetchConfig
from repro.mem.dram import DramConfig


def make_hier(**kw) -> MemoryHierarchy:
    defaults = dict(
        dram=DramConfig(latency=200),
        l1_prefetch=PrefetchConfig.disabled(),
        l2_prefetch=PrefetchConfig.disabled(),
        model_tlb=False,
    )
    defaults.update(kw)
    return MemoryHierarchy(MemHierConfig(**defaults))


class TestDemandPath:
    def test_cold_miss_costs_dram(self):
        h = make_hier()
        lat = h.access_data(0x10000, cycle=0)
        assert lat > 200

    def test_l1_hit_after_fill(self):
        h = make_hier()
        h.access_data(0x10000, 0)
        lat = h.access_data(0x10008, 300)
        assert lat == h.config.l1_latency

    def test_l2_hit_after_l1_eviction(self):
        h = make_hier(l1d_size=1024, l1d_assoc=1)  # 16 sets
        h.access_data(0x0, 0)
        h.access_data(16 * 64, 1000)     # evicts line 0 from tiny L1
        lat = h.access_data(0x0, 2000)
        assert lat == h.config.l1_latency + h.config.l2_latency

    def test_writes_mark_dirty(self):
        h = make_hier()
        h.access_data(0x10000, 0, is_write=True)
        assert h.l1d.lookup(0x10000).dirty

    def test_store_miss_stream_writes_back_every_eviction(self):
        # Write-allocate: each store miss fills a dirty line, so once
        # the stream outgrows the L1D every eviction is a writeback.
        h = make_hier()
        lines = 4 * h.config.l1d_size // h.config.line_size
        for i in range(lines):
            h.access_data(i * h.config.line_size, 300 * i, is_write=True)
        stats = h.l1d.stats
        assert stats.evictions == lines - h.l1d.num_sets * h.l1d.assoc
        assert stats.writebacks == stats.evictions > 0

    def test_line_crossing_access(self):
        h = make_hier()
        h.access_data(0x10000, 0)
        h.access_data(0x10040, 500)
        # 8-byte access spanning both (already resident) lines
        lat = h.access_data(0x1003C, 1000, size=8)
        assert lat > h.config.l1_latency  # extra cycle + second lookup

    def test_inst_fetch_path(self):
        h = make_hier()
        assert h.access_inst(0x1000, 0) > 0   # cold
        assert h.access_inst(0x1000, 500) == 0  # L1I hit
        assert h.access_inst(0x1010, 501) == 0  # same line


class TestTlbPath:
    def test_tlb_miss_charges_ptw(self):
        h = make_hier(model_tlb=True, ptw_latency=90)
        lat1 = h.access_data(0x10000, 0)
        h.drain_pending()
        lat2 = h.access_data(0x10008, 1000)
        assert lat1 - lat2 >= 90  # first access paid the walk

    def test_same_page_no_extra_walks(self):
        h = make_hier(model_tlb=True)
        for off in range(0, 4096, 64):
            h.access_data(0x10000 + off, off)
        assert h.tlb.stats.misses == 1


class TestPrefetchTimeliness:
    def test_prefetch_cuts_miss_stalls(self):
        base = make_hier()
        pf = make_hier(l1_prefetch=PrefetchConfig(distance=8, max_depth=32))
        cycle = 0
        for h in (base, pf):
            cycle = 0
            for i in range(512):
                cycle += h.access_data(0x100000 + i * 8, cycle) + 1
            h.total = cycle  # type: ignore[attr-defined]
        assert pf.total < base.total * 0.6

    def test_larger_distance_hides_more(self):
        def run(distance):
            h = make_hier(l1_prefetch=PrefetchConfig(distance=distance,
                                                     max_depth=64))
            cycle = 0
            for i in range(1024):
                cycle += h.access_data(0x100000 + i * 8, cycle) + 1
            return cycle

        assert run(16) < run(2)

    def test_prefetched_lines_marked(self):
        h = make_hier(l1_prefetch=PrefetchConfig(distance=4))
        cycle = 0
        for i in range(256):
            cycle += h.access_data(0x100000 + i * 8, cycle) + 1
        assert h.l1d.stats.prefetch_hits > 0

    def test_l2_prefetch_alone_helps(self):
        base = make_hier()
        l2pf = make_hier(l2_prefetch=PrefetchConfig(distance=8, max_depth=64))
        for h in (base, l2pf):
            cycle = 0
            for i in range(512):
                cycle += h.access_data(0x100000 + i * 8, cycle) + 1
            h.total = cycle  # type: ignore[attr-defined]
        assert l2pf.total < base.total

    def test_drain_pending(self):
        h = make_hier(l1_prefetch=PrefetchConfig(distance=8))
        cycle = 0
        for i in range(64):
            cycle += h.access_data(0x100000 + i * 8, cycle) + 1
        h.drain_pending()
        assert not h._pending_l1 and not h._pending_l2


class TestStats:
    def test_load_store_accounting(self):
        h = make_hier()
        h.access_data(0x1000, 0, is_write=False)
        h.access_data(0x2000, 1, is_write=True)
        assert h.stats.loads == 1 and h.stats.stores == 1

    def test_dram_request_count(self):
        h = make_hier()
        for i in range(4):
            h.access_data(0x10000 + i * 4096, i * 1000)
        assert h.dram.requests == 4
