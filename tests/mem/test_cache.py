"""Cache model tests: indexing, LRU, dirty lines, stats."""

import random
from collections import OrderedDict

import pytest
from hypothesis import given, settings, strategies as st

from repro.mem import Cache
from repro.mem.cache import CacheLine


def make_cache(size=1024, assoc=2, line=64):
    return Cache("test", size=size, assoc=assoc, line_size=line)


class TestBasics:
    def test_miss_then_hit(self):
        c = make_cache()
        assert not c.access(0x1000)
        c.fill(0x1000)
        assert c.access(0x1000)
        assert c.stats.hits == 1 and c.stats.misses == 1

    def test_same_line_offsets_hit(self):
        c = make_cache()
        c.fill(0x1000)
        for off in (0, 8, 32, 63):
            assert c.access(0x1000 + off)

    def test_different_lines_miss(self):
        c = make_cache()
        c.fill(0x1000)
        assert not c.access(0x1040)

    def test_invalid_geometry_raises(self):
        with pytest.raises(ValueError):
            Cache("bad", size=1000, assoc=3, line_size=64)

    def test_occupancy(self):
        c = make_cache()
        for i in range(5):
            c.fill(i * 64)
        assert c.occupancy == 5


class TestReplacement:
    def test_lru_eviction(self):
        # 2-way, 8 sets; three lines mapping to set 0.
        c = make_cache(size=1024, assoc=2, line=64)
        lines = [0, 8 * 64, 16 * 64]  # all index to set 0
        c.fill(lines[0])
        c.fill(lines[1])
        c.access(lines[0])            # make line 0 MRU
        c.fill(lines[2])              # evicts line 1
        assert c.contains(lines[0])
        assert not c.contains(lines[1])
        assert c.contains(lines[2])
        assert c.stats.evictions == 1

    def test_dirty_eviction_counts_writeback(self):
        c = make_cache(size=1024, assoc=1, line=64)  # 16 sets
        c.fill(0)
        c.access(0, is_write=True)
        c.fill(16 * 64)  # same set, evicts dirty line
        assert c.stats.writebacks == 1

    def test_fill_existing_line_no_eviction(self):
        c = make_cache()
        c.fill(0x1000)
        c.fill(0x1000)
        assert c.stats.evictions == 0


class TestStates:
    def test_write_hit_marks_dirty(self):
        c = make_cache()
        c.fill(0x1000)
        assert not c.lookup(0x1000).dirty
        c.access(0x1000, is_write=True)
        assert c.lookup(0x1000).dirty

    def test_refill_never_cleans(self):
        c = make_cache()
        c.fill(0x1000, dirty=True)
        c.fill(0x1000)
        assert c.lookup(0x1000).dirty
        c.fill(0x2000)
        c.fill(0x2000, dirty=True)
        assert c.lookup(0x2000).dirty

    def test_invalidate(self):
        c = make_cache()
        c.fill(0x1000)
        line = c.invalidate(0x1000)
        assert line is not None
        assert not c.contains(0x1000)

    def test_prefetch_accounting(self):
        c = make_cache()
        c.fill(0x1000, prefetched=True)
        assert c.stats.prefetch_fills == 1
        c.access(0x1000)
        assert c.stats.prefetch_hits == 1
        # A second access is a plain hit.
        c.access(0x1000)
        assert c.stats.prefetch_hits == 1


class TestGeometry:
    @pytest.mark.parametrize("size,assoc", [(32 << 10, 4), (64 << 10, 4),
                                            (256 << 10, 8), (8 << 20, 16)])
    def test_paper_configurations(self, size, assoc):
        # Table I: L1 32/64KB, L2 256KB-8MB 8/16-way.
        c = Cache("cfg", size=size, assoc=assoc, line_size=64)
        assert c.num_sets * assoc * 64 == size

    def test_direct_mapped_conflicts(self):
        c = make_cache(size=512, assoc=1, line=64)  # 8 sets
        c.fill(0)
        c.fill(512)  # same set
        assert not c.contains(0)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1 << 20), min_size=1, max_size=200))
def test_occupancy_never_exceeds_capacity(addresses):
    c = Cache("prop", size=2048, assoc=2, line_size=64)
    for addr in addresses:
        if not c.access(addr):
            c.fill(addr)
    assert c.occupancy <= 2048 // 64
    for cache_set in c._sets:
        assert len(cache_set) <= 2


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 1 << 16), min_size=1, max_size=100))
def test_fill_then_immediate_access_hits(addresses):
    c = Cache("prop2", size=4096, assoc=4, line_size=64)
    for addr in addresses:
        c.fill(addr)
        assert c.access(addr)


class _EagerCache(Cache):
    """The reference for lazily made sets: every set is its own
    ``OrderedDict`` from the start, as before sets were made on first
    fill."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._sets = [OrderedDict() for _ in range(self.num_sets)]


_ADDR = st.integers(0, 4095)
_OPS = st.one_of(
    st.tuples(st.just("access"), _ADDR, st.booleans()),
    st.tuples(st.just("fill"), _ADDR, st.booleans(), st.booleans()),
    st.tuples(st.just("invalidate"), _ADDR),
    st.tuples(st.just("contains"), _ADDR),
    st.tuples(st.just("inject_data_fault"), st.none() | _ADDR,
              st.integers(1, 2), st.integers(0, 3)),
    st.tuples(st.just("inject_tag_fault"), st.none() | _ADDR,
              st.integers(0, 3)),
    st.tuples(st.just("scrub"),),
)


def _apply(cache, op):
    name, *args = op
    if name == "inject_data_fault":
        addr, bits, seed = args
        return cache.inject_data_fault(addr, bits, random.Random(seed))
    if name == "inject_tag_fault":
        addr, seed = args
        return cache.inject_tag_fault(addr, random.Random(seed))
    return getattr(cache, name)(*args)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=80))
def test_lazy_sets_behave_like_eager_sets(ops):
    """A set made on first fill is indistinguishable from one made up
    front: same answers, statistics, contents and quarantined ways
    after every operation (8 sets of 2 ways, quarantine after 2
    corrections, so evictions, faults and quarantine all happen)."""
    lazy = Cache("lazy", size=1024, assoc=2, quarantine_threshold=2)
    eager = _EagerCache("eager", size=1024, assoc=2,
                        quarantine_threshold=2)
    for op in ops:
        assert _apply(lazy, op) == _apply(eager, op), op
        assert lazy.stats == eager.stats, op
        assert lazy.occupancy == eager.occupancy
        assert list(lazy.lines()) == list(eager.lines())
        assert lazy.disabled_way_count() == eager.disabled_way_count()


def test_unfilled_sets_share_one_read_only_mapping():
    c = make_cache()
    assert len({id(s) for s in c._sets}) == 1
    with pytest.raises(TypeError):
        c._sets[0][0] = CacheLine()
    c.fill(0)
    assert c._sets[0] is not c._sets[1]
    assert len(c._sets[1]) == 0 and c.occupancy == 1
