"""Unit tests for the pipeline's scheduling primitives."""

from hypothesis import given, settings, strategies as st

from repro.uarch.core import PipeGroup, SlotAllocator


class TestSlotAllocator:
    def test_fills_width_then_advances(self):
        alloc = SlotAllocator(3)
        assert [alloc.allocate(10) for _ in range(4)] == [10, 10, 10, 11]

    def test_jump_forward_resets_count(self):
        alloc = SlotAllocator(2)
        alloc.allocate(5)
        alloc.allocate(5)
        assert alloc.allocate(9) == 9
        assert alloc.allocate(9) == 9
        assert alloc.allocate(9) == 10

    def test_late_earliest_fills_current_cycle(self):
        alloc = SlotAllocator(2)
        alloc.allocate(10)
        assert alloc.allocate(3) == 10  # can't go back in time

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=200),
           st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_monotonic_and_bandwidth(self, earliests, width):
        alloc = SlotAllocator(width)
        grants = [alloc.allocate(e) for e in earliests]
        # Monotonic output.
        assert grants == sorted(grants)
        # Never earlier than requested.
        for earliest, grant in zip(earliests, grants):
            assert grant >= earliest
        # Bandwidth respected.
        from collections import Counter

        for _cycle, count in Counter(grants).items():
            assert count <= width


class TestPipeGroup:
    def test_backfill_into_idle_cycles(self):
        pipe = PipeGroup(1)
        # An op books cycle 100; a younger ready-at-5 op backfills.
        late = pipe.earliest(100)
        pipe.book(late)
        early = pipe.earliest(5)
        assert early == 5
        pipe.book(early)

    def test_capacity_per_cycle(self):
        pipe = PipeGroup(2)
        for _ in range(2):
            pipe.book(pipe.earliest(7))
        assert pipe.earliest(7) == 8

    def test_unpipelined_occupancy(self):
        pipe = PipeGroup(1)
        start = pipe.earliest(10, occupy=5)
        pipe.book(start, occupy=5)
        # The next op cannot start inside the occupied window.
        assert pipe.earliest(10) == 15
        assert pipe.earliest(20) == 20

    def test_occupy_requires_contiguous_window(self):
        pipe = PipeGroup(1)
        pipe.book(12)  # single-cycle booking in the middle
        start = pipe.earliest(10, occupy=5)
        assert start == 13  # window [10,15) blocked by cycle 12

    def test_prune_keeps_semantics_near_horizon(self):
        pipe = PipeGroup(1)
        for cycle in range(5000):
            pipe.book(cycle)
        pipe.advance(4000)
        assert pipe.earliest(4500) == 5000

    @given(st.lists(st.tuples(st.integers(0, 300), st.integers(1, 4)),
                    min_size=1, max_size=100), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_never_overbooks(self, ops, count):
        pipe = PipeGroup(count)
        for ready, occupy in ops:
            start = pipe.earliest(ready, occupy)
            assert start >= ready
            pipe.book(start, occupy)
        assert all(n <= count for n in pipe.used.values())
