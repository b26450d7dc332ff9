"""Tests for the memory manager: allocation, faults, reclaim, swaps."""

import random
from array import array

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigurationError
from repro.vm.memory_manager import MemoryManager
from repro.vm.ssd import SsdModel


def make_mm(frames=8, stacked=2, allocation="sequential", probes=0, seed=0):
    ssd = SsdModel(fault_latency_cycles=100_000, page_bytes=4096)
    return MemoryManager(
        num_frames=frames,
        ssd=ssd,
        stacked_frames=stacked,
        random_probes=probes,
        allocation=allocation,
        seed=seed,
    )


class TestFirstTouch:
    def test_first_touch_faults(self):
        mm = make_mm()
        result = mm.translate((0, 0))
        assert result.faulted
        assert result.fault_latency == 100_000.0
        assert result.evicted is None

    def test_second_touch_hits(self):
        mm = make_mm()
        frame = mm.translate((0, 0)).frame
        result = mm.translate((0, 0))
        assert not result.faulted
        assert result.frame == frame

    def test_distinct_vpages_get_distinct_frames(self):
        mm = make_mm()
        frames = {mm.translate((0, v)).frame for v in range(8)}
        assert len(frames) == 8

    def test_random_allocation_is_seed_deterministic(self):
        a = make_mm(allocation="random", seed=5)
        b = make_mm(allocation="random", seed=5)
        assert [a.translate((0, v)).frame for v in range(8)] == [
            b.translate((0, v)).frame for v in range(8)
        ]

    def test_unknown_allocation_rejected(self):
        with pytest.raises(ConfigurationError):
            make_mm(allocation="weird")

    def test_zero_frames_rejected(self):
        with pytest.raises(ConfigurationError):
            make_mm(frames=0)


class TestFramePools:
    """The free-frame pools are built once per key, in the order the
    per-manager shuffle they replace gave them."""

    @staticmethod
    def shuffled_pools(frames, stacked, allocation, seed):
        order = list(range(frames))
        if allocation == "random":
            random.Random(seed).shuffle(order)
        return (
            [f for f in order if f < stacked],
            [f for f in order if f >= stacked],
        )

    @pytest.mark.parametrize("frames, stacked, allocation, seed", [
        (1024, 256, "random", 0),
        (1024, 0, "random", 3),
        (64, 64, "random", 7),
        (1000, 250, "random", 2**40 + 5),
        (96, 24, "sequential", 9),
    ])
    def test_pools_equal_the_shuffle(self, frames, stacked, allocation, seed):
        expected = self.shuffled_pools(frames, stacked, allocation, seed)
        for _ in range(2):  # built, then served from the memo
            mm = make_mm(frames=frames, stacked=stacked,
                         allocation=allocation, seed=seed)
            assert (mm._free_stacked, mm._free_offchip) == expected
            assert mm._free_set == set(range(frames))

    def test_managers_of_one_key_do_not_share_lists(self):
        key = dict(frames=32, stacked=8, allocation="random", seed=1)
        expected = self.shuffled_pools(32, 8, "random", 1)
        a, b = make_mm(**key), make_mm(**key)
        assert a._free_stacked is not b._free_stacked
        assert a._free_offchip is not b._free_offchip
        for vpage in range(40):  # allocates every frame, then reclaims
            a.translate((0, vpage))
        a.swap_frames(0, 31)
        assert (b._free_stacked, b._free_offchip) == expected
        c = make_mm(**key)
        assert (c._free_stacked, c._free_offchip) == expected
        assert [c.translate((0, v)).frame for v in range(8)] == [
            b.translate((0, v)).frame for v in range(8)
        ]


class TestReclaim:
    def test_overcommit_evicts(self):
        mm = make_mm(frames=4)
        for v in range(4):
            mm.translate((0, v))
        result = mm.translate((0, 4))
        assert result.faulted
        assert result.evicted is not None
        assert result.evicted_frame == result.frame

    def test_dirty_eviction_writes_to_storage(self):
        mm = make_mm(frames=1, stacked=0)
        mm.translate((0, 0), is_write=True)
        mm.translate((0, 1))
        assert mm.ssd.stats.page_writes == 1
        assert mm.stats.dirty_evictions == 1

    def test_clean_eviction_skips_storage_write(self):
        mm = make_mm(frames=1, stacked=0)
        mm.translate((0, 0))
        mm.translate((0, 1))
        assert mm.ssd.stats.page_writes == 0

    def test_evicted_page_refaults(self):
        mm = make_mm(frames=1, stacked=0)
        mm.translate((0, 0))
        mm.translate((0, 1))
        assert mm.translate((0, 0)).faulted

    def test_fault_stats(self):
        mm = make_mm(frames=2)
        for v in range(4):
            mm.translate((0, v))
        assert mm.stats.faults == 4
        assert mm.stats.evictions == 2
        assert mm.stats.translations == 4
        assert mm.stats.fault_rate == 1.0


class TestPlacementPreference:
    def test_stacked_preference_honored(self):
        mm = make_mm(frames=8, stacked=2)
        mm.frame_preference = lambda vpage: "stacked"
        first = mm.translate((0, 0)).frame
        second = mm.translate((0, 1)).frame
        assert mm.is_stacked_frame(first) and mm.is_stacked_frame(second)
        third = mm.translate((0, 2)).frame  # stacked pool exhausted
        assert not mm.is_stacked_frame(third)

    def test_offchip_preference_honored(self):
        mm = make_mm(frames=8, stacked=2)
        mm.frame_preference = lambda vpage: "offchip"
        for v in range(6):
            assert not mm.is_stacked_frame(mm.translate((0, v)).frame)

    def test_is_stacked_frame_boundary(self):
        mm = make_mm(frames=8, stacked=2)
        assert mm.is_stacked_frame(0)
        assert mm.is_stacked_frame(1)
        assert not mm.is_stacked_frame(2)


class TestSwapFrames:
    def test_swap_moves_mapping(self):
        mm = make_mm(frames=8, stacked=2)
        frame = mm.translate((0, 0)).frame
        other = (frame + 1) % 8
        mm.translate((0, 1))  # occupy `other` too under sequential alloc
        mm.swap_frames(frame, other)
        assert mm.page_table.lookup((0, 0)) == other

    def test_swap_into_free_frame_keeps_free_list_coherent(self):
        mm = make_mm(frames=4, stacked=2)
        frame = mm.translate((0, 0)).frame
        # Pick a frame that is still free.
        free_frame = next(f for f in range(4) if f != frame)
        mm.swap_frames(frame, free_frame)
        # Allocating the remaining pages must not collide with the moved page.
        allocated = {mm.translate((0, v)).frame for v in range(1, 4)}
        assert free_frame not in allocated
        assert len(allocated) == 3

    @staticmethod
    def state(mm):
        table = mm.page_table
        return (
            [table.vpage_of(frame) for frame in range(mm.num_frames)],
            {(0, v): table.lookup((0, v)) for v in range(8)},
            {(1, v): table.lookup((1, v)) for v in range(8)},
            bytes(table.referenced), bytes(table.dirty),
            mm._free_stacked, mm._free_offchip, mm._free_set,
        )

    def test_kernel_log_replays_a_full_memorys_faults_and_swaps(self):
        # In full memory the kernel reclaims and swaps in the shared page
        # table, logs nothing, and a fault it served drains the pools:
        # the free lists must end as the python path leaves them.
        reference, replayed = make_mm(frames=4), make_mm(frames=4)
        for mm in (reference, replayed):
            for v in range(4):
                mm.translate((0, v))
            mm._free_stacked.append(1)  # a stale entry a swap left behind
        frame = reference.translate((1, 0)).frame  # reclaims a frame
        other = (frame + 1) % 4
        reference.swap_frames(frame, other)
        table = replayed.page_table
        assert replayed.replacer.select_victim() == frame  # the kernel's reclaim
        table.unmap_frame(frame)
        table.map((1, 0), frame)
        table.swap_frames(frame, other)
        replayed.reconcile_external_log(array("q"), 0)
        replayed.drain_free_pools()
        assert self.state(replayed) == self.state(reference)
        assert replayed._free_stacked == replayed._free_offchip == []

    def test_kernel_log_replays_free_frame_swaps(self):
        # Outside full memory a swap can move a page into a free frame;
        # the kernel logs exactly those, and the replay moves the free
        # status the way swap_frames does.
        reference, replayed = make_mm(frames=8), make_mm(frames=8)
        for mm in (reference, replayed):
            for v in range(3):
                mm.translate((0, v), is_write=v == 1)
        used = [reference.page_table.lookup((0, v)) for v in range(3)]
        free = sorted(reference._free_set)
        swaps = [(used[0], free[0]), (used[1], used[2]), (free[1], used[1]),
                 (free[2], free[3]), (free[0], used[0])]
        log = array("q")
        table = replayed.page_table
        for a, b in swaps:
            reference.swap_frames(a, b)
            if (table.inv[a] == 0) != (table.inv[b] == 0):
                log.extend((a, b))
            table.swap_frames(a, b)
        assert len(log) == 6  # neither the full-full nor the free-free swap
        replayed.reconcile_external_log(log, len(log) // 2)
        assert self.state(replayed) == self.state(reference)
        allocated = {replayed.translate((2, v)).frame for v in range(5)}
        assert allocated == set(range(8)) - {
            table.lookup((0, v)) for v in range(3)
        }

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20))
    def test_random_swaps_never_corrupt_allocation(self, swaps):
        mm = make_mm(frames=8, stacked=4, allocation="random", probes=2)
        mm.translate((0, 0))
        for a, b in swaps:
            if a != b:
                mm.swap_frames(a, b)
        # Fill the rest of memory: every map() call must find a clean frame.
        for v in range(1, 12):
            mm.translate((0, v))
        assert mm.resident_pages() == 8
