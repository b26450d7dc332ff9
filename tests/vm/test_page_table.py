"""Tests for the forward/inverted page table."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.vm.memory_manager import MemoryManager
from repro.vm.page_table import PageTable
from repro.vm.ssd import SsdModel


class TestMapping:
    def test_lookup_unmapped_is_none(self):
        assert PageTable(4).lookup((0, 0)) is None

    def test_map_and_lookup(self):
        pt = PageTable(4)
        pt.map((0, 7), 2)
        assert pt.lookup((0, 7)) == 2
        assert pt.frame(2).vpage == (0, 7)

    def test_asid_disambiguates(self):
        pt = PageTable(4)
        pt.map((0, 7), 0)
        pt.map((1, 7), 1)
        assert pt.lookup((0, 7)) == 0
        assert pt.lookup((1, 7)) == 1

    def test_double_map_frame_rejected(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        with pytest.raises(ValueError):
            pt.map((0, 2), 0)

    def test_double_map_vpage_rejected(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        with pytest.raises(ValueError):
            pt.map((0, 1), 1)

    def test_resident_count(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        pt.map((0, 2), 1)
        assert pt.resident_count() == 2


class TestUnmap:
    def test_unmap_returns_metadata(self):
        pt = PageTable(4)
        pt.map((0, 5), 3)
        pt.touch(3, is_write=True)
        info = pt.unmap_frame(3)
        assert info.vpage == (0, 5)
        assert info.dirty
        assert pt.lookup((0, 5)) is None
        assert not pt.frame(3).valid

    def test_unmap_empty_frame_is_noop(self):
        pt = PageTable(4)
        info = pt.unmap_frame(0)
        assert info.vpage is None


class TestTouch:
    def test_read_sets_referenced_only(self):
        pt = PageTable(4)
        pt.map((0, 0), 0)
        pt.frame(0).referenced = False
        pt.touch(0, is_write=False)
        assert pt.frame(0).referenced
        assert not pt.frame(0).dirty

    def test_write_sets_dirty(self):
        pt = PageTable(4)
        pt.map((0, 0), 0)
        pt.touch(0, is_write=True)
        assert pt.frame(0).dirty


class TestSwapFrames:
    def test_swap_updates_forward_map(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        pt.map((0, 2), 3)
        pt.swap_frames(0, 3)
        assert pt.lookup((0, 1)) == 3
        assert pt.lookup((0, 2)) == 0

    def test_swap_with_empty_frame(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        pt.swap_frames(0, 2)
        assert pt.lookup((0, 1)) == 2
        assert not pt.frame(0).valid

    def test_swap_carries_dirty_bit(self):
        pt = PageTable(4)
        pt.map((0, 1), 0)
        pt.touch(0, is_write=True)
        pt.swap_frames(0, 1)
        assert pt.frame(1).dirty


class TestFrameView:
    def test_view_reads_and_writes_the_columns(self):
        pt = PageTable(4)
        pt.map((0, 3), 2)
        view = pt.frame(2)
        view.dirty = True
        assert pt.dirty[2] == 1
        assert view.vpage == (0, 3)

    def test_out_of_range_frame_rejected(self):
        pt = PageTable(4)
        with pytest.raises(IndexError):
            pt.frame(4)
        with pytest.raises(IndexError):
            pt.frame(-1)


class TestLayout:
    def test_vpage_of_inverts_lookup(self):
        pt = PageTable(4)
        pt.map((1, 9), 3)
        assert pt.vpage_of(3) == (1, 9)
        assert pt.vpage_of(0) is None

    def test_columns_hold_the_kernel_layout(self):
        pt = PageTable(4)
        pt.reserve(2, 8)
        pt.map((1, 5), 2)
        key = 1 * pt.stride + 5
        assert pt.fwd[key] == 2 + 1
        assert pt.inv[2] == key + 1
        assert pt.inv.count(0) == 3

    def test_reserve_keeps_a_populated_table(self):
        pt = PageTable(4)
        pt.map((0, 3), 1)
        pt.map((0, 0), 2)
        pt.reserve(3, 50)
        assert pt.n_asids >= 3 and pt.stride >= 50
        assert pt.lookup((0, 3)) == 1 and pt.vpage_of(2) == (0, 0)
        fwd = pt.fwd
        pt.reserve(2, 40)  # already covered: nothing moves
        assert pt.fwd is fwd

    def test_mapping_past_the_layout_grows_it(self):
        pt = PageTable(4)
        pt.reserve(1, 4)
        pt.map((0, 2), 0)
        pt.map((3, 100), 1)
        pt.map((1, -7), 2)
        assert pt.vbase < 0
        assert [pt.vpage_of(f) for f in range(4)] == [(0, 2), (3, 100), (1, -7), None]
        assert pt.lookup((0, 2)) == 0
        assert pt.lookup((3, 100)) == 1
        assert pt.lookup((1, -7)) == 2
        assert pt.lookup((7, 0)) is None and pt.lookup((0, -100)) is None

    def test_negative_asid_rejected(self):
        pt = PageTable(4)
        assert pt.lookup((-1, 0)) is None
        with pytest.raises(ValueError):
            pt.map((-1, 0), 0)


class DictModel:
    """The memory manager's reference semantics over plain dicts and lists.

    A frame's page, a page's frame, the frame bits, the free set and the
    two pools (stale entries included), the clock hand and its RNG — as
    :class:`MemoryManager` and :class:`ClockReplacer` define them, with
    none of the page table's layout.
    """

    def __init__(self, frames, stacked, probes, seed):
        order = list(range(frames))
        random.Random(seed).shuffle(order)
        self.stacked = stacked
        self.pools = ([f for f in order if f < stacked],
                      [f for f in order if f >= stacked])
        self.free = set(range(frames))
        self.forward = {}
        self.vpages = [None] * frames
        self.referenced = [0] * frames
        self.dirty = [0] * frames
        self.rng = random.Random(seed)
        self.probes = probes
        self.hand = 0

    def _pop_free(self):
        for pool in sorted(self.pools, key=len, reverse=True):
            while pool:
                frame = pool.pop()
                if frame in self.free:
                    self.free.discard(frame)
                    return frame
        return None

    def _victim(self):
        n = len(self.vpages)
        for _ in range(self.probes):
            probe = self.rng.randrange(n)
            if self.vpages[probe] is None:
                return probe
        hand = self.hand
        for _ in range(2 * n):
            frame, hand = hand, (hand + 1) % n
            if self.vpages[frame] is None or not self.referenced[frame]:
                self.hand = hand
                return frame
            self.referenced[frame] = 0
        self.hand = (hand + 1) % n
        return hand

    def translate(self, vpage, is_write):
        frame = self.forward.get(vpage)
        if frame is None:
            frame = self._pop_free()
            if frame is None:
                frame = self._victim()
                self.free.discard(frame)
                if self.vpages[frame] is not None:
                    del self.forward[self.vpages[frame]]
            self.vpages[frame] = vpage
            self.forward[vpage] = frame
            self.dirty[frame] = 0
        self.referenced[frame] = 1
        if is_write:
            self.dirty[frame] = 1
        return frame

    def swap(self, a, b):
        va, vb = self.vpages[a], self.vpages[b]
        if va is not None:
            self.forward[va] = b
        if vb is not None:
            self.forward[vb] = a
        self.vpages[a], self.vpages[b] = vb, va
        for column in (self.referenced, self.dirty):
            column[a], column[b] = column[b], column[a]
        if (a in self.free) != (b in self.free):
            newly_free, taken = (a, b) if b in self.free else (b, a)
            self.free.discard(taken)
            self.free.add(newly_free)
            self.pools[0 if newly_free < self.stacked else 1].append(newly_free)


FRAMES, STACKED = 10, 3
PAGES = st.tuples(st.integers(0, 5), st.integers(-3, 40))
STEPS = st.lists(
    st.one_of(
        st.tuples(st.just("translate"), PAGES, st.booleans()),
        st.tuples(st.just("swap"), st.integers(0, FRAMES - 1),
                  st.integers(0, FRAMES - 1)),
        st.tuples(st.just("reserve"), st.integers(0, 7), st.integers(0, 48)),
    ),
    max_size=60,
)


class TestAgainstDictModel:
    @settings(max_examples=150, deadline=None)
    @given(steps=STEPS, seed=st.integers(0, 3), probes=st.integers(0, 3))
    def test_memory_manager_matches_a_dict_model(self, steps, seed, probes):
        mm = MemoryManager(
            num_frames=FRAMES, ssd=SsdModel(100_000, 4096), stacked_frames=STACKED,
            random_probes=probes, allocation="random", seed=seed,
        )
        mm.page_table.reserve(2, 8)  # then grow past it, asids and pages
        model = DictModel(FRAMES, STACKED, probes, seed)
        seen = {(0, 0), (5, 40), (1, -3)}
        for step in steps:
            if step[0] == "translate":
                _, vpage, is_write = step
                seen.add(vpage)
                assert mm.translate(vpage, is_write).frame == model.translate(
                    vpage, is_write
                )
            elif step[0] == "swap":
                mm.swap_frames(step[1], step[2])
                model.swap(step[1], step[2])
            else:
                mm.page_table.reserve(step[1], step[2])
            self.assert_matches(mm, model, seen)

    @staticmethod
    def assert_matches(mm, model, seen):
        table = mm.page_table
        for vpage in seen:
            assert table.lookup(vpage) == model.forward.get(vpage)
        assert [table.vpage_of(f) for f in range(FRAMES)] == model.vpages
        assert table.resident_count() == len(model.forward)
        assert list(table.referenced) == model.referenced
        assert list(table.dirty) == model.dirty
        assert mm._free_set == model.free
        assert (mm._free_stacked, mm._free_offchip) == model.pools
        assert mm.replacer._hand == model.hand
        # The kernel's view: fwd and inv are each other's inverse.
        for frame, key in enumerate(table.inv):
            assert not key or table.fwd[key - 1] == frame + 1
        assert len(table.fwd) - table.fwd.count(0) == len(model.forward)
