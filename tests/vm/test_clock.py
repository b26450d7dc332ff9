"""Tests for the clock replacement algorithm (with random probing)."""

from repro.vm.clock import ClockReplacer
from repro.vm.page_table import PageTable


def full_table(n=8):
    pt = PageTable(n)
    for i in range(n):
        pt.map((0, i), i)
    return pt


class TestRandomProbes:
    def test_probe_finds_free_frame(self):
        pt = PageTable(16)
        pt.map((0, 0), 0)  # 15 of 16 frames free: probes will find one
        replacer = ClockReplacer(pt, random_probes=5, seed=0)
        for _ in range(20):
            victim = replacer.select_victim()
            assert not pt.frame(victim).valid

    def test_zero_probes_goes_straight_to_clock(self):
        pt = full_table(4)
        for i in range(pt.num_frames):
            pt.frame(i).referenced = False
        replacer = ClockReplacer(pt, random_probes=0, seed=0)
        assert replacer.select_victim() == 0


class TestClockSweep:
    def test_second_chance_clears_reference_bits(self):
        pt = full_table(4)
        replacer = ClockReplacer(pt, random_probes=0)
        victim = replacer.select_victim()
        # All were referenced (map() sets the bit): the hand sweeps once,
        # clearing bits, then takes the first frame on the second pass.
        assert victim == 0
        assert not pt.frame(1).referenced

    def test_unreferenced_frame_preferred(self):
        pt = full_table(4)
        pt.frame(2).referenced = False
        replacer = ClockReplacer(pt, random_probes=0)
        assert replacer.select_victim() == 2

    def test_hand_advances_between_calls(self):
        pt = full_table(4)
        for i in range(pt.num_frames):
            pt.frame(i).referenced = False
        replacer = ClockReplacer(pt, random_probes=0)
        first = replacer.select_victim()
        second = replacer.select_victim()
        assert first != second

    def test_recently_rereferenced_survives(self):
        pt = full_table(4)
        replacer = ClockReplacer(pt, random_probes=0)
        replacer.select_victim()          # clears bits, evicts 0
        pt.frame(1).referenced = True     # page 1 gets re-touched
        victim = replacer.select_victim()
        assert victim != 1

    def test_determinism_with_seed(self):
        victims_a, victims_b = [], []
        for out in (victims_a, victims_b):
            pt = full_table(8)
            replacer = ClockReplacer(pt, random_probes=5, seed=9)
            for _ in range(5):
                v = replacer.select_victim()
                out.append(v)
                pt.unmap_frame(v)
        assert victims_a == victims_b
