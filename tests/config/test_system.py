"""Tests for the scaled system geometry."""

import pytest

from repro.config import paper
from repro.config.system import L3Config, SystemConfig, scaled_paper_system
from repro.errors import ConfigurationError
from tests.conftest import make_config


class TestScaledPaperSystem:
    def test_default_scale_capacities(self):
        cfg = scaled_paper_system()
        assert cfg.stacked_bytes == 1 << 20          # 4 GB / 4096
        assert cfg.offchip_bytes == 3 << 20          # 12 GB / 4096

    def test_unscaled_matches_paper(self):
        cfg = scaled_paper_system(scale_shift=0, scale_channels_to_contexts=False)
        assert cfg.stacked_bytes == paper.PAPER_STACKED_BYTES
        assert cfg.offchip_bytes == paper.PAPER_OFFCHIP_BYTES
        assert cfg.group_size == paper.PAPER_CONGRUENCE_GROUP_SIZE

    def test_group_size_is_four_at_every_scale(self):
        for shift in (0, 4, 8, 12):
            assert scaled_paper_system(scale_shift=shift).group_size == 4

    def test_stacked_is_quarter_of_total(self):
        cfg = scaled_paper_system()
        assert cfg.stacked_bytes * 4 == cfg.stacked_bytes + cfg.offchip_bytes

    def test_channel_scaling_preserves_ratio(self):
        cfg = scaled_paper_system(num_contexts=4)
        assert cfg.stacked_timing.channels == 2
        assert cfg.offchip_timing.channels == 1
        ratio = (
            cfg.stacked_timing.peak_bandwidth_bytes_per_cycle()
            / cfg.offchip_timing.peak_bandwidth_bytes_per_cycle()
        )
        assert ratio == pytest.approx(8.0)

    def test_channel_scaling_can_be_disabled(self):
        cfg = scaled_paper_system(num_contexts=4, scale_channels_to_contexts=False)
        assert cfg.stacked_timing.channels == 16
        assert cfg.offchip_timing.channels == 8

    def test_negative_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            scaled_paper_system(scale_shift=-1)

    def test_excessive_scale_rejected(self):
        with pytest.raises(ConfigurationError):
            scaled_paper_system(scale_shift=40)


class TestGeometryDerivations:
    def test_line_counts(self, tiny_config):
        assert tiny_config.stacked_lines == 4 * 64
        assert tiny_config.offchip_lines == 12 * 64
        assert tiny_config.total_lines == 16 * 64

    def test_group_math(self, tiny_config):
        assert tiny_config.group_size == 4
        assert tiny_config.num_groups == tiny_config.stacked_lines
        assert 1 << tiny_config.group_index_bits == tiny_config.stacked_lines

    def test_page_counts(self, tiny_config):
        assert tiny_config.stacked_pages == 4
        assert tiny_config.offchip_pages == 12
        assert tiny_config.total_pages == 16

    def test_llt_sizing_matches_paper(self):
        # Paper: 64 MB of LLT for the 16 GB machine (Section IV-C).
        cfg = scaled_paper_system(scale_shift=0, scale_channels_to_contexts=False)
        assert cfg.llt_entries == 64 * 1024 * 1024
        assert cfg.llt_bytes == 64 * 1024 * 1024

    def test_replace_produces_new_config(self, tiny_config):
        other = tiny_config.replace(num_contexts=8)
        assert other.num_contexts == 8
        assert tiny_config.num_contexts == 2


class TestValidation:
    def test_non_power_of_two_stacked_rejected(self):
        with pytest.raises(ConfigurationError):
            make_config(stacked_pages=3)

    def test_offchip_must_be_multiple_of_stacked(self, tiny_config):
        with pytest.raises(ConfigurationError):
            tiny_config.replace(offchip_bytes=tiny_config.stacked_bytes * 3 + 4096)

    def test_misaligned_capacity_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            tiny_config.replace(stacked_bytes=100)

    def test_zero_contexts_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            tiny_config.replace(num_contexts=0)

    def test_sub_one_mlp_rejected(self, tiny_config):
        with pytest.raises(ConfigurationError):
            tiny_config.replace(memory_level_parallelism=0.5)

    def test_l3_capacity_must_be_whole_sets(self):
        with pytest.raises(ConfigurationError):
            L3Config(capacity_bytes=1000, ways=16, latency_cycles=24)

    def test_l3_num_sets(self):
        l3 = L3Config(capacity_bytes=16 * 1024, ways=16, latency_cycles=24)
        assert l3.num_sets == 16


class TestFingerprintMemo:
    """``fingerprint`` is computed once per instance of the frozen config."""

    def test_equal_configs_fingerprint_equal(self):
        a, b = scaled_paper_system(), scaled_paper_system()
        assert a is not b
        assert a.fingerprint() == b.fingerprint() == a.fingerprint()

    def test_replace_gets_a_fresh_value(self):
        config = scaled_paper_system()
        before = config.fingerprint()
        changed = config.replace(num_contexts=2)
        assert changed.fingerprint() != before
        assert config.fingerprint() == before
        same = config.replace(num_contexts=config.num_contexts)
        assert same.fingerprint() == before

    def test_the_memo_is_not_a_field(self):
        config = scaled_paper_system()
        config.fingerprint()
        assert config == scaled_paper_system()
        assert hash(config) == hash(scaled_paper_system())
        assert "_fingerprint" not in repr(config)

    def test_default_paper_system_is_one_shared_instance(self):
        from repro.config.system import default_paper_system

        shared = default_paper_system()
        assert shared is default_paper_system()
        assert shared == scaled_paper_system()
        assert shared is not scaled_paper_system()

    def test_value_survives_pickling(self):
        import pickle

        config = scaled_paper_system()
        expected = config.fingerprint()
        restored = pickle.loads(pickle.dumps(config))
        assert restored == config
        assert restored.fingerprint() == expected
        # The memo travels with the instance (pool workers reuse it).
        assert restored.__dict__["_fingerprint"] == expected
