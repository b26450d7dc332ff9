"""Tests for the content-addressed RunResult store (repro.sim.result_store)."""

import dataclasses
import json
import os

import pytest

from repro.errors import ConfigurationError
from repro.faults.model import FaultConfig
from repro.sim.export import result_to_json
from repro.sim.result_store import (
    RESULT_STORE_SCHEMA_VERSION,
    ResultStore,
    SharedDirBackend,
    cell_fingerprint,
    clear_default_result_store,
    default_result_store,
    result_from_state,
    result_store_disabled,
    result_to_state,
    use_result_store,
)
from repro.sim.runner import mix_provenance_name, run_mix, run_workload
from repro.workloads.spec import workload
from tests.conftest import make_config

SPEC = workload("milc")
N = 150


def fresh_result(org="cameo", spec=SPEC, seed=0, n=N, **kwargs):
    """One simulated result with the store out of the way."""
    config = kwargs.pop("config", None) or make_config(stacked_pages=8)
    with result_store_disabled():
        return run_workload(org, spec, config, n, seed, **kwargs)


def fingerprint(**overrides):
    base = dict(
        org_name="cameo",
        workloads=SPEC,
        config=make_config(stacked_pages=8),
        accesses_per_context=N,
        seed=0,
        use_l3=False,
        org_kwargs=None,
        fault_config=None,
    )
    base.update(overrides)
    return cell_fingerprint(
        base.pop("org_name"),
        base.pop("workloads"),
        base.pop("config"),
        base.pop("accesses_per_context"),
        base.pop("seed"),
        **base,
    )


class TestFingerprint:
    def test_stable(self):
        assert fingerprint() == fingerprint()

    @pytest.mark.parametrize("change", [
        {"org_name": "cache"},
        {"workloads": workload("astar")},
        {"workloads": dataclasses.replace(SPEC, l3_mpki=SPEC.l3_mpki + 1.0)},
        {"config": make_config(stacked_pages=16)},
        {"config": make_config(stacked_pages=8, num_contexts=4)},
        {"accesses_per_context": N + 1},
        {"seed": 1},
        {"use_l3": True},
        {"org_kwargs": {"group_size": 8}},
        {"fault_config": FaultConfig(seed=0, transient_flip_rate=1e-3)},
    ])
    def test_sensitive_to_every_keyed_knob(self, change):
        assert fingerprint(**change) != fingerprint()

    def test_fault_config_values_are_keyed(self):
        a = fingerprint(fault_config=FaultConfig(seed=0))
        b = fingerprint(fault_config=FaultConfig(seed=1))
        assert a != b

    def test_mix_order_is_keyed(self):
        astar = workload("astar")
        assert fingerprint(workloads=[SPEC, astar]) != fingerprint(
            workloads=[astar, SPEC]
        )

    def test_degenerate_mix_does_not_alias_rate_mode(self):
        """A mix of two milc contexts is a different simulation than a
        rate-mode milc run (different footprint split)."""
        assert fingerprint(workloads=[SPEC, SPEC]) != fingerprint(
            workloads=SPEC
        )

    def test_oracle_profile_is_canonicalizable(self):
        # The (context, virtual page) pairs TLM-Oracle profiles carry.
        hot = frozenset({(0, 1), (1, 2)})
        assert fingerprint(org_kwargs={"hot_vpages": hot}) is not None
        assert fingerprint(org_kwargs={"hot_vpages": hot}) != fingerprint()

    def test_live_object_kwargs_are_uncacheable(self):
        class Predictor:
            pass

        assert fingerprint(org_kwargs={"predictor": Predictor()}) is None


class TestCodec:
    def test_round_trip_preserves_every_field(self):
        result = fresh_result(use_l3=True)
        clone = result_from_state(
            json.loads(json.dumps(result_to_state(result)))
        )
        assert result_to_json(clone) == result_to_json(result)
        assert clone.provenance == result.provenance
        assert clone.llp_cases == result.llp_cases
        assert clone.device_summary == result.device_summary

    def test_round_trip_with_faults(self):
        result = fresh_result(
            fault_config=FaultConfig(seed=3, transient_flip_rate=1e-2)
        )
        clone = result_from_state(result_to_state(result))
        assert clone.fault_summary == result.fault_summary


class TestMemoryLayer:
    def test_hit_decodes_a_fresh_object(self):
        store = ResultStore()
        fp = fingerprint()
        result = fresh_result()
        store.put(fp, result)
        served = store.get(fp)
        assert served is not result
        assert result_to_json(served) == result_to_json(result)
        # Mutating a served copy must not poison the store.
        served.line_swaps = -1
        assert store.get(fp).line_swaps == result.line_swaps

    def test_stats_and_miss(self):
        store = ResultStore()
        fp = fingerprint()
        assert store.get(fp) is None
        store.put(fp, fresh_result())
        assert store.get(fp) is not None
        assert store.stats.misses == 1
        assert store.stats.hits == 1

    def test_lru_eviction(self):
        store = ResultStore(max_entries=2)
        result = fresh_result()
        for seed in range(3):
            store.put(fingerprint(seed=seed), result)
        assert len(store) == 2
        assert store.stats.evictions == 1
        assert store.get(fingerprint(seed=0)) is None  # evicted

    def test_rejects_zero_capacity(self):
        with pytest.raises(ConfigurationError):
            ResultStore(max_entries=0)


class TestDiskLayer:
    @staticmethod
    def store(tmp_path):
        return ResultStore(backend=SharedDirBackend(str(tmp_path)))

    def test_round_trip_across_store_instances(self, tmp_path):
        writer = self.store(tmp_path)
        fp = fingerprint()
        result = fresh_result()
        writer.put(fp, result)
        assert writer.stats.disk_writes == 1
        reader = self.store(tmp_path)
        served = reader.get(fp)
        assert result_to_json(served) == result_to_json(result)
        assert reader.stats.disk_hits == 1
        assert reader.stats.misses == 0

    @pytest.mark.parametrize("garbage", [
        b"not json at all",
        b"{\"kind\": \"repro-run-result\"",          # truncated
        b"{\"kind\": \"something-else\"}",           # foreign kind
        b"[1, 2, 3]",                                # wrong shape
    ])
    def test_corrupt_entry_is_a_miss_and_removed(self, tmp_path, garbage):
        writer = self.store(tmp_path)
        fp = fingerprint()
        writer.put(fp, fresh_result())
        (entry,) = tmp_path.glob("*/*.result.json")
        entry.write_bytes(garbage)
        reader = self.store(tmp_path)
        assert reader.get(fp) is None
        assert reader.stats.misses == 1
        assert not list(tmp_path.glob("*/*.result.json"))  # unlinked

    def test_stale_schema_entry_is_regenerated_not_trusted(self, tmp_path):
        writer = self.store(tmp_path)
        fp = fingerprint()
        writer.put(fp, fresh_result())
        (entry,) = tmp_path.glob("*/*.result.json")
        payload = json.loads(entry.read_bytes())
        payload["schema"] = RESULT_STORE_SCHEMA_VERSION + 1
        entry.write_bytes(json.dumps(payload).encode())
        reader = self.store(tmp_path)
        assert reader.get(fp) is None

    def test_wrong_fingerprint_in_payload_is_rejected(self, tmp_path):
        """A renamed/copied entry file must not serve under a new key."""
        writer = self.store(tmp_path)
        writer.put(fingerprint(), fresh_result())
        (entry,) = tmp_path.glob("*/*.result.json")
        other = fingerprint(seed=99)
        (tmp_path / other[:2]).mkdir(exist_ok=True)
        entry.rename(tmp_path / other[:2] / f"{other}.result.json")
        reader = self.store(tmp_path)
        assert reader.get(other) is None

    def test_contains_is_a_cheap_probe(self, tmp_path):
        store = self.store(tmp_path)
        fp = fingerprint()
        assert not store.contains(fp)
        store.put(fp, fresh_result())
        fresh = self.store(tmp_path)
        assert fresh.contains(fp)
        assert fresh.stats.hits == 0 and fresh.stats.misses == 0

    def test_clear_disk_removes_entries(self, tmp_path):
        store = self.store(tmp_path)
        store.put(fingerprint(), fresh_result())
        assert list(tmp_path.glob("*/*.result.json"))
        store.clear(disk=True)
        assert not list(tmp_path.glob("*/*.result.json"))
        assert len(store) == 0


def _hammer_put(directory, fp, state, iterations):
    """Writer-race subprocess body: re-encode and atomically store."""
    from repro.sim.result_store import ResultStore, SharedDirBackend

    store = ResultStore(backend=SharedDirBackend(directory))
    result = result_from_state(state)
    for _ in range(iterations):
        store.put(fp, result)


class TestStoreBackends:
    def test_shared_backend_round_trip_and_sharded_layout(self, tmp_path):
        from repro.sim.result_store import SharedDirBackend

        shared = str(tmp_path / "shared")
        writer = ResultStore(backend=SharedDirBackend(shared))
        fp = fingerprint()
        result = fresh_result()
        writer.put(fp, result)
        # Entries shard by fingerprint prefix so a campaign's millions
        # of cells never pile into one directory.
        entry = tmp_path / "shared" / fp[:2] / f"{fp}.result.json"
        assert entry.exists()
        reader = ResultStore(backend=SharedDirBackend(shared))
        assert result_to_json(reader.get(fp)) == result_to_json(result)
        assert reader.contains(fp)
        reader.clear(disk=True)
        assert not entry.exists()

    def test_shared_env_mode_uses_the_sharded_backend(self, monkeypatch,
                                                      tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "shared")
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        clear_default_result_store()
        try:
            store = default_result_store()
            fp = fingerprint()
            store.put(fp, fresh_result())
            assert (tmp_path / fp[:2] / f"{fp}.result.json").exists()
        finally:
            monkeypatch.undo()
            clear_default_result_store()

    def test_disk_env_mode_writes_the_same_sharded_layout(self, monkeypatch,
                                                          tmp_path):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "disk")
        monkeypatch.setenv("REPRO_RESULT_CACHE_DIR", str(tmp_path))
        clear_default_result_store()
        try:
            store = default_result_store()
            fp = fingerprint()
            store.put(fp, fresh_result())
            assert (tmp_path / fp[:2] / f"{fp}.result.json").exists()
            assert not (tmp_path / f"{fp}.result.json").exists()
        finally:
            monkeypatch.undo()
            clear_default_result_store()

    def test_half_written_shared_entry_is_discarded_and_regenerates(
        self, tmp_path
    ):
        """A reader racing an (hypothetical non-atomic) writer must
        treat a torn entry as a miss, drop it, and let the cell
        regenerate — never serve partial bytes."""
        from repro.sim.result_store import SharedDirBackend

        shared = str(tmp_path / "shared")
        store = ResultStore(backend=SharedDirBackend(shared))
        fp = fingerprint()
        result = fresh_result()
        store.put(fp, result)
        entry = tmp_path / "shared" / fp[:2] / f"{fp}.result.json"
        full = entry.read_bytes()
        entry.write_bytes(full[:len(full) // 2])
        reader = ResultStore(backend=SharedDirBackend(shared))
        assert reader.get(fp) is None
        assert not entry.exists()
        reader.put(fp, result)
        again = ResultStore(backend=SharedDirBackend(shared))
        assert result_to_json(again.get(fp)) == result_to_json(result)


class TestConcurrentSharedWriters:
    def test_racing_writers_on_one_fingerprint_never_tear(self, tmp_path):
        """Several processes hammering put() on the same fingerprint:
        a concurrent reader must only ever observe a miss or the one
        complete entry, never partial bytes."""
        import multiprocessing

        shared = str(tmp_path / "shared")
        fp = fingerprint()
        result = fresh_result()
        expected = result_to_json(result)
        state = result_to_state(result)
        ctx = multiprocessing.get_context()
        writers = [
            ctx.Process(target=_hammer_put, args=(shared, fp, state, 30))
            for _ in range(4)
        ]
        for writer in writers:
            writer.start()
        served_any = 0
        while any(writer.is_alive() for writer in writers):
            # A fresh store per probe so every get() really reads disk.
            from repro.sim.result_store import SharedDirBackend

            served = ResultStore(backend=SharedDirBackend(shared)).get(fp)
            if served is not None:
                served_any += 1
                assert result_to_json(served) == expected
        for writer in writers:
            writer.join(timeout=30.0)
            assert writer.exitcode == 0
        from repro.sim.result_store import SharedDirBackend

        assert served_any > 0, "the reader never caught a written entry"
        final = ResultStore(backend=SharedDirBackend(shared)).get(fp)
        assert result_to_json(final) == expected

    def test_racing_writers_on_distinct_fingerprints(self, tmp_path):
        """Distinct fingerprints interleave writers in the same shard
        tree; every entry must land intact."""
        import multiprocessing

        from repro.sim.result_store import SharedDirBackend

        shared = str(tmp_path / "shared")
        cells = []
        for seed in range(3):
            result = fresh_result(seed=seed)
            cells.append((
                fingerprint(seed=seed),
                result_to_json(result),
                result_to_state(result),
            ))
        ctx = multiprocessing.get_context()
        writers = [
            ctx.Process(target=_hammer_put, args=(shared, fp, state, 20))
            for fp, _, state in cells
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(timeout=30.0)
            assert writer.exitcode == 0
        reader = ResultStore(backend=SharedDirBackend(shared))
        for fp, expected, _ in cells:
            assert result_to_json(reader.get(fp)) == expected


class TestDefaultStore:
    def test_disabled_context_turns_the_store_off(self):
        with result_store_disabled():
            assert default_result_store() is None

    def test_use_result_store_installs_an_instance(self):
        mine = ResultStore()
        with use_result_store(mine):
            assert default_result_store() is mine
        with use_result_store(None):
            assert default_result_store() is None

    def test_invalid_mode_env_is_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "sideways")
        clear_default_result_store()
        try:
            with pytest.raises(ConfigurationError):
                default_result_store()
        finally:
            monkeypatch.undo()
            clear_default_result_store()

    def test_off_mode_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RESULT_CACHE", "off")
        clear_default_result_store()
        try:
            assert default_result_store() is None
        finally:
            monkeypatch.undo()
            clear_default_result_store()


class TestRunnerIntegration:
    def test_served_run_is_byte_identical(self):
        config = make_config(stacked_pages=8)
        cold = fresh_result(config=config, use_l3=True)
        with use_result_store(ResultStore()) as store:
            miss = run_workload("cameo", SPEC, config, N, use_l3=True)
            hit = run_workload("cameo", SPEC, config, N, use_l3=True)
            assert store.stats.misses == 1
            assert store.stats.hits == 1
        assert result_to_json(miss) == result_to_json(cold)
        assert result_to_json(hit) == result_to_json(cold)
        assert hit.provenance == miss.provenance

    def test_uncacheable_kwargs_always_simulate(self):
        class Predictor:
            pass

        config = make_config(stacked_pages=8)
        with use_result_store(ResultStore()) as store:
            # 'predictor' is not a real org kwarg; use a harmless org that
            # ignores extra kwargs? None do — so probe at the store layer
            # via the fingerprint instead, and confirm nothing is stored
            # for a run whose kwargs cannot be keyed.
            assert cell_fingerprint(
                "cameo", SPEC, config, N, 0,
                org_kwargs={"predictor": Predictor()},
            ) is None
            assert len(store) == 0

    def test_mix_is_served_and_stamped(self):
        config = make_config(stacked_pages=8, num_contexts=2)
        specs = [SPEC, workload("astar")]
        with result_store_disabled():
            cold = run_mix("cameo", specs, config, N)
        with use_result_store(ResultStore()) as store:
            miss = run_mix("cameo", specs, config, N)
            hit = run_mix("cameo", specs, config, N)
            assert store.stats.hits == 1
        assert result_to_json(miss) == result_to_json(cold)
        assert result_to_json(hit) == result_to_json(cold)
        prov = hit.provenance
        assert prov is not None
        assert prov.workload == "mix:milc,astar"
        assert prov.workload == mix_provenance_name(specs)
        assert prov.organization == "cameo"
        assert prov.accesses_per_context == N
        assert prov.config_fingerprint == config.fingerprint()

    def test_mix_permutation_is_not_served_from_the_other_order(self):
        config = make_config(stacked_pages=8, num_contexts=2)
        with use_result_store(ResultStore()) as store:
            run_mix("cameo", [SPEC, workload("astar")], config, N)
            run_mix("cameo", [workload("astar"), SPEC], config, N)
            assert store.stats.hits == 0
            assert store.stats.misses == 2
