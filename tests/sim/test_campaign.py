"""Tests for the crash-safe campaign runner and its checkpoints."""

import json
import os

import pytest

from repro.errors import CampaignError
from repro.faults import FaultConfig
from repro.sim.campaign import (
    CHECKPOINT_VERSION,
    CampaignPoint,
    CampaignSpec,
    load_checkpoint,
    run_campaign,
)

#: Small enough that one point simulates in milliseconds.
TINY = dict(accesses_per_context=40, scale_shift=14)


def tiny_spec(**overrides):
    kwargs = dict(
        organizations=("baseline", "cameo"),
        workloads=("astar",),
        seeds=(0,),
        backoff_seconds=0.0,
        **TINY,
    )
    kwargs.update(overrides)
    return CampaignSpec(**kwargs)


class TestCampaignPoint:
    def test_key_is_stable_and_readable(self):
        point = CampaignPoint("cameo", "milc", seed=3)
        assert point.key == "cameo/milc/s3"


class TestCampaignSpec:
    def test_points_cover_the_grid_in_order(self):
        spec = tiny_spec(seeds=(0, 1))
        keys = [p.key for p in spec.points()]
        assert keys == [
            "baseline/astar/s0", "baseline/astar/s1",
            "cameo/astar/s0", "cameo/astar/s1",
        ]
        assert spec.total_points == 4

    def test_empty_grid_rejected(self):
        with pytest.raises(CampaignError):
            tiny_spec(organizations=())
        with pytest.raises(CampaignError):
            tiny_spec(workloads=())
        with pytest.raises(CampaignError):
            tiny_spec(seeds=())

    def test_bad_run_policy_rejected(self):
        with pytest.raises(CampaignError):
            tiny_spec(timeout_seconds=0.0)
        with pytest.raises(CampaignError):
            tiny_spec(max_attempts=0)
        with pytest.raises(CampaignError):
            tiny_spec(backoff_seconds=-1.0)

    def test_grid_dict_ignores_run_policy(self):
        # Changing timeouts/retries between invocations must not
        # invalidate an existing checkpoint.
        a = tiny_spec(timeout_seconds=10.0, max_attempts=1)
        b = tiny_spec(timeout_seconds=99.0, max_attempts=5)
        assert a.grid_dict() == b.grid_dict()

    def test_grid_dict_tracks_simulation_inputs(self):
        assert tiny_spec().grid_dict() != tiny_spec(seeds=(1,)).grid_dict()
        assert (
            tiny_spec().grid_dict()
            != tiny_spec(fault_config=FaultConfig(transient_flip_rate=0.1)).grid_dict()
        )

    def test_grid_dict_is_json_serializable(self):
        spec = tiny_spec(fault_config=FaultConfig(transient_flip_rate=0.1))
        assert json.loads(json.dumps(spec.grid_dict())) == spec.grid_dict()


class TestCheckpointLoading:
    def test_missing_file_is_a_fresh_campaign(self, tmp_path):
        assert load_checkpoint(str(tmp_path / "none.json"), tiny_spec()) == {}

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text("{not json")
        with pytest.raises(CampaignError):
            load_checkpoint(str(path), tiny_spec())

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "version": CHECKPOINT_VERSION + 1,
            "spec": tiny_spec().grid_dict(),
            "completed": {},
        }))
        with pytest.raises(CampaignError):
            load_checkpoint(str(path), tiny_spec())

    def test_different_grid_rejected(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "version": CHECKPOINT_VERSION,
            "spec": tiny_spec(seeds=(5,)).grid_dict(),
            "completed": {},
        }))
        with pytest.raises(CampaignError):
            load_checkpoint(str(path), tiny_spec())

    def test_unknown_keys_rejected_as_named_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "version": CHECKPOINT_VERSION,
            "spec": tiny_spec().grid_dict(),
            "completed": {},
            "surprise": True,
        }))
        with pytest.raises(CampaignError, match="surprise"):
            load_checkpoint(str(path), tiny_spec())

    def test_missing_keys_rejected_not_keyerror(self, tmp_path):
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({"version": CHECKPOINT_VERSION}))
        with pytest.raises(CampaignError):
            load_checkpoint(str(path), tiny_spec())

    def test_completed_entries_missing_ipc_rejected_up_front(self, tmp_path):
        # A drifted entry must fail at load time as a CampaignError, not
        # later as a KeyError inside CampaignResult.render().
        path = tmp_path / "ckpt.json"
        path.write_text(json.dumps({
            "version": CHECKPOINT_VERSION,
            "spec": tiny_spec().grid_dict(),
            "completed": {"baseline/astar/s0": {"cycles": 10}},
            "failed": {},
        }))
        with pytest.raises(CampaignError, match="flattened run result"):
            load_checkpoint(str(path), tiny_spec())


class TestRunCampaign:
    def test_full_campaign_completes(self, tmp_path):
        spec = tiny_spec()
        path = str(tmp_path / "ckpt.json")
        result = run_campaign(spec, path)
        assert result.all_completed
        assert not result.failed
        assert sorted(result.executed_keys) == sorted(
            p.key for p in spec.points()
        )
        for point in spec.points():
            assert result.completed[point.key]["ipc"] > 0
        # The checkpoint doubles as the machine-readable output.
        assert load_checkpoint(path, spec) == result.completed

    def test_resume_runs_only_incomplete_points(self, tmp_path):
        spec = tiny_spec()
        full_path = str(tmp_path / "full.json")
        full = run_campaign(spec, full_path)

        # Fabricate an interrupted campaign: the checkpoint knows about
        # every point except one.
        partial_path = str(tmp_path / "partial.json")
        with open(full_path) as fp:
            payload = json.load(fp)
        missing = "cameo/astar/s0"
        del payload["completed"][missing]
        with open(partial_path, "w") as fp:
            json.dump(payload, fp)

        resumed = run_campaign(spec, partial_path)
        assert resumed.executed_keys == [missing]
        assert resumed.all_completed
        # Merged output equals the uninterrupted run's.
        assert resumed.completed == full.completed

    def test_fully_complete_checkpoint_runs_nothing(self, tmp_path):
        spec = tiny_spec()
        path = str(tmp_path / "ckpt.json")
        first = run_campaign(spec, path)
        again = run_campaign(spec, path)
        assert again.executed_keys == []
        assert again.completed == first.completed

    def test_fault_campaign_carries_counters(self, tmp_path):
        spec = tiny_spec(
            organizations=("cameo",),
            fault_config=FaultConfig(
                transient_flip_rate=0.05, uncorrectable_fraction=0.5
            ),
        )
        result = run_campaign(spec, str(tmp_path / "ckpt.json"))
        assert result.all_completed
        summary = result.completed["cameo/astar/s0"]["fault_summary"]
        assert summary["transient_flips"] > 0

    def test_broken_point_fails_without_sinking_campaign(self, tmp_path):
        spec = tiny_spec(
            organizations=("baseline", "no-such-org"), max_attempts=1
        )
        path = str(tmp_path / "ckpt.json")
        result = run_campaign(spec, path)
        assert not result.all_completed
        assert "baseline/astar/s0" in result.completed
        assert "no-such-org/astar/s0" in result.failed
        # The failure is recorded in the checkpoint too.
        with open(path) as fp:
            assert "no-such-org/astar/s0" in json.load(fp)["failed"]

    def test_failed_points_get_fresh_budget_on_resume(self, tmp_path):
        path = str(tmp_path / "ckpt.json")
        bad = tiny_spec(organizations=("no-such-org",), max_attempts=1)
        first = run_campaign(bad, path)
        assert first.failed
        # Same grid, new invocation: the failed point is attempted again
        # (completed points would be skipped; failed ones are not sticky).
        second = run_campaign(bad, path)
        assert second.executed_keys == []
        assert "no-such-org/astar/s0" in second.failed

    def test_hung_point_times_out_and_is_reported(self, tmp_path, monkeypatch):
        # Every first attempt hangs before simulating (the injection runs
        # in the subprocess worker), so the 0.2s budget always expires —
        # however fast the simulation itself has become.
        monkeypatch.setenv(
            "REPRO_INJECT_WORKER_FAULTS", "hang=1.0,max_attempt=1,seed=0"
        )
        spec = tiny_spec(
            organizations=("cameo",),
            timeout_seconds=0.2,
            max_attempts=1,
        )
        result = run_campaign(spec, str(tmp_path / "ckpt.json"))
        assert not result.all_completed
        assert "timeout" in result.failed["cameo/astar/s0"]

    def test_parallel_workers_match_serial_results(self, tmp_path):
        spec = tiny_spec(seeds=(0, 1))
        serial = run_campaign(spec, str(tmp_path / "serial.json"))
        parallel = run_campaign(
            spec, str(tmp_path / "parallel.json"), max_workers=4
        )
        assert parallel.completed == serial.completed

    def test_bad_worker_count_rejected(self, tmp_path):
        with pytest.raises(CampaignError):
            run_campaign(tiny_spec(), str(tmp_path / "c.json"), max_workers=0)

    def test_render_lists_every_point(self, tmp_path):
        spec = tiny_spec()
        result = run_campaign(spec, str(tmp_path / "ckpt.json"))
        text = result.render()
        for point in spec.points():
            assert point.key in text

    def test_checkpoint_written_atomically(self, tmp_path):
        spec = tiny_spec(organizations=("baseline",))
        path = str(tmp_path / "nested" / "dir" / "ckpt.json")
        run_campaign(spec, path)
        assert os.path.exists(path)
        leftovers = [
            name for name in os.listdir(os.path.dirname(path))
            if name.endswith(".tmp")
        ]
        assert leftovers == []
