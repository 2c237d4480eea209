"""Unit contracts of the supervision layer (no process pools here).

The end-to-end crash/kill/quarantine behaviour lives in
``tests/integration/test_supervision.py``; these tests pin the small
pieces it is built from — heartbeat file IO, the crash fault, the
stats object, and the policy plumbing.
"""

import json
import pickle
import time

import pytest

from repro.campaign.supervisor import (
    HEARTBEAT_PREFIX,
    MIN_STALE_SECONDS,
    SupervisionStats,
    Supervisor,
    read_heartbeats,
    write_heartbeat,
)
from repro.common.errors import ConfigurationError
from repro.resilience.faults import CRASH_MODES, WorkerCrashFault
from repro.resilience.policy import ExecutionPolicy


class TestHeartbeatIO:
    def test_round_trip(self, tmp_path):
        now = time.monotonic()
        path = write_heartbeat(tmp_path, pid=123, token="tok",
                               beat=now, cell="L2", cell_started=now,
                               seq=7)
        assert path.name == f"{HEARTBEAT_PREFIX}123.json"
        beats = read_heartbeats(tmp_path, "tok")
        assert len(beats) == 1
        beat = beats[0]
        assert beat.pid == 123
        assert beat.cell == "L2"
        assert beat.seq == 7
        assert beat.beat == pytest.approx(now)

    def test_idle_worker_has_no_cell(self, tmp_path):
        write_heartbeat(tmp_path, pid=1, token="t",
                        beat=time.monotonic(), cell=None,
                        cell_started=None, seq=1)
        beat = read_heartbeats(tmp_path, "t")[0]
        assert beat.cell is None
        assert beat.cell_started is None

    def test_token_filters_other_eras(self, tmp_path):
        write_heartbeat(tmp_path, pid=1, token="old",
                        beat=0.0, cell=None, cell_started=None, seq=1)
        write_heartbeat(tmp_path, pid=2, token="new",
                        beat=0.0, cell=None, cell_started=None, seq=1)
        assert [b.pid for b in read_heartbeats(tmp_path, "new")] == [2]
        # Without a token, every era is visible.
        assert len(read_heartbeats(tmp_path)) == 2

    def test_torn_file_skipped(self, tmp_path):
        (tmp_path / f"{HEARTBEAT_PREFIX}9.json").write_text(
            '{"pid": 9, "tok')
        write_heartbeat(tmp_path, pid=1, token="t",
                        beat=0.0, cell=None, cell_started=None, seq=1)
        assert [b.pid for b in read_heartbeats(tmp_path, "t")] == [1]

    def test_non_heartbeat_files_ignored(self, tmp_path):
        (tmp_path / "shard-0000-000.jsonl").write_text(
            json.dumps({"pid": 5}) + "\n")
        assert read_heartbeats(tmp_path) == []

    def test_missing_directory_is_empty(self, tmp_path):
        assert read_heartbeats(tmp_path / "nope") == []

    def test_rewrite_replaces_not_appends(self, tmp_path):
        for seq in (1, 2, 3):
            write_heartbeat(tmp_path, pid=1, token="t", beat=float(seq),
                            cell=None, cell_started=None, seq=seq)
        beats = read_heartbeats(tmp_path, "t")
        assert len(beats) == 1
        assert beats[0].seq == 3


class TestSupervisionStats:
    def test_defaults_are_quiet(self):
        stats = Supervisor().stats()
        assert stats == SupervisionStats()
        assert stats.kills == 0
        assert stats.quarantined == ()

    def test_kills_sums_both_causes(self):
        stats = SupervisionStats(deadline_kills=2, stale_kills=3)
        assert stats.kills == 5

    def test_policy_builds_configured_supervisor(self):
        policy = ExecutionPolicy(deadline=10.0, heartbeat_interval=1.5,
                                 grace_factor=3.0, quarantine_after=4,
                                 max_pool_rebuilds=9)
        supervisor = policy.make_supervisor()
        assert supervisor.deadline == 10.0
        stats = supervisor.stats()
        assert stats.heartbeat_interval == 1.5
        assert stats.grace_factor == 3.0
        assert stats.quarantine_after == 4
        assert stats.max_pool_rebuilds == 9


class TestStaleBudget:
    """The staleness kill waits at least ``MIN_STALE_SECONDS``."""

    def patrol(self, tmp_path, monkeypatch, age, **supervisor_kwargs):
        killed = []
        monkeypatch.setattr(Supervisor, "_kill",
                            staticmethod(killed.append))
        write_heartbeat(tmp_path, pid=4242, token="t",
                        beat=time.monotonic() - age, cell="L2",
                        cell_started=None, seq=1)
        supervisor = Supervisor(**supervisor_kwargs)
        supervisor._patrol(tmp_path, "t", {}, {})
        return killed, supervisor.stats()

    def test_short_interval_tolerates_a_descheduled_worker(
            self, tmp_path, monkeypatch):
        # 0.05 s x 2 would call a 0.5 s-old beat stale; the floor
        # keeps a healthy worker the OS parked that long alive.
        killed, stats = self.patrol(tmp_path, monkeypatch, age=0.5,
                                    heartbeat_interval=0.05)
        assert killed == []
        assert stats.stale_kills == 0

    def test_beat_past_the_floor_is_killed(self, tmp_path, monkeypatch):
        killed, stats = self.patrol(tmp_path, monkeypatch,
                                    age=MIN_STALE_SECONDS + 0.5,
                                    heartbeat_interval=0.05)
        assert killed == [4242]
        assert stats.stale_kills == 1

    def test_long_budgets_are_unchanged(self, tmp_path, monkeypatch):
        # 2 s x 2 = 4 s is above the floor: a 3 s-old beat lives.
        killed, _ = self.patrol(tmp_path, monkeypatch, age=3.0,
                                heartbeat_interval=2.0)
        assert killed == []
        killed, _ = self.patrol(tmp_path, monkeypatch, age=4.5,
                                heartbeat_interval=2.0)
        assert killed == [4242]


class TestPolicyValidation:
    @pytest.mark.parametrize("field, value", [
        ("heartbeat_interval", 0.0),
        ("heartbeat_interval", -1.0),
        ("grace_factor", 0.5),
        ("quarantine_after", 0),
        ("quarantine_after", -2),
        ("max_pool_rebuilds", -1),
    ])
    def test_bad_supervision_fields_rejected(self, field, value):
        with pytest.raises(ConfigurationError):
            ExecutionPolicy(**{field: value})

    def test_grace_factor_of_one_is_legal(self):
        assert ExecutionPolicy(grace_factor=1.0).grace_factor == 1.0


class TestWorkerCrashFault:
    def test_modes_are_closed_set(self):
        assert set(CRASH_MODES) == {"sigkill", "exit", "stop"}

    def test_unknown_mode_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkerCrashFault(mode="segfault")

    def test_refuses_to_fire_in_main_process(self, tmp_path):
        # Guard: firing here would SIGKILL the test runner itself.
        fault = WorkerCrashFault(mode="sigkill")
        with pytest.raises(ConfigurationError):
            fault()

    def test_pickles_for_process_dispatch(self):
        fault = WorkerCrashFault(mode="exit", exit_code=3,
                                 once_path="/tmp/marker")
        clone = pickle.loads(pickle.dumps(fault))
        assert clone == fault

    def test_fault_name_attribute_names_without_firing(self):
        # FaultPlan.draw logs the fault name; calling the factory to
        # learn it would crash the worker during draw().
        assert WorkerCrashFault().fault_name == "WorkerCrash"
