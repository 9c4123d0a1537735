"""Checkpoint/restore: a killed server resumes without losing anything.

The load-bearing property: checkpoint mid-run, restore (same or fresh
process), finish the replay — the flow times must equal an
uninterrupted run exactly, RNG draws included.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.flowsim import simulate
from repro.flowsim.policies import SETF, DrepSequential, WDrep
from repro.serve import (
    AdmissionConfig,
    AdmissionController,
    RollingMetrics,
    restore_scheduler,
    restore_scheduler_file,
    snapshot_scheduler,
    snapshot_scheduler_file,
)
from repro.serve.online import OnlineScheduler
from repro.serve.snapshot import SnapshotError
from repro.workloads.traces import generate_trace


def stream_prefix(sched: OnlineScheduler, trace, upto: int) -> None:
    for spec in trace.jobs[:upto]:
        sched.advance_to(spec.release)
        sched.submit_spec(spec)


def stream_rest_and_drain(sched: OnlineScheduler, trace, start: int):
    for spec in trace.jobs[start:]:
        sched.advance_to(spec.release)
        sched.submit_spec(spec)
    return sched.drain()


class TestRoundTrip:
    @pytest.mark.parametrize("policy_cls", [DrepSequential, WDrep, SETF])
    def test_mid_run_checkpoint_matches_uninterrupted(self, policy_cls):
        trace = generate_trace(120, "finance", 0.7, 4, seed=21)
        uninterrupted = simulate(trace, 4, policy_cls(), seed=21)

        sched = OnlineScheduler(4, policy_cls(), seed=21)
        stream_prefix(sched, trace, 60)
        # force an honest serialization boundary
        state = json.loads(json.dumps(snapshot_scheduler(sched)))
        restored = restore_scheduler(state)
        assert restored.now == sched.now
        result = stream_rest_and_drain(restored, trace, 60)
        np.testing.assert_array_equal(
            result.flow_times, uninterrupted.flow_times
        )
        assert result.preemptions == uninterrupted.preemptions

    def test_restore_in_fresh_process(self, tmp_path: Path):
        """Kill the 'server', restore in a brand-new interpreter, drain."""
        trace = generate_trace(80, "bing", 0.6, 2, seed=33)
        uninterrupted = simulate(trace, 2, DrepSequential(), seed=33)

        sched = OnlineScheduler(2, DrepSequential(), seed=33)
        stream_prefix(sched, trace, 40)
        snap = snapshot_scheduler_file(sched, tmp_path / "ckpt.json")
        trace_file = tmp_path / "trace.json"
        trace.save(trace_file)

        script = (
            "import json, sys\n"
            "from repro.serve import restore_scheduler_file\n"
            "from repro.workloads.traces import Trace\n"
            "sched = restore_scheduler_file(sys.argv[1])\n"
            "trace = Trace.load_file(sys.argv[2])\n"
            "for spec in trace.jobs[40:]:\n"
            "    sched.advance_to(spec.release)\n"
            "    sched.submit_spec(spec)\n"
            "result = sched.drain()\n"
            "print(json.dumps([float(f) for f in result.flow_times]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(snap), str(trace_file)],
            capture_output=True,
            text=True,
            check=True,
        )
        flows = np.array(json.loads(proc.stdout), dtype=float)
        np.testing.assert_array_equal(flows, uninterrupted.flow_times)

    def test_collaborator_state_survives(self, tmp_path: Path):
        sched = OnlineScheduler(
            2,
            DrepSequential(),
            admission=AdmissionController(AdmissionConfig(max_active=2), 2),
            metrics=RollingMetrics(window=50.0),
        )
        sched.submit(work=1.0)
        sched.submit(work=1.0)
        assert not sched.submit(work=1.0).accepted  # shed
        sched.advance_to(10.0)
        path = snapshot_scheduler_file(sched, tmp_path / "s.json")
        restored = restore_scheduler_file(path)
        assert restored.n_shed == 1
        assert restored.n_offered == 3
        assert restored.metrics.completed == 2
        assert restored.admission.config.max_active == 2
        # restored scheduler keeps enforcing the same policy
        restored.submit(work=1.0)
        restored.submit(work=1.0)
        assert not restored.submit(work=1.0).accepted


class TestErrors:
    def test_dag_jobs_refuse_snapshot(self):
        from repro.workloads.traces import attach_dags

        trace = attach_dags(generate_trace(3, "finance", 0.5, 2, seed=0), 2)
        sched = OnlineScheduler(2, DrepSequential())
        for spec in trace.jobs:
            sched.advance_to(spec.release)
            sched.submit_spec(spec)
        with pytest.raises(Exception, match="DAG"):
            snapshot_scheduler(sched)

    def test_version_mismatch_rejected(self):
        sched = OnlineScheduler(1, DrepSequential())
        state = snapshot_scheduler(sched)
        state["version"] = 999
        with pytest.raises(SnapshotError, match="version"):
            restore_scheduler(state)

    def test_foreign_policy_class_rejected(self):
        sched = OnlineScheduler(1, DrepSequential())
        state = snapshot_scheduler(sched)
        state["policy"]["class"] = "os:system"
        with pytest.raises(SnapshotError, match="repro"):
            restore_scheduler(state)


class TestRetiredEngineSwitches:
    """Snapshots written before the engine picked its paths by capability
    carry three config switches the engine no longer has."""

    RETIRED = ("use_rates_array", "use_batch_horizon", "use_incremental")

    def _mid_run_state(self):
        trace = generate_trace(120, "finance", 0.7, 4, seed=21)
        sched = OnlineScheduler(4, DrepSequential(), seed=21)
        stream_prefix(sched, trace, 60)
        return trace, json.loads(json.dumps(snapshot_scheduler(sched)))

    def test_snapshot_no_longer_writes_them(self):
        _, state = self._mid_run_state()
        assert not set(self.RETIRED) & set(state["engine"]["config"])

    def test_parent_format_restores_bit_for_bit(self):
        trace, state = self._mid_run_state()
        uninterrupted = simulate(trace, 4, DrepSequential(), seed=21)
        state["engine"]["config"].update(dict.fromkeys(self.RETIRED, True))
        result = stream_rest_and_drain(restore_scheduler(state), trace, 60)
        np.testing.assert_array_equal(
            result.flow_times, uninterrupted.flow_times
        )
        assert result.preemptions == uninterrupted.preemptions
        assert result.extra["events"] == uninterrupted.extra["events"]

    @pytest.mark.parametrize("key", RETIRED)
    def test_switch_turned_off_rejected(self, key):
        _, state = self._mid_run_state()
        state["engine"]["config"][key] = False
        with pytest.raises(SnapshotError, match=key):
            restore_scheduler(state)

    def test_unknown_config_key_rejected(self):
        _, state = self._mid_run_state()
        state["engine"]["config"]["bogus"] = 1
        with pytest.raises(SnapshotError, match="bogus"):
            restore_scheduler(state)

    def test_invalid_config_value_rejected(self):
        _, state = self._mid_run_state()
        state["engine"]["config"]["speed"] = 0.0
        with pytest.raises(SnapshotError, match="speed"):
            restore_scheduler(state)
