"""Checkpoint/restore: a killed server resumes without losing anything.

The load-bearing property: checkpoint mid-run, restore (same or fresh
process), finish the replay — the flow times must equal an
uninterrupted run exactly, RNG draws included.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.job import JobSpec, ParallelismMode
from repro.core.rng import DrawStream
from repro.flowsim import simulate
from repro.flowsim.policies import SETF, DrepParallel, DrepSequential, RoundRobin, WDrep
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
from repro.serve.snapshot import SnapshotError, _decode_policy, _encode_policy
from repro.workloads.traces import Trace, generate_trace


def stream_prefix(sched: OnlineScheduler, trace, upto: int, start: int = 0) -> None:
    for spec in trace.jobs[start:upto]:
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
        # the fresh process imports the package from this checkout's
        # src/, installed or not
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script, str(snap), str(trace_file)],
            capture_output=True,
            text=True,
            check=True,
            env=env,
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
    carry config switches the engine no longer has, and those written
    before it stopped recording schedule segments carry an empty
    ``segments`` entry."""

    #: switch -> the one value a restorable snapshot carries for it
    RETIRED = {
        "use_rates_array": True,
        "use_batch_horizon": True,
        "use_incremental": True,
        "record_segments": False,
    }

    def _mid_run_state(self):
        trace = generate_trace(120, "finance", 0.7, 4, seed=21)
        sched = OnlineScheduler(4, DrepSequential(), seed=21)
        stream_prefix(sched, trace, 60)
        return trace, json.loads(json.dumps(snapshot_scheduler(sched)))

    def test_snapshot_no_longer_writes_them(self):
        _, state = self._mid_run_state()
        assert not set(self.RETIRED) & set(state["engine"]["config"])
        assert "segments" not in state["engine"]

    def test_parent_format_restores_bit_for_bit(self):
        trace, state = self._mid_run_state()
        uninterrupted = simulate(trace, 4, DrepSequential(), seed=21)
        state["engine"]["config"].update(self.RETIRED)
        state["engine"]["segments"] = []
        result = stream_rest_and_drain(restore_scheduler(state), trace, 60)
        np.testing.assert_array_equal(
            result.flow_times, uninterrupted.flow_times
        )
        assert result.preemptions == uninterrupted.preemptions
        assert result.extra["events"] == uninterrupted.extra["events"]

    @pytest.mark.parametrize("key", RETIRED)
    def test_switch_turned_off_rejected(self, key):
        """A retired switch set to the value the engine no longer has."""
        _, state = self._mid_run_state()
        state["engine"]["config"][key] = not self.RETIRED[key]
        with pytest.raises(SnapshotError, match=key):
            restore_scheduler(state)

    def test_recorded_segments_rejected(self):
        _, state = self._mid_run_state()
        state["engine"]["segments"] = [[0.0, 1.0, {"0": 1.0}]]
        with pytest.raises(SnapshotError, match="segments"):
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


def _drep_case(name: str):
    """(policy class, trace) of one DREP variant on m = 4; WDREP's jobs
    carry three weights, so its completions take the weighted re-draw."""
    if name == "drep-par":
        trace = generate_trace(
            120, "bing", 0.7, 4, mode=ParallelismMode.FULLY_PARALLEL, seed=22
        )
        return DrepParallel, trace
    trace = generate_trace(120, "finance", 0.7, 4, seed=21)
    if name == "wdrep":
        jobs = [
            JobSpec(
                job_id=j.job_id, release=j.release, work=j.work, span=j.span,
                mode=j.mode, weight=(1.0, 2.0, 0.5)[j.job_id % 3],
            )
            for j in trace.jobs
        ]
        return WDrep, Trace(jobs=jobs, m=4)
    return DrepSequential, trace


class TestDrawStreamState:
    """DREP keeps its processor table as a list and draws through a
    prefetching :class:`DrawStream`; a checkpoint stores the stream as
    its synced generator state."""

    def _continue(self, name: str, state: dict, trace, start: int = 60):
        cls, _ = _drep_case(name)
        want_policy = cls()
        want = simulate(trace, 4, want_policy, seed=21)
        restored = restore_scheduler(json.loads(json.dumps(state)))
        assert type(restored.policy._rng) is DrawStream
        assert type(restored.policy._assignment) is list
        got = stream_rest_and_drain(restored, trace, start)
        np.testing.assert_array_equal(got.flow_times, want.flow_times)
        for key in ("events", "switches"):
            assert got.extra[key] == want.extra[key]
        assert got.preemptions == want.preemptions
        assert got.migrations == want.migrations
        assert (
            restored.policy._rng.bit_generator.state
            == want_policy._rng.bit_generator.state
        )

    @pytest.mark.parametrize("name", ["drep", "drep-par", "wdrep"])
    def test_earlier_format_restores_bit_for_bit(self, name):
        """State written when the table was an int64 array and the
        generator a plain one."""
        cls, trace = _drep_case(name)
        sched = OnlineScheduler(4, cls(), seed=21)
        stream_prefix(sched, trace, 60)
        state = json.loads(json.dumps(snapshot_scheduler(sched)))
        attrs = state["policy"]["attrs"]
        attrs["_assignment"] = {
            "__ndarray__": attrs["_assignment"], "dtype": "int64"
        }
        attrs["_rng"] = {"__rng__": attrs["_rng"]["__draws__"]}
        self._continue(name, state, trace)

    @pytest.mark.parametrize("name", ["drep", "drep-par", "wdrep"])
    def test_checkpoint_with_prefetched_words(self, name):
        """A checkpoint taken while the stream holds unused words: the
        restored run and the checkpointed one both go on bit for bit."""
        cls, trace = _drep_case(name)
        sched = OnlineScheduler(4, cls(), seed=21)
        start = 60
        stream_prefix(sched, trace, start)
        # WDREP's weighted re-draw syncs the stream; go on to a live block
        while not sched.policy._rng._words:
            stream_prefix(sched, trace, start + 1, start)
            start += 1
        state = snapshot_scheduler(sched)
        self._continue(name, state, trace, start)
        want = simulate(trace, 4, cls(), seed=21)
        got = stream_rest_and_drain(sched, trace, start)
        np.testing.assert_array_equal(got.flow_times, want.flow_times)

    def test_any_policy_attribute_round_trips(self):
        policy = RoundRobin()
        policy.draws = DrawStream(np.random.default_rng(5))
        plain = np.random.default_rng(5)
        for n in (3, 10, 2**31 + 1):
            assert policy.draws.index(n) == int(plain.integers(n))
        restored = _decode_policy(json.loads(json.dumps(_encode_policy(policy))))
        assert type(restored.draws) is DrawStream
        assert restored.draws.bit_generator.state == plain.bit_generator.state
        assert restored.draws.random_list(300) == plain.random(300).tolist()
        assert restored.draws.index(7) == int(plain.integers(7))
