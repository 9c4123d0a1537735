"""OnlineScheduler: submit-while-running semantics and batch equivalence."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.job import ParallelismMode
from repro.flowsim import FlowSimConfig, simulate
from repro.flowsim.policies import FIFO, SRPT, DrepSequential, RoundRobin
from repro.serve import AdmissionConfig, AdmissionController, RollingMetrics
from repro.serve.loadgen import effective_trace, replay_into
from repro.serve.online import OnlineScheduler
from repro.workloads.traces import generate_trace
from tests.conftest import make_trace


class TestBatchEquivalence:
    @pytest.mark.parametrize(
        "policy_cls", [DrepSequential, SRPT, RoundRobin, FIFO]
    )
    def test_replay_matches_simulate_bit_for_bit(self, policy_cls):
        trace = generate_trace(150, "finance", 0.7, 4, seed=9)
        offline = simulate(trace, 4, policy_cls(), seed=9)
        sched = OnlineScheduler(4, policy_cls(), seed=9)
        _, online = replay_into(sched, trace)
        np.testing.assert_array_equal(online.flow_times, offline.flow_times)
        assert online.makespan == offline.makespan
        assert online.extra["events"] == offline.extra["events"]
        assert online.preemptions == offline.preemptions

    def test_parallel_mode_equivalence(self):
        from repro.flowsim.policies import DrepParallel

        trace = generate_trace(
            100, "bing", 0.6, 8, mode=ParallelismMode.FULLY_PARALLEL, seed=4
        )
        offline = simulate(trace, 8, DrepParallel(), seed=4)
        sched = OnlineScheduler(8, DrepParallel(), seed=4)
        _, online = replay_into(sched, trace)
        np.testing.assert_array_equal(online.flow_times, offline.flow_times)

    def test_speed_config_carries_through(self):
        trace = generate_trace(60, "finance", 0.6, 2, seed=1)
        cfg = FlowSimConfig(speed=2.0)
        offline = simulate(trace, 2, SRPT(), seed=1, config=cfg)
        sched = OnlineScheduler(2, SRPT(), seed=1, config=cfg)
        _, online = replay_into(sched, trace)
        np.testing.assert_array_equal(online.flow_times, offline.flow_times)
        np.testing.assert_array_equal(online.min_flows, offline.min_flows)


class TestOnlineSemantics:
    def test_clock_advances_and_completes(self):
        sched = OnlineScheduler(1, FIFO(), seed=0)
        sched.submit(work=2.0)
        assert sched.now == 0.0
        sched.advance_to(1.0)
        assert sched.now == pytest.approx(1.0)
        assert sched.n_completed == 0
        sched.advance_to(3.0)
        assert sched.n_completed == 1
        assert sched.query(0)["state"] == "completed"
        assert sched.query(0)["flow_time"] == pytest.approx(2.0)

    def test_future_release_stays_pending(self):
        sched = OnlineScheduler(1, FIFO(), seed=0)
        sched.submit(work=1.0, release=5.0)
        assert sched.query(0)["state"] == "pending"
        assert sched.now == 0.0  # stamping a future job does not advance
        sched.advance_to(5.5)
        assert sched.query(0)["state"] == "running"

    def test_submit_in_past_rejected(self):
        sched = OnlineScheduler(1, FIFO(), seed=0)
        sched.advance_to(10.0)
        with pytest.raises(ValueError, match="past"):
            sched.submit(work=1.0, release=3.0)

    @pytest.mark.parametrize(
        "bad",
        [
            {"weight": 0.0},
            {"release": -1.0},
            {"span": 5.0},
            {"span": 0.5},
            {"span": 5.0, "mode": "fully_parallel"},
        ],
    )
    def test_spec_refusal_counts_nothing(self, bad):
        """Numbers the JobSpec refuses raise before the job counts as
        offered or reaches admission."""
        sched = OnlineScheduler(
            2,
            FIFO(),
            admission=AdmissionController(AdmissionConfig(max_active=10), 2),
        )
        sched.submit(work=1.0, release=1.0)
        before = (sched.n_offered, sched.admission.state_dict())
        with pytest.raises(ValueError):
            sched.submit(**{"work": 1.0, "release": 50.0, **bad})
        assert (sched.n_offered, sched.admission.state_dict()) == before
        assert (sched.n_submitted, sched.now) == (1, 0.0)

    def test_submit_checks_each_job_once(self, field_checks):
        """The JobSpec constructor makes the one field check of a
        submit, whether the job is accepted or shed."""
        calls = field_checks
        sched = OnlineScheduler(
            2,
            FIFO(),
            admission=AdmissionController(AdmissionConfig(max_active=1), 2),
        )
        sched.submit(work=1.0)
        assert len(calls) == 1
        sched.submit(work=4.0, mode="fully_parallel", weight=2.0, release=0.5)
        assert (len(calls), sched.n_shed) == (2, 1)
        assert calls[-1] == (0.5, 4.0, 2.0, ParallelismMode.FULLY_PARALLEL, 2.0)

    def test_clock_never_rewinds(self):
        sched = OnlineScheduler(1, FIFO(), seed=0)
        sched.advance_to(4.0)
        sched.advance_to(1.0)  # no-op, not an error
        assert sched.now == pytest.approx(4.0)

    def test_interleaved_submit_changes_schedule(self):
        # a job submitted mid-run must actually compete for the machine
        sched = OnlineScheduler(1, SRPT(), seed=0)
        sched.submit(work=10.0)
        sched.advance_to(1.0)
        sched.submit(work=1.0)  # shorter remaining => SRPT preempts
        sched.advance_to(2.5)
        assert sched.query(1)["state"] == "completed"
        assert sched.query(0)["state"] == "running"

    def test_drain_returns_full_result(self):
        sched = OnlineScheduler(2, DrepSequential(), seed=3)
        for w in (1.0, 2.0, 3.0):
            sched.submit(work=w)
        result = sched.drain()
        assert result.n_jobs == 3
        assert sched.drained
        assert result.scheduler == "DREP"
        assert not np.isnan(result.flow_times).any()

    def test_partial_result_mid_run(self):
        sched = OnlineScheduler(1, FIFO(), seed=0)
        sched.submit(work=1.0)
        sched.submit(work=5.0)
        sched.advance_to(1.5)
        partial = sched.result()
        assert partial.n_jobs == 1
        assert partial.flow_times[0] == pytest.approx(1.0)

    def test_stats_shape(self):
        sched = OnlineScheduler(
            2,
            FIFO(),
            metrics=RollingMetrics(window=100.0),
            admission=AdmissionController(AdmissionConfig(max_active=10), 2),
        )
        sched.submit(work=1.0)
        sched.advance_to(2.0)
        stats = sched.stats()
        assert stats["submitted"] == 1
        assert stats["completed"] == 1
        assert stats["window"]["count"] == 1
        assert 0.0 <= stats["backpressure"] <= 1.0

    def test_sheds_when_queue_full(self):
        sched = OnlineScheduler(
            1,
            FIFO(),
            admission=AdmissionController(AdmissionConfig(max_active=2), 1),
            metrics=RollingMetrics(),
        )
        outcomes = [sched.submit(work=10.0) for _ in range(4)]
        assert [o.accepted for o in outcomes] == [True, True, False, False]
        assert sched.n_shed == 2
        assert sched.metrics.shed == 2
        # shed jobs never reach the engine
        assert sched.n_submitted == 2


class TestEffectiveTrace:
    def test_rate_multiplier_scales_releases(self):
        trace = make_trace([1.0, 1.0], releases=[0.0, 4.0])
        eff = effective_trace(trace, rate=2.0)
        assert eff.jobs[1].release == pytest.approx(2.0)
        assert eff.jobs[1].work == 1.0

    def test_rate_one_is_identity(self):
        trace = make_trace([1.0], releases=[0.0])
        assert effective_trace(trace, 1.0) is trace

    def test_bad_rate_rejected(self):
        trace = make_trace([1.0])
        with pytest.raises(ValueError):
            effective_trace(trace, 0.0)
