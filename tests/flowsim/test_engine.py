"""Tests for repro.flowsim.engine — exactness, conservation, validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.job import ParallelismMode
from repro.flowsim.engine import FlowSimConfig, FlowSimError, simulate
from repro.flowsim.policies import FIFO, MLF, SETF, RoundRobin, SRPT
from repro.flowsim.policies.base import ActiveView, Policy
from repro.workloads.traces import generate_trace
from tests.conftest import make_trace


class TestExactSchedules:
    def test_single_job(self):
        trace = make_trace([5.0])
        r = simulate(trace, m=1, policy=FIFO())
        assert r.flow_times[0] == pytest.approx(5.0)
        assert r.makespan == pytest.approx(5.0)

    def test_released_later(self):
        trace = make_trace([2.0], releases=[3.0])
        r = simulate(trace, m=1, policy=FIFO())
        assert r.flow_times[0] == pytest.approx(2.0)
        assert r.makespan == pytest.approx(5.0)

    def test_fifo_two_jobs_one_core(self):
        trace = make_trace([3.0, 1.0], releases=[0.0, 0.0])
        r = simulate(trace, m=1, policy=FIFO())
        # FIFO: job0 finishes at 3, job1 at 4
        np.testing.assert_allclose(r.flow_times, [3.0, 4.0])

    def test_srpt_two_jobs_one_core(self):
        trace = make_trace([3.0, 1.0], releases=[0.0, 0.0])
        r = simulate(trace, m=1, policy=SRPT())
        # SRPT: job1 first (1), then job0 (4)
        np.testing.assert_allclose(r.flow_times, [4.0, 1.0])

    def test_srpt_preempts_on_arrival(self):
        trace = make_trace([10.0, 1.0], releases=[0.0, 2.0])
        r = simulate(trace, m=1, policy=SRPT())
        # job0 runs 2 units, preempted; job1 runs 2..3; job0 resumes 3..11
        np.testing.assert_allclose(r.flow_times, [11.0, 1.0])

    def test_rr_processor_sharing(self):
        trace = make_trace([2.0, 2.0], releases=[0.0, 0.0])
        r = simulate(trace, m=1, policy=RoundRobin())
        # both share rate 1/2, both finish at 4
        np.testing.assert_allclose(r.flow_times, [4.0, 4.0])

    def test_two_cores_no_contention(self):
        trace = make_trace([2.0, 2.0], releases=[0.0, 0.0])
        r = simulate(trace, m=2, policy=RoundRobin())
        np.testing.assert_allclose(r.flow_times, [2.0, 2.0])

    def test_fully_parallel_job_uses_all_cores(self):
        trace = make_trace([8.0], mode=ParallelismMode.FULLY_PARALLEL, m=4)
        r = simulate(trace, m=4, policy=FIFO())
        assert r.flow_times[0] == pytest.approx(2.0)

    def test_empty_trace(self):
        trace = make_trace([])
        r = simulate(trace, m=2, policy=FIFO())
        assert r.n_jobs == 0


class TestConservation:
    def test_utilization_matches_offered_work(self, small_random_trace):
        r = simulate(small_random_trace, m=4, policy=SRPT())
        total_work = small_random_trace.total_work
        busy = r.extra["utilization"] * r.makespan * 4
        assert busy == pytest.approx(total_work, rel=1e-6)

    def test_flow_at_least_lower_bound(self, small_random_trace):
        r = simulate(small_random_trace, m=4, policy=SRPT())
        for spec, f in zip(small_random_trace.jobs, r.flow_times):
            assert f >= spec.lower_bound(4) * (1 - 1e-9)

    def test_all_jobs_completed(self, small_random_trace):
        r = simulate(small_random_trace, m=4, policy=RoundRobin())
        assert np.isfinite(r.flow_times).all()
        assert r.n_jobs == len(small_random_trace)


class TestPolicyValidation:
    class OverCommitted(Policy):
        name = "bad-total"

        def rates_array(self, t, m, job_ids, remaining, work, release, caps):
            return np.full(job_ids.size, m, dtype=float)

    class OverCap(Policy):
        name = "bad-cap"

        def rates_array(self, t, m, job_ids, remaining, work, release, caps):
            return caps * 2.0

    class Negative(Policy):
        name = "bad-negative"

        def rates_array(self, t, m, job_ids, remaining, work, release, caps):
            return np.full(job_ids.size, -1.0)

    class WrongShape(Policy):
        name = "bad-shape"

        def rates_array(self, t, m, job_ids, remaining, work, release, caps):
            return np.zeros(job_ids.size + 1)

    class Lazy(Policy):
        name = "lazy"

        def rates_array(self, t, m, job_ids, remaining, work, release, caps):
            return np.zeros(job_ids.size)

    def test_total_overcommit_detected(self):
        trace = make_trace([1.0, 1.0])
        with pytest.raises(FlowSimError, match="total rate"):
            simulate(trace, m=1, policy=self.OverCommitted())

    def test_cap_violation_detected(self):
        trace = make_trace([1.0])
        with pytest.raises(FlowSimError, match="cap"):
            simulate(trace, m=4, policy=self.OverCap())

    def test_negative_rate_detected(self):
        trace = make_trace([1.0])
        with pytest.raises(FlowSimError, match="negative"):
            simulate(trace, m=1, policy=self.Negative())

    def test_shape_mismatch_detected(self):
        trace = make_trace([1.0])
        with pytest.raises(FlowSimError, match="shape"):
            simulate(trace, m=1, policy=self.WrongShape())

    def test_stall_detected(self):
        trace = make_trace([1.0])
        with pytest.raises(FlowSimError, match="stalled"):
            simulate(trace, m=1, policy=self.Lazy())

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            simulate(make_trace([1.0]), m=0, policy=FIFO())


class TestEventBudget:
    """The Zeno guard: a bounded default event budget of ``60 * n + 1000``."""

    class ZenoTimer(Policy):
        """Serves properly, but schedules timers at ever-shrinking steps."""

        name = "zeno"

        def rates_array(self, t, m, job_ids, remaining, work, release, caps):
            rates = np.zeros(job_ids.size)
            rates[0] = min(1.0, caps[0])
            return rates

        def next_timer(self, view: ActiveView, rates) -> float | None:
            return view.t + 1e-12

    def test_default_matches_docstring(self):
        from repro.flowsim.engine import default_max_events

        for n in (0, 1, 10, 1000):
            assert default_max_events(n) == 60 * n + 1000
        # keep the formula and its documentation in lockstep
        assert "60 * n + 1000" in default_max_events.__doc__

    def test_default_budget_admits_normal_runs(self, small_random_trace):
        # None in the config means "use the default", not "unbounded"
        r = simulate(
            small_random_trace,
            m=4,
            policy=RoundRobin(),
            config=FlowSimConfig(max_events=None),
        )
        n = len(small_random_trace)
        assert r.extra["events"] <= 60 * n + 1000

    def test_zeno_policy_trips_the_guard(self):
        trace = make_trace([1.0, 2.0, 3.0])
        with pytest.raises(FlowSimError, match="Zeno"):
            simulate(trace, m=1, policy=self.ZenoTimer())

    def test_explicit_budget_overrides_default(self):
        # a generous explicit cap lets the same pathological policy limp
        # further than the default would
        trace = make_trace([0.001])
        with pytest.raises(FlowSimError, match="exceeded 5 events"):
            simulate(
                trace,
                m=1,
                policy=self.ZenoTimer(),
                config=FlowSimConfig(max_events=5),
            )


class TestTimerRates:
    """A timer reads the segment's rate vector from the engine instead of
    computing it again, so the policy's rate rule runs once per rate
    computation the engine books."""

    @pytest.mark.parametrize("make", [SETF, MLF], ids=["setf", "mlf"])
    def test_rates_array_runs_once_per_rate_miss(self, make):
        policy = make()
        rule = policy.rates_array
        calls = []

        def counted(*args):
            calls.append(args[0])
            return rule(*args)

        policy.rates_array = counted
        trace = generate_trace(400, "finance", 0.7, 4, seed=3)
        r = simulate(trace, 4, policy, seed=3)
        assert r.extra["perf"]["rate_misses"] == len(calls) > 0


class TestParkedIterations:
    """Clock advances that only park at the caller's horizon count as
    events but not against the Zeno budget: a live server's ticks must
    not use it up however long it idles."""

    def test_idle_online_scheduler_outlives_the_budget(self):
        from repro.serve.online import OnlineScheduler

        sched = OnlineScheduler(2, SRPT())
        for k in range(1, 1501):
            sched.advance_to(0.05 * k)
        assert sched.stats()["events"] == 1500  # still counted as events
        sched.submit(work=2.0)
        sched.advance_to(80.0)
        assert sched.n_completed == 1

    def test_horizon_steps_outlive_the_budget(self):
        from repro.flowsim.engine import FlowStepper

        stepper = FlowStepper(1, SRPT())
        stepper.add_jobs(list(make_trace([1500.0]).jobs))
        for k in range(1, 1501):
            stepper.advance_to(float(k))  # each cuts the one segment
        assert stepper.drained
        other = FlowStepper(1, SRPT())
        other.add_jobs(list(make_trace([1200.0]).jobs))
        for k in range(1, 1201):
            assert other.step(float(k))
        assert other.drained

    def test_zeno_timer_still_trips_between_horizons(self):
        from repro.flowsim.engine import FlowStepper

        stepper = FlowStepper(1, TestEventBudget.ZenoTimer())
        stepper.add_jobs(list(make_trace([1.0]).jobs))
        with pytest.raises(FlowSimError, match="Zeno"):
            for k in range(1, 100):
                stepper.advance_to(float(k))

    def test_snapshot_keeps_the_parked_count(self):
        from repro.flowsim.engine import FlowStepper

        config = FlowSimConfig(max_events=50)
        stepper = FlowStepper(1, SRPT(), config=config)
        stepper.add_jobs(list(make_trace([5000.0]).jobs))
        for k in range(1, 1001):
            stepper.advance_to(float(k))
        state = stepper.state_dict()
        assert state["parked"] == 1000
        restored = FlowStepper.from_state_dict(
            state, SRPT(), stepper.finished_state()
        )
        assert restored.state_dict()["parked"] == 1000
        restored.drain()  # the same budget left: 50 events, not -950
        assert restored.events == 1001
        # a snapshot taken before the count existed restores with 0, so
        # its 1000 parked events count against the budget of 50
        del state["parked"]
        old = FlowStepper.from_state_dict(state, SRPT(), [])
        with pytest.raises(FlowSimError, match="exceeded 50 events"):
            old.drain()

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_horizon_raises(self, bad):
        """NaN used to be a silent no-op and infinity parked the clock
        there for good; both leave the stepper untouched now."""
        from repro.flowsim.engine import FlowStepper

        stepper = FlowStepper(1, SRPT())
        stepper.add_jobs(list(make_trace([2.0]).jobs))
        stepper.advance_to(1.0)
        with pytest.raises(ValueError, match="finite|clock"):
            stepper.advance_to(bad)
        with pytest.raises(ValueError, match="finite"):
            stepper.step(bad)
        assert (stepper.now, stepper.events) == (1.0, 1)
        assert stepper.remaining_of(0) == 1.0

    @pytest.mark.parametrize("behind", [1.0, 5.0])
    def test_step_to_a_horizon_not_ahead_is_a_noop(self, behind):
        """A step bounded by a horizon at or behind the clock used to run
        one unbounded event past it (an SRPT job finishing at 10.0 after
        ``step(1.0)`` at 5.0); like advance_to, it now does nothing."""
        from repro.flowsim.engine import FlowStepper

        stepper = FlowStepper(1, SRPT())
        stepper.add_jobs(list(make_trace([10.0]).jobs))
        stepper.advance_to(5.0)
        before = stepper.state_dict()
        assert stepper.step(behind) is False
        assert stepper.state_dict() == before
        assert (stepper.now, stepper.events, stepper.n_completed) == (5.0, 1, 0)

    def test_noop_steps_leave_the_zeno_budget_alone(self):
        """Parked iterations do not count against the budget, so a step
        that ran a whole event while booking it as parked escaped the
        guard: 500 ``step(0.0)`` calls under ``max_events=50`` ran 500
        Zeno events and never raised."""
        from repro.flowsim.engine import FlowStepper

        stepper = FlowStepper(
            1, TestEventBudget.ZenoTimer(), config=FlowSimConfig(max_events=50)
        )
        stepper.add_jobs(list(make_trace([1.0]).jobs))
        for _ in range(500):
            assert stepper.step(0.0) is False
        assert (stepper.now, stepper.events) == (0.0, 0)
        assert stepper.state_dict()["parked"] == 0
        with pytest.raises(FlowSimError, match="exceeded 50 events"):
            for _ in range(51):
                stepper.step()
        assert stepper.events == 51


class TestEventCaps:
    """A cap below 1 is refused where it is written down; ``None`` is
    the default budget.  ``0`` used to mean the default silently and a
    negative cap failed the first event of every run."""

    @pytest.mark.parametrize("cap", [-5, 0])
    def test_config_refuses(self, cap):
        with pytest.raises(ValueError, match="max_events"):
            FlowSimConfig(max_events=cap)

    @pytest.mark.parametrize("cap", [-5, 0])
    def test_checkpoint_with_such_a_cap_is_refused(self, cap):
        from repro.flowsim.engine import FlowStepper

        stepper = FlowStepper(1, SRPT())
        stepper.add_jobs(list(make_trace([2.0, 3.0]).jobs))
        stepper.advance_to(1.0)
        state = stepper.state_dict()
        state["config"]["max_events"] = cap
        with pytest.raises(FlowSimError, match="max_events"):
            FlowStepper.from_state_dict(state, SRPT(), stepper.finished_state())


class TestDeterminism:
    def test_same_seed_same_result(self, small_random_trace):
        from repro.flowsim.policies import DrepSequential

        a = simulate(small_random_trace, 4, DrepSequential(), seed=5)
        b = simulate(small_random_trace, 4, DrepSequential(), seed=5)
        np.testing.assert_array_equal(a.flow_times, b.flow_times)
        assert a.preemptions == b.preemptions

    def test_different_seed_differs(self, small_random_trace):
        from repro.flowsim.policies import DrepSequential

        a = simulate(small_random_trace, 4, DrepSequential(), seed=5)
        b = simulate(small_random_trace, 4, DrepSequential(), seed=6)
        assert not np.array_equal(a.flow_times, b.flow_times)

    def test_config_event_cap(self):
        trace = make_trace([1.0, 1.0])
        with pytest.raises(FlowSimError, match="events"):
            simulate(
                trace, m=1, policy=FIFO(), config=FlowSimConfig(max_events=1)
            )
