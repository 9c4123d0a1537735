"""PerfCounters semantics and the engines' counter wiring."""

from __future__ import annotations

from repro.core.job import JobSpec, ParallelismMode
from repro.flowsim.engine import FlowSimConfig, simulate
from repro.flowsim.policies import SRPT, RoundRobin
from repro.perf.counters import PerfCounters
from repro.workloads.traces import Trace, generate_trace


class TestPerfCounters:
    def test_starts_empty(self):
        assert PerfCounters().as_dict() == {}

    def test_as_dict_drops_zero_fields(self):
        perf = PerfCounters()
        perf.rate_hits = 3
        assert perf.as_dict() == {"rate_hits": 3}

    def test_timing_accumulates(self):
        perf = PerfCounters()
        perf.start()
        perf.stop()
        first = perf.wall_s
        perf.start()
        perf.stop()
        assert perf.wall_s >= first >= 0

    def test_stop_without_start_is_noop(self):
        perf = PerfCounters()
        perf.stop()
        assert perf.wall_s == 0.0


class TestFlowsimWiring:
    def test_result_carries_perf_snapshot(self):
        trace = generate_trace(50, "finance", 0.6, 2, seed=1)
        result = simulate(trace, 2, SRPT(), seed=1)
        perf = result.extra["perf"]
        assert perf["events"] == result.extra["events"]
        assert perf["wall_s"] > 0

    def test_stable_policy_reuses_rates(self):
        # every natural flowsim event changes the active set, so cache
        # hits show up under horizon-bounded stepping (the serve-layer
        # pattern): parked segments leave the composition untouched
        from repro.flowsim.engine import FlowStepper

        trace = generate_trace(30, "finance", 0.6, 2, seed=2)
        stepper = FlowStepper(2, RoundRobin(), seed=2)
        for spec in trace.jobs:
            stepper.add_job(spec)
        horizon = 0.0
        while stepper.n_completed < len(trace.jobs):
            stepper.step(horizon=horizon)
            horizon += 0.25
        perf = stepper.perf
        assert perf.rate_hits > 0
        assert perf.rate_misses > 0

    def test_unstable_policy_never_hits(self):
        trace = generate_trace(50, "finance", 0.6, 2, seed=3)
        result = simulate(trace, 2, SRPT(), seed=3)
        perf = result.extra["perf"]
        # SRPT's rates depend on remaining work, recomputed every event
        assert perf.get("rate_hits", 0) == 0

    def test_amortized_checks_accounted(self):
        trace = generate_trace(80, "finance", 0.6, 2, seed=4)
        fast = simulate(trace, 2, SRPT(), seed=4).extra["perf"]
        full = simulate(
            trace, 2, SRPT(), seed=4, config=FlowSimConfig(check_every_k=1)
        ).extra["perf"]
        assert fast.get("checks_skipped", 0) > 0
        assert full.get("checks_skipped", 0) == 0
        assert full["checks_run"] >= fast["checks_run"]


class TestWsimWiring:
    def test_horizon_counters_present(self):
        from repro.dag.generators import chain
        from repro.wsim.runtime import simulate_ws
        from repro.wsim.schedulers import DrepWS

        dag = chain(400, 100)
        jobs = [
            JobSpec(
                job_id=i,
                release=float(i * 11),
                work=float(dag.work),
                span=float(dag.span),
                mode=ParallelismMode.DAG,
                dag=dag,
            )
            for i in range(3)
        ]
        result = simulate_ws(Trace(jobs=jobs, m=2), 2, DrepWS(), seed=5)
        perf = result.extra["perf"]
        assert perf["events"] == int(result.makespan)
        assert perf.get("horizon_jumps", 0) > 0
        assert perf["horizon_steps_saved"] >= perf["horizon_jumps"]
        # integer weights and unit speeds sit on the exactness grid
        assert "exactness_fallbacks" not in perf

    def test_exactness_fallback_counted_off_grid(self):
        from repro.dag.generators import chain
        from repro.wsim.runtime import simulate_ws
        from repro.wsim.schedulers import DrepWS

        dag = chain(300, 100)
        jobs = [
            JobSpec(
                job_id=0,
                release=0.0,
                work=float(dag.work),
                span=float(dag.span),
                mode=ParallelismMode.DAG,
                dag=dag,
            )
        ]
        import numpy as np

        result = simulate_ws(
            Trace(jobs=jobs, m=2), 2, DrepWS(), seed=5,
            speeds=np.array([1.0, 1.0 / 3.0]),  # 1/3 is off the dyadic grid
        )
        perf = result.extra["perf"]
        assert perf.get("exactness_fallbacks", 0) > 0
        assert perf.get("horizon_jumps", 0) == 0
