"""Tests for repro.wsim.runtime — execution semantics and conservation."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.core.job import JobSpec, ParallelismMode
from repro.dag.generators import chain, spawn_tree, wide
from repro.workloads.traces import Trace
from repro.wsim.runtime import WsConfig, WsimError, WsRuntime, simulate_ws
from repro.wsim.schedulers import AdmitFirstWS, DrepWS, StealFirstWS, SwfApproxWS


def dag_trace(dags, releases=None, m=2):
    releases = releases or [0.0] * len(dags)
    jobs = [
        JobSpec(
            job_id=i,
            release=float(r),
            work=float(d.work),
            span=float(d.span),
            mode=ParallelismMode.DAG,
            dag=d,
        )
        for i, (d, r) in enumerate(zip(dags, releases))
    ]
    return Trace(jobs=jobs, m=m, load=0.0, distribution="manual")


ALL_SCHEDULERS = [DrepWS, SwfApproxWS, StealFirstWS, AdmitFirstWS]


class TestSingleJob:
    @pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
    def test_chain_runs_near_span(self, scheduler_cls):
        """One sequential chain: flow = work + small admission overhead
        (steal-first burns its failed-steal budget before admitting)."""
        trace = dag_trace([chain(20, 1)])
        r = simulate_ws(trace, 2, scheduler_cls(), seed=0)
        assert 21.0 <= r.flow_times[0] <= 21.0 + 2 * 2 + 1

    @pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
    def test_parallel_job_speeds_up(self, scheduler_cls):
        d = wide(8, 50)
        t1 = simulate_ws(dag_trace([d]), 1, scheduler_cls(), seed=0)
        t4 = simulate_ws(dag_trace([d]), 4, scheduler_cls(), seed=0)
        assert t4.flow_times[0] < 0.5 * t1.flow_times[0]

    def test_work_conservation(self):
        d = spawn_tree(4, 20)
        trace = dag_trace([d])
        r = simulate_ws(trace, 4, DrepWS(), seed=1)
        assert r.extra["work_steps"] == d.work

    def test_flow_at_least_span_over_steps(self):
        d = spawn_tree(3, 30)
        trace = dag_trace([d])
        r = simulate_ws(trace, 8, DrepWS(), seed=1)
        assert r.flow_times[0] >= d.span

    def test_greedy_bound(self):
        """Work stealing respects the classic W/m + O(C) style bound
        loosely: a single job on m cores cannot take longer than W + C
        steps (very weak sanity bound including steal overhead)."""
        d = spawn_tree(4, 10)
        trace = dag_trace([d])
        r = simulate_ws(trace, 4, DrepWS(), seed=2)
        assert r.flow_times[0] <= d.work + 10 * d.span


class TestMultiJob:
    @pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
    def test_all_jobs_finish(self, scheduler_cls, small_dag_trace):
        r = simulate_ws(small_dag_trace, 4, scheduler_cls(), seed=3)
        assert np.isfinite(r.flow_times).all()
        assert (r.flow_times >= 1).all()

    @pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
    def test_work_conservation_multi(self, scheduler_cls, small_dag_trace):
        total = sum(int(j.dag.work) for j in small_dag_trace.jobs)
        r = simulate_ws(small_dag_trace, 4, scheduler_cls(), seed=3)
        assert r.extra["work_steps"] == total

    @pytest.mark.parametrize("scheduler_cls", ALL_SCHEDULERS)
    def test_invariants_hold_throughout(self, scheduler_cls, small_dag_trace):
        config = WsConfig(debug_invariants=True)
        simulate_ws(small_dag_trace, 4, scheduler_cls(), seed=3, config=config)

    def test_determinism(self, small_dag_trace):
        a = simulate_ws(small_dag_trace, 4, DrepWS(), seed=7)
        b = simulate_ws(small_dag_trace, 4, DrepWS(), seed=7)
        np.testing.assert_array_equal(a.flow_times, b.flow_times)
        assert a.steal_attempts == b.steal_attempts

    def test_seed_sensitivity(self, small_dag_trace):
        a = simulate_ws(small_dag_trace, 4, DrepWS(), seed=7)
        b = simulate_ws(small_dag_trace, 4, DrepWS(), seed=8)
        assert not np.array_equal(a.flow_times, b.flow_times)


class TestConfig:
    def test_requires_dags(self, small_random_trace):
        with pytest.raises(ValueError, match="DAG"):
            simulate_ws(small_random_trace, 2, DrepWS())

    def test_trace_with_a_later_dagless_job_refused_at_construction(self):
        # jobs are pulled one ahead of the clock, but a trace is checked
        # whole when the runtime is built, not when job 1 is reached
        trace = dag_trace([chain(5, 1), chain(5, 1)], releases=[0.0, 50.0])
        trace.jobs[1] = dataclasses.replace(trace.jobs[1], dag=None)
        with pytest.raises(ValueError, match="DAG"):
            WsRuntime(trace, 2, DrepWS())

    def test_invalid_m(self, small_dag_trace):
        with pytest.raises(ValueError):
            simulate_ws(small_dag_trace, 0, DrepWS())

    def test_invalid_preempt_check(self):
        with pytest.raises(ValueError):
            WsConfig(preempt_check="sometimes")

    def test_max_steps_guard(self, small_dag_trace):
        with pytest.raises(WsimError, match="exceeded"):
            simulate_ws(
                small_dag_trace, 4, DrepWS(), config=WsConfig(max_steps=3)
            )

    @pytest.mark.parametrize("cap", [-5, 0])
    def test_max_steps_below_one_refused(self, cap):
        """``0`` used to mean the default bound silently, and ``-5`` made
        every run stop at step 0 with "exceeded -5 steps"."""
        with pytest.raises(ValueError, match="max_steps"):
            WsConfig(max_steps=cap)

    @pytest.mark.parametrize("mode", ["steal", "node", "step"])
    def test_all_preempt_modes_complete(self, mode, small_dag_trace):
        config = WsConfig(preempt_check=mode)
        r = simulate_ws(small_dag_trace, 4, DrepWS(), seed=5, config=config)
        assert np.isfinite(r.flow_times).all()


class TestIdleJump:
    def test_gap_between_jobs_skipped(self):
        trace = dag_trace([chain(5, 1), chain(5, 1)], releases=[0.0, 1000.0])
        r = simulate_ws(trace, 2, AdmitFirstWS(), seed=0)
        # makespan reflects the second arrival, not busy-waiting cost
        assert 1000 <= r.makespan <= 1010
        assert r.flow_times[1] <= 10
