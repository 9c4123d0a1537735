"""Fault injection in the discrete work-stealing runtime."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.job import JobSpec, ParallelismMode
from repro.faults import FaultEvent, FaultPlan, named_fault_plans
from repro.dag.generators import chain
from repro.workloads.traces import Trace, attach_dags, generate_trace
from repro.wsim.runtime import WsRuntime, simulate_ws
from repro.wsim.schedulers import ws_scheduler_by_name

SCHEDULERS = ["drep", "steal-first", "admit-first", "central-greedy", "rr"]


def _dag_trace(m=4, n=30, seed=2):
    trace = generate_trace(n, "finance", 0.6, m, seed=seed)
    return attach_dags(trace, 4.0, seed=seed)


class TestDeterministicReplay:
    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_bit_identical_across_runs(self, name):
        trace = _dag_trace()
        plan = named_fault_plans(4, 300.0, seed=4)["rolling"]
        runs = [
            simulate_ws(
                trace, 4, ws_scheduler_by_name(name), seed=8, faults=plan
            )
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0].flow_times, runs[1].flow_times)
        assert runs[0].extra["faults"]["log"] == runs[1].extra["faults"]["log"]
        assert runs[0].extra["faults"]["crashes"] > 0

    def test_brownout_plans_rejected(self):
        trace = _dag_trace(n=5)
        plan = named_fault_plans(4, 100.0, seed=0)["brownout"]
        with pytest.raises(ValueError, match="crash/abort"):
            simulate_ws(
                trace, 4, ws_scheduler_by_name("drep"), seed=0, faults=plan
            )


class TestCrashSemantics:
    def test_crash_probe_counts_lost_partial_work(self):
        # one chain job with 10-unit nodes on 2 workers under DREP: the
        # arrival step is spent switching, execution runs steps 1-3, the
        # crash at step 4 throws those 3 units away and re-executes them
        dag = chain(40, granularity=10)
        spec = JobSpec(
            job_id=0,
            release=0.0,
            work=float(dag.work),
            span=float(dag.span),
            mode=ParallelismMode.DAG,
            dag=dag,
        )
        trace = Trace(jobs=[spec], m=2, load=0.5, distribution="unit")
        plan = FaultPlan(
            (FaultEvent("crash", t=4.0, duration=5.0, proc=0),), name="mid"
        )
        base = simulate_ws(trace, 2, ws_scheduler_by_name("drep"), seed=1)
        hit = simulate_ws(
            trace, 2, ws_scheduler_by_name("drep"), seed=1, faults=plan
        )
        finfo = hit.extra["faults"]
        assert finfo["crashes"] == 1
        assert finfo["lost_work"] == pytest.approx(3.0)
        assert finfo["dead_steps"] >= 5
        assert hit.flow_times[0] > base.flow_times[0]

    @pytest.mark.parametrize(
        "name, kind, flow",
        [
            ("drep", "drain", 42.0),
            ("drep", "crash", 45.0),
            ("admit-first", "drain", 41.0),
            ("admit-first", "crash", 44.0),
        ],
    )
    def test_drain_keeps_the_partial_node_a_crash_redoes(self, name, kind, flow):
        # the crash test's set-up, taken down by hand: worker 0 leaves at
        # step 4 holding 3 executed units of a 10-unit node and returns
        # at step 9.  A drain hands the node over with its progress
        # (preserved_work), a crash resets it to full weight (lost_work),
        # so the crash finishes 3 steps later under both scheduler
        # families (DREP's per-job deques, admit-first's global pool)
        dag = chain(40, granularity=10)
        spec = JobSpec(
            job_id=0,
            release=0.0,
            work=float(dag.work),
            span=float(dag.span),
            mode=ParallelismMode.DAG,
            dag=dag,
        )
        trace = Trace(jobs=[spec], m=2, load=0.5, distribution="unit")
        rt = WsRuntime(
            trace, 2, ws_scheduler_by_name(name), seed=1,
            autoscale=lambda rt: None,
        )
        rt.push_fault_action(4, {"kind": kind, "proc": 0})
        rt.push_fault_action(9, {"kind": "recover", "proc": 0})
        result = rt.run()
        c = rt.counters
        drained = kind == "drain"
        assert result.flow_times[0] == flow
        assert c.preserved_work == (3.0 if drained else 0.0)
        assert c.lost_work == (0.0 if drained else 3.0)
        assert (c.drains, c.crashes) == ((1, 0) if drained else (0, 1))
        assert (c.parked_steps, c.dead_steps) == ((5, 0) if drained else (0, 5))

    @pytest.mark.parametrize("name", SCHEDULERS)
    def test_all_jobs_still_complete_under_crashes(self, name):
        trace = _dag_trace(n=20)
        plan = named_fault_plans(4, 400.0, seed=6)["half-down"]
        result = simulate_ws(
            trace, 4, ws_scheduler_by_name(name), seed=3, faults=plan
        )
        assert result.n_jobs == 20
        assert np.all(result.flow_times > 0)

    def test_crash_of_every_worker_then_recovery(self):
        trace = _dag_trace(m=2, n=5)
        plan = FaultPlan(
            (
                FaultEvent("crash", t=2.0, duration=10.0, proc=0),
                FaultEvent("crash", t=2.0, duration=10.0, proc=1),
            ),
            name="blackout",
        )
        result = simulate_ws(
            trace, 2, ws_scheduler_by_name("drep"), seed=0, faults=plan
        )
        assert result.n_jobs == 5
        assert result.extra["faults"]["dead_steps"] >= 20


class TestAbortResubmit:
    def test_abort_purges_and_resubmits(self):
        dag = chain(30, granularity=1)
        spec = JobSpec(
            job_id=0,
            release=0.0,
            work=float(dag.work),
            span=float(dag.span),
            mode=ParallelismMode.DAG,
            dag=dag,
        )
        trace = Trace(jobs=[spec], m=2, load=0.5, distribution="unit")
        plan = FaultPlan(
            (FaultEvent("abort", t=10.0, job_id=0, resubmit_after=5.0),),
            name="abort",
        )
        base = simulate_ws(trace, 2, ws_scheduler_by_name("drep"), seed=0)
        hit = simulate_ws(
            trace, 2, ws_scheduler_by_name("drep"), seed=0, faults=plan
        )
        finfo = hit.extra["faults"]
        assert finfo["aborts"] == 1
        assert finfo["lost_work"] > 0
        # flow is measured from the ORIGINAL release: the abort shows up
        # as pure added latency
        assert hit.flow_times[0] >= base.flow_times[0] + 5
        assert hit.makespan > base.makespan

    @pytest.mark.parametrize("name", ["steal-first", "admit-first"])
    def test_abort_while_queued_purges_admission_queue(self, name):
        # two big jobs on one worker: the second waits in the FIFO queue;
        # aborting it there must not leave a stale reference behind
        dags = [chain(20, granularity=1), chain(20, granularity=1)]
        jobs = [
            JobSpec(
                job_id=i,
                release=0.0,
                work=float(dags[i].work),
                span=float(dags[i].span),
                mode=ParallelismMode.DAG,
                dag=dags[i],
            )
            for i in range(2)
        ]
        trace = Trace(jobs=jobs, m=1, load=0.5, distribution="unit")
        plan = FaultPlan(
            (FaultEvent("abort", t=3.0, job_id=1, resubmit_after=2.0),),
            name="queued-abort",
        )
        result = simulate_ws(
            trace, 1, ws_scheduler_by_name(name), seed=0, faults=plan
        )
        assert result.n_jobs == 2
        assert np.all(result.flow_times > 0)
        assert result.extra["faults"]["aborts"] == 1
