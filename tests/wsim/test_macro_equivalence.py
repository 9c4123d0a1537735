"""The event-horizon kernel must be unobservable: bulk jumps ≡ unit steps.

The runtime's bulk path (``WsRuntime._horizon_jump``) advances every
worker ``k`` units in one update whenever every live worker is purely
executing for ``k`` steps.  Passing an observer disables the bulk path
while changing nothing else, so the two runs must agree bit-for-bit on
every output: flow times, makespan, all practicality counters, and the
RNG end state (bulk jumps never consume draws).  Heterogeneous speeds
are covered by ``test_hetero_equivalence.py``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import scale_trace
from repro.core.job import JobSpec, ParallelismMode
from repro.dag.generators import chain, fork_join, layered_random, spawn_tree
from repro.workloads.traces import Trace, attach_dags, generate_trace
from repro.wsim.runtime import WsConfig, WsRuntime
from repro.wsim.schedulers import ws_scheduler_by_name
from repro.wsim.schedulers.drep_ws import DrepWS

SCHEDULERS = ["drep", "steal-first", "admit-first", "swf", "rr"]


@st.composite
def random_dag_trace(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    jobs = []
    t = 0
    for i in range(n):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            # long sequential nodes: the macro path's best case
            dag = chain(int(rng.integers(20, 400)), int(rng.integers(10, 120)))
        elif kind == 1:
            dag = spawn_tree(int(rng.integers(0, 4)), int(rng.integers(1, 30)))
        elif kind == 2:
            dag = fork_join(
                int(rng.integers(1, 3)),
                int(rng.integers(1, 6)),
                int(rng.integers(1, 40)),
            )
        else:
            dag = layered_random(
                int(rng.integers(1, 4)), int(rng.integers(1, 5)), 4, rng
            )
        jobs.append(
            JobSpec(
                job_id=i,
                release=float(t),
                work=float(dag.work),
                span=float(dag.span),
                mode=ParallelismMode.DAG,
                dag=dag,
            )
        )
        t += int(rng.integers(0, 80))
    return Trace(jobs=jobs, m=m), m


def _run(trace, m, sched_name, seed, config, unit_stepped):
    rt = WsRuntime(
        trace, m, ws_scheduler_by_name(sched_name), seed=seed, config=config
    )
    # an observer disables macro-stepping but is otherwise inert
    observer = (lambda _rt: None) if unit_stepped else None
    result = rt.run(observer)
    state = json.dumps(rt.rng.bit_generator.state, sort_keys=True, default=str)
    return result, dataclasses.asdict(rt.counters), state, rt.perf


def _assert_identical(trace, m, sched_name, seed, config=WsConfig()):
    r_macro, c_macro, rng_macro, _ = _run(
        trace, m, sched_name, seed, config, unit_stepped=False
    )
    r_unit, c_unit, rng_unit, _ = _run(
        trace, m, sched_name, seed, config, unit_stepped=True
    )
    np.testing.assert_array_equal(r_macro.flow_times, r_unit.flow_times)
    assert r_macro.makespan == r_unit.makespan
    assert c_macro == c_unit
    assert rng_macro == rng_unit


@settings(max_examples=25, deadline=None)
@given(
    inst=random_dag_trace(),
    sched_idx=st.integers(0, len(SCHEDULERS) - 1),
    seed=st.integers(0, 50),
)
def test_macro_equals_unit_random(inst, sched_idx, seed):
    trace, m = inst
    _assert_identical(trace, m, SCHEDULERS[sched_idx], seed)


@settings(max_examples=10, deadline=None)
@given(inst=random_dag_trace(), seed=st.integers(0, 20))
def test_macro_equals_unit_immediate_flags(inst, seed):
    # "step" mode is the delicate case: a live flag must veto the jump
    trace, m = inst
    _assert_identical(
        trace, m, "drep", seed, config=WsConfig(preempt_check="step")
    )


class _DirectFlagDrep(DrepWS):
    """DREP-WS that flags workers by assigning ``flag_target``, as any
    scheduler may."""

    def on_arrival(self, job):
        rt = self.rt
        rt.active.append(job)
        self.make_arrival_deque(job)
        n_active = len(rt.active)
        for worker in rt.up_workers():
            if worker.job is None or worker.job.done:
                rt.switch_worker(worker, job, preempt=False)
                worker.flag_target = None
            elif worker.job is not job and self.rng.random() < 1.0 / n_active:
                worker.flag_target = job


def test_mid_node_flag_vetoes_immediate_jumps():
    """Under ``preempt_check="step"`` a flag on a mid-node worker fires
    at its next act, so no bulk jump may step over it, however the flag
    was written.  Fully parallel Finance cells: load 0.7, 60 jobs, m=4,
    work x200, DAG parallelism 8."""
    config = WsConfig(preempt_check="step")
    for seed in range(8):
        base = generate_trace(
            60, "finance", 0.7, 4, mode=ParallelismMode.FULLY_PARALLEL,
            seed=seed, scale_work_with_m=False,
        )
        trace = attach_dags(scale_trace(base, 200.0), parallelism=8, seed=seed)
        bulk_rt, unit_rt = (
            WsRuntime(trace, 4, _DirectFlagDrep(), seed=seed, config=config)
            for _ in range(2)
        )
        bulk = bulk_rt.run()
        unit = unit_rt.run(lambda _rt: None)
        np.testing.assert_array_equal(bulk.flow_times, unit.flow_times)
        assert dataclasses.asdict(bulk_rt.counters) == dataclasses.asdict(
            unit_rt.counters
        )
        assert bulk_rt.perf.horizon_jumps > 0


def test_horizon_path_actually_engages():
    """Guard against the bulk path silently never firing."""
    dag = chain(600, 200)  # three 200-unit nodes, nothing to steal
    jobs = [
        JobSpec(
            job_id=i,
            release=float(i * 7),
            work=float(dag.work),
            span=float(dag.span),
            mode=ParallelismMode.DAG,
            dag=dag,
        )
        for i in range(3)
    ]
    trace = Trace(jobs=jobs, m=2)
    _, _, _, perf = _run(
        trace, 2, "drep", 3, WsConfig(), unit_stepped=False
    )
    assert perf.horizon_jumps > 0
    assert perf.horizon_steps_saved > 0
    assert perf.exactness_fallbacks == 0
    _, _, _, perf_unit = _run(
        trace, 2, "drep", 3, WsConfig(), unit_stepped=True
    )
    assert perf_unit.horizon_jumps == 0
