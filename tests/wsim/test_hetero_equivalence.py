"""Heterogeneous-speed event-horizon jumps ≡ unit stepping, bit for bit.

Extends ``test_macro_equivalence.py`` along the axes the homogeneous
tests cannot reach:

* **dyadic speeds** — per-worker speeds on the exactness grid
  (powers of two), where the kernel's one-shot ``k * speed`` subtraction
  must reproduce ``k`` per-step subtractions exactly;
* **large machines** — Finance-shaped DAG traces at m = 64 and 128,
  where every jump takes the min over dozens of executing workers;
* **the steal-target fast paths** — disabling the scheduler's
  ``steal_target`` hook (rebinding it to the base-class default) turns
  off both the batched stuck-steal replay *and* the run-loop's inline
  fast-fail shortcut, giving a reference run that goes through
  ``out_of_work``/``steal_within`` every time;
* **off-grid speeds** — must fall back to pure per-step execution and
  say so in ``perf.exactness_fallbacks``.

Every run of the same instance must agree on flow times, makespan, all
practicality counters, and the RNG end state.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import scale_trace
from repro.core.job import JobSpec, ParallelismMode
from repro.dag.generators import chain, fork_join, layered_random, spawn_tree
from repro.workloads.traces import Trace, attach_dags, generate_trace
from repro.wsim.runtime import WsRuntime
from repro.wsim.schedulers import DrepWS, SwfApproxWS, ws_scheduler_by_name
from repro.wsim.schedulers.base import WsScheduler

SCHEDULERS = ["drep", "swf", "steal-first", "admit-first"]

#: the dyadic exactness grid: every product/difference stays exact
DYADIC_SPEEDS = (0.25, 0.5, 1.0, 2.0, 4.0)


class _NoHookDrep(DrepWS):
    # rebinding to the base default makes the runtime resolve the hook
    # to None: no batched stuck-steal replay, no inline fast-fail
    steal_target = WsScheduler.steal_target


class _NoHookSwf(SwfApproxWS):
    steal_target = WsScheduler.steal_target


_NO_HOOK = {"drep": _NoHookDrep, "swf": _NoHookSwf}


@st.composite
def hetero_instance(draw):
    n = draw(st.integers(1, 5))
    m = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    speeds = np.array(
        [draw(st.sampled_from(DYADIC_SPEEDS)) for _ in range(m)]
    )
    jobs = []
    t = 0
    for i in range(n):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            dag = chain(int(rng.integers(20, 300)), int(rng.integers(10, 100)))
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
        t += int(rng.integers(0, 60))
    return Trace(jobs=jobs, m=m), m, speeds


def _run(
    trace,
    m,
    sched_name,
    seed,
    speeds,
    *,
    unit_stepped=False,
    no_hook=False,
):
    if no_hook:
        scheduler = _NO_HOOK[sched_name]()
    else:
        scheduler = ws_scheduler_by_name(sched_name)
    rt = WsRuntime(trace, m, scheduler, seed=seed, speeds=speeds)
    observer = (lambda _rt: None) if unit_stepped else None
    result = rt.run(observer)
    state = json.dumps(rt.rng.bit_generator.state, sort_keys=True, default=str)
    return result, dataclasses.asdict(rt.counters), state, rt.perf


def _assert_all_identical(runs):
    ref_result, ref_counters, ref_state, _ = runs[0]
    for result, counters, state, _ in runs[1:]:
        np.testing.assert_array_equal(result.flow_times, ref_result.flow_times)
        assert result.makespan == ref_result.makespan
        assert counters == ref_counters
        assert state == ref_state


@settings(max_examples=25, deadline=None)
@given(
    inst=hetero_instance(),
    sched_idx=st.integers(0, len(SCHEDULERS) - 1),
    seed=st.integers(0, 50),
)
def test_hetero_macro_equals_unit(inst, sched_idx, seed):
    trace, m, speeds = inst
    name = SCHEDULERS[sched_idx]
    _assert_all_identical(
        [
            _run(trace, m, name, seed, speeds),
            _run(trace, m, name, seed, speeds, unit_stepped=True),
        ]
    )


@settings(max_examples=15, deadline=None)
@given(
    inst=hetero_instance(),
    sched_name=st.sampled_from(sorted(_NO_HOOK)),
    seed=st.integers(0, 50),
)
def test_steal_hook_is_pure_perf(inst, sched_name, seed):
    """With and without steal_target: same results to the last RNG bit."""
    trace, m, speeds = inst
    _assert_all_identical(
        [
            _run(trace, m, sched_name, seed, speeds),
            _run(trace, m, sched_name, seed, speeds, no_hook=True),
            _run(trace, m, sched_name, seed, speeds, no_hook=True, unit_stepped=True),
        ]
    )


def _long_chain_trace(m=2):
    dag = chain(600, 200)
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
    return Trace(jobs=jobs, m=m)


def test_hetero_horizon_path_actually_engages():
    trace = _long_chain_trace()
    speeds = np.array([2.0, 0.5])
    r_macro = _run(trace, 2, "drep", 3, speeds)
    assert r_macro[3].horizon_jumps > 0
    assert r_macro[3].exactness_fallbacks == 0
    _assert_all_identical(
        [r_macro, _run(trace, 2, "drep", 3, speeds, unit_stepped=True)]
    )


def test_off_grid_speeds_fall_back_and_record_it():
    """Off-grid speeds: per-step execution, counted as a fallback."""
    trace = _long_chain_trace()
    speeds = np.array([1.3, 0.7])  # not representable on the dyadic grid
    r_macro = _run(trace, 2, "drep", 3, speeds)
    assert r_macro[3].exactness_fallbacks > 0
    assert r_macro[3].horizon_jumps == 0
    _assert_all_identical(
        [r_macro, _run(trace, 2, "drep", 3, speeds, unit_stepped=True)]
    )


def test_off_grid_last_job_jumps_until_it_is_pulled():
    """A trace whose last job is off the grid: bulk jumps, then unit steps.

    Node weights are integers, so a job leaves the grid by magnitude: the
    last job's single node of ``2**31`` units (2048 steps at speed
    ``2**20``).  The intake pulls it when job 1 arrives, so the kernel
    jumps through job 0 and steps unit by unit from job 1 on; the run
    still equals the unit-stepped one and books one fallback.
    """
    unit = 2**20
    dags = [chain(600 * unit, 200 * unit)] * 2 + [chain(2**31, 2**31)]
    jobs = [
        JobSpec(
            job_id=i,
            release=float(1000 * i),
            work=float(dag.work),
            span=float(dag.span),
            mode=ParallelismMode.DAG,
            dag=dag,
        )
        for i, dag in enumerate(dags)
    ]
    trace = Trace(jobs=jobs, m=2)
    speeds = np.array([float(unit), float(unit)])
    r_macro = _run(trace, 2, "drep", 3, speeds)
    r_unit = _run(trace, 2, "drep", 3, speeds, unit_stepped=True)
    assert r_macro[3].horizon_jumps > 0
    assert r_macro[3].exactness_fallbacks == 1
    assert r_unit[3].horizon_jumps == 0
    assert r_unit[3].exactness_fallbacks == 1
    _assert_all_identical([r_macro, r_unit])


def _finance_dag_trace(m: int) -> Trace:
    """20 fully parallel Finance jobs at load 0.7, work x20000, each a DAG
    of parallelism 2m: nodes long enough for jumps on a large machine."""
    base = generate_trace(
        20, "finance", 0.7, m, mode=ParallelismMode.FULLY_PARALLEL,
        seed=m, scale_work_with_m=False,
    )
    return attach_dags(scale_trace(base, 20000.0), parallelism=2 * m, seed=m)


@pytest.mark.parametrize("m", [64, 128])
@pytest.mark.parametrize("sched_name", ["drep", "steal-first"])
def test_large_machine_macro_equals_unit(sched_name, m):
    trace = _finance_dag_trace(m)
    bulk = _run(trace, m, sched_name, 5, None)
    assert bulk[3].horizon_jumps > 0
    _assert_all_identical(
        [bulk, _run(trace, m, sched_name, 5, None, unit_stepped=True)]
    )


def test_large_machine_dyadic_speeds_macro_equals_unit():
    m = 64
    speeds = np.resize(np.array(DYADIC_SPEEDS), m)
    trace = _finance_dag_trace(m)
    bulk = _run(trace, m, "drep", 5, speeds)
    assert bulk[3].horizon_jumps > 0
    assert bulk[3].exactness_fallbacks == 0
    _assert_all_identical(
        [bulk, _run(trace, m, "drep", 5, speeds, unit_stepped=True)]
    )
