"""Runs drawing through the prefetching stream ≡ runs drawing per call.

Every draw of a ``WsRuntime`` run — each scheduler's ``self.rng``, the
run loop's inline failed-steal draw, ``steal_within`` and the horizon
kernel's batched draw — goes through one
:class:`~repro.core.rng.DrawStream`.  Each run below is made twice, once
on that stream and once with every draw one call on the ``Generator``
(``tests/wsim/draws.py``), and must agree on flows, counters, the
horizon kernel's counters and the end-of-run generator state: for every
scheduler at m ∈ {1, 2, 16}, plain, under a crash plan, on heterogeneous
workers, streamed, watched by an observer that reads the generator
mid-run, and stopped by ``WsimError``.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro.analysis.experiments import scale_trace
from repro.core.job import JobSpec, ParallelismMode
from repro.core.rng import DrawStream, RngFactory
from repro.dag.generators import chain, fork_join, spawn_tree
from repro.faults.plan import random_crash_plan
from repro.workloads.traces import Trace, attach_dags, generate_trace
from repro.wsim.runtime import (
    WsConfig,
    WsimError,
    WsRuntime,
    simulate_ws,
    simulate_ws_stream,
)
from repro.wsim.schedulers import ws_scheduler_by_name
from tests.wsim.draws import DirectDraws, built_streams

SCHEDULERS = [
    "drep", "swf", "steal-first", "admit-first", "central-greedy", "rr", "laps",
]
M_VALUES = [1, 2, 16]
SEED = 5


def dag_trace(m: int) -> Trace:
    """A Finance-like stream of DAG jobs, then a burst of narrow jobs
    with long nodes, where workers sit out long steal-stuck stretches
    (the horizon kernel's batched draws)."""
    base = generate_trace(
        30, "finance", 0.8, m, mode=ParallelismMode.FULLY_PARALLEL,
        seed=31, scale_work_with_m=False,
    )
    jobs = list(attach_dags(scale_trace(base, 100.0), parallelism=2 * m, seed=31).jobs)
    t = jobs[-1].release + 50.0
    for i, dag in enumerate([fork_join(2, 3, 90), chain(400, 100), spawn_tree(2, 70)] * 2):
        jobs.append(JobSpec(
            job_id=len(jobs), release=t + 20.0 * i, work=float(dag.work),
            span=float(dag.span), mode=ParallelismMode.DAG, dag=dag,
        ))
    return Trace(jobs=jobs, m=m)


def state(stream) -> str:
    return json.dumps(stream.bit_generator.state, sort_keys=True)


def outcome(rt: WsRuntime, flows) -> dict:
    return {
        "flows": None if flows is None else np.asarray(flows).tolist(),
        "counters": dataclasses.asdict(rt.counters),
        "horizon": (rt.perf.horizon_jumps, rt.perf.horizon_steps_saved),
        "step": rt.step,
    }


def plain(name, m, trace):
    rt = WsRuntime(trace, m, ws_scheduler_by_name(name), seed=SEED)
    return outcome(rt, rt.run().flow_times)


def crashes(name, m, trace):
    horizon = max(j.release for j in trace.jobs) + sum(
        j.work for j in trace.jobs
    ) / m
    plan = random_crash_plan(
        m, horizon, seed=2, crash_rate=3.0 / horizon, mttr=horizon / 15
    )
    result = simulate_ws(trace, m, ws_scheduler_by_name(name), seed=SEED, faults=plan)
    return {"flows": result.flow_times.tolist(), "extra": _plain_extra(result.extra)}


def hetero(name, m, trace):
    speeds = np.array([(1.0, 0.5, 2.0, 0.25)[p % 4] for p in range(m)])
    rt = WsRuntime(trace, m, ws_scheduler_by_name(name), seed=SEED, speeds=speeds)
    return outcome(rt, rt.run().flow_times)


def streamed(name, m, trace):
    result = simulate_ws_stream(
        trace.jobs, m, ws_scheduler_by_name(name), seed=SEED, keep_flow_times=True
    )
    return {
        "flows": result.to_schedule_result().flow_times.tolist(),
        "extra": _plain_extra(result.extra),
    }


def observed(name, m, trace):
    # the observer reads the generator every step, so the stream hands
    # its state back and refetches mid-run
    seen = []

    def observer(rt):
        if rt.step % 3 == 0:
            seen.append((rt.step, state(rt.rng)))

    rt = WsRuntime(trace, m, ws_scheduler_by_name(name), seed=SEED)
    return {**outcome(rt, rt.run(observer=observer).flow_times), "seen": seen}


def stalled(name, m, trace):
    rt = WsRuntime(
        trace, m, ws_scheduler_by_name(name), seed=SEED,
        config=WsConfig(max_steps=150),
    )
    with pytest.raises(WsimError) as err:
        rt.run()
    return {**outcome(rt, None), "error": str(err.value)}


def _plain_extra(extra: dict) -> dict:
    """A result's extras without wall-clock readings."""
    perf = {
        k: v for k, v in extra["perf"].items()
        if not k.endswith(("_s", "_ms", "_mb", "_us"))
    }
    return {**extra, "perf": perf}


SCENARIOS = [plain, crashes, hetero, streamed, observed, stalled]


def both_ways(scenario, name, m, trace):
    runs = []
    for direct in (False, True):
        with built_streams(direct) as built:
            got = scenario(name, m, trace)
        assert built and all(type(s) is (DirectDraws if direct else DrawStream) for s in built)
        runs.append((got, [state(s) for s in built]))
    return runs


@pytest.fixture(scope="module", params=M_VALUES)
def m_trace(request):
    return request.param, dag_trace(request.param)


@pytest.mark.parametrize("scenario", SCENARIOS, ids=lambda f: f.__name__)
@pytest.mark.parametrize("name", SCHEDULERS)
def test_stream_matches_direct_draws(m_trace, name, scenario):
    m, trace = m_trace
    (got, got_states), (want, want_states) = both_ways(scenario, name, m, trace)
    assert got == want
    assert got_states == want_states


@pytest.mark.parametrize("name", SCHEDULERS)
def test_runs_draw(name):
    # the comparison above is not vacuous: at m = 16 every scheduler
    # moves its generator
    m = 16
    with built_streams(False) as built:
        plain(name, m, dag_trace(m))
    fresh = DrawStream(RngFactory(SEED).stream(f"wsim/{ws_scheduler_by_name(name).name}"))
    assert state(built[0]) != state(fresh)


@pytest.mark.parametrize("max_steps", [None, 150])
def test_run_hands_the_state_back_on_exit(max_steps):
    # a bit generator taken before the run holds the per-call end state
    # once run() returns or raises, without another read through rt.rng
    m = 16
    trace = dag_trace(m)
    states = []
    for direct in (False, True):
        with built_streams(direct):
            rt = WsRuntime(
                trace, m, ws_scheduler_by_name("steal-first"), seed=SEED,
                config=WsConfig(max_steps=max_steps),
            )
        held = rt.rng.bit_generator
        if max_steps is None:
            rt.run()
        else:
            with pytest.raises(WsimError):
                rt.run()
        states.append(json.dumps(held.state, sort_keys=True))
    assert states[0] == states[1]
