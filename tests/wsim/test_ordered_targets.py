"""SWF-approx's ordered target and the cached victim lists ≡ rescanning.

SWF-approx keeps its active jobs ordered by ``(spec.work, job_id)`` and
targets the first one with stealable work; steal-first and admit-first
cache each worker's victim list until the runtime's live-worker list
changes.  The subclasses below restore the earlier forms — a rescan of
every active job's deques per target, a fresh victim list per steal
attempt — and each pair must agree on the flows, every counter and the
generator state, under crash/recover and abort-resubmit plans too.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.analysis.experiments import scale_trace
from repro.core.job import ParallelismMode
from repro.faults.plan import FaultEvent, FaultPlan, random_crash_plan
from repro.workloads.traces import attach_dags, generate_trace
from repro.wsim.runtime import WsRuntime
from repro.wsim.schedulers import AdmitFirstWS, StealFirstWS, SwfApproxWS


class RescanSwf(SwfApproxWS):
    """SWF-approx's target as a rescan of every active job."""

    def _target(self):
        active = self.rt.active
        if not active:
            return None
        with_work = [j for j in active if any(d.nodes for d in j.deques)]
        pool = with_work or active
        return min(pool, key=lambda j: (j.spec.work, j.job_id))


class RebuildStealFirst(StealFirstWS):
    def victims(self, worker):
        return [w for w in self.rt.up_workers() if w is not worker]


class RebuildAdmitFirst(AdmitFirstWS):
    def victims(self, worker):
        return [w for w in self.rt.up_workers() if w is not worker]


def dag_trace(n, m, seed):
    base = generate_trace(
        n, "finance", 0.7, m, mode=ParallelismMode.FULLY_PARALLEL,
        seed=seed, scale_work_with_m=False,
    )
    return attach_dags(scale_trace(base, 200.0), parallelism=2 * m, seed=seed)


def horizon(trace, m) -> float:
    return max(j.release for j in trace.jobs) + sum(
        j.work for j in trace.jobs
    ) / m


def crash_plan(trace, m, seed=1):
    h = horizon(trace, m)
    return random_crash_plan(m, h, seed=seed, crash_rate=3.0 / h, mttr=h / 15)


def abort_plan(trace, m):
    """Every fifth job is killed shortly after release, then resubmitted,
    on top of worker crashes; job 0 is aborted once more later, which
    kills its resubmitted run when that is still active (on m = 1)."""
    events = [
        FaultEvent("abort", t=j.release + 30.0, job_id=j.job_id, resubmit_after=40.0)
        for j in trace.jobs[::5]
    ]
    events.append(
        FaultEvent("abort", t=trace.jobs[0].release + 200.0, job_id=0,
                   resubmit_after=10.0)
    )
    crashes = crash_plan(trace, m, seed=2).events
    return FaultPlan(
        events=tuple(sorted(events + list(crashes), key=lambda e: e.t)),
        name="aborts",
    )


def record(trace, m, scheduler, faults=None, observer=None) -> dict:
    rt = WsRuntime(trace, m, scheduler, seed=3, faults=faults)
    result = rt.run(observer=observer)
    return {
        "flow_times": result.flow_times.tolist(),
        "counters": dataclasses.asdict(rt.counters),
        "rng": json.dumps(rt.rng.bit_generator.state, default=str),
    }


def assert_ordered(rt) -> None:
    want = sorted(rt.active, key=lambda j: (j.spec.work, j.job_id))
    got = rt.scheduler.by_work
    assert len(got) == len(want)
    assert all(a is b for a, b in zip(got, want))


PLANS = {
    "plain": lambda trace, m: None,
    "crash": crash_plan,
    "abort": abort_plan,
}


@pytest.mark.parametrize("plan", sorted(PLANS))
@pytest.mark.parametrize("m", [1, 4, 16])
def test_swf_ordered_target_matches_rescan(m, plan):
    trace = dag_trace(60, m, seed=m)
    faults = PLANS[plan](trace, m)
    want = record(trace, m, RescanSwf(), faults)
    assert record(trace, m, SwfApproxWS(), faults) == want
    # the same run stepped one step at a time, with the order checked
    # against rt.active at every step
    assert record(trace, m, SwfApproxWS(), faults, assert_ordered) == want
    if plan == "abort":
        assert want["counters"]["aborts"] > 0


@pytest.mark.parametrize("plan", ["plain", "crash"])
@pytest.mark.parametrize("m", [2, 4, 16])
@pytest.mark.parametrize(
    "cached, rebuilt",
    [(StealFirstWS, RebuildStealFirst), (AdmitFirstWS, RebuildAdmitFirst)],
    ids=["steal-first", "admit-first"],
)
def test_cached_victims_match_rebuilt(cached, rebuilt, m, plan):
    trace = dag_trace(60, m, seed=m + 10)
    faults = PLANS[plan](trace, m)
    want = record(trace, m, rebuilt(), faults)
    assert record(trace, m, cached(), faults) == want
    if plan == "crash":
        assert want["counters"]["crashes"] > 0


def test_victim_cache_follows_live_list():
    trace = dag_trace(20, 4, seed=0)
    rt = WsRuntime(trace, 4, StealFirstWS(), seed=0)
    sched = rt.scheduler
    sched.reset(rt)
    w0, w1, w2, w3 = rt.workers
    first = sched.victims(w0)
    assert first == [w1, w2, w3]
    assert sched.victims(w0) is first
    # a membership change rebinds the live list; the cache follows
    rt._live_workers = [w0, w1, w3]
    assert sched.victims(w0) == [w1, w3]
    assert sched.victims(w2) == [w0, w1, w3]
