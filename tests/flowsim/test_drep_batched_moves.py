"""The batched DREP move rule ≡ the per-processor one, bit for bit.

DrepSequential, DrepParallel and WDREP move every processor an arrival or
a completion touches in one pass (``_DrepBase._move``) on a list table,
and draw every coin flip and re-draw through a prefetching
:class:`~repro.core.rng.DrawStream`.  ``tests/flowsim/drep_oracle.py``
keeps the earlier per-processor form, drawing from the plain generator.
Both must agree on the flows, every counter and extra, and the policy's
whole state after every hook call: the assignment table, ``_procs_of``
(list and key order included), ``_last_proc`` and the generator state —
across machine sizes from 1 to 128, jobs all released at t = 0, exact
ties, fixed switch probabilities, crash/recover plans, both backends and
the online scheduler with a mid-run snapshot.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import JobSpec, ParallelismMode
from repro.faults.plan import random_crash_plan
from repro.flowsim.engine import simulate
from repro.flowsim.policies import DrepParallel, DrepSequential, WDrep
from repro.serve import restore_scheduler, snapshot_scheduler
from repro.serve.online import OnlineScheduler
from repro.workloads.traces import Trace, generate_trace
from tests.flowsim.drep_oracle import (
    OracleDrepParallel,
    OracleDrepSequential,
    OracleWDrep,
)
from tests.flowsim.paths import ARRAY, SCALAR, full_record, scalar_max

SEQ = ParallelismMode.SEQUENTIAL
PAR = ParallelismMode.FULLY_PARALLEL

#: shipped class -> (oracle class, the job mode it serves)
PAIRS = {
    "drep": (DrepSequential, OracleDrepSequential, SEQ),
    "drep-par": (DrepParallel, OracleDrepParallel, PAR),
}
M_VALUES = [1, 2, 3, 8, 64, 128]
SWITCH_PROBS = [None, 0.25, 1.0]


def policy_state(policy) -> dict:
    """The policy's whole state.  The generator state is read from a
    copy, so a shipped policy's draw stream is not synced by the check
    and keeps drawing from its prefetched words across hooks."""
    rng = copy.deepcopy(policy._rng)
    return {
        "fault_evictions": policy.fault_evictions,
        "assignment": list(policy._assignment),
        "procs_of": [(j, list(procs)) for j, procs in policy._procs_of.items()],
        "last_proc": [(j, sorted(seen)) for j, seen in policy._last_proc.items()],
        "n_assigned": policy._n_assigned,
        "n_down": policy._n_down,
        "rng": json.dumps(rng.bit_generator.state, default=str),
    }


def recorded(cls):
    """``cls`` logging its whole state after every hook call, so a run
    is compared event by event, not only by where it ends."""

    class Recorded(cls):
        def reset(self, m, rng):
            super().reset(m, rng)
            self.log = []

        def on_arrival(self, job_id, view):
            super().on_arrival(job_id, view)
            self.log.append(("arrival", job_id, policy_state(self)))

        def on_completion(self, job_id, view):
            super().on_completion(job_id, view)
            self.log.append(("completion", job_id, policy_state(self)))

        def on_fault(self, event, view):
            super().on_fault(event, view)
            self.log.append((event["kind"], event.get("proc"), policy_state(self)))

    return Recorded


def run(trace, m, cls, faults=None, seed=5, **kw) -> dict:
    policy = recorded(cls)(**kw)
    result = simulate(trace, m, policy, seed=seed, faults=faults)
    return {"result": full_record(result), "log": policy.log}


def crash_plan(trace, m, seed):
    """About two crash/recover windows per processor over the run."""
    jobs = trace.jobs
    horizon = max(j.release for j in jobs) + sum(j.work for j in jobs) / m + 1.0
    return random_crash_plan(
        m, horizon, seed=seed, crash_rate=2.0 / horizon, mttr=horizon / 20.0
    )


@pytest.mark.parametrize("crash", [False, True], ids=["plain", "crash"])
@pytest.mark.parametrize("prob", SWITCH_PROBS, ids=str)
@pytest.mark.parametrize("m", M_VALUES)
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_matches_per_processor_oracle(name, m, prob, crash):
    shipped, oracle, mode = PAIRS[name]
    trace = generate_trace(120, "finance", 0.7, m, mode=mode, seed=m)
    faults = crash_plan(trace, m, seed=m) if crash else None
    got = run(trace, m, shipped, faults, arrival_switch_prob=prob)
    want = run(trace, m, oracle, faults, arrival_switch_prob=prob)
    assert got == want


@pytest.mark.parametrize("weighted", [False, True], ids=["unit", "weighted"])
@pytest.mark.parametrize("m", M_VALUES)
def test_wdrep_matches_per_processor_oracle(m, weighted):
    trace = generate_trace(120, "finance", 0.7, m, seed=m)
    if weighted:
        trace = Trace(
            jobs=[
                JobSpec(
                    job_id=j.job_id, release=j.release, work=j.work,
                    span=j.span, mode=j.mode, weight=(1.0, 2.0, 0.5)[j.job_id % 3],
                )
                for j in trace.jobs
            ],
            m=m,
        )
    assert run(trace, m, WDrep) == run(trace, m, OracleWDrep)


@st.composite
def adversarial(draw):
    """Small instances with ties: shared releases (all at t = 0 when
    ``burst``) and works from a four-value palette."""
    m = draw(st.sampled_from(M_VALUES))
    mode = draw(st.sampled_from([SEQ, PAR]))
    n = draw(st.integers(1, 40))
    burst = draw(st.booleans())
    palette = draw(
        st.lists(st.floats(0.05, 50.0, allow_nan=False), min_size=1, max_size=4)
    )
    works = draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
    if burst:
        releases = [0.0] * n
    else:
        releases = sorted(
            draw(st.lists(st.integers(0, 12), min_size=n, max_size=n))
        )
    jobs = [
        JobSpec(
            job_id=i,
            release=float(releases[i]),
            work=float(w),
            span=float(w) if mode is SEQ else float(w) / m,
            mode=mode,
        )
        for i, w in enumerate(works)
    ]
    return Trace(jobs=jobs, m=m), m


@settings(max_examples=80, deadline=None)
@given(
    inst=adversarial(),
    name=st.sampled_from(sorted(PAIRS)),
    prob=st.sampled_from(SWITCH_PROBS),
    crash_seed=st.one_of(st.none(), st.integers(0, 1000)),
    force=st.sampled_from([None, SCALAR, ARRAY]),
)
def test_adversarial_instances_match_oracle(inst, name, prob, crash_seed, force):
    trace, m = inst
    shipped, oracle, _ = PAIRS[name]
    faults = None if crash_seed is None else crash_plan(trace, m, crash_seed)
    if force is None:
        got = run(trace, m, shipped, faults, arrival_switch_prob=prob)
        want = run(trace, m, oracle, faults, arrival_switch_prob=prob)
    else:
        with scalar_max(force):
            got = run(trace, m, shipped, faults, arrival_switch_prob=prob)
            want = run(trace, m, oracle, faults, arrival_switch_prob=prob)
    assert got == want


@pytest.mark.parametrize("m", [3, 64])
@pytest.mark.parametrize("name", sorted(PAIRS))
def test_online_with_snapshot_matches_offline_oracle(name, m):
    shipped, oracle, mode = PAIRS[name]
    trace = generate_trace(160, "finance", 0.7, m, mode=mode, seed=m + 1)
    want = run(trace, m, oracle)
    sched = OnlineScheduler(m, shipped(), seed=5)
    snapped = False
    for i, spec in enumerate(trace.jobs):
        sched.advance_to(spec.release)
        if not snapped and i >= 40 and len(sched.policy._procs_of) > 1:
            # an honest serialization boundary in the middle of the run,
            # with processors spread over several live jobs
            state = json.loads(json.dumps(snapshot_scheduler(sched)))
            sched = restore_scheduler(state)
            snapped = True
            assert policy_state(sched.policy) in [
                entry[2] for entry in want["log"]
            ]
        sched.submit_spec(spec)
    assert snapped
    online = sched.drain()
    assert online.flow_times.tolist() == want["result"]["flow_times"]
    assert online.preemptions == want["result"]["preemptions"]
    assert online.migrations == want["result"]["migrations"]
    assert online.extra["switches"] == want["result"]["extra"]["switches"]
    assert policy_state(sched.policy) == want["log"][-1][2]
