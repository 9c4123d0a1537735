"""Force the flowsim engine onto one of its paths, by capability.

The engine picks its paths from what a policy *class* overrides — the
sparse ``rates_array_patch`` complement of its ``rates_array``, and
their scalar twins ``rates_scalar`` / ``rates_scalar_patch`` — and from
the run itself: ``step()`` always handles one event, while ``drain()`` /
``advance_to()`` run their events in one pass and fold them where the
run allows it, and a plain run of a policy with the scalar hooks runs on
Python lists while it has at most ``SCALAR_MAX_ACTIVE`` active jobs.
The equivalence suites use these helpers to run the remaining path of
the same policy against the goldens and against the default run, and the
schedule-shape tests read a run's schedule through :func:`schedule_of`.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.flowsim.engine as engine
from repro.flowsim.engine import _ADMIT_TOL, FlowStepper
from repro.flowsim.policies import policy_by_name
from repro.flowsim.policies.base import Policy


def unpatched(policy: Policy | str) -> Policy:
    """``policy`` without ``rates_array_patch`` and ``rates_scalar_patch``:
    folded passes rebuild the rate vector in full at every decision
    point."""
    if isinstance(policy, str):
        policy = policy_by_name(policy)
    cls = type(policy)
    policy.__class__ = type(
        cls.__name__,
        (cls,),
        {
            "rates_array_patch": Policy.rates_array_patch,
            "rates_scalar_patch": Policy.rates_scalar_patch,
        },
    )
    return policy


#: ``scalar_max`` values: no run ever takes the scalar loop, or every run
#: the scalar backend serves stays on it throughout
ARRAY = -1
SCALAR = 10**9


@contextmanager
def scalar_max(n: int):
    """Run the block with ``SCALAR_MAX_ACTIVE`` set to ``n``.

    :data:`ARRAY` keeps every run on the numpy buffers, :data:`SCALAR`
    keeps the runs the scalar backend serves on Python lists, and a
    small value makes a run cross the threshold both ways.
    """
    old = engine.SCALAR_MAX_ACTIVE
    engine.SCALAR_MAX_ACTIVE = n
    try:
        yield
    finally:
        engine.SCALAR_MAX_ACTIVE = old


def full_record(result) -> dict:
    """Everything a run reports — flows, counters, extras and every perf
    counter — minus the wall-clock and memory readings."""
    extra = dict(result.extra)
    perf = dict(extra.pop("perf", {}))
    for noise in ("wall_s", "peak_rss_mb", "py_peak_mb"):
        perf.pop(noise, None)
    return {
        "flow_times": [float(x) for x in result.flow_times],
        "preemptions": int(result.preemptions),
        "migrations": int(result.migrations),
        "makespan": float(result.makespan),
        "extra": extra,
        "perf": perf,
    }


def step_through(stepper: FlowStepper) -> None:
    """What :meth:`FlowStepper.drain` does, one event per call."""
    while not stepper.drained:
        stepper.step()


def step_to(stepper: FlowStepper, horizon: float) -> None:
    """What :meth:`FlowStepper.advance_to` does, one event per call."""
    while stepper.now * (1 + _ADMIT_TOL) < horizon:
        if not stepper.step(horizon):
            break


def schedule_of(stepper: FlowStepper) -> list[tuple[float, float, dict]]:
    """Drain ``stepper`` one event at a time and return its schedule.

    The schedule is a list of ``(t_start, t_end, {job_id: rate})``
    constant-rate segments, one per event that ran with jobs active;
    each rate is the work a job received in the segment divided by its
    length (speed 1, so a plain run's rate is the policy's).  Progress
    is read from the outside, through :meth:`~FlowStepper.active_ids`,
    :meth:`~FlowStepper.remaining_of` and the completion log: a job
    admitted by the event starts from its full work, and one it
    finished received all of what it had left.
    """
    specs = stepper.specs
    before = {j: stepper.remaining_of(j) for j in stepper.active_ids()}
    segments = []
    while not stepper.drained:
        t0 = stepper.now
        n_done = len(stepper.completion_log)
        stepper.step()
        t1 = stepper.now
        after = {j: stepper.remaining_of(j) for j in stepper.active_ids()}
        finished = [j for j, _ in stepper.completion_log[n_done:]]
        if t1 > t0 and (before or after or finished):
            dt = t1 - t0
            alloc = {}
            for j, rem in after.items():
                done = before.get(j, specs[j].work) - rem
                if done > 0:
                    alloc[j] = done / dt
            for j in finished:
                alloc[j] = before.get(j, specs[j].work) / dt
            segments.append((t0, t1, alloc))
        before = after
    return segments
