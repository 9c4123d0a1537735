"""Closed-loop elastic-capacity drivers for both engines.

Each driver runs one policy over one trace with capacity m(t) decided
live by an :class:`~repro.autoscale.controller.AutoscaleController`:

* :func:`run_flowsim_elastic` — the engine runs at ``m_max`` with an
  (initially empty) :class:`~repro.faults.timeline.FaultTimeline`
  attached; the loop advances the clock tick by tick and translates
  controller decisions into dynamically pushed ``crash`` / ``recover``
  point actions (processor ``p`` down ⇔ capacity excludes it; processors
  leave from the top, ``m_eff`` *is* the controlled capacity).  A
  scale-down that strands running jobs pushes ``displace`` actions: the
  youngest victims are preempted, lose their progress, and re-enter the
  queue ``requeue_delay`` later — every displaced unit lands in the
  engine's requeue log, which the row checks against ``displaced_work``
  (the "zero unaccounted displaced work" contract).

* :func:`run_wsim_elastic` — the runtime gets an ``autoscale`` tick hook
  on its fault heap; each tick observes progress counters and pushes
  ``drain`` / ``recover`` worker actions.  A drain parks a worker
  *gracefully*: its partial node keeps its progress (counted as
  ``preserved_work``) and its deque hands over exactly like a crash, so
  nothing is redone and nothing is dropped.

Determinism: controller randomness derives from
``derive_seed(seed, "autoscale/<engine>/<policy>")`` and every other
input is the deterministic engine state, so the same seed yields a
byte-identical decision trace, m(t) trace, and requeue log.
"""

from __future__ import annotations

import math

from repro.autoscale.controller import AutoscaleController
from repro.autoscale.guard import AutoscaleConfig

__all__ = ["push_capacity_change", "run_flowsim_elastic", "run_wsim_elastic"]


def _suffix_work(works: list[float]) -> list[float]:
    """``suffix[i] = works[i] + works[i+1] + ...`` (suffix[n] = 0)."""
    suffix = [0.0] * (len(works) + 1)
    for i in range(len(works) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + works[i]
    return suffix


def push_capacity_change(
    stepper, t: float, m_cur: int, target: int, aconfig: AutoscaleConfig
) -> None:
    """Move a flowsim engine's capacity from ``m_cur`` to ``target`` at ``t``.

    Pushes point actions on the engine's fault timeline: processors leave
    from the top (``crash`` on ``target..m_cur-1``) and come back the
    same way (``recover`` on ``m_cur..target-1``).  With
    ``aconfig.displace`` a scale-down also displaces the youngest running
    jobs that no longer fit; they lose their progress and re-enter the
    queue ``requeue_delay`` later.  Shared by the offline elastic loop
    and the serving tier, so both turn a controller target into the same
    timeline.
    """
    if target == m_cur:
        return
    timeline = stepper.faults
    if target > m_cur:
        for p in range(m_cur, target):
            timeline.push_action(t, {"kind": "recover", "proc": p})
    else:
        for p in range(target, m_cur):
            timeline.push_action(t, {"kind": "crash", "proc": p})
        if aconfig.displace:
            n_victims = min(stepper.n_active, m_cur) - target
            if n_victims > 0:
                for j in sorted(stepper.active_ids())[-n_victims:]:
                    timeline.push_action(
                        t,
                        {
                            "kind": "displace",
                            "job_id": int(j),
                            "resubmit_after": aconfig.requeue_delay,
                        },
                    )
    stepper.refresh_event_budget()


def run_flowsim_elastic(
    trace,
    policy,
    aconfig: AutoscaleConfig,
    seed: int = 0,
    sim_config=None,
    max_ticks: int = 200_000,
) -> dict:
    """Run ``policy`` over ``trace`` under closed-loop elastic capacity."""
    from repro.faults.plan import FaultPlan
    from repro.flowsim.engine import FlowSimConfig, FlowStepper

    m_max = aconfig.m_max
    timeline = FaultPlan((), name="elastic").timeline(m_max)
    stepper = FlowStepper(
        m_max,
        policy,
        seed=seed,
        config=sim_config or FlowSimConfig(),
        faults=timeline,
    )
    specs = list(trace.jobs)
    stepper.add_jobs(specs)
    suffix = _suffix_work([float(s.work) for s in specs])
    total_work = suffix[0]

    controller = AutoscaleController(
        aconfig, seed=seed, name=f"flowsim/{policy.name}"
    )
    m_cur = aconfig.initial_m
    controller.bind(0.0, m_cur)
    push_capacity_change(stepper, 0.0, m_max, m_cur, aconfig)

    released_prev = 0.0
    t = 0.0
    ticks = 0
    while not stepper.drained:
        ticks += 1
        if ticks > max_ticks:
            raise RuntimeError(
                f"autoscale loop exceeded {max_ticks} ticks "
                f"({stepper.n_completed}/{stepper.n_jobs} jobs done)"
            )
        t += aconfig.tick
        stepper.advance_to(t)
        if stepper.drained:
            break  # no phantom decision after the last completion
        n_released = stepper.n_jobs - stepper.n_pending
        released = total_work - suffix[n_released]
        arrived = released - released_prev
        released_prev = released
        # backlog of *released* work only — the batch-registered tail of
        # the trace must stay invisible to an online controller
        backlog = stepper.backlog_work() - suffix[n_released]
        target = controller.observe(
            t,
            arrived_work=arrived,
            backlog_work=backlog,
            n_active=stepper.n_active,
        )
        push_capacity_change(stepper, t, m_cur, target, aconfig)
        m_cur = target

    controller.finalize(stepper.now)
    result = stepper.result()
    finfo = result.extra.get("faults", {})
    requeues = finfo.get("requeues", [])
    displaced = float(finfo.get("displaced_work", 0.0))
    summary = controller.summary()
    return {
        "engine": "flowsim",
        "scheduler": result.scheduler,
        "mode": "elastic",
        "events": int(result.extra.get("events", 0)),
        "mean_flow": result.mean_flow,
        "makespan": result.makespan,
        "switches": result.extra.get("switches", 0),
        "preemptions": result.preemptions,
        "capacity_seconds": summary["capacity_seconds"],
        "m_final": summary["m"],
        "ticks": summary["ticks"],
        "scale_ups": summary["scale_ups"],
        "scale_downs": summary["scale_downs"],
        "displaced_work": displaced,
        "requeues": len(requeues),
        "displaced_unaccounted": displaced
        - sum(float(r["redone_work"]) for r in requeues),
        "lost_work": float(finfo.get("lost_work", 0.0)),
        "m_trace": [list(p) for p in controller.m_trace],
        "decisions": controller.decisions,
        "requeue_log": [dict(r) for r in requeues],
    }


def run_wsim_elastic(
    trace,
    scheduler,
    aconfig: AutoscaleConfig,
    seed: int = 0,
    ws_config=None,
) -> dict:
    """Run a work-stealing ``scheduler`` under closed-loop elastic capacity.

    Capacity moves by *draining* workers — the graceful scale-down: a
    parked worker's in-progress node keeps its partial execution and its
    deque hands over to the survivors, so no work is re-executed
    (``preserved_work`` counts what a crash would have destroyed).
    """
    from repro.wsim.runtime import WsConfig, WsRuntime

    m_max = aconfig.m_max
    tick_steps = max(1, int(math.ceil(aconfig.tick)))
    controller = AutoscaleController(
        aconfig, seed=seed, name=f"wsim/{scheduler.name}"
    )
    m_start = aconfig.initial_m
    controller.bind(0.0, m_start)

    rel_steps = [int(math.ceil(s.release)) for s in trace.jobs]
    works = [float(s.dag.work) for s in trace.jobs]
    state = {"m": m_start, "ptr": 0, "released": 0.0}

    def hook(rt) -> None:
        released = state["released"]
        ptr = state["ptr"]
        while ptr < len(rel_steps) and rel_steps[ptr] <= rt.step:
            released += works[ptr]
            ptr += 1
        arrived = released - state["released"]
        state["ptr"] = ptr
        state["released"] = released
        # net useful progress: executed steps minus work later destroyed
        # (drains preserve progress, so they need no correction here)
        useful = rt.counters.work_steps - rt.counters.lost_work
        backlog = max(0.0, released - useful)
        target = controller.observe(
            float(rt.step),
            arrived_work=arrived,
            backlog_work=backlog,
            n_active=len(rt.active),
        )
        cur = state["m"]
        if target > cur:
            for p in range(cur, target):
                rt.push_fault_action(rt.step, {"kind": "recover", "proc": p})
        elif target < cur:
            for p in range(target, cur):
                rt.push_fault_action(rt.step, {"kind": "drain", "proc": p})
        state["m"] = target
        rt.push_fault_action(rt.step + tick_steps, {"kind": "autoscale"})

    runtime = WsRuntime(
        trace,
        m_max,
        scheduler,
        seed=seed,
        config=ws_config or WsConfig(),
        autoscale=hook,
    )
    for p in range(m_start, m_max):
        runtime.push_fault_action(0, {"kind": "drain", "proc": p})
    runtime.push_fault_action(tick_steps, {"kind": "autoscale"})
    result = runtime.run()
    controller.finalize(float(runtime.step))

    einfo = result.extra.get("elastic", {})
    summary = controller.summary()
    return {
        "engine": "wsim",
        "scheduler": result.scheduler,
        "mode": "elastic",
        "mean_flow": result.mean_flow,
        "makespan": result.makespan,
        "switches": result.extra.get("switches", 0),
        "preemptions": result.preemptions,
        "capacity_seconds": summary["capacity_seconds"],
        "m_final": summary["m"],
        "ticks": summary["ticks"],
        "scale_ups": summary["scale_ups"],
        "scale_downs": summary["scale_downs"],
        "drains": int(einfo.get("drains", 0)),
        "preserved_work": float(einfo.get("preserved_work", 0.0)),
        "parked_steps": int(einfo.get("parked_steps", 0)),
        # drains preserve progress bit-for-bit: nothing is redone, so
        # displaced work is zero by construction at this level
        "displaced_work": 0.0,
        "displaced_unaccounted": 0.0,
        "m_trace": [list(p) for p in controller.m_trace],
        "decisions": controller.decisions,
    }
