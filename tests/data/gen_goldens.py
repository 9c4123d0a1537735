"""Regenerate the golden equivalence fixtures for both simulator engines.

The goldens pin the *exact* trajectory of every policy/scheduler on fixed
seeded traces — per-job flow times at full float precision, all
practicality counters, event counts and (where a policy draws randomness)
a digest of the final RNG state.  The optimized hot paths introduced in
PR 2 must reproduce these bit-for-bit; ``tests/flowsim/test_golden.py``
and ``tests/wsim/test_golden.py`` enforce it.

Regenerate (only when a deliberate semantic change is made, never to
"fix" a perf regression)::

    PYTHONPATH=src python tests/data/gen_goldens.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from repro.analysis.experiments import scale_trace
from repro.core.job import ParallelismMode
from repro.flowsim.engine import FlowSimConfig, FlowStepper
from repro.flowsim.policies import policy_by_name
from repro.workloads.traces import attach_dags, generate_trace
from repro.wsim.runtime import WsConfig, WsRuntime
from repro.wsim.schedulers import ws_scheduler_by_name

DATA_DIR = Path(__file__).resolve().parent

FLOW_SEQ_POLICIES = [
    "srpt",
    "sjf",
    "rr",
    "fifo",
    "laps",
    "mlf",
    "setf",
    "random-np",
    "drep",
    "hdf",
    "wsrpt",
    "wdrep",
]
FLOW_PAR_POLICIES = ["srpt", "swf", "rr", "laps", "drep-par"]

WS_SCHEDULERS = ["drep", "steal-first", "admit-first", "swf", "rr"]


def _rng_digest(rng) -> str:
    """Stable digest of a Generator's bit-generator state."""
    state = json.dumps(rng.bit_generator.state, sort_keys=True, default=str)
    return hashlib.sha256(state.encode()).hexdigest()[:16]


def flow_seq_trace():
    return generate_trace(200, "finance", 0.7, 4, seed=42)


def flow_par_trace():
    return generate_trace(
        200, "bing", 0.7, 4, mode=ParallelismMode.FULLY_PARALLEL, seed=43
    )


def flow_profiled_trace():
    base = generate_trace(
        40,
        "finance",
        0.6,
        4,
        mode=ParallelismMode.FULLY_PARALLEL,
        seed=44,
        scale_work_with_m=False,
    )
    return attach_dags(scale_trace(base, 100.0), parallelism=8, seed=44)


def run_flow_case(trace, m, policy, seed, config=FlowSimConfig(), steps=False):
    """Run ``policy`` (a name or a Policy instance) and record the case.

    ``steps=True`` drives the run with one-event ``step()`` calls instead
    of ``drain()``, which folds events where the run allows it.
    """
    if isinstance(policy, str):
        policy = policy_by_name(policy)
    stepper = FlowStepper(m, policy, seed=seed, config=config)
    for spec in trace.jobs:
        stepper.add_job(spec)
    if steps:
        while not stepper.drained:
            stepper.step()
    else:
        stepper.drain()
    result = stepper.result()
    record = {
        "flow_times": [float(x) for x in result.flow_times],
        "preemptions": int(result.preemptions),
        "migrations": int(result.migrations),
        "makespan": float(result.makespan),
        "events": int(result.extra["events"]),
        "switches": int(result.extra["switches"]),
        "utilization": float(result.extra["utilization"]),
    }
    rng = getattr(policy, "_rng", None)
    if rng is not None:
        record["rng_digest"] = _rng_digest(rng)
    return record


def ws_trace(n=60, m=4, parallelism=8, scale=50.0, seed=45):
    base = generate_trace(
        n,
        "finance",
        0.6,
        m,
        mode=ParallelismMode.FULLY_PARALLEL,
        seed=seed,
        scale_work_with_m=False,
    )
    return attach_dags(scale_trace(base, scale), parallelism=parallelism, seed=seed)


def run_ws_case(trace, m, scheduler_name, seed, config=WsConfig(), speeds=None):
    rt = WsRuntime(
        trace,
        m,
        ws_scheduler_by_name(scheduler_name),
        seed=seed,
        config=config,
        speeds=speeds,
    )
    result = rt.run()
    c = rt.counters
    return {
        "flow_times": [float(x) for x in result.flow_times],
        "makespan": float(result.makespan),
        "work_steps": float(c.work_steps),
        "steal_attempts": int(c.steal_attempts),
        "failed_steals": int(c.failed_steals),
        "muggings": int(c.muggings),
        "preemptions": int(c.preemptions),
        "switches": int(c.switches),
        "admissions": int(c.admissions),
        "idle_steps": int(c.idle_steps),
        "overhead_steps": int(c.overhead_steps),
        "node_migrations": int(c.node_migrations),
        "rng_digest": _rng_digest(rt.rng),
    }


def ws_grid_cells():
    """The pinned fig-3 style grid (policy × m × load), workers-invariant."""
    from repro.analysis.pool import ws_sweep_cells

    return ws_sweep_cells(
        distribution="finance",
        loads=[0.5, 0.7],
        m_values=[2, 4],
        n_jobs=40,
        seed=11,
        mean_work_units=50,
        replicates=2,
    )


def main() -> None:
    flow: dict[str, dict] = {}
    seq = flow_seq_trace()
    par = flow_par_trace()
    for name in FLOW_SEQ_POLICIES:
        flow[f"seq/{name}"] = run_flow_case(seq, 4, name, seed=7)
    for name in FLOW_PAR_POLICIES:
        flow[f"par/{name}"] = run_flow_case(par, 4, name, seed=7)
    flow["seq/drep/speed2"] = run_flow_case(
        seq, 4, "drep", seed=7, config=FlowSimConfig(speed=2.0)
    )
    flow["profiled/srpt"] = run_flow_case(
        flow_profiled_trace(),
        4,
        "srpt",
        seed=7,
        config=FlowSimConfig(use_profiles=True),
    )
    (DATA_DIR / "golden_flowsim.json").write_text(
        json.dumps(flow, indent=1, sort_keys=True)
    )
    print(f"golden_flowsim.json: {len(flow)} cases")

    ws: dict[str, dict] = {}
    trace = ws_trace()
    for name in WS_SCHEDULERS:
        ws[f"{name}"] = run_ws_case(trace, 4, name, seed=9)
    for mode in ("node", "step"):
        ws[f"drep/check={mode}"] = run_ws_case(
            trace, 4, "drep", seed=9, config=WsConfig(preempt_check=mode)
        )
    ws["drep/overhead=2"] = run_ws_case(
        trace, 4, "drep", seed=9, config=WsConfig(preemption_overhead=2)
    )
    import numpy as np

    ws["drep/hetero"] = run_ws_case(
        trace, 4, "drep", seed=9, speeds=np.array([2.0, 1.0, 1.0, 0.5])
    )
    (DATA_DIR / "golden_wsim.json").write_text(
        json.dumps(ws, indent=1, sort_keys=True)
    )
    print(f"golden_wsim.json: {len(ws)} cases")

    from repro.analysis.pool import run_ws_grid

    rows = run_ws_grid(ws_grid_cells(), workers=1)
    (DATA_DIR / "golden_ws_grid.json").write_text(
        json.dumps(rows, indent=1, sort_keys=True)
    )
    print(f"golden_ws_grid.json: {len(rows)} rows")


if __name__ == "__main__":
    main()
