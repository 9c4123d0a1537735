"""Frozen workloads pinned to the committed ``BENCH_10.json`` record.

``BENCH_2.json`` … ``BENCH_10.json`` are the measured history of an
earlier throughput suite.  Its workloads stay frozen here as plain
functions, and each one must reproduce BENCH_10's row on ``events``,
``n_jobs`` and ``mean_flow`` bit for bit.  A changed event count means a
frozen workload's behaviour moved; a changed mean with the same count
catches a drift the count alone misses (a retuned autoscale guard, say).

Two rows are pinned where CI already runs their workload:
``flowsim_stream_1m`` in ``scripts/stream_smoke.py`` (``make
stream-smoke``) and ``active_scaling`` in ``scripts/scaling_smoke.py``
(``make scaling-smoke``).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.analysis.experiments import scale_trace
from repro.analysis.pool import (
    flow_sweep_cells,
    run_flow_grid,
    run_ws_grid,
    ws_sweep_cells,
)
from repro.autoscale.guard import AutoscaleConfig
from repro.autoscale.loop import run_flowsim_elastic
from repro.core.job import ParallelismMode
from repro.flowsim.engine import FlowSimConfig, simulate
from repro.flowsim.policies import SRPT, policy_by_name
from repro.flowsim.stream import simulate_stream
from repro.perf.counters import PerfCounters
from repro.perf.scaling import staircase_jobs
from repro.workloads.traces import attach_dags, generate_trace
from repro.wsim.runtime import simulate_ws
from repro.wsim.schedulers import DrepWS

BENCH_10 = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCH_10.json").read_text()
)["benches"]

#: rows pinned by a smoke script rather than here
SMOKE_ROWS = ("flowsim_stream_1m", "active_scaling")


def _row(res, events: int) -> dict:
    return {
        "events": events,
        "n_jobs": res.n_jobs,
        "mean_flow": res.mean_flow,
        "perf": res.extra.get("perf", {}),
    }


def _flowsim(n_jobs: int, distribution: str, policy: str, seed: int) -> dict:
    trace = generate_trace(n_jobs, distribution, 0.7, 8, seed=seed)
    res = simulate(trace, 8, policy_by_name(policy), seed=seed)
    return _row(res, res.extra["events"])


def _flowsim_profiled() -> dict:
    base = generate_trace(
        300,
        "finance",
        0.6,
        4,
        mode=ParallelismMode.FULLY_PARALLEL,
        seed=304,
        scale_work_with_m=False,
    )
    trace = attach_dags(scale_trace(base, 200.0), parallelism=8, seed=304)
    res = simulate(
        trace, 4, SRPT(), seed=304, config=FlowSimConfig(use_profiles=True)
    )
    return _row(res, res.extra["events"])


#: ``wsim_hetero``'s machine: speeds on the dyadic exactness grid
DYADIC_SPEEDS = np.array([2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5])


def _wsim(speeds=None) -> dict:
    """150 DAG jobs on DREP work stealing; wsim's event count is its makespan."""
    base = generate_trace(
        150,
        "finance",
        0.6,
        8,
        mode=ParallelismMode.FULLY_PARALLEL,
        seed=305,
        scale_work_with_m=False,
    )
    trace = attach_dags(scale_trace(base, 300.0), parallelism=16, seed=305)
    res = simulate_ws(trace, 8, DrepWS(), seed=305, speeds=speeds)
    return _row(res, int(res.makespan))


def _grid_summary(rows: list[dict], n_jobs: int, counters: PerfCounters) -> dict:
    return {
        "events": sum(r["events"] for r in rows),
        "n_jobs": n_jobs * len(rows),
        "mean_flow": sum(r["mean_flow"] for r in rows) / len(rows),
        "perf": counters.as_dict(),
    }


def _grid_sweep(workers: int) -> dict:
    """Figure-1 style grid: 3 m x 3 policies x 2 replicates."""
    cells = flow_sweep_cells(
        distribution="finance",
        load=0.7,
        mode="sequential",
        m_values=[2, 4, 8],
        n_jobs=400,
        seed=306,
        policies=("srpt", "rr", "drep"),
        replicates=2,
        figure="bench",
    )
    counters = PerfCounters()
    rows = run_flow_grid(cells, workers=workers, counters=counters)
    return _grid_summary(rows, 400, counters)


def _ws_grid(workers) -> dict:
    """Figure-3 style grid: 2 loads x 4 schedulers x 2 replicates."""
    cells = ws_sweep_cells(
        distribution="finance",
        loads=[0.5, 0.7],
        m_values=[4],
        n_jobs=60,
        seed=307,
        mean_work_units=50,
        replicates=2,
        figure="bench",
    )
    counters = PerfCounters()
    rows = run_ws_grid(cells, workers=workers, counters=counters)
    return _grid_summary(rows, 60, counters)


def _autoscale() -> dict:
    cfg = AutoscaleConfig(
        m_min=1,
        m_max=8,
        tick=5.0,
        up_watermark=15.0,
        down_watermark=4.0,
        cooldown_up=0.0,
        cooldown_down=0.0,
        requeue_delay=1.0,
    )
    trace = generate_trace(1500, "finance", 0.7, 8, seed=308)
    row = run_flowsim_elastic(trace, policy_by_name("drep"), cfg, seed=308)
    return {"events": row["events"], "n_jobs": 1500, "mean_flow": row["mean_flow"]}


def _churn(dense: bool) -> dict:
    """10^4 simultaneously active FIFO jobs; ``dense`` never promotes."""
    n = 10_000
    config = (
        FlowSimConfig(incremental_min_active=n + 1) if dense else FlowSimConfig()
    )
    res = simulate_stream(
        staircase_jobs(n), 8, policy_by_name("fifo"), seed=310, config=config
    )
    return _row(res, res.extra["events"])


ROWS = {
    "flowsim_srpt": lambda: _flowsim(3000, "finance", "srpt", 301),
    "flowsim_rr": lambda: _flowsim(3000, "bing", "rr", 302),
    "flowsim_drep": lambda: _flowsim(3000, "finance", "drep", 303),
    "flowsim_profiled": _flowsim_profiled,
    "wsim_drep": _wsim,
    "grid_sweep_w1": lambda: _grid_sweep(1),
    "grid_sweep_w4": lambda: _grid_sweep(4),
    "wsim_hetero": lambda: _wsim(DYADIC_SPEEDS),
    "wsim_grid_w1": lambda: _ws_grid(1),
    "wsim_grid_auto": lambda: _ws_grid("auto"),
    "autoscale": _autoscale,
    "flowsim_churn_10k": lambda: _churn(dense=False),
    "flowsim_churn_10k_dense": lambda: _churn(dense=True),
    "calibration": lambda: _flowsim(1500, "finance", "srpt", 399),
}

SLOW = (
    "grid_sweep_w4",
    "wsim_grid_auto",
    "flowsim_churn_10k",
    "flowsim_churn_10k_dense",
)


def test_every_bench_10_row_is_pinned():
    assert sorted((*ROWS, *SMOKE_ROWS)) == sorted(BENCH_10)


@pytest.mark.parametrize(
    "name",
    [pytest.param(n, marks=pytest.mark.slow) if n in SLOW else n for n in ROWS],
)
def test_row_equals_bench_10(name):
    got = ROWS[name]()
    want = BENCH_10[name]
    for key in ("events", "n_jobs", "mean_flow"):
        assert got[key] == want[key], f"{name}.{key}: {got[key]!r} != {want[key]!r}"


@pytest.mark.parametrize(
    "name, cells",
    [
        ("grid_sweep_w1", 18),
        pytest.param("grid_sweep_w4", 18, marks=pytest.mark.slow),
        ("wsim_grid_w1", 16),
        pytest.param("wsim_grid_auto", 16, marks=pytest.mark.slow),
    ],
)
def test_grid_rows_dispatch_every_cell(name, cells):
    assert ROWS[name]()["perf"]["pool_tasks"] == cells


def test_wsim_hetero_stays_on_the_exactness_grid():
    # dyadic speeds: the heterogeneous macro path engages and never falls
    # back (as_dict drops zero-valued counters)
    perf = ROWS["wsim_hetero"]()["perf"]
    assert perf["horizon_jumps"] > 0
    assert "exactness_fallbacks" not in perf
