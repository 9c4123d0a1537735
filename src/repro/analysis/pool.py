"""Deterministic process-pool runner for experiment grids.

The paper's simulation arm (Sec. V-A, Figures 1-2) is a large grid —
{Bing, Finance} × loads × processor sweep × modes × replicates — and
every cell is an independent simulation, so the sweep is embarrassingly
parallel.  This module shards any such grid over a process pool while
keeping the library's repro contract *byte-for-byte*:

* **Determinism** — ``run_grid(fn, tasks, workers=N)`` returns exactly
  the list ``[fn(t) for t in tasks]`` for every ``N``: tasks are
  dispatched in chunks (cheap work stealing — a slow cell only delays
  its own chunk) and reassembled in submission order, and every cell
  carries its own explicit seed, derived with the library's single
  seed-derivation rule (:func:`repro.core.rng.derive_seed`).
* **No trace shipping** — cells are small frozen dataclasses; each
  worker regenerates a cell's trace from its generation parameters
  through the per-process memo of :mod:`repro.analysis.parallel`, so a
  grid whose cells differ only in policy materializes each trace once
  per worker.
* **Observability** — pass a :class:`repro.perf.PerfCounters` and the
  dispatch shape lands in ``pool_tasks`` / ``pool_chunks`` /
  ``pool_workers``.

``FlowSweepCell`` rows carry the same fields as the serial
:func:`repro.analysis.experiments.run_flow_sweep` rows plus ``seed`` and
``events`` — and deliberately nothing process-dependent (no pids, no
wall times), which is what makes serial/parallel output comparable with
a plain ``==``.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor, as_completed
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from repro.core.rng import derive_seed

__all__ = [
    "FlowSweepCell",
    "WsSweepCell",
    "default_chunk_size",
    "flow_sweep_cells",
    "replicate_flow",
    "resolve_workers",
    "run_flow_grid",
    "run_grid",
    "run_ws_grid",
    "ws_sweep_cells",
]

#: policy keys per mode, mirroring
#: :func:`repro.analysis.experiments.flow_policy_factories`
DEFAULT_SEQ_POLICIES = ("srpt", "sjf", "rr", "drep")
DEFAULT_PAR_POLICIES = ("srpt", "swf", "rr", "drep-par")
#: fig-3 series, mirroring
#: :func:`repro.analysis.experiments.ws_scheduler_factories` (the keys
#: double as the ``scheduler`` labels in result rows)
DEFAULT_WS_SCHEDULERS = ("DREP", "SWF", "steal-first", "admit-first")


def _available_cpus() -> int:
    """CPUs this *process* may use — affinity-aware, never zero."""
    probe = getattr(os, "process_cpu_count", None)  # Python >= 3.13
    if probe is not None:
        return probe() or 1
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return os.cpu_count() or 1


def resolve_workers(workers: "int | str | None") -> int:
    """Normalize a worker count: int, ``None`` (all cores) or ``"auto"``.

    ``None`` and ``"auto"`` both mean the CPUs actually available to the
    process (``os.process_cpu_count`` when it exists, else the scheduler
    affinity mask), so either falls back to serial on a 1-core box —
    spawning a pool there only adds fork/pickle overhead on top of a
    core the parent already saturates (the BENCH_4 ``grid_sweep_w4``
    oversubscription finding: w4 is *slower* than w1 on 1 core).
    Results are unaffected either way — the grid contract is
    byte-identical rows for every worker count.
    """
    if workers is None or workers == "auto":
        return _available_cpus()
    if isinstance(workers, str):
        raise ValueError(f"workers must be an int, None or 'auto', got {workers!r}")
    return workers


def default_chunk_size(n_tasks: int, workers: int) -> int:
    """~4 chunks per worker: enough slack for stealing, little overhead."""
    return max(1, math.ceil(n_tasks / (4 * max(1, workers))))


def _run_chunk(fn: Callable, chunk: list) -> list:
    return [fn(item) for item in chunk]


def run_grid(
    fn: Callable,
    tasks: Iterable,
    workers: "int | str | None" = 1,
    chunk_size: int | None = None,
    counters=None,
) -> list:
    """Run ``fn`` over ``tasks``; result order == task order, always.

    ``fn`` and every task must be picklable (module-level function,
    plain-data cells).  ``workers=None`` and ``workers="auto"`` use
    :func:`resolve_workers` (available CPUs, serial on 1 core);
    ``workers=1`` runs inline — same code path minus the pool, so the
    output is byte-identical by construction.  ``chunk_size`` tunes
    dispatch granularity (default :func:`default_chunk_size`): chunks are
    submitted up front and completed in any order (work stealing), then
    reassembled by chunk index.

    Degenerate dispatch shapes are normalized rather than spawning a
    useless pool: an empty task list returns ``[]`` without touching the
    pool or the counters, and ``workers > len(tasks)`` is clamped so no
    worker is ever created without at least one chunk to run.  An
    explicit ``chunk_size < 1`` is a caller bug and raises.
    """
    tasks = list(tasks)
    workers = resolve_workers(workers)
    if workers < 1:
        raise ValueError("workers must be >= 1")
    if chunk_size is not None and chunk_size < 1:
        raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
    if not tasks:
        return []
    workers = min(workers, len(tasks))
    if counters is not None:
        counters.pool_tasks += len(tasks)
        counters.pool_workers = max(counters.pool_workers, workers)
    if workers == 1:
        if counters is not None:
            counters.pool_chunks += 1
        return [fn(task) for task in tasks]
    if chunk_size is None:
        chunk_size = default_chunk_size(len(tasks), workers)
    chunks = [tasks[i : i + chunk_size] for i in range(0, len(tasks), chunk_size)]
    if counters is not None:
        counters.pool_chunks += len(chunks)
    results: list[list | None] = [None] * len(chunks)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(_run_chunk, fn, chunk): i
            for i, chunk in enumerate(chunks)
        }
        for future in as_completed(futures):
            results[futures[future]] = future.result()
    out: list = []
    for chunk_rows in results:
        assert chunk_rows is not None
        out.extend(chunk_rows)
    return out


@dataclass(frozen=True)
class FlowSweepCell:
    """One (trace, policy) flow-simulation cell of a figure grid.

    Frozen and plain-data, so it pickles cheaply; the worker regenerates
    the trace from the generation parameters (memoized per process).
    """

    distribution: str
    load: float
    m: int
    mode: str
    policy: str
    n_jobs: int
    seed: int
    figure: str = ""
    speed: float = 1.0
    policy_kwargs: tuple = ()  # (key, value) pairs

    def run(self) -> dict:
        """Execute in the current process; returns a flat result row."""
        from repro.analysis.parallel import memoized_trace
        from repro.flowsim.engine import FlowSimConfig, simulate
        from repro.flowsim.policies import policy_by_name

        trace = memoized_trace(
            self.distribution, self.load, self.m, self.n_jobs, self.mode, self.seed
        )
        result = simulate(
            trace,
            self.m,
            policy_by_name(self.policy, **dict(self.policy_kwargs)),
            seed=self.seed,
            config=FlowSimConfig(speed=self.speed),
        )
        # the serial sweep's row fields, plus the cell seed and event
        # count; nothing process-dependent may ever be added here — the
        # workers=N ≡ workers=1 guarantee is a byte-level comparison
        return {
            "figure": self.figure,
            "distribution": self.distribution,
            "load": self.load,
            "m": self.m,
            "mode": self.mode,
            "scheduler": result.scheduler,
            "mean_flow": result.mean_flow,
            "p99_flow": result.percentile(99),
            "preemptions": result.preemptions,
            "switches": result.extra.get("switches", 0),
            "utilization": result.extra.get("utilization", 0.0),
            "seed": self.seed,
            "events": int(result.extra.get("events", 0)),
        }


def _run_flow_cell(cell: FlowSweepCell) -> dict:
    return cell.run()


def flow_sweep_cells(
    distribution: str,
    load: float,
    mode,
    m_values: Iterable[int],
    n_jobs: int,
    seed: int = 0,
    policies: Sequence[str] | None = None,
    replicates: int = 1,
    figure: str = "",
) -> list[FlowSweepCell]:
    """Figure-1/2 style grid as a flat cell list (m × policy × replicate).

    Replicate 0 runs on the base ``seed`` — matching the serial
    single-shot sweep — and replicate ``r`` on
    ``derive_seed(seed, f"rep/{r}")``, the same child a hand-rolled
    :meth:`repro.core.rng.RngFactory.child` loop would use.
    """
    mode_s = mode.value if hasattr(mode, "value") else str(mode)
    if policies is None:
        policies = (
            DEFAULT_PAR_POLICIES
            if mode_s == "fully_parallel"
            else DEFAULT_SEQ_POLICIES
        )
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    cells = []
    for r in range(replicates):
        cell_seed = seed if r == 0 else derive_seed(seed, f"rep/{r}")
        for m in m_values:
            for policy in policies:
                cells.append(
                    FlowSweepCell(
                        distribution=distribution,
                        load=float(load),
                        m=int(m),
                        mode=mode_s,
                        policy=policy,
                        n_jobs=int(n_jobs),
                        seed=int(cell_seed),
                        figure=figure,
                    )
                )
    return cells


def run_flow_grid(
    cells: Sequence[FlowSweepCell],
    workers: "int | str | None" = 1,
    chunk_size: int | None = None,
    counters=None,
) -> list[dict]:
    """Run a flow-cell grid through :func:`run_grid`."""
    return run_grid(
        _run_flow_cell,
        cells,
        workers=workers,
        chunk_size=chunk_size,
        counters=counters,
    )


@dataclass(frozen=True)
class WsSweepCell:
    """One (trace, scheduler) work-stealing runtime cell of a fig-3 grid.

    Same discipline as :class:`FlowSweepCell`: frozen plain data, the
    worker process rebuilds the DAG trace from generation parameters
    (memoized — all four schedulers of a fig-3 point share one trace),
    and the result row carries nothing process-dependent, so
    ``workers=N`` output equals ``workers=1`` output byte-for-byte.
    """

    distribution: str
    load: float
    m: int
    scheduler: str  # ws_scheduler_factories key, doubles as the row label
    n_jobs: int
    seed: int
    mean_work_units: int = 400
    parallelism: int = 0  # 0 = the run_ws_point default of 2*m
    figure: str = ""

    def run(self) -> dict:
        """Execute in the current process; returns a flat result row."""
        from repro.analysis.experiments import ws_scheduler_factories
        from repro.analysis.parallel import memoized_ws_trace
        from repro.wsim.runtime import simulate_ws

        parallelism = self.parallelism or 2 * self.m
        trace = memoized_ws_trace(
            self.distribution,
            self.load,
            self.m,
            self.n_jobs,
            self.mean_work_units,
            parallelism,
            self.seed,
        )
        factory = ws_scheduler_factories()[self.scheduler]
        result = simulate_ws(trace, self.m, factory(), seed=self.seed)
        # run_ws_point's row fields plus the cell seed and the step count;
        # nothing process-dependent may ever be added here (see
        # FlowSweepCell.run)
        return {
            "figure": self.figure,
            "distribution": self.distribution,
            "load": self.load,
            "m": self.m,
            "scheduler": self.scheduler,
            "mean_flow": result.mean_flow,
            "p99_flow": result.percentile(99),
            "preemptions": result.preemptions,
            "switches": result.extra.get("switches", 0),
            "steal_attempts": result.steal_attempts,
            "muggings": result.muggings,
            "utilization": result.extra.get("utilization", 0.0),
            "seed": self.seed,
            "events": int(result.makespan),
        }


def _run_ws_cell(cell: WsSweepCell) -> dict:
    return cell.run()


def ws_sweep_cells(
    distribution: str,
    loads: Iterable[float],
    m_values: Iterable[int],
    n_jobs: int,
    seed: int = 0,
    schedulers: Sequence[str] | None = None,
    mean_work_units: int = 400,
    parallelism: int | None = None,
    replicates: int = 1,
    figure: str = "",
) -> list[WsSweepCell]:
    """Figure-3 style grid as a flat cell list (m × load × scheduler).

    Seeds follow the :func:`flow_sweep_cells` rule: replicate 0 on the
    base ``seed`` (matching the serial :func:`run_ws_sweep`), replicate
    ``r`` on ``derive_seed(seed, f"rep/{r}")``.
    """
    if replicates < 1:
        raise ValueError("replicates must be >= 1")
    if schedulers is None:
        schedulers = DEFAULT_WS_SCHEDULERS
    cells = []
    for r in range(replicates):
        cell_seed = seed if r == 0 else derive_seed(seed, f"rep/{r}")
        for m in m_values:
            for load in loads:
                for scheduler in schedulers:
                    cells.append(
                        WsSweepCell(
                            distribution=distribution,
                            load=float(load),
                            m=int(m),
                            scheduler=scheduler,
                            n_jobs=int(n_jobs),
                            seed=int(cell_seed),
                            mean_work_units=int(mean_work_units),
                            parallelism=int(parallelism or 0),
                            figure=figure,
                        )
                    )
    return cells


def run_ws_grid(
    cells: Sequence[WsSweepCell],
    workers: "int | str | None" = 1,
    chunk_size: int | None = None,
    counters=None,
) -> list[dict]:
    """Run a work-stealing-cell grid through :func:`run_grid`."""
    return run_grid(
        _run_ws_cell,
        cells,
        workers=workers,
        chunk_size=chunk_size,
        counters=counters,
    )


def replicate_flow(
    policy: str,
    distribution: str,
    load: float,
    m: int,
    n_jobs: int,
    mode: str = "sequential",
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    workers: int | None = 1,
    metric: str = "mean_flow",
):
    """Multi-seed replication of one cell, sharded over the pool.

    The pool-friendly sibling of :func:`repro.analysis.replication.replicate`:
    same :class:`~repro.analysis.replication.Replication` summary, but the
    per-seed runs are grid cells, so they parallelize and stay
    byte-deterministic for any worker count.
    """
    from repro.analysis.replication import Replication

    if not seeds:
        raise ValueError("need at least one seed")
    cells = [
        FlowSweepCell(
            distribution=distribution,
            load=float(load),
            m=int(m),
            mode=mode,
            policy=policy,
            n_jobs=int(n_jobs),
            seed=int(s),
        )
        for s in seeds
    ]
    rows = run_flow_grid(cells, workers=workers)
    return Replication(
        label=rows[0]["scheduler"],
        values=tuple(float(r[metric]) for r in rows),
    )
