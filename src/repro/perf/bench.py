"""The standing throughput suite behind ``drep-sim bench``.

Runs the frozen engine workloads as a plain library call, so the numbers
can be captured into the ``BENCH_<pr>.json`` perf trajectory from the
CLI, CI, or a notebook without pytest in the loop.

Each case reports the best-of-``repeats`` wall time (the standard
microbenchmark convention: the minimum is the least noisy estimator of
the true cost), the engine's event/step count, derived throughput, and
the engine's own :class:`~repro.perf.counters.PerfCounters` snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.core.metrics import ScheduleResult

__all__ = [
    "BenchCase",
    "BENCH_CASES",
    "CALIBRATION_CASE",
    "drift_factor",
    "run_bench_suite",
]

#: name of the fixed-work calibration case (see :func:`drift_factor`)
CALIBRATION_CASE = "calibration"


@dataclass(frozen=True)
class BenchCase:
    """One named throughput workload.

    ``build`` constructs the (trace, runner) pair once per case — trace
    generation is *excluded* from the timed region; ``runner()`` executes
    one full simulation and returns its :class:`ScheduleResult`, or — for
    grid cases whose unit of work is many simulations — a plain summary
    dict with ``events``, ``n_jobs``, ``mean_flow`` and ``perf`` keys.
    """

    name: str
    engine: str  # "flowsim" | "wsim" | "grid"
    build: Callable[[float], Callable[[], ScheduleResult]]
    #: cap on timed repeats for expensive cases (``None`` = suite default);
    #: ``run_bench_suite`` uses ``min(repeats, max_repeats)``.
    max_repeats: "int | None" = None


def _flowsim_case(n_jobs: int, distribution: str, policy_key: str, seed: int):
    def build(scale: float) -> Callable[[], ScheduleResult]:
        from repro.flowsim.engine import simulate
        from repro.flowsim.policies import policy_by_name
        from repro.workloads.traces import generate_trace

        n = max(10, int(n_jobs * scale))
        trace = generate_trace(n, distribution, 0.7, 8, seed=seed)
        return lambda: simulate(trace, 8, policy_by_name(policy_key), seed=seed)

    return build


def _flowsim_profiled_case(seed: int):
    def build(scale: float) -> Callable[[], ScheduleResult]:
        from repro.analysis.experiments import scale_trace
        from repro.core.job import ParallelismMode
        from repro.flowsim.engine import FlowSimConfig, simulate
        from repro.flowsim.policies import SRPT
        from repro.workloads.traces import attach_dags, generate_trace

        n = max(10, int(300 * scale))
        base = generate_trace(
            n,
            "finance",
            0.6,
            4,
            mode=ParallelismMode.FULLY_PARALLEL,
            seed=seed,
            scale_work_with_m=False,
        )
        trace = attach_dags(scale_trace(base, 200.0), parallelism=8, seed=seed)
        config = FlowSimConfig(use_profiles=True)
        return lambda: simulate(trace, 4, SRPT(), seed=seed, config=config)

    return build


def _calibration_case(seed: int):
    """Fixed-work measurement yardstick — deliberately ignores ``scale``.

    Every other case scales its workload with ``--scale``, so two BENCH
    files taken on different machines (or a machine under different
    load) mix real code speedups with hardware drift.  This case always
    runs the *same* frozen workload; the ratio of its wall times between
    two trajectory entries estimates pure machine drift, which
    :func:`drift_factor` uses to print normalized speedups next to raw
    ones in ``drep-sim bench --compare``.
    """

    def build(scale: float) -> Callable[[], ScheduleResult]:
        del scale  # fixed work is the whole point
        from repro.flowsim.engine import simulate
        from repro.flowsim.policies import policy_by_name
        from repro.workloads.traces import generate_trace

        trace = generate_trace(1500, "finance", 0.7, 8, seed=seed)
        return lambda: simulate(trace, 8, policy_by_name("srpt"), seed=seed)

    return build


def drift_factor(old_entry: dict, new_entry: dict) -> float | None:
    """Machine-drift estimate between two trajectory entries.

    ``new_calibration_wall / old_calibration_wall`` — above 1 the new
    machine/run was slower, below 1 faster.  Multiply a raw speedup by
    this factor to normalize out the drift (an unchanged workload on a
    2× slower machine shows raw 0.5×, normalized 1.0×).  ``None`` when
    either entry predates the calibration case.
    """
    o = old_entry.get("benches", {}).get(CALIBRATION_CASE)
    n = new_entry.get("benches", {}).get(CALIBRATION_CASE)
    if not o or not n or not o.get("wall_s") or not n.get("wall_s"):
        return None
    return float(n["wall_s"]) / float(o["wall_s"])


def _wsim_case(seed: int):
    def build(scale: float) -> Callable[[], ScheduleResult]:
        from repro.analysis.experiments import scale_trace
        from repro.core.job import ParallelismMode
        from repro.workloads.traces import attach_dags, generate_trace
        from repro.wsim.runtime import simulate_ws
        from repro.wsim.schedulers import DrepWS

        n = max(10, int(150 * scale))
        base = generate_trace(
            n,
            "finance",
            0.6,
            8,
            mode=ParallelismMode.FULLY_PARALLEL,
            seed=seed,
            scale_work_with_m=False,
        )
        trace = attach_dags(scale_trace(base, 300.0), parallelism=16, seed=seed)
        return lambda: simulate_ws(trace, 8, DrepWS(), seed=seed)

    return build


def _wsim_hetero_case(seed: int):
    """The wsim workload on a dyadic-speed machine (2-2-1-1-1-1-½-½).

    Same trace as ``wsim_drep``; the speeds sit on the exactness grid, so
    the event-horizon kernel's heterogeneous macro-stepping stays engaged
    (``perf.exactness_fallbacks`` must read 0 in every BENCH file).
    """

    def build(scale: float) -> Callable[[], ScheduleResult]:
        import numpy as np

        from repro.analysis.experiments import scale_trace
        from repro.core.job import ParallelismMode
        from repro.workloads.traces import attach_dags, generate_trace
        from repro.wsim.runtime import simulate_ws
        from repro.wsim.schedulers import DrepWS

        n = max(10, int(150 * scale))
        base = generate_trace(
            n,
            "finance",
            0.6,
            8,
            mode=ParallelismMode.FULLY_PARALLEL,
            seed=seed,
            scale_work_with_m=False,
        )
        trace = attach_dags(scale_trace(base, 300.0), parallelism=16, seed=seed)
        speeds = np.array([2.0, 2.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5])
        return lambda: simulate_ws(trace, 8, DrepWS(), seed=seed, speeds=speeds)

    return build


def _ws_grid_case(workers, seed: int):
    """Figure-3 style (load × scheduler × replicate) wsim grid.

    Like ``grid_sweep_w*`` for the flow engine: the workload is
    identical for every ``workers`` value, so the pair measures dispatch
    cost, and ``events``/``mean_flow`` must agree between the two — the
    wsim face of the pool's determinism tripwire.  ``workers="auto"``
    resolves to the available cores (serial on a 1-core container).
    """

    def build(scale: float) -> Callable[[], dict]:
        from repro.analysis.pool import run_ws_grid, ws_sweep_cells
        from repro.perf.counters import PerfCounters

        n = max(10, int(60 * scale))
        cells = ws_sweep_cells(
            distribution="finance",
            loads=[0.5, 0.7],
            m_values=[4],
            n_jobs=n,
            seed=seed,
            mean_work_units=50,
            replicates=2,
            figure="bench",
        )

        def run() -> dict:
            counters = PerfCounters()
            rows = run_ws_grid(cells, workers=workers, counters=counters)
            return {
                "events": sum(r["events"] for r in rows),
                "n_jobs": n * len(rows),
                "mean_flow": sum(r["mean_flow"] for r in rows) / len(rows),
                "perf": counters.as_dict(),
            }

        return run

    return build


def _grid_sweep_case(workers: int, seed: int):
    """Figure-1 style (m × policy × replicate) grid through the pool runner.

    The workload is identical for every ``workers`` value (the pool
    guarantees byte-identical rows), so the ``grid_sweep_w*`` pair
    measures pure dispatch overhead/speedup, and their ``events`` and
    ``mean_flow`` must always agree — a cheap determinism tripwire in
    every BENCH file.
    """

    def build(scale: float) -> Callable[[], dict]:
        from repro.analysis.pool import flow_sweep_cells, run_flow_grid
        from repro.perf.counters import PerfCounters

        n = max(10, int(400 * scale))
        cells = flow_sweep_cells(
            distribution="finance",
            load=0.7,
            mode="sequential",
            m_values=[2, 4, 8],
            n_jobs=n,
            seed=seed,
            policies=("srpt", "rr", "drep"),
            replicates=2,
            figure="bench",
        )

        def run() -> dict:
            counters = PerfCounters()
            rows = run_flow_grid(cells, workers=workers, counters=counters)
            return {
                "events": sum(r["events"] for r in rows),
                "n_jobs": n * len(rows),
                "mean_flow": sum(r["mean_flow"] for r in rows) / len(rows),
                "perf": counters.as_dict(),
            }

        return run

    return build


def _flowsim_stream_case(seed: int):
    """Million-job streaming run — the bounded-RAM tripwire.

    The timed region is one :func:`~repro.flowsim.stream.simulate_stream`
    pass over a *lazy* ``generate_stream`` of ``1e6 * scale`` jobs (the
    generator is inside the timed region on purpose: lazy ingestion is
    the thing being measured, and pre-materializing the trace would both
    defeat it and need the O(n) memory this case exists to rule out).

    ``build`` additionally runs an untimed flat-memory gate: two
    tracemalloc'd streaming runs at ``n/100`` and ``n/10`` jobs must not
    differ in Python heap peak by more than 1.25x despite the 10x job
    count — O(active-jobs) memory, not O(n).  The gate raises (failing
    the bench) when streaming regresses to per-job retention; its
    numbers ride along in the row's ``perf`` dict.
    """

    def build(scale: float) -> Callable[[], dict]:
        import tracemalloc

        from repro.flowsim.policies import policy_by_name
        from repro.flowsim.stream import simulate_stream
        from repro.workloads.stream import generate_stream

        n = max(5000, int(1_000_000 * scale))

        def one(n_run: int, traced: bool):
            # The gate pins the chunking knobs well below its job counts:
            # at the defaults (65536/1024/8192) a 20k-job traced run is
            # bounded by n, not the knobs, and the ratio means nothing.
            # The timed full-n run keeps the defaults (n >> knobs there).
            knobs = (
                dict(chunk_jobs=128) if traced else {}
            )
            stream = generate_stream(
                n_run, "exponential", 0.8, 16, seed=seed, **knobs
            )
            sim_knobs = (
                dict(ingest_chunk=64, harvest_every=256) if traced else {}
            )
            if traced:
                tracemalloc.start()
            try:
                res = simulate_stream(
                    stream, 16, policy_by_name("srpt"), seed=seed, **sim_knobs
                )
                peak_mb = (
                    tracemalloc.get_traced_memory()[1] / (1024.0 * 1024.0)
                    if traced
                    else 0.0
                )
            finally:
                if traced:
                    tracemalloc.stop()
            return res, peak_mb

        # Untimed flat-memory gate.  tracemalloc costs ~20x throughput,
        # so the traced pair is capped: 2k vs 20k jobs already exercises
        # a 10x job-count spread, and O(active-jobs) vs O(n) retention
        # shows up identically at any absolute size.
        small_n = max(500, min(n // 100, 2_000))
        _, small_peak = one(small_n, traced=True)
        _, big_peak = one(10 * small_n, traced=True)
        mem_ratio = big_peak / small_peak if small_peak > 0 else float("inf")
        if mem_ratio > 1.25:
            raise RuntimeError(
                f"streaming memory not flat: py heap peak {big_peak:.2f}MB at "
                f"10x jobs vs {small_peak:.2f}MB (ratio {mem_ratio:.2f} > 1.25)"
            )

        def run() -> dict:
            res, _ = one(n, traced=False)
            perf = dict(res.extra.get("perf", {}))
            perf["py_peak_mb_small"] = round(small_peak, 3)
            perf["py_peak_mb_10x"] = round(big_peak, 3)
            perf["mem_flat_ratio"] = round(mem_ratio, 4)
            return {
                "events": int(res.extra["events"]),
                "n_jobs": res.n_jobs,
                "mean_flow": res.mean_flow,
                "perf": perf,
            }

        return run

    return build


def _churn_case(seed: int, use_incremental: bool):
    """High-concurrency streamed staircase: 10⁴ simultaneously active jobs.

    The adversarial regime PR 10 targets — every event touches a
    10,000-deep active set.  The case runs twice in the suite
    (``flowsim_churn_10k`` on the incremental kernels,
    ``flowsim_churn_10k_dense`` on the dense lexsort/scan path) so every
    BENCH file carries its own interleaved A/B: the pair's wall-time
    ratio is the incremental speedup on this machine, this run, with no
    cross-day drift to normalize out.  Results are bit-identical by the
    equivalence suite, so ``events``/``mean_flow`` must agree between
    the two rows.
    """

    def build(scale: float) -> Callable[[], dict]:
        del scale  # the A/B pair is only comparable at frozen depth
        from repro.flowsim.engine import FlowSimConfig
        from repro.flowsim.policies import policy_by_name
        from repro.flowsim.stream import simulate_stream
        from repro.perf.scaling import staircase_jobs

        n = 10_000
        # the dense twin's promotion threshold sits above the staircase
        # depth, so that run never leaves the lexsort/scan path
        config = (
            FlowSimConfig()
            if use_incremental
            else FlowSimConfig(incremental_min_active=n + 1)
        )

        def run() -> dict:
            res = simulate_stream(
                staircase_jobs(n), 8, policy_by_name("fifo"), seed=seed,
                config=config,
            )
            return {
                "events": int(res.extra["events"]),
                "n_jobs": res.n_jobs,
                "mean_flow": res.mean_flow,
                "perf": dict(res.extra.get("perf", {})),
            }

        return run

    return build


def _active_scaling_case(seed: int):
    """Fitted active-set scaling exponents (the PR 10 asymptotics gate).

    Runs the staircase ladder 10²→10⁴ for every order-driven policy on
    the incremental kernels and records the per-policy fitted exponent
    of wall-per-event vs n_active (``perf["exponent_<policy>"]``) plus
    the summed structure counters.  Deliberately ignores ``--scale``:
    exponents are only comparable on a frozen ladder.  The slope, unlike
    wall time, is machine-drift-free — it is the number the trajectory
    tracks.  ``scripts/scaling_smoke.py`` gates CI on the same
    measurement.
    """

    def build(scale: float) -> Callable[[], dict]:
        del scale
        from repro.perf.scaling import SCALING_POLICIES, measure_scaling

        def run() -> dict:
            res = measure_scaling((100, 1_000, 10_000), seed=seed)
            perf: dict = {}
            events = 0
            flows = []
            for key in SCALING_POLICIES:
                perf[f"exponent_{key}"] = round(res[key]["exponent"], 4)
                for p in res[key]["points"]:
                    events += p["events"]
                    flows.append(p["mean_flow"])
                    for counter in (
                        "order_ops",
                        "calendar_pops",
                        "calendar_invalidations",
                    ):
                        if counter in p:
                            perf[counter] = perf.get(counter, 0) + p[counter]
            return {
                "events": events,
                "n_jobs": sum(
                    p["n_active"]
                    for key in SCALING_POLICIES
                    for p in res[key]["points"]
                ),
                "mean_flow": sum(flows) / len(flows),
                "perf": perf,
            }

        return run

    return build


def _autoscale_case(seed: int):
    """Closed-loop elastic capacity over the flow engine (repro.autoscale).

    One DREP run under the watermark controller: ticks, scale decisions,
    displacement and requeues all ride the timed region, so this case
    tracks the controller's dispatch overhead on top of flowsim — and
    its ``events`` count doubles as a frozen-workload tripwire for the
    elastic trajectory itself (a changed m(t) schedule changes the
    event count).
    """

    def build(scale: float) -> Callable[[], dict]:
        from repro.autoscale.guard import AutoscaleConfig
        from repro.autoscale.loop import run_flowsim_elastic
        from repro.flowsim.policies import policy_by_name
        from repro.workloads.traces import generate_trace

        n = max(10, int(1500 * scale))
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
        trace = generate_trace(n, "finance", 0.7, 8, seed=seed)

        def run() -> dict:
            row = run_flowsim_elastic(
                trace, policy_by_name("drep"), cfg, seed=seed
            )
            return {
                "events": int(row["events"]),
                "n_jobs": n,
                "mean_flow": row["mean_flow"],
                "perf": {
                    "ticks": row["ticks"],
                    "scale_ups": row["scale_ups"],
                    "scale_downs": row["scale_downs"],
                    "requeues": row["requeues"],
                },
            }

        return run

    return build


#: The suite: keep names stable — they are the keys of every
#: ``BENCH_*.json`` entry, and the trajectory is only comparable across
#: PRs if the workloads behind the names never change.
BENCH_CASES: tuple[BenchCase, ...] = (
    BenchCase("flowsim_srpt", "flowsim", _flowsim_case(3000, "finance", "srpt", 301)),
    BenchCase("flowsim_rr", "flowsim", _flowsim_case(3000, "bing", "rr", 302)),
    BenchCase("flowsim_drep", "flowsim", _flowsim_case(3000, "finance", "drep", 303)),
    BenchCase("flowsim_profiled", "flowsim", _flowsim_profiled_case(304)),
    BenchCase("wsim_drep", "wsim", _wsim_case(305)),
    BenchCase("grid_sweep_w1", "grid", _grid_sweep_case(1, 306)),
    BenchCase("grid_sweep_w4", "grid", _grid_sweep_case(4, 306)),
    BenchCase("wsim_hetero", "wsim", _wsim_hetero_case(305)),
    BenchCase("wsim_grid_w1", "grid", _ws_grid_case(1, 307)),
    BenchCase("wsim_grid_auto", "grid", _ws_grid_case("auto", 307)),
    BenchCase("autoscale", "grid", _autoscale_case(308)),
    BenchCase(
        "flowsim_stream_1m", "flowsim", _flowsim_stream_case(309), max_repeats=1
    ),
    BenchCase(
        "flowsim_churn_10k", "flowsim", _churn_case(310, True), max_repeats=2
    ),
    BenchCase(
        "flowsim_churn_10k_dense",
        "flowsim",
        _churn_case(310, False),
        max_repeats=1,
    ),
    BenchCase(
        "active_scaling", "flowsim", _active_scaling_case(311), max_repeats=1
    ),
    BenchCase(CALIBRATION_CASE, "flowsim", _calibration_case(399)),
)


def _events_of(result: ScheduleResult) -> int:
    if "events" in result.extra:
        return int(result.extra["events"])
    # wsim: makespan is the step count
    return int(result.makespan)


def _profile_case(runner: Callable, name: str, profile_dir) -> str:
    """One extra cProfile'd pass; writes the top-20 cumulative listing.

    Runs *after* the timed repeats so the tracer overhead never touches
    the recorded wall times.  Returns the written path.  The profile is
    parent-process only — pooled grid cases show dispatch cost here, the
    simulation time lives in the workers.
    """
    import cProfile
    import io
    import pstats
    from pathlib import Path

    prof = cProfile.Profile()
    prof.enable()
    try:
        runner()
    finally:
        prof.disable()
    buf = io.StringIO()
    pstats.Stats(prof, stream=buf).sort_stats("cumulative").print_stats(20)
    path = Path(profile_dir) / f"{name}.cprofile.txt"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(buf.getvalue())
    return str(path)


def run_bench_suite(
    scale: float = 1.0,
    repeats: int = 3,
    cases: tuple[BenchCase, ...] = BENCH_CASES,
    progress: Callable[[str], None] | None = None,
    profile_dir: "str | None" = None,
) -> dict[str, dict]:
    """Run the suite; returns ``{case name: measurement row}``.

    ``scale`` multiplies job counts (compatible with the benchmarks'
    ``REPRO_BENCH_SCALE`` convention); ``repeats`` reruns each case and
    keeps the fastest wall time.  Rows carry ``wall_s``, ``events``,
    ``events_per_sec``, ``mean_flow`` (a cheap correctness tripwire:
    a perf "win" that changes the answer is a bug) and the engine's
    ``perf`` counter snapshot from the fastest run.

    ``profile_dir`` adds one untimed cProfile pass per case and drops a
    ``<case>.cprofile.txt`` top-20 cumulative listing there (the
    ``drep-sim bench --profile`` backend).
    """
    if scale <= 0:
        raise ValueError("scale must be > 0")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    rows: dict[str, dict] = {}
    for case in cases:
        runner = case.build(scale)
        case_repeats = (
            repeats if case.max_repeats is None else min(repeats, case.max_repeats)
        )
        best_s = float("inf")
        best_result: ScheduleResult | dict | None = None
        for _ in range(case_repeats):
            t0 = time.perf_counter()
            result = runner()
            dt = time.perf_counter() - t0
            if dt < best_s:
                best_s = dt
                best_result = result
        assert best_result is not None
        if profile_dir is not None:
            profile_path = _profile_case(runner, case.name, profile_dir)
            if progress is not None:
                progress(f"{case.name:18s} profile -> {profile_path}")
        if isinstance(best_result, dict):  # grid cases summarize many runs
            events = int(best_result["events"])
            n_jobs = int(best_result["n_jobs"])
            mean_flow = best_result["mean_flow"]
            perf = dict(best_result.get("perf", {}))
        else:
            events = _events_of(best_result)
            n_jobs = best_result.n_jobs
            mean_flow = best_result.mean_flow
            perf = dict(best_result.extra.get("perf", {}))
        rows[case.name] = {
            "engine": case.engine,
            "wall_s": best_s,
            "events": events,
            "events_per_sec": events / best_s if best_s > 0 else None,
            "n_jobs": n_jobs,
            "jobs_per_sec": n_jobs / best_s if best_s > 0 else None,
            "mean_flow": mean_flow,
            "perf": perf,
        }
        if progress is not None:
            progress(
                f"{case.name:18s} {best_s:8.3f}s  "
                f"{events / best_s:>12.0f} events/s"
            )
    return rows
