"""Performance instrumentation and the perf-trajectory harness.

Three pieces:

* :class:`~repro.perf.counters.PerfCounters` — near-zero-overhead hot-loop
  counters (rate-recompute hits/misses, amortized-check accounting, macro
  steps) that both engines attach to ``ScheduleResult.extra["perf"]``;
* :mod:`repro.perf.bench` — the standing throughput suite, runnable
  from Python or via ``drep-sim bench``;
* :mod:`repro.perf.trajectory` — the ``BENCH_<pr>.json`` trajectory
  format: one file per PR recording that PR's measured throughput, so the
  repo carries its own perf history and a regression is a diff away;
* :mod:`repro.perf.scaling` — active-set scaling ladders and the fitted
  per-event exponent behind the ``make scaling-smoke`` asymptotics gate.
"""

from repro.perf.counters import PerfCounters
from repro.perf.bench import (
    BENCH_CASES,
    CALIBRATION_CASE,
    BenchCase,
    drift_factor,
    run_bench_suite,
)
from repro.perf.scaling import (
    SCALING_POLICIES,
    fit_exponent,
    measure_scaling,
    staircase_jobs,
)
from repro.perf.trajectory import (
    discover_root,
    load_trajectory,
    trajectory_entry,
    write_trajectory,
)

__all__ = [
    "PerfCounters",
    "BenchCase",
    "BENCH_CASES",
    "CALIBRATION_CASE",
    "drift_factor",
    "run_bench_suite",
    "SCALING_POLICIES",
    "measure_scaling",
    "fit_exponent",
    "staircase_jobs",
    "trajectory_entry",
    "write_trajectory",
    "load_trajectory",
    "discover_root",
]
