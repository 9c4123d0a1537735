"""Performance instrumentation: hot-loop counters and scaling ladders.

Two pieces:

* :class:`~repro.perf.counters.PerfCounters` — near-zero-overhead hot-loop
  counters (rate-recompute hits/misses, amortized-check accounting, macro
  steps) that both engines attach to ``ScheduleResult.extra["perf"]``;
* :mod:`repro.perf.scaling` — active-set scaling ladders and the fitted
  per-event exponent behind the ``make scaling-smoke`` asymptotics gate.

The repository benchmark, which times the paper's figures, streamed
replays and the live tier end to end, is ``bench/`` at the repo root.
"""

from repro.perf.counters import PerfCounters
from repro.perf.scaling import (
    SCALING_POLICIES,
    fit_exponent,
    measure_scaling,
    staircase_jobs,
)

__all__ = [
    "PerfCounters",
    "SCALING_POLICIES",
    "measure_scaling",
    "fit_exponent",
    "staircase_jobs",
]
