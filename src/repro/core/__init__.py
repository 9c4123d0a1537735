"""Core primitives shared across the library.

* :mod:`repro.core.job` — job specifications and per-run state;
* :mod:`repro.core.metrics` — schedule results and summaries;
* :mod:`repro.core.rng` — named deterministic random streams.
"""

from repro.core.job import JobSpec, JobState, ParallelismMode
from repro.core.metrics import ScheduleResult, compare_results, summarize_flow
from repro.core.rng import RngFactory, stable_hash

__all__ = [
    "JobSpec",
    "JobState",
    "ParallelismMode",
    "ScheduleResult",
    "compare_results",
    "summarize_flow",
    "RngFactory",
    "stable_hash",
]
