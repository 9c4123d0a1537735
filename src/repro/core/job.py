"""Job model shared by both simulators.

The paper (Sec. II) characterizes a parallel DAG job :math:`J_i` by two
parameters: its *work* :math:`W_i` (total processing time of all DAG nodes)
and its *critical-path length* :math:`C_i` (longest weighted path).  The
flow-level simulator (Figures 1-2) only needs these scalars plus a
parallelism mode; the work-stealing runtime simulator additionally carries
an explicit DAG (see :mod:`repro.dag`).

``JobSpec`` is the immutable description of a job before simulation;
``JobState`` is the mutable per-run bookkeeping a simulator keeps for it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

__all__ = [
    "ParallelismMode",
    "JobSpec",
    "JobState",
    "check_job_fields",
    "default_span",
]


class ParallelismMode(enum.Enum):
    """How a job can use processors in the flow-level simulator.

    The paper's simulations (Sec. V-A) consider the two extremes:

    * ``SEQUENTIAL`` — the job uses at most one processor at a time
      (Figure 1, "sequential jobs with multiprocessors" setting);
    * ``FULLY_PARALLEL`` — near-linear speedup up to all ``m`` processors
      (Figure 2, "fully parallel jobs" setting).

    ``DAG`` marks jobs whose parallelism comes from an explicit DAG and is
    only meaningful to the work-stealing runtime simulator.
    """

    SEQUENTIAL = "sequential"
    FULLY_PARALLEL = "fully_parallel"
    DAG = "dag"

    def rate_cap(self, m: int) -> float:
        """Maximum processing rate this mode permits on an ``m``-core machine."""
        if self is ParallelismMode.SEQUENTIAL:
            return 1.0
        return float(m)


def check_job_fields(
    release: float,
    work: float,
    span: float,
    mode: ParallelismMode,
    weight: float,
) -> None:
    """Raise ``ValueError`` unless :class:`JobSpec` accepts these fields.

    The one statement of the rule, tolerances included: the spec checks
    itself with it, and the serving layer checks a submission with it
    before the submission moves a clock, reaches the journal or is
    counted as offered.
    """
    if not (weight > 0 and math.isfinite(weight)):
        raise ValueError(f"weight must be finite and > 0, got {weight}")
    if not (release >= 0 and math.isfinite(release)):
        raise ValueError(f"release must be finite and >= 0, got {release}")
    if not (work > 0 and math.isfinite(work)):
        raise ValueError(f"work must be finite and > 0, got {work}")
    if not (0 < span <= work * (1 + 1e-12)):
        raise ValueError(
            f"span must satisfy 0 < span <= work, got span={span}, work={work}"
        )
    if mode is ParallelismMode.SEQUENTIAL and not math.isclose(
        span, work, rel_tol=1e-9
    ):
        raise ValueError("sequential jobs must have span == work")


def default_span(work: float, mode: ParallelismMode, m: int) -> float:
    """The span a job submitted without one gets on ``m`` processors.

    The one statement of the rule: a sequential job's span is its work,
    any other job's is ``work / m`` (its work spread evenly over the
    whole machine).  The online scheduler fills a missing span in with
    it, and the serving layer judges a submission's span with it, so a
    ``work`` small enough that ``work / m`` underflows to 0 is refused
    before it has any effect.
    """
    return work if mode is ParallelismMode.SEQUENTIAL else work / m


@dataclass(frozen=True)
class JobSpec:
    """Immutable description of one job.

    Attributes
    ----------
    job_id:
        Dense index, unique within a trace, assigned in release order.
    release:
        Arrival time :math:`r_i` (non-negative).
    work:
        Total work :math:`W_i > 0`.
    span:
        Critical-path length :math:`C_i`; must satisfy
        ``0 < span <= work``.  For sequential jobs ``span == work``.
    mode:
        Parallelism mode (see :class:`ParallelismMode`).
    dag:
        Optional explicit DAG (``repro.dag.DagJob``); required by the
        work-stealing simulator, ignored by the flow-level simulator.
    weight:
        Importance weight for *weighted* flow time (extension beyond the
        paper, whose objective is unweighted — i.e. all weights 1).
    """

    job_id: int
    release: float
    work: float
    span: float
    mode: ParallelismMode = ParallelismMode.SEQUENTIAL
    dag: object | None = field(default=None, compare=False, repr=False)
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.job_id < 0:
            raise ValueError(f"job_id must be >= 0, got {self.job_id}")
        check_job_fields(self.release, self.work, self.span, self.mode, self.weight)

    def lower_bound(self, m: int) -> float:
        """Observation 1: any unit-speed schedule needs ``max(W/m', C)`` time.

        ``m'`` is the number of processors the job could ever use at once —
        1 for sequential jobs, ``m`` otherwise.
        """
        usable = 1 if self.mode is ParallelismMode.SEQUENTIAL else m
        return max(self.work / usable, self.span)


@dataclass
class JobState:
    """Mutable per-run bookkeeping for one job inside a simulator.

    The flow-level engine updates ``remaining`` continuously; the runtime
    simulator decrements it one unit per executed node-step.  ``processors``
    is the DREP assignment count :math:`p_i(t)`.
    """

    spec: JobSpec
    remaining: float = field(default=0.0)
    processors: int = 0
    finish: float | None = None
    preemptions: int = 0

    def __post_init__(self) -> None:
        if self.remaining == 0.0:
            self.remaining = self.spec.work

    @property
    def done(self) -> bool:
        return self.finish is not None

    @property
    def flow_time(self) -> float:
        """Flow time :math:`f_i - r_i`; raises if the job has not finished."""
        if self.finish is None:
            raise ValueError(f"job {self.spec.job_id} has not completed")
        return self.finish - self.spec.release

    def complete(self, now: float) -> None:
        """Mark completion at time ``now`` (must not precede the release)."""
        if self.finish is not None:
            raise ValueError(f"job {self.spec.job_id} already completed")
        if now < self.spec.release:
            raise ValueError("completion before release")
        self.finish = now
        self.remaining = 0.0
