"""Result containers and summary statistics for schedule evaluations.

The paper's headline metric is **average (total) flow time** — the mean of
:math:`f_i - r_i` over all jobs (Sec. I).  The practicality arguments rest
on secondary counters: preemptions, migrations, steal attempts and muggings
(Sec. IV-A, Theorem 1.2).  ``ScheduleResult`` carries all of them so every
bench can report the same rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ScheduleResult",
    "StreamingMetrics",
    "StreamResult",
    "summarize_flow",
    "compare_results",
]


def _validate_percentile(q: float) -> float:
    """Reject out-of-range percentile ranks with a clear error.

    ``np.percentile`` error messages name neither the caller nor the
    offending value; surfacing both here turns a silent analysis bug
    (e.g. ``percentile(0.99)`` meaning p99) into an immediate failure.
    """
    q = float(q)
    if not 0.0 <= q <= 100.0 or math.isnan(q):
        raise ValueError(f"percentile rank must be in [0, 100], got {q!r}")
    return q


@dataclass
class ScheduleResult:
    """Outcome of simulating one trace under one scheduler.

    Attributes
    ----------
    scheduler:
        Human-readable scheduler name (e.g. ``"DREP"``, ``"SRPT"``).
    m:
        Number of processors simulated.
    flow_times:
        Array of per-job flow times, indexed by ``job_id``.
    preemptions:
        Times a processor switched *away from an unfinished job*
        (the quantity Theorem 1.2 bounds).
    migrations:
        Times a job resumed on a different processor than it last ran on.
    steal_attempts / muggings:
        Work-stealing runtime counters (zero for flow-level runs).
    makespan:
        Completion time of the last job.
    extra:
        Free-form per-run diagnostics (e.g. utilization achieved).
    """

    scheduler: str
    m: int
    flow_times: np.ndarray
    preemptions: int = 0
    migrations: int = 0
    steal_attempts: int = 0
    muggings: int = 0
    makespan: float = 0.0
    #: per-job minimal possible flow times (Observation 1 bounds), set by
    #: the engines so slowdown statistics can be computed
    min_flows: np.ndarray | None = None
    #: per-job importance weights (all ones when the trace is unweighted)
    weights: np.ndarray | None = None
    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.flow_times = np.asarray(self.flow_times, dtype=float)
        if self.flow_times.ndim != 1:
            raise ValueError("flow_times must be a 1-D array")
        if self.flow_times.size and float(self.flow_times.min()) < -1e-9:
            raise ValueError("negative flow time")
        if self.m <= 0:
            raise ValueError("m must be positive")
        if self.min_flows is not None:
            self.min_flows = np.asarray(self.min_flows, dtype=float)
            if self.min_flows.shape != self.flow_times.shape:
                raise ValueError("min_flows must align with flow_times")
            if self.min_flows.size and float(self.min_flows.min()) <= 0:
                raise ValueError("min_flows must be positive")
        if self.weights is not None:
            self.weights = np.asarray(self.weights, dtype=float)
            if self.weights.shape != self.flow_times.shape:
                raise ValueError("weights must align with flow_times")
            if self.weights.size and float(self.weights.min()) <= 0:
                raise ValueError("weights must be positive")

    @property
    def n_jobs(self) -> int:
        return int(self.flow_times.size)

    @property
    def mean_flow(self) -> float:
        """Average flow time — the paper's objective (divided by n)."""
        return float(self.flow_times.mean()) if self.flow_times.size else 0.0

    @property
    def total_flow(self) -> float:
        return float(self.flow_times.sum())

    @property
    def max_flow(self) -> float:
        return float(self.flow_times.max()) if self.flow_times.size else 0.0

    def percentile(self, q: float) -> float:
        q = _validate_percentile(q)
        return float(np.percentile(self.flow_times, q)) if self.flow_times.size else 0.0

    def weighted_mean_flow(self) -> float:
        """Weight-normalized mean flow ``Σ w_i f_i / Σ w_i`` (extension;
        equals :attr:`mean_flow` for unweighted traces)."""
        if self.weights is None:
            return self.mean_flow
        total = float(self.weights.sum())
        if total == 0:
            return 0.0
        return float((self.weights * self.flow_times).sum() / total)

    @property
    def slowdowns(self) -> np.ndarray:
        """Per-job slowdown (stretch): flow time over the job's minimal
        possible flow time (Observation 1).

        Slowdown is the fairness lens of this literature: SRPT minimizes
        mean flow but can stretch large jobs arbitrarily, while
        equi-partition schedulers (RR, DREP) keep every job's slowdown
        near the system load factor.  Requires ``min_flows``.
        """
        if self.min_flows is None:
            raise ValueError(f"{self.scheduler}: result carries no min_flows")
        return self.flow_times / self.min_flows

    def mean_slowdown(self) -> float:
        s = self.slowdowns
        return float(s.mean()) if s.size else 0.0

    def max_slowdown(self) -> float:
        s = self.slowdowns
        return float(s.max()) if s.size else 0.0

    def slowdown_percentile(self, q: float) -> float:
        q = _validate_percentile(q)
        s = self.slowdowns
        return float(np.percentile(s, q)) if s.size else 0.0

    def lk_norm(self, k: float) -> float:
        """ℓ_k norm of flow times, ``(Σ f_i^k)^{1/k}``.

        k=1 recovers total flow (the paper's objective × n); large k
        approaches max flow — the fairness-sensitive objectives studied
        in the related work the paper cites ([32, 33]).
        """
        if k <= 0:
            raise ValueError("k must be > 0")
        if not self.flow_times.size:
            return 0.0
        return float((self.flow_times**k).sum() ** (1.0 / k))

    def summary(self) -> dict:
        """Flat dict of the headline numbers, ready for table rows."""
        return {
            "scheduler": self.scheduler,
            "m": self.m,
            "n_jobs": self.n_jobs,
            "mean_flow": self.mean_flow,
            "p50_flow": self.percentile(50),
            "p99_flow": self.percentile(99),
            "max_flow": self.max_flow,
            "preemptions": self.preemptions,
            "migrations": self.migrations,
            "steal_attempts": self.steal_attempts,
            "muggings": self.muggings,
            "makespan": self.makespan,
            **self.extra,
        }


class _CompensatedSum:
    """Neumaier (improved Kahan) compensated accumulator.

    Each folded batch is first reduced with :func:`math.fsum` (exactly
    rounded), then folded into the running ``(sum, compensation)`` pair,
    so the streaming total agrees with a dense ``np.sum`` over the whole
    array to within one ulp regardless of how arrivals were chunked.
    """

    __slots__ = ("_s", "_c")

    def __init__(self) -> None:
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> None:
        s = self._s
        t = s + x
        if abs(s) >= abs(x):
            self._c += (s - t) + x
        else:
            self._c += (x - t) + s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c


class StreamingMetrics:
    """Bounded-RAM flow-time statistics for streamed runs.

    Completed jobs are *folded in* and forgotten: exact count / total /
    mean / max flow (compensated summation), weighted flow, slowdown
    (stretch) moments, and fixed-seed reservoir sampling (Algorithm R)
    for quantiles — exact whenever ``count <= reservoir_size``, an
    unbiased seeded estimate beyond that.  Memory is
    ``O(reservoir_size)`` independent of job count, which is what lets a
    10⁶-job trace finish in flat RAM (see ``docs/workloads.md``).

    Pass ``keep_flow_times=True`` to *opt out* of bounded memory and
    retain every per-job value — the bridge back to a dense
    :class:`ScheduleResult` used by the streaming≡materialized golden
    tests.

    ``slo_threshold`` enables SLO-attainment accounting: every folded
    job with ``flow <= slo_threshold`` counts as attained, and
    :attr:`slo_attainment` reports the attained fraction.  It is an
    exact O(1)-memory fold (a counter, not a reservoir estimate), so it
    stays trustworthy far past the quantile-exactness horizon.
    """

    def __init__(
        self,
        *,
        keep_flow_times: bool = False,
        reservoir_size: int = 4096,
        seed: int = 0,
        slo_threshold: float | None = None,
    ) -> None:
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        if slo_threshold is not None and not slo_threshold > 0:
            raise ValueError(
                f"slo_threshold must be positive, got {slo_threshold}"
            )
        self.keep_flow_times = bool(keep_flow_times)
        self.reservoir_size = int(reservoir_size)
        self.seed = int(seed)
        self._rng = np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed), 0x5EED]))
        )
        self.slo_threshold = (
            None if slo_threshold is None else float(slo_threshold)
        )
        self.slo_attained = 0
        self.count = 0
        self.max_flow = 0.0
        self._flow_sum = _CompensatedSum()
        self._weight_sum = _CompensatedSum()
        self._wflow_sum = _CompensatedSum()
        self._slow_count = 0
        self._slow_sum = _CompensatedSum()
        self.max_slowdown = 0.0
        self._reservoir = np.empty(self.reservoir_size, dtype=float)
        # whether any producer ever supplied weights: an unweighted run
        # must round-trip to ``weights=None`` (what wsim results carry),
        # while flowsim always materializes the all-ones array
        self._weights_explicit = False
        self._kept_flows: list[np.ndarray] = []
        self._kept_min_flows: list[np.ndarray] = []
        self._kept_weights: list[np.ndarray] = []

    # -- folding ----------------------------------------------------------

    def add(
        self,
        flow: float,
        weight: float | None = None,
        min_flow: float | None = None,
    ) -> None:
        """Fold a single completed job (scalar convenience wrapper)."""
        mf = None if min_flow is None else np.array([min_flow], dtype=float)
        w = None if weight is None else np.array([weight], dtype=float)
        self.add_batch(np.array([flow], dtype=float), w, mf)

    def add_batch(
        self,
        flows: np.ndarray,
        weights: np.ndarray | None = None,
        min_flows: np.ndarray | None = None,
    ) -> None:
        """Fold a batch of completed jobs, in completion-id order.

        ``flows``/``weights``/``min_flows`` align elementwise; ``weights``
        defaults to all-ones and ``min_flows`` may be omitted when the
        producer has no lower bounds (slowdown moments then stay empty).
        """
        flows = np.asarray(flows, dtype=float)
        if flows.ndim != 1:
            raise ValueError("flows must be a 1-D array")
        n = flows.size
        if n == 0:
            return
        if flows.min() < -1e-9:
            raise ValueError("negative flow time")
        if weights is not None:
            weights = np.asarray(weights, dtype=float)
            if weights.shape != flows.shape:
                raise ValueError("weights must align with flows")
            self._weights_explicit = True
        if min_flows is not None:
            min_flows = np.asarray(min_flows, dtype=float)
            if min_flows.shape != flows.shape:
                raise ValueError("min_flows must align with flows")
            if min_flows.size and float(min_flows.min()) <= 0:
                raise ValueError("min_flows must be positive")

        self._flow_sum.add(math.fsum(flows))
        mx = float(flows.max())
        if mx > self.max_flow:
            self.max_flow = mx
        if weights is None:
            self._weight_sum.add(float(n))
            self._wflow_sum.add(math.fsum(flows))
        else:
            self._weight_sum.add(math.fsum(weights))
            self._wflow_sum.add(math.fsum(weights * flows))
        if min_flows is not None:
            s = flows / min_flows
            self._slow_count += n
            self._slow_sum.add(math.fsum(s))
            smx = float(s.max())
            if smx > self.max_slowdown:
                self.max_slowdown = smx

        if self.slo_threshold is not None:
            self.slo_attained += int(
                np.count_nonzero(flows <= self.slo_threshold)
            )

        self._reservoir_fold(flows)
        if self.keep_flow_times:
            self._kept_flows.append(flows.copy())
            self._kept_weights.append(
                np.ones(n) if weights is None else weights.copy()
            )
            if min_flows is not None:
                self._kept_min_flows.append(min_flows.copy())
        self.count += n

    def _reservoir_fold(self, flows: np.ndarray) -> None:
        """Algorithm R over the concatenated stream, chunk-vectorized.

        The acceptance draw for global element ``j`` is
        ``rng.integers(0, j + 1)`` exactly as in the scalar algorithm, so
        the retained sample depends only on ``(seed, stream order)`` and
        never on how completions were batched.
        """
        k = self.reservoir_size
        n0 = self.count
        c = flows.size
        fill = min(max(k - n0, 0), c)
        if fill:
            self._reservoir[n0 : n0 + fill] = flows[:fill]
        if fill < c:
            idx = np.arange(n0 + fill, n0 + c)
            slots = self._rng.integers(0, idx + 1)
            hits = np.flatnonzero(slots < k)
            # scalar writes: duplicate slots must resolve last-wins in
            # stream order, which fancy assignment does not guarantee
            for h in hits:
                self._reservoir[slots[h]] = flows[fill + h]

    # -- statistics -------------------------------------------------------

    @property
    def n_jobs(self) -> int:
        return self.count

    @property
    def total_flow(self) -> float:
        return self._flow_sum.value

    @property
    def mean_flow(self) -> float:
        return self._flow_sum.value / self.count if self.count else 0.0

    def weighted_mean_flow(self) -> float:
        total = self._weight_sum.value
        return self._wflow_sum.value / total if total else 0.0

    def mean_slowdown(self) -> float:
        if not self._slow_count:
            raise ValueError("no min_flows were folded; slowdowns unavailable")
        return self._slow_sum.value / self._slow_count

    @property
    def slo_attainment(self) -> float | None:
        """Fraction of folded jobs with ``flow <= slo_threshold``.

        ``None`` when no threshold was configured; 0.0 before any job
        completes (vacuous attainment would overstate an empty run).
        """
        if self.slo_threshold is None:
            return None
        return self.slo_attained / self.count if self.count else 0.0

    @property
    def quantiles_exact(self) -> bool:
        """True while every folded flow is still held in the reservoir."""
        return self.count <= self.reservoir_size

    def percentile(self, q: float) -> float:
        """Flow-time percentile: exact below ``reservoir_size`` jobs,
        a seeded reservoir estimate beyond."""
        q = _validate_percentile(q)
        if not self.count:
            return 0.0
        if self.keep_flow_times:
            return float(np.percentile(self.flow_times, q))
        held = min(self.count, self.reservoir_size)
        return float(np.percentile(self._reservoir[:held], q))

    @property
    def flow_times(self) -> np.ndarray:
        """Dense per-job flow times (requires ``keep_flow_times=True``)."""
        if not self.keep_flow_times:
            raise ValueError(
                "flow times were folded away; construct StreamingMetrics "
                "with keep_flow_times=True to retain them"
            )
        if not self._kept_flows:
            return np.empty(0, dtype=float)
        return np.concatenate(self._kept_flows)

    @property
    def min_flows(self) -> np.ndarray | None:
        if not self.keep_flow_times:
            raise ValueError(
                "min flows were folded away; construct StreamingMetrics "
                "with keep_flow_times=True to retain them"
            )
        if not self._kept_min_flows:
            return None
        return np.concatenate(self._kept_min_flows)

    @property
    def weights(self) -> np.ndarray | None:
        """Retained weights, or ``None`` when no producer supplied any."""
        if not self.keep_flow_times:
            raise ValueError(
                "weights were folded away; construct StreamingMetrics "
                "with keep_flow_times=True to retain them"
            )
        if not self._weights_explicit:
            return None
        if not self._kept_weights:
            return np.empty(0, dtype=float)
        return np.concatenate(self._kept_weights)

    def summary(self) -> dict:
        """Flat dict mirroring :meth:`ScheduleResult.summary` stat keys."""
        out = {
            "n_jobs": self.count,
            "mean_flow": self.mean_flow,
            "p50_flow": self.percentile(50),
            "p99_flow": self.percentile(99),
            "max_flow": self.max_flow,
            "total_flow": self.total_flow,
            "weighted_mean_flow": self.weighted_mean_flow(),
            "quantiles_exact": self.quantiles_exact,
        }
        if self._slow_count:
            out["mean_slowdown"] = self.mean_slowdown()
            out["max_slowdown"] = self.max_slowdown
        if self.slo_threshold is not None:
            out["slo_threshold"] = self.slo_threshold
            out["slo_attainment"] = self.slo_attainment
        return out


@dataclass
class StreamResult:
    """Outcome of a streamed simulation: counters + folded metrics.

    The streaming twin of :class:`ScheduleResult` — same headline
    counters, but per-job arrays live inside :attr:`metrics` (and only
    if it was built with ``keep_flow_times=True``).
    """

    scheduler: str
    m: int
    metrics: StreamingMetrics
    preemptions: int = 0
    migrations: int = 0
    steal_attempts: int = 0
    muggings: int = 0
    makespan: float = 0.0
    extra: dict = field(default_factory=dict)

    @property
    def n_jobs(self) -> int:
        return self.metrics.count

    @property
    def mean_flow(self) -> float:
        return self.metrics.mean_flow

    def summary(self) -> dict:
        return {
            "scheduler": self.scheduler,
            "m": self.m,
            **self.metrics.summary(),
            "preemptions": self.preemptions,
            "migrations": self.migrations,
            "steal_attempts": self.steal_attempts,
            "muggings": self.muggings,
            "makespan": self.makespan,
            **self.extra,
        }

    def to_schedule_result(self) -> ScheduleResult:
        """Rebuild the dense result (requires ``keep_flow_times=True``).

        Flows are retained in job-id order by both engines' harvest
        paths, so the reconstruction is bit-for-bit comparable to a
        materialized run's :class:`ScheduleResult`.
        """
        weights = self.metrics.weights
        if weights is not None and not weights.size:
            weights = None
        return ScheduleResult(
            scheduler=self.scheduler,
            m=self.m,
            flow_times=self.metrics.flow_times,
            preemptions=self.preemptions,
            migrations=self.migrations,
            steal_attempts=self.steal_attempts,
            muggings=self.muggings,
            makespan=self.makespan,
            min_flows=self.metrics.min_flows,
            weights=weights,
            extra=dict(self.extra),
        )


def summarize_flow(results: list[ScheduleResult]) -> dict[str, float]:
    """Map scheduler name -> mean flow over a list of repetition results.

    Repetitions of the same scheduler are averaged (mean of means, since all
    repetitions simulate the same number of jobs).
    """
    acc: dict[str, list[float]] = {}
    for r in results:
        acc.setdefault(r.scheduler, []).append(r.mean_flow)
    return {name: float(np.mean(vals)) for name, vals in acc.items()}


def compare_results(
    baseline: ScheduleResult, other: ScheduleResult
) -> dict[str, float]:
    """Ratios of ``other`` relative to ``baseline`` (e.g. DREP vs SRPT).

    ``flow_ratio`` is the number the paper quotes, e.g. "at most a factor of
    3.25 compared to SRPT" (Sec. V-A).
    """
    if baseline.n_jobs != other.n_jobs:
        raise ValueError("results cover different job counts")
    base = baseline.mean_flow
    return {
        "flow_ratio": other.mean_flow / base if base > 0 else float("inf"),
        "preemption_ratio": (
            other.preemptions / baseline.preemptions
            if baseline.preemptions
            else float("inf") if other.preemptions else 1.0
        ),
    }
