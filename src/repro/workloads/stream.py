"""Lazy job streams: the bounded-RAM workload substrate.

A *job stream* is an iterator of :class:`repro.core.JobSpec` obeying the
same contract a :class:`~repro.workloads.traces.Trace` does — releases
non-decreasing, job ids dense ``0..n-1`` in release order — without ever
materializing the whole trace.  Both engines can ingest a stream lazily
(``repro.flowsim.simulate_stream``, ``repro.wsim.simulate_ws_stream``),
which is what makes a 10⁶–10⁷-job run O(active jobs) in memory instead of
O(total jobs).

Three producers live here:

* :func:`generate_stream` — the seeded synthetic generators of
  :func:`~repro.workloads.traces.generate_trace`, re-expressed as a lazy
  chunked stream.  ``generate_trace`` is now a thin materializing wrapper
  over a single-chunk stream, bit-for-bit with its historical output.
* :func:`stream_trace` — adapt an in-memory trace (or bare spec list).
* :mod:`repro.workloads.swf` — parse Standard Workload Format HPC traces
  into streams (note: SWF the *trace format*, not this repo's SWF
  *scheduling policy*; see ``docs/workloads.md``).

plus two re-streaming transforms for trace realism: :func:`calibrate_load`
(time-rescale releases to a target utilization) and :func:`peak_window`
(cut the busiest window out of a long trace).  Both take a *source
factory* — a zero-argument callable returning a fresh iterator — because
they need one bounded-memory scan pass before re-streaming.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator

import numpy as np

from repro.core.job import JobSpec, ParallelismMode
from repro.core.rng import RngFactory
from repro.workloads.arrivals import MmppProcess, PoissonProcess, qps_for_load
from repro.workloads.distributions import WorkDistribution, distribution_by_name

__all__ = [
    "JobStream",
    "StreamStats",
    "generate_stream",
    "stream_trace",
    "scan_stream",
    "attach_dags_stream",
    "calibrate_load",
    "peak_window",
    "resample_stream",
    "DEFAULT_CHUNK_JOBS",
]

#: Default generator chunk: large enough to amortize numpy draw overhead,
#: small enough that a pending chunk is noise next to the active set.
DEFAULT_CHUNK_JOBS = 65536


class JobStream(Iterator[JobSpec]):
    """A validated, lazily-consumed sequence of jobs.

    Wraps any iterable of :class:`JobSpec` and enforces the engines'
    ingestion contract *as jobs flow through*: releases non-decreasing
    and ids dense from 0.  A producer that filters its records (the SWF
    reader, say) stamps the dense ids itself.

    A stream is single-use (it is an iterator, not a container); use the
    producer again for a second pass.
    """

    def __init__(
        self,
        source: Iterable[JobSpec],
        *,
        name: str = "stream",
        meta: dict | None = None,
    ) -> None:
        self._it = iter(source)
        self.name = name
        self.meta = dict(meta or {})
        self._next_id = 0
        self._prev_release = -math.inf

    def __iter__(self) -> "JobStream":
        return self

    def __next__(self) -> JobSpec:
        spec = next(self._it)
        if spec.job_id != self._next_id:
            raise ValueError(
                f"stream ids must be dense 0..n-1 in release order: "
                f"expected {self._next_id}, got {spec.job_id}"
            )
        if spec.release < self._prev_release:
            raise ValueError(
                f"stream jobs must be sorted by release time: job "
                f"{spec.job_id} released at {spec.release} after {self._prev_release}"
            )
        self._prev_release = spec.release
        self._next_id += 1
        return spec

    @property
    def n_consumed(self) -> int:
        """Number of jobs yielded so far."""
        return self._next_id

    def materialize(self, **trace_kwargs) -> "Trace":
        """Drain the stream into an in-memory Trace (O(n) RAM, obviously)."""
        from repro.workloads.traces import Trace

        trace_kwargs.setdefault("name", self.name)
        trace_kwargs.setdefault("meta", dict(self.meta))
        return Trace(jobs=list(self), **trace_kwargs)


def stream_trace(trace_or_jobs) -> JobStream:
    """Adapt an in-memory :class:`Trace` (or list of specs) to a stream."""
    jobs = getattr(trace_or_jobs, "jobs", trace_or_jobs)
    name = getattr(trace_or_jobs, "name", "trace")
    meta = getattr(trace_or_jobs, "meta", None)
    return JobStream(jobs, name=name, meta=meta)


def generate_stream(
    n_jobs: int,
    distribution: str | WorkDistribution,
    load: float,
    m: int,
    mode: ParallelismMode = ParallelismMode.SEQUENTIAL,
    seed: int = 0,
    scale_work_with_m: bool = True,
    name: str | None = None,
    arrival_process: str = "poisson",
    burstiness: float = 4.0,
    chunk_jobs: int = DEFAULT_CHUNK_JOBS,
) -> JobStream:
    """Lazy, chunked version of the paper's trace recipe (Sec. V-A).

    Work and arrival draws come from the same named RNG streams as
    :func:`~repro.workloads.traces.generate_trace`, pulled
    ``chunk_jobs`` at a time, so peak memory is O(``chunk_jobs``) no
    matter how large ``n_jobs`` is.

    Determinism contract: arrival processes and every non-mixture work
    distribution draw *chunk-invariantly* — any ``chunk_jobs`` yields
    the same jobs, bit-for-bit equal to ``generate_trace``.  Mixture
    distributions (``"bing"``) draw their component indices per chunk,
    so their output is a deterministic function of ``(seed,
    chunk_jobs)`` but only matches ``generate_trace`` when
    ``chunk_jobs >= n_jobs`` (a single chunk — exactly the whole-trace
    draw order).  ``generate_trace`` itself always materializes through
    a single chunk, keeping its historical output unchanged.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if chunk_jobs < 1:
        raise ValueError("chunk_jobs must be >= 1")
    if arrival_process not in ("poisson", "mmpp"):
        raise ValueError(f"unknown arrival process {arrival_process!r}")
    if isinstance(distribution, str):
        dist_name = distribution
        dist = distribution_by_name(distribution)
    else:
        dist_name = type(distribution).__name__
        dist = distribution

    work_scale = float(m) if scale_work_with_m else 1.0
    mean_work = dist.mean * work_scale
    rate = qps_for_load(load, m, mean_work)
    sequential = mode is ParallelismMode.SEQUENTIAL

    def _jobs() -> Iterator[JobSpec]:
        rngs = RngFactory(seed)
        arr_rng = rngs.stream("arrivals")
        work_rng = rngs.stream("work")
        if arrival_process == "mmpp":
            proc = MmppProcess(arr_rng, rate, burstiness=burstiness)
        else:
            proc = PoissonProcess(arr_rng, rate)
        i = 0
        while i < n_jobs:
            c = min(chunk_jobs, n_jobs - i)
            releases = proc.draw(c)
            works = dist.sample(work_rng, c) * work_scale
            for k in range(c):
                w = float(works[k])
                yield JobSpec(
                    job_id=i + k,
                    release=float(releases[k]),
                    work=w,
                    span=w if sequential else w / m,
                    mode=mode,
                )
            i += c

    return JobStream(
        _jobs(),
        name=name or f"{dist_name}-{mode.value}-m{m}-load{load:g}",
        meta={
            "seed": seed,
            "scale_work_with_m": scale_work_with_m,
            "arrival_process": arrival_process,
            "chunk_jobs": chunk_jobs,
            "n_jobs": n_jobs,
            "load": load,
            "m": m,
            "distribution": dist_name,
        },
    )


@dataclass(frozen=True)
class StreamStats:
    """One-pass scan summary of a job stream (bounded memory)."""

    n_jobs: int
    total_work: float
    first_release: float
    last_release: float

    @property
    def horizon(self) -> float:
        return self.last_release

    @property
    def mean_work(self) -> float:
        return self.total_work / self.n_jobs if self.n_jobs else 0.0

    def offered_load(self, m: int) -> float:
        """Empirical utilization the stream offers an ``m``-core machine."""
        if not self.n_jobs or self.last_release <= 0:
            return 0.0
        return self.total_work / (self.last_release * m)


def scan_stream(jobs: Iterable[JobSpec]) -> StreamStats:
    """Single bounded-memory pass computing the calibration statistics."""
    n = 0
    total = 0.0
    comp = 0.0
    first = 0.0
    last = 0.0
    for spec in jobs:
        if n == 0:
            first = spec.release
        last = spec.release
        # Neumaier-compensated total work, so calibration factors do not
        # drift with trace length
        w = spec.work
        s = total + w
        if abs(total) >= abs(w):
            comp += (total - s) + w
        else:
            comp += (w - s) + total
        total = s
        n += 1
    return StreamStats(
        n_jobs=n, total_work=total + comp, first_release=first, last_release=last
    )


def attach_dags_stream(
    jobs: Iterable[JobSpec],
    parallelism: int,
    seed: int = 0,
    work_unit: float = 1.0,
    name: str = "stream+dags",
) -> JobStream:
    """Attach DAGs to a stream of jobs, one spec at a time.

    :func:`~repro.workloads.traces.attach_dags` is its materialized form,
    so attaching to a stream yields bit-for-bit the DAGs that
    ``attach_dags`` stamps on the materialized trace — the property the
    wsim streaming≡materialized equivalence rests on.  Memory is O(1):
    each spec's DAG is built as it flows past.
    """
    if work_unit <= 0:
        raise ValueError("work_unit must be > 0")

    def _jobs() -> Iterator[JobSpec]:
        from repro.workloads.traces import dag_for_work

        rng = RngFactory(seed).stream("dags")
        for j in jobs:
            units = max(1, int(round(j.work / work_unit)))
            par = 1 if j.mode is ParallelismMode.SEQUENTIAL else parallelism
            dag = dag_for_work(units, par, rng)
            yield JobSpec(
                job_id=j.job_id,
                release=j.release,
                work=float(dag.work) * work_unit,
                span=float(dag.span) * work_unit,
                mode=ParallelismMode.DAG,
                dag=dag,
                weight=j.weight,
            )

    return JobStream(
        _jobs(),
        name=name,
        meta={"parallelism": parallelism, "work_unit": work_unit},
    )


SourceFactory = Callable[[], Iterable[JobSpec]]


def _as_factory(source) -> SourceFactory:
    if callable(source):
        return source
    jobs = getattr(source, "jobs", None)
    if jobs is None:
        raise TypeError(
            "calibration transforms need a re-streamable source: pass a "
            "zero-argument factory (e.g. lambda: swf_stream(path)) or an "
            "in-memory Trace, not a one-shot iterator"
        )
    return lambda: stream_trace(source)


def calibrate_load(
    source: SourceFactory,
    target_load: float,
    m: int,
    *,
    name: str | None = None,
) -> JobStream:
    """Re-scale release times so the stream offers ``target_load`` on ``m``.

    Real traces rarely hit a round utilization; the paper's sweeps are
    parameterized by load, so trace replay needs re-calibration.  Work
    is left untouched (job sizes are the ground truth); only the arrival
    clock is stretched or compressed by ``offered / target``, which
    preserves arrival order and burstiness structure.  Costs one scan
    pass plus the re-stream, both in bounded memory.
    """
    if not 0 < target_load < 1:
        raise ValueError(f"target_load must be in (0, 1), got {target_load}")
    if m < 1:
        raise ValueError("m must be >= 1")
    factory = _as_factory(source)
    stats = scan_stream(factory())
    if not stats.n_jobs:
        raise ValueError("cannot calibrate an empty stream")
    offered = stats.offered_load(m)
    if not offered > 0:
        raise ValueError(
            "cannot calibrate a stream with zero horizon (all jobs release at 0)"
        )
    factor = offered / target_load

    def _jobs() -> Iterator[JobSpec]:
        for spec in factory():
            yield replace(spec, release=spec.release * factor)

    return JobStream(
        _jobs(),
        name=name or f"calibrated-load{target_load:g}",
        meta={
            "target_load": target_load,
            "m": m,
            "offered_load": offered,
            "time_scale": factor,
            "n_jobs": stats.n_jobs,
        },
    )


def peak_window(
    source: SourceFactory,
    window: float,
    *,
    name: str | None = None,
) -> JobStream:
    """Extract the busiest ``window``-long slice of a stream by total work.

    Pass 1 slides a window over the arrivals (memory O(jobs in the
    window)) to find the start time maximizing released work; pass 2
    re-streams, keeps jobs with ``t0 <= release < t0 + window``, shifts
    releases to start at 0 and re-stamps dense ids.  This is the
    standard way to turn a week-long HPC trace into a saturating
    benchmark segment.
    """
    if not window > 0:
        raise ValueError("window must be > 0")
    factory = _as_factory(source)

    from collections import deque

    buf: deque[tuple[float, float]] = deque()
    in_window = 0.0
    best_work = -1.0
    best_start = 0.0
    n_seen = 0
    for spec in factory():
        n_seen += 1
        t = spec.release
        buf.append((t, spec.work))
        in_window += spec.work
        while buf and buf[0][0] <= t - window:
            in_window -= buf.popleft()[1]
        # anchor the candidate window so it *ends* just after this job
        if in_window > best_work:
            best_work = in_window
            best_start = buf[0][0]
    if n_seen == 0:
        raise ValueError("cannot extract a peak window from an empty stream")
    t0, t1 = best_start, best_start + window

    def _jobs() -> Iterator[JobSpec]:
        next_id = 0
        for spec in factory():
            if spec.release < t0:
                continue
            if spec.release >= t1:
                break
            yield replace(
                spec, job_id=next_id, release=spec.release - t0
            )
            next_id += 1

    return JobStream(
        _jobs(),
        name=name or f"peak-{window:g}",
        meta={
            "window": window,
            "window_start": t0,
            "window_work": best_work,
            "source_jobs": n_seen,
        },
    )


def resample_stream(
    source,
    n_jobs: int,
    seed: int = 0,
    *,
    name: str | None = None,
    chunk_jobs: int = DEFAULT_CHUNK_JOBS,
) -> JobStream:
    """Bootstrap-resample a trace into an ``n_jobs``-long stream.

    One bounded scan of ``source`` (a factory or in-memory trace, as for
    :func:`calibrate_load`) collects the empirical inter-arrival gaps
    and per-job ``(work, span, mode, weight)`` tuples; the returned
    stream then draws ``n_jobs`` jobs *with replacement* — gaps i.i.d.
    from the gap sample and cumulated into releases, job bodies sampled
    jointly by source index so the work/span/mode correlations of the
    original trace survive.  This is how a short parsed SWF segment is
    stretched into an arbitrarily long synthetic trace with the same
    marginal size and burst structure.

    Replay-deterministic: draws come from the library's named RNG
    streams (``"resample/arrivals"`` / ``"resample/jobs"``), and
    both draws consume the bitstream element-wise, so the output is a
    function of ``(source, n_jobs, seed)`` alone — ``chunk_jobs`` is a
    pure throughput knob.  Memory is O(source jobs) for the empirical
    sample (three float arrays plus a mode table) and O(``chunk_jobs``)
    while streaming.
    """
    if n_jobs < 1:
        raise ValueError("n_jobs must be >= 1")
    if chunk_jobs < 1:
        raise ValueError("chunk_jobs must be >= 1")
    factory = _as_factory(source)
    releases: list[float] = []
    works: list[float] = []
    spans: list[float] = []
    weights: list[float] = []
    modes: list[ParallelismMode] = []
    src_name = "trace"
    for spec in factory():
        releases.append(spec.release)
        works.append(spec.work)
        spans.append(spec.span)
        weights.append(spec.weight)
        modes.append(spec.mode)
        if spec.dag is not None:
            raise ValueError(
                "resample_stream cannot bootstrap DAG-attached jobs; "
                "resample the bare trace and attach_dags_stream after"
            )
    src_name = getattr(source, "name", src_name)
    n_src = len(works)
    if n_src < 2:
        raise ValueError(
            f"need >= 2 source jobs for an inter-arrival sample, got {n_src}"
        )
    gaps = np.diff(np.asarray(releases, dtype=float))
    work_arr = np.asarray(works, dtype=float)
    span_arr = np.asarray(spans, dtype=float)
    weight_arr = np.asarray(weights, dtype=float)

    def _jobs() -> Iterator[JobSpec]:
        rngs = RngFactory(seed)
        gap_rng = rngs.stream("resample/arrivals")
        job_rng = rngs.stream("resample/jobs")
        t = 0.0
        i = 0
        while i < n_jobs:
            c = min(chunk_jobs, n_jobs - i)
            g = gaps[gap_rng.integers(0, gaps.size, size=c)]
            idx = job_rng.integers(0, n_src, size=c)
            for k in range(c):
                t += float(g[k])
                j = int(idx[k])
                yield JobSpec(
                    job_id=i + k,
                    release=t,
                    work=float(work_arr[j]),
                    span=float(span_arr[j]),
                    mode=modes[j],
                    weight=float(weight_arr[j]),
                )
            i += c

    return JobStream(
        _jobs(),
        name=name or f"resample-{src_name}-n{n_jobs}",
        meta={
            "seed": seed,
            "n_jobs": n_jobs,
            "source": src_name,
            "source_jobs": n_src,
            "chunk_jobs": chunk_jobs,
        },
    )
