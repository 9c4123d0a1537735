"""Job traces: generation, DAG attachment and (de)serialization.

A :class:`Trace` is the unit of input to both simulators: an ordered list
of :class:`repro.core.JobSpec` plus the metadata needed to interpret it
(machine size it was calibrated for, target load, distribution name).

:func:`generate_trace` reproduces the paper's workload recipe (Sec. V-A):
sample work i.i.d. from a named distribution, draw Poisson inter-arrival
times at the QPS matching a target utilization, and (when sweeping m)
scale per-job work with the machine size.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.job import JobSpec, ParallelismMode
from repro.dag.generators import chain as chain_dag
from repro.dag.generators import fork_join, spawn_tree
from repro.dag.graph import DagJob
from repro.workloads.distributions import WorkDistribution

__all__ = ["Trace", "generate_trace", "attach_dags", "dag_for_work"]


@dataclass
class Trace:
    """An ordered job trace plus its generation metadata."""

    jobs: list[JobSpec]
    m: int = 1
    load: float = 0.0
    distribution: str = "unknown"
    name: str = "trace"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not isinstance(self.load, (int, float)):
            raise TypeError("load must be a number")
        # single pass, no temporaries: on million-job traces the old
        # `releases`/`ids` list copies cost two O(n) allocations per
        # construction, which the streaming wrapper pays on every chunk
        prev = -np.inf
        for i, j in enumerate(self.jobs):
            if j.job_id != i:
                raise ValueError("job_ids must be dense 0..n-1 in release order")
            if j.release < prev:
                raise ValueError("trace jobs must be sorted by release time")
            prev = j.release

    def __len__(self) -> int:
        return len(self.jobs)

    def __iter__(self):
        return iter(self.jobs)

    @property
    def total_work(self) -> float:
        return float(sum(j.work for j in self.jobs))

    @property
    def horizon(self) -> float:
        """Last release time (0 for an empty trace)."""
        return self.jobs[-1].release if self.jobs else 0.0

    def offered_load(self, m: int | None = None) -> float:
        """Empirical utilization the trace offers an ``m``-core machine."""
        m = m if m is not None else self.m
        if not self.jobs or self.horizon == 0:
            return 0.0
        return self.total_work / (self.horizon * m)

    def to_arrays(self) -> dict[str, np.ndarray]:
        """Columnar view (release, work, span) for vectorized consumers."""
        return {
            "release": np.array([j.release for j in self.jobs], dtype=float),
            "work": np.array([j.work for j in self.jobs], dtype=float),
            "span": np.array([j.span for j in self.jobs], dtype=float),
        }

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        """JSON encoding (DAGs are not serialized; regenerate via seeds)."""
        return json.dumps(
            {
                "m": self.m,
                "load": self.load,
                "distribution": self.distribution,
                "name": self.name,
                "meta": self.meta,
                "jobs": [
                    {
                        "job_id": j.job_id,
                        "release": j.release,
                        "work": j.work,
                        "span": j.span,
                        "mode": j.mode.value,
                        "weight": j.weight,
                    }
                    for j in self.jobs
                ],
            }
        )

    @classmethod
    def from_json(cls, text: str) -> "Trace":
        raw = json.loads(text)
        jobs = [
            JobSpec(
                job_id=j["job_id"],
                release=j["release"],
                work=j["work"],
                span=j["span"],
                mode=ParallelismMode(j["mode"]),
                weight=j.get("weight", 1.0),
            )
            for j in raw["jobs"]
        ]
        return cls(
            jobs=jobs,
            m=raw["m"],
            load=raw["load"],
            distribution=raw["distribution"],
            name=raw["name"],
            meta=raw.get("meta", {}),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(self.to_json())

    @classmethod
    def load_file(cls, path: str | Path) -> "Trace":
        # named load_file (not `load`) because a classmethod called `load`
        # would shadow the `load: float` dataclass field's default
        return cls.from_json(Path(path).read_text())


def generate_trace(
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
) -> Trace:
    """Generate a trace per the paper's recipe (Sec. V-A).

    Parameters
    ----------
    n_jobs:
        Number of jobs (the paper uses 100,000 per simulation point).
    distribution:
        Name (``"bing"``, ``"finance"``, ...) or a
        :class:`~repro.workloads.distributions.WorkDistribution`.
    load:
        Target utilization in (0, 1) — e.g. 0.5 / 0.6 / 0.7.
    m:
        Machine size the trace targets.
    mode:
        Parallelism mode stamped on every job.
    scale_work_with_m:
        The paper's convention for m-sweeps: multiply work by ``m`` so
        utilization stays fixed while QPS is held at its 1-core value.
        QPS is then recomputed from the *scaled* mean, which is equivalent.
    arrival_process:
        ``"poisson"`` (the paper's choice) or ``"mmpp"`` for bursty
        Markov-modulated arrivals with the given ``burstiness`` (mean
        rate calibrated to the same target load either way).
    """
    # thin materializing wrapper over the lazy stream substrate: a single
    # chunk reproduces the historical whole-trace draw order bit-for-bit
    # (chunk-invariant distributions match at any chunk size; mixtures
    # only in one chunk — see repro.workloads.stream.generate_stream)
    from repro.workloads.stream import generate_stream

    stream = generate_stream(
        n_jobs,
        distribution,
        load,
        m,
        mode=mode,
        seed=seed,
        scale_work_with_m=scale_work_with_m,
        arrival_process=arrival_process,
        burstiness=burstiness,
        chunk_jobs=n_jobs,
    )
    dist_name = stream.meta["distribution"]
    return Trace(
        jobs=list(stream),
        m=m,
        load=load,
        distribution=dist_name,
        name=name or f"{dist_name}-{mode.value}-m{m}-load{load:g}",
        meta={
            "seed": seed,
            "scale_work_with_m": scale_work_with_m,
            "arrival_process": arrival_process,
        },
    )


def dag_for_work(
    work_units: int, parallelism: int, rng: np.random.Generator
) -> DagJob:
    """Build a DAG of roughly ``work_units`` units with the given parallelism.

    * ``parallelism == 1`` gives a chain;
    * small parallelism gives a ``fork_join`` loop with that width;
    * high parallelism relative to the work gives a ``spawn_tree``.

    The realized work is the DAG's own, which may deviate by the fan
    overhead nodes; callers should read ``dag.work`` back.
    """
    if work_units < 1:
        raise ValueError("work_units must be >= 1")
    if parallelism < 1:
        raise ValueError("parallelism must be >= 1")
    if parallelism == 1 or work_units < 4 * parallelism:
        return chain_dag(work_units, granularity=max(1, work_units // 64))
    depth = int(np.ceil(np.log2(parallelism)))
    leaves = 2**depth
    if work_units >= 8 * leaves:
        # divide and conquer when there is enough work per leaf
        leaf_weight = max(1, (work_units - 2 * (leaves - 1)) // leaves)
        return spawn_tree(depth, leaf_weight)
    segments = max(1, int(rng.integers(1, 4)))
    width = parallelism
    strand = max(1, work_units // (segments * width))
    return fork_join(segments, width, strand)


def attach_dags(
    trace: Trace,
    parallelism: int,
    seed: int = 0,
    work_unit: float = 1.0,
) -> Trace:
    """Return a copy of ``trace`` whose jobs carry explicit DAGs.

    Work is quantized to integer units of ``work_unit``; each job's spec is
    re-stamped with the realized DAG work and span so the flow-time
    accounting of both simulators agrees on the same instance.  This is
    the materialized form of
    :func:`~repro.workloads.stream.attach_dags_stream` (same ``"dags"``
    RNG stream, same job order), as :func:`generate_trace` is of
    :func:`~repro.workloads.stream.generate_stream`.
    """
    from repro.workloads.stream import attach_dags_stream

    stream = attach_dags_stream(
        trace.jobs, parallelism, seed=seed, work_unit=work_unit
    )
    return Trace(
        jobs=list(stream),
        m=trace.m,
        load=trace.load,
        distribution=trace.distribution,
        name=trace.name + "+dags",
        meta={**trace.meta, **stream.meta},
    )
