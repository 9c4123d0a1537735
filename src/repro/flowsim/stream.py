"""Streaming driver for the flow-level engine: bounded-RAM simulation.

:func:`simulate_stream` runs a policy over a lazy job stream — an
iterator of :class:`~repro.core.JobSpec` obeying the trace contract
(dense ids, non-decreasing releases), e.g. anything produced by
:mod:`repro.workloads.stream` — without ever materializing the trace or
the per-job result arrays.  Memory is O(active + ingest chunk) no matter
how many jobs flow through.

The trajectory is **bit-for-bit identical** to the materialized
:func:`repro.flowsim.simulate` run of the same jobs.  Two properties of
:class:`~repro.flowsim.engine.FlowStepper` make that true, and both are
already pinned by goldens:

* registering a job *before* the clock reaches its release is invisible
  to the schedule (admission happens at the release either way), so
  pulling the stream an ingest-chunk ahead changes nothing;
* :meth:`~repro.flowsim.engine.FlowStepper.advance_to` horizons that
  coincide with event times reproduce the batch trajectory exactly,
  including RNG draws (the online ≡ offline contract the serving layer
  is built on).

Completed jobs are folded into a
:class:`~repro.core.metrics.StreamingMetrics` accumulator via
:meth:`~repro.flowsim.engine.FlowStepper.harvest` and their rows freed;
``keep_flow_times=True`` opts back into dense retention so
:meth:`~repro.core.metrics.StreamResult.to_schedule_result` can rebuild
the exact :class:`~repro.core.metrics.ScheduleResult` (the equivalence
tests do this on every golden).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.job import JobSpec
from repro.core.metrics import StreamingMetrics, StreamResult
from repro.core.rng import derive_seed
from repro.flowsim.engine import FlowSimConfig, FlowStepper
from repro.flowsim.policies.base import Policy

__all__ = ["simulate_stream", "DEFAULT_INGEST_CHUNK", "DEFAULT_HARVEST_EVERY"]

#: jobs registered ahead of the clock per stream pull: large enough to
#: amortize per-call engine overhead, small enough to stay O(1) memory
DEFAULT_INGEST_CHUNK = 1024
#: completed rows accumulated before a fold-and-free compaction pass
DEFAULT_HARVEST_EVERY = 8192


def simulate_stream(
    jobs: Iterable[JobSpec],
    m: int,
    policy: Policy,
    seed: int = 0,
    config: FlowSimConfig = FlowSimConfig(),
    *,
    keep_flow_times: bool = False,
    metrics: StreamingMetrics | None = None,
    slo_threshold: float | None = None,
    ingest_chunk: int = DEFAULT_INGEST_CHUNK,
    harvest_every: int = DEFAULT_HARVEST_EVERY,
    faults=None,
) -> StreamResult:
    """Run ``policy`` over a lazy job stream in bounded memory.

    Parameters mirror :func:`repro.flowsim.simulate` where they overlap;
    the extras control the streaming machinery:

    ``keep_flow_times``
        Opt out of bounded metrics memory and retain every per-job flow
        (see :class:`~repro.core.metrics.StreamingMetrics`).
    ``metrics``
        Bring your own accumulator (e.g. shared across shards); by
        default one is created with a seed derived from ``seed`` so the
        reservoir quantile sample is reproducible.
    ``slo_threshold``
        Count jobs with ``flow <= slo_threshold`` as SLO-attained; the
        attained fraction lands in the summary as ``slo_attainment``
        (mutually exclusive with a caller-supplied ``metrics``, which
        already fixed its own threshold).
    ``ingest_chunk``
        How many jobs to register ahead of the clock per stream pull.
        Purely a throughput knob — results are identical for any value.
    ``harvest_every``
        Completed rows to accumulate before a compaction pass.  Purely a
        memory/throughput knob — results are identical for any value.

    Weighted *metrics* work (job weights travel through the harvest);
    weighted *policies* do not (their weight tables span all jobs) —
    the engine refuses them at the first harvest.
    """
    if ingest_chunk < 1:
        raise ValueError("ingest_chunk must be >= 1")
    if harvest_every < 1:
        raise ValueError("harvest_every must be >= 1")
    if metrics is None:
        metrics = StreamingMetrics(
            keep_flow_times=keep_flow_times,
            seed=derive_seed(seed, "stream/metrics"),
            slo_threshold=slo_threshold,
        )
    elif slo_threshold is not None:
        raise ValueError(
            "pass slo_threshold on the StreamingMetrics you supply, "
            "not alongside it"
        )
    stepper = FlowStepper(m, policy, seed=seed, config=config, faults=faults)
    stepper.perf.start()
    it = iter(jobs)
    batch: list[JobSpec] = []
    exhausted = False
    while not exhausted:
        batch.clear()
        try:
            while len(batch) < ingest_chunk:
                batch.append(next(it))
        except StopIteration:
            exhausted = True
        if batch:
            stepper.add_jobs(batch)
            # park the clock at the last registered release: every event
            # up to it is processed exactly as the batch loop would
            stepper.advance_to(batch[-1].release)
        if stepper.n_harvestable >= harvest_every:
            _fold(stepper, metrics)
    batch.clear()
    stepper.drain()
    _fold(stepper, metrics)
    stepper.perf.stop()
    stepper.perf.events = stepper.events
    stepper.perf.capture_memory()

    utilization = (
        stepper._busy_time / (stepper.now * m) if stepper.now > 0 else 0.0
    )
    return StreamResult(
        scheduler=policy.name,
        m=m,
        metrics=metrics,
        preemptions=policy.preemptions,
        migrations=policy.migrations,
        makespan=stepper.now,
        extra={
            "utilization": utilization,
            "events": stepper.events,
            "switches": policy.switches,
            "streaming": True,
            "perf": stepper.perf.as_dict(),
            # the dense result's fault block, key for key
            **stepper._fault_extra(),
        },
    )


def _fold(stepper: FlowStepper, metrics: StreamingMetrics) -> None:
    ids, flows, weights, min_flows = stepper.harvest()
    if flows.size:
        metrics.add_batch(flows, weights, min_flows)
