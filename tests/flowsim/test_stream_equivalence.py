"""Streaming flowsim must be bit-for-bit the materialized engine.

``simulate_stream`` over a lazy stream, any ingest/harvest chunking,
with or without fault plans, must reproduce ``simulate`` on the
materialized trace exactly — flow times, counters, events, fault log.
This is the contract every later scale claim (10⁶-job runs in flat RAM)
stands on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import JobSpec, ParallelismMode
from repro.core.metrics import StreamingMetrics
from repro.faults.plan import random_crash_plan
from repro.flowsim import policy_by_name, simulate, simulate_stream
from repro.workloads.stream import generate_stream, stream_trace
from repro.workloads.traces import Trace, generate_trace

POLICIES = ["srpt", "fifo", "rr", "setf", "laps", "drep"]


def _assert_equivalent(dense, streamed):
    rebuilt = streamed.to_schedule_result()
    assert np.array_equal(rebuilt.flow_times, dense.flow_times)
    assert rebuilt.makespan == dense.makespan
    assert rebuilt.preemptions == dense.preemptions
    assert rebuilt.migrations == dense.migrations
    assert streamed.extra["events"] == dense.extra["events"]
    if dense.min_flows is not None:
        assert np.array_equal(rebuilt.min_flows, dense.min_flows)
    if dense.weights is None:
        assert rebuilt.weights is None
    else:
        assert np.array_equal(rebuilt.weights, dense.weights)


@pytest.mark.parametrize("policy_key", POLICIES)
def test_generated_trace_equivalence(policy_key):
    trace = generate_trace(300, "exponential", 0.7, 8, seed=5)
    dense = simulate(trace, 8, policy_by_name(policy_key), seed=5)
    streamed = simulate_stream(
        stream_trace(trace),
        8,
        policy_by_name(policy_key),
        seed=5,
        keep_flow_times=True,
    )
    _assert_equivalent(dense, streamed)


@pytest.mark.parametrize("ingest,harvest", [(1, 1), (7, 13), (1024, 50)])
def test_chunking_knobs_do_not_change_results(ingest, harvest):
    trace = generate_trace(200, "bing", 0.6, 4, seed=9)
    dense = simulate(trace, 4, policy_by_name("srpt"), seed=9)
    streamed = simulate_stream(
        stream_trace(trace),
        4,
        policy_by_name("srpt"),
        seed=9,
        keep_flow_times=True,
        ingest_chunk=ingest,
        harvest_every=harvest,
    )
    _assert_equivalent(dense, streamed)


def test_fully_lazy_generator_equivalence():
    """generate_stream -> engine with no trace ever materialized."""
    trace = generate_trace(250, "exponential", 0.8, 8, seed=3)
    dense = simulate(trace, 8, policy_by_name("drep"), seed=3)
    streamed = simulate_stream(
        generate_stream(250, "exponential", 0.8, 8, seed=3),
        8,
        policy_by_name("drep"),
        seed=3,
        keep_flow_times=True,
    )
    _assert_equivalent(dense, streamed)


@pytest.mark.parametrize("fault_seed", [0, 2])
def test_fault_plan_equivalence(fault_seed):
    trace = generate_trace(150, "finance", 0.7, 8, seed=11)
    plan = random_crash_plan(
        8, trace.horizon, seed=fault_seed, crash_rate=0.002, mttr=30.0
    )
    dense = simulate(trace, 8, policy_by_name("srpt"), seed=11, faults=plan)
    streamed = simulate_stream(
        stream_trace(trace),
        8,
        policy_by_name("srpt"),
        seed=11,
        keep_flow_times=True,
        faults=plan,
        ingest_chunk=37,
        harvest_every=53,
    )
    _assert_equivalent(dense, streamed)
    assert streamed.extra["faults"] == dense.extra["faults"]


@st.composite
def random_instance(draw):
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 4))
    mode = draw(
        st.sampled_from(
            [ParallelismMode.SEQUENTIAL, ParallelismMode.FULLY_PARALLEL]
        )
    )
    releases = sorted(
        draw(
            st.lists(
                st.floats(0, 50, allow_nan=False), min_size=n, max_size=n
            )
        )
    )
    works = draw(
        st.lists(st.floats(0.1, 20, allow_nan=False), min_size=n, max_size=n)
    )
    jobs = []
    for i, (r, w) in enumerate(zip(releases, works)):
        span = w if mode is ParallelismMode.SEQUENTIAL else w / m
        jobs.append(
            JobSpec(job_id=i, release=r, work=w, span=span, mode=mode)
        )
    policy_key = draw(st.sampled_from(POLICIES))
    ingest = draw(st.integers(1, 8))
    harvest = draw(st.integers(1, 8))
    with_faults = draw(st.booleans())
    return Trace(jobs=jobs, m=m), m, policy_key, ingest, harvest, with_faults


@settings(max_examples=60, deadline=None)
@given(random_instance())
def test_property_streaming_equals_dense(case):
    trace, m, policy_key, ingest, harvest, with_faults = case
    plan = None
    if with_faults:
        plan = random_crash_plan(
            m, trace.horizon + 50.0, seed=1, crash_rate=0.01, mttr=10.0
        )
    dense = simulate(
        trace, m, policy_by_name(policy_key), seed=2, faults=plan
    )
    streamed = simulate_stream(
        stream_trace(trace),
        m,
        policy_by_name(policy_key),
        seed=2,
        keep_flow_times=True,
        ingest_chunk=ingest,
        harvest_every=harvest,
        faults=(
            random_crash_plan(
                m, trace.horizon + 50.0, seed=1, crash_rate=0.01, mttr=10.0
            )
            if with_faults
            else None
        ),
    )
    _assert_equivalent(dense, streamed)


def test_streaming_summary_matches_dense_summary():
    """Folded statistics agree with the dense arrays (not just kept ones)."""
    trace = generate_trace(400, "exponential", 0.7, 8, seed=13)
    dense = simulate(trace, 8, policy_by_name("srpt"), seed=13)
    streamed = simulate_stream(
        stream_trace(trace), 8, policy_by_name("srpt"), seed=13
    )
    sm = streamed.metrics
    assert sm.count == dense.n_jobs
    assert sm.mean_flow == pytest.approx(dense.mean_flow, rel=1e-12)
    assert sm.max_flow == float(dense.flow_times.max())
    assert sm.quantiles_exact  # 400 jobs < default reservoir
    assert sm.percentile(99) == pytest.approx(
        float(np.percentile(dense.flow_times, 99)), rel=1e-12
    )
    assert sm.mean_slowdown() == pytest.approx(
        float(dense.slowdowns.mean()), rel=1e-12
    )


def test_bring_your_own_metrics_accumulates_across_runs():
    sm = StreamingMetrics()
    for seed in (1, 2):
        simulate_stream(
            generate_stream(50, "exponential", 0.5, 4, seed=seed),
            4,
            policy_by_name("srpt"),
            seed=seed,
            metrics=sm,
        )
    assert sm.count == 100


def test_memory_stays_flat_with_job_count():
    """10x the jobs must not grow the Python heap peak (O(active-jobs)).

    The generator chunk and harvest cadence are pinned well below the
    job counts — at the defaults (65536/8192) a few-thousand-job run is
    bounded by n, not the knobs, and the ratio means nothing.  A
    discarded warm-up pass pays the first-use allocations first: a cold
    300-job run peaks above a warm 3000-job one, which hides a per-job
    leak whenever this test runs alone.
    """
    import tracemalloc

    def peak_of(n):
        stream = generate_stream(
            n, "exponential", 0.7, 8, seed=1, chunk_jobs=128
        )
        tracemalloc.start()
        try:
            simulate_stream(
                stream,
                8,
                policy_by_name("srpt"),
                seed=1,
                ingest_chunk=64,
                harvest_every=256,
            )
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak_of(300)
    small = peak_of(300)
    big = peak_of(3000)
    assert big <= 1.25 * small, f"streaming heap grew {big / small:.2f}x"


def test_perf_counters_capture_memory():
    streamed = simulate_stream(
        generate_stream(100, "exponential", 0.6, 4, seed=2),
        4,
        policy_by_name("srpt"),
        seed=2,
    )
    perf = streamed.extra["perf"]
    assert perf.get("peak_rss_mb", 0) > 0
