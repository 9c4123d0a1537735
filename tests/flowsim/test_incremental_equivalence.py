"""Property tests: incremental order/calendar structures ≡ dense lexsort path.

Order-driven policies (SRPT, SJF/SWF, FIFO, LAPS) promote to the
engine-maintained :class:`~repro.flowsim.order.OrderIndex` and
:class:`~repro.flowsim.order.CompletionCalendar` once their active set
reaches ``incremental_min_active``, instead of re-sorting the whole
active set and scanning every remaining-work entry per event.  A
threshold of 0 promotes at construction; one above the instance size
keeps the run on the classic dense ``np.lexsort`` + full next-event
scan.  These tests generate random instances with Hypothesis and require
the two executions to agree *exactly* — per-job flow times at full float
precision, event/switch counters, utilization — across policies, check
cadences, fault plans, streaming chunkings, and folded versus one-event
calls.

The sibling file ``test_soa_equivalence`` pins the engine's other paths
to each other (folded ≡ one event per call, patched ≡ rebuilt rate
vector, Python lists ≡ numpy buffers); this one pins the O(log n)
structures to all of them.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import JobSpec, ParallelismMode
from repro.faults import FaultEvent, FaultPlan, named_fault_plans
from repro.flowsim.engine import FlowSimConfig, FlowStepper, simulate
from repro.flowsim.policies import policy_by_name
from repro.flowsim.stream import simulate_stream
from repro.workloads.traces import Trace, generate_trace
from tests.flowsim.paths import ARRAY, SCALAR, full_record, scalar_max

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
_spec = importlib.util.spec_from_file_location(
    "gen_goldens", DATA_DIR / "gen_goldens.py"
)
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)

#: every policy publishing an order_spec (the incremental-eligible set)
ORDER_POLICIES = ["srpt", "sjf", "swf", "fifo", "laps"]

#: a promotion threshold above every instance here: the run stays dense
NEVER = 10**6
DENSE = FlowSimConfig(incremental_min_active=NEVER)
#: promote at construction — the instances here are far below the
#: default ``incremental_min_active`` crossover threshold, which would
#: otherwise (correctly) keep them on the dense path and make the
#: equivalence vacuous.  Mid-run promotion has its own test below.
INC = FlowSimConfig(incremental_min_active=0)


@st.composite
def random_instance(draw):
    n = draw(st.integers(1, 14))
    m = draw(st.integers(1, 6))
    mode = draw(
        st.sampled_from([ParallelismMode.SEQUENTIAL, ParallelismMode.FULLY_PARALLEL])
    )
    releases = sorted(
        draw(
            st.lists(
                st.floats(0.0, 40.0, allow_nan=False), min_size=n, max_size=n
            )
        )
    )
    works = draw(
        st.lists(st.floats(0.1, 15.0, allow_nan=False), min_size=n, max_size=n)
    )
    jobs = []
    for i in range(n):
        w = float(works[i])
        span = w if mode is ParallelismMode.SEQUENTIAL else w / m
        jobs.append(
            JobSpec(job_id=i, release=float(releases[i]), work=w, span=span, mode=mode)
        )
    return Trace(jobs=jobs, m=m), m, mode


@settings(max_examples=80, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, len(ORDER_POLICIES) - 1),
    seed=st.integers(0, 20),
)
def test_incremental_equals_dense(inst, policy_idx, seed):
    trace, m, mode = inst
    policy = ORDER_POLICIES[policy_idx]
    inc = gen_goldens.run_flow_case(trace, m, policy, seed=seed, config=INC)
    dense = gen_goldens.run_flow_case(trace, m, policy, seed=seed, config=DENSE)
    assert inc == dense


@settings(max_examples=30, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, len(ORDER_POLICIES) - 1),
    k=st.sampled_from([1, 7, 1000]),
)
def test_incremental_equals_dense_under_check_k(inst, policy_idx, k):
    """The order walk must honor the amortized-check cadence —
    ``checks_run``/``checks_skipped`` advance only on alloc rebuilds,
    exactly as on a dense rebuild."""
    trace, m, mode = inst
    policy = ORDER_POLICIES[policy_idx]
    inc = gen_goldens.run_flow_case(
        trace, m, policy, seed=5,
        config=FlowSimConfig(check_every_k=k, incremental_min_active=0),
    )
    dense = gen_goldens.run_flow_case(
        trace,
        m,
        policy,
        seed=5,
        config=FlowSimConfig(check_every_k=k, incremental_min_active=NEVER),
    )
    assert inc == dense


@settings(max_examples=30, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, len(ORDER_POLICIES) - 1),
    seed=st.integers(0, 10),
)
def test_incremental_equals_dense_unit_steps(inst, policy_idx, seed):
    """One event per ``step()`` call, the promoted run must still match
    the dense run exactly."""
    trace, m, mode = inst
    policy = ORDER_POLICIES[policy_idx]
    inc = gen_goldens.run_flow_case(
        trace, m, policy, seed=seed, config=INC, steps=True
    )
    dense = gen_goldens.run_flow_case(
        trace, m, policy, seed=seed, config=DENSE, steps=True
    )
    assert inc == dense


@settings(max_examples=25, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, len(ORDER_POLICIES) - 1),
    chunk=st.sampled_from([1, 3, 97]),
    harvest=st.sampled_from([1, 300]),
)
def test_incremental_streaming_chunk_invariance(inst, policy_idx, chunk, harvest):
    """Streamed ingestion at any chunking matches the dense streamed run."""
    trace, m, mode = inst
    policy = ORDER_POLICIES[policy_idx]

    def run(config):
        r = simulate_stream(
            list(trace.jobs), m, policy_by_name(policy), seed=3,
            config=config, keep_flow_times=True,
            ingest_chunk=chunk, harvest_every=harvest,
        )
        return (
            r.metrics.flow_times.tolist(),
            r.extra["events"],
            r.makespan,
            r.extra["utilization"],
        )

    assert run(INC) == run(DENSE)


@pytest.mark.parametrize("policy", ORDER_POLICIES)
@pytest.mark.parametrize("plan_name", ["rolling", "half-down", "random"])
def test_incremental_under_fault_plans(policy, plan_name):
    """Fault timelines force one event per call; structures must track
    mass evictions, rate degradations and requeues bit for bit."""
    trace = generate_trace(120, "finance", 0.7, 4, seed=17)
    horizon = max(j.release for j in trace.jobs) + 50.0
    inc = simulate(
        trace, 4, policy_by_name(policy), seed=17, config=INC,
        faults=named_fault_plans(4, horizon, seed=3)[plan_name],
    )
    dense = simulate(
        trace, 4, policy_by_name(policy), seed=17, config=DENSE,
        faults=named_fault_plans(4, horizon, seed=3)[plan_name],
    )
    assert inc.flow_times.tolist() == dense.flow_times.tolist()
    assert inc.extra["events"] == dense.extra["events"]
    assert inc.extra["faults"] == dense.extra["faults"]


def test_incremental_kernel_actually_engages():
    """An order policy on a plain run must drive the structures: order
    mutations recorded, calendar pops well below the dense scan cost,
    and the dense config must leave all three counters at zero."""
    trace = generate_trace(300, "finance", 0.7, 4, seed=23)
    inc = simulate(trace, 4, policy_by_name("srpt"), seed=23, config=INC)
    dense = simulate(trace, 4, policy_by_name("srpt"), seed=23, config=DENSE)
    perf_i = dict(inc.extra.get("perf", {}))
    perf_d = dict(dense.extra.get("perf", {}))
    assert perf_i.get("order_ops", 0) > 0
    assert perf_i.get("calendar_pops", 0) > 0
    assert perf_d.get("order_ops", 0) == 0
    assert perf_d.get("calendar_pops", 0) == 0
    assert perf_d.get("calendar_invalidations", 0) == 0
    assert inc.flow_times.tolist() == dense.flow_times.tolist()


#: the promoted kernel's counters on an overloaded stream (load 0.9 for
#: 16 processors replayed on 10) whose active set climbs far past a
#: lowered promotion threshold.  Every order mutation, calendar pop and
#: invalidation is part of the kernel's contract: a change to how it
#: batches that work must leave each of them in place.
PROMOTED_PINS = {
    "srpt": {
        "events": 8000,
        "batch_jumps": 3,
        "batch_events_folded": 3269,
        "order_ops": 68836,
        "calendar_pops": 6903,
        "calendar_invalidations": 32655,
        "mean_flow": 314.5478362160614,
    },
    "fifo": {
        "events": 8000,
        "batch_jumps": 6,
        "batch_events_folded": 8000,
        "order_ops": 6730,
        "calendar_pops": 12877,
        "calendar_invalidations": 64685,
        "mean_flow": 1040.9405278361405,
    },
}


@pytest.mark.parametrize("policy", sorted(PROMOTED_PINS))
def test_promoted_kernel_counters_pinned(policy):
    from repro.workloads.stream import generate_stream

    res = simulate_stream(
        generate_stream(4000, "exponential", 0.9, 16, seed=0),
        10,
        policy_by_name(policy),
        config=FlowSimConfig(incremental_min_active=256),
    )
    perf = res.extra["perf"]
    got = {key: perf.get(key, 0) for key in PROMOTED_PINS[policy]}
    got["events"] = res.extra["events"]
    got["mean_flow"] = res.mean_flow
    assert got == PROMOTED_PINS[policy]


@settings(max_examples=40, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, len(ORDER_POLICIES) - 1),
    min_active=st.sampled_from([1, 2, 4, 7]),
    seed=st.integers(0, 10),
)
def test_mid_run_promotion_equals_dense(inst, policy_idx, min_active, seed):
    """``incremental_min_active`` between 1 and the instance size makes
    the run start dense and promote mid-flight — the switch must be
    unobservable (flows, events, utilization all bit-for-bit the dense
    run's) at every crossing point."""
    trace, m, mode = inst
    policy = ORDER_POLICIES[policy_idx]
    hybrid = gen_goldens.run_flow_case(
        trace, m, policy, seed=seed,
        config=FlowSimConfig(incremental_min_active=min_active),
    )
    dense = gen_goldens.run_flow_case(trace, m, policy, seed=seed, config=DENSE)
    assert hybrid == dense


@settings(max_examples=30, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, len(ORDER_POLICIES) - 1),
    min_active=st.sampled_from([1, 2, 4, 7, NEVER]),
    steps=st.booleans(),
    seed=st.integers(0, 10),
)
def test_promotion_from_the_scalar_backend(inst, policy_idx, min_active, steps, seed):
    """Starting on the scalar backend's lists instead of the numpy
    buffers changes nothing about promotion: the same flows, extras and
    perf counters, including ``order_ops`` and the calendar's."""
    trace, m, mode = inst
    policy = ORDER_POLICIES[policy_idx]
    config = FlowSimConfig(incremental_min_active=min_active)

    def record(force):
        with scalar_max(force):
            stepper = FlowStepper(m, policy_by_name(policy), seed=seed, config=config)
            stepper.add_jobs(list(trace.jobs))
            if steps:
                while not stepper.drained:
                    stepper.step()
            else:
                stepper.drain()
            return full_record(stepper.result())

    assert record(SCALAR) == record(ARRAY)


def test_promotion_threshold_defers_structures():
    """Below the threshold the dense path must actually run (no order
    ops paid); crossing it mid-run must light the structures up."""
    trace = generate_trace(300, "finance", 0.7, 4, seed=23)
    never = simulate(trace, 4, policy_by_name("srpt"), seed=23, config=DENSE)
    assert dict(never.extra.get("perf", {})).get("order_ops", 0) == 0

    # a staircase guarantees the active set crosses a small threshold
    jobs = [
        JobSpec(job_id=i, release=i * 1e-3, work=30.0, span=30.0)
        for i in range(60)
    ]
    staircase = Trace(jobs=jobs, m=4)
    promoted = simulate(
        staircase, 4, policy_by_name("srpt"), seed=1,
        config=FlowSimConfig(incremental_min_active=20),
    )
    dense = simulate(staircase, 4, policy_by_name("srpt"), seed=1, config=DENSE)
    assert dict(promoted.extra.get("perf", {})).get("order_ops", 0) > 0
    assert promoted.flow_times.tolist() == dense.flow_times.tolist()
    assert promoted.extra["events"] == dense.extra["events"]


def test_sparse_allocation_checks_refuse_bad_rates():
    """The amortized checks on a promoted allocation refuse a negative
    rate, a rate above its job's cap (clipped to the processors up) and
    a total above the machine, and pass the walk's own allocation."""
    import numpy as np

    from repro.flowsim.engine import FlowSimError

    stepper = FlowStepper(4, policy_by_name("srpt"), config=INC)
    for i in range(6):
        mode = ParallelismMode.FULLY_PARALLEL if i % 2 else ParallelismMode.SEQUENTIAL
        stepper.add_job(
            JobSpec(job_id=i, release=0.0, work=8.0,
                    span=8.0 if i % 2 == 0 else 2.0, mode=mode)
        )
    stepper.step(horizon=1e-3)  # admits all six, completes none
    assert stepper.active_ids() == list(range(6))
    alloc = stepper._inc_build_alloc(stepper._na, 4)
    stepper._inc_check_alloc(alloc, 4)

    def fake(pos, rates):
        return (np.asarray(pos, dtype=np.int64), pos, np.asarray(rates), None, sum(rates))

    stepper._inc_check_alloc(fake([0, 1], [1.0, 3.0]), 4)
    with pytest.raises(FlowSimError, match="negative rate"):
        stepper._inc_check_alloc(fake([0], [-1.0]), 4)
    with pytest.raises(FlowSimError, match="per-job cap"):
        stepper._inc_check_alloc(fake([0], [2.0]), 4)  # sequential: cap 1
    with pytest.raises(FlowSimError, match="per-job cap"):
        stepper._inc_check_alloc(fake([1], [3.0]), 2)  # 2 processors up
    with pytest.raises(FlowSimError, match="exceeds m=4"):
        stepper._inc_check_alloc(fake([1, 3], [4.0, 4.0]), 4)


# -- satellite (c): empty-active-set step under mass eviction ------------


@pytest.mark.parametrize("use_incremental", [True, False])
def test_mass_eviction_empties_active_set_then_parks(use_incremental):
    """A crash window that swallows every processor while aborts drain
    the whole active set must leave the engine parked at the next
    arrival — not raising, not spinning — on both paths.

    Regression guard for the dense ``na == 0`` sweep after fault
    evictions: the step must fall through to the idle-jump branch and
    the requeued/abort-resubmitted jobs must still complete.
    """
    jobs = [
        JobSpec(job_id=0, release=0.0, work=10.0, span=10.0),
        JobSpec(job_id=1, release=0.5, work=10.0, span=10.0),
        JobSpec(job_id=2, release=100.0, work=1.0, span=1.0),
    ]
    trace = Trace(jobs=jobs, m=2)
    # both running jobs aborted at t=1 (resubmitted far later), all
    # processors down over the same window: the active set is empty
    # while the clock is inside the crash
    plan = FaultPlan(
        (
            FaultEvent(kind="abort", t=1.0, job_id=0, resubmit_after=95.0),
            FaultEvent(kind="abort", t=1.0, job_id=1, resubmit_after=94.0),
            FaultEvent(kind="crash", t=1.0, duration=5.0, proc=0),
            FaultEvent(kind="crash", t=1.0, duration=5.0, proc=1),
        ),
        name="blackout+abort",
    )
    config = INC if use_incremental else DENSE
    stepper = FlowStepper(
        2, policy_by_name("srpt"), seed=0, config=config, faults=plan
    )
    stepper.add_jobs(jobs)
    stepper.advance_to(2.0)
    assert stepper.n_active == 0  # everything evicted mid-crash
    stepper.drain()
    res = stepper.result()
    assert stepper.n_completed == 3
    assert res.flow_times.tolist() == pytest.approx([107.0, 104.5, 1.0])


# -- satellite (d): heavy churn with a 10^4-deep active set --------------


def _staircase(n, work):
    """Adversarial staircase: arrivals creep by 1ms so the whole set is
    simultaneously active long before anything can finish."""
    for i in range(n):
        yield JobSpec(job_id=i, release=i * 1e-3, work=work, span=work)


@pytest.mark.slow
def test_heavy_churn_staircase_10k_active():
    n, m, work = 10_000, 8, 50.0
    results = {}
    for label, config in (
        ("inc", FlowSimConfig()),
        ("dense", FlowSimConfig(incremental_min_active=n + 1)),
    ):
        r = simulate_stream(
            _staircase(n, work), m, policy_by_name("fifo"), seed=0,
            config=config,
        )
        s = r.summary()
        results[label] = (
            s["n_jobs"], s["mean_flow"], s["p50_flow"], s["p99_flow"],
            s["max_flow"], s["total_flow"], s["events"], r.makespan,
            s["utilization"],
        )
        if label == "inc":
            perf = s["perf"]
            events = s["events"]
            # the dense scan would divide every active remaining-work
            # entry per event: events * n_active ≈ 2e8 quotients.  The
            # calendar must stay orders of magnitude below that.
            assert perf["calendar_pops"] < events * n * 0.01
            assert perf["order_ops"] >= 2 * n  # one insert+remove per job
    assert results["inc"] == results["dense"]
