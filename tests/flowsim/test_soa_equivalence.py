"""Property tests: every path of the flowsim event loop agrees, always.

The engine runs one event loop over flat structure-of-arrays buffers,
feeds them to the policy's ``rates_array`` directly, and picks its paths
by capability and by call:

* ``drain()`` / ``advance_to()`` run their events in one pass unless a
  fault plan is attached, and fold them (reuse the rates across events)
  where the run allows it (rates-stable policies, and no timer), while
  ``step()`` always handles one event;
* inside a folded pass, DREP-style policies patch the previous rate
  vector through ``rates_array_patch`` instead of rebuilding it;
* plain runs of a policy with the scalar hooks run on Python lists while
  the active set is small.

``tests/flowsim/paths.py`` forces each alternative — hiding a capability
from the policy class, or driving the run one event per call.  These
tests generate random instances with Hypothesis and require every pair
of paths to agree *exactly*: per-job flow times at full float precision,
event/switch counters, and the policy RNG end-state digest, across
policies, check cadences, fault plans and mid-run ``advance_to``
horizons.  The golden tests pin the paths to a frozen fixture; this file
pins them to *each other* on inputs nobody hand-picked.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import JobSpec, ParallelismMode
from repro.flowsim.engine import FlowSimConfig, FlowStepper, simulate
from repro.flowsim.policies import policy_by_name
from repro.flowsim.policies.base import Policy
from repro.workloads.traces import Trace, generate_trace
from tests.flowsim.paths import (
    ARRAY,
    SCALAR,
    full_record,
    scalar_max,
    step_through,
    step_to,
    unpatched,
)
from tests.wsim.test_runtime_properties import random_dag_trace

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
_spec = importlib.util.spec_from_file_location(
    "gen_goldens", DATA_DIR / "gen_goldens.py"
)
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)

#: the policies the backend comparison runs, by mode they support (the
#: timer policies and random-np are pinned by their goldens)
BACKEND_POLICIES_SEQ = ["srpt", "sjf", "fifo", "rr", "laps", "drep", "hdf", "wsrpt", "wdrep"]
BACKEND_POLICIES_PAR = ["srpt", "swf", "rr", "laps", "drep-par"]

#: every policy whose plain runs fold (``rates_stable``, no timer)
FOLD_POLICIES_SEQ = ["fifo", "sjf", "rr", "laps", "drep", "hdf", "wdrep"]
FOLD_POLICIES_PAR = ["rr", "laps", "drep-par"]

#: every policy with a ``rates_array_patch``
PATCH_POLICIES_SEQ = ["drep", "wdrep"]
PATCH_POLICIES_PAR = ["drep-par"]


def _pick(names_seq, names_par, mode, idx):
    names = names_seq if mode is ParallelismMode.SEQUENTIAL else names_par
    return names[idx % len(names)]


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


def _perf_of(result) -> dict:
    return dict(result.extra.get("perf", {}))


def test_vectorized_hook_actually_engages():
    """A run takes its rates off the flat buffers, materializing no view
    for them."""
    trace = generate_trace(150, "finance", 0.7, 4, seed=11)
    perf = _perf_of(simulate(trace, 4, policy_by_name("srpt"), seed=11))
    assert perf.get("view_reuses", 0) > 0


def test_policy_without_rates_array_cannot_be_built():
    class NoRule(Policy):
        name = "no-rule"

    with pytest.raises(TypeError):
        NoRule()


# -- folded passes vs one event per call -----------------------------------


@settings(max_examples=60, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, max(len(FOLD_POLICIES_SEQ), len(FOLD_POLICIES_PAR)) - 1),
    seed=st.integers(0, 20),
)
def test_batched_equals_unit_steps(inst, policy_idx, seed):
    trace, m, mode = inst
    policy = _pick(FOLD_POLICIES_SEQ, FOLD_POLICIES_PAR, mode, policy_idx)
    batched = gen_goldens.run_flow_case(trace, m, policy, seed=seed)
    unit = gen_goldens.run_flow_case(trace, m, policy, seed=seed, steps=True)
    assert batched == unit


@settings(max_examples=25, deadline=None)
@given(inst=random_instance(), k=st.sampled_from([1, 7, 1000]))
def test_batched_equals_unit_under_check_k(inst, k):
    """A folded pass must honor the same amortized-check cadence as
    one-event calls."""
    trace, m, mode = inst
    policy = "drep" if mode is ParallelismMode.SEQUENTIAL else "drep-par"
    config = FlowSimConfig(check_every_k=k)
    batched = gen_goldens.run_flow_case(trace, m, policy, seed=5, config=config)
    unit = gen_goldens.run_flow_case(
        trace, m, policy, seed=5, config=config, steps=True
    )
    assert batched == unit


@settings(max_examples=20, deadline=None)
@given(
    inst=random_instance(),
    horizons=st.lists(
        st.floats(0.5, 60.0, allow_nan=False), min_size=1, max_size=4
    ),
    seed=st.integers(0, 10),
)
def test_advance_to_parks_identically(inst, horizons, seed):
    """Mid-run horizon parking: clock, counters and partial flows agree
    between folded ``advance_to`` and one event per ``step()`` call."""
    trace, m, mode = inst
    policy = "drep" if mode is ParallelismMode.SEQUENTIAL else "drep-par"

    def run(folded):
        stepper = FlowStepper(m, policy_by_name(policy), seed=seed)
        stepper.add_jobs(list(trace.jobs))
        marks = []
        for h in sorted(horizons):
            if folded:
                stepper.advance_to(h)
            else:
                step_to(stepper, h)
            marks.append(
                (stepper.now, stepper.n_completed, stepper.n_active, stepper.events)
            )
        if folded:
            stepper.drain()
        else:
            step_through(stepper)
        return marks, stepper.result()

    marks_b, res_b = run(True)
    marks_u, res_u = run(False)
    assert marks_b == marks_u
    assert res_b.flow_times.tolist() == res_u.flow_times.tolist()
    assert res_b.extra["events"] == res_u.extra["events"]


@pytest.mark.parametrize("plan_name", ["rolling", "half-down", "random"])
def test_fault_plans_force_unit_fallback(plan_name):
    """Fault timelines rule folding out; results still match exactly."""
    from repro.faults import named_fault_plans

    trace = generate_trace(120, "finance", 0.7, 4, seed=17)
    horizon = max(j.release for j in trace.jobs) + 50.0

    def run(folded):
        stepper = FlowStepper(
            4, policy_by_name("drep"), seed=17,
            faults=named_fault_plans(4, horizon, seed=3)[plan_name],
        )
        stepper.add_jobs(list(trace.jobs))
        if folded:
            stepper.drain()
        else:
            step_through(stepper)
        return stepper.result()

    batched, unit = run(True), run(False)
    assert _perf_of(batched).get("batch_jumps", 0) == 0  # must not fold
    assert batched.flow_times.tolist() == unit.flow_times.tolist()
    assert batched.extra["events"] == unit.extra["events"]
    assert batched.extra["faults"] == unit.extra["faults"]


def test_batch_kernel_actually_engages():
    """A rates-stable policy on a plain run must fold (nearly) every
    event, patching its rate vector; one-event calls never fold."""
    trace = generate_trace(200, "finance", 0.7, 4, seed=23)
    batched = simulate(trace, 4, policy_by_name("drep"), seed=23)
    stepper = FlowStepper(4, policy_by_name("drep"), seed=23)
    stepper.add_jobs(list(trace.jobs))
    step_through(stepper)
    unit = stepper.result()
    perf_b, perf_u = _perf_of(batched), _perf_of(unit)
    assert perf_b.get("batch_jumps", 0) > 0
    assert perf_b.get("batch_events_folded", 0) == batched.extra["events"]
    assert perf_b.get("batch_rate_patches", 0) > 0  # sparse patches used
    assert perf_u.get("batch_jumps", 0) == 0
    assert perf_u.get("batch_rate_patches", 0) == 0
    assert batched.flow_times.tolist() == unit.flow_times.tolist()


@pytest.mark.parametrize(
    "policy,config,folds",
    [
        ("drep", FlowSimConfig(), True),
        ("rr", FlowSimConfig(), True),
        ("drep", FlowSimConfig(use_profiles=True), False),
        ("srpt", FlowSimConfig(), False),
        ("srpt", FlowSimConfig(incremental_min_active=0), True),
        ("setf", FlowSimConfig(), False),
        ("random-np", FlowSimConfig(), False),
    ],
)
def test_fold_rule(policy, config, folds):
    """Which runs fold is derived from the policy and the run: rates-stable
    dense runs without timers (parallelism profiles rule rates-stable
    out), and promoted runs; everything else runs unfolded and reports no
    fold counters (the benchmark pins both sides)."""
    trace = generate_trace(60, "finance", 0.7, 4, seed=5)
    perf = _perf_of(simulate(trace, 4, policy_by_name(policy), seed=5, config=config))
    assert (perf.get("batch_jumps", 0) > 0) is folds
    assert ("batch_events_folded" in perf) is folds


# -- unfolded passes vs one event per call ---------------------------------

#: runs whose ``advance_to``/``drain`` passes recompute the rates at every
#: event: name -> (policy factory, config)
UNFOLDED_RUNS = {
    "srpt-dense": (
        lambda: policy_by_name("srpt"),
        FlowSimConfig(incremental_min_active=10**9),
    ),
    "setf": (lambda: policy_by_name("setf"), FlowSimConfig()),
    "mlf": (lambda: policy_by_name("mlf"), FlowSimConfig()),
    "random-np": (lambda: policy_by_name("random-np"), FlowSimConfig()),
    "srpt-profiles": (
        lambda: policy_by_name("srpt"),
        FlowSimConfig(use_profiles=True),
    ),
}


@st.composite
def unfolded_case(draw):
    """A run of :data:`UNFOLDED_RUNS` with an instance it can take: the
    profile run gets jobs whose DAGs change their parallelism as they
    run."""
    run = draw(st.sampled_from(sorted(UNFOLDED_RUNS)))
    if run == "srpt-profiles":
        trace, m = draw(random_dag_trace())
    else:
        trace, m, _mode = draw(random_instance())
    return run, trace, m


@settings(max_examples=60, deadline=None)
@given(
    case=unfolded_case(),
    horizons=st.lists(st.floats(0.5, 60.0, allow_nan=False), max_size=4),
    seed=st.integers(0, 10),
)
def test_unfolded_passes_equal_unit_steps(case, horizons, seed):
    """Runs that do not fold still run each ``advance_to``/``drain`` as
    one pass; it must book exactly what one ``step()`` call per event
    books: clock and counts at every horizon, flows, extras, every perf
    counter and the policy's RNG state."""
    run, trace, m = case
    make, config = UNFOLDED_RUNS[run]

    def go(passes):
        policy = make()
        stepper = FlowStepper(m, policy, seed=seed, config=config)
        stepper.add_jobs(list(trace.jobs))
        marks = []
        for h in sorted(horizons):
            if passes:
                stepper.advance_to(h)
            else:
                step_to(stepper, h)
            marks.append(
                (stepper.now, stepper.n_completed, stepper.n_active, stepper.events)
            )
        if passes:
            stepper.drain()
        else:
            step_through(stepper)
        rng = getattr(policy, "_rng", None)
        digest = None if rng is None else gen_goldens._rng_digest(rng)
        return marks, full_record(stepper.result()), digest

    passes, unit = go(True), go(False)
    assert "batch_jumps" not in passes[1]["perf"]  # the run did not fold
    assert passes == unit


def test_unfolded_drain_is_one_pass(monkeypatch):
    """A dense SRPT ``drain()`` recomputes its rates at every event but
    runs all 400 of them in a single ``_run`` pass; returning after each
    event made about 400 entries."""
    entries = []
    run = FlowStepper._run

    def counting(self, *args, **kwargs):
        entries.append(args)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(FlowStepper, "_run", counting)
    trace = generate_trace(200, "finance", 0.7, 4, seed=23)
    stepper = FlowStepper(4, policy_by_name("srpt"), seed=23)
    stepper.add_jobs(list(trace.jobs))
    stepper.drain()
    result = stepper.result()
    assert result.extra["events"] == 400
    assert "batch_jumps" not in _perf_of(result)
    assert len(entries) == 1


# -- patched rate vector vs full rebuilds ------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, len(PATCH_POLICIES_SEQ) - 1),
    seed=st.integers(0, 20),
)
def test_patched_equals_rebuilt(inst, policy_idx, seed):
    """DREP/WDREP's ``rates_array_patch`` vector equals a full
    ``rates_array`` rebuild at every decision point of a folded pass."""
    trace, m, mode = inst
    policy = _pick(PATCH_POLICIES_SEQ, PATCH_POLICIES_PAR, mode, policy_idx)
    patched = gen_goldens.run_flow_case(trace, m, policy, seed=seed)
    rebuilt = gen_goldens.run_flow_case(trace, m, unpatched(policy), seed=seed)
    assert patched == rebuilt


def test_unpatched_policy_rebuilds():
    """Hiding the patch hook must leave folding on and patches at zero."""
    trace = generate_trace(200, "finance", 0.7, 4, seed=23)
    patched = simulate(trace, 4, policy_by_name("drep"), seed=23)
    rebuilt = simulate(trace, 4, unpatched("drep"), seed=23)
    perf = _perf_of(rebuilt)
    assert perf.get("batch_jumps", 0) > 0
    assert perf.get("batch_rate_patches", 0) == 0
    assert _perf_of(patched).get("batch_rate_patches", 0) > 0
    assert rebuilt.flow_times.tolist() == patched.flow_times.tolist()
    assert rebuilt.extra["events"] == patched.extra["events"]


# -- the scalar backend vs the numpy buffers ----------------------------------


@settings(max_examples=60, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, max(len(BACKEND_POLICIES_SEQ), len(BACKEND_POLICIES_PAR)) - 1),
    seed=st.integers(0, 20),
    steps=st.booleans(),
)
def test_scalar_backend_equals_numpy_buffers(inst, policy_idx, seed, steps):
    """Every listed policy, pinned to the Python lists (where the scalar
    backend serves it at all) or to the numpy buffers, reports the same
    flows, extras and perf counters — folded or one event per call."""
    trace, m, mode = inst
    policy = _pick(BACKEND_POLICIES_SEQ, BACKEND_POLICIES_PAR, mode, policy_idx)

    def record(force):
        with scalar_max(force):
            stepper = FlowStepper(m, policy_by_name(policy), seed=seed)
            stepper.add_jobs(list(trace.jobs))
            if steps:
                step_through(stepper)
            else:
                stepper.drain()
            return full_record(stepper.result())

    assert record(SCALAR) == record(ARRAY)
