"""Property tests: every path of the flowsim event loop agrees, always.

The engine runs one event loop over flat structure-of-arrays buffers and
picks its paths by capability and by call:

* policies implementing the vectorized ``rates_array`` hook are fed the
  buffers directly; the rest go through ``rates(ActiveView)`` (the
  object path);
* ``drain()`` / ``advance_to()`` fold whole runs of events into one call
  where the run allows it (rates-stable policies with the hook, and no
  timer, fault plan or segment recording), while ``step()`` always
  handles one event;
* inside a folded pass, DREP-style policies patch the previous rate
  vector through ``rates_array_patch`` instead of rebuilding it.

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
from repro.workloads.traces import Trace, generate_trace
from tests.flowsim.paths import (
    object_path,
    step_through,
    step_to,
    unpatched,
)

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
_spec = importlib.util.spec_from_file_location(
    "gen_goldens", DATA_DIR / "gen_goldens.py"
)
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)

#: every policy implementing the vectorized hook, by mode it supports
HOOK_POLICIES_SEQ = ["srpt", "sjf", "fifo", "rr", "laps", "drep", "hdf", "wsrpt", "wdrep"]
HOOK_POLICIES_PAR = ["srpt", "swf", "rr", "laps", "drep-par"]

#: every policy whose plain runs fold (``rates_stable`` plus the hook)
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


# -- vectorized hook vs object path ----------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    inst=random_instance(),
    policy_idx=st.integers(0, max(len(HOOK_POLICIES_SEQ), len(HOOK_POLICIES_PAR)) - 1),
    seed=st.integers(0, 20),
)
def test_soa_path_equals_object_path(inst, policy_idx, seed):
    trace, m, mode = inst
    policy = _pick(HOOK_POLICIES_SEQ, HOOK_POLICIES_PAR, mode, policy_idx)
    soa = gen_goldens.run_flow_case(trace, m, policy, seed=seed)
    obj = gen_goldens.run_flow_case(trace, m, object_path(policy), seed=seed)
    assert soa == obj


@settings(max_examples=25, deadline=None)
@given(inst=random_instance(), k=st.sampled_from([1, 7, 1000]))
def test_soa_path_equals_object_path_under_check_k(inst, k):
    """Amortized-check settings must not reintroduce path divergence."""
    trace, m, mode = inst
    config = FlowSimConfig(check_every_k=k)
    soa = gen_goldens.run_flow_case(trace, m, "srpt", seed=5, config=config)
    obj = gen_goldens.run_flow_case(
        trace, m, object_path("srpt"), seed=5, config=config
    )
    assert soa == obj


def test_vectorized_hook_actually_engages():
    """A hook policy must run (mostly) without materializing views."""
    trace = generate_trace(150, "finance", 0.7, 4, seed=11)
    soa = simulate(trace, 4, policy_by_name("srpt"), seed=11)
    obj = simulate(trace, 4, object_path("srpt"), seed=11)
    perf_soa, perf_obj = _perf_of(soa), _perf_of(obj)
    assert perf_soa.get("view_reuses", 0) > 0
    assert perf_obj.get("view_reuses", 0) == 0  # object path always builds
    assert perf_obj.get("view_builds", 0) > 0
    # and the answers still agree exactly
    assert soa.flow_times.tolist() == obj.flow_times.tolist()
    assert soa.extra["events"] == obj.extra["events"]


def test_timer_policies_fall_back_cleanly():
    """MLF/SETF/random-np have no hook: hiding it changes nothing, so
    both runs take the object path and agree trivially (guards the
    helper plumbing, not the math)."""
    trace = generate_trace(80, "finance", 0.6, 4, seed=9)
    for policy in ("mlf", "setf", "random-np"):
        on = gen_goldens.run_flow_case(trace, 4, policy, seed=9)
        off = gen_goldens.run_flow_case(trace, 4, object_path(policy), seed=9)
        assert on == off, policy


def test_rates_array_default_raises():
    base = policy_by_name("mlf")
    with pytest.raises(NotImplementedError):
        base.rates_array(0.0, 4, None, None, None, None, None)


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
@given(inst=random_instance(), seed=st.integers(0, 10))
def test_batched_equals_unit_on_object_path(inst, seed):
    """Without the vectorized hook a run must not fold — and not drift.

    The object path has no ``rates_array`` surface for a folded pass to
    run on, so ``drain()`` takes one event per call exactly like a
    ``step()`` loop; any disagreement means folding leaks into
    unrelated plumbing.
    """
    trace, m, mode = inst
    policy = "drep" if mode is ParallelismMode.SEQUENTIAL else "drep-par"
    batched = gen_goldens.run_flow_case(trace, m, object_path(policy), seed=seed)
    unit = gen_goldens.run_flow_case(
        trace, m, object_path(policy), seed=seed, steps=True
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
        ("drep", FlowSimConfig(record_segments=True), False),
        ("srpt", FlowSimConfig(), False),
        ("srpt", FlowSimConfig(incremental_min_active=0), True),
        ("setf", FlowSimConfig(), False),
        ("random-np", FlowSimConfig(), False),
    ],
)
def test_fold_rule(policy, config, folds):
    """Which runs fold is derived from the policy and the run: rates-stable
    dense runs on the vectorized hook without timers or segment
    recording, and promoted runs; everything else takes one event per
    call and reports no fold counters (the benchmark pins both sides)."""
    trace = generate_trace(60, "finance", 0.7, 4, seed=5)
    perf = _perf_of(simulate(trace, 4, policy_by_name(policy), seed=5, config=config))
    assert (perf.get("batch_jumps", 0) > 0) is folds
    assert ("batch_events_folded" in perf) is folds


def test_object_path_never_folds():
    trace = generate_trace(60, "finance", 0.7, 4, seed=5)
    perf = _perf_of(simulate(trace, 4, object_path("drep"), seed=5))
    assert "batch_jumps" not in perf


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
