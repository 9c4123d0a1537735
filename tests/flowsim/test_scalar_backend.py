"""Property tests: the scalar backend ≡ the numpy buffers, always.

Plain runs of SRPT, SJF/SWF, RR and DREP (both variants) keep their
active set in Python lists while at most ``SCALAR_MAX_ACTIVE`` jobs are
active (``FlowStepper._run_scalar``) and switch to the numpy buffers
above it, within a pass.  ``tests/flowsim/paths.py``'s ``scalar_max``
moves the threshold: ``ARRAY`` keeps every run on numpy, ``SCALAR``
keeps a run on lists throughout, and a small value makes one folded
pass cross it up and down.  Every pair must agree *exactly*: per-job
flow times, the extras, every ``PerfCounters`` field and the policy RNG
end state — across machine sizes down to m = 1, jobs all released at
t = 0, exact ties, work from 1e-9 to 1e9 with dust jobs, horizons,
one-event calls, mid-run snapshots, promotion to the incremental
structures inside a scalar call, and the online scheduler.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.flowsim.engine as engine
from repro.core.job import JobSpec, ParallelismMode
from repro.flowsim.engine import FlowSimConfig, FlowStepper, simulate
from repro.flowsim.policies import SRPT, DrepSequential, policy_by_name
from repro.flowsim.policies.base import Policy
from repro.perf.scaling import staircase_jobs
from repro.serve.loadgen import replay_into
from repro.serve.online import OnlineScheduler
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

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
_spec = importlib.util.spec_from_file_location(
    "gen_goldens", DATA_DIR / "gen_goldens.py"
)
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)

#: the policies with scalar hooks, by the mode they serve
SCALAR_SEQ = ["srpt", "sjf", "rr", "drep"]
SCALAR_PAR = ["srpt", "swf", "rr", "drep-par"]
#: the ones that also publish an order spec (promotion candidates)
ORDER_SCALAR = ["srpt", "sjf", "swf"]

SEQ = ParallelismMode.SEQUENTIAL
PAR = ParallelismMode.FULLY_PARALLEL


@st.composite
def instance(draw):
    n = draw(st.integers(1, 24))
    m = draw(st.integers(1, 6))
    mode = draw(st.sampled_from([SEQ, PAR]))
    if draw(st.booleans()):
        releases = [0.0] * n  # admissions cross the threshold at once
    else:
        releases = sorted(
            draw(
                st.lists(
                    st.one_of(
                        st.sampled_from([0.0, 1.0, 2.5]),  # exact ties
                        st.floats(0.0, 40.0, allow_nan=False),
                    ),
                    min_size=n,
                    max_size=n,
                )
            )
        )
    works = draw(
        st.lists(
            st.one_of(
                # dust (within the completion tolerance at admission),
                # exact ties, and the whole magnitude range
                st.sampled_from([1e-10, 1e-9, 1.0, 2.0]),
                st.floats(1e-9, 1e9, allow_nan=False),
            ),
            min_size=n,
            max_size=n,
        )
    )
    jobs = [
        JobSpec(
            job_id=i,
            release=float(releases[i]),
            work=float(works[i]),
            span=float(works[i]) if mode is SEQ else float(works[i]) / m,
            mode=mode,
        )
        for i in range(n)
    ]
    return Trace(jobs=jobs, m=m), m, mode


def _pick(mode, idx):
    names = SCALAR_SEQ if mode is SEQ else SCALAR_PAR
    return names[idx % len(names)]


def run(trace, m, policy, seed, force, config=FlowSimConfig(),
        drive="drain", horizons=()):
    """One run under ``scalar_max(force)``: its full record, the clock
    marks at each horizon and the policy RNG digest."""
    if isinstance(policy, str):
        policy = policy_by_name(policy)
    with scalar_max(force):
        stepper = FlowStepper(m, policy, seed=seed, config=config)
        stepper.add_jobs(list(trace.jobs))
        marks = []
        for h in horizons:
            if drive == "steps":
                step_to(stepper, h)
            else:
                stepper.advance_to(h)
            marks.append(
                (stepper.now, stepper.n_completed, stepper.n_active,
                 stepper.events)
            )
        if drive == "steps":
            step_through(stepper)
        else:
            stepper.drain()
        record = full_record(stepper.result())
    record["marks"] = marks
    record["rng"] = gen_goldens._rng_digest(policy._rng) if hasattr(
        policy, "_rng") else None
    return record


# -- the two backends agree ----------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    inst=instance(),
    policy_idx=st.integers(0, 3),
    seed=st.integers(0, 20),
    force=st.sampled_from([SCALAR, 0, 1, 2, 3, 5]),
    drive=st.sampled_from(["drain", "steps"]),
    horizons=st.lists(
        st.floats(0.0, 60.0, allow_nan=False), min_size=0, max_size=4
    ).map(sorted),
)
def test_scalar_equals_array(inst, policy_idx, seed, force, drive, horizons):
    """Flows, extras, perf counters, clock marks and RNG state agree —
    whether the run stays on lists or crosses a small threshold both
    ways inside one folded pass."""
    trace, m, mode = inst
    policy = _pick(mode, policy_idx)
    want = run(trace, m, policy, seed, ARRAY, drive=drive, horizons=horizons)
    got = run(trace, m, policy, seed, force, drive=drive, horizons=horizons)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(
    inst=instance(),
    policy_idx=st.integers(0, 3),
    k=st.sampled_from([1, 7]),
    force=st.sampled_from([SCALAR, 2]),
)
def test_scalar_equals_array_under_check_k(inst, policy_idx, k, force):
    """The amortized checks run at the same cadence on both backends."""
    trace, m, mode = inst
    policy = _pick(mode, policy_idx)
    config = FlowSimConfig(check_every_k=k)
    want = run(trace, m, policy, 3, ARRAY, config=config)
    assert run(trace, m, policy, 3, force, config=config) == want


@settings(max_examples=30, deadline=None)
@given(inst=instance(), seed=st.integers(0, 10), force=st.sampled_from([SCALAR, 2]))
def test_scalar_patch_equals_rebuild(inst, seed, force):
    """DREP's scalar patch ≡ a full scalar rebuild at every decision
    point (the record differs only in the patch counter)."""
    trace, m, mode = inst
    policy = "drep" if mode is SEQ else "drep-par"
    patched = run(trace, m, policy, seed, force)
    rebuilt = run(trace, m, unpatched(policy), seed, force)
    patched["perf"].pop("batch_rate_patches", None)
    assert patched == rebuilt


@settings(max_examples=40, deadline=None)
@given(
    inst=instance(),
    policy=st.sampled_from(ORDER_SCALAR),
    min_active=st.sampled_from([1, 2, 3, 5]),
    drive=st.sampled_from(["drain", "steps"]),
    seed=st.integers(0, 10),
)
def test_promotion_inside_a_scalar_call(inst, policy, min_active, drive, seed):
    """A tiny ``incremental_min_active``: a one-event call whose
    admissions reach it promotes in place, a folded pass ends there —
    on the lists exactly as on the buffers."""
    trace, m, _ = inst
    config = FlowSimConfig(incremental_min_active=min_active)
    want = run(trace, m, policy, seed, ARRAY, config=config, drive=drive)
    got = run(trace, m, policy, seed, SCALAR, config=config, drive=drive)
    assert got == want


@settings(max_examples=30, deadline=None)
@given(
    inst=instance(),
    policy_idx=st.integers(0, 3),
    cut=st.floats(0.0, 50.0, allow_nan=False),
    seed=st.integers(0, 10),
)
def test_state_dict_round_trip_mid_run(inst, policy_idx, cut, seed):
    """Snapshot at a horizon, restore, finish: the same on both backends,
    and the flows of the same run without the snapshot."""
    trace, m, mode = inst
    name = _pick(mode, policy_idx)

    def resumed(force):
        policy = policy_by_name(name)
        with scalar_max(force):
            stepper = FlowStepper(m, policy, seed=seed)
            stepper.add_jobs(list(trace.jobs))
            stepper.advance_to(cut)
            restored = FlowStepper.from_state_dict(
                stepper.state_dict(), policy, stepper.finished_state()
            )
            restored.drain()
            return full_record(restored.result())

    got, want = resumed(SCALAR), resumed(ARRAY)
    assert got == want
    straight = run(trace, m, name, seed, ARRAY, horizons=[cut])
    assert got["flow_times"] == straight["flow_times"]


@settings(max_examples=30, deadline=None)
@given(inst=instance(), seed=st.integers(0, 20), force=st.sampled_from([SCALAR, 2]))
def test_online_equals_offline_drep(inst, seed, force):
    """Submitting each job at its release into the online scheduler
    reproduces the offline DREP run draw for draw on either backend."""
    trace, m, _ = inst
    offline = simulate(trace, m, DrepSequential(), seed=seed)

    def online(force):
        with scalar_max(force):
            sched = OnlineScheduler(m, DrepSequential(), seed=seed)
            _, result = replay_into(sched, trace)
        return full_record(result)

    got = online(force)
    assert got["flow_times"] == [float(x) for x in offline.flow_times]
    assert got == online(ARRAY)


# -- which runs take the lists ---------------------------------------------------


class _Counted:
    """Counts the scalar and the array rate-hook calls (patches
    included) of one policy."""

    def __init__(self, name):
        self.policy = policy_by_name(name)
        self.calls = {"scalar": 0, "array": 0}
        # instance attributes: the engine judges capability by class, so
        # both paths stay enabled and call through these
        for kind in ("scalar", "array"):
            for hook in (f"rates_{kind}", f"rates_{kind}_patch"):
                setattr(self.policy, hook, self._counting(kind, hook))

    def _counting(self, kind, hook):
        fn = getattr(self.policy, hook)

        def counted(*args):
            self.calls[kind] += 1
            return fn(*args)

        return counted


@pytest.mark.parametrize(
    "name,mode",
    [("srpt", SEQ), ("sjf", SEQ), ("rr", SEQ), ("drep", SEQ),
     ("srpt", PAR), ("swf", PAR), ("rr", PAR), ("drep-par", PAR)],
)
def test_figure_sized_run_stays_on_lists(name, mode):
    trace = generate_trace(1000, "finance", 0.5, 8, mode=mode, seed=0)
    counted = _Counted(name)
    result = simulate(trace, 8, counted.policy, seed=0)
    assert counted.calls["array"] == 0
    assert counted.calls["scalar"] >= result.extra["perf"]["rate_misses"]


def test_ten_thousand_active_rr_leaves_the_lists():
    """A staircase to 10⁴ simultaneously active jobs runs on numpy above
    the threshold: only the first arrivals and the last completions see
    the lists."""
    counted = _Counted("rr")
    stepper = FlowStepper(8, counted.policy)
    stepper.add_jobs(list(staircase_jobs(10_000)))
    stepper.drain()
    # every rebuild but those of the first arrivals runs on numpy
    top = engine.SCALAR_MAX_ACTIVE
    assert counted.calls["scalar"] == top
    assert counted.calls["array"] == stepper.events - top


def test_one_pass_crosses_both_ways():
    """A folded pass that crosses the threshold up and down stays one
    pass: one ``batch_jumps``, every event folded."""
    trace = generate_trace(300, "finance", 0.9, 2, seed=4)
    counted = _Counted("drep")
    with scalar_max(4):
        result = simulate(trace, 2, counted.policy, seed=4)
    perf = result.extra["perf"]
    assert perf["batch_jumps"] == 1
    assert perf["batch_events_folded"] == result.extra["events"]
    assert counted.calls["scalar"] > 0 and counted.calls["array"] > 0
    assert full_record(result) == full_record(
        simulate(trace, 2, policy_by_name("drep"), seed=4)
    )


def test_subclass_overriding_only_the_array_hook_stays_on_numpy():
    """The scalar hook is a twin of the array hook defined beside it; a
    subclass that changes the array hook alone must not inherit it."""

    class LongestRemainingFirst(SRPT):
        name = "LRPT"

        def rates_array(self, t, m, job_ids, remaining, work, release, caps):
            return super().rates_array(
                t, m, job_ids, -remaining, work, release, caps
            )

    trace = generate_trace(100, "finance", 0.7, 2, seed=1)
    calls = []
    policy = LongestRemainingFirst()
    policy.rates_scalar = lambda *a: calls.append(a)
    simulate(trace, 2, policy, seed=1)
    assert not calls


def test_policy_default_scalar_hook_raises():
    with pytest.raises(NotImplementedError):
        Policy.rates_scalar(policy_by_name("mlf"), 0.0, 1, [], [], [], [], [])
    assert Policy.rates_scalar_patch(policy_by_name("mlf"), [], []) is None
