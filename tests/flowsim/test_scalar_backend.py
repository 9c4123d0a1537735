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
structures inside a scalar call, and the online scheduler.  The lists
keep the active set across calls, so every reader of it is also run
between one-event calls, and DREP's hooks must see the same views
field for field.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.flowsim.engine as engine
from repro.core.job import JobSpec, ParallelismMode
from repro.flowsim.engine import FlowSimConfig, FlowSimError, FlowStepper, simulate
from repro.flowsim.policies import (
    SRPT,
    DrepParallel,
    DrepSequential,
    policy_by_name,
)
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


# -- the lists own the active set across calls -----------------------------------

#: the public readers of the active buffers; each must see the lists'
#: state, however many one-event calls ran since the buffers were current
READERS = ("active_ids", "remaining_of", "backlog_work", "n_harvestable",
           "harvest", "state_dict", "restore")


@st.composite
def interleaving(draw):
    """A trace, a policy the scalar backend serves, and a sequence of
    calls that move the clock or register jobs, each followed by a
    reader or not."""
    trace, m, mode = draw(instance())
    # SJF/SWF fold and carry an order spec: a folded scalar pass can end
    # at the promotion threshold, so the next call promotes from the lists
    name = draw(st.sampled_from(
        ["srpt", "drep", "sjf"] if mode is SEQ else ["srpt", "drep-par", "swf"]
    ))
    horizon = st.floats(0.0, 60.0, allow_nan=False)
    late_jobs = st.lists(
        st.tuples(  # (release gap, work)
            st.floats(0.0, 3.0, allow_nan=False),
            st.floats(1e-3, 10.0, allow_nan=False),
        ),
        min_size=1,
        max_size=20,  # enough to grow the job table past its capacity
    )
    call = st.one_of(
        st.tuples(st.just("step"), st.none() | horizon),
        st.tuples(st.just("advance_to"), horizon),
        st.tuples(st.just("add_jobs"), late_jobs),
    )
    reader = st.none() | st.tuples(st.sampled_from(READERS), st.none())
    pairs = draw(st.lists(st.tuples(call, reader), min_size=1, max_size=25))
    ops = [op for pair in pairs for op in pair if op is not None]
    return trace, m, mode, name, ops


def _remaining(stepper, j):
    try:
        return stepper.remaining_of(j)
    except KeyError as exc:
        return repr(exc)


def _read(stepper, op):
    """What reader ``op`` returns, or the error it raises; ``restore``
    also returns the stepper rebuilt from the snapshot."""
    try:
        if op == "active_ids":
            return stepper.active_ids(), stepper
        if op == "remaining_of":
            jobs = range(stepper.n_jobs)
            return [_remaining(stepper, j) for j in jobs], stepper
        if op == "backlog_work":
            return stepper.backlog_work(), stepper
        if op == "n_harvestable":
            return stepper.n_harvestable, stepper
        if op == "harvest":
            return [a.tolist() for a in stepper.harvest()], stepper
        state = stepper.state_dict()
        if op == "restore":
            stepper = FlowStepper.from_state_dict(
                state, stepper.policy, stepper.finished_state()
            )
        return state, stepper
    except (KeyError, FlowSimError) as exc:
        return repr(exc), stepper


def interleave(case, force, config):
    """Run ``case`` under ``scalar_max(force)``: what every call and
    reader returned, then the drained end state."""
    trace, m, mode, name, ops = case
    policy = policy_by_name(name)
    log = []
    with scalar_max(force):
        stepper = FlowStepper(m, policy, seed=5, config=config)
        stepper.add_jobs(list(trace.jobs))
        last = trace.jobs[-1].release
        for op, arg in ops:
            if op == "step":
                out = stepper.step(arg)
            elif op == "advance_to":
                out = stepper.advance_to(arg)
            elif op == "add_jobs":
                last = max(last, stepper.now)
                specs = []
                for gap, work in arg:
                    last += gap
                    specs.append(JobSpec(
                        job_id=stepper.n_jobs + len(specs), release=last,
                        work=work, span=work if mode is SEQ else work / m,
                        mode=mode,
                    ))
                stepper.add_jobs(specs)
                out = stepper.n_jobs
            else:
                out, stepper = _read(stepper, op)
            log.append((op, out, stepper.now, stepper.n_active, stepper.events))
        stepper.drain()
        try:
            flows = stepper.result().flow_times.tolist()
        except FlowSimError:  # harvested: the rest comes out of harvest()
            flows = [a.tolist() for a in stepper.harvest()]
        perf = stepper.perf.as_dict()
    for noise in ("wall_s", "peak_rss_mb", "py_peak_mb"):
        perf.pop(noise, None)
    rng = getattr(policy, "_rng", None)
    log.append((flows, perf, stepper.events,
                None if rng is None else gen_goldens._rng_digest(rng)))
    return log


def _case(name, jobs, ops):
    """An ``interleaving()`` case of sequential ``(release, work)`` jobs
    on one processor."""
    specs = [
        JobSpec(job_id=i, release=r, work=w, span=w, mode=SEQ)
        for i, (r, w) in enumerate(jobs)
    ]
    return Trace(jobs=specs, m=1), 1, SEQ, name, ops


#: SRPT on the lists, every reader right after a step that changed what
#: it reads: job 0 finishes at t = 1, job 1 runs until job 3 arrives at
#: t = 2, job 3 is admitted, job 3 finishes and job 4 is admitted, ...
EVERY_READER = _case(
    "srpt",
    [(0.0, 1.0), (0.0, 4.0), (0.0, 6.0), (2.0, 2.0), (3.0, 1.0), (9.0, 1.0)],
    [op for reader in ("n_harvestable", "backlog_work", "active_ids",
                       "remaining_of", "state_dict", "restore", "harvest")
     for op in (("step", None), (reader, None))],
)
#: a folded SJF pass stops where admissions reach the promotion
#: threshold, so the next call of the same advance promotes from the lists
PROMOTE = _case(
    "sjf", [(0.0, 5.0), (0.5, 5.0), (1.0, 5.0), (1.5, 5.0)],
    [("advance_to", 30.0)],
)
#: one-event calls whose admissions hand the lists to the array loop
HAND_OVER = _case(
    "srpt", [(0.0, 5.0), (0.5, 5.0), (1.0, 5.0), (1.5, 5.0)],
    [("step", None)] * 4,
)


@settings(max_examples=150, deadline=None)
@given(
    case=interleaving(),
    force=st.sampled_from([SCALAR, 2, 3]),
    inc_min=st.sampled_from([1024, 2, 3]),
)
@example(case=EVERY_READER, force=SCALAR, inc_min=1024)
@example(case=PROMOTE, force=SCALAR, inc_min=3)
@example(case=HAND_OVER, force=2, inc_min=1024)
def test_readers_between_one_event_calls(case, force, inc_min):
    """Every reader, a snapshot round trip and a registration that grows
    the job table, between one-event calls that leave the buffers
    stale: each returns what it returns on the numpy twin, and the run
    goes on identically — across hand-overs to the array loop and
    promotion to the incremental structures."""
    config = FlowSimConfig(incremental_min_active=inc_min)
    assert interleave(case, force, config) == interleave(case, ARRAY, config)


def _recording(cls):
    """``cls`` with hooks that read and record every field of every view
    before the real hook runs."""

    class Recording(cls):
        def __init__(self):
            super().__init__()
            self.seen = []

        def _see(self, kind, job_id, view):
            fields = {}
            for field in ("job_ids", "remaining", "work", "release", "caps"):
                arr = getattr(view, field)
                assert isinstance(arr, np.ndarray) and arr.shape == (view.n,)
                fields[field] = (arr.dtype.str, arr.tolist())
            ids = fields["job_ids"][1]
            assert ids == sorted(set(ids))
            self.seen.append(
                (kind, job_id, view.n, view.t, view.m, view.speed, fields)
            )

        def on_arrival(self, job_id, view):
            self._see("arrival", job_id, view)
            super().on_arrival(job_id, view)

        def on_completion(self, job_id, view):
            self._see("completion", job_id, view)
            super().on_completion(job_id, view)

    return Recording


@settings(max_examples=60, deadline=None)
@given(
    inst=instance(),
    seed=st.integers(0, 20),
    force=st.sampled_from([SCALAR, 2]),
    drive=st.sampled_from(["drain", "steps"]),
)
def test_hook_views_agree(inst, seed, force, drive):
    """DREP's arrival and completion hooks see the same views on the
    lists as on the buffers, field for field and dtype for dtype (and
    ``view_builds`` counts them alike, inside the record)."""
    trace, m, mode = inst
    cls = _recording(DrepSequential if mode is SEQ else DrepParallel)

    def seen(force):
        policy = cls()
        return policy.seen, run(trace, m, policy, seed, force, drive=drive)

    got, want = seen(force), seen(ARRAY)
    assert got[0] and got == want


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
