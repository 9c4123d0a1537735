"""Fault injection in the event-exact flow simulator.

The acceptance bar is *deterministic fault replay*: the same seed and
FaultPlan must produce bit-identical flow times and fault logs across
runs, for every policy family the engine supports.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.faults import FaultEvent, FaultPlan, named_fault_plans
from repro.flowsim.engine import FlowSimConfig, FlowStepper, simulate
from repro.flowsim.policies import policy_by_name
from repro.workloads.traces import generate_trace

POLICIES = ["drep-seq", "drep-par", "srpt", "rr"]
PLANS = ["rolling", "half-down", "brownout", "random"]


def _trace(m=4, n=60, seed=3):
    return generate_trace(n, "finance", 0.7, m, seed=seed)


class TestDeterministicReplay:
    @pytest.mark.parametrize("policy_key", POLICIES)
    @pytest.mark.parametrize("plan_name", PLANS)
    def test_bit_identical_across_runs(self, policy_key, plan_name):
        trace = _trace()
        plan = named_fault_plans(4, 60.0, seed=9)[plan_name]
        runs = [
            simulate(trace, 4, policy_by_name(policy_key), seed=11, faults=plan)
            for _ in range(2)
        ]
        np.testing.assert_array_equal(
            runs[0].flow_times, runs[1].flow_times
        )
        assert runs[0].extra["faults"]["log"] == runs[1].extra["faults"]["log"]
        assert runs[0].extra["faults"]["applied"] > 0

    def test_no_fault_run_identical_to_faults_none(self):
        # an empty plan must not perturb the golden trajectory at all
        trace = _trace()
        empty = FaultPlan((), name="empty")
        base = simulate(trace, 4, policy_by_name("drep"), seed=11)
        wired = simulate(trace, 4, policy_by_name("drep"), seed=11, faults=empty)
        np.testing.assert_array_equal(base.flow_times, wired.flow_times)
        assert base.preemptions == wired.preemptions


class TestCrashSemantics:
    def test_all_processors_down_pauses_progress(self):
        trace = _trace(m=2, n=10)
        outage = FaultPlan(
            (
                FaultEvent("crash", t=0.5, duration=5.0, proc=0),
                FaultEvent("crash", t=0.5, duration=5.0, proc=1),
            ),
            name="blackout",
        )
        base = simulate(trace, 2, policy_by_name("srpt"), seed=0)
        dark = simulate(trace, 2, policy_by_name("srpt"), seed=0, faults=outage)
        assert dark.mean_flow > base.mean_flow
        # nothing can finish while every processor is down
        releases = np.array([j.release for j in trace.jobs])
        finishes = releases + dark.flow_times
        assert not np.any((finishes > 0.5 + 1e-9) & (finishes < 5.5 - 1e-9))
        base_finishes = releases + base.flow_times
        assert np.any((base_finishes > 0.5) & (base_finishes < 5.5))

    def test_degrade_slows_completion(self):
        trace = _trace(m=2, n=20)
        plan = FaultPlan(
            (FaultEvent("degrade", t=0.0, duration=1e9, factor=0.5),),
            name="half-speed",
        )
        base = simulate(trace, 2, policy_by_name("srpt"), seed=0)
        slow = simulate(trace, 2, policy_by_name("srpt"), seed=0, faults=plan)
        assert slow.mean_flow > base.mean_flow

    def test_drep_survives_crashes_with_checks_every_event(self):
        trace = _trace(m=4, n=40)
        plan = named_fault_plans(4, 40.0, seed=2)["rolling"]
        result = simulate(
            trace,
            4,
            policy_by_name("drep"),
            seed=5,
            config=FlowSimConfig(check_every_k=1),
            faults=plan,
        )
        assert result.n_jobs == 40
        assert np.all(result.flow_times > 0)


class TestAbortResubmit:
    def test_abort_extends_flow_from_original_release(self):
        # one job, aborted halfway, resubmitted 2.0 later: the flow time
        # must count from the ORIGINAL release, so it includes the wasted
        # first attempt and the resubmit gap
        from repro.core.job import JobSpec
        from repro.workloads.traces import Trace

        spec = JobSpec(job_id=0, release=0.0, work=4.0, span=4.0)
        trace = Trace(jobs=[spec], m=1, load=0.5, distribution="unit")
        plan = FaultPlan(
            (FaultEvent("abort", t=2.0, job_id=0, resubmit_after=2.0),),
            name="abort-one",
        )
        base = simulate(trace, 1, policy_by_name("srpt"), seed=0)
        hit = simulate(trace, 1, policy_by_name("srpt"), seed=0, faults=plan)
        assert base.flow_times[0] == pytest.approx(4.0)
        # aborted at 2 (2 units lost), resumes at 4, full 4 units again
        assert hit.flow_times[0] == pytest.approx(8.0)
        assert hit.extra["faults"]["lost_work"] == pytest.approx(2.0)

    def test_abort_of_finished_job_is_ignored(self):
        from repro.core.job import JobSpec
        from repro.workloads.traces import Trace

        jobs = [
            JobSpec(job_id=0, release=0.0, work=1.0, span=1.0),
            # keeps the engine alive past the abort point
            JobSpec(job_id=1, release=6.0, work=1.0, span=1.0),
        ]
        trace = Trace(jobs=jobs, m=1, load=0.5, distribution="unit")
        plan = FaultPlan(
            (FaultEvent("abort", t=5.0, job_id=0, resubmit_after=1.0),),
            name="late",
        )
        r = simulate(trace, 1, policy_by_name("srpt"), seed=0, faults=plan)
        assert r.flow_times[0] == pytest.approx(1.0)
        log = r.extra["faults"]["log"]
        aborts = [e for e in log if e["kind"] == "abort"]
        assert aborts and not aborts[0]["applied"]


class TestSnapshotWithFaults:
    """Satellite: snapshot/restore round-trips RNG + fault state mid-plan."""

    @pytest.mark.parametrize("policy_key", ["drep-seq", "drep-par", "srpt"])
    def test_state_roundtrip_after_faults_fired(self, policy_key):
        import json

        from repro.serve.snapshot import _decode_policy, _encode_policy

        trace = _trace(m=4, n=50)
        plan = named_fault_plans(4, 50.0, seed=7)["rolling"]

        ref = simulate(trace, 4, policy_by_name(policy_key), seed=3, faults=plan)

        stepper = FlowStepper(4, policy_by_name(policy_key), seed=3, faults=plan)
        for spec in trace.jobs:
            stepper.advance_to(spec.release)
            stepper.add_job(spec)
        # run into the middle of the fault plan, then checkpoint through
        # the same JSON codec the serving snapshots use (RNG + policy +
        # fault timeline state all round-trip)
        stepper.advance_to(plan.events[2].t + 0.1)
        assert stepper.faults.applied > 0
        blob = json.dumps(
            {
                "engine": stepper.state_dict(),
                "finished": stepper.finished_state(),
                "policy": _encode_policy(stepper.policy),
            }
        )
        decoded = json.loads(blob)
        clone = FlowStepper.from_state_dict(
            decoded["engine"],
            _decode_policy(decoded["policy"]),
            decoded["finished"],
        )
        stepper.drain()
        clone.drain()
        np.testing.assert_array_equal(
            stepper.result().flow_times, clone.result().flow_times
        )
        np.testing.assert_array_equal(
            ref.flow_times, clone.result().flow_times
        )
        assert stepper._fault_log == clone._fault_log
