"""Tests for repro.theory.preemptions — Theorem 1.2 budget records."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.job import ParallelismMode
from repro.core.metrics import ScheduleResult
from repro.faults.plan import random_crash_plan
from repro.flowsim.engine import simulate
from repro.flowsim.policies import DrepParallel, DrepSequential, WDrep
from repro.theory.preemptions import PreemptionBudget, check_theorem_1_2
from repro.workloads.traces import generate_trace


def result(preemptions, switches, m=4, n=10):
    return ScheduleResult(
        scheduler="DREP",
        m=m,
        flow_times=np.ones(n),
        preemptions=preemptions,
        extra={"switches": switches},
    )


class TestBudgetRecord:
    def test_within_bound(self):
        b = check_theorem_1_2(result(preemptions=5, switches=30), n_jobs=10)
        assert b.switch_bound == 2 * 4 * 10
        assert b.within_switch_bound

    def test_violated_bound(self):
        b = check_theorem_1_2(result(preemptions=5, switches=1000), n_jobs=10)
        assert not b.within_switch_bound

    def test_sequential_ratio(self):
        b = check_theorem_1_2(result(preemptions=7, switches=30), n_jobs=10)
        assert b.sequential_ratio() == pytest.approx(0.7)

    def test_summary_keys(self):
        s = check_theorem_1_2(result(2, 3), n_jobs=10).summary()
        assert {"preemptions", "switches", "switch_bound_2mn", "within_switch_bound"} <= set(s)

    def test_zero_jobs(self):
        b = PreemptionBudget(0, 1, 0, 0, 0, 0)
        assert b.sequential_ratio() == 0.0


class TestLiveBudgets:
    @pytest.mark.parametrize("m", [2, 8])
    def test_sequential_drep_budgets(self, m):
        n = 3000
        trace = generate_trace(n, "finance", 0.6, m, seed=m)
        r = simulate(trace, m, DrepSequential(), seed=m)
        budget = check_theorem_1_2(r, n)
        assert budget.within_switch_bound
        # expected preemptions per job <= 1 (allow statistical slack)
        assert budget.sequential_ratio() <= 1.2

    @pytest.mark.parametrize("m", [8, 64])
    def test_parallel_drep_switch_bound(self, m):
        # Figure 2's shape: fully parallel jobs, where an arrival's coin
        # flips and a completion's re-draws move many processors at once
        n = 3000
        trace = generate_trace(
            n, "finance", 0.5, m, mode=ParallelismMode.FULLY_PARALLEL, seed=m
        )
        r = simulate(trace, m, DrepParallel(), seed=m)
        budget = check_theorem_1_2(r, n)
        assert budget.observed_switches > n
        assert budget.within_switch_bound


def arrivals_only(cls):
    """``cls`` with every hook but ``on_arrival`` checked not to preempt.

    A crash eviction is not a preemption (it counts as a fault eviction),
    so ``on_fault`` and the recovery re-draw must leave the count alone
    too; ``arrival_preemptions`` sums what the arrivals did.
    """

    class Checked(cls):
        arrival_preemptions = 0

        def on_arrival(self, job_id, view):
            before = self.preemptions
            super().on_arrival(job_id, view)
            self.arrival_preemptions += self.preemptions - before

        def on_completion(self, job_id, view):
            before = self.preemptions
            super().on_completion(job_id, view)
            assert self.preemptions == before

        def on_fault(self, event, view):
            before = self.preemptions
            super().on_fault(event, view)
            assert self.preemptions == before

        def _redraw_recovered(self, proc, view):
            before = self.preemptions
            super()._redraw_recovered(proc, view)
            assert self.preemptions == before

    return Checked


class TestPreemptionsOnlyAtArrivals:
    """Theorem 1.2's premise: DREP preempts only when a job arrives."""

    @pytest.mark.parametrize("crash", [False, True], ids=["plain", "crash"])
    @pytest.mark.parametrize(
        "cls, mode",
        [
            (DrepSequential, ParallelismMode.SEQUENTIAL),
            (DrepParallel, ParallelismMode.FULLY_PARALLEL),
            (WDrep, ParallelismMode.SEQUENTIAL),
        ],
        ids=["drep", "drep-par", "wdrep"],
    )
    @pytest.mark.parametrize("m", [3, 16])
    def test_hooks_other_than_arrival_never_preempt(self, cls, mode, m, crash):
        n = 400
        trace = generate_trace(n, "finance", 0.8, m, mode=mode, seed=m)
        faults = None
        if crash:
            horizon = trace.jobs[-1].release
            faults = random_crash_plan(
                m, horizon, seed=m, crash_rate=3.0 / horizon, mttr=horizon / 30
            )
        policy = arrivals_only(cls)()
        r = simulate(trace, m, policy, seed=m, faults=faults)
        assert r.preemptions == policy.arrival_preemptions > 0
        if crash:
            assert policy.fault_evictions > 0
