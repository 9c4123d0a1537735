"""Tests for the RandomNonPreemptive null-control policy."""

from __future__ import annotations

import numpy as np
import pytest

from repro.flowsim.engine import FlowStepper, simulate
from repro.flowsim.policies import DrepSequential, FIFO, SRPT
from repro.flowsim.policies.random_np import RandomNonPreemptive
from tests.conftest import make_trace
from tests.flowsim.paths import schedule_of


class TestNonPreemption:
    def test_started_job_runs_to_completion(self):
        """Segments: once a job receives service, it is served in every
        subsequent segment until it completes."""
        trace = make_trace(
            [5.0, 1.0, 1.0, 1.0], releases=[0.0, 0.5, 1.0, 1.5]
        )
        stepper = FlowStepper(1, RandomNonPreemptive(), seed=3)
        stepper.add_jobs(list(trace.jobs))
        segments = schedule_of(stepper)
        r = stepper.result()
        served_spans: dict[int, list[float]] = {}
        for t0, t1, alloc in segments:
            for j in alloc:
                served_spans.setdefault(j, []).append(t0)
        # contiguity: served at rate 1 from its first segment on, a job
        # that is never preempted finishes its work after that start
        for j, starts in served_spans.items():
            job = trace.jobs[j]
            assert r.flow_times[j] == pytest.approx(
                min(starts) + job.work - job.release, rel=1e-6
            )

    def test_all_jobs_finish(self, small_random_trace):
        r = simulate(small_random_trace, 4, RandomNonPreemptive(), seed=1)
        assert np.isfinite(r.flow_times).all()

    def test_seed_changes_order(self):
        trace = make_trace([3.0, 3.0, 3.0])
        orders = set()
        for seed in range(12):
            r = simulate(trace, 1, RandomNonPreemptive(), seed=seed)
            orders.add(tuple(np.argsort(r.flow_times)))
        assert len(orders) > 1  # randomness visible


class TestNullControl:
    def test_as_bad_as_fifo_on_the_pathology(self):
        """The paper's giant-plus-burst example: random order without
        preemption strands small jobs just like FIFO; DREP does not."""
        works = [200.0] + [1.0] * 30
        releases = [0.0] + [1.0 + 0.1 * i for i in range(30)]
        trace = make_trace(works, releases)
        rand = np.mean(
            [
                simulate(trace, 1, RandomNonPreemptive(), seed=s).mean_flow
                for s in range(5)
            ]
        )
        fifo = simulate(trace, 1, FIFO()).mean_flow
        drep = np.mean(
            [simulate(trace, 1, DrepSequential(), seed=s).mean_flow for s in range(5)]
        )
        assert rand >= 0.5 * fifo  # same pathology class
        # the arrival coin flip rescues DREP (limited at m=1 where the
        # single processor still serves the backlog one at a time)
        assert drep <= 0.75 * rand

    def test_never_beats_srpt(self, small_random_trace):
        srpt = simulate(small_random_trace, 1, SRPT()).mean_flow
        rand = simulate(small_random_trace, 1, RandomNonPreemptive(), seed=0).mean_flow
        assert srpt <= rand * (1 + 1e-9)
