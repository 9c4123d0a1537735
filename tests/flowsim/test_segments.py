"""Schedule-shape properties, asserted on the schedule a run produced.

:func:`tests.flowsim.paths.schedule_of` rebuilds the piecewise-constant
schedule from the outside, one event per ``step()``, so the tests see
*what the scheduler did*, not just aggregate flows — and policy-defining
invariants (SRPT serves minimal remaining, RR shares equally, FIFO never
reorders) are asserted on the engine path real runs take.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flowsim.engine import FlowStepper
from repro.flowsim.policies import FIFO, RoundRobin, SRPT
from repro.workloads.traces import generate_trace
from tests.conftest import make_trace
from tests.flowsim.paths import schedule_of


def schedule(trace, m, policy, seed=0):
    """``(segments, stepper)`` for ``policy`` draining ``trace`` on ``m``."""
    stepper = FlowStepper(m, policy, seed=seed)
    stepper.add_jobs(list(trace.jobs))
    return schedule_of(stepper), stepper


def reconstruct_work(segments, n):
    done = np.zeros(n)
    for t0, t1, alloc in segments:
        for j, r in alloc.items():
            done[j] += (t1 - t0) * r
    return done


class TestRecording:
    def test_segments_cover_schedule(self):
        trace = make_trace([3.0, 1.0], releases=[0.0, 1.0])
        segs, stepper = schedule(trace, 1, SRPT())
        # contiguous, increasing, non-empty
        assert segs[0][0] == 0.0
        for (a0, a1, _), (b0, _, _) in zip(segs, segs[1:]):
            assert a1 == pytest.approx(b0)
            assert a1 > a0
        assert segs[-1][1] == pytest.approx(stepper.result().makespan)

    def test_work_reconstruction(self, small_random_trace):
        segs, _ = schedule(small_random_trace, 4, RoundRobin())
        done = reconstruct_work(segs, len(small_random_trace))
        works = np.array([j.work for j in small_random_trace.jobs])
        np.testing.assert_allclose(done, works, rtol=1e-6)

    def test_capacity_respected_in_every_segment(self, small_random_trace):
        segs, _ = schedule(small_random_trace, 4, RoundRobin())
        for _, _, alloc in segs:
            assert sum(alloc.values()) <= 4 + 1e-9


class TestScheduleShape:
    def test_srpt_always_serves_minimal_remaining(self):
        for seed in (9, 10, 11):
            trace = generate_trace(60, "finance", 0.6, 1, seed=seed)
            segs, _ = schedule(trace, 1, SRPT())
            releases = {j.job_id: j.release for j in trace.jobs}
            remaining = {j.job_id: j.work for j in trace.jobs}
            for t0, t1, alloc in segs:
                served = set(alloc)
                active = {
                    j
                    for j, rem in remaining.items()
                    if rem > 1e-9 and releases[j] <= t0 + 1e-12
                }
                if served and active:
                    max_served_priority = max(remaining[j] for j in served)
                    for j in active - served:
                        assert remaining[j] >= max_served_priority - 1e-6
                for j, rate in alloc.items():
                    remaining[j] -= rate * (t1 - t0)

    def test_fifo_never_skips_earlier_job(self):
        trace = make_trace([5.0, 2.0, 2.0], releases=[0.0, 1.0, 2.0])
        segs, _ = schedule(trace, 1, FIFO())
        for t0, _, alloc in segs:
            # job 0 present until done; it must be the one served
            if t0 < 5.0:
                assert set(alloc) == {0}

    def test_rr_equal_rates_among_unsaturated(self):
        trace = make_trace([4.0, 4.0, 4.0])
        segs, _ = schedule(trace, 2, RoundRobin())
        t0, t1, alloc = segs[0]
        rates = list(alloc.values())
        assert max(rates) - min(rates) < 1e-9
        assert sum(rates) == pytest.approx(2.0)
