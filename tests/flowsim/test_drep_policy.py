"""Tests for the flow-level DREP policies (paper Sec. III / IV).

Covers the algorithmic rules (free-processor takeover, at-most-one-switch
tie-break, uniform completion re-draw), the Theorem 1.2 preemption budget,
and the Lemma 4.1 uniform-assignment property (statistically).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.job import ParallelismMode
from repro.flowsim.engine import simulate
from repro.flowsim.policies.base import ActiveView
from repro.flowsim.policies.drep import DrepParallel, DrepSequential
from repro.workloads.traces import generate_trace
from tests.conftest import make_trace
from tests.flowsim.paths import ARRAY, SCALAR, scalar_max


def view(t, m, ids, remaining, work, release, caps):
    return ActiveView(
        t=t,
        m=m,
        job_ids=np.array(ids, dtype=np.int64),
        remaining=np.array(remaining, float),
        work=np.array(work, float),
        release=np.array(release, float),
        caps=np.array(caps, float),
    )


class TestSequentialRules:
    def test_free_processor_takes_new_job_without_preemption(self):
        pol = DrepSequential()
        pol.reset(m=2, rng=np.random.default_rng(0))
        v = view(0.0, 2, [0], [5.0], [5.0], [0.0], [1.0])
        pol.on_arrival(0, v)
        assert pol.preemptions == 0
        assert pol.processors_of(0).size == 1

    def test_at_most_one_processor_per_job(self):
        pol = DrepSequential()
        pol.reset(m=8, rng=np.random.default_rng(1))
        # arrivals one at a time; each job must end with <= 1 processor
        ids, remaining = [], []
        for j in range(20):
            ids.append(j)
            remaining.append(5.0)
            v = view(0.0, 8, ids, remaining, remaining, [0.0] * len(ids), [1.0] * len(ids))
            pol.on_arrival(j, v)
            for job in ids:
                assert pol.processors_of(job).size <= 1

    def test_all_processors_busy_when_enough_jobs(self):
        pol = DrepSequential()
        pol.reset(m=4, rng=np.random.default_rng(2))
        ids = []
        for j in range(4):
            ids.append(j)
            v = view(0.0, 4, ids, [1.0] * len(ids), [1.0] * len(ids), [0.0] * len(ids), [1.0] * len(ids))
            pol.on_arrival(j, v)
        assigned = sum(pol.processors_of(j).size for j in ids)
        assert assigned == 4  # free processors absorb arrivals first

    def test_completion_redraw_from_unassigned(self):
        pol = DrepSequential()
        pol.reset(m=1, rng=np.random.default_rng(3))
        v1 = view(0.0, 1, [0], [1.0], [1.0], [0.0], [1.0])
        pol.on_arrival(0, v1)
        # job 1 arrives, coin may or may not fire; force known state:
        # complete job 0 with job 1 active and unassigned
        pol._assignment[:] = [0] * len(pol._assignment)
        v2 = view(1.0, 1, [1], [1.0], [1.0], [0.5], [1.0])
        pol.on_completion(0, v2)
        assert pol.processors_of(1).size == 1

    def test_rates_are_zero_or_one(self, small_random_trace):
        """Integral assignment: every job runs at rate exactly 0 or 1,
        whichever hook the engine refreshes the rates through, on the
        Python lists and on the numpy buffers."""

        def run(force, hooks):
            pol = DrepSequential()
            fired = dict.fromkeys(hooks, 0)

            def spy(name):
                hook = getattr(pol, name)

                def wrapped(*args):
                    out = hook(*args)
                    fired[name] += 1
                    if name.endswith("_patch"):
                        values = [val for _, val in out or ()]
                    else:
                        values = list(out)
                    assert set(values) <= {0.0, 1.0}, (name, values)
                    return out

                return wrapped

            for name in hooks:
                setattr(pol, name, spy(name))
            with scalar_max(force):
                simulate(small_random_trace, 4, pol, seed=1)
            return fired

        lists = run(SCALAR, ("rates_scalar", "rates_scalar_patch"))
        arrays = run(ARRAY, ("rates_array", "rates_array_patch"))
        assert all(lists.values()), lists
        assert all(arrays.values()), arrays


class TestTheorem12Sequential:
    @pytest.mark.parametrize("m", [1, 4, 16])
    def test_expected_preemptions_at_most_one_per_job(self, m):
        n = 4000
        trace = generate_trace(n, "finance", 0.6, m, seed=m)
        r = simulate(trace, m, DrepSequential(), seed=m)
        # Theorem 1.2: expected preemptions <= n (we allow slack for noise)
        assert r.preemptions <= 1.2 * n

    def test_preemptions_only_on_arrivals(self):
        """With a single job ever active there can be no preemption."""
        trace = make_trace([5.0, 5.0, 5.0], releases=[0.0, 10.0, 20.0])
        r = simulate(trace, 2, DrepSequential(), seed=0)
        assert r.preemptions == 0

    def test_switch_bound(self):
        n, m = 2000, 8
        trace = generate_trace(n, "bing", 0.7, m, seed=5)
        r = simulate(trace, m, DrepSequential(), seed=5)
        assert r.extra["switches"] <= 2 * m * n


class TestParallelRules:
    def test_all_free_processors_join_first_job(self):
        pol = DrepParallel()
        pol.reset(m=8, rng=np.random.default_rng(0))
        v = view(0.0, 8, [0], [8.0], [8.0], [0.0], [8.0])
        pol.on_arrival(0, v)
        assert pol.processors_of(0).size == 8

    def test_rates_capped_by_processor_count(self):
        pol = DrepParallel()
        pol.reset(m=4, rng=np.random.default_rng(1))
        v = view(0.0, 4, [0], [4.0], [4.0], [0.0], [4.0])
        pol.on_arrival(0, v)
        rates = pol.rates_array(
            v.t, v.m, v.job_ids, v.remaining, v.work, v.release, v.caps
        )
        assert rates[0] == pytest.approx(4.0)

    def test_completion_redraw_spreads_uniformly(self):
        pol = DrepParallel()
        pol.reset(m=1000, rng=np.random.default_rng(2))
        v0 = view(0.0, 1000, [0], [1.0], [1.0], [0.0], [1000.0])
        pol.on_arrival(0, v0)
        # two survivor jobs; complete job 0 -> processors re-draw uniformly
        pol._assignment[:] = [0] * len(pol._assignment)
        v = view(1.0, 1000, [1, 2], [1.0, 1.0], [1.0, 1.0], [0.0, 0.0], [1000.0, 1000.0])
        pol.on_completion(0, v)
        p1 = pol.processors_of(1).size
        p2 = pol.processors_of(2).size
        assert p1 + p2 == 1000
        assert abs(p1 - p2) < 150  # ~ binomial(1000, 1/2) spread

    def test_switch_probability_one_over_active(self):
        """On arrival each busy processor switches with prob 1/|A|."""
        switched = []
        for seed in range(40):
            pol = DrepParallel()
            pol.reset(m=100, rng=np.random.default_rng(seed))
            v0 = view(0.0, 100, [0], [1.0], [1.0], [0.0], [100.0])
            pol.on_arrival(0, v0)
            v1 = view(
                0.5, 100, [0, 1], [1.0, 1.0], [1.0, 1.0], [0.0, 0.5], [100.0, 100.0]
            )
            pol.on_arrival(1, v1)
            switched.append(pol.processors_of(1).size)
        mean = np.mean(switched)
        # expectation = 100 * 1/2 = 50
        assert 40 < mean < 60


class TestLemma41Uniform:
    def test_processor_assignment_uniform_over_jobs(self):
        """Empirical check of Lemma 4.1: at a fixed time, each processor is
        on any given active job with probability 1/|A(t)|."""
        m, n = 16, 60
        trace = generate_trace(
            n, "fixed", 0.65, m, mode=ParallelismMode.FULLY_PARALLEL, seed=3
        )
        # count processor-job co-occupancy at completion events over many seeds
        counts = []
        for seed in range(120):
            pol = DrepParallel()
            r = simulate(trace, m, pol, seed=seed)
            counts.append(r.mean_flow)
        # not a direct per-instant histogram (engine owns the loop), so
        # check the observable consequence: long-run DREP mean flow is
        # within a modest factor of RR (equi-partition in expectation)
        from repro.flowsim.policies import RoundRobin

        rr = simulate(trace, m, RoundRobin()).mean_flow
        assert np.mean(counts) < 2.5 * rr

    def test_assignment_counts_sum_to_m(self):
        pol = DrepParallel()
        pol.reset(m=12, rng=np.random.default_rng(9))
        ids = []
        for j in range(6):
            ids.append(j)
            caps = [12.0] * len(ids)
            v = view(0.0, 12, ids, [1.0] * len(ids), [1.0] * len(ids), [0.0] * len(ids), caps)
            pol.on_arrival(j, v)
            total = sum(pol.processors_of(job).size for job in ids)
            assert total == 12
