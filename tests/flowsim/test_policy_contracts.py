"""Generic contract tests run against every registered flow-level policy.

Any policy added to the registry automatically inherits these checks:
``rates_array`` respects caps and capacity and leaves its inputs
unchanged, runs are deterministic under a fixed seed, and every job
finishes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.job import ParallelismMode
from repro.flowsim.engine import simulate
from repro.flowsim.policies import policy_by_name
from repro.flowsim.policies.base import ActiveView
from repro.workloads.traces import generate_trace

ALL_POLICIES = [
    "srpt",
    "sjf",
    "swf",
    "rr",
    "fifo",
    "laps",
    "setf",
    "mlf",
    "drep",
    "drep-par",
    "hdf",
    "wsrpt",
    "wdrep",
    "random-np",
]


@pytest.fixture(scope="module")
def seq_trace():
    return generate_trace(150, "finance", 0.6, 3, seed=71)


@pytest.fixture(scope="module")
def par_trace():
    return generate_trace(
        150, "finance", 0.6, 3, mode=ParallelismMode.FULLY_PARALLEL, seed=72
    )


@pytest.mark.parametrize("name", ALL_POLICIES)
class TestPolicyContracts:
    def test_completes_sequential_trace(self, name, seq_trace):
        r = simulate(seq_trace, 3, policy_by_name(name), seed=1)
        assert np.isfinite(r.flow_times).all()

    def test_completes_parallel_trace(self, name, par_trace):
        r = simulate(par_trace, 3, policy_by_name(name), seed=1)
        assert np.isfinite(r.flow_times).all()

    def test_deterministic(self, name, seq_trace):
        a = simulate(seq_trace, 3, policy_by_name(name), seed=4)
        b = simulate(seq_trace, 3, policy_by_name(name), seed=4)
        np.testing.assert_array_equal(a.flow_times, b.flow_times)

    def test_flow_floor(self, name, seq_trace):
        r = simulate(seq_trace, 3, policy_by_name(name), seed=4)
        for spec, f in zip(seq_trace.jobs, r.flow_times):
            assert f >= spec.lower_bound(3) * (1 - 1e-7) - 1e-9

    def test_view_not_mutated(self, name):
        """``rates_array`` reads the engine's buffers without writing
        them and returns a fresh vector within caps and capacity."""
        policy = policy_by_name(name)
        rng = np.random.default_rng(0)
        policy.reset(4, rng)
        if hasattr(policy, "set_weights"):
            policy.set_weights(np.ones(6))
        fields = dict(
            job_ids=np.arange(4, dtype=np.int64),
            remaining=np.array([3.0, 1.0, 2.0, 4.0]),
            work=np.array([3.0, 1.0, 2.0, 4.0]),
            release=np.zeros(4),
            caps=np.ones(4),
        )
        view = ActiveView(
            t=0.0, m=4, **{k: v.copy() for k, v in fields.items()}
        )
        for j in fields["job_ids"]:
            policy.on_arrival(int(j), view)
        rates = policy.rates_array(
            view.t, view.m, view.job_ids, view.remaining,
            view.work, view.release, view.caps,
        )
        for key, value in fields.items():
            np.testing.assert_array_equal(getattr(view, key), value)
            assert not np.shares_memory(rates, getattr(view, key)), key
        caps = fields["caps"]
        assert (rates >= -1e-12).all()
        assert (rates <= caps + 1e-9).all()
        assert rates.sum() <= 4 + 1e-9


@pytest.mark.parametrize(
    "kwargs",
    [
        {"key": "remaining", "descending": True},
        {"key": "remaining", "alloc": "share_topk"},
        {"key": "remaining", "descending": True, "alloc": "share_topk"},
        {"key": "deadline"},
        {"key": "work", "alloc": "round_robin"},
    ],
)
def test_order_spec_refuses_what_the_engine_cannot_maintain(kwargs):
    """The engine re-keys remaining-work orders by splicing the order's
    head, which holds only for the ascending prefix walk."""
    from repro.flowsim.policies.base import OrderSpec

    with pytest.raises(ValueError):
        OrderSpec(**kwargs)


def test_every_declared_order_spec_is_accepted():
    from repro.flowsim.policies.base import OrderSpec

    for name in ALL_POLICIES:
        spec = getattr(policy_by_name(name), "order_spec", None)
        if spec is not None:
            assert OrderSpec(spec.key, spec.descending, spec.alloc) == spec
