"""Error-injection tests: misbehaving plugins fail loudly, not silently.

Both engines accept user-supplied policies/schedulers; a buggy plugin
must produce a clear exception rather than a wrong result.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.flowsim.engine import FlowSimError, simulate
from repro.flowsim.policies.base import ActiveView, Policy
from repro.wsim.runtime import WsimError, simulate_ws, simulate_ws_stream
from repro.wsim.schedulers.base import WsScheduler
from tests.conftest import make_trace


class TestFlowsimPluginErrors:
    def test_policy_exception_propagates(self):
        class Exploding(Policy):
            name = "boom"

            def rates_array(self, t, m, job_ids, remaining, work, release, caps):
                raise RuntimeError("boom")

        with pytest.raises(RuntimeError, match="boom"):
            simulate(make_trace([1.0]), 1, Exploding())

    def test_nan_rates_rejected(self):
        class NanRates(Policy):
            name = "nan"

            def rates_array(self, t, m, job_ids, remaining, work, release, caps):
                return np.full(job_ids.size, np.nan)

        with pytest.raises(FlowSimError):
            simulate(make_trace([1.0]), 1, NanRates())

    def test_zeno_timer_detected(self):
        class ZenoTimer(Policy):
            name = "zeno"

            def rates_array(self, t, m, job_ids, remaining, work, release, caps):
                return np.zeros(job_ids.size)  # never works...

            def next_timer(self, view: ActiveView, rates) -> float:
                return view.t + 1e-12  # ...but always has a timer

        with pytest.raises(FlowSimError, match="events"):
            simulate(make_trace([1.0]), 1, ZenoTimer())

    def test_rates_of_wrong_dtype_handled(self):
        class IntRates(Policy):
            name = "intrates"

            def rates_array(self, t, m, job_ids, remaining, work, release, caps):
                # integer dtype is fine — the engine casts
                return np.ones(job_ids.size, dtype=np.int64)

        r = simulate(make_trace([2.0]), 1, IntRates())
        assert r.flow_times[0] == pytest.approx(2.0)


class TestWsimPluginErrors:
    def _trace(self):
        from repro.core.job import JobSpec, ParallelismMode
        from repro.dag.generators import chain
        from repro.workloads.traces import Trace

        d = chain(10, 1)
        return Trace(
            jobs=[
                JobSpec(0, 0.0, float(d.work), float(d.span), ParallelismMode.DAG, dag=d)
            ],
            m=2,
        )

    def test_scheduler_that_never_admits_stalls_loudly(self):
        class DoNothing(WsScheduler):
            name = "donothing"
            affinity = False

            def on_arrival(self, job):
                self.rt.active.append(job)  # active but never admitted

            def out_of_work(self, worker):
                self.idle(worker)

        with pytest.raises(WsimError, match="exceeded"):
            simulate_ws(self._trace(), 2, DoNothing())

    @pytest.mark.parametrize("streamed", [False, True])
    def test_scheduler_forgetting_active_breaks_completion(self, streamed):
        class ForgetsActive(WsScheduler):
            name = "forgets"
            affinity = False

            def on_arrival(self, job):
                pass  # violates the contract: job never enters rt.active

            def out_of_work(self, worker):
                self.idle(worker)

        # the runtime treats no-active as idle and jumps; with no future
        # arrivals it exits the loop and detects the admitted job that
        # never finished — the same whether the jobs come as a trace or
        # as a stream
        trace = self._trace()
        with pytest.raises(WsimError, match="unfinished jobs at end"):
            if streamed:
                simulate_ws_stream(trace.jobs, 2, ForgetsActive())
            else:
                simulate_ws(trace, 2, ForgetsActive())

    def test_scheduler_exception_propagates(self):
        class Exploding(WsScheduler):
            name = "boom"

            def on_arrival(self, job):
                raise RuntimeError("boom")

            def out_of_work(self, worker):  # pragma: no cover
                pass

        with pytest.raises(RuntimeError, match="boom"):
            simulate_ws(self._trace(), 2, Exploding())

    def test_mug_with_nonempty_deque_rejected(self):
        """The runtime refuses a structurally invalid mugging."""
        from repro.wsim.runtime import WsRuntime
        from repro.wsim.schedulers import DrepWS
        from repro.wsim.structures import WsDeque

        rt = WsRuntime(self._trace(), 2, DrepWS(), seed=0)
        rt.scheduler.reset(rt)
        rt._admit_arrivals()
        job = rt.active[0]
        worker = rt.workers[0]
        worker.job = job
        dq = WsDeque(job=job, owner=worker.wid)
        dq.push_bottom((job, 0))
        worker.dq = dq
        # ensure a muggable victim exists
        assert any(d.muggable for d in job.deques)
        with pytest.raises(WsimError, match="non-empty deque"):
            rt.steal_within(worker, job)
