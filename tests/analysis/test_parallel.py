"""Tests for the per-process trace memos (`repro.analysis.parallel`)
and the grid runner's flow cells that rebuild their traces through them."""

from __future__ import annotations

from repro.analysis import parallel as par_mod
from repro.analysis.parallel import _memoized_trace
from repro.analysis.pool import FlowSweepCell, run_flow_grid


def cell(**kw):
    defaults = dict(
        distribution="finance",
        load=0.5,
        m=2,
        mode="sequential",
        policy="srpt",
        n_jobs=120,
        seed=3,
    )
    defaults.update(kw)
    return FlowSweepCell(**defaults)


class TestFlowCell:
    def test_runs_inline(self):
        row = cell().run()
        assert row["mean_flow"] > 0
        assert row["scheduler"] == "SRPT"

    def test_policy_kwargs(self):
        row = cell(policy="laps", policy_kwargs=(("beta", 0.25),)).run()
        assert "LAPS(0.25)" == row["scheduler"]

    def test_picklable(self):
        import pickle

        c = cell()
        assert pickle.loads(pickle.dumps(c)) == c


class TestTraceMemo:
    def setup_method(self):
        par_mod._TRACE_MEMO.clear()

    def test_hit_returns_same_object(self):
        key = ("finance", 0.5, 2, 80, "sequential", 11)
        t1 = _memoized_trace(*key)
        t2 = _memoized_trace(*key)
        assert t1 is t2
        assert len(par_mod._TRACE_MEMO) == 1

    def test_distinct_keys_distinct_traces(self):
        t1 = _memoized_trace("finance", 0.5, 2, 80, "sequential", 11)
        t2 = _memoized_trace("finance", 0.5, 2, 80, "sequential", 12)
        assert t1 is not t2
        assert len(par_mod._TRACE_MEMO) == 2

    def test_memo_matches_direct_generation(self):
        from repro.core.job import ParallelismMode
        from repro.workloads.traces import generate_trace

        memo = _memoized_trace("finance", 0.6, 2, 60, "sequential", 7)
        direct = generate_trace(
            n_jobs=60,
            distribution="finance",
            load=0.6,
            m=2,
            mode=ParallelismMode("sequential"),
            seed=7,
        )
        assert [s.work for s in memo.jobs] == [s.work for s in direct.jobs]
        assert [s.release for s in memo.jobs] == [
            s.release for s in direct.jobs
        ]

    def test_fifo_eviction_bounds_size(self, monkeypatch):
        monkeypatch.setattr(par_mod, "_TRACE_MEMO_MAX", 3)
        for seed in range(5):
            _memoized_trace("finance", 0.5, 1, 30, "sequential", seed)
        assert len(par_mod._TRACE_MEMO) == 3
        # oldest entries were evicted first
        seeds = [key[5] for key in par_mod._TRACE_MEMO]
        assert seeds == [2, 3, 4]

    def test_cells_sharing_params_reuse_trace(self):
        rows = run_flow_grid(
            [cell(policy="srpt"), cell(policy="rr")], workers=1
        )
        assert len(par_mod._TRACE_MEMO) == 1
        assert rows[0]["mean_flow"] > 0
