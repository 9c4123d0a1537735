"""Tests for the deterministic grid runner (`repro.analysis.pool`).

The headline contract: for any worker count and chunk size, `run_grid`
returns exactly `[fn(t) for t in tasks]` — same rows, same order, same
bytes.  Everything else (counters, seed derivation, serial-sweep parity)
hangs off that.
"""

from __future__ import annotations

import pytest

from repro.analysis import pool
from repro.analysis.pool import (
    FlowSweepCell,
    default_chunk_size,
    flow_sweep_cells,
    replicate_flow,
    run_flow_grid,
    run_grid,
)
from repro.core.rng import derive_seed
from repro.perf.counters import PerfCounters


def _square(x: int) -> int:
    return x * x


class TestRunGrid:
    def test_serial_is_plain_map(self):
        assert run_grid(_square, range(7)) == [x * x for x in range(7)]

    def test_empty(self):
        assert run_grid(_square, [], workers=4) == []

    def test_pooled_equals_serial(self):
        tasks = list(range(23))
        serial = run_grid(_square, tasks, workers=1)
        assert run_grid(_square, tasks, workers=3) == serial
        assert run_grid(_square, tasks, workers=3, chunk_size=1) == serial
        assert run_grid(_square, tasks, workers=2, chunk_size=100) == serial

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            run_grid(_square, [1], workers=0)

    def test_counters(self):
        c = PerfCounters()
        run_grid(_square, range(10), workers=2, chunk_size=3, counters=c)
        assert c.pool_tasks == 10
        assert c.pool_chunks == 4  # ceil(10 / 3)
        assert c.pool_workers == 2

    def test_workers_capped_by_tasks(self):
        c = PerfCounters()
        run_grid(_square, [1, 2], workers=16, counters=c)
        assert c.pool_workers == 2

    def test_default_chunk_size(self):
        assert default_chunk_size(100, 4) == 7  # ceil(100 / 16)
        assert default_chunk_size(1, 8) == 1

    def test_default_chunk_size_degenerate_shapes(self):
        # more workers than tasks, zero tasks, zero workers: always >= 1
        assert default_chunk_size(2, 16) == 1
        assert default_chunk_size(0, 4) == 1
        assert default_chunk_size(10, 0) == 3  # workers clamped to 1

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError):
            run_grid(_square, [1, 2, 3], workers=2, chunk_size=0)
        with pytest.raises(ValueError):
            run_grid(_square, [1, 2, 3], workers=2, chunk_size=-4)

    def test_empty_tasks_skip_pool_and_counters(self):
        c = PerfCounters()
        assert run_grid(_square, [], workers=8, counters=c) == []
        assert c.as_dict() == {}

    def test_all_cores_means_available_cpus(self, monkeypatch):
        # workers=None and "auto" share one affinity-aware count, so a
        # process pinned to one CPU runs the grid inline either way
        monkeypatch.setattr(pool, "_available_cpus", lambda: 1)
        for workers in (None, "auto"):
            c = PerfCounters()
            assert run_grid(_square, range(8), workers=workers, counters=c) == [
                x * x for x in range(8)
            ]
            assert (c.pool_workers, c.pool_chunks) == (1, 1)

    def test_single_task_many_workers_runs_inline(self):
        c = PerfCounters()
        assert run_grid(_square, [6], workers=32, counters=c) == [36]
        assert c.pool_workers == 1  # clamped: no pool for one task
        assert c.pool_chunks == 1


class TestFlowGrid:
    def test_workers_1_equals_workers_4(self):
        cells = flow_sweep_cells(
            "finance", 0.7, "sequential", [2, 4], 80, seed=5, replicates=2
        )
        serial = run_flow_grid(cells, workers=1)
        pooled = run_flow_grid(cells, workers=4)
        assert serial == pooled

    def test_rows_match_serial_sweep(self):
        """Replicate 0 of the grid == run_flow_sweep, field for field."""
        from repro.analysis.experiments import flow_policy_factories, run_flow_sweep
        from repro.core.job import ParallelismMode

        mode = ParallelismMode.SEQUENTIAL
        grid_rows = run_flow_grid(
            flow_sweep_cells("finance", 0.6, mode, [2, 4], 100, seed=3)
        )
        sweep_rows = run_flow_sweep(
            "finance", 0.6, mode, [2, 4], 100, seed=3,
            policies=flow_policy_factories(mode),
        )
        assert len(grid_rows) == len(sweep_rows)
        for g, s in zip(grid_rows, sweep_rows):
            for key in s:
                if key == "figure":
                    continue
                assert g[key] == s[key], key

    def test_rows_have_no_process_dependent_fields(self):
        row = run_flow_grid(
            [FlowSweepCell("finance", 0.5, 2, "sequential", "srpt", 40, 0)]
        )[0]
        assert "pid" not in row
        assert set(row) == {
            "figure", "distribution", "load", "m", "mode", "scheduler",
            "mean_flow", "p99_flow", "preemptions", "switches",
            "utilization", "seed", "events",
        }

    def test_replicate_seeds_derived(self):
        cells = flow_sweep_cells(
            "finance", 0.5, "sequential", [2], 40, seed=9,
            policies=("srpt",), replicates=3,
        )
        assert [c.seed for c in cells] == [
            9, derive_seed(9, "rep/1"), derive_seed(9, "rep/2")
        ]

    def test_parallel_mode_default_policies(self):
        cells = flow_sweep_cells("bing", 0.5, "fully_parallel", [2], 40)
        assert [c.policy for c in cells] == ["srpt", "swf", "rr", "drep-par"]

    def test_rejects_bad_replicates(self):
        with pytest.raises(ValueError):
            flow_sweep_cells("finance", 0.5, "sequential", [2], 40, replicates=0)


class TestReplicateFlow:
    def test_pooled_equals_serial(self):
        kwargs = dict(
            policy="srpt", distribution="finance", load=0.6, m=2,
            n_jobs=60, seeds=(0, 1, 2),
        )
        serial = replicate_flow(workers=1, **kwargs)
        pooled = replicate_flow(workers=2, **kwargs)
        assert serial.values == pooled.values
        assert serial.label == "SRPT"

    def test_rejects_empty_seeds(self):
        with pytest.raises(ValueError):
            replicate_flow("srpt", "finance", 0.6, 2, 60, seeds=())
