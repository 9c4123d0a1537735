"""Parity: a grid-runner flow cell must reproduce the serial harness exactly."""

from __future__ import annotations

import pytest

from repro.analysis.experiments import run_flow_point
from repro.analysis.pool import FlowSweepCell
from repro.core.job import ParallelismMode
from repro.flowsim.policies import DrepSequential, RoundRobin, SRPT


def cell(**kw) -> FlowSweepCell:
    defaults = dict(
        distribution="finance",
        load=0.6,
        m=2,
        mode="sequential",
        policy="srpt",
        n_jobs=80,
        seed=32,
    )
    defaults.update(kw)
    return FlowSweepCell(**defaults)


class TestParity:
    @pytest.mark.parametrize("pol_name,factory", [
        ("srpt", SRPT),
        ("rr", RoundRobin),
        ("drep", DrepSequential),
    ])
    def test_cell_matches_harness(self, pol_name, factory):
        rows = run_flow_point(
            "finance",
            0.6,
            2,
            ParallelismMode.SEQUENTIAL,
            {"X": factory},
            n_jobs=150,
            seed=31,
        )
        harness_flow = rows[0]["mean_flow"]
        cell_flow = cell(policy=pol_name, n_jobs=150, seed=31).run()["mean_flow"]
        assert cell_flow == pytest.approx(harness_flow, rel=1e-12)

    def test_mode_plumbs_through(self):
        row = cell(mode="fully_parallel").run()
        assert row["mode"] == "fully_parallel"
        # fully parallel at m=2 ~ single resource: flows differ from the
        # sequential-mode cell on the same parameters
        seq = cell().run()
        assert row["mean_flow"] != seq["mean_flow"]

    def test_speed_plumbs_through(self):
        slow = cell(seed=33).run()
        fast = cell(seed=33, speed=2.0).run()
        assert fast["mean_flow"] < slow["mean_flow"]
