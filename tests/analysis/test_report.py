"""Tests for the reproduction report generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.analysis.report import (
    ReportConfig,
    build_report,
    tenant_breakdown,
    write_report,
)
from repro.flowsim.policies import SRPT
from repro.serve.online import OnlineScheduler

TINY = ReportConfig(
    flow_jobs=60,
    ws_jobs=10,
    m_values=(1, 2),
    loads=(0.5,),
    ws_loads=(0.5,),
    ws_m=2,
    distributions=("finance",),
    seed=3,
)


class TestReportConfig:
    def test_defaults_valid(self):
        ReportConfig()

    def test_invalid_jobs(self):
        with pytest.raises(ValueError):
            ReportConfig(flow_jobs=0)

    def test_invalid_sweeps(self):
        with pytest.raises(ValueError):
            ReportConfig(m_values=())


class TestBuildReport:
    @pytest.fixture(scope="class")
    def report(self):
        return build_report(TINY)

    def test_has_all_sections(self, report):
        assert "# DREP reproduction report" in report
        assert "## Figure 1 (sequential jobs)" in report
        assert "## Figure 2 (fully parallel jobs)" in report
        assert "## Figure 3 (work-stealing runtime)" in report
        assert "## Theorem 1.2" in report

    def test_series_present(self, report):
        for name in ("SRPT", "RR", "DREP", "steal-first", "admit-first"):
            assert name in report

    def test_plots_rendered(self, report):
        assert "mean flow vs m" in report
        assert "A=" in report  # plot legend markers

    def test_budget_lines(self, report):
        assert "preempt/job" in report

    def test_write_report(self, tmp_path):
        path = write_report(tmp_path / "sub" / "report.md", TINY)
        assert path.exists()
        assert path.read_text().startswith("# DREP reproduction report")


class TestTenantBreakdown:
    """Per-tenant rows from a drain's grouped flow times."""

    @pytest.fixture(scope="class")
    def flows(self):
        sched = OnlineScheduler(2, SRPT(), seed=0)
        for i in range(24):
            sched.submit(
                work=1.0 + i % 5,
                release=0.5 * i,
                tenant="zeta" if i % 3 == 0 else "alpha",
            )
        sched.drain()
        flows = sched.flows_by_tenant()
        assert list(flows) == ["zeta", "alpha"]  # completion order
        return flows

    def test_rows_match_numpy(self, flows):
        rows = tenant_breakdown(flows)
        assert [r["tenant"] for r in rows] == ["alpha", "zeta"]
        assert [r["count"] for r in rows] == [16, 8]
        for row in rows:
            f = np.asarray(flows[row["tenant"]])
            assert row == {
                "tenant": row["tenant"],
                "count": f.size,
                "mean_flow": f.mean(),
                "p95_flow": np.percentile(f, 95),
                "p99_flow": np.percentile(f, 99),
                "max_flow": f.max(),
            }

    def test_slo_attainment(self, flows):
        slo = float(np.median(np.concatenate(list(flows.values()))))
        rows = tenant_breakdown(flows, slo=slo)
        assert [r["slo"] for r in rows] == [slo, slo]
        assert [r["slo_attainment"] for r in rows] == [
            np.count_nonzero(np.asarray(flows[t]) <= slo) / len(flows[t])
            for t in ("alpha", "zeta")
        ]
        assert 0.0 < rows[0]["slo_attainment"] < 1.0
        assert [
            {k: v for k, v in r.items() if not k.startswith("slo")} for r in rows
        ] == tenant_breakdown(flows)

    def test_empty_list_is_an_all_zero_row(self):
        zero = {
            "tenant": "idle",
            "count": 0,
            "mean_flow": 0.0,
            "p95_flow": 0.0,
            "p99_flow": 0.0,
            "max_flow": 0.0,
        }
        assert tenant_breakdown({"idle": []}) == [zero]
        assert tenant_breakdown({"idle": []}, slo=2.0) == [
            {**zero, "slo": 2.0, "slo_attainment": 1.0}
        ]
