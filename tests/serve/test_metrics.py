"""Rolling metrics: windowing, percentiles and Prometheus exposition."""

from __future__ import annotations

import json
from collections import deque

import numpy as np
import pytest

from repro.serve.metrics import RollingMetrics


class UnprunedMetrics(RollingMetrics):
    """Reference that records every completion and prunes only on read."""

    def on_complete(self, t, flow, tenant=None):
        self.completed += 1
        self._flows.append((float(t), float(flow)))
        if tenant is not None:
            win = self._tenant(tenant)
            win.completed += 1
            win.flows.append((float(t), float(flow)))


class TestWindowing:
    def test_counts_and_mean(self):
        m = RollingMetrics(window=10.0)
        for t, f in [(1.0, 2.0), (2.0, 4.0), (3.0, 6.0)]:
            m.on_complete(t, f)
        w = m.windowed(now=5.0)
        assert w["count"] == 3
        assert w["mean_flow"] == pytest.approx(4.0)
        assert w["max_flow"] == pytest.approx(6.0)

    def test_old_completions_fall_out(self):
        m = RollingMetrics(window=10.0)
        m.on_complete(1.0, 100.0)
        m.on_complete(50.0, 2.0)
        w = m.windowed(now=55.0)
        assert w["count"] == 1
        assert w["mean_flow"] == pytest.approx(2.0)
        # lifetime counter unaffected by pruning
        assert m.completed == 2

    def test_percentiles_ordered(self):
        m = RollingMetrics(window=1000.0)
        for i in range(100):
            m.on_complete(float(i), float(i))
        w = m.windowed(now=100.0)
        assert w["p50_flow"] <= w["p95_flow"] <= w["p99_flow"] <= w["max_flow"]

    def test_empty_window_is_zeroes(self):
        w = RollingMetrics(window=5.0).windowed(now=100.0)
        assert w["count"] == 0
        assert w["mean_flow"] == 0.0
        assert w["throughput"] == 0.0

    def test_throughput_clips_to_elapsed_time(self):
        # 4 completions in the first 2 time units; window is 100 but only
        # 2 units have elapsed, so throughput is 4/2 not 4/100
        m = RollingMetrics(window=100.0)
        for t in (0.5, 1.0, 1.5, 2.0):
            m.on_complete(t, 1.0)
        assert m.windowed(now=2.0)["throughput"] == pytest.approx(2.0)

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            RollingMetrics(window=0.0)


class TestPrometheus:
    def test_exposition_format(self):
        m = RollingMetrics(window=50.0)
        m.on_submit(0.0)
        m.on_submit(1.0)
        m.on_shed(2.0)
        m.on_complete(3.0, 1.5)
        text = m.to_prometheus(now=4.0, active=1, backpressure=0.25)
        assert text.endswith("\n")
        lines = text.splitlines()
        samples = {
            line.split(" ")[0]: line.split(" ")[1]
            for line in lines
            if not line.startswith("#")
        }
        assert samples["drep_serve_jobs_submitted_total"] == "2"
        assert samples["drep_serve_jobs_shed_total"] == "1"
        assert samples["drep_serve_jobs_completed_total"] == "1"
        assert samples["drep_serve_active_jobs"] == "1"
        assert float(samples["drep_serve_flow_time_mean"]) == pytest.approx(1.5)
        assert float(samples["drep_serve_backpressure"]) == pytest.approx(0.25)
        assert 'drep_serve_flow_time{quantile="0.99"}' in text
        # every sample has HELP and TYPE headers
        for name in samples:
            base = name.split("{")[0]
            base = base.removesuffix("_sum").removesuffix("_count")
            assert any(
                line.startswith(f"# TYPE {base} ") for line in lines
            ), base

    def test_tenant_label_values_are_escaped(self):
        """Client-supplied tenant names must not break the exposition:
        backslash, double quote and newline are escaped per the
        Prometheus text format."""
        m = RollingMetrics(window=50.0)
        evil = 'bad"tenant\\with\nnewline'
        m.on_submit(0.0, tenant=evil)
        m.on_complete(1.0, 0.5, tenant=evil)
        text = m.to_prometheus(now=2.0)
        escaped = 'bad\\"tenant\\\\with\\nnewline'
        assert (
            f'drep_serve_tenant_jobs_total{{tenant="{escaped}",'
            f'outcome="submitted"}} 1'
        ) in text.splitlines()
        assert (
            f'drep_serve_tenant_flow_time_mean{{tenant="{escaped}"}} 0.5'
        ) in text.splitlines()
        # the raw name (embedded newline and all) must never appear
        assert evil not in text

    def test_counters_are_monotone_across_windows(self):
        m = RollingMetrics(window=1.0)
        m.on_complete(0.0, 1.0)
        m.windowed(now=100.0)  # prunes the deque
        text = m.to_prometheus(now=100.0)
        assert "drep_serve_jobs_completed_total 1" in text


class TestCheckpoint:
    def test_state_roundtrip(self):
        m = RollingMetrics(window=25.0)
        m.on_submit(0.0)
        m.on_complete(1.0, 3.0)
        m.on_shed(2.0)
        restored = RollingMetrics.from_state_dict(
            m.state_dict(), [(1.0, 3.0, None)]
        )
        assert restored.windowed(5.0) == m.windowed(5.0)
        assert (restored.submitted, restored.completed, restored.shed) == (
            1,
            1,
            1,
        )


class TestPruneOnComplete:
    @pytest.mark.parametrize("seed", range(5))
    def test_reads_match_unpruned_reference(self, seed):
        """Pruning at completion drops only what no later read could see:
        every read is byte-equal to a reference that keeps everything,
        and a never-read instance holds one window of completions."""
        rng = np.random.default_rng(seed)
        window = float(rng.choice([0.5, 5.0, 40.0]))
        read, ref, unread = (
            RollingMetrics(window),
            UnprunedMetrics(window),
            RollingMetrics(window),
        )
        everyone = (read, ref, unread)
        tenants = [None, "a", "b", "c"]
        finishes: list[float] = []
        recorded: list[tuple[float, float, str | None]] = []
        t = 0.0
        for _ in range(400):
            t += float(rng.exponential(1.0)) * float(rng.integers(0, 2))
            tenant = tenants[int(rng.integers(len(tenants)))]
            kind = rng.choice(["submit", "shed", "complete", "complete"])
            flow = float(rng.exponential(3.0))
            for m in everyone:
                if kind == "submit":
                    m.on_submit(t, tenant=tenant)
                elif kind == "shed":
                    m.on_shed(t, tenant=tenant)
                else:
                    m.on_complete(t, flow, tenant)
            if kind == "complete":
                recorded.append((t, flow, tenant))
                finishes.append(t)
                in_window = sum(1 for f in finishes if f >= t - window)
                assert len(unread._flows) <= in_window
                if tenant is not None:
                    assert len(unread._tenants[tenant].flows) <= in_window
            now = t + float(rng.exponential(0.5))
            assert json.dumps(read.windowed(now)) == json.dumps(
                ref.windowed(now)
            )
            assert read.to_prometheus(now, active=3) == ref.to_prometheus(
                now, active=3
            )
            # a checkpoint refills every deque from the completions
            for m in (read, unread):
                clone = RollingMetrics.from_state_dict(m.state_dict(), recorded)
                assert list(clone._flows) == list(m._flows)
                for name, win in m._tenants.items():
                    assert list(clone._tenants[name].flows) == list(win.flows)

    def test_unscraped_server_keeps_one_window(self):
        m = RollingMetrics(window=10.0)
        for i in range(10_000):
            m.on_complete(float(i), 1.0, tenant="t")
        assert len(m._flows) == len(m._tenants["t"].flows) == 11
        assert isinstance(m._flows, deque)
