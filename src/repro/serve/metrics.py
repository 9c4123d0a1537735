"""Rolling serving metrics with Prometheus text exposition.

All statistics are over a sliding window of the *simulation* clock
(``window`` sim-time units): the windowed mean/percentile flow times of
recently completed jobs, completion throughput, plus monotone lifetime
counters (submitted / completed / shed).  The window is a deque pruned
on every completion (completion times never decrease, so nothing a later
read could still see is dropped) and again on read, so recording is O(1)
amortized, reading is O(window size), and a server nobody scrapes keeps
one window of completions, not its whole history.

A checkpoint does not copy the window either.  Each deque only ever
appends completions in order and drops from the front, so it is always
the most recent ``kept`` completions (of its tenant, for a per-tenant
deque); :meth:`RollingMetrics.state_dict` records those counts and
:meth:`RollingMetrics.from_state_dict` refills the deques from the
caller's own completion records (the serving snapshot's job history).

:meth:`RollingMetrics.to_prometheus` renders the standard text
exposition format (``# HELP`` / ``# TYPE`` / sample lines) so the
server's ``metrics`` op can be scraped or eyeballed directly; flow-time
quantiles use the conventional ``summary`` representation.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence

import numpy as np

__all__ = ["RollingMetrics"]


class _TenantWindow:
    """Per-tenant counters plus a windowed deque of completions."""

    __slots__ = ("submitted", "completed", "shed", "flows")

    def __init__(self) -> None:
        self.submitted = 0
        self.completed = 0
        self.shed = 0
        #: (finish_time, flow_time) of completions, oldest first
        self.flows: deque[tuple[float, float]] = deque()

    def state_dict(self) -> dict:
        return {
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "kept": len(self.flows),
        }

    @classmethod
    def from_state_dict(
        cls, state: dict, flows: list[tuple[float, float]]
    ) -> "_TenantWindow":
        win = cls()
        win.submitted = int(state["submitted"])
        win.completed = int(state["completed"])
        win.shed = int(state["shed"])
        win.flows = _last(flows, int(state["kept"]))
        return win


class RollingMetrics:
    """Windowed flow-time and throughput statistics for one scheduler.

    When events carry a ``tenant`` label, the same statistics are also
    kept per tenant (the label threads from
    :meth:`repro.serve.online.OnlineScheduler.submit` through completion
    pumping), so the windowed block and the Prometheus exposition both
    gain per-tenant breakdowns without a second metrics object.
    """

    def __init__(self, window: float = 1000.0) -> None:
        if window <= 0:
            raise ValueError("window must be > 0")
        self.window = float(window)
        self.submitted = 0
        self.completed = 0
        self.shed = 0
        #: (finish_time, flow_time) of completions, oldest first
        self._flows: deque[tuple[float, float]] = deque()
        self._tenants: dict[str, _TenantWindow] = {}

    def _tenant(self, tenant: str) -> _TenantWindow:
        win = self._tenants.get(tenant)
        if win is None:
            win = self._tenants[tenant] = _TenantWindow()
        return win

    # -- recording ---------------------------------------------------------

    def on_submit(self, t: float, tenant: str | None = None) -> None:
        self.submitted += 1
        if tenant is not None:
            self._tenant(tenant).submitted += 1

    def on_shed(self, t: float, tenant: str | None = None) -> None:
        self.shed += 1
        if tenant is not None:
            self._tenant(tenant).shed += 1

    def on_complete(
        self, t: float, flow: float, tenant: str | None = None
    ) -> None:
        t = float(t)
        event = (t, float(flow))
        cutoff = t - self.window
        self.completed += 1
        self._flows.append(event)
        _drop_before(self._flows, cutoff)
        if tenant is not None:
            win = self._tenant(tenant)
            win.completed += 1
            win.flows.append(event)
            _drop_before(win.flows, cutoff)

    def prune(self, now: float) -> None:
        """Drop completions older than ``now - window``."""
        cutoff = now - self.window
        _drop_before(self._flows, cutoff)
        for win in self._tenants.values():
            _drop_before(win.flows, cutoff)

    # -- reading -----------------------------------------------------------

    def windowed(self, now: float) -> dict:
        """Windowed statistics at sim-time ``now`` (prunes as a side effect).

        ``throughput`` is completions per sim-time unit over the window —
        the window is clipped to ``now`` so a young server is not
        penalized for time that has not elapsed yet.
        """
        self.prune(now)
        flows = np.array([f for _, f in self._flows], dtype=float)
        span = min(self.window, now) if now > 0 else self.window
        out = {
            "now": now,
            "window": self.window,
            "count": int(flows.size),
            "throughput": float(flows.size) / span if span > 0 else 0.0,
        }
        if flows.size:
            out.update(
                mean_flow=float(flows.mean()),
                p50_flow=float(np.percentile(flows, 50)),
                p95_flow=float(np.percentile(flows, 95)),
                p99_flow=float(np.percentile(flows, 99)),
                max_flow=float(flows.max()),
            )
        else:
            out.update(
                mean_flow=0.0,
                p50_flow=0.0,
                p95_flow=0.0,
                p99_flow=0.0,
                max_flow=0.0,
            )
        if self._tenants:
            out["tenants"] = {
                name: self._tenant_windowed(name) for name in sorted(self._tenants)
            }
        return out

    def _tenant_windowed(self, tenant: str) -> dict:
        win = self._tenants[tenant]
        flows = np.array([f for _, f in win.flows], dtype=float)
        row = {
            "submitted": win.submitted,
            "completed": win.completed,
            "shed": win.shed,
            "count": int(flows.size),
            "mean_flow": float(flows.mean()) if flows.size else 0.0,
            "p99_flow": float(np.percentile(flows, 99)) if flows.size else 0.0,
        }
        return row

    def to_prometheus(self, now: float, active: int = 0, **gauges: float) -> str:
        """Prometheus text exposition of counters, gauges and the window.

        Extra keyword arguments become ``drep_serve_<name>`` gauges (e.g.
        ``backpressure=0.3``); metric names follow Prometheus conventions
        (``_total`` suffix on counters, base units, snake case).
        """
        w = self.windowed(now)
        lines = [
            "# HELP drep_serve_jobs_submitted_total Jobs accepted into the scheduler.",
            "# TYPE drep_serve_jobs_submitted_total counter",
            f"drep_serve_jobs_submitted_total {self.submitted}",
            "# HELP drep_serve_jobs_completed_total Jobs completed.",
            "# TYPE drep_serve_jobs_completed_total counter",
            f"drep_serve_jobs_completed_total {self.completed}",
            "# HELP drep_serve_jobs_shed_total Jobs rejected by admission control.",
            "# TYPE drep_serve_jobs_shed_total counter",
            f"drep_serve_jobs_shed_total {self.shed}",
            "# HELP drep_serve_active_jobs Jobs queued or running right now.",
            "# TYPE drep_serve_active_jobs gauge",
            f"drep_serve_active_jobs {active}",
            "# HELP drep_serve_clock_seconds Simulation clock.",
            "# TYPE drep_serve_clock_seconds gauge",
            f"drep_serve_clock_seconds {_fmt(now)}",
            "# HELP drep_serve_throughput_jobs Completions per sim-time unit over the window.",
            "# TYPE drep_serve_throughput_jobs gauge",
            f"drep_serve_throughput_jobs {_fmt(w['throughput'])}",
            "# HELP drep_serve_flow_time Windowed flow time of completed jobs.",
            "# TYPE drep_serve_flow_time summary",
            f'drep_serve_flow_time{{quantile="0.5"}} {_fmt(w["p50_flow"])}',
            f'drep_serve_flow_time{{quantile="0.95"}} {_fmt(w["p95_flow"])}',
            f'drep_serve_flow_time{{quantile="0.99"}} {_fmt(w["p99_flow"])}',
            f"drep_serve_flow_time_sum {_fmt(w['mean_flow'] * w['count'])}",
            f"drep_serve_flow_time_count {w['count']}",
            "# HELP drep_serve_flow_time_mean Windowed mean flow time.",
            "# TYPE drep_serve_flow_time_mean gauge",
            f"drep_serve_flow_time_mean {_fmt(w['mean_flow'])}",
        ]
        for name, value in gauges.items():
            lines += [
                f"# HELP drep_serve_{name} Scheduler gauge {name}.",
                f"# TYPE drep_serve_{name} gauge",
                f"drep_serve_{name} {_fmt(float(value))}",
            ]
        if self._tenants:
            lines += [
                "# HELP drep_serve_tenant_jobs_total Per-tenant job outcomes.",
                "# TYPE drep_serve_tenant_jobs_total counter",
            ]
            for name in sorted(self._tenants):
                win = self._tenants[name]
                label = _label_escape(name)
                for outcome, count in (
                    ("submitted", win.submitted),
                    ("completed", win.completed),
                    ("shed", win.shed),
                ):
                    lines.append(
                        f'drep_serve_tenant_jobs_total{{tenant="{label}",'
                        f'outcome="{outcome}"}} {count}'
                    )
            lines += [
                "# HELP drep_serve_tenant_flow_time_mean Per-tenant windowed mean flow time.",
                "# TYPE drep_serve_tenant_flow_time_mean gauge",
            ]
            for name in sorted(self._tenants):
                row = self._tenant_windowed(name)
                lines.append(
                    f'drep_serve_tenant_flow_time_mean'
                    f'{{tenant="{_label_escape(name)}"}} '
                    f"{_fmt(row['mean_flow'])}"
                )
        return "\n".join(lines) + "\n"

    # -- checkpointing -----------------------------------------------------

    def state_dict(self) -> dict:
        """Counters plus how many recent completions each deque keeps."""
        return {
            "window": self.window,
            "submitted": self.submitted,
            "completed": self.completed,
            "shed": self.shed,
            "kept": len(self._flows),
            "tenants": {
                name: win.state_dict()
                for name, win in sorted(self._tenants.items())
            },
        }

    @classmethod
    def from_state_dict(
        cls,
        state: dict,
        completions: Sequence[tuple[float, float, str | None]],
    ) -> "RollingMetrics":
        """Rebuild from :meth:`state_dict` output and the ``(t, flow,
        tenant)`` of every completion the checkpointed object recorded,
        oldest first."""
        metrics = cls(window=state["window"])
        metrics.submitted = int(state["submitted"])
        metrics.completed = int(state["completed"])
        metrics.shed = int(state["shed"])
        if len(completions) != metrics.completed:
            raise ValueError(
                f"metrics recorded {metrics.completed} completions, "
                f"got {len(completions)}"
            )
        metrics._flows = _last(completions, int(state["kept"]))
        by_tenant: dict[str, list[tuple[float, float]]] = {}
        for t, f, tenant in completions:
            if tenant is not None:
                by_tenant.setdefault(tenant, []).append((t, f))
        for name, win in state["tenants"].items():
            metrics._tenants[name] = _TenantWindow.from_state_dict(
                win, by_tenant.get(name, [])
            )
        return metrics


def _last(completions: Sequence[tuple], kept: int) -> deque:
    """The ``(t, flow)`` of the ``kept`` most recent completions."""
    if not 0 <= kept <= len(completions):
        raise ValueError(
            f"window keeps {kept} of {len(completions)} completions"
        )
    return deque((t, f) for t, f, *_ in completions[len(completions) - kept :])


def _drop_before(flows: deque[tuple[float, float]], cutoff: float) -> None:
    while flows and flows[0][0] < cutoff:
        flows.popleft()


def _fmt(x: float) -> str:
    """Prometheus-friendly float formatting (repr keeps full precision)."""
    return repr(float(x))


def _label_escape(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Tenant names are client-supplied, so a quote, backslash or newline
    would otherwise break the exposition line (and with it the scrape).
    """
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )
