"""Per-layer metrics from the span files a traced pass leaves behind.

Every traced process writes ``<pid>.npz`` (see ``tracing/spans.py``).  A
span's self time is its duration minus the time its child spans cover.
Spans are recorded on one call stack per process, so the children of one
span never overlap and the covered time is the sum of their durations,
each clipped to the parent's interval.  A layer's time is the sum of its
spans' self times, so layer times never double-count nested calls.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from common import quantile

#: (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("workloads.gen_s", "s", "lower"),
    ("workloads.swf_parse_s", "s", "lower"),
    ("flowsim.engine.self_s", "s", "lower"),
    ("flowsim.engine.us_per_event", "us", "lower"),
    ("flowsim.engine.events", "count", "lower"),
    ("flowsim.engine.batch_fold_ratio", "ratio", "higher"),
    ("flowsim.policies.rates_s", "s", "lower"),
    ("flowsim.policies.rates_calls", "count", "lower"),
    ("flowsim.order.s", "s", "lower"),
    ("flowsim.order.calls", "count", "lower"),
    ("flowsim.order.calendar_pops_per_event", "ratio", "lower"),
    ("core.metrics.fold_s", "s", "lower"),
    ("wsim.runtime.s", "s", "lower"),
    ("wsim.runtime.steps", "count", "lower"),
    ("wsim.runtime.jump_ratio", "ratio", "higher"),
    ("analysis.experiments.self_s", "s", "lower"),
    ("serve.server.cpu_us_per_req", "us", "lower"),
    ("serve.server.self_us_per_req", "us", "lower"),
    ("serve.server.busy_frac", "ratio", "lower"),
    ("serve.online.submit_us", "us", "lower"),
    ("serve.online.advance_us", "us", "lower"),
    ("serve.online.advance_p99_us", "us", "lower"),
    ("serve.metrics.us_per_req", "us", "lower"),
    ("serve.journal.append_us", "us", "lower"),
    ("serve.journal.snapshots", "count", "lower"),
    ("serve.journal.snapshot_ms_mean", "ms", "lower"),
    ("serve.journal.snapshot_ms_last", "ms", "lower"),
    ("serve.shard.router_self_us", "us", "lower"),
    ("serve.shard.hop_us", "us", "lower"),
    ("serve.shard.balance", "ratio", "higher"),
    ("loadgen.late_p99_ms", "ms", "lower"),
    ("loadgen.ack_p99_ms", "ms", "lower"),
    ("loadgen.ack_p999_ms", "ms", "lower"),
    ("loadgen.samples", "count", "higher"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

#: counters the span pass must reproduce from the counters-only pass
KERNEL_COUNTERS = ("flow.events", "flow.batch_jumps", "flow.order_ops", "flow.calendar_pops")


def self_times(parent: np.ndarray, start: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Duration of each span minus the time its direct children cover."""
    dur = end - start
    covered = np.zeros_like(dur)
    child = np.flatnonzero(parent >= 0)
    if child.size:
        p = parent[child]
        clipped = np.minimum(end[child], end[p]) - np.maximum(start[child], start[p])
        np.add.at(covered, p, np.maximum(clipped, 0.0))
    return dur - covered


@dataclass
class Spans:
    """Spans of every process of one traced pass, on one time axis."""

    names: list[str] = field(default_factory=list)
    name: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    pid: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.int64))
    top: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    start: np.ndarray = field(default_factory=lambda: np.zeros(0))
    end: np.ndarray = field(default_factory=lambda: np.zeros(0))
    self_s: np.ndarray = field(default_factory=lambda: np.zeros(0))
    counters: dict[str, int] = field(default_factory=dict)
    missing: set[str] = field(default_factory=set)
    processes: int = 0

    @classmethod
    def load(cls, *dirs: Path) -> "Spans":
        out = cls()
        ids: dict[str, int] = {}
        parts = {k: [] for k in ("name", "pid", "top", "start", "end", "self_s")}
        for directory in dirs:
            for path in sorted(Path(directory).glob("*.npz")):
                with np.load(path) as data:
                    meta = json.loads(str(data["meta"]))
                    local = np.array(
                        [ids.setdefault(n, len(ids)) for n in meta["names"]] or [0], dtype=np.int64
                    )
                    parent, start, end = data["parent"], data["start"], data["end"]
                    parts["name"].append(local[data["name"]] if data["name"].size else data["name"].astype(np.int64))
                    parts["pid"].append(np.full(start.size, meta["pid"], dtype=np.int64))
                    parts["top"].append(parent < 0)
                    parts["start"].append(start)
                    parts["end"].append(end)
                    parts["self_s"].append(self_times(parent, start, end))
                for k, v in meta["counters"].items():
                    out.counters[k] = out.counters.get(k, 0) + int(v)
                out.missing.update(meta["missing"])
                out.processes += 1
        out.names = sorted(ids, key=ids.get)
        for k, chunks in parts.items():
            if chunks:
                setattr(out, k, np.concatenate(chunks))
        return out

    def _mask(self, prefix: str) -> np.ndarray:
        """Spans whose name is ``prefix`` (a whole layer, or ``layer:function``)."""
        hit = np.array(
            [n == prefix or n.startswith(prefix + ":") for n in self.names] or [False], dtype=bool
        )
        return hit[self.name] if self.name.size else np.zeros(0, dtype=bool)

    def self_total(self, layer: str) -> float:
        return float(self.self_s[self._mask(layer)].sum())

    def count(self, layer: str) -> int:
        return int(self._mask(layer).sum())

    def durations(self, name: str) -> np.ndarray:
        mask = self._mask(name)
        order = np.argsort(self.start[mask], kind="stable")
        return (self.end[mask] - self.start[mask])[order]

    def busy_s(self, pid: int, t0: float, t1: float) -> float:
        """Time ``pid`` spent inside top-level spans that started in ``[t0, t1)``."""
        mask = self.top & (self.pid == pid) & (self.start >= t0) & (self.start < t1)
        return float((np.minimum(self.end[mask], t1) - self.start[mask]).sum())


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _mean(values: np.ndarray) -> float:
    return float(values.mean()) if values.size else 0.0


def layer_metrics(spans: Spans, serve: dict | None = None) -> dict[str, float]:
    """Every per-layer metric of one traced pass.

    ``serve`` carries what only the harness knows about a serving
    workload: ``requests`` in the traced pass, the front process ``pid``
    and open-loop window ``window`` for the busy fraction, the
    ``cpu_us_per_req`` read from ``/proc`` and the shard ``balance``.
    Metrics of layers a workload does not reach read 0.
    """
    c = spans.counters
    events = c.get("flow.events", 0)
    ws_steps = c.get("ws.events", 0)
    engine_s = spans.self_total("flowsim.engine")
    out = {
        "workloads.gen_s": spans.self_total("workloads.gen"),
        "workloads.swf_parse_s": spans.self_total("workloads.swf"),
        "flowsim.engine.self_s": engine_s,
        "flowsim.engine.us_per_event": _ratio(engine_s * 1e6, events),
        "flowsim.engine.events": float(events),
        "flowsim.engine.batch_fold_ratio": _ratio(c.get("flow.batch_events_folded", 0), events),
        "flowsim.policies.rates_s": spans.self_total("flowsim.policies"),
        "flowsim.policies.rates_calls": float(spans.count("flowsim.policies")),
        "flowsim.order.s": spans.self_total("flowsim.order"),
        "flowsim.order.calls": float(spans.count("flowsim.order")),
        "flowsim.order.calendar_pops_per_event": _ratio(c.get("flow.calendar_pops", 0), events),
        "core.metrics.fold_s": spans.self_total("core.metrics.fold"),
        "wsim.runtime.s": spans.self_total("wsim.runtime"),
        "wsim.runtime.steps": float(ws_steps),
        "wsim.runtime.jump_ratio": _ratio(c.get("ws.horizon_steps_saved", 0), ws_steps),
        "analysis.experiments.self_s": spans.self_total("analysis.experiments"),
    }
    for name, _unit, _better in PER_LAYER:
        out.setdefault(name, 0.0)
    if serve is None:
        return out
    requests = serve["requests"]
    advance = spans.durations("serve.online:OnlineScheduler.advance_to") * 1e6
    snapshots = spans.durations("serve.journal:RequestJournal.mark_snapshot") * 1e3
    t0, t1 = serve["window"]
    out.update(
        {
            "serve.server.cpu_us_per_req": serve["cpu_us_per_req"],
            "serve.server.self_us_per_req": _ratio(spans.self_total("serve.server") * 1e6, requests),
            "serve.server.busy_frac": _ratio(spans.busy_s(serve["pid"], t0, t1), t1 - t0),
            "serve.online.submit_us": _mean(spans.durations("serve.online:OnlineScheduler.submit")) * 1e6,
            "serve.online.advance_us": _mean(advance),
            "serve.online.advance_p99_us": quantile(advance.tolist(), 0.99) or 0.0,
            "serve.metrics.us_per_req": _ratio(spans.self_total("serve.metrics") * 1e6, requests),
            "serve.journal.append_us": _mean(spans.durations("serve.journal:RequestJournal.append")) * 1e6,
            "serve.journal.snapshots": float(snapshots.size),
            "serve.journal.snapshot_ms_mean": _mean(snapshots),
            "serve.journal.snapshot_ms_last": float(snapshots[-1]) if snapshots.size else 0.0,
            "serve.shard.router_self_us": _ratio(spans.self_total("serve.shard") * 1e6, requests),
            "serve.shard.hop_us": _mean(spans.durations("serve.shard.hop")) * 1e6,
            "serve.shard.balance": serve["balance"],
        }
    )
    return out
