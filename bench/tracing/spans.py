"""Span recorder and class-level layer wrappers for traced benchmark passes.

Loaded only in traced passes, through the ``sitecustomize`` module next to
this file (its directory is put on ``PYTHONPATH``), so every Python process
of a workload installs the same wrappers before the program starts: the
CLI process, the server, and each shard subprocess the router spawns.
Untraced passes never put this directory on the path.

Two modes, chosen by ``BENCH_TRACE_MODE``:

``counters``
    No spans.  Each flowsim engine (``FlowStepper``) and wsim runtime
    (``WsRuntime``) has its ``PerfCounters`` folded into process totals
    when it dies or at exit.  This is the baseline pass of a traced run:
    its counters are what the span pass must reproduce.
``spans``
    The counters, plus one span per call into a layer's public functions:
    name, start, end and parent.  Spans live in flat in-memory arrays and
    are written to ``BENCH_TRACE_DIR/<pid>.npz`` at exit.

Wrapping is done on the defining class (or module), never on instances, so
method-identity checks the engine makes (``type(p).rates_array is not
Policy.rates_array``) keep their answers: a policy that overrides a method
gets its own wrapper, one that inherits still resolves to the base's
unwrapped function.
"""

from __future__ import annotations

import atexit
import functools
import importlib
import inspect
import json
import os
import sys
import time
import weakref
from array import array

#: layer -> [(module, qualified attribute)] of the public entry points timed.
#: Policy rate methods and ``JobStream.__next__`` are added by ``install``.
TARGETS: dict[str, list[tuple[str, str]]] = {
    "workloads.gen": [
        ("repro.workloads.traces", "generate_trace"),
        ("repro.workloads.traces", "attach_dags"),
        ("repro.analysis.experiments", "scale_trace"),
    ],
    "flowsim.engine": [
        ("repro.flowsim.engine", "simulate"),
        ("repro.flowsim.engine", "FlowStepper.add_job"),
        ("repro.flowsim.engine", "FlowStepper.add_jobs"),
        ("repro.flowsim.engine", "FlowStepper.step"),
        ("repro.flowsim.engine", "FlowStepper.advance_to"),
        ("repro.flowsim.engine", "FlowStepper.drain"),
        ("repro.flowsim.engine", "FlowStepper.result"),
        ("repro.flowsim.engine", "FlowStepper.state_dict"),
        ("repro.flowsim.stream", "simulate_stream"),
    ],
    "flowsim.order": [
        ("repro.flowsim.order", "OrderIndex.insert"),
        ("repro.flowsim.order", "OrderIndex.remove"),
        ("repro.flowsim.order", "OrderIndex.select"),
        ("repro.flowsim.order", "OrderIndex.rank"),
        ("repro.flowsim.order", "OrderIndex.head"),
        ("repro.flowsim.order", "CompletionCalendar.update"),
        ("repro.flowsim.order", "CompletionCalendar.discard"),
        ("repro.flowsim.order", "CompletionCalendar.min_quotient"),
        ("repro.flowsim.order", "CompletionCalendar.clear"),
        ("repro.flowsim.order", "sparse_sum"),
    ],
    "core.metrics.fold": [
        ("repro.flowsim.engine", "FlowStepper.harvest"),
        ("repro.core.metrics", "StreamingMetrics.add_batch"),
        ("repro.core.metrics", "StreamingMetrics.add"),
    ],
    "wsim.runtime": [
        ("repro.wsim.runtime", "WsRuntime.run"),
        ("repro.wsim.runtime", "simulate_ws"),
        ("repro.wsim.runtime", "simulate_ws_stream"),
    ],
    "analysis.experiments": [
        ("repro.analysis.experiments", "run_flow_sweep"),
        ("repro.analysis.experiments", "run_flow_point"),
        ("repro.analysis.experiments", "run_ws_sweep"),
        ("repro.analysis.experiments", "run_ws_point"),
        ("repro.analysis.pool", "run_grid"),
        ("repro.analysis.pool", "run_flow_grid"),
        ("repro.analysis.pool", "run_ws_grid"),
        ("repro.analysis.pool", "FlowSweepCell.run"),
        ("repro.analysis.pool", "WsSweepCell.run"),
        ("repro.analysis.parallel", "memoized_trace"),
        ("repro.analysis.parallel", "memoized_ws_trace"),
        ("repro.analysis.tables", "series_table"),
        ("repro.analysis.tables", "format_table"),
        ("repro.analysis.report", "stream_report"),
    ],
    # request handling has no public per-request method: the boundary is
    # the line dispatcher (decode + op) and the response encoder
    "serve.server": [
        ("repro.serve.server", "SchedulerServer._dispatch_line"),
        ("repro.serve.server", "_encode_response"),
    ],
    "serve.online": [
        ("repro.serve.online", "OnlineScheduler.submit"),
        ("repro.serve.online", "OnlineScheduler.advance_to"),
        ("repro.serve.online", "OnlineScheduler.drain"),
        ("repro.serve.online", "OnlineScheduler.stats"),
    ],
    "serve.metrics": [
        ("repro.serve.metrics", "RollingMetrics.on_submit"),
        ("repro.serve.metrics", "RollingMetrics.on_shed"),
        ("repro.serve.metrics", "RollingMetrics.on_complete"),
        ("repro.serve.metrics", "RollingMetrics.prune"),
        ("repro.serve.metrics", "RollingMetrics.windowed"),
        ("repro.serve.metrics", "RollingMetrics.to_prometheus"),
    ],
    "serve.journal": [
        ("repro.serve.journal", "RequestJournal.append"),
        ("repro.serve.journal", "RequestJournal.maybe_snapshot"),
        ("repro.serve.journal", "RequestJournal.mark_snapshot"),
    ],
    "serve.shard": [
        ("repro.serve.shard", "ShardFrontend._dispatch"),
        ("repro.serve.shard", "ShardRouter.submit"),
        ("repro.serve.shard", "ShardRouter.advance_to"),
        ("repro.serve.shard", "ShardRouter.stats"),
        ("repro.serve.shard", "ShardRouter.drain"),
    ],
    "serve.shard.hop": [
        ("repro.serve.shard", "SubprocessShard.call"),
    ],
}

POLICY_METHODS = ("rates", "rates_array", "rates_array_patch")

#: PerfCounters fields folded per engine kind
FLOW_COUNTERS = (
    "events",
    "batch_jumps",
    "batch_events_folded",
    "order_ops",
    "calendar_pops",
)
WS_COUNTERS = ("events", "horizon_jumps", "horizon_steps_saved")


class Recorder:
    """Flat, append-only span store for one process.

    A span is ``(name id, parent index, start, end)``; the parent is the
    span open on this process's call stack when it started (-1 at the
    top).  All times are ``time.perf_counter`` seconds, which is
    system-wide, so spans of different processes share one time axis.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, fn, name: str):
        """A wrapper recording one span per call of ``fn``."""
        nid = self.intern(name)
        now = time.perf_counter
        stack = self.stack
        push, pop = stack.append, stack.pop
        n_append, p_append = self.name.append, self.parent.append
        s_append, e_append = self.start.append, self.end.append
        starts, ends = self.start, self.end

        if inspect.iscoroutinefunction(fn):

            async def async_wrapper(*args, **kwargs):
                i = len(starts)
                n_append(nid)
                p_append(stack[-1] if stack else -1)
                s_append(now())
                e_append(0.0)
                push(i)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    # another task may have opened spans while this one
                    # was suspended; remove exactly this span
                    if stack and stack[-1] == i:
                        pop()
                    elif i in stack:
                        stack.remove(i)
                    ends[i] = now()

            return functools.update_wrapper(async_wrapper, fn)

        def wrapper(*args, **kwargs):
            i = len(starts)
            n_append(nid)
            p_append(stack[-1] if stack else -1)
            s_append(now())
            e_append(0.0)
            push(i)
            try:
                return fn(*args, **kwargs)
            finally:
                pop()
                ends[i] = now()

        return functools.update_wrapper(wrapper, fn)

    def save(self, path: str, counters: dict, missing: list[str]) -> None:
        """Write the spans, the name table and ``counters`` to ``path`` (npz)."""
        import numpy as np

        meta = {"pid": os.getpid(), "names": self.names, "counters": counters, "missing": missing}
        np.savez(
            path,
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            meta=np.array(json.dumps(meta)),
        )


class Counters:
    """Process totals of engine ``PerfCounters``, folded as engines die."""

    def __init__(self) -> None:
        self.totals = {f"flow.{k}": 0 for k in FLOW_COUNTERS}
        self.totals.update({f"ws.{k}": 0 for k in WS_COUNTERS})
        self.totals["flow.engines"] = 0
        self.totals["ws.runtimes"] = 0
        self._pending: list[weakref.finalize] = []

    def _fold(self, prefix: str, fields: tuple[str, ...], perf) -> None:
        for k in fields:
            self.totals[f"{prefix}.{k}"] += int(getattr(perf, k))

    def watch_init(self, init, prefix: str, fields: tuple[str, ...], tally: str):
        """Wrap an engine ``__init__`` so the engine's counters are folded."""
        counters = self

        def __init__(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            counters.totals[tally] += 1
            # the PerfCounters object outlives the engine inside the
            # finalizer, which reads it once the engine is gone
            counters._pending.append(
                weakref.finalize(obj, counters._fold, prefix, fields, obj.perf)
            )

        return functools.update_wrapper(__init__, init)

    def flush(self) -> None:
        """Fold every engine still alive (calling a finalizer runs it once)."""
        for fin in self._pending:
            fin()
        self._pending.clear()


def _resolve(module: str, qualname: str):
    """``(owner, attribute name, function)`` or ``None`` when absent."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if not callable(fn):
        return None
    return owner, attr, fn


def _rebind(original, replacement) -> None:
    """Point every ``repro`` module's name for ``original`` at ``replacement``.

    Modules that ran ``from x import f`` before the wrapper was installed
    hold their own reference; class attributes need no such pass.
    """
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "repro" or modname.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, key, replacement)


def _policy_targets() -> list[tuple[str, str]]:
    """Every policy class that defines a rate method in its own body."""
    import repro.flowsim.policies  # noqa: F401  (registers all policies)
    from repro.flowsim.policies.base import Policy

    out = []
    seen = set()
    todo = list(Policy.__subclasses__())
    while todo:
        cls = todo.pop()
        if cls in seen:
            continue
        seen.add(cls)
        todo.extend(cls.__subclasses__())
        for meth in POLICY_METHODS:
            if meth in vars(cls):
                out.append((cls.__module__, f"{cls.__qualname__}.{meth}"))
    return sorted(out)


def install(out_dir: str, mode: str) -> None:
    """Install counters (and, in ``spans`` mode, span wrappers); dump at exit."""
    if mode not in ("counters", "spans"):
        raise ValueError(f"unknown trace mode {mode!r}")
    counters = Counters()
    from repro.flowsim.engine import FlowStepper
    from repro.wsim.runtime import WsRuntime

    FlowStepper.__init__ = counters.watch_init(
        FlowStepper.__init__, "flow", FLOW_COUNTERS, "flow.engines"
    )
    WsRuntime.__init__ = counters.watch_init(
        WsRuntime.__init__, "ws", WS_COUNTERS, "ws.runtimes"
    )

    recorder = Recorder()
    missing: list[str] = []
    if mode == "spans":
        targets = {layer: list(items) for layer, items in TARGETS.items()}
        targets["flowsim.policies"] = _policy_targets()
        for layer, items in targets.items():
            for module, qualname in items:
                found = _resolve(module, qualname)
                if found is None:
                    missing.append(f"{module}:{qualname}")
                    continue
                owner, attr, fn = found
                wrapped = recorder.wrap(fn, f"{layer}:{qualname}")
                setattr(owner, attr, wrapped)
                if not isinstance(owner, type):
                    _rebind(fn, wrapped)
        _wrap_job_stream(recorder)

    def dump() -> None:
        counters.flush()
        recorder.save(os.path.join(out_dir, f"{os.getpid()}.npz"), counters.totals, missing)

    atexit.register(dump)


def _wrap_job_stream(recorder: Recorder) -> None:
    """Time job-stream pulls, attributed to the SWF parser or the generator.

    ``JobStream`` is the one iterator every streamed source goes through;
    an SWF-backed stream carries ``meta["format"] == "swf"``.
    """
    from repro.workloads.stream import JobStream

    original = JobStream.__next__
    gen = recorder.wrap(original, "workloads.gen:JobStream.__next__")
    swf = recorder.wrap(original, "workloads.swf:JobStream.__next__")

    def __next__(self):
        if self.meta.get("format") == "swf":
            return swf(self)
        return gen(self)

    JobStream.__next__ = functools.update_wrapper(__next__, original)
