"""Correctness gates: pinned seed-0 outputs, invariants for any seed, serve replays.

Each check returns a list of error strings; an empty list means it passed.
Seed 0 compares the program's output byte for byte (figures) or value for
value (stream summaries) with the files under ``bench/expected/``; every
other seed checks invariants that hold for any input.  The serving
workloads are checked against an offline replay on every seed.
"""

from __future__ import annotations

import json
import math

from common import EXPECTED

#: printed figure tables carry 4 significant digits
TABLE_RTOL = 1e-3
#: the live tier's existing ``--verify`` tolerance, relative to the largest flow
VERIFY_RTOL = 1e-9
#: summary fields that differ run to run (time and memory of the run itself)
VOLATILE = ("wall_s", "peak_rss_mb")


def parse_tables(text: str) -> list[dict]:
    """Split figure output into ``{"columns", "rows"}`` blocks, one per table.

    ``rows`` maps each sweep value (first column) to ``{column: value}``.
    """
    blocks: list[dict] = []
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        if not lines[i].startswith("# "):
            i += 1
            continue
        header = lines[i + 1].split()
        rows = {}
        i += 3  # title, header, separator
        while i < len(lines) and lines[i].strip() and not lines[i].startswith("#"):
            cells = lines[i].split()
            rows[float(cells[0])] = dict(zip(header[1:], map(float, cells[1:])))
            i += 1
        blocks.append({"columns": header[1:], "rows": rows})
    return blocks


#: smallest share of accepted jobs any shard may receive
MIN_SHARD_SHARE = 0.2


def engagement_errors(
    workload: str,
    order_calls: int | None = None,
    snapshots: int | None = None,
    balance: float | None = None,
) -> list[str]:
    """Each workload still exercises (or still bypasses) the layer it is for.

    Order-structure calls happen only on ``stream_overload``, journal
    snapshots only on ``serve_sharded``, and every shard gets at least
    ``MIN_SHARD_SHARE`` of the accepted jobs.  ``None`` = not observable
    in this pass.
    """
    errors = []
    if order_calls is not None and (order_calls > 0) != (workload == "stream_overload"):
        errors.append(f"{workload}: {order_calls} order-structure calls")
    if snapshots is not None and (snapshots > 0) != (workload == "serve_sharded"):
        errors.append(f"{workload}: {snapshots} journal snapshots")
    if balance is not None and balance < MIN_SHARD_SHARE:
        errors.append(f"{workload}: smallest shard got {balance:.1%} of accepted jobs")
    return errors


# -- figures ---------------------------------------------------------------------

#: jobs per trace in each figure at the paper defaults the workload runs
FIGURE_JOBS = {"fig1": 5000, "fig2": 5000, "fig3": 300}


def figure_lower_bounds(seed: int, fig: str, xs: list[float]) -> dict[float, float]:
    """Mean minimum flow per sweep point: no schedule can average below it.

    A job's minimum flow is its span (the time it needs on the whole
    machine); the traces come from the same recipes the figures use.
    """
    import numpy as np

    from repro.core.job import ParallelismMode
    from repro.workloads.traces import generate_trace

    if fig == "fig3":
        from repro.analysis.parallel import memoized_ws_trace

        return {
            x: float(np.mean([j.span for j in memoized_ws_trace("finance", x, 16, FIGURE_JOBS[fig], 400, 32, seed).jobs]))
            for x in xs
        }
    mode = ParallelismMode.SEQUENTIAL if fig == "fig1" else ParallelismMode.FULLY_PARALLEL
    return {
        x: float(np.mean([j.span for j in generate_trace(FIGURE_JOBS[fig], "finance", 0.5, int(x), mode=mode, seed=seed).jobs]))
        for x in xs
    }


def check_figures(stdout: str, seed: int) -> list[str]:
    """Seed 0: byte-exact figures; otherwise complete, bounded tables."""
    if seed == 0:
        expected = (EXPECTED / "figures_seed0.txt").read_text()
        if stdout != expected:
            return ["figures: output differs from bench/expected/figures_seed0.txt"]
        return []
    errors = []
    blocks = parse_tables(stdout)
    shapes = {"fig1": (7, 4), "fig2": (7, 4), "fig3": (3, 4)}
    if len(blocks) != 3:
        return [f"figures: expected 3 tables, got {len(blocks)}"]
    for fig, block in zip(("fig1", "fig2", "fig3"), blocks):
        rows, cols = shapes[fig]
        if len(block["rows"]) != rows or len(block["columns"]) != cols:
            errors.append(f"{fig}: table is {len(block['rows'])}x{len(block['columns'])}, want {rows}x{cols}")
            continue
        bounds = figure_lower_bounds(seed, fig, sorted(block["rows"]))
        for x, row in block["rows"].items():
            for name, value in row.items():
                if not (math.isfinite(value) and value >= bounds[x] * (1 - TABLE_RTOL)):
                    errors.append(f"{fig} x={x:g} {name}: mean flow {value} below the mean minimum flow {bounds[x]:.6g}")
            # SRPT minimizes mean flow on one processor, and fully parallel
            # jobs on m processors behave as one processor m times faster
            if fig == "fig2" or (fig == "fig1" and x == 1):
                best = min(row.values())
                if row["SRPT"] > best * (1 + TABLE_RTOL):
                    errors.append(f"{fig} x={x:g}: SRPT {row['SRPT']} above another policy's {best}")
    return errors


# -- streams ---------------------------------------------------------------------------


def strip_volatile(summary: dict) -> dict:
    out = dict(summary)
    out["perf"] = {k: v for k, v in summary.get("perf", {}).items() if k not in VOLATILE}
    return out


def check_stream(summary: dict, workload: str, seed: int, n_jobs: int) -> list[str]:
    """Seed 0: the pinned summary; any seed: every job done, no flow below its minimum."""
    errors = []
    if seed == 0:
        expected = json.loads((EXPECTED / f"{workload}_seed0.json").read_text())
        if strip_volatile(summary) != expected:
            errors.append(f"{workload}: summary differs from bench/expected/{workload}_seed0.json")
    if summary["n_jobs"] != n_jobs:
        errors.append(f"{workload}: {summary['n_jobs']} of {n_jobs} jobs completed")
    # per-job flows are not printed by a streamed run; a job finishing
    # faster than its minimum flow would pull the slowdown moments below 1
    if not summary["mean_slowdown"] >= 1.0 - 1e-12 or not summary["max_slowdown"] >= 1.0:
        errors.append(f"{workload}: slowdown below 1 (mean {summary['mean_slowdown']}, max {summary['max_slowdown']})")
    if not 0 < summary["p50_flow"] <= summary["p99_flow"] <= summary["max_flow"]:
        errors.append(f"{workload}: flow quantiles out of order")
    if summary["events"] < n_jobs:
        errors.append(f"{workload}: {summary['events']} events for {n_jobs} jobs")
    return errors


# -- serving -------------------------------------------------------------------------------


def offline_flows(specs: list, m: int, policy: str, seed: int):
    """Flow times of an offline ``simulate`` of ``specs`` (re-indexed densely)."""
    from dataclasses import replace

    from repro.flowsim.engine import FlowSimConfig, simulate
    from repro.flowsim.policies import policy_by_name
    from repro.workloads.traces import Trace

    jobs = [replace(s, job_id=k) for k, s in enumerate(specs)]
    result = simulate(Trace(jobs=jobs, name="bench-replay"), m, policy_by_name(policy), seed=seed, config=FlowSimConfig())
    return result.flow_times


def compare_flows(label: str, online: list[float], specs: list, m: int, policy: str, seed: int) -> list[str]:
    """Drained flows equal an offline replay, and none beats its job's span."""
    import numpy as np

    online_a = np.asarray(online, dtype=float)
    if online_a.shape != (len(specs),):
        return [f"{label}: {online_a.size} flow times for {len(specs)} accepted jobs"]
    errors = []
    spans = np.array([s.span for s in specs])
    if (online_a < spans * (1 - VERIFY_RTOL)).any():
        errors.append(f"{label}: a job finished faster than its minimum flow")
    offline = offline_flows(specs, m, policy, seed)
    diff = float(np.max(np.abs(online_a - offline))) if online_a.size else 0.0
    scale = max(1.0, float(np.max(np.abs(offline), initial=0.0)))
    if diff > VERIFY_RTOL * scale:
        errors.append(f"{label}: online flows differ from offline simulate by {diff:.3g}")
    return errors


def check_serve_sharded(
    flows: list[float], specs: list, tenants: list[str], shards: int, m: int, policy: str, seed: int
) -> list[str]:
    """Split the merged report by ``HashRing`` route; check each shard on its seed."""
    from repro.serve.shard import HashRing, shard_seed

    if len(flows) != len(specs):
        return [f"serve_sharded: {len(flows)} flow times for {len(specs)} jobs"]
    names = [f"shard/{i}" for i in range(shards)]
    ring = HashRing(names, seed=seed)
    routed = [ring.route(t) for t in tenants]
    errors = []
    for i, name in enumerate(names):
        idx = [k for k, r in enumerate(routed) if r == name]
        errors += compare_flows(
            f"serve_sharded {name}",
            [flows[k] for k in idx],
            [specs[k] for k in idx],
            m,
            policy,
            shard_seed(seed, i),
        )
    return errors
