#!/usr/bin/env python
"""CI smoke for the streaming path (`make stream-smoke`).

Pushes 100k generated jobs through `simulate_stream` without ever
materializing the trace and requires the process peak RSS (via
`resource.getrusage`) to stay under a ceiling far below what the dense
arrays for that trace would need.  Then replays the frozen
`flowsim_stream_1m` row of `BENCH_10.json` (10⁶ jobs, SRPT, m=16) and
requires its `events`, `n_jobs` and `mean_flow` bit for bit, and
spot-checks the wsim streaming driver and the `drep-sim stream` CLI on
the sanitized SWF fixture.

The ceiling catches a materialized trace, not a slow per-job leak:
flatness in the job count is tier-1's
`test_memory_stays_flat_with_job_count`.  Exits non-zero on the first
violation.  Needs only the package itself — no pytest.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

N_JOBS = 100_000
#: generous for CI noise (interpreter + numpy alone are ~50 MB) yet far
#: below a materialized 100k-job trace with per-job result arrays
RSS_CEILING_MB = 400.0


def fail(msg: str) -> None:
    print(f"stream-smoke: FAIL — {msg}", file=sys.stderr)
    sys.exit(1)


def rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is KiB on Linux, bytes on some BSDs
    return peak / 1024.0 if peak < (1 << 40) else peak / (1024.0 * 1024.0)


def main() -> None:
    from repro.core.job import ParallelismMode
    from repro.flowsim import policy_by_name, simulate_stream
    from repro.workloads.stream import attach_dags_stream, generate_stream
    from repro.wsim import simulate_ws_stream, ws_scheduler_by_name

    # -- flowsim: 100k jobs, never materialized -------------------------
    res = simulate_stream(
        generate_stream(N_JOBS, "exponential", 0.8, 16, seed=7),
        16,
        policy_by_name("srpt"),
        seed=7,
    )
    if res.n_jobs != N_JOBS:
        fail(f"expected {N_JOBS} completions, got {res.n_jobs}")
    if not res.mean_flow > 0:
        fail(f"degenerate mean flow {res.mean_flow}")
    if res.metrics.quantiles_exact:
        fail("100k jobs should exceed the exact-quantile reservoir")
    if not res.extra["perf"].get("peak_rss_mb", 0) > 0:
        fail("perf counters did not capture peak RSS")
    after_flowsim = rss_mb()
    if after_flowsim > RSS_CEILING_MB:
        fail(
            f"peak RSS {after_flowsim:.1f} MB exceeds the "
            f"{RSS_CEILING_MB:.0f} MB ceiling after the flowsim stream"
        )
    print(
        f"stream-smoke: flowsim {N_JOBS} jobs, mean_flow="
        f"{res.mean_flow:.4f}, peak RSS {after_flowsim:.1f} MB"
    )

    # -- BENCH_10's flowsim_stream_1m row: 10^6 jobs, bit for bit -------
    want = json.loads((REPO / "BENCH_10.json").read_text())["benches"][
        "flowsim_stream_1m"
    ]
    big = simulate_stream(
        generate_stream(1_000_000, "exponential", 0.8, 16, seed=309),
        16,
        policy_by_name("srpt"),
        seed=309,
    )
    got = {
        "events": big.extra["events"],
        "n_jobs": big.n_jobs,
        "mean_flow": big.mean_flow,
    }
    for key, value in got.items():
        if value != want[key]:
            fail(f"flowsim_stream_1m {key} {value!r} != BENCH_10 {want[key]!r}")
    print(
        f"stream-smoke: flowsim_stream_1m equals BENCH_10 "
        f"(events {got['events']}, mean_flow {got['mean_flow']!r})"
    )

    # -- wsim: lazy DAG attachment feeding the work-stealing runtime ----
    ws = simulate_ws_stream(
        attach_dags_stream(
            generate_stream(
                400,
                "finance",
                0.6,
                4,
                seed=11,
                mode=ParallelismMode.FULLY_PARALLEL,
                scale_work_with_m=False,
            ),
            parallelism=6,
            seed=11,
        ),
        4,
        ws_scheduler_by_name("drep"),
        seed=11,
    )
    if ws.n_jobs != 400:
        fail(f"wsim stream completed {ws.n_jobs}/400 jobs")
    if not ws.mean_flow > 0:
        fail("wsim stream produced degenerate flows")

    # -- CLI: replay the sanitized SWF fixture through `drep-sim stream`
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.cli",
            "stream",
            "--trace-file",
            str(REPO / "tests" / "data" / "sanitized_cluster.swf"),
            "--m",
            "8",
            "--time-scale",
            "0.001",
        ],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO / "src"), "PATH": "/usr/bin:/bin"},
        cwd=REPO,
    )
    if proc.returncode != 0:
        fail(f"`drep-sim stream` exited {proc.returncode}: {proc.stderr}")
    if "streamed run" not in proc.stdout:
        fail("`drep-sim stream` report missing from stdout")

    final = rss_mb()
    if final > RSS_CEILING_MB:
        fail(f"peak RSS {final:.1f} MB exceeds {RSS_CEILING_MB:.0f} MB")
    print(f"stream-smoke: PASS (peak RSS {final:.1f} MB)")


if __name__ == "__main__":
    main()
