"""Run the repository benchmark: end-to-end metrics, or per-layer ones when traced.

Usage, from the root of a checkout::

    python3 bench/run.py --workload stream_shallow --seed 3 --seconds 15 --trace 0
    python3 bench/run.py --seed 0            # all five workloads, end to end
    python3 bench/run.py --seed 0 --trace    # all five, end to end and per layer

One workload prints each metric by name with its unit, then, as its last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
Untraced (``--trace 0``) the metrics are the end-to-end ones; traced
(``--trace 1``) they are the per-layer ones.  Without ``--workload`` every
workload runs in its own process and the JSON keys are
``<workload>.<metric>``.  The exit status is 1 when any output check or
layer-engagement assertion fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

from common import BENCH, ROOT, SRC, require_sources, split_cpus

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) if (ROOT / "BENCHMARK.json").exists() else {}
WORKLOAD_NAMES = ["figures", "stream_shallow", "stream_overload", "serve_single", "serve_sharded"]


def _units() -> tuple[dict[str, str], dict[str, str]]:
    from layers import PER_LAYER
    from workloads import END_TO_END

    return dict(END_TO_END), {name: unit for name, unit, _ in PER_LAYER}


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import workloads

    work = ROOT / ".bench_work" / f"{workload}-{seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    # the load generator keeps one CPU to itself; the program gets the rest
    allowed = os.sched_getaffinity(0)
    mine, program_cpus = split_cpus()
    os.sched_setaffinity(0, mine)
    try:
        ctx = workloads.Ctx(
            seed=seed, seconds=seconds, work=work, trace=trace, cpus=program_cpus,
            bench_cpus=frozenset(mine) if program_cpus else None,
        )
        outcome = workloads.WORKLOADS[workload](ctx)
    finally:
        os.sched_setaffinity(0, allowed)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it
    e2e, per_layer = _units()
    units = per_layer if trace else e2e
    print(f"# {workload}: seed {seed}, {seconds:g} s, {'traced (per layer)' if trace else 'end to end'}")
    for name, unit in units.items():
        print(f"  {name:40s} {outcome.metrics[name]:14.6g} {unit}")
    for note in outcome.notes:
        print(f"  # {note}")
    for error in outcome.errors:
        print(f"CHECK FAILED: {error}", file=sys.stderr)
    result = {
        "correct": not outcome.errors,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": outcome.metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload (and each traced pass) in its own process."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    passes = (0, 1) if trace else (0,)
    for workload in WORKLOAD_NAMES:
        for traced in passes:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(traced)],
                cwd=ROOT,
                stdout=subprocess.PIPE,
                text=True,
            )
            lines = proc.stdout.splitlines()
            print("\n".join(lines[:-1]), flush=True)
            status |= proc.returncode
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                combined["correct"] = False
                continue
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            for name, value in result["metrics"].items():
                combined["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(combined), flush=True)
    return 1 if status or not combined["correct"] else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, default=None, help="default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--seconds", type=float, default=BENCHMARK.get("run_seconds", 15), help="measuring window per run"
    )
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1), help="1 = per-layer metrics"
    )
    args = parser.parse_args(argv)
    require_sources()
    sys.path.insert(1, str(SRC))
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
