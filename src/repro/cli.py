"""Command-line entry point: regenerate the paper's experiments.

Installed as ``drep-sim``.  Examples::

    drep-sim fig1 --distribution finance --load 0.5 --n-jobs 5000
    drep-sim fig2 --distribution bing --load 0.7
    drep-sim fig3 --m 16 --n-jobs 500
    drep-sim preemptions --n-jobs 10000 --m 16
    drep-sim stats --distribution bing
    drep-sim report --out report.md --flow-jobs 5000
    drep-sim serve --m 8 --policy drep --port 8071
    drep-sim loadgen --port 8071 --n-jobs 1000 --load 0.7 --verify

Each subcommand prints the corresponding figure's series as a table
(mean flow time per scheduler over the swept parameter).  Sizes default
to laptop-friendly values; raise ``--n-jobs`` toward the paper's 100,000
(fig1/fig2) or 10,000 (fig3) for tighter estimates.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.experiments import (
    flow_policy_factories,
    run_flow_sweep,
)
from repro.analysis.tables import series_table
from repro.core.job import ParallelismMode
from repro.flowsim.engine import simulate
from repro.flowsim.policies.drep import DrepSequential
from repro.theory.preemptions import check_theorem_1_2
from repro.workloads.traces import generate_trace

__all__ = ["main"]

_DEFAULT_M_SWEEP = [1, 2, 4, 8, 16, 32, 64]


def _fig_flow(args: argparse.Namespace, mode: ParallelismMode) -> int:
    workers = getattr(args, "workers", 1)
    if workers == 0:
        workers = None  # run_grid: all cores
    if workers is None or workers == "auto" or workers > 1:
        # shard the (m × policy) grid over a process pool; rows are
        # byte-identical to the serial sweep (see repro.analysis.pool)
        from repro.analysis.pool import flow_sweep_cells, run_flow_grid

        cells = flow_sweep_cells(
            distribution=args.distribution,
            load=args.load,
            mode=mode,
            m_values=args.m_values,
            n_jobs=args.n_jobs,
            seed=args.seed,
        )
        rows = run_flow_grid(cells, workers=workers)
    else:
        rows = run_flow_sweep(
            distribution=args.distribution,
            load=args.load,
            mode=mode,
            m_values=args.m_values,
            n_jobs=args.n_jobs,
            seed=args.seed,
            policies=flow_policy_factories(mode),
        )
    print(
        f"# {args.distribution} workload, load={args.load:g}, "
        f"{mode.value} jobs, n={args.n_jobs} (mean flow time)"
    )
    print(series_table(rows, x="m", series="scheduler", value="mean_flow"))
    return 0


def _fig3(args: argparse.Namespace) -> int:
    # always the grid path: workers=1 (and "auto" on a 1-core box) runs
    # inline, and grid rows are byte-identical to the serial
    # run_ws_sweep rows for every worker count (repro.analysis.pool)
    from repro.analysis.pool import run_ws_grid, ws_sweep_cells

    cells = ws_sweep_cells(
        distribution=args.distribution,
        loads=args.loads,
        m_values=[args.m],
        n_jobs=args.n_jobs,
        seed=args.seed,
    )
    rows = run_ws_grid(cells, workers=args.workers)
    print(
        f"# {args.distribution} workload on {args.m} cores, n={args.n_jobs} "
        "(work-stealing runtime, mean flow in steps)"
    )
    print(series_table(rows, x="load", series="scheduler", value="mean_flow"))
    return 0


def _preemptions(args: argparse.Namespace) -> int:
    trace = generate_trace(
        n_jobs=args.n_jobs,
        distribution=args.distribution,
        load=args.load,
        m=args.m,
        mode=ParallelismMode.SEQUENTIAL,
        seed=args.seed,
    )
    result = simulate(trace, args.m, DrepSequential(), seed=args.seed)
    budget = check_theorem_1_2(result, args.n_jobs)
    print("# Theorem 1.2 check — sequential DREP")
    for key, value in budget.summary().items():
        print(f"{key:22s} {value}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="drep-sim", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--distribution", default="finance", help="bing|finance|...")
        p.add_argument("--seed", type=int, default=0)

    def workers_value(value: str):
        # "auto" = available CPUs, serial on a 1-core box (see
        # repro.analysis.pool.resolve_workers); 0 = all cores
        if value == "auto":
            return value
        return int(value)

    def workers_arg(p: argparse.ArgumentParser, default=1) -> None:
        p.add_argument(
            "--workers",
            type=workers_value,
            default=default,
            help="process-pool size for the experiment grid "
            "(0 = all cores, 'auto' = available cores with serial "
            "fallback on 1; output is identical for any value)",
        )

    p1 = sub.add_parser("fig1", help="sequential jobs, m-sweep (Figure 1)")
    common(p1)
    p1.add_argument("--load", type=float, default=0.5)
    p1.add_argument("--n-jobs", type=int, default=5000)
    p1.add_argument("--m-values", type=int, nargs="+", default=_DEFAULT_M_SWEEP)
    workers_arg(p1)

    p2 = sub.add_parser("fig2", help="fully parallel jobs, m-sweep (Figure 2)")
    common(p2)
    p2.add_argument("--load", type=float, default=0.5)
    p2.add_argument("--n-jobs", type=int, default=5000)
    p2.add_argument("--m-values", type=int, nargs="+", default=_DEFAULT_M_SWEEP)
    workers_arg(p2)

    p3 = sub.add_parser("fig3", help="work-stealing runtime, load-sweep (Figure 3)")
    common(p3)
    p3.add_argument("--m", type=int, default=16)
    p3.add_argument("--n-jobs", type=int, default=300)
    p3.add_argument("--loads", type=float, nargs="+", default=[0.5, 0.6, 0.7])
    workers_arg(p3, default="auto")

    p4 = sub.add_parser("preemptions", help="Theorem 1.2 budget check")
    common(p4)
    p4.add_argument("--m", type=int, default=16)
    p4.add_argument("--load", type=float, default=0.6)
    p4.add_argument("--n-jobs", type=int, default=10000)

    p5 = sub.add_parser("stats", help="workload distribution statistics")
    common(p5)
    p5.add_argument("--samples", type=int, default=100_000)

    p6 = sub.add_parser("report", help="full reproduction report (markdown)")
    common(p6)
    p6.add_argument("--out", default="report.md")
    p6.add_argument("--flow-jobs", type=int, default=5000)
    p6.add_argument("--ws-jobs", type=int, default=200)

    p8 = sub.add_parser(
        "figures", help="render saved results/*.json into SVG line charts"
    )
    p8.add_argument("--results-dir", default="results")

    p9 = sub.add_parser(
        "serve", help="run a policy as a live online scheduling server"
    )
    p9.add_argument("--m", type=int, default=8)
    p9.add_argument("--policy", default="drep", help="policy key, e.g. drep|srpt|rr")
    p9.add_argument("--seed", type=int, default=0)
    p9.add_argument("--host", default="127.0.0.1")
    p9.add_argument("--port", type=int, default=8071)
    p9.add_argument(
        "--clock",
        choices=["trace", "wall"],
        default="trace",
        help="trace = virtual time driven by release stamps; wall = real time",
    )
    p9.add_argument(
        "--time-scale",
        type=float,
        default=1.0,
        help="sim-time units per wall second (wall clock only)",
    )
    p9.add_argument("--window", type=float, default=1000.0, help="metrics window (sim time)")
    p9.add_argument("--speed", type=float, default=1.0, help="resource augmentation")
    p9.add_argument("--max-active", type=int, default=None, help="admission: queue cap")
    p9.add_argument(
        "--max-backlog", type=float, default=None, help="admission: backlog cap (drain time)"
    )
    p9.add_argument(
        "--max-load", type=float, default=None, help="admission: estimated-load ceiling"
    )
    p9.add_argument("--snapshot-path", default=None, help="default snapshot target")
    p9.add_argument(
        "--restore", default=None, help="boot from a snapshot file instead of empty"
    )
    p9.add_argument(
        "--journal-dir",
        default=None,
        help="write-ahead journal directory; restarts recover from it",
    )
    p9.add_argument(
        "--snapshot-every",
        type=int,
        default=256,
        help="auto-checkpoint the journal every N mutating ops",
    )
    p9.add_argument(
        "--fsync",
        action="store_true",
        help="fsync each journal append and every checkpoint",
    )
    p9.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="shed requests when this many are already waiting",
    )
    p9.add_argument(
        "--request-timeout",
        type=float,
        default=None,
        help="refuse requests stuck behind the engine for this many seconds",
    )
    p9.add_argument(
        "--max-line-bytes",
        type=int,
        default=1 << 20,
        help="reject (and resync past) request lines longer than this",
    )
    p9.add_argument(
        "--shards",
        type=int,
        default=None,
        help="run a consistent-hash router over N journaled engine-shard "
        "subprocesses instead of a single engine",
    )
    p9.add_argument(
        "--vnodes",
        type=int,
        default=64,
        help="virtual nodes per shard on the hash ring",
    )
    p9.add_argument(
        "--multi-tenant",
        action="store_true",
        help="tenant-aware admission: submits may carry a tenant label, "
        "DRF throttling applies when soft caps trip",
    )
    p9.add_argument(
        "--credit-rate",
        type=float,
        default=None,
        help="per-tenant credit accrual as a fraction of fleet capacity "
        "(enables the credit check; implies --multi-tenant)",
    )
    p9.add_argument(
        "--credit-burst",
        type=float,
        default=20.0,
        help="seconds of accrual a tenant may bank while idle",
    )
    p9.add_argument(
        "--credit-borrow",
        type=float,
        default=0.0,
        help="seconds of accrual a tenant may borrow before being shed",
    )
    p9.add_argument(
        "--drf-headroom",
        type=float,
        default=1.2,
        help="slack multiplier on the DRF entitlement before a tenant "
        "counts as dominant",
    )
    p9.add_argument(
        "--autoscale",
        action="store_true",
        help="closed-loop elastic capacity: a seeded controller parks and "
        "revives processors between [--autoscale-m-min, --m]",
    )
    p9.add_argument(
        "--autoscale-m-min", type=int, default=1, help="capacity floor"
    )
    p9.add_argument(
        "--autoscale-tick",
        type=float,
        default=10.0,
        help="sim-time between controller decisions",
    )
    p9.add_argument(
        "--autoscale-up",
        type=float,
        default=20.0,
        help="scale-up backlog watermark (drain-time units)",
    )
    p9.add_argument(
        "--autoscale-down",
        type=float,
        default=5.0,
        help="scale-down backlog watermark (must be < --autoscale-up)",
    )
    p9.add_argument(
        "--autoscale-cooldown-up", type=float, default=10.0,
        help="sim-time after any change before the next scale-up",
    )
    p9.add_argument(
        "--autoscale-cooldown-down", type=float, default=30.0,
        help="sim-time after any change before the next scale-down",
    )
    p9.add_argument(
        "--autoscale-no-displace",
        action="store_true",
        help="let stranded jobs finish on the shrunken machine instead of "
        "preempting and requeueing them",
    )
    p9.add_argument(
        "--autoscale-requeue-delay",
        type=float,
        default=1.0,
        help="sim-time a displaced job waits before re-entering the queue",
    )
    p9.add_argument(
        "--supervise",
        action="store_true",
        help="with --shards: run a self-healing heartbeat loop that "
        "restarts dead shard subprocesses (journal replay on revival)",
    )
    p9.add_argument(
        "--supervise-interval",
        type=float,
        default=1.0,
        help="wall seconds between supervisor heartbeat sweeps",
    )

    p10 = sub.add_parser(
        "loadgen", help="replay a generated trace against a running server"
    )
    common(p10)
    p10.add_argument("--host", default="127.0.0.1")
    p10.add_argument("--port", type=int, default=8071)
    p10.add_argument("--n-jobs", type=int, default=1000)
    p10.add_argument("--load", type=float, default=0.7)
    p10.add_argument("--m", type=int, default=None, help="trace machine size (default: ask server)")
    p10.add_argument(
        "--rate", type=float, default=1.0, help="arrival-rate multiplier (2 = double load)"
    )
    p10.add_argument(
        "--pace", type=float, default=None, help="sim-time units per wall second (default: flat out)"
    )
    p10.add_argument(
        "--trace-file", default=None,
        help="replay a saved Trace JSON — or a .swf archive log, streamed "
        "lazily — instead of generating",
    )
    p10.add_argument("--no-drain", action="store_true", help="leave the server running full")
    p10.add_argument(
        "--verify",
        action="store_true",
        help="cross-check drained flow times against offline flowsim.simulate",
    )
    p10.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-request deadline in wall seconds",
    )
    p10.add_argument(
        "--max-retries",
        type=int,
        default=0,
        help="retry budget per request (backoff with seeded jitter)",
    )
    p10.add_argument(
        "--backoff",
        type=float,
        default=0.05,
        help="base retry backoff in seconds (doubles per attempt)",
    )
    p10.add_argument(
        "--tenants",
        type=int,
        default=None,
        help="label jobs with K tenant ids drawn from a seeded Zipf "
        "distribution (t0 hottest)",
    )
    p10.add_argument(
        "--tenant-skew",
        default="zipf:1.0",
        help="tenant skew 'zipf:a' — a=0 uniform, larger = hotter t0",
    )

    p12 = sub.add_parser(
        "faults",
        help="resilience experiment: policies under crash traces vs baseline",
    )
    common(p12)
    p12.add_argument("--m", type=int, default=8)
    p12.add_argument("--n-jobs", type=int, default=400)
    p12.add_argument("--load", type=float, default=0.7)
    p12.add_argument(
        "--policies",
        nargs="+",
        default=["drep", "srpt", "rr"],
        help="flowsim policy keys to compare",
    )
    p12.add_argument(
        "--plans",
        nargs="+",
        default=["rolling", "half-down", "random"],
        help="named crash plans (see repro.faults.named_fault_plans)",
    )
    p12.add_argument(
        "--plan-file",
        nargs="+",
        default=None,
        help="run user-supplied fault-plan JSON files instead of named "
        "plans (validated against --m before anything runs)",
    )
    p12.add_argument(
        "--out", default=None, help="write the resilience/1 JSON report here"
    )
    workers_arg(p12)

    p13 = sub.add_parser(
        "autoscale",
        help="elastic-capacity experiment: DREP vs baselines under the "
        "closed-loop controller, cost-vs-flow Pareto report",
    )
    common(p13)
    p13.add_argument("--m-min", type=int, default=1, help="capacity floor")
    p13.add_argument("--m-max", type=int, default=8, help="capacity ceiling")
    p13.add_argument("--n-jobs", type=int, default=400)
    p13.add_argument("--load", type=float, default=0.7)
    p13.add_argument(
        "--tick", type=float, default=10.0, help="controller decision period"
    )
    p13.add_argument(
        "--up-watermark", type=float, default=20.0,
        help="scale-up backlog watermark (drain-time units)",
    )
    p13.add_argument(
        "--down-watermark", type=float, default=5.0,
        help="scale-down backlog watermark (must be < --up-watermark)",
    )
    p13.add_argument("--cooldown-up", type=float, default=10.0)
    p13.add_argument("--cooldown-down", type=float, default=30.0)
    p13.add_argument(
        "--requeue-delay", type=float, default=1.0,
        help="delay before a displaced job re-enters the queue",
    )
    p13.add_argument(
        "--no-displace",
        action="store_true",
        help="scale-downs never preempt running jobs",
    )
    p13.add_argument(
        "--policies",
        nargs="+",
        default=["drep", "srpt", "rr"],
        help="flowsim policy keys to compare",
    )
    p13.add_argument(
        "--ws-schedulers",
        nargs="+",
        default=["DREP", "SWF", "steal-first"],
        help="work-stealing schedulers to compare ('none' skips the "
        "wsim sweep)",
    )
    p13.add_argument(
        "--ws-jobs", type=int, default=None,
        help="wsim trace size (default: n-jobs // 4, floor 40)",
    )
    p13.add_argument(
        "--out", default=None, help="write the autoscale/1 JSON report here"
    )
    workers_arg(p13)

    p7 = sub.add_parser(
        "hetero", help="related-machines comparison (the paper's open problem)"
    )
    common(p7)
    p7.add_argument("--n-jobs", type=int, default=4000)
    p7.add_argument(
        "--machine",
        default="2x4+6x1",
        help="speed spec: 'NxS+NxS+...' e.g. '2x4+6x1' or 'geometric:8:2'",
    )

    p14 = sub.add_parser(
        "stream",
        help="bounded-RAM streamed run: SWF trace replay or lazy generator",
    )
    common(p14)
    p14.add_argument(
        "--trace-file",
        default=None,
        help="SWF trace file to replay (Standard Workload Format, the HPC "
        "archive format — not the SWF policy; see docs/workloads.md)",
    )
    p14.add_argument("--m", type=int, default=8)
    p14.add_argument("--n-jobs", type=int, default=100_000)
    p14.add_argument("--load", type=float, default=0.7)
    p14.add_argument(
        "--engine", choices=("flowsim", "wsim"), default="flowsim"
    )
    p14.add_argument(
        "--policy", default="srpt", help="flowsim policy key (engine=flowsim)"
    )
    p14.add_argument(
        "--scheduler", default="drep", help="wsim scheduler key (engine=wsim)"
    )
    p14.add_argument(
        "--arrival-process", choices=("poisson", "mmpp"), default="poisson"
    )
    p14.add_argument(
        "--time-scale", type=float, default=1.0,
        help="SWF: multiply all times (1s wall = this many sim units)",
    )
    p14.add_argument(
        "--calibrate-load", type=float, default=None,
        help="SWF: re-scale arrivals to offer this utilization on --m",
    )
    p14.add_argument(
        "--peak-window", type=float, default=None,
        help="SWF: replay only the busiest window of this length",
    )
    p14.add_argument(
        "--parallelism", type=int, default=8,
        help="wsim: DAG parallelism attached to streamed jobs",
    )
    p14.add_argument(
        "--keep-flow-times", action="store_true",
        help="retain per-job flow times (O(n) memory — defeats streaming)",
    )
    p14.add_argument(
        "--chunk", type=int, default=None,
        help="flowsim: arrivals pulled per ingest batch",
    )
    p14.add_argument(
        "--slo", type=float, default=None,
        help="flow-time SLO threshold: report the attained fraction "
        "(jobs with flow <= this) in the table and JSON",
    )
    p14.add_argument(
        "--json", default=None, help="write the run summary JSON here"
    )

    args = parser.parse_args(argv)
    if args.command == "fig1":
        return _fig_flow(args, ParallelismMode.SEQUENTIAL)
    if args.command == "fig2":
        return _fig_flow(args, ParallelismMode.FULLY_PARALLEL)
    if args.command == "fig3":
        return _fig3(args)
    if args.command == "preemptions":
        return _preemptions(args)
    if args.command == "stats":
        return _stats(args)
    if args.command == "report":
        return _report(args)
    if args.command == "hetero":
        return _hetero(args)
    if args.command == "figures":
        return _figures(args)
    if args.command == "serve":
        return _serve(args)
    if args.command == "loadgen":
        return _loadgen(args)
    if args.command == "faults":
        return _faults(args)
    if args.command == "autoscale":
        return _autoscale(args)
    if args.command == "stream":
        return _stream(args)
    return 2  # pragma: no cover


def _load_plan_files(paths: list[str], m: int):
    """Parse and validate user fault-plan JSON at the CLI boundary.

    Returns ``{name: FaultPlan}`` or raises :class:`SystemExit` with a
    structured one-line message — a malformed plan file must never reach
    the engine (or the user) as a traceback.
    """
    import json as _json

    from repro.faults.plan import FaultPlan

    plans = {}
    for path in paths:
        try:
            text = open(path, encoding="utf-8").read()
        except OSError as exc:
            raise SystemExit(f"faults: cannot read plan file {path}: {exc}")
        try:
            plan = FaultPlan.from_json(text)
        except (_json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise SystemExit(
                f"faults: invalid plan in {path}: {exc} "
                "(expected {\"name\": ..., \"events\": [{\"kind\": ..., "
                "\"t\": ..., ...}]})"
            )
        try:
            plan.validate_for(m)
        except ValueError as exc:
            raise SystemExit(f"faults: plan {plan.name!r} in {path}: {exc}")
        if plan.name in plans:
            raise SystemExit(
                f"faults: duplicate plan name {plan.name!r} (in {path})"
            )
        plans[plan.name] = plan
    return plans


def _faults(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.faults.experiment import (
        resilience_report,
        run_resilience_experiment,
        write_resilience_report,
    )

    plans = tuple(args.plans)
    if args.plan_file:
        plans = _load_plan_files(args.plan_file, args.m)
    rows = run_resilience_experiment(
        m=args.m,
        n_jobs=args.n_jobs,
        distribution=args.distribution,
        load=args.load,
        policies=tuple(args.policies),
        plans=plans,
        seed=args.seed,
        workers=args.workers or None,
    )
    print(
        f"# resilience — {args.distribution}, load={args.load:g}, "
        f"m={args.m}, n={args.n_jobs} (degradation = faulted / baseline)"
    )
    print(
        format_table(
            [
                {
                    "policy": r["policy"],
                    "plan": r["plan"],
                    "mean_flow": r["mean_flow"],
                    "flow_degradation": r["flow_degradation"],
                    "switch_degradation": r["switch_degradation"],
                    "faults_applied": r["faults_applied"],
                }
                for r in rows
            ]
        )
    )
    if args.out:
        report = resilience_report(
            rows,
            m=args.m,
            n_jobs=args.n_jobs,
            distribution=args.distribution,
            load=args.load,
            seed=args.seed,
        )
        path = write_resilience_report(report, args.out)
        print(f"wrote {path}")
    return 0


def _autoscale(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.autoscale import (
        AutoscaleConfig,
        autoscale_report,
        run_autoscale_experiment,
        write_autoscale_report,
    )

    try:
        aconfig = AutoscaleConfig(
            m_min=args.m_min,
            m_max=args.m_max,
            tick=args.tick,
            up_watermark=args.up_watermark,
            down_watermark=args.down_watermark,
            cooldown_up=args.cooldown_up,
            cooldown_down=args.cooldown_down,
            requeue_delay=args.requeue_delay,
            displace=not args.no_displace,
        )
    except ValueError as exc:
        print(f"autoscale: {exc}", file=sys.stderr)
        return 2
    ws_schedulers = tuple(args.ws_schedulers)
    if ws_schedulers == ("none",):
        ws_schedulers = ()
    rows = run_autoscale_experiment(
        aconfig,
        n_jobs=args.n_jobs,
        distribution=args.distribution,
        load=args.load,
        flow_policies=tuple(args.policies),
        ws_schedulers=ws_schedulers,
        ws_jobs=args.ws_jobs,
        seed=args.seed,
        workers=args.workers or None,
    )
    report = autoscale_report(
        rows,
        aconfig,
        n_jobs=args.n_jobs,
        distribution=args.distribution,
        load=args.load,
        seed=args.seed,
    )
    print(
        f"# autoscale — {args.distribution}, load={args.load:g}, "
        f"m∈[{args.m_min},{args.m_max}], n={args.n_jobs} "
        "(elastic vs fixed full capacity)"
    )
    print(
        format_table(
            [
                {
                    "engine": r["engine"],
                    "policy": r["policy"],
                    "mode": r["mode"],
                    "mean_flow": r["mean_flow"],
                    "capacity_s": r["capacity_seconds"],
                    "switches": r["switches"],
                    "ups": r["scale_ups"],
                    "downs": r["scale_downs"],
                    "displaced": r.get("displaced_work", 0.0),
                }
                for r in rows
            ]
        )
    )
    print("# Pareto (elastic / fixed):")
    for engine, entries in report["summary"]["pareto"].items():
        for policy, e in entries.items():
            if "flow_ratio" in e:
                print(
                    f"{engine:8s} {policy:12s} "
                    f"flow x{e['flow_ratio']:.3f}  "
                    f"capacity x{e['capacity_ratio']:.3f}  "
                    f"switches x{e['switch_ratio']:.3f}"
                )
    unacc = report["summary"]["displaced_unaccounted"]
    print(f"# displaced work unaccounted: {unacc:g}")
    if args.out:
        path = write_autoscale_report(report, args.out)
        print(f"wrote {path}")
    return 0 if unacc == 0.0 else 1


def _stream(args: argparse.Namespace) -> int:
    """Bounded-RAM streamed run: SWF replay or lazy synthetic generator."""
    import json as _json
    from pathlib import Path

    from repro.analysis.report import stream_report
    from repro.workloads.stream import (
        attach_dags_stream,
        calibrate_load,
        generate_stream,
        peak_window,
    )
    from repro.workloads.swf import SwfParseError, swf_stream

    def build_stream():
        if args.trace_file is not None:
            factory = lambda: swf_stream(  # noqa: E731
                args.trace_file, time_scale=args.time_scale
            )
            if args.peak_window is not None:
                inner = factory
                factory = lambda: peak_window(inner, args.peak_window)  # noqa: E731
            if args.calibrate_load is not None:
                outer = factory
                factory = lambda: calibrate_load(  # noqa: E731
                    outer, args.calibrate_load, args.m
                )
            return factory()
        if (
            args.calibrate_load is not None
            or args.peak_window is not None
            or args.time_scale != 1.0
        ):
            raise SystemExit(
                "stream: --time-scale/--calibrate-load/--peak-window are "
                "SWF replay options; they need --trace-file"
            )
        return generate_stream(
            args.n_jobs,
            args.distribution,
            args.load,
            args.m,
            seed=args.seed,
            arrival_process=args.arrival_process,
        )

    try:
        stream = build_stream()
        label = getattr(stream, "name", "stream")
        # a pre-built accumulator carries the SLO threshold into either
        # engine; the seed derivation matches the engines' default so
        # the reservoir quantile sample is unchanged by --slo
        slo_metrics = None
        if args.slo is not None:
            from repro.core.metrics import StreamingMetrics
            from repro.core.rng import derive_seed

            slo_metrics = StreamingMetrics(
                keep_flow_times=args.keep_flow_times,
                seed=derive_seed(args.seed, "stream/metrics"),
                slo_threshold=args.slo,
            )
        if args.engine == "wsim":
            from repro.wsim import simulate_ws_stream, ws_scheduler_by_name

            jobs = attach_dags_stream(
                stream, parallelism=args.parallelism, seed=args.seed
            )
            result = simulate_ws_stream(
                jobs,
                args.m,
                ws_scheduler_by_name(args.scheduler),
                seed=args.seed,
                keep_flow_times=args.keep_flow_times,
                metrics=slo_metrics,
            )
        else:
            from repro.flowsim import policy_by_name, simulate_stream

            kwargs = {}
            if args.chunk:
                kwargs["ingest_chunk"] = args.chunk
            result = simulate_stream(
                stream,
                args.m,
                policy_by_name(args.policy),
                seed=args.seed,
                keep_flow_times=args.keep_flow_times,
                metrics=slo_metrics,
                **kwargs,
            )
    except SwfParseError as exc:
        print(f"stream: {exc}", file=sys.stderr)
        return 1
    except (OSError, KeyError, ValueError) as exc:
        # CLI boundary: unknown policy/scheduler keys, unreadable trace
        # files and contract violations surface as one-liners, not
        # tracebacks
        print(f"stream: {exc}", file=sys.stderr)
        return 1
    summary = result.summary()
    print(
        f"# drep-sim stream — {label}, engine={args.engine}, "
        f"m={args.m}, seed={args.seed}"
    )
    print(stream_report({label: summary}, title="streamed run"))
    if args.json is not None:
        path = Path(args.json)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(_json.dumps(summary, indent=2, default=str) + "\n")
        print(f"wrote {path}")
    return 0


def _figures(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.analysis.charts import figure_svg_from_rows, save_figure_svg

    results = Path(args.results_dir)
    rendered = 0
    for path in sorted(results.glob("fig*.json")):
        rows = json.loads(path.read_text())
        tag = path.stem
        x = "m" if tag.startswith(("fig1", "fig2")) else "load"
        svg = figure_svg_from_rows(
            rows, x=x, title=tag, log_y=tag.startswith(("fig1", "fig2"))
        )
        save_figure_svg(results / f"{tag}.svg", svg)
        rendered += 1
    print(f"rendered {rendered} figures into {results}/")
    return 0 if rendered else 1


def _serve_shards(args: argparse.Namespace) -> int:
    """Router mode: N journaled engine-shard subprocesses + a frontend."""
    import asyncio
    import tempfile

    from repro.serve.admission import AdmissionConfig
    from repro.serve.shard import ShardFrontend, build_subprocess_router
    from repro.serve.tenancy import TenancyConfig

    if args.shards < 1:
        print("serve: --shards must be >= 1", file=sys.stderr)
        return 2
    journal_root = args.journal_dir or tempfile.mkdtemp(prefix="drep-shards-")
    tenancy = None
    if args.multi_tenant or args.credit_rate is not None:
        tenancy = TenancyConfig(
            credit_rate=args.credit_rate,
            credit_burst=args.credit_burst,
            credit_borrow=args.credit_borrow,
            drf_headroom=args.drf_headroom,
        )
    admission_config = None
    if (
        args.max_active is not None
        or args.max_backlog is not None
        or args.max_load is not None
    ):
        admission_config = AdmissionConfig(
            max_active=args.max_active,
            max_backlog=args.max_backlog,
            max_load=args.max_load,
        )
    if admission_config is not None and tenancy is None:
        # caps without tenancy flags: the multi-tenant controller runs
        # over the lone "default" tenant, whose soft caps fall back to
        # base-class shedding — same behavior as the serial server
        tenancy = TenancyConfig()
    router = build_subprocess_router(
        args.shards,
        journal_root,
        m=args.m,
        policy=args.policy,
        seed=args.seed,
        vnodes=args.vnodes,
        tenancy=tenancy,
        admission_config=admission_config,
        snapshot_every=args.snapshot_every,
        fsync=args.fsync,
    )

    supervisor = None
    stop_event = None
    sup_thread = None
    if args.supervise:
        import threading

        from repro.serve.shard import ShardSupervisor

        supervisor = ShardSupervisor(router)
        stop_event = threading.Event()
        sup_thread = threading.Thread(
            target=supervisor.run,
            kwargs={"interval": args.supervise_interval, "stop": stop_event},
            name="shard-supervisor",
            daemon=True,
        )
        sup_thread.start()

    async def run() -> None:
        frontend = ShardFrontend(
            router,
            host=args.host,
            port=args.port,
            max_line_bytes=args.max_line_bytes,
        )
        await frontend.start()
        print(
            f"drep-serve-router listening on {args.host}:{frontend.port} "
            f"(shards={args.shards}, m_total={router.m_total}, "
            f"policy={args.policy}, journal={journal_root}, "
            f"supervise={'on' if supervisor else 'off'})",
            flush=True,
        )
        await frontend.wait_closed()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        router.close()
    finally:
        if stop_event is not None:
            stop_event.set()
        if sup_thread is not None:
            sup_thread.join(timeout=2.0)
    return 0


def _serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.serve.server import SchedulerServer, ServeConfig
    from repro.serve.snapshot import restore_scheduler_file

    if args.shards is not None:
        return _serve_shards(args)

    config = ServeConfig(
        m=args.m,
        policy=args.policy,
        seed=args.seed,
        host=args.host,
        port=args.port,
        clock=args.clock,
        time_scale=args.time_scale,
        window=args.window,
        speed=args.speed,
        max_active=args.max_active,
        max_backlog=args.max_backlog,
        max_load=args.max_load,
        snapshot_path=args.snapshot_path,
        journal_dir=args.journal_dir,
        snapshot_every=args.snapshot_every,
        fsync=args.fsync,
        max_pending=args.max_pending,
        request_timeout=args.request_timeout,
        max_line_bytes=args.max_line_bytes,
        multi_tenant=args.multi_tenant,
        credit_rate=args.credit_rate,
        credit_burst=args.credit_burst,
        credit_borrow=args.credit_borrow,
        drf_headroom=args.drf_headroom,
        autoscale=args.autoscale,
        autoscale_m_min=args.autoscale_m_min,
        autoscale_tick=args.autoscale_tick,
        autoscale_up=args.autoscale_up,
        autoscale_down=args.autoscale_down,
        autoscale_cooldown_up=args.autoscale_cooldown_up,
        autoscale_cooldown_down=args.autoscale_cooldown_down,
        autoscale_displace=not args.autoscale_no_displace,
        autoscale_requeue_delay=args.autoscale_requeue_delay,
    )
    scheduler = None
    if args.restore:
        scheduler = restore_scheduler_file(args.restore)
        print(
            f"restored snapshot {args.restore}: t={scheduler.now:.6g}, "
            f"{scheduler.n_active} jobs in flight"
        )

    async def run() -> None:
        server = SchedulerServer(config, scheduler=scheduler)
        if server.recovered_seq:
            print(
                f"recovered journal {config.journal_dir}: "
                f"seq={server.recovered_seq}, "
                f"{server.recovered_entries} entries replayed, "
                f"t={server.scheduler.now:.6g}, "
                f"{server.scheduler.n_active} jobs in flight",
                flush=True,
            )
        await server.start()
        print(
            f"drep-serve listening on {config.host}:{server.port} "
            f"(m={config.m}, policy={config.policy}, clock={config.clock})",
            flush=True,
        )
        await server.wait_closed()

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


def _loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from repro.serve.loadgen import replay_over_wire, tenant_labels
    from repro.workloads.traces import Trace

    async def run() -> int:
        if args.trace_file and args.trace_file.endswith(".swf"):
            # SWF archive replay: jobs stream lazily through the wire
            # client, so a multi-million-job log never materializes here
            from repro.workloads.swf import swf_stream

            trace = swf_stream(args.trace_file)
        elif args.trace_file:
            trace = Trace.load_file(args.trace_file)
        else:
            m = args.m
            if m is None:
                reader, writer = await asyncio.open_connection(args.host, args.port)
                writer.write(b'{"op": "hello"}\n')
                await writer.drain()
                hello = json.loads(await reader.readline())
                writer.close()
                await writer.wait_closed()
                m = int(hello["m"])
            trace = generate_trace(
                n_jobs=args.n_jobs,
                distribution=args.distribution,
                load=args.load,
                m=m,
                seed=args.seed,
            )
        tenants = None
        if args.tenants is not None:
            if not isinstance(trace, Trace):
                print(
                    "loadgen: --tenants needs an in-memory trace "
                    "(labels are indexed by job id); not available for "
                    ".swf streams",
                    file=sys.stderr,
                )
                return 2
            tenants = tenant_labels(
                len(trace.jobs),
                args.tenants,
                skew=args.tenant_skew,
                seed=args.seed,
            )
        report = await replay_over_wire(
            args.host,
            args.port,
            trace,
            rate=args.rate,
            pace=args.pace,
            drain=not args.no_drain,
            verify=args.verify,
            tenants=tenants,
            timeout=args.timeout,
            max_retries=args.max_retries,
            backoff=args.backoff,
            retry_seed=args.seed,
        )
        print(f"# loadgen: {trace.name} @ rate x{args.rate:g}")
        for key, value in report.summary().items():
            if key == "tenants":
                continue  # printed as their own block below
            print(f"{key:16s} {value:.6g}" if isinstance(value, float) else f"{key:16s} {value}")
        for name, row in sorted(report.tenant_counts.items()):
            print(
                f"tenant {name:9s} offered={row['offered']} "
                f"accepted={row['accepted']} shed={row['shed']} "
                f"errors={row['errors']} retries={row['retries']}"
            )
        window = report.stats.get("window")
        if window:
            print(
                f"window           mean={window['mean_flow']:.6g} "
                f"p99={window['p99_flow']:.6g} throughput={window['throughput']:.6g}"
            )
        if args.verify and report.verified is False:
            print("VERIFY FAILED: online flow times diverge from offline simulate")
            return 1
        if args.verify and report.verified:
            print("verify ok: online == offline flowsim.simulate "
                  f"(max |Δflow| = {report.max_abs_diff:.3g})")
        if args.verify and report.verified is None:
            print("verify skipped: wall-clock server (releases not replayable)")
        return 0

    try:
        return asyncio.run(run())
    except ConnectionError as exc:
        print(
            f"loadgen: cannot reach server at {args.host}:{args.port} ({exc})",
            file=sys.stderr,
        )
        return 1


def _parse_machine(spec: str):
    import numpy as np

    from repro.hetero.machine import Machine, geometric_machine

    if spec.startswith("geometric:"):
        _, m, ratio = spec.split(":")
        return geometric_machine(int(m), ratio=float(ratio))
    speeds = []
    for part in spec.split("+"):
        count, speed = part.split("x")
        speeds.extend([float(speed)] * int(count))
    return Machine(np.array(speeds))


def _hetero(args: argparse.Namespace) -> int:
    from repro.analysis.tables import format_table
    from repro.hetero import DrepRelated, FifoRelated, SrptRelated, simulate_hetero

    machine = _parse_machine(args.machine)
    eq_m = max(1, round(machine.total_speed))
    trace = generate_trace(
        args.n_jobs,
        args.distribution,
        0.6,
        eq_m,
        seed=args.seed,
        scale_work_with_m=False,
    )
    rows = []
    for policy in (SrptRelated(), FifoRelated(), DrepRelated(), DrepRelated(reseat=True)):
        r = simulate_hetero(trace, machine, policy, seed=args.seed)
        rows.append(
            {
                "scheduler": r.scheduler,
                "mean_flow": r.mean_flow,
                "p99_flow": r.percentile(99),
                "preemptions": r.preemptions,
            }
        )
    print(f"# machine {machine.describe()} — {args.distribution}, {args.n_jobs} jobs")
    print(format_table(rows))
    return 0


def _stats(args: argparse.Namespace) -> int:
    from repro.workloads.distributions import distribution_by_name
    from repro.workloads.stats import distribution_stats

    dist = distribution_by_name(args.distribution)
    stats = distribution_stats(dist, n=args.samples, seed=args.seed)
    print(f"# {args.distribution} work distribution ({args.samples} samples)")
    for key, value in stats.summary().items():
        print(f"{key:12s} {value:.6g}" if isinstance(value, float) else f"{key:12s} {value}")
    return 0


def _report(args: argparse.Namespace) -> int:
    from repro.analysis.report import ReportConfig, write_report

    config = ReportConfig(
        flow_jobs=args.flow_jobs, ws_jobs=args.ws_jobs, seed=args.seed
    )
    path = write_report(args.out, config)
    print(f"report written to {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
