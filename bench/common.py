"""Shared benchmark plumbing: paths, child processes, machine speed, /proc readings, statistics."""

from __future__ import annotations

import json
import math
import os
import re
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
TRACING = BENCH / "tracing"
LAUNCH = BENCH / "launch.py"
CALIBRATE = BENCH / "calibrate.py"
EXPECTED = BENCH / "expected"

#: a timed quantile is reported only with this many samples beyond it
MIN_TAIL = 10


class BenchError(RuntimeError):
    """A harness step failed: a server, the launcher or a connection."""


def require_sources() -> None:
    """Refuse to run without the program's sources next to the benchmark.

    Without this check a ``repro`` installed elsewhere on the machine
    would be measured instead of the checkout.
    """
    if not (SRC / "repro" / "cli.py").is_file():
        raise SystemExit(f"bench: no program sources at {SRC}/repro; run from a full checkout")


@dataclass(frozen=True)
class Child:
    """How the benchmark starts program processes: environment and CPUs.

    ``cpus`` pins the program (and every process it spawns, which inherit
    the mask) away from the CPU the benchmark itself runs on, so the load
    generator never competes with the server it measures.
    """

    env: dict
    cpus: frozenset[int] | None = None

    def popen(self, args: list[str], **kwargs) -> subprocess.Popen:
        cpus = self.cpus
        preexec = (lambda: os.sched_setaffinity(0, cpus)) if cpus else None
        return subprocess.Popen(args, cwd=ROOT, env=self.env, preexec_fn=preexec, **kwargs)


def child(trace_dir: Path | None = None, mode: str = "spans", cpus: frozenset[int] | None = None) -> Child:
    """Program processes on the checkout's sources, optionally traced.

    A traced process also gets the tracing directory on ``PYTHONPATH``;
    its ``sitecustomize`` installs the wrappers, and every subprocess the
    program starts inherits the same variables.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("BENCH_TRACE_")}
    paths = [str(SRC)]
    if trace_dir is not None:
        paths.append(str(TRACING))
        env["BENCH_TRACE_DIR"] = str(trace_dir)
        env["BENCH_TRACE_MODE"] = mode
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return Child(env, cpus)


def split_cpus() -> tuple[set[int], frozenset[int] | None]:
    """``(benchmark CPU, program CPUs)``: the first available CPU and the rest.

    With a single CPU available nothing is pinned (``None``).
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return set(cpus), None
    return {cpus[0]}, frozenset(cpus[1:])


# -- machine speed -------------------------------------------------------------

#: mean kernel time of ``calibrate.py`` on the reference machine (a 2-vCPU
#: VM in its fast hours)
REFERENCE_KERNEL_S = 0.0008
#: an interval with fewer samples borrows the ones nearest to it
MIN_SPEED_SAMPLES = 3


class Speed:
    """How fast the program's CPUs run, sampled all through a run.

    The machine the bounds were measured on ran the identical program up
    to 1.8x slower in some minutes than in others, and its two CPUs slowed
    independently, with CPU time tracking wall time.  ``calibrate.py`` runs
    next to the program on the same CPUs for the whole run;
    ``slowdown(t0, t1)`` is its mean kernel time over an interval relative
    to the reference machine.
    """

    def __init__(self, program: "Child", log: Path) -> None:
        self.log = log
        self.samples: list[tuple[float, float]] = []
        self.proc = program.popen([sys.executable, str(CALIBRATE), str(log)])

    def __enter__(self) -> "Speed":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        self.proc.wait(timeout=30)
        for line in self.log.read_text().splitlines():
            fields = line.split()
            if len(fields) == 2:  # the last line may be cut by the terminate
                self.samples.append((float(fields[0]), float(fields[1])))

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean kernel time in ``[t0, t1]`` over the reference machine's."""
        inside = [d for t, d in self.samples if t0 <= t <= t1]
        if len(inside) < MIN_SPEED_SAMPLES:
            mid = (t0 + t1) / 2
            nearest = sorted(self.samples, key=lambda s: abs(s[0] - mid))
            inside = [d for _, d in nearest[:MIN_SPEED_SAMPLES]]
        return statistics.fmean(inside) / REFERENCE_KERNEL_S


# -- statistics ----------------------------------------------------------------


def quantile(samples, q: float, min_tail: int = MIN_TAIL) -> float | None:
    """Nearest-rank ``q``-quantile, or ``None`` when the sample cannot support it.

    The value reported is the ``ceil(q*n)``-th smallest sample; it is
    supported only when at least ``min_tail`` samples lie strictly beyond
    it, i.e. ``n - ceil(q*n) >= min_tail``.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < min_tail:
        return None
    return sorted(samples)[rank - 1]


def median(samples) -> float:
    return float(statistics.median(samples))


# -- /proc readings --------------------------------------------------------------


def process_tree(pid: int) -> list[int]:
    """``pid`` and every live descendant, parents before children."""
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may contain spaces; fields resume after ")"
        ppid = int(stat.rsplit(")", 1)[1].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop(0)
        out.append(p)
        todo.extend(sorted(children.get(p, ())))
    return out


def tree_peak_rss_mb(pid: int) -> float:
    """Sum over the process tree of each process's resident-set peak (VmHWM)."""
    total_kb = 0
    for p in process_tree(pid):
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
        except OSError:
            continue
    return total_kb / 1024.0


def tree_cpu_s(pid: int) -> float:
    """User + system CPU seconds consumed so far by the process tree."""
    ticks = 0
    for p in process_tree(pid):
        try:
            with open(f"/proc/{p}/stat") as fh:
                fields = fh.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        ticks += int(fields[11]) + int(fields[12])  # utime, stime
    return ticks / os.sysconf("SC_CLK_TCK")


def kill_tree(proc: subprocess.Popen) -> None:
    """SIGKILL a child and its descendants and wait until all have ended."""
    pids = process_tree(proc.pid) if proc.poll() is None else []
    for p in reversed(pids):
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    deadline = time.monotonic() + 10.0
    for p in pids[1:]:
        while os.path.exists(f"/proc/{p}") and time.monotonic() < deadline:
            time.sleep(0.01)


# -- CLI runs through the launcher ----------------------------------------------------


@dataclass
class CliRun:
    """One launcher process: ``perf_counter`` stamps, output and exit codes.

    ``spawn`` to ``ready`` is set-up (interpreter start and ``import
    repro.cli``), ``ready`` to ``end`` runs the commands, ``spawn`` to
    ``exit`` is what a user waits for.
    """

    spawn: float
    ready: float
    end: float
    exit: float
    rss_mb: float
    codes: list[int]
    stdout: str

    @property
    def setup_s(self) -> float:
        return self.ready - self.spawn

    @property
    def work_s(self) -> float:
        return self.end - self.ready

    @property
    def latency_s(self) -> float:
        return self.exit - self.spawn


def run_cli(commands: list[list[str]], program: Child, timeout: float = 170.0) -> CliRun:
    """Run ``repro.cli.main`` on each argv in one fresh process.

    Stamps come from the system-wide ``perf_counter`` clock, the
    launcher's included.
    """
    t_spawn = time.perf_counter()
    proc = program.popen(
        [sys.executable, str(LAUNCH), json.dumps(commands)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_tree(proc)
        raise BenchError(f"launcher timed out after {timeout:g}s: {commands}")
    t_exit = time.perf_counter()
    report = None
    for line in reversed(err.splitlines()):
        if line.startswith("BENCH-LAUNCH "):
            report = json.loads(line.split(" ", 1)[1])
            break
    if report is None:
        raise BenchError(f"launcher produced no report (exit {proc.returncode}):\n{err[-2000:]}")
    return CliRun(t_spawn, report["ready"], report["end"], t_exit, report["rss_mb"], report["codes"], out)


# -- servers ---------------------------------------------------------------------

_LISTEN_RE = re.compile(r"listening on ([\d.]+):(\d+)")


def read_listen_port(proc: subprocess.Popen, timeout: float = 60.0) -> int:
    """Wait for the server's ``listening on host:port`` line; return the port."""
    assert proc.stdout is not None
    fd = proc.stdout.fileno()
    deadline = time.monotonic() + timeout
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        while time.monotonic() < deadline:
            if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                break
            buf += chunk
            match = _LISTEN_RE.search(buf.decode(errors="replace"))
            if match:
                return int(match.group(2))
    raise BenchError(f"server did not report a port; output:\n{buf.decode(errors='replace')[-2000:]}")
