"""Sharded serving tier: consistent-hash router over N engine shards.

One :class:`~repro.serve.server.SchedulerServer` is bounded by one core.
This module scales the serving layer horizontally while keeping the
repo's defining guarantee — determinism — intact:

* **Consistent-hash routing** (:class:`HashRing`) — each shard owns
  ``vnodes`` pseudo-random arcs of a 63-bit ring; a job's routing key
  (its tenant by default) lands on the first arc clockwise.  Ring
  positions come from :func:`repro.core.rng.derive_seed`, so placement
  is a pure function of ``(seed, shard names, key)`` — the same key maps
  to the same shard in every process, and removing one of N shards
  remaps only the keys that shard owned (~1/N of the population).

* **Per-shard seed discipline** (:func:`shard_seed`) — shard 0 runs on
  the *base* seed and shard i>0 on ``derive_seed(seed, "shard/i")``,
  mirroring the replicate discipline of :mod:`repro.analysis.pool`
  (replicate 0 = base seed).  A ``--shards 1`` deployment is therefore
  bit-identical to the serial server, and every shard of a wider
  deployment is independently verifiable against an offline
  :func:`repro.flowsim.simulate` with its own seed.

* **Submission-order reassembly** — the router logs every offered job
  (tenant, routed shard, shard-local id).  :meth:`ShardRouter.drain`
  collects each shard's per-job flow times and reassembles them in
  global submission order, exactly like the pool runner reassembles
  grid cells, so a sharded run's merged report is byte-identical across
  runs (:meth:`ShardRouter.report_json` serializes canonically).

* **Shard lifecycle** — shards are either in-process
  (:class:`LocalShard`, an unstarted server dispatched directly — fast
  path for tests) or real subprocesses (:class:`SubprocessShard`) with
  a write-ahead journal each; :meth:`SubprocessShard.kill` +
  :meth:`SubprocessShard.restart` exercise the crash path, and because
  each shard recovers from its own journal the merged report after a
  SIGKILL equals the uninterrupted one bit for bit.

Multi-tenant admission runs at the **router**, sized to the aggregate
fleet capacity (Σ shard m); shards run admission-free so the accept/shed
decision is made exactly once.  See docs/serving.md ("Sharding and
multi-tenancy") for the topology diagram and replay guarantees.
"""

from __future__ import annotations

import bisect
import json
import math
import os
import re
import selectors
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.core.rng import derive_seed
from repro.serve.loadgen import retry_delay
from repro.serve.admission import AdmissionConfig, AdmissionDecision
from repro.serve.server import (
    LineFramer,
    SchedulerServer,
    ServeConfig,
    advance_field,
    decode_request,
    submit_fields,
)
from repro.serve.tenancy import DEFAULT_TENANT, MultiTenantAdmission, TenancyConfig

__all__ = [
    "HashRing",
    "LocalShard",
    "ShardError",
    "ShardFrontend",
    "ShardRouter",
    "ShardSupervisor",
    "SubprocessShard",
    "build_local_router",
    "build_subprocess_router",
    "shard_seed",
]

_PORT_RE = re.compile(r"listening on [\d.]+:(\d+)")


class ShardError(RuntimeError):
    """A shard failed to start, respond, or recover."""


class _LineTooLong(ShardError):
    """A request would exceed the shard's ``max_line_bytes``; not sent."""


def _check_line(shard, line: bytes) -> None:
    """Refuse a request line the shard would reject as too long."""
    if len(line) - 1 > shard.config.max_line_bytes:
        raise _LineTooLong(
            f"request of {len(line) - 1} bytes exceeds {shard.name}'s "
            f"max_line_bytes ({shard.config.max_line_bytes})"
        )


def shard_seed(seed: int, index: int) -> int:
    """Engine seed for shard ``index`` under master ``seed``.

    Shard 0 keeps the base seed — the same rule the grid pool applies to
    replicate 0 — so a one-shard deployment reproduces the serial
    reference bit for bit.  Pinned by the ring determinism tests.
    """
    if index == 0:
        return int(seed)
    return derive_seed(seed, f"shard/{index}")


class HashRing:
    """Deterministic consistent-hash ring over named shards.

    Every shard contributes ``vnodes`` positions drawn from
    :func:`derive_seed` of ``(seed, "ring/<shard>/<v>")``; a key hashes
    to ``derive_seed(seed, "key/<key>")`` and is owned by the first
    shard position at or clockwise of it.  Because a shard's positions
    depend only on its own name (and the shared seed), dropping a shard
    leaves every other shard's positions in place — only the dropped
    arcs change owner.
    """

    def __init__(
        self, shards: list[str], seed: int = 0, vnodes: int = 64
    ) -> None:
        if not shards:
            raise ValueError("ring needs at least one shard")
        if len(set(shards)) != len(shards):
            raise ValueError("shard names must be unique")
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.seed = int(seed)
        self.vnodes = int(vnodes)
        self.shards = list(shards)
        points: list[tuple[int, str]] = []
        for name in shards:
            for v in range(vnodes):
                points.append((derive_seed(seed, f"ring/{name}/{v}"), name))
        points.sort()
        self._positions = [p for p, _ in points]
        self._owners = [o for _, o in points]

    def route(self, key: str) -> str:
        """Shard owning ``key`` — stable across processes and runs."""
        h = derive_seed(self.seed, f"key/{key}")
        i = bisect.bisect_left(self._positions, h)
        if i == len(self._positions):
            i = 0  # wrap: past the last arc back to the first
        return self._owners[i]

    def without(self, shard: str) -> "HashRing":
        """A new ring with ``shard`` removed (other arcs untouched)."""
        rest = [s for s in self.shards if s != shard]
        if len(rest) == len(self.shards):
            raise KeyError(f"unknown shard {shard!r}")
        return HashRing(rest, seed=self.seed, vnodes=self.vnodes)


# -- shard handles ---------------------------------------------------------


class LocalShard:
    """In-process shard: an unstarted server dispatched directly.

    The handle shares the server's op handlers (``_op_submit`` etc.)
    without a socket, so router logic can be tested at full speed with
    exactly the semantics — including journaling, when the config has a
    ``journal_dir`` — that the subprocess path exercises.
    """

    def __init__(self, name: str, config: ServeConfig) -> None:
        self.name = name
        self.config = config
        self._server = SchedulerServer(config)

    @property
    def scheduler(self):
        return self._server.scheduler

    def call(self, request: dict) -> dict:
        # the same line cap a subprocess shard enforces on the wire
        _check_line(self, json.dumps(request).encode() + b"\n")
        op = request.get("op")
        handler = getattr(self._server, f"_op_{op}", None)
        if handler is None or op in ("shutdown",):
            return {"ok": False, "error": f"unsupported shard op {op!r}"}
        try:
            return handler(request)
        except Exception as exc:  # noqa: BLE001 — mirror the server's guard
            return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}

    def close(self) -> None:
        if self._server._journal is not None:
            self._server._journal.close()


class SubprocessShard:
    """One engine shard as a real ``drep-sim serve`` subprocess.

    The shard speaks the JSON-lines protocol over a blocking socket and
    journals every mutating request, so :meth:`kill` (SIGKILL, no
    cleanup) followed by :meth:`restart` recovers it bit-for-bit from
    its own write-ahead log — the sharded crash-recovery tests build on
    exactly this pair.
    """

    def __init__(
        self,
        name: str,
        config: ServeConfig,
        journal_dir: str | Path,
        start_timeout: float = 30.0,
        restart_backoff: float = 0.25,
        restart_backoff_cap: float = 4.0,
        max_restart_attempts: int = 5,
        sleep=time.sleep,
    ) -> None:
        if config.journal_dir is None:
            config = ServeConfig(
                **{**_config_kwargs(config), "journal_dir": str(journal_dir)}
            )
        self.name = name
        self.config = config
        self.journal_dir = Path(journal_dir)
        self.start_timeout = float(start_timeout)
        self.restart_backoff = float(restart_backoff)
        self.restart_backoff_cap = float(restart_backoff_cap)
        self.max_restart_attempts = int(max_restart_attempts)
        #: lifetime spawn attempts made by :meth:`restart` (incl. failures)
        self.restart_attempts = 0
        #: successful revivals (hello round-tripped after a respawn)
        self.restarts = 0
        # jitter stream for restart backoff: a pure function of
        # (shard seed, shard name) so fleet revivals are reproducible
        self._restart_rng = np.random.default_rng(
            derive_seed(config.seed, f"restart/{name}")
        )
        self._sleep = sleep
        self._proc: subprocess.Popen | None = None
        self._sock: socket.socket | None = None
        self._rfile = None
        self.port: int | None = None
        # serializes wire round trips and restarts: the supervisor may
        # heartbeat from its own thread while the frontend routes jobs
        self._wire_lock = threading.RLock()

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        if self._proc is not None:
            raise ShardError(f"shard {self.name} already started")
        env = dict(os.environ)
        src = Path(__file__).resolve().parents[2]
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src), env.get("PYTHONPATH")) if p
        )
        self._proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", *self._argv()],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        self.port = self._await_port()
        self._connect()

    def _argv(self) -> list[str]:
        cfg = self.config
        argv = [
            "--m", str(cfg.m),
            "--policy", cfg.policy,
            "--seed", str(cfg.seed),
            "--host", cfg.host,
            "--port", "0",
            "--clock", cfg.clock,
            "--window", str(cfg.window),
            "--speed", str(cfg.speed),
            "--journal-dir", str(cfg.journal_dir),
            "--snapshot-every", str(cfg.snapshot_every),
            "--max-line-bytes", str(cfg.max_line_bytes),
        ]
        if cfg.fsync:
            argv.append("--fsync")
        return argv

    def _await_port(self) -> int:
        """Wait for the child's ``listening on`` line, honoring the deadline.

        The pipe is polled via :mod:`selectors` and drained with
        :func:`os.read` — a blocking ``readline()`` would ignore
        ``start_timeout`` whenever the child starts but never prints the
        port (and never closes stdout).  Only complete lines are matched,
        so a port number split across reads cannot match truncated.
        """
        assert self._proc is not None and self._proc.stdout is not None
        deadline = time.monotonic() + self.start_timeout
        fd = self._proc.stdout.fileno()
        buf = ""
        with selectors.DefaultSelector() as sel:
            sel.register(fd, selectors.EVENT_READ)
            while True:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                if not sel.select(timeout=remaining):
                    continue  # poll timeout: loop re-checks the deadline
                chunk = os.read(fd, 4096)
                if not chunk:
                    break  # EOF: the child exited or closed stdout
                buf += chunk.decode(errors="replace")
                *lines, buf = buf.split("\n")
                for line in lines:
                    match = _PORT_RE.search(line)
                    if match:
                        return int(match.group(1))
        self._proc.kill()
        self._proc.wait(timeout=self.start_timeout)
        raise ShardError(f"shard {self.name} did not report a port")

    def _connect(self) -> None:
        assert self.port is not None
        self._sock = socket.create_connection(
            (self.config.host, self.port), timeout=self.start_timeout
        )
        self._rfile = self._sock.makefile("rb")

    def call(self, request: dict) -> dict:
        """One request/reply round trip.

        Any socket error on the way, a read timeout included, leaves the
        stream at an unknown position (a timed-out socket file refuses
        every later read), so the connection is dropped and the failure
        raised as :class:`ShardError`; :meth:`restart` reconnects.
        """
        line = json.dumps(request).encode() + b"\n"
        _check_line(self, line)
        with self._wire_lock:
            if self._sock is None:
                raise ShardError(f"shard {self.name} is not connected")
            try:
                self._sock.sendall(line)
                line = self._rfile.readline()
            except OSError as exc:
                self._drop_connection()
                raise ShardError(
                    f"shard {self.name} round trip failed: {exc}"
                ) from exc
            if not line:
                raise ShardError(f"shard {self.name} closed the connection")
            return json.loads(line)

    def ping(self) -> bool:
        """Health check: one ``ping`` round trip, failure = unhealthy."""
        try:
            return bool(self.call({"op": "ping"}).get("ok"))
        except (ShardError, OSError, ValueError):
            return False

    def kill(self) -> None:
        """SIGKILL the shard — no cleanup, the crash-recovery path."""
        if self._proc is not None:
            self._proc.send_signal(signal.SIGKILL)
            self._proc.wait(timeout=self.start_timeout)
            self._proc = None
        self._drop_connection()

    def reap(self) -> None:
        """Collect a dead child process and drop its stale connection.

        A shard that exited on its own (crash, OOM kill) leaves a zombie
        until waited on; a shard that is still alive raises — restarting
        over a live process would orphan it and double-serve the journal.
        """
        if self._proc is not None:
            if self._proc.poll() is None:
                raise ShardError(f"shard {self.name} is still running")
            self._proc.wait()
            self._proc = None
        self._drop_connection()

    def restart(self) -> dict:
        """Respawn from the same journal directory; returns its ``hello``.

        The new process replays its write-ahead log, so the shard comes
        back with the same clock, in-flight jobs and policy RNG it died
        with.  Spawn failures are retried up to ``max_restart_attempts``
        times with bounded exponential backoff and seeded jitter (the
        same :func:`~repro.serve.loadgen.retry_delay` discipline the wire
        client uses); the dead child is reaped before every attempt so a
        half-started process never leaks.  A child that is still running
        but unreachable (say, its connection dropped after a read timeout)
        is SIGKILLed first, as :meth:`kill` does: the journal, not the
        process, holds the shard's state.
        """
        with self._wire_lock:
            if self._proc is not None and self._proc.poll() is None:
                self.kill()
            self.reap()
            last_exc: Exception | None = None
            for attempt in range(1, self.max_restart_attempts + 1):
                self.restart_attempts += 1
                try:
                    self.start()
                    hello = self.call({"op": "hello"})
                    if not hello.get("ok"):
                        raise ShardError(
                            f"shard {self.name} revived but hello "
                            f"failed: {hello}"
                        )
                    self.restarts += 1
                    return hello
                except (ShardError, OSError, ValueError) as exc:
                    last_exc = exc
                    # tear down whatever half-started before the next try
                    if self._proc is not None:
                        if self._proc.poll() is None:
                            self._proc.kill()
                        self._proc.wait()
                        self._proc = None
                    self._drop_connection()
                    if attempt < self.max_restart_attempts:
                        self._sleep(
                            retry_delay(
                                attempt,
                                self.restart_backoff,
                                self.restart_backoff_cap,
                                self._restart_rng,
                            )
                        )
            raise ShardError(
                f"shard {self.name} failed to restart after "
                f"{self.max_restart_attempts} attempts"
            ) from last_exc

    def supervision_stats(self) -> dict:
        """Restart bookkeeping surfaced into the router report."""
        return {
            "restart_attempts": self.restart_attempts,
            "restarts": self.restarts,
            "alive": self._proc is not None and self._proc.poll() is None,
        }

    def drain_process(self) -> None:
        """Graceful stop: ``shutdown`` op, then wait for exit."""
        if self._proc is None:
            return
        try:
            self.call({"op": "shutdown"})
        except (ShardError, OSError):
            pass
        self._drop_connection()
        try:
            self._proc.wait(timeout=self.start_timeout)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait(timeout=self.start_timeout)
        self._proc = None

    def _drop_connection(self) -> None:
        if self._rfile is not None:
            self._rfile.close()
            self._rfile = None
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    def close(self) -> None:
        self.drain_process()


def _config_kwargs(config: ServeConfig) -> dict:
    from dataclasses import fields

    return {f.name: getattr(config, f.name) for f in fields(config)}


# -- the router ------------------------------------------------------------


class ShardRouter:
    """Routes jobs onto shards; owns admission, merge and lifecycle.

    Parameters
    ----------
    shards:
        Started shard handles (:class:`LocalShard` or
        :class:`SubprocessShard`).  Shards should run **without** their
        own admission caps — the router decides accept/shed exactly once
        against the aggregate capacity.
    seed:
        Master seed; also salts the :class:`HashRing`.
    admission:
        Router-level multi-tenant admission; when ``None`` every offered
        job is accepted (the shards still journal and replay).
    """

    def __init__(
        self,
        shards: list[LocalShard | SubprocessShard],
        seed: int = 0,
        vnodes: int = 64,
        admission: MultiTenantAdmission | None = None,
    ) -> None:
        if not shards:
            raise ValueError("router needs at least one shard")
        names = [s.name for s in shards]
        self.seed = int(seed)
        self.shards = {s.name: s for s in shards}
        self.ring = HashRing(names, seed=seed, vnodes=vnodes)
        self.admission = admission
        #: one row per offered job, in submission order:
        #: (tenant, shard name or None when shed, shard-local job id)
        self._log: list[tuple[str, str | None, int | None]] = []
        self._now = 0.0
        # fleet occupancy view, refreshed on advance/drain and bumped on
        # accept — deterministic in the request sequence, which is all
        # admission needs
        self._active_view = 0
        self._backlog_view = 0.0
        #: per-shard, per-tenant completed counters already reconciled
        self._completed_seen: dict[str, dict[str, int]] = {}
        self._merged: dict | None = None

    @property
    def m_total(self) -> int:
        return sum(s.config.m for s in self.shards.values())

    @property
    def now(self) -> float:
        return self._now

    @property
    def n_offered(self) -> int:
        return len(self._log)

    @property
    def n_accepted(self) -> int:
        return sum(1 for _, shard, _ in self._log if shard is not None)

    @property
    def n_shed(self) -> int:
        return len(self._log) - self.n_accepted

    # -- the online API ----------------------------------------------------

    def submit(
        self,
        work: float,
        span: float | None = None,
        mode: str = "sequential",
        weight: float = 1.0,
        release: float | None = None,
        tenant: str | None = None,
        key: str | None = None,
    ) -> dict:
        """Offer one job: admit at the router, route by key, forward.

        The routing key defaults to the tenant (all of one tenant's jobs
        land on one shard — cache affinity and per-tenant ordering), but
        an explicit ``key`` spreads a tenant over the ring.  Returns the
        shard's submit response extended with ``shard`` and ``tenant``.
        An invalid request raises ``ValueError`` before admission sees
        it; a shard that refuses the job raises :class:`ShardError`.
        This is the one-item case of :meth:`submit_batch`.
        """
        (outcome,) = self._route(
            [
                {
                    "work": work,
                    "span": span,
                    "mode": mode,
                    "weight": weight,
                    "release": release,
                    "tenant": tenant,
                    "key": key,
                }
            ]
        )
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    def submit_batch(self, items: list[dict]) -> list[dict]:
        """Offer several jobs with one round trip per shard.

        Each item carries :meth:`submit`'s keyword arguments (a wire
        ``submit`` request will do; other keys are ignored).  Admission,
        routing, the routing log and ``global_id`` follow submission
        order, so the jobs end up exactly where one :meth:`submit` per
        item would put them.  Returns one reply per item, in order: what
        :meth:`submit` returns, or ``{"ok": false, "error": ...}`` where it
        would raise.

        A failed item leaves no log entry and no occupancy bump, but the
        admission decisions made for the items after it stand — they were
        taken on the view that counted it.  Invalid requests fail before
        admission, so only a transport failure (which fails every item
        sent to that shard, whether or not the shard applied them), an
        internal error or a release behind the shard's clock can fail an
        admitted item.
        """
        return [
            {"ok": False, "error": f"{type(o).__name__}: {o}"}
            if isinstance(o, Exception)
            else o
            for o in self._route(items)
        ]

    def _route(self, items: list[dict]) -> list:
        """Admit, forward and log ``items``; an outcome (reply or the
        exception that failed it) per item."""
        outcomes: list = [None] * len(items)
        requests: list[dict | None] = [None] * len(items)
        groups: dict[str, list[int]] = {}
        active, backlog = self._active_view, self._backlog_view
        for i, item in enumerate(items):
            try:
                # routing is a pure function of the key, so the owning
                # shard is known before admission and judges the span
                # with its own m
                key = item.get("key")
                if key is None:
                    key = item.get("tenant") or DEFAULT_TENANT
                name = self.ring.route(key)
                fields = submit_fields(item, self.shards[name].config.m)
                label = fields["tenant"] or DEFAULT_TENANT
                release = fields["release"]
                if release is None:
                    release = self._now
                self._now = max(self._now, release)
                work = fields["work"]
                if self.admission is not None:
                    self.admission.observe(release, work)
                    decision = self.admission.decide_tenant(
                        t=release,
                        tenant=label,
                        work=work,
                        active=self._active_view,
                        backlog_work=self._backlog_view,
                    )
                    if decision is not AdmissionDecision.ACCEPT:
                        outcomes[i] = {
                            "ok": True,
                            "accepted": False,
                            "job_id": None,
                            "decision": decision.value,
                            "shard": None,
                            "tenant": label,
                        }
                        continue
            except Exception as exc:  # noqa: BLE001 — one item, one error
                outcomes[i] = exc
                continue
            requests[i] = {
                "op": "submit",
                **fields,
                "release": release,
                "tenant": label,
            }
            groups.setdefault(name, []).append(i)
            # bumped at once: the next item's decision sees this one
            self._active_view += 1
            self._backlog_view += work
        for name, idx in groups.items():
            try:
                replies = self._forward(
                    self.shards[name], [requests[i] for i in idx]
                )
            except Exception as exc:  # noqa: BLE001 — fate unknown: all fail
                replies = [exc] * len(idx)
            for i, resp in zip(idx, replies):
                if isinstance(resp, Exception):
                    pass
                elif not (resp.get("ok") and resp.get("accepted")):
                    # shards run admission-free: an error, not a shed
                    resp = ShardError(
                        f"shard {name} refused a routed job: {resp}"
                    )
                else:
                    resp["shard"] = name
                    resp["tenant"] = requests[i]["tenant"]
                outcomes[i] = resp
        # the log, global ids and the occupancy view in submission order,
        # counting only the jobs a shard took
        for i, outcome in enumerate(outcomes):
            if isinstance(outcome, Exception):
                continue
            shard = outcome["shard"]  # None: shed
            self._log.append((outcome["tenant"], shard, outcome["job_id"]))
            if shard is not None:
                outcome["global_id"] = len(self._log) - 1
                active += 1
                backlog += requests[i]["work"]
        self._active_view, self._backlog_view = active, backlog
        return outcomes

    def _forward(self, shard, requests: list[dict]) -> list:
        """One round trip carrying ``requests``, halved while too long."""
        if len(requests) == 1:
            return [shard.call(requests[0])]
        try:
            resp = shard.call({"op": "batch", "requests": requests})
        except _LineTooLong:
            half = len(requests) // 2
            return self._forward(shard, requests[:half]) + self._forward(
                shard, requests[half:]
            )
        replies = resp.get("responses")
        if not resp.get("ok") or len(replies) != len(requests):
            raise ShardError(f"shard {shard.name} batch failed: {resp}")
        return replies

    def advance_to(self, t: float) -> None:
        """Advance every shard's clock to ``t`` and refresh occupancy."""
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"cannot advance the router clock to {t}")
        if t < self._now:
            raise ValueError(f"cannot rewind router clock to {t}")
        self._now = t
        active = 0
        backlog = 0.0
        for name in self.ring.shards:
            shard = self.shards[name]
            resp = shard.call({"op": "advance", "to": t})
            if not resp.get("ok"):
                raise ShardError(f"shard {name} advance failed: {resp}")
            stats = shard.call({"op": "stats"})["stats"]
            active += int(stats["active"]) + int(stats["pending"])
            backlog += float(stats["backlog_work"])
            self._reconcile_completions(name, stats)
        self._active_view = active
        self._backlog_view = backlog

    def _reconcile_completions(self, name: str, stats: dict) -> None:
        """Release router-side tenant queue slots for shard completions.

        The shard's per-tenant metrics carry lifetime ``completed``
        counters; the delta since the last refresh is exactly how many
        of that tenant's slots freed up.
        """
        if self.admission is None:
            return
        tenant_counts = stats.get("window", {}).get("tenants", {})
        seen = self._completed_seen.setdefault(name, {})
        for tenant, row in tenant_counts.items():
            done = int(row["completed"])
            for _ in range(done - seen.get(tenant, 0)):
                self.admission.on_complete(tenant)
            seen[tenant] = done

    def ping_all(self) -> dict[str, bool]:
        """Health-check every shard (subprocess shards may be dead)."""
        out = {}
        for name, shard in self.shards.items():
            if hasattr(shard, "ping"):
                out[name] = shard.ping()
            else:
                out[name] = bool(shard.call({"op": "ping"}).get("ok"))
        return out

    def stats(self) -> dict:
        """Aggregate counters plus per-shard and per-tenant breakdowns."""
        per_shard = {}
        for name in self.ring.shards:
            shard = self.shards[name]
            per_shard[name] = shard.call({"op": "stats"})["stats"]
            if isinstance(shard, SubprocessShard):
                per_shard[name]["supervision"] = shard.supervision_stats()
        out = {
            "now": self._now,
            "shards": len(self.shards),
            "m_total": self.m_total,
            "offered": self.n_offered,
            "accepted": self.n_accepted,
            "shed": self.n_shed,
            "per_shard": per_shard,
        }
        if self.admission is not None:
            out["tenants"] = self.admission.tenant_stats(self._now)
        return out

    # -- drain and the merged report ---------------------------------------

    def drain(self) -> dict:
        """Drain every shard and reassemble the merged report.

        Per-job flow times come back in **global submission order** (the
        routing log maps global ids to shard-local ids), per-tenant
        groups are keyed by label, and the makespan is the latest shard
        finish — the same reassembly discipline the grid pool applies to
        out-of-order cells.
        """
        flows_of: dict[str, list[float]] = {}
        makespan = 0.0
        for name in self.ring.shards:
            resp = self.shards[name].call(
                {"op": "drain", "include_flows": True}
            )
            if not resp.get("ok"):
                raise ShardError(f"shard {name} drain failed: {resp}")
            flows_of[name] = [float(f) for f in resp["flow_times"]]
            makespan = max(makespan, float(resp["result"]["makespan"]))
            self._reconcile_completions(
                name, self.shards[name].call({"op": "stats"})["stats"]
            )
        self._active_view = 0
        self._backlog_view = 0.0
        per_job: list[float] = []
        tenants: dict[str, dict] = {}
        for tenant, shard, local_id in self._log:
            row = tenants.setdefault(
                tenant, {"accepted": 0, "shed": 0, "flows": []}
            )
            if shard is None:
                row["shed"] += 1
                continue
            flow = flows_of[shard][local_id]
            per_job.append(flow)
            row["accepted"] += 1
            row["flows"].append(flow)
        tenant_rows = {}
        for tenant in sorted(tenants):
            row = tenants[tenant]
            flows = row["flows"]
            tenant_rows[tenant] = {
                "accepted": row["accepted"],
                "shed": row["shed"],
                "count": len(flows),
                "total_flow": sum(flows),
                "mean_flow": sum(flows) / len(flows) if flows else 0.0,
                "max_flow": max(flows) if flows else 0.0,
            }
        self._merged = {
            "seed": self.seed,
            "shards": len(self.shards),
            "m_total": self.m_total,
            "offered": self.n_offered,
            "accepted": self.n_accepted,
            "shed": self.n_shed,
            "makespan": makespan,
            "total_flow": sum(per_job),
            "mean_flow": sum(per_job) / len(per_job) if per_job else 0.0,
            "flow_times": per_job,
            "tenants": tenant_rows,
        }
        return self._merged

    def report_json(self, report: dict | None = None) -> bytes:
        """Canonical serialization of the merged report.

        Sorted keys and tight separators make equal reports equal
        *bytes* — the form the replay-determinism tests compare.
        """
        if report is None:
            report = self._merged
        if report is None:
            raise ShardError("no merged report yet — call drain() first")
        return json.dumps(
            report, sort_keys=True, separators=(",", ":")
        ).encode()

    def close(self) -> None:
        for shard in self.shards.values():
            shard.close()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class ShardSupervisor:
    """Self-healing loop over a router's subprocess shards.

    Each sweep (:meth:`check_once`) heartbeats every
    :class:`SubprocessShard` with a ``ping`` and revives dead ones via
    :meth:`SubprocessShard.restart` — which reaps the corpse, respawns
    with bounded backoff, and replays the shard's write-ahead journal, so
    a revived shard rejoins with the clock, in-flight jobs and policy RNG
    it died with.  :class:`LocalShard` entries are in-process and cannot
    die independently; they are reported ``local`` and skipped.

    The supervisor is cooperative: call :meth:`check_once` from any loop
    you already own, or :meth:`run` for a blocking heartbeat loop (the
    CLI's ``--supervise`` path runs it on a daemon thread).  A shard that
    exhausts its restart budget is marked failed and left alone until an
    operator intervenes — flapping forever would just burn the backoff
    budget every sweep.
    """

    def __init__(self, router: ShardRouter) -> None:
        self.router = router
        self.sweeps = 0
        self.revivals = 0
        self.failures = 0
        #: shards that exhausted their restart budget; not retried
        self.failed: set[str] = set()
        #: last sweep's verdict per shard name
        self.last_status: dict[str, str] = {}

    def check_once(self) -> dict[str, str]:
        """One heartbeat sweep; returns shard name → verdict.

        Verdicts: ``healthy``, ``revived`` (dead, restart + journal
        replay succeeded), ``failed`` (restart budget exhausted, now
        quarantined), ``local`` (in-process shard, nothing to supervise).
        """
        self.sweeps += 1
        status: dict[str, str] = {}
        for name, shard in self.router.shards.items():
            if not isinstance(shard, SubprocessShard):
                status[name] = "local"
                continue
            if name in self.failed:
                status[name] = "failed"
                continue
            if shard.ping():
                status[name] = "healthy"
                continue
            try:
                shard.restart()
            except ShardError:
                self.failures += 1
                self.failed.add(name)
                status[name] = "failed"
            else:
                self.revivals += 1
                status[name] = "revived"
        self.last_status = status
        return status

    def run(
        self,
        interval: float = 1.0,
        max_sweeps: int | None = None,
        stop=None,
        sleep=time.sleep,
    ) -> None:
        """Blocking heartbeat loop: sweep, sleep ``interval``, repeat.

        ``stop`` is an optional ``threading.Event``-like object checked
        between sweeps; ``max_sweeps`` bounds the loop for tests.
        """
        done = 0
        while max_sweeps is None or done < max_sweeps:
            if stop is not None and stop.is_set():
                return
            self.check_once()
            done += 1
            if max_sweeps is not None and done >= max_sweeps:
                return
            sleep(interval)

    def stats(self) -> dict:
        """Counters plus per-shard restart bookkeeping."""
        per_shard = {}
        for name, shard in self.router.shards.items():
            if isinstance(shard, SubprocessShard):
                per_shard[name] = shard.supervision_stats()
        return {
            "sweeps": self.sweeps,
            "revivals": self.revivals,
            "failures": self.failures,
            "failed": sorted(self.failed),
            "per_shard": per_shard,
        }


class ShardFrontend:
    """Asyncio JSON-lines listener in front of a :class:`ShardRouter`.

    Speaks the same framing as :class:`~repro.serve.server.SchedulerServer`
    (:class:`~repro.serve.server.LineFramer`, the same ``max_line_bytes``
    cap) with the router-level op set: ``hello``, ``submit`` (with
    ``tenant`` and optional ``key``), ``advance``, ``stats``, ``tenants``,
    ``ping``, ``drain`` (the merged report) and ``shutdown``.  Router
    calls block briefly on shard sockets; requests are serialized, which
    is also what keeps the routing log deterministic.

    Each read is answered as one pass, in request order and with one
    write: a run of consecutive submits goes to
    :meth:`ShardRouter.submit_batch` (one round trip per shard), and any
    other line first completes the pending run.  A read holding a single
    request takes the one-request path, :meth:`_dispatch`.
    """

    def __init__(
        self,
        router: ShardRouter,
        host: str = "127.0.0.1",
        port: int = 0,
        max_line_bytes: int = ServeConfig.max_line_bytes,
    ) -> None:
        if max_line_bytes < 64:
            raise ValueError("max_line_bytes must be >= 64")
        self.router = router
        self.host = host
        self.max_line_bytes = max_line_bytes
        self._requested_port = port
        self._server = None
        self._stopped = None

    @property
    def port(self) -> int:
        assert self._server is not None, "frontend not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        import asyncio

        self._stopped = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle,
            self.host,
            self._requested_port,
            limit=self.max_line_bytes,
        )

    async def wait_closed(self) -> None:
        assert self._stopped is not None
        await self._stopped.wait()

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.router.close()
        if self._stopped is not None:
            self._stopped.set()

    async def _handle(self, reader, writer) -> None:
        framer = LineFramer(reader, self.max_line_bytes)
        try:
            while lines := await framer.read_lines():
                replies = self._answer(lines)
                writer.write(
                    b"".join(json.dumps(r).encode() + b"\n" for r in replies)
                )
                await writer.drain()
                if replies[-1].get("bye"):
                    import asyncio

                    asyncio.get_running_loop().call_soon(
                        lambda: asyncio.ensure_future(self.stop())
                    )
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            writer.close()

    def _answer(self, lines: list) -> list[dict]:
        """Replies to one pass of framed lines, in request order; a
        ``shutdown`` ends the pass."""
        if len(lines) == 1 and isinstance(lines[0], bytes):
            return [self._dispatch(lines[0])]
        replies: list[dict] = []
        run: list[dict] = []
        for line in lines:
            request, reply = _decode(line)
            if request is not None and request.get("op") == "submit":
                run.append(request)
                continue
            replies += self._submit_run(run)
            run = []
            replies.append(reply or self._respond(request))
            if replies[-1].get("bye"):
                return replies
        return replies + self._submit_run(run)

    def _submit_run(self, run: list[dict]) -> list[dict]:
        if not run:
            return []
        replies = self.router.submit_batch(run)
        for request, reply in zip(run, replies):
            if request.get("id") is not None:
                reply["id"] = request["id"]
        return replies

    def _dispatch(self, line: bytes) -> dict:
        request, reply = _decode(line)
        return reply or self._respond(request)

    def _respond(self, request: dict) -> dict:
        req_id = request.get("id")
        try:
            response = self._apply(request)
        except Exception as exc:  # noqa: BLE001 — one request, one error
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if req_id is not None:
            response["id"] = req_id
        return response

    def _apply(self, request: dict) -> dict:
        router = self.router
        op = request.get("op")
        if op == "hello":
            return {
                "ok": True,
                "service": "drep-serve-router",
                "shards": len(router.shards),
                # "m" = fleet capacity: what single-server clients (e.g.
                # loadgen's load calibration) expect to find in a hello
                "m": router.m_total,
                "m_total": router.m_total,
                "seed": router.seed,
                "now": router.now,
                "multi_tenant": router.admission is not None,
            }
        if op == "submit":
            return router.submit(
                work=request.get("work"),
                span=request.get("span"),
                mode=request.get("mode", "sequential"),
                weight=request.get("weight", 1.0),
                release=request.get("release"),
                tenant=request.get("tenant"),
                key=request.get("key"),
            )
        if op == "advance":
            router.advance_to(advance_field(request))
            return {"ok": True, "now": router.now}
        if op == "stats":
            return {"ok": True, "stats": router.stats()}
        if op == "tenants":
            if router.admission is None:
                raise ValueError("router has no multi-tenant admission")
            return {
                "ok": True,
                "now": router.now,
                "tenants": router.admission.tenant_stats(router.now),
            }
        if op == "ping":
            return {"ok": True, "now": router.now, "shards": router.ping_all()}
        if op == "drain":
            report = router.drain()
            out = {"ok": True, "now": router.now, "result": report}
            if not request.get("include_flows"):
                out["result"] = {
                    k: v for k, v in report.items() if k != "flow_times"
                }
            return out
        if op == "shutdown":
            return {"ok": True, "bye": True}
        return {"ok": False, "error": f"unknown op {op!r}"}


def _decode(line: bytes | dict) -> tuple[dict | None, dict | None]:
    """``(request, None)``, or ``(None, error reply)`` for a line that is
    oversized (the framer's error) or not a JSON object."""
    if isinstance(line, dict):
        return None, line
    try:
        return decode_request(line), None
    except ValueError as exc:
        return None, {"ok": False, "error": f"bad request: {exc}"}


def build_local_router(
    n_shards: int,
    m: int = 8,
    policy: str = "drep",
    seed: int = 0,
    vnodes: int = 64,
    tenancy: TenancyConfig | None = None,
    admission_config: AdmissionConfig | None = None,
    journal_root: str | Path | None = None,
) -> ShardRouter:
    """Convenience constructor: N in-process shards + router admission.

    Shard ``i`` is named ``shard/<i>``, runs on :func:`shard_seed` of
    ``(seed, i)``, and journals under ``journal_root/shard-<i>`` when a
    root is given.  Router admission is built whenever ``tenancy`` or
    ``admission_config`` is provided, sized to the fleet (N × m).
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    shards = []
    for i in range(n_shards):
        journal_dir = (
            None
            if journal_root is None
            else str(Path(journal_root) / f"shard-{i}")
        )
        config = ServeConfig(
            m=m,
            policy=policy,
            seed=shard_seed(seed, i),
            journal_dir=journal_dir,
        )
        shards.append(LocalShard(f"shard/{i}", config))
    admission = None
    if tenancy is not None or admission_config is not None:
        admission = MultiTenantAdmission(
            admission_config or AdmissionConfig(),
            m=n_shards * m,
            tenancy=tenancy or TenancyConfig(),
        )
    return ShardRouter(shards, seed=seed, vnodes=vnodes, admission=admission)


def build_subprocess_router(
    n_shards: int,
    journal_root: str | Path,
    m: int = 8,
    policy: str = "drep",
    seed: int = 0,
    vnodes: int = 64,
    tenancy: TenancyConfig | None = None,
    admission_config: AdmissionConfig | None = None,
    snapshot_every: int = 256,
    fsync: bool = False,
) -> ShardRouter:
    """Spawn N journaled ``drep-sim serve`` subprocesses behind a router.

    Same naming/seed/admission discipline as :func:`build_local_router`;
    ``journal_root`` is mandatory because the journal *is* a subprocess
    shard's crash-recovery story.  Shards that fail to start are torn
    down before the error propagates.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    shards: list[SubprocessShard] = []
    try:
        for i in range(n_shards):
            config = ServeConfig(
                m=m,
                policy=policy,
                seed=shard_seed(seed, i),
                journal_dir=str(Path(journal_root) / f"shard-{i}"),
                snapshot_every=snapshot_every,
                fsync=fsync,
            )
            shard = SubprocessShard(
                f"shard/{i}", config, config.journal_dir
            )
            # registered before start(): a child that spawned but failed
            # mid-start (e.g. the connect raised) must still be torn down
            shards.append(shard)
            shard.start()
    except Exception:
        for shard in shards:
            shard.kill()
        raise
    admission = None
    if tenancy is not None or admission_config is not None:
        admission = MultiTenantAdmission(
            admission_config or AdmissionConfig(),
            m=n_shards * m,
            tenancy=tenancy or TenancyConfig(),
        )
    return ShardRouter(shards, seed=seed, vnodes=vnodes, admission=admission)
