"""Asyncio JSON-lines scheduling server.

One engine, one listening socket.  Each request is a single JSON object
on its own line; each response is a single JSON line with ``"ok"`` plus
op-specific fields (requests may carry an ``"id"`` which is echoed
back).  The protocol is documented operation-by-operation in
``docs/serving.md``; the short version::

    {"op": "hello"}                          -> server identity & config
    {"op": "submit", "work": 3.5, ...}       -> queue (or shed) one job
    {"op": "batch", "requests": [...]}       -> several submits, one reply
    {"op": "advance", "to": 120.0}           -> move the sim clock forward
    {"op": "query", "job_id": 7}             -> job status
    {"op": "stats"}                          -> counters + windowed metrics
    {"op": "metrics"}                        -> Prometheus text exposition
    {"op": "drain"}                          -> run empty, full result
    {"op": "snapshot", "path": "..."}        -> checkpoint to disk
    {"op": "shutdown"}                       -> stop the server

Two clock modes:

* ``trace`` (default) — virtual time: the clock advances only when a
  submitted job carries a ``release`` stamp ahead of it, or via an
  explicit ``advance`` op.  This is the replay mode: streaming a trace's
  jobs at their release stamps reproduces the batch simulation
  bit-for-bit, which is what makes live results comparable to offline
  figures.
* ``wall`` — a background ticker maps real time onto the sim clock at
  ``time_scale`` sim-units per second; unstamped submissions are
  released "now".

All engine access is serialized through one asyncio lock — the engine
itself is the single-machine resource being scheduled.  A ``batch``
runs its submits in order under one hold of that lock and commits
their journal entries with one flush; each item is answered exactly as
the same submit sent alone.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
from dataclasses import dataclass

from repro.core.job import ParallelismMode, check_job_fields, default_span
from repro.flowsim.engine import FlowSimConfig
from repro.flowsim.policies import policy_by_name
from repro.serve.admission import AdmissionConfig, AdmissionController
from repro.serve.journal import RequestJournal
from repro.serve.journal import recover as journal_recover
from repro.serve.metrics import RollingMetrics
from repro.serve.online import OnlineScheduler
from repro.serve.snapshot import snapshot_scheduler_file
from repro.serve.tenancy import MultiTenantAdmission, TenancyConfig

__all__ = [
    "LineFramer",
    "SchedulerServer",
    "ServeConfig",
    "advance_field",
    "decode_request",
    "submit_fields",
]

#: bytes asked of the stream per read; one read returns whatever is
#: buffered up to this, so a pipelined burst arrives in one pass
_READ_CHUNK = 1 << 16


@dataclass(frozen=True)
class ServeConfig:
    """Server wiring: machine, policy, clock, admission and fault knobs."""

    m: int = 8
    policy: str = "drep"
    seed: int = 0
    host: str = "127.0.0.1"
    port: int = 8071
    clock: str = "trace"  # "trace" (virtual) or "wall" (real time)
    time_scale: float = 1.0  # sim-time units per wall second (wall mode)
    tick: float = 0.05  # wall seconds between ticker advances (wall mode)
    window: float = 1000.0
    speed: float = 1.0
    max_active: int | None = None
    max_backlog: float | None = None
    max_load: float | None = None
    halflife: float = 50.0
    snapshot_path: str | None = None  # default target for the snapshot op
    #: write-ahead journal directory; enables crash recovery on restart
    journal_dir: str | None = None
    #: auto-checkpoint (and truncate the journal) every N journaled ops
    snapshot_every: int = 256
    #: fsync every journal append (power-loss durability, slower)
    fsync: bool = False
    #: hard cap on one request line, bytes; longer lines are rejected
    #: with a structured error and the stream is resynced at the next
    #: newline instead of dropping the connection
    max_line_bytes: int = 1 << 20
    #: requests allowed to wait for the engine lock before new ones are
    #: shed with an ``overloaded`` response (None = unbounded)
    max_pending: int | None = None
    #: wall seconds a request may wait for the engine before it is
    #: refused with a ``timed_out`` response (None = wait forever)
    request_timeout: float | None = None
    #: build the tenant-aware admission layer even without credits, so
    #: ``submit`` requests may carry a ``tenant`` label and the DRF
    #: throttling applies whenever the soft caps trip
    multi_tenant: bool = False
    #: per-tenant credit accrual as a fraction of fleet capacity
    #: (None disables the credit check; implies ``multi_tenant``)
    credit_rate: float | None = None
    #: seconds of a tenant's own accrual it may bank while idle
    credit_burst: float = 20.0
    #: seconds of accrual a tenant may borrow (run into debt) before shed
    credit_borrow: float = 0.0
    #: slack multiplier on the DRF entitlement before a tenant is dominant
    drf_headroom: float = 1.2
    #: closed-loop elastic capacity: the engine still allocates ``m``
    #: processors but a seeded controller parks/revives them from the
    #: top between ``[autoscale_m_min, m]`` (see repro.autoscale)
    autoscale: bool = False
    autoscale_m_min: int = 1
    #: sim-time between controller ticks (trace clock: ticks fire at
    #: exact multiples regardless of how advances are chunked)
    autoscale_tick: float = 10.0
    autoscale_up: float = 20.0
    autoscale_down: float = 5.0
    autoscale_cooldown_up: float = 10.0
    autoscale_cooldown_down: float = 30.0
    #: preempt+requeue jobs stranded by a scale-down (vs letting them
    #: finish on the shrunken machine)
    autoscale_displace: bool = True
    autoscale_requeue_delay: float = 1.0

    def __post_init__(self) -> None:
        if self.clock not in ("trace", "wall"):
            raise ValueError("clock must be 'trace' or 'wall'")
        if self.time_scale <= 0 or self.tick <= 0:
            raise ValueError("time_scale and tick must be > 0")
        if self.max_line_bytes < 64:
            raise ValueError("max_line_bytes must be >= 64")
        if self.max_pending is not None and self.max_pending < 0:
            raise ValueError("max_pending must be >= 0")
        if self.request_timeout is not None and self.request_timeout <= 0:
            raise ValueError("request_timeout must be > 0")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")

    @property
    def tenant_aware(self) -> bool:
        return self.multi_tenant or self.credit_rate is not None

    def autoscale_config(self):
        """The :class:`repro.autoscale.AutoscaleConfig` this server runs.

        ``None`` when autoscale is off.  ``m_start = m``: a server comes
        up at full capacity and lets the controller shed idle processors,
        so enabling autoscale never degrades a cold start.
        """
        if not self.autoscale:
            return None
        from repro.autoscale.guard import AutoscaleConfig

        return AutoscaleConfig(
            m_min=self.autoscale_m_min,
            m_max=self.m,
            m_start=self.m,
            tick=self.autoscale_tick,
            up_watermark=self.autoscale_up,
            down_watermark=self.autoscale_down,
            cooldown_up=self.autoscale_cooldown_up,
            cooldown_down=self.autoscale_cooldown_down,
            displace=self.autoscale_displace,
            requeue_delay=self.autoscale_requeue_delay,
        )

    def build_scheduler(self) -> OnlineScheduler:
        admission = None
        admission_config = AdmissionConfig(
            max_active=self.max_active,
            max_backlog=self.max_backlog,
            max_load=self.max_load,
            halflife=self.halflife,
        )
        if self.tenant_aware:
            admission = MultiTenantAdmission(
                admission_config,
                self.m,
                tenancy=TenancyConfig(
                    credit_rate=self.credit_rate,
                    credit_burst=self.credit_burst,
                    credit_borrow=self.credit_borrow,
                    drf_headroom=self.drf_headroom,
                ),
            )
        elif (
            self.max_active is not None
            or self.max_backlog is not None
            or self.max_load is not None
        ):
            admission = AdmissionController(admission_config, self.m)
        return OnlineScheduler(
            m=self.m,
            policy=policy_by_name(self.policy),
            seed=self.seed,
            config=FlowSimConfig(speed=self.speed, max_events=None),
            admission=admission,
            metrics=RollingMetrics(window=self.window),
            autoscale=self.autoscale_config(),
        )


class SchedulerServer:
    """The serving loop around one :class:`OnlineScheduler`.

    ``scheduler`` overrides the one built from ``config`` — that is the
    restore-from-snapshot path (``drep-sim serve --restore``).
    """

    def __init__(
        self, config: ServeConfig, scheduler: OnlineScheduler | None = None
    ) -> None:
        self.config = config
        self._journal: RequestJournal | None = None
        self.recovered_seq = 0
        self.recovered_entries = 0
        if config.journal_dir is not None:
            if scheduler is None:
                scheduler, seq, replayed = journal_recover(
                    config.journal_dir, build_empty=config.build_scheduler
                )
                self.recovered_seq = seq
                self.recovered_entries = replayed
            self._journal = RequestJournal(
                config.journal_dir,
                snapshot_every=config.snapshot_every,
                fsync=config.fsync,
            )
        self.scheduler = (
            scheduler if scheduler is not None else config.build_scheduler()
        )
        self._lock = asyncio.Lock()
        self._pending = 0
        self._shed_requests = 0
        self._timed_out_requests = 0
        self._bad_lines = 0
        self._server: asyncio.base_events.Server | None = None
        self._clients: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._ticker: asyncio.Task | None = None
        self._wall_origin: float | None = None
        self._sim_origin = 0.0
        self._stopped = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    @property
    def port(self) -> int:
        """Actual bound port (useful with ``port=0``)."""
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client,
            self.config.host,
            self.config.port,
            limit=self.config.max_line_bytes,
        )
        if self.config.clock == "wall":
            loop = asyncio.get_running_loop()
            self._wall_origin = loop.time()
            self._sim_origin = self.scheduler.now
            self._ticker = asyncio.create_task(self._tick_forever())

    async def wait_closed(self) -> None:
        """Block until a ``shutdown`` op (or :meth:`stop`) ends the server."""
        await self._stopped.wait()

    async def stop(self) -> None:
        if self._ticker is not None:
            self._ticker.cancel()
            try:
                await self._ticker
            except asyncio.CancelledError:
                pass
            self._ticker = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        # closing the writers EOFs each client's reader, so handlers
        # drain out on their own — cancelling them instead trips
        # StreamReaderProtocol's noisy done-callback on CPython 3.11
        for writer in self._clients.values():
            writer.close()
        await asyncio.gather(*self._clients, return_exceptions=True)
        self._clients.clear()
        if self._journal is not None:
            self._journal.close()
        self._stopped.set()

    def _wall_now(self) -> float:
        assert self._wall_origin is not None
        elapsed = asyncio.get_running_loop().time() - self._wall_origin
        return self._sim_origin + elapsed * self.config.time_scale

    async def _tick_forever(self) -> None:
        while True:
            await asyncio.sleep(self.config.tick)
            async with self._lock:
                self.scheduler.advance_to(self._wall_now())

    # -- request handling --------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._clients[task] = writer
        framer = LineFramer(reader, self.config.max_line_bytes)
        try:
            while lines := await framer.read_lines():
                for line in lines:
                    if isinstance(line, dict):  # oversized: already an error
                        self._bad_lines += 1
                        response = line
                    else:
                        response = await self._dispatch_line(line)
                    writer.write(_encode_response(response))
                    await writer.drain()
                    if response.get("bye"):
                        return
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            if task is not None:
                self._clients.pop(task, None)
            writer.close()

    async def _dispatch_line(self, line: bytes) -> dict:
        try:
            request = decode_request(line)
        except ValueError as exc:
            self._bad_lines += 1
            return {"ok": False, "error": f"bad request: {exc}"}
        req_id = request.get("id")
        try:
            response = await self._dispatch(request)
        except asyncio.CancelledError:
            raise
        except Exception as exc:  # noqa: BLE001 — one request, one error
            # a single bad request must never take the server (or even
            # the connection) down; everything surfaces as a structured
            # error the client can correlate by id
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if req_id is not None:
            response["id"] = req_id
        return response

    async def _dispatch(self, request: dict) -> dict:
        op = request.get("op")
        handler = (
            getattr(self, f"_op_{op}", None) if isinstance(op, str) else None
        )
        if op is None or handler is None:
            return {"ok": False, "error": f"unknown op {op!r}"}
        cfg = self.config
        if cfg.max_pending is not None and self._pending >= cfg.max_pending:
            self._shed_requests += 1
            return {
                "ok": False,
                "error": (
                    f"overloaded: {self._pending} requests already waiting "
                    f"(max_pending={cfg.max_pending})"
                ),
                "overloaded": True,
            }
        self._pending += 1
        try:
            try:
                if cfg.request_timeout is not None:
                    await asyncio.wait_for(
                        self._lock.acquire(), cfg.request_timeout
                    )
                else:
                    await self._lock.acquire()
            except asyncio.TimeoutError:
                self._timed_out_requests += 1
                return {
                    "ok": False,
                    "error": (
                        f"timeout: engine busy for "
                        f"{cfg.request_timeout:g}s"
                    ),
                    "timed_out": True,
                }
            try:
                return handler(request)
            finally:
                self._lock.release()
        finally:
            self._pending -= 1

    # -- journal plumbing (called with the lock held) ----------------------

    def _journal_append(self, entry: dict) -> None:
        if self._journal is not None:
            self._journal.append(entry)

    def _journal_rotate(self) -> None:
        if self._journal is not None:
            self._journal.maybe_snapshot(self.scheduler)

    def _journal_group(self):
        if self._journal is None:
            return contextlib.nullcontext()
        return self._journal.group()

    # -- ops (called with the lock held) -----------------------------------

    def _op_hello(self, request: dict) -> dict:
        cfg = self.config
        out = {
            "ok": True,
            "service": "drep-serve",
            "m": self.scheduler.m,
            "policy": self.scheduler.policy.name,
            "policy_key": cfg.policy,
            "seed": self.scheduler.stepper.seed,
            "clock": cfg.clock,
            "speed": cfg.speed,
            "window": cfg.window,
            "now": self.scheduler.now,
            "multi_tenant": isinstance(
                self.scheduler.admission, MultiTenantAdmission
            ),
            "autoscale": self.scheduler.autoscale is not None,
            "m_current": self.scheduler.m_effective,
        }
        if self._journal is not None:
            out["journal_seq"] = self._journal.seq
            out["recovered_entries"] = self.recovered_entries
        return out

    def _op_submit(self, request: dict) -> dict:
        fields = submit_fields(request, self.scheduler.m)
        release = fields["release"]
        if self.config.clock == "wall":
            self.scheduler.advance_to(self._wall_now())
            if release is None:
                release = self.scheduler.now
        elif release is not None:
            # trace clock: the submission drives time to its release stamp
            self.scheduler.advance_to(float(release))
        else:
            release = self.scheduler.now
        fields["release"] = float(release)
        if self._journal is not None:
            # write-ahead: the *resolved* request hits the journal before
            # the engine, so a crash between the two replays it on recovery
            entry = {"op": "submit", **fields}
            if fields["tenant"] is None:
                del entry["tenant"]
            self._journal.append(entry)
        outcome = self.scheduler.submit(**fields)
        self._journal_rotate()
        return {
            "ok": True,
            "accepted": outcome.accepted,
            "job_id": outcome.job_id,
            "decision": outcome.decision.value,
            "backpressure": outcome.backpressure,
            "now": self.scheduler.now,
        }

    def _op_batch(self, request: dict) -> dict:
        items = request.get("requests")
        if not isinstance(items, list):
            raise ValueError("batch requires a list of submit 'requests'")
        with self._journal_group():
            responses = [self._batch_item(item) for item in items]
        return {"ok": True, "responses": responses}

    def _batch_item(self, item) -> dict:
        """One batch item, answered exactly as the same submit sent alone."""
        if not isinstance(item, dict) or item.get("op") != "submit":
            return {"ok": False, "error": "a batch item must be a submit"}
        try:
            response = self._op_submit(item)
        except Exception as exc:  # noqa: BLE001 — one item, one error
            response = {"ok": False, "error": f"{type(exc).__name__}: {exc}"}
        if item.get("id") is not None:
            response["id"] = item["id"]
        return response

    def _op_advance(self, request: dict) -> dict:
        if self.config.clock == "wall":
            raise ValueError("advance is only valid with the trace clock")
        to = advance_field(request)
        self._journal_append({"op": "advance", "to": to})
        self.scheduler.advance_to(to)
        self._journal_rotate()
        return {"ok": True, "now": self.scheduler.now}

    def _op_query(self, request: dict) -> dict:
        job_id = request.get("job_id")
        if not isinstance(job_id, int):
            raise ValueError("query requires an integer job_id")
        return {"ok": True, **self.scheduler.query(job_id)}

    def _op_stats(self, request: dict) -> dict:
        if self.config.clock == "wall":
            self.scheduler.advance_to(self._wall_now())
        stats = self.scheduler.stats()
        stats["server"] = {
            # exclude this stats request itself from the gauge
            "pending": max(0, self._pending - 1),
            "shed_requests": self._shed_requests,
            "timed_out_requests": self._timed_out_requests,
            "bad_lines": self._bad_lines,
        }
        if self._journal is not None:
            stats["server"]["journal_seq"] = self._journal.seq
        return {"ok": True, "stats": stats}

    def _op_metrics(self, request: dict) -> dict:
        sched = self.scheduler
        if self.config.clock == "wall":
            sched.advance_to(self._wall_now())
        assert sched.metrics is not None
        gauges = {}
        if sched.admission is not None:
            gauges["backpressure"] = sched.admission.backpressure(
                sched.now, sched.n_active
            )
            gauges["load_estimate"] = sched.admission.load_estimate(sched.now)
        if sched.autoscale is not None:
            gauges["m_current"] = float(sched.m_effective)
            gauges["capacity_seconds"] = sched.autoscale.capacity_seconds
        text = sched.metrics.to_prometheus(
            sched.now, active=sched.n_active, **gauges
        )
        return {"ok": True, "content_type": "text/plain; version=0.0.4", "text": text}

    def _op_drain(self, request: dict) -> dict:
        self._journal_append({"op": "drain"})
        result = self.scheduler.drain()
        self._journal_rotate()
        summary = {
            k: v for k, v in result.summary().items() if _jsonable(v)
        }
        out = {"ok": True, "now": self.scheduler.now, "result": summary}
        if request.get("include_flows"):
            out["flow_times"] = [float(f) for f in result.flow_times]
        if request.get("include_tenants"):
            out["tenant_flows"] = self.scheduler.flows_by_tenant()
            out["tenant_of"] = self.scheduler.tenant_labels
        return out

    def _op_snapshot(self, request: dict) -> dict:
        path = request.get("path") or self.config.snapshot_path
        if not path:
            if self._journal is not None:
                # journal mode: checkpoint in place and truncate the log
                written = self._journal.mark_snapshot(self.scheduler)
                return {
                    "ok": True,
                    "path": str(written),
                    "now": self.scheduler.now,
                }
            raise ValueError(
                "snapshot requires a 'path' (or serve --snapshot-path "
                "or --journal-dir)"
            )
        written = snapshot_scheduler_file(self.scheduler, path)
        return {"ok": True, "path": str(written), "now": self.scheduler.now}

    def _op_tenants(self, request: dict) -> dict:
        if self.config.clock == "wall":
            self.scheduler.advance_to(self._wall_now())
        admission = self.scheduler.admission
        if not isinstance(admission, MultiTenantAdmission):
            raise ValueError(
                "tenants op requires multi-tenant admission "
                "(serve --multi-tenant or --credit-rate)"
            )
        return {
            "ok": True,
            "now": self.scheduler.now,
            "tenants": admission.tenant_stats(self.scheduler.now),
        }

    def _op_ping(self, request: dict) -> dict:
        return {"ok": True, "now": self.scheduler.now}

    def _op_shutdown(self, request: dict) -> dict:
        asyncio.get_running_loop().call_soon(
            lambda: asyncio.ensure_future(self.stop())
        )
        return {"ok": True, "bye": True}


def decode_request(line: bytes) -> dict:
    """Parse one request line; ``ValueError`` unless it is a JSON object."""
    request = json.loads(line)
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    return request


def _finite_number(v) -> bool:
    """A finite JSON number.  ``json.loads`` also parses ``NaN`` and
    ``Infinity``, and an integer past the float range overflows."""
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        return False
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def advance_field(request: dict) -> float:
    """The checked ``to`` of an ``advance`` request.

    Raises ``ValueError`` unless it is a finite number, before anything
    is journaled or a clock moves — the server and the shard router both
    check with this one function.
    """
    to = request.get("to")
    if not _finite_number(to):
        raise ValueError("advance requires a finite numeric 'to'")
    return float(to)


def submit_fields(request: dict, m: int) -> dict:
    """Checked, normalised fields of a ``submit`` request.

    Returns ``work``, ``span``, ``mode``, ``weight``, ``release`` and
    ``tenant``; ``release`` stays ``None`` when the request has none,
    for the caller to resolve against its own clock.  A missing ``span``
    is resolved to the mode's default on the ``m`` processors of the
    scheduler that will run the job (:func:`~repro.core.job.default_span`).
    Raises ``ValueError`` on a malformed field, a non-finite number
    included, or on numbers :class:`~repro.core.job.JobSpec` would
    refuse, before anything is journaled or admitted — the server and
    the shard router both check with this one function.
    """
    work = request.get("work")
    if not _finite_number(work) or not work > 0:
        raise ValueError("submit requires work > 0")
    span = request.get("span")
    if span is not None:
        if not _finite_number(span):
            raise ValueError("span must be a finite number")
        span = float(span)
    mode = request.get("mode", "sequential")
    kind = ParallelismMode(mode)
    weight = request.get("weight", 1.0)
    if not _finite_number(weight):
        raise ValueError("weight must be a finite number")
    release = request.get("release")
    if release is not None:
        if not _finite_number(release):
            raise ValueError("release must be a finite number")
        release = float(release)
    work = float(work)
    if span is None:
        span = default_span(work, kind, m)
    # a missing release is filled in later from the caller's clock, so
    # only a given one is judged here
    check_job_fields(
        0.0 if release is None else release, work, span, kind, weight
    )
    tenant = request.get("tenant")
    if tenant is not None and (not isinstance(tenant, str) or not tenant):
        raise ValueError("tenant must be a non-empty string")
    return {
        "work": work,
        "span": span,
        "mode": mode,
        "weight": float(weight),
        "release": release,
        "tenant": tenant,
    }


class LineFramer:
    """Splits a connection's bytes into request lines, one read at a time.

    :meth:`read_lines` returns every complete line the read brought in,
    so a listener that wakes up behind a pipelining client sees the
    whole burst at once.  A line longer than ``max_line_bytes`` (newline
    excluded) comes back, in its own slot, as a structured error; its
    bytes are dropped up to the next newline, so the stream stays framed
    and one bad line never costs the connection.  Between reads it keeps
    at most one partial line of at most ``max_line_bytes``.
    """

    def __init__(
        self, reader: asyncio.StreamReader, max_line_bytes: int
    ) -> None:
        self._reader = reader
        self._max = max_line_bytes
        self._partial = b""  # an unterminated line, at most max_line_bytes
        self._skipped: int | None = None  # bytes of an oversized line dropped
        self._eof = False

    async def read_lines(self) -> list[bytes | dict]:
        """The next lines (without their newline), oldest first.

        Each entry is a line's bytes or, for an oversized line, the error
        response that answers it.  An unterminated last line is returned
        at EOF; after that the result is empty.
        """
        while not self._eof:
            data = await self._reader.read(_READ_CHUNK)
            if not data:
                self._eof = True
                return self._tail()
            lines = self._split(self._partial + data)
            if lines:
                return lines
        return []

    def _split(self, data: bytes) -> list[bytes | dict]:
        *complete, partial = data.split(b"\n")
        lines: list[bytes | dict] = []
        for line in complete:
            if self._skipped is not None:
                lines.append(self._too_long(self._skipped + len(line) + 1))
                self._skipped = None
            elif len(line) > self._max:
                lines.append(self._too_long(len(line) + 1))
            else:
                lines.append(line)
        self._partial = b""
        if self._skipped is not None:
            self._skipped += len(partial)
        elif len(partial) > self._max:
            self._skipped = len(partial)
        else:
            self._partial = partial
        return lines

    def _tail(self) -> list[bytes | dict]:
        if self._skipped is not None:
            return [self._too_long(self._skipped)]
        return [self._partial] if self._partial else []

    def _too_long(self, discarded: int) -> dict:
        return {
            "ok": False,
            "error": (
                f"line too long (> {self._max} bytes, {discarded} discarded)"
            ),
        }


def _jsonable(v) -> bool:
    return isinstance(v, (bool, int, float, str)) or v is None


def _encode_response(response: dict) -> bytes:
    """Serialize a response; a bad payload still yields a valid line."""
    try:
        return json.dumps(response).encode() + b"\n"
    except (TypeError, ValueError) as exc:  # pragma: no cover - defensive
        fallback = {"ok": False, "error": f"unserializable response: {exc}"}
        return json.dumps(fallback).encode() + b"\n"
