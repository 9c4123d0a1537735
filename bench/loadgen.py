"""Load generator for the serving workloads: one thread, one connection.

Two phases share one event loop over a non-blocking socket:

* **capacity** (closed loop) — keep ``window`` submits outstanding and
  send the next as soon as one is acknowledged; the ack rate is the
  server's capacity.
* **open loop** — request ``i`` is due at ``t0 + i / rate`` whatever the
  server does.  Every request already due at a wake-up is sent in one
  write (sleeping once per request made the generator itself late by
  about a millisecond), and latency is timed from the *due* time, so a
  stall is charged to every request queued behind it.  How late the
  generator sent each request is kept separately.

The server answers one connection's requests in order, so the i-th
response line acknowledges the i-th request.
"""

from __future__ import annotations

import gc
import json
import selectors
import socket
import time
from dataclasses import dataclass

from common import BenchError

#: a phase that takes longer than this has hung
PHASE_TIMEOUT_S = 120.0


def is_failure(response: dict) -> bool:
    """Error, timeout, overloaded or refused (shed) responses count as failed."""
    if not response.get("ok"):
        return True
    if response.get("overloaded") or response.get("timed_out"):
        return True
    return "accepted" in response and not response["accepted"]


class Conn:
    """A JSON-lines connection with blocking request/response calls."""

    def __init__(self, port: int, host: str = "127.0.0.1", timeout: float = 60.0) -> None:
        self.timeout = timeout
        self.sock = socket.create_connection((host, port), timeout=timeout)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()

    def call(self, request: dict) -> dict:
        self.sock.sendall(json.dumps(request).encode() + b"\n")
        while True:
            j = self.buf.find(b"\n")
            if j >= 0:
                line = bytes(self.buf[:j])
                del self.buf[: j + 1]
                return json.loads(line)
            data = self.sock.recv(1 << 20)
            if not data:
                raise BenchError("server closed the connection")
            self.buf += data

    def close(self) -> None:
        self.sock.close()


@dataclass
class Phase:
    """Per-request timestamps of one phase (``perf_counter`` seconds)."""

    due: list[float] | None
    send: list[float]
    ack: list[float]
    failed: int

    @property
    def n(self) -> int:
        return len(self.ack)

    @property
    def wall_s(self) -> float:
        return self.ack[-1] - self.send[0]

    def rate(self) -> float:
        """Acknowledged requests per second, first send to last ack."""
        return self.n / self.wall_s

    def latencies_s(self, skip: int = 0) -> list[float]:
        """Ack latency per request from its due time (open loop) or send time."""
        start = self.due if self.due is not None else self.send
        return [a - s for a, s in zip(self.ack[skip:], start[skip:])]

    def lateness_s(self, skip: int = 0) -> list[float]:
        """How long after its due time the generator sent each request."""
        if self.due is None:
            return []
        return [s - d for s, d in zip(self.send[skip:], self.due[skip:])]


def drive(
    conn: Conn,
    lines: list[bytes],
    *,
    rate: float | None = None,
    window: int | None = None,
) -> Phase:
    """Send ``lines`` open-loop at ``rate``/s, or closed-loop ``window`` deep."""
    if (rate is None) == (window is None):
        raise ValueError("give exactly one of rate and window")
    n = len(lines)
    send = [0.0] * n
    ack = [0.0] * n
    failed = 0
    out = bytearray()
    buf = conn.buf
    sock = conn.sock
    nxt = acked = 0
    writing = False
    sock.setblocking(False)
    # select(2) takes a microsecond timeout; epoll and poll round up to a
    # whole millisecond, which would make every open-loop send late
    sel = selectors.SelectSelector()
    sel.register(sock, selectors.EVENT_READ)
    gc_enabled = gc.isenabled()
    gc.disable()  # the generator's own pauses would read as server latency
    t0 = time.perf_counter()
    due = [t0 + i / rate for i in range(n)] if rate is not None else None
    deadline = t0 + PHASE_TIMEOUT_S
    try:
        while acked < n:
            now = time.perf_counter()
            if now > deadline:
                raise BenchError(f"phase stalled: {acked}/{n} acknowledged")
            if due is not None:
                while nxt < n and due[nxt] <= now:
                    out += lines[nxt]
                    send[nxt] = now
                    nxt += 1
            else:
                while nxt < n and nxt - acked < window:
                    out += lines[nxt]
                    send[nxt] = now
                    nxt += 1
            if out:
                try:
                    del out[: sock.send(out)]
                except BlockingIOError:
                    pass
            if bool(out) != writing:
                writing = bool(out)
                events = selectors.EVENT_READ | (selectors.EVENT_WRITE if writing else 0)
                sel.modify(sock, events)
            timeout = 1.0
            if due is not None and nxt < n:
                timeout = max(0.0, due[nxt] - time.perf_counter())
            for _key, mask in sel.select(timeout):
                if not mask & selectors.EVENT_READ:
                    continue
                data = sock.recv(1 << 20)
                if not data:
                    raise BenchError("server closed the connection mid-phase")
                t = time.perf_counter()
                buf += data
                while True:
                    j = buf.find(b"\n")
                    if j < 0:
                        break
                    response = json.loads(bytes(buf[:j]))
                    del buf[: j + 1]
                    if acked >= nxt:
                        raise BenchError("response without a request")
                    failed += is_failure(response)
                    ack[acked] = t
                    acked += 1
    finally:
        if gc_enabled:
            gc.enable()
        sel.close()
        sock.settimeout(conn.timeout)
    return Phase(due=due, send=send, ack=ack, failed=failed)
