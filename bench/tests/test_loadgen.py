"""Open-loop timing, lateness accounting and failure counting of the load generator."""

import json
import socket
import threading
import time

import pytest
from common import child
from loadgen import Conn, Phase, drive
from workloads import Server


def test_latency_runs_from_due_time_and_lateness_from_send():
    phase = Phase(due=[0.0, 1.0, 2.0], send=[0.1, 1.0, 2.5], ack=[0.2, 1.5, 3.0], failed=0)
    assert phase.latencies_s() == pytest.approx([0.2, 0.5, 1.0])
    assert phase.lateness_s() == pytest.approx([0.1, 0.0, 0.5])
    assert phase.latencies_s(skip=2) == pytest.approx([1.0])
    closed = Phase(due=None, send=[0.0, 0.0], ack=[0.5, 1.0], failed=0)
    assert closed.latencies_s() == [0.5, 1.0] and closed.lateness_s() == []
    assert closed.rate() == pytest.approx(2.0)


class StallingServer:
    """Answers every line ``ok``; sleeps ``stall`` seconds before answering line ``at``."""

    def __init__(self, at: int, stall: float) -> None:
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.port = self.listener.getsockname()[1]
        self.at, self.stall = at, stall
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self) -> None:
        conn, _ = self.listener.accept()
        with conn, conn.makefile("rb") as lines:
            for k, _line in enumerate(lines):
                if k == self.at:
                    time.sleep(self.stall)
                conn.sendall(b'{"ok": true, "accepted": true}\n')

    def close(self) -> None:
        self.listener.close()
        self.thread.join(timeout=5)
        assert not self.thread.is_alive()


def test_a_stall_is_charged_to_the_requests_due_behind_it():
    rate, stall, at, n = 1000.0, 0.08, 20, 200
    server = StallingServer(at, stall)
    conn = Conn(server.port)
    try:
        phase = drive(conn, [b'{"op": "submit"}\n'] * n, rate=rate)
    finally:
        conn.close()
        server.close()
    latency = phase.latencies_s()
    late = phase.lateness_s()
    assert phase.n == n and phase.failed == 0
    # requests sent during the stall were answered only after it ended
    for i in range(at + 1, at + 40):
        assert latency[i] >= stall - (i - at) / rate - 1e-3
    # the generator kept sending on schedule; the stall is not lateness
    assert max(late) < stall / 2
    assert all(x >= 0 for x in late)


def test_one_malformed_submit_counts_as_one_failure():
    server = Server(["--m", "2"], child())
    try:
        good = [
            json.dumps({"op": "submit", "work": 1.0 + k, "release": float(k)}).encode() + b"\n"
            for k in range(20)
        ]
        bad = [b'{"op": "submit", "work": -1}\n']
        phase = drive(server.conn, good[:10] + bad + good[10:], window=4)
    finally:
        server.close()
    assert phase.n == 21
    assert phase.failed == 1
    assert server.proc.returncode == 0
