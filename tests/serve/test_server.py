"""SchedulerServer: wire protocol over a real socket, in-process."""

from __future__ import annotations

import asyncio
import json
import os

import numpy as np
import pytest

from repro.flowsim import simulate
from repro.flowsim.policies import DrepSequential
from repro.serve.journal import read_journal
from repro.serve.server import SchedulerServer, ServeConfig
from repro.serve.snapshot import SNAPSHOT_VERSION
from repro.workloads.traces import generate_trace


class Client:
    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        self.reader = reader
        self.writer = writer

    async def call(self, **request) -> dict:
        return await self.send_raw(json.dumps(request).encode() + b"\n")

    async def send_raw(self, payload: bytes) -> dict:
        self.writer.write(payload)
        await self.writer.drain()
        line = await self.reader.readline()
        assert line, "server closed the connection unexpectedly"
        return json.loads(line)


async def with_server(config: ServeConfig, fn):
    """Start a server on an ephemeral port, run ``fn(client, server)``."""
    server = SchedulerServer(config)
    await server.start()
    try:
        reader, writer = await asyncio.open_connection(
            config.host, server.port
        )
        try:
            return await fn(Client(reader, writer), server)
        finally:
            writer.close()
    finally:
        await server.stop()


def trace_config(**kwargs) -> ServeConfig:
    defaults = dict(m=2, policy="drep", seed=7, port=0, clock="trace")
    defaults.update(kwargs)
    return ServeConfig(**defaults)


class TestProtocol:
    def test_hello_identity(self):
        async def scenario(client, server):
            resp = await client.call(op="hello")
            assert resp["ok"]
            assert resp["service"] == "drep-serve"
            assert resp["m"] == 2
            assert resp["policy_key"] == "drep"
            assert resp["clock"] == "trace"
            assert resp["now"] == 0.0

        asyncio.run(with_server(trace_config(), scenario))

    def test_submit_advance_query_lifecycle(self):
        async def scenario(client, server):
            sub = await client.call(op="submit", work=2.0)
            assert sub["ok"] and sub["accepted"] and sub["job_id"] == 0
            q = await client.call(op="query", job_id=0)
            assert q["state"] == "pending"  # admitted at the next step
            await client.call(op="advance", to=1.0)
            q = await client.call(op="query", job_id=0)
            assert q["state"] == "running"
            assert q["remaining"] == pytest.approx(1.0)
            adv = await client.call(op="advance", to=5.0)
            assert adv["now"] == pytest.approx(5.0)
            q = await client.call(op="query", job_id=0)
            assert q["state"] == "completed"
            assert q["flow_time"] == pytest.approx(2.0)

        asyncio.run(with_server(trace_config(m=1), scenario))

    def test_request_id_echoed(self):
        async def scenario(client, server):
            resp = await client.call(op="ping", id="req-42")
            assert resp["ok"] and resp["id"] == "req-42"
            # echoed on errors too, so clients can correlate
            resp = await client.call(op="nope", id=7)
            assert not resp["ok"] and resp["id"] == 7

        asyncio.run(with_server(trace_config(), scenario))

    def test_stats_and_metrics(self):
        async def scenario(client, server):
            await client.call(op="submit", work=1.0)
            await client.call(op="advance", to=3.0)
            stats = (await client.call(op="stats"))["stats"]
            assert stats["submitted"] == 1
            assert stats["completed"] == 1
            metrics = await client.call(op="metrics")
            assert metrics["content_type"].startswith("text/plain")
            assert "drep_serve_jobs_completed_total 1" in metrics["text"]
            assert "drep_serve_backpressure" in metrics["text"]

        asyncio.run(
            with_server(trace_config(m=1, max_active=10), scenario)
        )

    def test_drained_flows_match_offline_simulate(self):
        trace = generate_trace(30, "finance", 0.7, 2, seed=7)
        offline = simulate(trace, 2, DrepSequential(), seed=7)

        async def scenario(client, server):
            for spec in trace.jobs:
                resp = await client.call(
                    op="submit", work=spec.work, release=spec.release
                )
                assert resp["accepted"], resp
            done = await client.call(op="drain", include_flows=True)
            assert done["ok"]
            assert done["result"]["n_jobs"] == 30
            np.testing.assert_array_equal(
                np.array(done["flow_times"]), offline.flow_times
            )

        asyncio.run(with_server(trace_config(), scenario))

    def test_shed_over_the_wire(self):
        async def scenario(client, server):
            outcomes = [
                (await client.call(op="submit", work=10.0))["accepted"]
                for _ in range(4)
            ]
            assert outcomes == [True, True, False, False]
            stats = (await client.call(op="stats"))["stats"]
            assert stats["shed"] == 2

        asyncio.run(with_server(trace_config(m=1, max_active=2), scenario))


class TestErrors:
    def test_malformed_and_invalid_requests(self):
        async def scenario(client, server):
            resp = await client.send_raw(b"this is not json\n")
            assert not resp["ok"] and "bad request" in resp["error"]
            resp = await client.send_raw(b"[1, 2, 3]\n")
            assert not resp["ok"]
            resp = await client.call(op="submit")  # missing work
            assert not resp["ok"] and "work" in resp["error"]
            resp = await client.call(op="query", job_id="zero")
            assert not resp["ok"]
            resp = await client.call(op="snapshot")  # no path configured
            assert not resp["ok"] and "path" in resp["error"]
            # the connection survives every error
            assert (await client.call(op="ping"))["ok"]

        asyncio.run(with_server(trace_config(), scenario))

    def test_submit_in_past_reported_not_fatal(self):
        async def scenario(client, server):
            await client.call(op="advance", to=10.0)
            resp = await client.call(op="submit", work=1.0, release=2.0)
            assert not resp["ok"] and "past" in resp["error"]
            assert (await client.call(op="ping"))["ok"]

        asyncio.run(with_server(trace_config(), scenario))


class TestNonFiniteNumbers:
    """``json.loads`` parses ``NaN`` and ``Infinity``.  A request that
    carries one is refused before it is journaled or moves the clock, so
    it cannot park a trace clock at infinity, not even across a restart
    from the journal."""

    NON_FINITE = [float("nan"), float("inf"), float("-inf")]

    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_advance_refused(self, tmp_path, bad):
        async def scenario(client, server):
            assert (await client.call(op="advance", to=1.0))["now"] == 1.0
            resp = await client.call(op="advance", to=bad)
            assert not resp["ok"] and "finite" in resp["error"]
            assert (await client.call(op="ping"))["now"] == 1.0
            # a later submit is judged against the finite clock
            sub = await client.call(op="submit", work=1.0, release=2.0)
            assert sub["ok"] and sub["accepted"] and sub["now"] == 2.0

        async def restarted(client, server):
            return (await client.call(op="hello"))["now"]

        config = trace_config(journal_dir=str(tmp_path))
        asyncio.run(with_server(config, scenario))
        assert [e["op"] for e in read_journal(tmp_path)] == [
            "advance", "submit"
        ]
        assert asyncio.run(with_server(config, restarted)) == 2.0

    @pytest.mark.parametrize("field", ["work", "span", "weight", "release"])
    @pytest.mark.parametrize("bad", NON_FINITE)
    def test_submit_refused(self, tmp_path, field, bad):
        async def scenario(client, server):
            request = {"work": 1.0, "span": 1.0, "weight": 1.0,
                       "release": 1.0, field: bad}
            resp = await client.call(op="submit", **request)
            assert not resp["ok"]
            assert (await client.call(op="ping"))["now"] == 0.0
            stats = (await client.call(op="stats"))["stats"]
            assert stats["submitted"] == 0

        config = trace_config(journal_dir=str(tmp_path))
        asyncio.run(with_server(config, scenario))
        assert read_journal(tmp_path) == []


class TestOutOfRangeSubmit:
    """A submit whose numbers the JobSpec refuses is refused before it
    moves the trace clock, reaches the journal or counts as offered."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"weight": 0.0},
            {"weight": -1.0},
            {"release": -1.0},
            {"span": 0.0},
            {"span": 5.0},
            {"span": 0.5},
            {"span": 5.0, "mode": "fully_parallel"},
            # no span: the default work / m underflows to 0
            {"work": 5e-324, "mode": "fully_parallel"},
        ],
    )
    def test_refused_before_any_effect(self, tmp_path, bad):
        async def scenario(client, server):
            ok = await client.call(op="submit", work=1.0, release=1.0)
            assert ok["accepted"]
            resp = await client.call(
                op="submit", **{"work": 1.0, "release": 50.0, **bad}
            )
            assert not resp["ok"] and resp["error"].startswith("ValueError: ")
            stats = (await client.call(op="stats"))["stats"]
            return (await client.call(op="ping"))["now"], stats["offered"]

        config = trace_config(journal_dir=str(tmp_path))
        assert asyncio.run(with_server(config, scenario)) == (1.0, 1)
        assert len(read_journal(tmp_path)) == 1


    def test_a_served_submit_is_checked_twice(self, field_checks):
        """Once by ``submit_fields`` before anything moves, once by the
        JobSpec constructor inside ``OnlineScheduler.submit``."""
        calls = field_checks
        server = SchedulerServer(trace_config())
        for k, request in enumerate(
            [
                {"op": "submit", "work": 1.0, "release": 1.0},
                {"op": "submit", "work": 2.0, "mode": "fully_parallel"},
            ]
        ):
            assert server._op_submit(request)["accepted"]
            assert len(calls) == 2 * (k + 1)


class TestBatchOp:
    GOOD_A = {"op": "submit", "work": 2.0, "release": 1.0, "id": "a"}
    BAD_WORK = {"op": "submit", "work": -1.0, "id": "bad"}
    NOT_SUBMIT = {"op": "advance", "to": 5.0}
    GOOD_B = {"op": "submit", "work": 3.0, "release": 4.0, "tenant": "t"}

    def test_items_fail_alone_and_match_lone_submits(self, tmp_path):
        items = [self.GOOD_A, self.BAD_WORK, self.NOT_SUBMIT, self.GOOD_B]

        async def batched(client, server):
            return await client.call(op="batch", requests=items)

        async def alone(client, server):
            return [
                await client.call(**item)
                for item in (self.GOOD_A, self.BAD_WORK, self.GOOD_B)
            ]

        def run(scenario, name):
            config = trace_config(journal_dir=str(tmp_path / name))
            return asyncio.run(with_server(config, scenario))

        resp = run(batched, "b")
        lone = run(alone, "l")
        assert resp["ok"]
        got = resp["responses"]
        assert [got[0], got[1], got[3]] == lone
        assert got[0]["accepted"] and got[3]["accepted"]
        assert got[1] == {
            "ok": False,
            "error": "ValueError: submit requires work > 0",
            "id": "bad",
        }
        assert got[2]["error"] == "a batch item must be a submit"
        journal = read_journal(tmp_path / "b")
        assert [e["work"] for e in journal] == [2.0, 3.0]
        assert journal == read_journal(tmp_path / "l")

    def test_one_fsync_per_batch(self, tmp_path, monkeypatch):
        server = SchedulerServer(
            trace_config(
                journal_dir=str(tmp_path), fsync=True, snapshot_every=0
            )
        )
        synced = []
        monkeypatch.setattr(os, "fsync", synced.append)
        submits = [{"op": "submit", "work": 1.0 + i} for i in range(5)]
        resp = server._op_batch({"op": "batch", "requests": submits})
        assert all(r["accepted"] for r in resp["responses"])
        assert len(synced) == 1
        server._op_batch({"op": "batch", "requests": [self.BAD_WORK]})
        assert len(synced) == 1  # nothing journaled, nothing to sync
        server._op_submit({"op": "submit", "work": 1.0})
        assert len(synced) == 2
        server._journal.close()
        assert len(read_journal(tmp_path)) == 6


class TestLifecycle:
    def test_shutdown_op_stops_server(self):
        async def scenario():
            server = SchedulerServer(trace_config())
            await server.start()
            reader, writer = await asyncio.open_connection(
                server.config.host, server.port
            )
            writer.write(b'{"op": "shutdown"}\n')
            await writer.drain()
            resp = json.loads(await reader.readline())
            assert resp["ok"] and resp["bye"]
            await asyncio.wait_for(server.wait_closed(), timeout=5.0)
            writer.close()

        asyncio.run(scenario())

    def test_snapshot_op_writes_checkpoint(self, tmp_path):
        path = tmp_path / "ckpt.json"

        async def scenario(client, server):
            await client.call(op="submit", work=3.0)
            resp = await client.call(op="snapshot", path=str(path))
            assert resp["ok"] and resp["path"] == str(path)

        asyncio.run(with_server(trace_config(m=1), scenario))
        state = json.loads(path.read_text())
        # the standalone file is self-contained: cursor 0, history inlined
        assert state["version"] == SNAPSHOT_VERSION
        assert state["cursor"] == 0
        assert len(state["finished"]) + len(state["engine"]["jobs"]) == 1


class TestWallClock:
    def test_wall_clock_runs_jobs_in_real_time(self):
        # 100 sim-units per wall second: a work-0.5 job on one machine
        # completes after ~5ms of wall time
        config = trace_config(
            m=1, clock="wall", time_scale=100.0, tick=0.01
        )

        async def scenario(client, server):
            sub = await client.call(op="submit", work=0.5)
            assert sub["accepted"]
            deadline = asyncio.get_running_loop().time() + 5.0
            while True:
                q = await client.call(op="query", job_id=0)
                if q["state"] == "completed":
                    break
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.02)
            assert q["flow_time"] == pytest.approx(0.5)
            resp = await client.call(op="advance", to=1000.0)
            assert not resp["ok"]  # advance is a trace-clock op

        asyncio.run(with_server(config, scenario))

    def test_idle_ticks_do_not_exhaust_the_event_budget(self):
        # every tick parks the clock once; the idle server's budget is
        # 1000 events, and it must keep serving past them
        config = trace_config(clock="wall", tick=0.0005)

        async def scenario(client, server):
            deadline = asyncio.get_running_loop().time() + 30.0
            while server.scheduler.stats()["events"] <= 1100:
                assert asyncio.get_running_loop().time() < deadline
                await asyncio.sleep(0.05)
            stats = await client.call(op="stats")
            assert stats["ok"], stats
            sub = await client.call(op="submit", work=0.5)
            assert sub["ok"] and sub["accepted"], sub

        asyncio.run(with_server(config, scenario))


class TestEventBudget:
    def test_trace_clock_advances_do_not_exhaust_the_event_budget(self):
        # one long job, then one advance per time unit: each advance is
        # one parked iteration, past the 1060-event budget of one job
        async def scenario(client, server):
            sub = await client.call(op="submit", work=5000.0)
            assert sub["accepted"]
            for k in range(1, 1201):
                resp = await client.call(op="advance", to=float(k))
                assert resp["ok"], (k, resp)
            q = await client.call(op="query", job_id=0)
            assert q["state"] == "running"

        asyncio.run(with_server(trace_config(m=1), scenario))
