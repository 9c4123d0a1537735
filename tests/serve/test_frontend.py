"""ShardFrontend: the router's wire listener, and its pipelined passes.

A read that brings in several request lines is answered as one pass:
runs of consecutive submits go to :meth:`ShardRouter.submit_batch` (one
round trip per shard), everything else is answered as before, and the
replies go out in request order.  Pipelining must not change a single
byte of what a client or the merged report sees.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.serve.admission import AdmissionConfig
from repro.serve.loadgen import tenant_labels
from repro.serve.server import LineFramer, ServeConfig
from repro.serve.shard import (
    LocalShard,
    ShardFrontend,
    ShardRouter,
    build_local_router,
    shard_seed,
)
from repro.serve.tenancy import TenancyConfig
from repro.workloads.traces import generate_trace

SEED = 17


def _submits(n: int, seed: int = SEED) -> list[dict]:
    # load 0.9 on 4 machines against a 2x2-core fleet: overloaded, so
    # admission has jobs to shed
    jobs = generate_trace(n, "finance", 0.9, 4, seed=seed).jobs
    tenants = tenant_labels(n, 3, "zipf:1.2", seed=seed)
    return [
        {
            "op": "submit",
            "work": job.work,
            "span": job.span,
            "release": job.release,
            "tenant": tenant,
        }
        for job, tenant in zip(jobs, tenants)
    ]


def _line(request: dict) -> bytes:
    return json.dumps(request).encode() + b"\n"


def _spy_batches(router: ShardRouter) -> list[int]:
    """Record the size of every submit_batch call the frontend makes."""
    sizes: list[int] = []
    submit_batch = router.submit_batch

    def spy(items):
        sizes.append(len(items))
        return submit_batch(items)

    router.submit_batch = spy
    return sizes


async def _serve(
    router: ShardRouter, fn, max_line_bytes=ServeConfig.max_line_bytes
):
    frontend = ShardFrontend(router, port=0, max_line_bytes=max_line_bytes)
    await frontend.start()
    try:
        reader, writer = await asyncio.open_connection(
            frontend.host, frontend.port, limit=1 << 22
        )
        try:
            return await fn(reader, writer)
        finally:
            writer.close()
    finally:
        await frontend.stop()


async def _replies(reader, n: int) -> list[dict]:
    out = []
    for _ in range(n):
        line = await asyncio.wait_for(reader.readline(), timeout=30)
        assert line, "frontend closed the connection"
        out.append(json.loads(line))
    return out


def _run(router: ShardRouter, requests: list[dict], pipelined: bool):
    """Replies to ``requests`` and the drained, merged report."""

    async def scenario(reader, writer):
        if pipelined:
            writer.write(b"".join(_line(r) for r in requests))
            await writer.drain()
            replies = await _replies(reader, len(requests))
        else:
            replies = []
            for request in requests:
                writer.write(_line(request))
                await writer.drain()
                replies += await _replies(reader, 1)
        writer.write(_line({"op": "drain"}))
        await writer.drain()
        (drained,) = await _replies(reader, 1)
        assert drained["ok"]
        return replies

    replies = asyncio.run(_serve(router, scenario))
    return replies, router.report_json()


def _router(admission: bool) -> ShardRouter:
    if not admission:
        return build_local_router(2, m=2, policy="drep", seed=SEED)
    return build_local_router(
        2,
        m=2,
        policy="drep",
        seed=SEED,
        tenancy=TenancyConfig(drf_headroom=1.1),
        admission_config=AdmissionConfig(max_load=1.0, halflife=5.0),
    )


@pytest.mark.parametrize("admission", [False, True])
def test_one_write_equals_one_request_at_a_time(admission):
    requests = _submits(60)
    lone = _router(admission)
    lone_sizes = _spy_batches(lone)
    lone_replies, lone_report = _run(lone, requests, pipelined=False)
    piped = _router(admission)
    piped_sizes = _spy_batches(piped)
    piped_replies, piped_report = _run(piped, requests, pipelined=True)

    assert lone_sizes == []  # a lone request takes the one-request path
    assert max(piped_sizes) > 1  # the one write was answered in batches
    assert piped_replies == lone_replies
    assert piped_report == lone_report
    # with admission on, the batches shed jobs too
    assert any(not r["accepted"] for r in piped_replies) == admission


def test_mixed_pass_replies_in_request_order():
    submits = _submits(4)
    lines = [
        _line({**submits[0], "id": "a"}),
        _line({**submits[1], "id": 2}),
        _line({"op": "advance", "to": 50.0, "id": "adv"}),
        _line({"op": "stats"}),
        b"{not json\n",
        _line({**submits[2], "release": 60.0}),
        _line({**submits[3], "release": 61.0, "id": "z"}),
        _line({"op": "submit", "work": -1.0, "id": "bad"}),
    ]

    async def scenario(reader, writer):
        writer.write(b"".join(lines))
        await writer.drain()
        return await _replies(reader, len(lines))

    router = build_local_router(2, m=2, policy="drep", seed=SEED)
    r = asyncio.run(_serve(router, scenario))
    assert [x.get("id") for x in r] == [
        "a", 2, "adv", None, None, None, "z", "bad"
    ]
    assert [x.get("global_id") for x in r] == [
        0, 1, None, None, None, 2, 3, None
    ]
    assert r[2] == {"ok": True, "now": 50.0, "id": "adv"}
    assert r[3]["ok"] and r[3]["stats"]["offered"] == 2
    assert not r[4]["ok"] and r[4]["error"].startswith("bad request:")
    assert r[5]["accepted"] and r[6]["accepted"]
    assert r[7] == {
        "ok": False,
        "error": "ValueError: submit requires work > 0",
        "id": "bad",
    }


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_numbers_move_no_clock(bad):
    """``json.loads`` parses ``NaN`` and ``Infinity``: the router refuses
    them in an advance and in every submit field, before its own clock
    or a shard's moves."""
    lines = [
        _line({"op": "advance", "to": 5.0}),
        _line({"op": "advance", "to": bad}),
        *(
            _line({"op": "submit", "work": 1.0, "release": 6.0, field: bad})
            for field in ("work", "span", "weight", "release")
        ),
        _line({"op": "submit", "work": 1.0, "release": 6.0}),
    ]
    router = build_local_router(2, m=2, policy="drep", seed=SEED)

    async def scenario(reader, writer):
        writer.write(b"".join(lines))
        await writer.drain()
        return await _replies(reader, len(lines))

    r = asyncio.run(_serve(router, scenario))
    assert r[0] == {"ok": True, "now": 5.0}
    assert not r[1]["ok"] and "finite" in r[1]["error"]
    assert not any(reply["ok"] for reply in r[2:6])
    assert r[6]["accepted"] and r[6]["global_id"] == 0
    assert router.now == 6.0
    assert sorted(s.scheduler.now for s in router.shards.values()) == [5.0, 6.0]
    with pytest.raises(ValueError, match="router clock"):
        router.advance_to(bad)
    assert router.now == 6.0


def test_batch_longer_than_a_shard_line_is_split():
    limit = 512

    def router() -> ShardRouter:
        shards = [
            LocalShard(
                f"shard/{i}",
                ServeConfig(
                    m=2, seed=shard_seed(SEED, i), max_line_bytes=limit
                ),
            )
            for i in range(2)
        ]
        return ShardRouter(shards, seed=SEED)

    sent: list[tuple[str, int]] = []
    piped = router()
    for shard in piped.shards.values():
        call = shard.call

        def spy(request, call=call):
            response = call(request)
            sent.append((request["op"], len(json.dumps(request))))
            return response

        shard.call = spy
    requests = _submits(40)
    piped_replies, piped_report = _run(piped, requests, pipelined=True)
    lone_replies, lone_report = _run(router(), requests, pipelined=False)

    assert all(r["ok"] and r["accepted"] for r in piped_replies)
    assert piped_replies == lone_replies
    assert piped_report == lone_report
    batches = [size for op, size in sent if op == "batch"]
    assert len(batches) > 2  # more round trips than shards: it was split
    assert max(size for _, size in sent) <= limit


def test_oversized_line_then_ping_on_one_connection():
    async def scenario(reader, writer):
        writer.write(b"x" * 200_000 + b"\n" + _line({"op": "ping", "id": 1}))
        await writer.drain()
        return await _replies(reader, 2)

    router = build_local_router(2, m=2, policy="srpt", seed=SEED)
    error, pong = asyncio.run(_serve(router, scenario, max_line_bytes=4096))
    assert error == {
        "ok": False,
        "error": "line too long (> 4096 bytes, 200001 discarded)",
    }
    assert pong["ok"] and pong["id"] == 1
    assert pong["shards"] == {"shard/0": True, "shard/1": True}


def test_framer_reassembles_lines_across_reads():
    """Lines and an oversized line split over several reads, and an
    unterminated last line at EOF."""

    async def scenario():
        reader = asyncio.StreamReader()
        framer = LineFramer(reader, max_line_bytes=8)

        async def read_pass(*chunks):
            task = asyncio.ensure_future(framer.read_lines())
            for chunk in chunks:
                await asyncio.sleep(0)  # the framer takes each chunk alone
                reader.feed_data(chunk)
            return await task

        passes = [
            await read_pass(b"ab", b"c\nde"),
            await read_pass(b"f\n\n0123456"),
            await read_pass(b"789ab", b"\nlast"),
        ]
        reader.feed_eof()
        passes.append(await framer.read_lines())
        passes.append(await framer.read_lines())
        return passes

    too_long = {
        "ok": False,
        "error": "line too long (> 8 bytes, 13 discarded)",
    }
    assert asyncio.run(scenario()) == [
        [b"abc"],
        [b"def", b""],
        [too_long],
        [b"last"],
        [],
    ]
