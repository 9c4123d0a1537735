"""SIGKILL one engine shard mid-run; the merged report must not notice.

Every :class:`~repro.serve.shard.SubprocessShard` carries its own
write-ahead journal, so a shard that dies without warning is restarted
from the same journal directory and replays itself back to the exact
clock, queue and policy-RNG state it died with.  The router keeps
routing by the same ring, so the drained, reassembled report of the
crashed run is byte-identical to an uninterrupted run of the same trace.
"""

from __future__ import annotations

import os
import signal

import pytest

from repro.serve.loadgen import tenant_labels
from repro.serve.shard import ShardError, ShardSupervisor, build_subprocess_router
from repro.serve.tenancy import TenancyConfig
from repro.workloads.traces import generate_trace

pytestmark = pytest.mark.slow

SEED = 13
VICTIM = "shard/1"


def _workload():
    jobs = generate_trace(30, "finance", 0.7, 4, seed=SEED).jobs
    tenants = tenant_labels(len(jobs), 3, "zipf:1.0", seed=SEED)
    return list(zip(jobs, tenants))


def _run(journal_root, crash: bool, batch: int = 1, between=None) -> bytes:
    """Submit the workload, ``batch`` jobs per router call (1 = one
    :meth:`submit` each, more = :meth:`submit_batch`), optionally killing
    and restarting the victim shard between calls at the halfway mark.
    ``between(router)``, when given, runs at the halfway mark instead."""
    workload = _workload()
    half = len(workload) // 2
    assert half % batch == 0  # the crash falls between two calls
    router = build_subprocess_router(
        2,
        journal_root,
        m=2,
        policy="drep",
        seed=SEED,
        tenancy=TenancyConfig(),
        snapshot_every=8,
    )
    routed_to: set[str] = set()
    try:
        for lo in range(0, len(workload), batch):
            if between is not None and lo == half:
                between(router)
            if crash and lo == half:
                victim = router.shards[VICTIM]
                victim.kill()
                assert router.ping_all()[VICTIM] is False
                hello = victim.restart()
                assert hello["ok"]
                assert router.ping_all()[VICTIM] is True
            items = [
                {
                    "work": spec.work,
                    "span": spec.span,
                    "release": spec.release,
                    "tenant": tenant,
                }
                for spec, tenant in workload[lo : lo + batch]
            ]
            if batch == 1:
                replies = [router.submit(**items[0])]
            else:
                replies = router.submit_batch(items)
            assert all(r["accepted"] for r in replies)
            if lo < half:
                routed_to.update(r["shard"] for r in replies)
        # the victim must have taken jobs *before* the kill for the
        # crash to prove anything about journal recovery
        assert routed_to == {"shard/0", VICTIM}
        merged = router.drain()
        assert merged["accepted"] == len(workload)
        return router.report_json()
    finally:
        router.close()


def test_sigkill_one_shard_recovers_bit_exact(tmp_path):
    crashed = _run(tmp_path / "crashed", crash=True)
    clean = _run(tmp_path / "clean", crash=False)
    assert crashed == clean


def test_sigkill_between_batches_recovers_bit_exact(tmp_path):
    """Batched submits journal with one group commit per shard batch; a
    shard killed between batches replays to the one-at-a-time run."""
    crashed = _run(tmp_path / "crashed", crash=True, batch=5)
    clean = _run(tmp_path / "clean", crash=False)
    assert crashed == clean


def _time_out_one_read(router) -> None:
    """Force one read timeout on a read-only op of the live victim, then
    let the supervisor find it: it must revive the shard from its
    journal, not quarantine it."""
    victim = router.shards[VICTIM]
    pid = victim._proc.pid
    os.kill(pid, signal.SIGSTOP)  # the reply cannot come in time
    try:
        victim._sock.settimeout(0.05)
        with pytest.raises(ShardError, match="round trip failed"):
            victim.call({"op": "stats"})
    finally:
        os.kill(pid, signal.SIGCONT)
    assert victim._sock is None  # the timed-out connection is gone
    assert victim.ping() is False
    supervisor = ShardSupervisor(router)
    assert supervisor.check_once()[VICTIM] == "revived"
    assert not supervisor.failed
    assert victim.call({"op": "hello"})["ok"]


def test_read_timeout_revives_a_live_shard(tmp_path):
    timed_out = _run(tmp_path / "timed-out", crash=False, between=_time_out_one_read)
    clean = _run(tmp_path / "clean", crash=False)
    assert timed_out == clean
