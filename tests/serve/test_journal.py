"""RequestJournal: write-ahead semantics, rotation, torn-tail recovery."""

from __future__ import annotations

import json
import os
import stat
from pathlib import Path

import numpy as np
import pytest

from repro.serve.journal import (
    HISTORY_NAME,
    JOURNAL_NAME,
    SNAPSHOT_NAME,
    JournalError,
    RequestJournal,
    apply_entry,
    read_journal,
    recover,
)
from repro.serve.loadgen import tenant_labels
from repro.serve.server import ServeConfig
from repro.serve.snapshot import (
    SnapshotError,
    restore_scheduler,
    snapshot_scheduler,
)
from repro.workloads.traces import generate_trace


def _config(**kw):
    defaults = dict(m=2, policy="drep", seed=7, port=0)
    defaults.update(kw)
    return ServeConfig(**defaults)


def _submit_entry(spec):
    return {
        "op": "submit",
        "work": spec.work,
        "span": spec.span,
        "mode": spec.mode.value,
        "weight": spec.weight,
        "release": spec.release,
    }


class TestAppendRecover:
    def test_empty_directory_recovers_to_nothing(self, tmp_path):
        sched, seq, replayed = recover(tmp_path)
        assert sched is None and seq == 0 and replayed == 0

    def test_journal_only_replay_is_bit_exact(self, tmp_path):
        trace = generate_trace(25, "finance", 0.7, 2, seed=3)
        config = _config()

        live = config.build_scheduler()
        with RequestJournal(tmp_path) as journal:
            for spec in trace.jobs:
                journal.append(_submit_entry(spec))
                live.advance_to(spec.release)
                live.submit(
                    work=spec.work,
                    span=spec.span,
                    mode=spec.mode,
                    weight=spec.weight,
                    release=spec.release,
                )
        recovered, seq, replayed = recover(
            tmp_path, build_empty=config.build_scheduler
        )
        assert seq == replayed == len(trace.jobs)
        np.testing.assert_array_equal(
            live.drain().flow_times, recovered.drain().flow_times
        )

    def test_snapshot_rotation_truncates_journal(self, tmp_path):
        trace = generate_trace(20, "finance", 0.7, 2, seed=1)
        config = _config()
        live = config.build_scheduler()
        journal = RequestJournal(tmp_path, snapshot_every=6)
        for spec in trace.jobs:
            journal.append(_submit_entry(spec))
            live.advance_to(spec.release)
            live.submit(
                work=spec.work,
                span=spec.span,
                mode=spec.mode,
                weight=spec.weight,
                release=spec.release,
            )
            journal.maybe_snapshot(live)
        journal.close()
        # 20 entries, snapshot every 6 -> journal holds only the tail
        assert len(read_journal(tmp_path)) < 6
        assert (tmp_path / SNAPSHOT_NAME).exists()
        recovered, seq, replayed = recover(tmp_path)
        assert seq == 20 and replayed < 6
        np.testing.assert_array_equal(
            live.drain().flow_times, recovered.drain().flow_times
        )

    def test_sequence_continues_across_reopen(self, tmp_path):
        with RequestJournal(tmp_path) as j:
            j.append({"op": "advance", "to": 1.0})
            j.append({"op": "advance", "to": 2.0})
        with RequestJournal(tmp_path) as j:
            assert j.seq == 2
            assert j.append({"op": "advance", "to": 3.0}) == 3


class TestCorruption:
    def test_torn_final_line_is_dropped(self, tmp_path):
        with RequestJournal(tmp_path) as j:
            j.append({"op": "advance", "to": 1.0})
            j.append({"op": "advance", "to": 2.0})
        path = tmp_path / JOURNAL_NAME
        with open(path, "ab") as fh:
            fh.write(b'{"seq": 3, "op": "adva')  # the crash-torn append
        entries = read_journal(tmp_path)
        assert [e["seq"] for e in entries] == [1, 2]
        config = _config()
        recovered, seq, _ = recover(tmp_path, build_empty=config.build_scheduler)
        assert seq == 2
        assert recovered.now == pytest.approx(2.0)

    def test_interior_corruption_raises(self, tmp_path):
        path = tmp_path / JOURNAL_NAME
        lines = [
            json.dumps({"seq": 1, "op": "advance", "to": 1.0}),
            "NOT JSON AT ALL",
            json.dumps({"seq": 3, "op": "advance", "to": 3.0}),
        ]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(JournalError, match="line 2"):
            read_journal(tmp_path)

    def test_corrupt_snapshot_raises(self, tmp_path):
        (tmp_path / SNAPSHOT_NAME).write_text("{truncated")
        with pytest.raises(JournalError, match="corrupt snapshot"):
            recover(tmp_path)

    def test_failed_entries_replay_to_the_same_failure(self, tmp_path):
        # a submit into the past failed live; replay must skip it the
        # same way and keep the rest of the log effective
        with RequestJournal(tmp_path) as j:
            j.append({"op": "advance", "to": 10.0})
            j.append(
                {
                    "op": "submit",
                    "work": 1.0,
                    "span": 1.0,
                    "mode": "sequential",
                    "weight": 1.0,
                    "release": 2.0,  # in the past at replay time too
                }
            )
            j.append({"op": "advance", "to": 12.0})
        config = _config(m=1)
        recovered, seq, replayed = recover(
            tmp_path, build_empty=config.build_scheduler
        )
        assert seq == 3 and replayed == 3
        assert recovered.now == pytest.approx(12.0)
        assert recovered.n_submitted == 0


# -- checkpoint layout: history.jsonl + live-state snapshot.json ----------


def _entries(n, m=2, seed=5):
    trace = generate_trace(n, "finance", 0.7, m, seed=seed)
    tenants = tenant_labels(n, 4, "zipf:1.0", seed=seed)
    return [
        {**_submit_entry(spec), "tenant": tenant}
        for spec, tenant in zip(trace.jobs, tenants)
    ]


def _serve(journal, sched, entries):
    """What the server does per request: journal, apply, maybe cut."""
    for entry in entries:
        journal.append(entry)
        apply_entry(sched, entry)
        journal.maybe_snapshot(sched)


def _replay(sched, entries):
    for entry in entries:
        apply_entry(sched, entry)
    return sched


def _full_state(sched) -> str:
    return json.dumps(snapshot_scheduler(sched), sort_keys=True)


def _history_lines(directory) -> list[bytes]:
    return (Path(directory) / HISTORY_NAME).read_bytes().splitlines()


def _assert_same_run(recovered, live):
    assert _full_state(recovered) == _full_state(live)
    assert json.dumps(recovered.stats(), sort_keys=True) == json.dumps(
        live.stats(), sort_keys=True
    )
    now = live.now
    assert recovered.metrics.to_prometheus(now) == (
        live.metrics.to_prometheus(now)
    )
    a, b = live.drain(), recovered.drain()
    np.testing.assert_array_equal(a.flow_times, b.flow_times)
    assert a.makespan == b.makespan


class TestCheckpointLayout:
    def test_cut_holds_live_state_and_history_holds_the_rest(self, tmp_path):
        config = _config(window=20.0)
        entries = _entries(120)
        live = config.build_scheduler()
        with RequestJournal(tmp_path, snapshot_every=9) as journal:
            _serve(journal, live, entries)
            journal.mark_snapshot(live)
        snap = json.loads((tmp_path / SNAPSHOT_NAME).read_text())
        state = snap["state"]
        lines = _history_lines(tmp_path)
        # every finished job is in the history exactly once, in
        # completion order, and nowhere in the snapshot
        assert state["cursor"] == len(lines) == live.n_completed
        assert state["finished"] == []
        assert snap["history_bytes"] == (tmp_path / HISTORY_NAME).stat().st_size
        history = [json.loads(line) for line in lines]
        assert [(r["job_id"], r["finish"]) for r in history] == [
            tuple(e) for e in live.stepper.completion_log
        ]
        assert len(state["engine"]["jobs"]) == live.n_active
        # cut + history rebuild exactly the self-contained snapshot
        restored = restore_scheduler(state, history)
        assert _full_state(restored) == _full_state(live)

    def test_history_must_match_the_cursor(self, tmp_path):
        live = _config().build_scheduler()
        with RequestJournal(tmp_path) as journal:
            _serve(journal, live, _entries(30))
            journal.mark_snapshot(live)
        state = json.loads((tmp_path / SNAPSHOT_NAME).read_text())["state"]
        assert state["cursor"] > 0
        with pytest.raises(SnapshotError, match="history records"):
            restore_scheduler(state, [])
        (tmp_path / HISTORY_NAME).write_bytes(b"")
        with pytest.raises(JournalError, match="records"):
            recover(tmp_path)

    def test_fsync_orders_history_snapshot_then_directory(
        self, tmp_path, monkeypatch
    ):
        live = _config().build_scheduler()
        journal = RequestJournal(tmp_path, fsync=True)
        _serve(journal, live, _entries(30))
        assert live.n_completed > 0  # the cut has history to append
        synced = []

        def fake_fsync(fd):
            st = os.fstat(fd)
            synced.append((st.st_ino, stat.S_ISDIR(st.st_mode)))

        monkeypatch.setattr(os, "fsync", fake_fsync)
        journal.mark_snapshot(live)
        journal.close()
        assert synced == [
            ((tmp_path / HISTORY_NAME).stat().st_ino, False),
            ((tmp_path / SNAPSHOT_NAME).stat().st_ino, False),
            (tmp_path.stat().st_ino, True),
        ]

    def test_snapshot_size_is_flat_in_jobs_served(self, tmp_path):
        """O(live jobs), not O(history): 8x the jobs, same size."""
        config = _config(m=4)
        entries = _entries(8000, m=4, seed=2)
        sched = config.build_scheduler()
        sizes = []
        with RequestJournal(tmp_path, snapshot_every=256) as journal:
            for lo, hi in ((0, 1000), (1000, 8000)):
                _serve(journal, sched, entries[lo:hi])
                journal.mark_snapshot(sched)
                sizes.append((tmp_path / SNAPSHOT_NAME).stat().st_size)
        assert max(sizes) / min(sizes) < 1.5, sizes


class TestCrashWindows:
    """Every crash point of a cut must recover bit-for-bit.

    The metrics window is short, so it keeps only a tail of the history
    and its refill from the history records is checked too.
    """

    def test_history_tail_past_the_cursor_is_trimmed(
        self, tmp_path, monkeypatch
    ):
        config = _config(window=20.0)
        entries = _entries(80)
        live = _replay(config.build_scheduler(), entries[:50])
        sched = config.build_scheduler()
        journal = RequestJournal(tmp_path, snapshot_every=7)
        _serve(journal, sched, entries[:50])
        covered = json.loads((tmp_path / SNAPSHOT_NAME).read_text())
        size_before = (tmp_path / HISTORY_NAME).stat().st_size

        def crash(self, target):
            raise OSError("killed between the append and the rename")

        # the next cut appends its history records, then dies
        monkeypatch.setattr(Path, "replace", crash)
        with pytest.raises(OSError):
            journal.mark_snapshot(sched)
        monkeypatch.undo()
        assert (tmp_path / HISTORY_NAME).stat().st_size > size_before
        recovered, seq, _ = recover(tmp_path)
        assert seq == 50
        assert (tmp_path / HISTORY_NAME).stat().st_size == (
            covered["history_bytes"]
        )
        _assert_same_run(recovered, live)

    def test_torn_last_history_line_is_trimmed(self, tmp_path):
        config = _config(window=20.0)
        entries = _entries(60)
        live = _replay(config.build_scheduler(), entries)
        with RequestJournal(tmp_path, snapshot_every=8) as journal:
            _serve(journal, config.build_scheduler(), entries)
        covered = (tmp_path / HISTORY_NAME).read_bytes()
        with open(tmp_path / HISTORY_NAME, "ab") as fh:
            fh.write(b'{"job_id": 59, "release": 1')  # the racing append
        recovered, seq, _ = recover(tmp_path)
        assert seq == 60
        assert (tmp_path / HISTORY_NAME).read_bytes() == covered
        _assert_same_run(recovered, live)

    def test_two_restarts_continue_the_cursor(self, tmp_path):
        config = _config(window=20.0)
        entries = _entries(90)
        live = _replay(config.build_scheduler(), entries)
        cursors = []
        sched = config.build_scheduler()
        for lo, hi in ((0, 30), (30, 60), (60, 90)):
            if lo:
                # the previous process died: its journal was never closed
                sched, seq, _ = recover(tmp_path)
                assert seq == lo
            journal = RequestJournal(tmp_path, snapshot_every=7)
            _serve(journal, sched, entries[lo:hi])
            cursors.append(
                json.loads((tmp_path / SNAPSHOT_NAME).read_text())["state"][
                    "cursor"
                ]
            )
        assert cursors[0] < cursors[1] < cursors[2]
        assert len(_history_lines(tmp_path)) == cursors[-1]
        recovered, seq, _ = recover(tmp_path)
        assert seq == 90
        _assert_same_run(recovered, live)

    def test_version_1_snapshot_is_refused(self, tmp_path):
        (tmp_path / SNAPSHOT_NAME).write_text(
            json.dumps({"seq": 4, "state": {"version": 1, "engine": {}}})
        )
        with pytest.raises(SnapshotError, match="version 1"):
            recover(tmp_path)
        with pytest.raises(SnapshotError, match="version 1"):
            RequestJournal(tmp_path)
