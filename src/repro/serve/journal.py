"""Write-ahead request journal + periodic checkpoints for the server.

Crash safety for :class:`~repro.serve.server.SchedulerServer` rests on
three files inside one journal directory:

* ``journal.jsonl`` — every state-mutating request (``submit``,
  ``advance``, ``drain``), one JSON object per line, appended *after*
  validation but *before* the engine applies it (write-ahead);
* ``history.jsonl`` — one record per finished job (spec, final ``rem``,
  flow, finish time, tenant) in completion order, append-only: a
  finished job never changes, so each record is written exactly once;
* ``snapshot.json`` — the most recent checkpoint of the *live* state
  (:func:`~repro.serve.snapshot.snapshot_scheduler` with a cursor),
  tagged with the journal sequence number it covers and the length of
  the history prefix it covers (``cursor`` records, ``history_bytes``
  bytes).

A checkpoint therefore costs O(live jobs + jobs finished since the last
cut + metrics window), not O(jobs ever served).  It is cut in this order:
append the new history records, write the snapshot to a tmp file, rename
it over ``snapshot.json``, truncate the journal.  A crash anywhere in
between leaves the previous snapshot in force and, at worst, a history
tail past its cursor (or a torn last history line), which recovery
trims.

Recovery (:func:`recover`) reads exactly the history prefix the snapshot
covers, restores from it plus the snapshot, then replays every journal
entry with a later sequence number through :func:`apply_entry` — which
mirrors the server's own dispatch exactly (advance the trace clock to
the submission's resolved release, then submit).  Because the engine,
policy RNG and admission estimator are all deterministic given the
request sequence, a recovered scheduler is *bit-for-bit* identical to
one that was never killed; the crash-recovery tests assert exactly that
on per-job flow times.

Entries journal the **resolved** request — releases are concrete floats,
never "now" — so replay does not depend on any clock.  A torn final line
(the append that was racing the crash) is tolerated and dropped; any
earlier corruption raises :class:`JournalError` because silently
skipping interior entries would desynchronize the replayed trajectory.

Checkpoints are cut automatically every ``snapshot_every`` appended
entries, bounding both recovery replay and journal size.

Appends made inside :meth:`RequestJournal.group` are flushed (and, with
``fsync``, synced) once, when the block ends: a server that answers a
batch of requests with one reply commits their entries with one write,
still before the reply, so every acknowledged request is in the journal.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path

from repro.flowsim.engine import FlowSimError
from repro.serve.online import OnlineScheduler

__all__ = [
    "JournalError",
    "RequestJournal",
    "apply_entry",
    "read_history",
    "read_journal",
    "recover",
]

JOURNAL_NAME = "journal.jsonl"
SNAPSHOT_NAME = "snapshot.json"
HISTORY_NAME = "history.jsonl"

_MUTATING_OPS = ("submit", "advance", "drain")


class JournalError(RuntimeError):
    """Raised when the journal directory cannot be read back consistently."""


class RequestJournal:
    """Append-only write-ahead log with automatic checkpoint rotation.

    Parameters
    ----------
    directory:
        Journal directory (created if missing).  Holds ``journal.jsonl``,
        ``history.jsonl`` and ``snapshot.json``.  The scheduler it
        checkpoints must be the one :func:`recover` rebuilt from this
        directory (a fresh one for an empty directory): each cut appends
        that scheduler's completions past the snapshot's cursor.
    snapshot_every:
        Cut a checkpoint (and truncate the journal) after this many
        appended entries; ``0`` disables automatic checkpoints.
    fsync:
        When true, ``fsync`` after every append and make each checkpoint
        durable (history, snapshot and the rename itself) — survives
        power loss, not just process death, at a large throughput cost.
        The default ``flush`` survives any crash of the serving process
        itself.
    """

    def __init__(
        self,
        directory: str | Path,
        snapshot_every: int = 0,
        fsync: bool = False,
    ) -> None:
        if snapshot_every < 0:
            raise ValueError("snapshot_every must be >= 0")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.snapshot_every = int(snapshot_every)
        self.fsync = bool(fsync)
        self.journal_path = self.directory / JOURNAL_NAME
        self.snapshot_path = self.directory / SNAPSHOT_NAME
        self.history_path = self.directory / HISTORY_NAME
        snap = _read_snapshot(self.directory)
        self._seq = _last_seq(self.directory, snap)
        #: history records / bytes the on-disk snapshot covers; records
        #: past them are appended by the next cut
        self._cursor, self._history_bytes = (
            (0, 0)
            if snap is None
            else (int(snap["state"]["cursor"]), int(snap["history_bytes"]))
        )
        _trim_history(self.history_path, self._history_bytes)
        self._since_snapshot = _count_entries(self.journal_path)
        self._fh = open(self.journal_path, "a", encoding="utf-8")
        self._history = open(self.history_path, "ab")
        self._grouped = False

    @property
    def seq(self) -> int:
        """Sequence number of the most recently appended entry."""
        return self._seq

    def append(self, entry: dict) -> int:
        """Durably record one resolved request; returns its sequence number.

        Inside :meth:`group` the entry is written but committed only when
        the group ends.
        """
        self._seq += 1
        record = {"seq": self._seq, **entry}
        self._fh.write(json.dumps(record) + "\n")
        if not self._grouped:
            self._commit()
        self._since_snapshot += 1
        return self._seq

    @contextmanager
    def group(self):
        """Group commit: one flush (and one fsync) for every append inside.

        Snapshot cuts inside the block still follow ``snapshot_every``
        appended entries.
        """
        seq = self._seq
        self._grouped = True
        try:
            yield self
        finally:
            self._grouped = False
            if self._seq != seq:
                self._commit()

    def _commit(self) -> None:
        self._fh.flush()
        if self.fsync:
            os.fsync(self._fh.fileno())

    def maybe_snapshot(self, scheduler: OnlineScheduler) -> bool:
        """Cut a snapshot if ``snapshot_every`` entries have accumulated."""
        if self.snapshot_every and self._since_snapshot >= self.snapshot_every:
            self.mark_snapshot(scheduler)
            return True
        return False

    def mark_snapshot(self, scheduler: OnlineScheduler) -> Path:
        """Checkpoint ``scheduler`` now and truncate the journal.

        Jobs finished since the previous cut are appended to the history
        first; then the live-state snapshot, which covers them, lands
        atomically (tmp + rename) *before* the journal shrinks.  A crash
        before the rename leaves the old snapshot in force plus a history
        tail that recovery trims; a crash between the rename and the
        truncation merely replays entries the snapshot already covers —
        replay is idempotent because recovery skips entries with
        ``seq <= snapshot.seq``.
        """
        from repro.serve.snapshot import finished_records, snapshot_scheduler

        records = finished_records(scheduler, self._cursor)
        if records:
            blob = "".join(json.dumps(r) + "\n" for r in records).encode()
            self._history.write(blob)
            self._history.flush()
            self._cursor += len(records)
            self._history_bytes += len(blob)
            if self.fsync:
                os.fsync(self._history.fileno())
        doc = {
            "seq": self._seq,
            "history_bytes": self._history_bytes,
            "state": snapshot_scheduler(scheduler, cursor=self._cursor),
        }
        tmp = self.snapshot_path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(doc))
        if self.fsync:
            with open(tmp, "rb") as fh:
                os.fsync(fh.fileno())
        tmp.replace(self.snapshot_path)
        if self.fsync:
            # the rename lives in the directory entry, not in either file
            fd = os.open(self.directory, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        self._fh.truncate(0)
        self._fh.seek(0)
        self._since_snapshot = 0
        return self.snapshot_path

    def close(self) -> None:
        for fh in (self._fh, self._history):
            if not fh.closed:
                fh.flush()
                fh.close()

    def __enter__(self) -> "RequestJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# -- replay ----------------------------------------------------------------


def apply_entry(scheduler: OnlineScheduler, entry: dict) -> None:
    """Replay one journaled request, mirroring the server's dispatch.

    ``submit`` advances the clock to the entry's resolved release first —
    exactly what the server's trace-clock submit does — then re-runs
    admission + engine submission.  Deterministic failures (e.g. an entry
    that also failed live) re-raise; the caller decides whether to skip.
    """
    op = entry.get("op")
    if op == "submit":
        release = float(entry["release"])
        scheduler.advance_to(release)
        scheduler.submit(
            work=float(entry["work"]),
            span=entry.get("span"),
            mode=entry.get("mode", "sequential"),
            weight=float(entry.get("weight", 1.0)),
            release=release,
            tenant=entry.get("tenant"),
        )
    elif op == "advance":
        scheduler.advance_to(float(entry["to"]))
    elif op == "drain":
        scheduler.drain()
    else:
        raise JournalError(f"unknown journaled op {op!r}")


def read_journal(directory: str | Path) -> list[dict]:
    """Parse ``journal.jsonl``, tolerating only a torn *final* line."""
    path = Path(directory) / JOURNAL_NAME
    if not path.exists():
        return []
    entries: list[dict] = []
    raw_lines = path.read_bytes().split(b"\n")
    # a trailing "" after the final newline is normal, not a torn line
    if raw_lines and raw_lines[-1] == b"":
        raw_lines.pop()
    for i, raw in enumerate(raw_lines):
        try:
            entry = json.loads(raw)
            if not isinstance(entry, dict) or "seq" not in entry:
                raise ValueError("journal entry must be an object with a seq")
        except (ValueError, UnicodeDecodeError) as exc:
            if i == len(raw_lines) - 1:
                break  # torn tail: the append that was racing the crash
            raise JournalError(
                f"corrupt journal entry at line {i + 1}: {exc}"
            ) from exc
        entries.append(entry)
    return entries


def read_history(
    directory: str | Path, nbytes: int, count: int
) -> list[dict]:
    """Parse the first ``nbytes`` bytes of ``history.jsonl``, which must
    hold exactly ``count`` complete records; anything past them is a
    tail a crash left behind and is not read."""
    path = Path(directory) / HISTORY_NAME
    blob = b""
    if path.exists():
        with open(path, "rb") as fh:
            blob = fh.read(nbytes)
    lines = blob.split(b"\n")
    if len(blob) != nbytes or lines.pop() != b"" or len(lines) != count:
        raise JournalError(
            f"{path} does not hold the {count} records ({nbytes} bytes) "
            "the snapshot covers"
        )
    try:
        return [json.loads(line) for line in lines]
    except ValueError as exc:
        raise JournalError(f"corrupt history record in {path}: {exc}") from exc


def recover(
    directory: str | Path,
    build_empty=None,
) -> tuple[OnlineScheduler | None, int, int]:
    """Rebuild a scheduler from snapshot + history + journal replay.

    Returns ``(scheduler, last_seq, n_replayed)``.  ``scheduler`` is
    ``None`` when the directory holds neither a snapshot nor journal
    entries *and* no ``build_empty`` factory was given; with a factory,
    journal-only recovery replays onto a fresh scheduler.  Any history
    tail past the snapshot's cursor is truncated.
    """
    from repro.serve.snapshot import restore_scheduler

    directory = Path(directory)
    snap = _read_snapshot(directory)
    scheduler: OnlineScheduler | None = None
    base_seq = 0
    history_bytes = 0
    if snap is not None:
        state = snap["state"]
        history_bytes = int(snap["history_bytes"])
        history = read_history(directory, history_bytes, int(state["cursor"]))
        scheduler = restore_scheduler(state, history)
        base_seq = int(snap["seq"])
    entries = [e for e in read_journal(directory) if e["seq"] > base_seq]
    if scheduler is None:
        if not entries and build_empty is None:
            return None, base_seq, 0
        if build_empty is None:
            raise JournalError(
                f"{directory} has journal entries but no snapshot and no "
                "way to build an empty scheduler to replay onto"
            )
        scheduler = build_empty()
    replayed = 0
    last_seq = base_seq
    for entry in entries:
        if entry["seq"] <= last_seq:
            continue  # duplicate append from a crash mid-rotation
        try:
            apply_entry(scheduler, entry)
        except (ValueError, KeyError, FlowSimError) as exc:
            # the live request failed the same deterministic way; the
            # journal records the attempt, not a guarantee of success
            _ = exc
        last_seq = entry["seq"]
        replayed += 1
    _trim_history(directory / HISTORY_NAME, history_bytes)
    return scheduler, last_seq, replayed


def _read_snapshot(directory: Path) -> dict | None:
    """The parsed ``snapshot.json``, or ``None`` when there is none yet.

    Raises :class:`JournalError` on a corrupt file and
    :class:`~repro.serve.snapshot.SnapshotError` on a snapshot of another
    format version.
    """
    from repro.serve.snapshot import check_version

    path = directory / SNAPSHOT_NAME
    if not path.exists():
        return None
    try:
        snap = json.loads(path.read_text())
    except ValueError as exc:
        raise JournalError(f"corrupt snapshot {path}: {exc}") from exc
    check_version(snap["state"])
    return snap


def _trim_history(path: Path, nbytes: int) -> None:
    """Cut ``history.jsonl`` back to the ``nbytes`` the snapshot covers."""
    size = path.stat().st_size if path.exists() else 0
    if size < nbytes:
        raise JournalError(
            f"{path} holds {size} bytes, the snapshot covers {nbytes}"
        )
    if size > nbytes:
        os.truncate(path, nbytes)


def _last_seq(directory: Path, snap: dict | None) -> int:
    seq = 0 if snap is None else int(snap["seq"])
    for entry in read_journal(directory):
        seq = max(seq, int(entry["seq"]))
    return seq


def _count_entries(path: Path) -> int:
    if not path.exists():
        return 0
    return sum(1 for line in path.read_bytes().split(b"\n") if line.strip())
