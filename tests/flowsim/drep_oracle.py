"""The per-processor DREP move rules, kept as a test-only oracle.

The shipped policies (:mod:`repro.flowsim.policies.drep` and
:class:`~repro.flowsim.policies.weighted.WDrep`) move every processor an
event touches in one pass, and draw through a prefetching
:class:`~repro.core.rng.DrawStream`.  The classes below restore the
earlier form on top of the shipped classes — one ``_assign`` call per
processor, numpy masks over the processor table, and every draw one
call on the engine's plain ``Generator`` (sized ``random(k)`` coin
flips, one scalar ``integers(n)`` per re-draw) — so the equivalence
tests can hold the batched rule and the stream to it: same flows,
counters, assignment table, ``_procs_of`` order, ``_last_proc`` and
generator state.

``OracleWDrep`` keeps the earlier WDREP exactly too, which had no
recovery re-draw and flipped coins on crashed processors; compare it on
fault-free runs only.
"""

from __future__ import annotations

import numpy as np

from repro.flowsim.policies.base import ActiveView
from repro.flowsim.policies.drep import (
    _DOWN,
    _FREE,
    DrepParallel,
    DrepSequential,
)
from repro.flowsim.policies.weighted import WDrep


def _unassigned(job_ids: np.ndarray, assignment: list[int]) -> np.ndarray:
    """Active job ids with no processor, by definition."""
    return np.setdiff1d(job_ids, np.array(assignment, dtype=np.int64))


class _PerProcessorMoves:
    """``_assign``, ``_release_procs_of`` and ``on_fault`` as they were,
    drawing from the plain generator the engine hands ``reset``."""

    def reset(self, m: int, rng: np.random.Generator) -> None:
        super().reset(m, rng)
        self._rng = rng

    def _table(self) -> np.ndarray:
        """The processor table as an array, for the numpy masks."""
        return np.array(self._assignment, dtype=np.int64)

    def _assign(self, proc: int, job_id: int, preempt: bool) -> None:
        """Move processor ``proc`` onto ``job_id``, updating counters."""
        assert self._assignment is not None
        assignment = self._assignment
        old = int(assignment[proc])
        if old == job_id:
            return
        if preempt and old != _FREE:
            self._preemptions += 1
        self._switches += 1
        assignment[proc] = job_id
        procs_of = self._procs_of
        if old >= 0:
            self._rate_dirty.add(old)
            held = procs_of[old]
            held.remove(proc)
            if not held:
                del procs_of[old]
        else:
            self._n_assigned += 1
        self._rate_dirty.add(job_id)
        if job_id in procs_of:
            procs_of[job_id].append(proc)
        else:
            procs_of[job_id] = [proc]
        seen = self._last_proc.get(job_id)
        if seen is None:
            self._last_proc[job_id] = {proc}
        else:
            if proc not in seen:
                self._migrations += 1
            seen.add(proc)

    def _release_procs_of(self, job_id: int) -> list[int]:
        """Free every processor of ``job_id``; ascending processor order."""
        assert self._assignment is not None
        self._last_proc.pop(job_id, None)
        procs = self._procs_of.pop(job_id, None)
        if procs is None:
            return []
        procs.sort()
        assignment = self._assignment
        for p in procs:
            assignment[p] = _FREE
        self._n_assigned -= len(procs)
        return procs

    def on_fault(self, event: dict, view: ActiveView) -> None:
        assert self._assignment is not None
        kind = event["kind"]
        if kind == "crash":
            proc = int(event["proc"])
            evicted = int(self._assignment[proc])
            if evicted >= 0:
                self._fault_evictions += 1
                self._rate_dirty.add(evicted)
                held = self._procs_of[evicted]
                held.remove(proc)
                if not held:
                    del self._procs_of[evicted]
                self._n_assigned -= 1
            self._assignment[proc] = _DOWN
            self._n_down += 1
            if evicted >= 0 and evicted not in self._procs_of:
                free = (self._table() == _FREE).nonzero()[0]
                if free.size:
                    self._assign(int(free[0]), evicted, preempt=False)
        elif kind == "recover":
            proc = int(event["proc"])
            self._assignment[proc] = _FREE
            self._n_down -= 1
            self._redraw_recovered(proc, view)


class OracleDrepSequential(_PerProcessorMoves, DrepSequential):
    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        table = self._table()
        if self._n_assigned + self._n_down < table.size:
            # a free processor takes the new job; no preemption
            free = (table == _FREE).nonzero()[0]
            self._assign(int(free[0]), job_id, preempt=False)
            return
        prob = self.arrival_switch_prob
        if prob is None:
            prob = 1.0 / view.n  # |A(t)| includes the new job
        if self._n_down:
            up = (table != _DOWN).nonzero()[0]
            flips = self._rng.random(up.size) < prob
            winners = up[flips.nonzero()[0]]
        else:
            flips = self._rng.random(table.size) < prob
            winners = flips.nonzero()[0]
        if winners.size == 0:
            return  # job waits in the unassigned queue
        proc = int(winners[self._rng.integers(winners.size)])
        self._assign(proc, job_id, preempt=True)

    def on_completion(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        freed = self._release_procs_of(job_id)
        if not freed:
            return
        job_ids = view.job_ids
        n = int(job_ids.size)
        rng = self._rng
        procs_of = self._procs_of
        for proc in freed:
            n_held = len(procs_of)
            if n_held:
                plist = sorted(
                    job_ids.searchsorted(
                        np.fromiter(procs_of, np.int64, n_held)
                    ).tolist()
                )
            else:
                plist = []
            k = n - n_held
            if k == 0:
                continue  # processor stays free
            idx = int(rng.integers(k))
            for p in plist:
                if p <= idx:
                    idx += 1
                else:
                    break
            self._assign(proc, int(job_ids[idx]), preempt=False)

    def _redraw_recovered(self, proc: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        unassigned = _unassigned(view.job_ids, self._assignment)
        if unassigned.size:
            pick = int(unassigned[self._rng.integers(unassigned.size)])
            self._assign(int(proc), pick, preempt=False)


class OracleDrepParallel(_PerProcessorMoves, DrepParallel):
    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        if self._n_assigned + self._n_down < len(self._assignment):
            free = (self._table() == _FREE).nonzero()[0]
            for proc in free:
                self._assign(int(proc), job_id, preempt=False)
        table = self._table()
        busy = (table >= 0).nonzero()[0]
        busy = busy[table[busy] != job_id]
        if busy.size == 0:
            return
        n_active = view.n  # includes the new job
        flips = self._rng.random(busy.size) < self._switch_prob(n_active)
        for proc in busy[flips]:
            self._assign(int(proc), job_id, preempt=True)

    def on_completion(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        freed = self._release_procs_of(job_id)
        if view.n == 0:
            return  # machine drained; processors stay free
        for proc in freed:
            pick = int(view.job_ids[self._rng.integers(view.n)])
            self._assign(proc, pick, preempt=False)

    def _redraw_recovered(self, proc: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        if view.n:
            pick = int(view.job_ids[self._rng.integers(view.n)])
            self._assign(int(proc), pick, preempt=False)


class OracleWDrep(_PerProcessorMoves, WDrep):
    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        free = np.flatnonzero(self._table() == _FREE)
        if free.size:
            self._assign(int(free[0]), job_id, preempt=False)
            return
        if self._weights is None:
            total = float(view.n)
            share = 1.0 / total
        else:
            total = float(self._weights[view.job_ids].sum())
            share = self._weight(job_id) / total
        flips = self._rng.random(len(self._assignment)) < share
        winners = np.flatnonzero(flips)
        if winners.size == 0:
            return
        proc = int(winners[self._rng.integers(winners.size)])
        self._assign(proc, job_id, preempt=True)

    def on_completion(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        freed = self._release_procs_of(job_id)
        for proc in freed:
            unassigned = _unassigned(view.job_ids, self._assignment)
            if unassigned.size == 0:
                continue
            if self._weights is None:
                pick = int(unassigned[self._rng.integers(unassigned.size)])
            else:
                w = self._weights[unassigned]
                p = w / w.sum()
                pick = int(self._rng.choice(unassigned, p=p))
            self._assign(int(proc), pick, preempt=False)
