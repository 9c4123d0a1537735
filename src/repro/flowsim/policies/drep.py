"""DREP — Distributed Random Equi-Partition (the paper's contribution).

Flow-level form of the algorithm.  Two variants:

* :class:`DrepSequential` — Sec. III, jobs use at most one processor.  On
  an arrival, a free processor (if any) takes the new job outright;
  otherwise every processor flips a coin with probability ``1/|A(t)|``
  (``|A(t)|`` counting the new job) and ties are broken so the new job
  gets **at most one** processor.  On a completion, the freed processor
  draws a job uniformly at random from the queue of *unassigned* jobs.
  Preemptions happen only on arrivals; the expected total is O(n)
  (Theorem 1.2).

* :class:`DrepParallel` — the processor-assignment rule of Sec. IV without
  the work-stealing internals (those live in :mod:`repro.wsim`): on an
  arrival every processor independently switches to the new job with
  probability ``1/|A(t)|`` (several may switch); on a completion each
  processor of the finished job re-draws uniformly from all remaining
  active jobs.  A job's processing rate is ``min(cap, p_i(t))`` — exact
  for the fully parallel jobs of Figure 2.

Both variants expose preemption/migration counters so the Theorem 1.2
budget can be checked empirically (``benchmarks/test_preemptions.py``).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import partial

import numpy as np

from repro.core.rng import DrawStream
from repro.flowsim.policies.base import ActiveView, Policy

__all__ = ["DrepSequential", "DrepParallel"]

_FREE = -1
#: sentinel for a crashed processor (repro.faults); excluded from coin
#: flips and re-draws until its ``recover`` event restores it to _FREE
_DOWN = -2
#: batches up to this size are booked one move at a time; a larger one
#: is booked per job (:meth:`_DrepBase._move_by_job`), whose set and dict
#: builds cost about what four per-move bookings do
_SCALAR_MOVES = 4


def _served_positions(job_ids: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """View positions of the ``assigned`` job ids present in ``job_ids``.

    ``job_ids`` is sorted ascending and unique (engine invariant), so a
    binary search over the at-most-``m`` assigned ids replaces the O(n·m)
    ``np.isin`` scan the hot loop used to pay per event.
    """
    pos = job_ids.searchsorted(assigned)
    np.minimum(pos, job_ids.size - 1, out=pos)
    return pos[job_ids[pos] == assigned]


def _unassigned_ids(job_ids: list[int], procs_of: dict) -> list[int]:
    """Active job ids with no processor, ascending.

    ``procs_of`` is keyed by exactly the jobs that hold a processor, so
    this is the list of what ``np.setdiff1d(job_ids, assignment)``
    returns, keeping the completion re-draw bit-for-bit identical.
    """
    return [j for j in job_ids if j not in procs_of]


def _one_proc_rates_arr(
    job_ids: np.ndarray, caps: np.ndarray, procs_of: dict
) -> np.ndarray:
    """Rate vector when every assigned job holds exactly one processor
    (``procs_of`` keyed by the assigned jobs)."""
    n = job_ids.size
    rates = np.zeros(n, dtype=float)
    if procs_of and n:
        assigned = np.fromiter(procs_of, np.int64, len(procs_of))
        pos = _served_positions(job_ids, assigned)
        rates[pos] = np.minimum(1.0, caps[pos])
    return rates


class _DrepBase(Policy):
    """Shared machinery: per-processor assignment table and counters.

    ``arrival_switch_prob`` overrides the coin-flip probability used on a
    job arrival: ``None`` (default) is the paper's ``1/|A(t)|``; a float
    in (0, 1] fixes the probability (ablation X3 in DESIGN.md — a fixed
    probability loses the equi-partition property and, when large, the
    O(n) expected preemption budget).
    """

    clairvoyant = False
    # the assignment table only changes inside the arrival/completion
    # hooks, so the rate vector is stable between composition changes
    rates_stable = True

    def __init__(self, arrival_switch_prob: float | None = None) -> None:
        if arrival_switch_prob is not None and not 0 < arrival_switch_prob <= 1:
            raise ValueError("arrival_switch_prob must be in (0, 1]")
        self.arrival_switch_prob = arrival_switch_prob
        if arrival_switch_prob is not None:
            self.name = f"DREP(p={arrival_switch_prob:g})"
        #: the processor table: job id per processor, or _FREE / _DOWN
        self._assignment: list[int] | None = None
        self._rng: DrawStream | None = None
        self._preemptions = 0
        self._switches = 0
        self._migrations = 0
        self._last_proc: dict[int, set[int]] = {}
        self._n_down = 0
        self._fault_evictions = 0
        # job ids whose processor count changed since the last full or
        # patched rate vector — the rates_array_patch working set
        self._rate_dirty: set[int] = set()
        # inverse of the assignment table (job id -> held processors,
        # absent when none) plus the total held count; lets the hot
        # hooks and patches answer "who holds what" without scanning
        # the processor array
        self._procs_of: dict[int, list[int]] = {}
        self._n_assigned = 0

    def _switch_prob(self, n_active: int) -> float:
        if self.arrival_switch_prob is not None:
            return self.arrival_switch_prob
        return 1.0 / n_active

    def reset(self, m: int, rng: np.random.Generator) -> None:
        self._assignment = [_FREE] * m
        # every coin flip and re-draw is a scalar or short list draw
        self._rng = DrawStream(rng)
        self._preemptions = 0
        self._switches = 0
        self._migrations = 0
        self._last_proc = {}
        self._n_down = 0
        self._fault_evictions = 0
        self._rate_dirty = set()
        self._procs_of = {}
        self._n_assigned = 0

    # -- counters ----------------------------------------------------------

    @property
    def preemptions(self) -> int:
        return self._preemptions

    @property
    def switches(self) -> int:
        """All processor re-assignments, including after completions."""
        return self._switches

    @property
    def migrations(self) -> int:
        return self._migrations

    @property
    def fault_evictions(self) -> int:
        """Jobs knocked off a processor by a crash (repro.faults).

        Tracked separately from :attr:`preemptions` so the Theorem 1.2
        budget keeps counting only the algorithm's own switch decisions.
        """
        return self._fault_evictions

    def processors_of(self, job_id: int) -> np.ndarray:
        """Indices of processors currently assigned to ``job_id``."""
        assert self._assignment is not None
        return (np.array(self._assignment, dtype=np.int64) == job_id).nonzero()[0]

    def _move(self, procs: list[int], targets: list[int], preempt: bool) -> None:
        """Move processor ``procs[i]`` onto job ``targets[i]``, for each ``i``.

        One pass leaves the table, ``_procs_of`` (list and key order
        included), ``_last_proc`` and every counter exactly as moving the
        processors one at a time, in the given order, would.  ``procs``
        and ``targets`` are equal-length lists of ints, ``procs`` without
        repeats; a move onto the job a processor already runs is a no-op.
        With ``preempt``, a move off anything but a free processor counts
        as a preemption.

        A batch of more than ``_SCALAR_MOVES`` processors is booked per
        job (:meth:`_move_by_job`) unless a target is also an old owner.
        """
        assignment = self._assignment
        if len(procs) == 1:
            # the common case (DrepSequential, faults, serving), kept as
            # cheap as a plain read and store
            proc = procs[0]
            new = targets[0]
            moves = ((proc, assignment[proc], new),)
            assignment[proc] = new
        else:
            olds = [assignment[p] for p in procs]
            if len(procs) > _SCALAR_MOVES:
                jobs = set(targets)
                if jobs.isdisjoint(olds):
                    # every caller's batch: each target's processors, in
                    # batch order, targets in order of first appearance
                    if len(jobs) == 1:
                        t = targets[0]
                        for p in procs:
                            assignment[p] = t
                        gained = {t: list(procs)}
                    else:
                        gained = {}
                        for p, t in zip(procs, targets):
                            assignment[p] = t
                            got = gained.get(t)
                            if got is None:
                                gained[t] = [p]
                            else:
                                got.append(p)
                    self._move_by_job(procs, olds, gained, preempt)
                    return
            for p, t in zip(procs, targets):
                assignment[p] = t
            moves = zip(procs, olds, targets)
        procs_of = self._procs_of
        dirty = self._rate_dirty
        last = self._last_proc
        for proc, old, new in moves:
            if old == new:
                continue
            if preempt and old != _FREE:
                self._preemptions += 1
            self._switches += 1
            if old >= 0:
                dirty.add(old)
                held = procs_of[old]
                held.remove(proc)
                if not held:
                    del procs_of[old]
            else:
                self._n_assigned += 1
            dirty.add(new)
            held = procs_of.get(new)
            if held is None:
                procs_of[new] = [proc]
            else:
                held.append(proc)
            seen = last.get(new)
            if seen is None:
                last[new] = {proc}
            elif proc not in seen:
                self._migrations += 1
                seen.add(proc)

    def _move_by_job(
        self,
        procs: list[int],
        olds: list[int],
        gained: dict[int, list[int]],
        preempt: bool,
    ) -> None:
        """:meth:`_move`'s bookkeeping per job, for a batch whose targets
        include no old owner: ``olds[i]`` is ``procs[i]``'s old owner, and
        ``gained`` maps each target to its processors in batch order.

        Then an old owner only loses processors and a target only gains
        them, so the per-move loop's end state is one filter per old
        owner's list, one extend per target (new keys in order of first
        appearance), counts from ``olds``, and ``_last_proc`` by set
        arithmetic: a job's first processor is no migration.
        """
        n = len(procs)
        n_free = olds.count(_FREE)
        n_unowned = n_free + olds.count(_DOWN)
        if preempt:
            self._preemptions += n - n_free
        self._switches += n
        self._n_assigned += n_unowned
        procs_of = self._procs_of
        dirty = self._rate_dirty
        if n_unowned < n:
            moved = set(procs)
            for old in dict.fromkeys(olds):
                if old >= 0:
                    dirty.add(old)
                    kept = [p for p in procs_of[old] if p not in moved]
                    if kept:
                        procs_of[old] = kept
                    else:
                        del procs_of[old]
        last = self._last_proc
        for t, got in gained.items():
            dirty.add(t)
            held = procs_of.get(t)
            if held is None:
                procs_of[t] = got
            else:
                held.extend(got)
            seen = last.get(t)
            if seen is None:
                last[t] = set(got)
                self._migrations += len(got) - 1
            else:
                k = len(seen)
                seen.update(got)
                self._migrations += len(seen) - k

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

    # -- faults (repro.faults) --------------------------------------------

    def on_fault(self, event: dict, view: ActiveView) -> None:
        """Crash evicts whatever the processor ran; recovery re-draws.

        An evicted job normally rejoins the unassigned pool — it gets a
        processor again at the next completion/recovery re-draw or arrival
        reshuffle, exactly like a job whose arrival coin flips all failed.
        One exception: if the eviction left the job with no processors
        while a FREE up processor exists (possible under elastic
        scale-downs, where no recovery is ever coming), the job reseats on
        the lowest free processor immediately.  Otherwise a lone survivor
        could stall at rate zero forever with idle capacity beside it.
        The reseat draws no randomness, so trajectories without such an
        eviction — all fault-free runs included — are bit-for-bit stable.
        Slowdown events carry no assignment consequence and are ignored.
        """
        assignment = self._assignment
        assert assignment is not None
        kind = event["kind"]
        if kind == "crash":
            proc = int(event["proc"])
            evicted = assignment[proc]
            if evicted >= 0:
                self._fault_evictions += 1
                self._rate_dirty.add(evicted)
                held = self._procs_of[evicted]
                held.remove(proc)
                if not held:
                    del self._procs_of[evicted]
                self._n_assigned -= 1
            assignment[proc] = _DOWN
            self._n_down += 1
            if evicted >= 0 and evicted not in self._procs_of:
                if _FREE in assignment:
                    self._move([assignment.index(_FREE)], [evicted], preempt=False)
        elif kind == "recover":
            proc = int(event["proc"])
            assignment[proc] = _FREE
            self._n_down -= 1
            self._redraw_recovered(proc, view)

    def _redraw_recovered(self, proc: int, view: ActiveView) -> None:
        """Put a freshly recovered processor back to work (per variant)."""
        raise NotImplementedError

    def rates_array_patch(self, job_ids, caps):
        """Sparse rate update: re-derives each dirty job's rate from the
        *current* assignment table (:meth:`_rate_of`) for every dirty job
        still active, so stale dirty entries (recorded before an
        unconsumed full rebuild) are harmless."""
        return self._patch(job_ids, caps, job_ids.searchsorted)

    def rates_scalar_patch(self, job_ids, caps):
        return self._patch(job_ids, caps, partial(bisect_left, job_ids))

    def _patch(self, job_ids, caps, locate):
        """The dirty jobs' ``(position, rate)`` pairs; ``locate`` finds an
        id's insertion position in the ascending ``job_ids``."""
        if self._assignment is None:
            return None
        dirty = self._rate_dirty
        if not dirty:
            return ()
        out = []
        size = len(job_ids)
        rate_of = self._rate_of
        for j in dirty:
            pos = int(locate(j))
            if pos < size and job_ids[pos] == j:
                out.append((pos, rate_of(j, caps[pos])))
        dirty.clear()
        return out

    def _rate_of(self, job_id: int, cap: float) -> float:
        """One job's rate under the one-processor rule: ``min(1, cap)``
        while it holds a processor, else 0.  ``DrepParallel`` overrides
        this with the processor-count rule."""
        if job_id in self._procs_of:
            return cap if cap < 1.0 else 1.0
        return 0.0


class DrepSequential(_DrepBase):
    """DREP for sequential jobs (paper Sec. III)."""

    name = "DREP"

    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        assignment = self._assignment
        assert assignment is not None and self._rng is not None
        if self._n_assigned + self._n_down < len(assignment):
            # the lowest free processor takes the new job; no preemption
            self._move([assignment.index(_FREE)], [job_id], preempt=False)
            return
        prob = self.arrival_switch_prob
        if prob is None:
            prob = 1.0 / view.n  # |A(t)| includes the new job
        if self._n_down:
            # crashed processors flip no coins
            up = [p for p, j in enumerate(assignment) if j != _DOWN]
            flips = self._rng.random_list(len(up))
            winners = [p for p, u in zip(up, flips) if u < prob]
        else:
            flips = self._rng.random_list(len(assignment))
            winners = [p for p, u in enumerate(flips) if u < prob]
        if not winners:
            return  # job waits in the unassigned queue
        # tie-break: exactly one of the coin winners switches (Sec. III,
        # "breaking ties arbitrarily to give the job at most one processor")
        proc = winners[self._rng.index(len(winners))]
        self._move([proc], [job_id], preempt=True)

    def on_completion(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        freed = self._release_procs_of(job_id)
        if not freed:
            return
        (proc,) = freed  # a sequential job holds at most one processor
        job_ids = view.id_list
        procs_of = self._procs_of
        k = len(job_ids) - len(procs_of)
        if k == 0:
            return  # processor stays free
        # uniform draw from the unassigned queue by order statistics: the
        # k-th active id skipping the (at most m) assigned positions —
        # same draw as materializing the unassigned list and indexing
        # it, without the O(n) filter per event.  ``_procs_of`` keys are
        # exactly the assigned jobs (each holds one processor, and a held
        # job is always active), so a binary search per key finds their
        # positions without scanning the processor table.
        idx = self._rng.index(k)
        if procs_of:
            for p in sorted([bisect_left(job_ids, j) for j in procs_of]):
                if p <= idx:
                    idx += 1
                else:
                    break
        self._move([proc], [job_ids[idx]], preempt=False)

    def _redraw_recovered(self, proc: int, view: ActiveView) -> None:
        # same rule as a processor freed by a completion: draw uniformly
        # from the unassigned queue, stay free when there is none
        assert self._assignment is not None and self._rng is not None
        unassigned = _unassigned_ids(view.id_list, self._procs_of)
        if unassigned:
            pick = unassigned[self._rng.index(len(unassigned))]
            self._move([int(proc)], [pick], preempt=False)

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        assert self._assignment is not None
        self._rate_dirty.clear()
        # sequential DREP gives each job at most one processor
        return _one_proc_rates_arr(job_ids, caps, self._procs_of)

    def rates_scalar(self, t, m, job_ids, remaining, work, release, caps):
        assert self._assignment is not None
        self._rate_dirty.clear()
        n = len(job_ids)
        rates = [0.0] * n
        # ``_procs_of`` keys are exactly the jobs holding a processor
        for j in self._procs_of:
            pos = bisect_left(job_ids, j)
            if pos < n and job_ids[pos] == j:
                c = caps[pos]
                rates[pos] = c if c < 1.0 else 1.0
        return rates


class DrepParallel(_DrepBase):
    """DREP's processor-assignment rule for parallel jobs (paper Sec. IV)."""

    name = "DREP"

    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        assignment = self._assignment
        assert assignment is not None and self._rng is not None
        # the busy processors flip their coins, in ascending order, in one
        # draw; idle processors exist only when the machine was empty, and
        # they all join the newcomer (work stealing spreads them
        # internally) — as moves off a free processor, no preemptions
        grant = []
        if self._n_assigned + self._n_down < len(assignment):
            grant = [p for p, j in enumerate(assignment) if j == _FREE]
        busy = []
        if self._n_assigned:
            busy = [p for p, j in enumerate(assignment) if j >= 0 and j != job_id]
        if busy:
            prob = self._switch_prob(view.n)  # |A(t)| includes the new job
            flips = self._rng.random_list(len(busy))
            grant += [p for p, u in zip(busy, flips) if u < prob]
        if grant:
            self._move(grant, [job_id] * len(grant), preempt=True)

    def on_completion(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        freed = self._release_procs_of(job_id)
        if freed and view.n:  # on a drained machine they stay free
            self._move(freed, self._draw_jobs(view, len(freed)), preempt=False)

    def _redraw_recovered(self, proc: int, view: ActiveView) -> None:
        # same rule as a processor freed by a completion: uniform over all
        # active jobs, stay free on an empty machine
        assert self._assignment is not None and self._rng is not None
        if view.n:
            self._move([int(proc)], self._draw_jobs(view, 1), preempt=False)

    def _draw_jobs(self, view: ActiveView, k: int) -> list[int]:
        """``k`` uniform draws over the active jobs: ``k`` scalar
        ``integers(n)`` draws, which equal one ``integers(n, size=k)``
        call in values and end state (tests/wsim/test_rng_draws.py pins
        this); ``integers(1)`` consumes no state, so a lone active job
        needs no draw at all.
        """
        job_ids = view.id_list
        n = len(job_ids)
        if n == 1:
            return [job_ids[0]] * k
        index = self._rng.index
        return [job_ids[index(n)] for _ in range(k)]

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        assert self._assignment is not None
        self._rate_dirty.clear()
        n = job_ids.size
        rates = np.zeros(n, dtype=float)
        assignment = np.array(self._assignment, dtype=np.int64)
        assigned = assignment[assignment >= 0]
        if assigned.size == 0 or n == 0:
            return rates
        # per-job processor counts in one bincount pass; ids outside the
        # active set simply never get read back (assignment ⊆ active ids)
        counts = np.bincount(assigned, minlength=int(job_ids[-1]) + 1)
        np.minimum(caps, counts[job_ids], out=rates)
        return rates

    def rates_scalar(self, t, m, job_ids, remaining, work, release, caps):
        assert self._assignment is not None
        self._rate_dirty.clear()
        n = len(job_ids)
        rates = [0.0] * n
        for j, procs in self._procs_of.items():
            pos = bisect_left(job_ids, j)
            if pos < n and job_ids[pos] == j:
                c = caps[pos]
                k = float(len(procs))
                rates[pos] = c if c < k else k
        return rates

    def _rate_of(self, job_id: int, cap: float) -> float:
        """The processor-count rule: ``min(cap, processors held)``."""
        k = float(len(self._procs_of.get(job_id, ())))
        return cap if cap < k else k
