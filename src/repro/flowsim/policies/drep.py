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

import numpy as np

from repro.flowsim.policies.base import ActiveView, Policy

__all__ = ["DrepSequential", "DrepParallel"]

_FREE = -1
#: sentinel for a crashed processor (repro.faults); excluded from coin
#: flips and re-draws until its ``recover`` event restores it to _FREE
_DOWN = -2


def _served_positions(job_ids: np.ndarray, assigned: np.ndarray) -> np.ndarray:
    """View positions of the ``assigned`` job ids present in ``job_ids``.

    ``job_ids`` is sorted ascending and unique (engine invariant), so a
    binary search over the at-most-``m`` assigned ids replaces the O(n·m)
    ``np.isin`` scan the hot loop used to pay per event.
    """
    pos = job_ids.searchsorted(assigned)
    np.minimum(pos, job_ids.size - 1, out=pos)
    return pos[job_ids[pos] == assigned]


def _unassigned_ids(job_ids: np.ndarray, assignment: np.ndarray) -> np.ndarray:
    """Active job ids with no processor — ``setdiff1d`` without the sort.

    Returns exactly what ``np.setdiff1d(job_ids, assignment)`` returns
    (``job_ids`` is already sorted unique, so masking preserves order),
    keeping the completion re-draw bit-for-bit identical.
    """
    if job_ids.size == 0:
        return job_ids
    assigned = assignment[assignment >= 0]
    if assigned.size == 0:
        return job_ids
    keep = np.ones(job_ids.size, dtype=bool)
    keep[_served_positions(job_ids, assigned)] = False
    return job_ids[keep]


def _one_proc_rates_arr(
    job_ids: np.ndarray, caps: np.ndarray, assignment: np.ndarray
) -> np.ndarray:
    """Rate vector when every assigned job holds exactly one processor."""
    n = job_ids.size
    rates = np.zeros(n, dtype=float)
    assigned = assignment[assignment >= 0]
    if assigned.size and n:
        pos = _served_positions(job_ids, assigned)
        rates[pos] = np.minimum(1.0, caps[pos])
    return rates


def _one_proc_rates(view: ActiveView, assignment: np.ndarray) -> np.ndarray:
    """View-based wrapper over :func:`_one_proc_rates_arr`."""
    return _one_proc_rates_arr(view.job_ids, view.caps, assignment)


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
        self._assignment: np.ndarray | None = None
        self._rng: np.random.Generator | None = None
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
        self._assignment = np.full(m, _FREE, dtype=np.int64)
        self._rng = rng
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
        return (self._assignment == job_id).nonzero()[0]

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
                free = (self._assignment == _FREE).nonzero()[0]
                if free.size:
                    self._assign(int(free[0]), evicted, preempt=False)
        elif kind == "recover":
            proc = int(event["proc"])
            self._assignment[proc] = _FREE
            self._n_down -= 1
            self._redraw_recovered(proc, view)

    def _redraw_recovered(self, proc: int, view: ActiveView) -> None:
        """Put a freshly recovered processor back to work (per variant)."""
        raise NotImplementedError

    def rates_array_patch(self, job_ids, caps):
        """Sparse rate update under the one-processor rule.

        Re-derives ``min(1, cap)`` / ``0`` from the *current* assignment
        table for every dirty job still active, so stale dirty entries
        (recorded before an unconsumed full rebuild) are harmless.
        ``DrepParallel`` overrides this with the processor-count rule.
        """
        assignment = self._assignment
        if assignment is None:
            return None
        dirty = self._rate_dirty
        if not dirty:
            return ()
        out = []
        size = job_ids.size
        procs_of = self._procs_of
        for j in dirty:
            pos = int(job_ids.searchsorted(j))
            if pos < size and job_ids[pos] == j:
                if j in procs_of:
                    c = caps[pos]
                    out.append((pos, c if c < 1.0 else 1.0))
                else:
                    out.append((pos, 0.0))
        dirty.clear()
        return out


class DrepSequential(_DrepBase):
    """DREP for sequential jobs (paper Sec. III)."""

    name = "DREP"

    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        if self._n_assigned + self._n_down < self._assignment.size:
            # a free processor takes the new job; no preemption
            free = (self._assignment == _FREE).nonzero()[0]
            self._assign(int(free[0]), job_id, preempt=False)
            return
        prob = self.arrival_switch_prob
        if prob is None:
            prob = 1.0 / view.n  # |A(t)| includes the new job
        if self._n_down:
            # crashed processors flip no coins; the no-fault branch below
            # is kept verbatim so fault-free runs stay bit-for-bit stable
            up = (self._assignment != _DOWN).nonzero()[0]
            flips = self._rng.random(up.size) < prob
            winners = up[flips.nonzero()[0]]
        else:
            flips = self._rng.random(self._assignment.size) < prob
            winners = flips.nonzero()[0]
        if winners.size == 0:
            return  # job waits in the unassigned queue
        # tie-break: exactly one of the coin winners switches (Sec. III,
        # "breaking ties arbitrarily to give the job at most one processor")
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
            # uniform draw from the unassigned queue by order statistics:
            # the k-th active id skipping the (at most m) assigned
            # positions — same draw as materializing the unassigned array
            # and indexing it, without the O(n) mask/gather per event.
            # ``_procs_of`` keys are exactly the assigned jobs (each
            # sequential job holds one processor, and a held job is
            # always active), so one binary-search pass finds their
            # positions without scanning the processor table.
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
        # same rule as a processor freed by a completion: draw uniformly
        # from the unassigned queue, stay free when there is none
        assert self._assignment is not None and self._rng is not None
        unassigned = _unassigned_ids(view.job_ids, self._assignment)
        if unassigned.size:
            pick = int(unassigned[self._rng.integers(unassigned.size)])
            self._assign(int(proc), pick, preempt=False)

    def rates(self, view: ActiveView) -> np.ndarray:
        assert self._assignment is not None
        # sequential DREP gives each job at most one processor
        return _one_proc_rates(view, self._assignment)

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        assert self._assignment is not None
        self._rate_dirty.clear()
        return _one_proc_rates_arr(job_ids, caps, self._assignment)


class DrepParallel(_DrepBase):
    """DREP's processor-assignment rule for parallel jobs (paper Sec. IV)."""

    name = "DREP"

    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        assert self._assignment is not None and self._rng is not None
        if self._n_assigned + self._n_down < self._assignment.size:
            free = (self._assignment == _FREE).nonzero()[0]
            for proc in free:
                # idle processors exist only when the machine was empty;
                # they all join the newcomer (work stealing spreads them
                # internally)
                self._assign(int(proc), job_id, preempt=False)
        busy = (self._assignment >= 0).nonzero()[0]
        busy = busy[self._assignment[busy] != job_id]
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
        # same rule as a processor freed by a completion: uniform over all
        # active jobs, stay free on an empty machine
        assert self._assignment is not None and self._rng is not None
        if view.n:
            pick = int(view.job_ids[self._rng.integers(view.n)])
            self._assign(int(proc), pick, preempt=False)

    def rates(self, view: ActiveView) -> np.ndarray:
        return self.rates_array(
            view.t, view.m, view.job_ids, view.remaining,
            view.work, view.release, view.caps,
        )

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        assert self._assignment is not None
        self._rate_dirty.clear()
        n = job_ids.size
        rates = np.zeros(n, dtype=float)
        assigned = self._assignment[self._assignment >= 0]
        if assigned.size == 0 or n == 0:
            return rates
        # per-job processor counts in one bincount pass; ids outside the
        # active set simply never get read back (assignment ⊆ active ids)
        counts = np.bincount(assigned, minlength=int(job_ids[-1]) + 1)
        np.minimum(caps, counts[job_ids], out=rates)
        return rates

    def rates_array_patch(self, job_ids, caps):
        """Sparse rate update under the processor-count rule."""
        assignment = self._assignment
        if assignment is None:
            return None
        dirty = self._rate_dirty
        if not dirty:
            return ()
        out = []
        size = job_ids.size
        procs_of = self._procs_of
        for j in dirty:
            pos = int(job_ids.searchsorted(j))
            if pos < size and job_ids[pos] == j:
                c = float(len(procs_of.get(j, ())))
                cap = caps[pos]
                out.append((pos, cap if cap < c else c))
        dirty.clear()
        return out
