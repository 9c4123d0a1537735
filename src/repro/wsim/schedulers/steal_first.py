"""Steal-first scheduling (paper Sec. V-B, from Li et al. PPoPP'16).

A global-pool work-stealing variant with a FIFO queue of not-yet-started
jobs.  A worker that runs out of work *steals first*: it keeps trying
random victims among the other workers ("favoring jobs that have started
processing") and only admits a new job from the queue after a budget of
failed steal attempts.  The paper's implementation "only bears 2n number
of failed stealing attempts before admitting a new job" and notes that
performance degrades with a larger budget — ablation X2 sweeps it.

Steal-first approximates FIFO and was shown to work well for *max* flow
time [18]; Figure 3 shows it is the weakest of the four for *average*
flow at high load.
"""

from __future__ import annotations

from collections import deque

from repro.wsim.schedulers.base import WsScheduler
from repro.wsim.structures import JobRun, Worker, WsDeque

__all__ = ["StealFirstWS"]


class StealFirstWS(WsScheduler):
    """Steal among started jobs; admit from the FIFO queue as a last resort."""

    affinity = False
    clairvoyant = False

    def __init__(self, steal_budget_factor: float = 2.0) -> None:
        if steal_budget_factor < 0:
            raise ValueError("steal_budget_factor must be >= 0")
        self.steal_budget_factor = steal_budget_factor
        self.name = (
            "steal-first"
            if steal_budget_factor == 2.0
            else f"steal-first({steal_budget_factor:g}m)"
        )
        self.queue: deque[JobRun] = deque()

    def reset(self, rt) -> None:
        super().reset(rt)
        self.queue = deque()
        for worker in rt.workers:
            worker.dq = WsDeque(job=None, owner=worker.wid)
            worker.failed_steals = 0

    def on_arrival(self, job: JobRun) -> None:
        self.rt.active.append(job)
        self.queue.append(job)

    def on_abort(self, job: JobRun) -> None:
        # the job may still be waiting for admission
        try:
            self.queue.remove(job)
        except ValueError:
            pass

    def _admit(self, worker: Worker) -> bool:
        if not self.queue:
            return False
        job = self.queue.popleft()
        self.admit_to_worker(worker, job)
        worker.failed_steals = 0
        return True

    def out_of_work(self, worker: Worker) -> None:
        rt = self.rt
        budget = self.steal_budget_factor * rt.m
        victims = self.victims(worker)
        exhausted = worker.failed_steals >= budget or not victims
        if exhausted and self._admit(worker):
            return
        if victims:
            victim = victims[self.rng.index(len(victims))]
            if rt.steal_from_worker(worker, victim):
                worker.failed_steals = 0
                return
            worker.failed_steals += 1
        else:
            # nobody to steal from and nothing to admit: a wasted step
            self.idle(worker)
