"""Admit-first scheduling (paper Sec. V-B, from Li et al. PPoPP'16).

The mirror image of steal-first: "whenever a worker runs out of work, it
always admits a new job from the queue, if there is one"; it steals from
random workers only when the queue is empty.

The paper observes that admit-first and DREP perform similarly for
average flow: admit-first keeps at least one worker per job while jobs
are fewer than cores, and its random stealing spreads the remaining
workers roughly equally — the same equi-partition DREP targets.
"""

from __future__ import annotations

from collections import deque

from repro.wsim.schedulers.base import WsScheduler
from repro.wsim.structures import JobRun, Worker, WsDeque

__all__ = ["AdmitFirstWS"]


class AdmitFirstWS(WsScheduler):
    """Admit from the FIFO queue first; steal only when it is empty."""

    name = "admit-first"
    affinity = False
    clairvoyant = False

    def __init__(self) -> None:
        self.queue: deque[JobRun] = deque()

    def reset(self, rt) -> None:
        super().reset(rt)
        self.queue = deque()
        for worker in rt.workers:
            worker.dq = WsDeque(job=None, owner=worker.wid)

    def on_arrival(self, job: JobRun) -> None:
        self.rt.active.append(job)
        self.queue.append(job)

    def on_abort(self, job: JobRun) -> None:
        # the job may still be waiting for admission
        try:
            self.queue.remove(job)
        except ValueError:
            pass

    def out_of_work(self, worker: Worker) -> None:
        rt = self.rt
        if self.queue:
            job = self.queue.popleft()
            self.admit_to_worker(worker, job)
            return
        victims = self.victims(worker)
        if not victims:
            self.idle(worker)
            return
        victim = victims[self.rng.index(len(victims))]
        rt.steal_from_worker(worker, victim)
