"""Centralized greedy (list) scheduling — the Sec. I overhead straw man.

The paper's introduction recalls that a greedy / list scheduler is
(2 - 2/m)-competitive for makespan but "the property of work conserving
is expensive to maintain precisely": it needs a centralized queue of
ready nodes that every processor hits every step.  Work stealing exists
to avoid exactly that.

This scheduler gives the runtime simulator that idealized greedy: one
global ready queue shared by all workers, with nodes taken FIFO across
all active jobs, and **no steal cost** — a worker with no node takes one
from the global queue in the same step it starts executing.  It is
therefore an *upper bound on how much the decentralization costs*:
comparing DREP/steal-first/admit-first against it isolates the overhead
of steals, muggings and admission policies from the scheduling decisions
themselves.  (It is FIFO-biased for average flow, so it is an overhead
baseline, not a flow-time contender.)
"""

from __future__ import annotations

from collections import deque

from repro.wsim.schedulers.base import WsScheduler
from repro.wsim.structures import JobRun, Worker, WsDeque

__all__ = ["CentralGreedyWS"]


class CentralGreedyWS(WsScheduler):
    """Work-conserving greedy with a global ready-node queue."""

    name = "central-greedy"
    affinity = False
    clairvoyant = False

    def __init__(self) -> None:
        self.ready: deque = deque()  # global FIFO of (job, node) refs

    def reset(self, rt) -> None:
        super().reset(rt)
        self.ready = deque()
        for worker in rt.workers:
            # one permanent deque per worker; overflow nodes spill into it
            worker.dq = WsDeque(job=None, owner=worker.wid)

    def on_arrival(self, job: JobRun) -> None:
        self.rt.active.append(job)
        for src in job.dag.sources():
            self.ready.append((job, int(src)))

    def on_abort(self, job: JobRun) -> None:
        # purge any of the job's nodes still sitting in the global queue
        self.ready = deque(ref for ref in self.ready if ref[0] is not job)

    def out_of_work(self, worker: Worker) -> None:
        """Take the next globally ready node.

        Taking from the global queue is free of charge — deliberately
        idealized: the real cost of the centralized queue is
        synchronization, which a sequential simulator cannot charge
        honestly, so we charge nothing and treat the result as a bound.
        (Queue entries are job sources, ready since their arrival step,
        so same-step execution cannot violate critical-path causality.)

        Draining overflow from another worker's local deque still costs
        the step: the node may have been enabled earlier in this very
        step, and executing it immediately would let two units of one
        path finish in a single time step.
        """
        if self.ready:
            worker.current = self.ready.popleft()
            self.rt._execute_unit(worker)  # work-conserving: no lost step
            return
        donors = [
            w for w in self.rt.up_workers() if w.dq is not None and w.dq.nodes
        ]
        if donors:
            victim = donors[self.rng.index(len(donors))]
            worker.current = victim.dq.steal_top()
            return  # execution starts next step
        self.idle(worker)
