"""Quantum-based LAPS — making the paper's "impossible" policy runnable.

The paper singles LAPS out as uniquely impractical: "LAPS ... is very
difficult to implement since it needs to know the parameter epsilon ...
and preempts at infinitesimal time steps — it must process epsilon
fraction of arriving jobs equally at any time.  Because of this, LAPS is
even difficult to implement in the simulation" (Sec. V-A).

Like :class:`~repro.wsim.schedulers.rr_quantum.RrQuantumWS` does for RR,
this scheduler realizes the *implementable* LAPS: every ``quantum``
steps the master re-partitions all workers evenly across the
``ceil(beta * |A(t)|)`` most recently arrived jobs.  Combined with
``WsConfig.preemption_overhead`` it lets experiments price LAPS's
preemption appetite the same way ablation X7 prices RR's — completing
the set of "theoretically strong but preemption-hungry" baselines the
paper could only discuss.
"""

from __future__ import annotations

import math

from repro.wsim.schedulers.base import WsScheduler
from repro.wsim.structures import JobRun, Worker

__all__ = ["LapsQuantumWS"]


class LapsQuantumWS(WsScheduler):
    """Serve the latest-arriving beta fraction, re-partitioned per quantum."""

    affinity = True
    clairvoyant = False

    def __init__(self, beta: float = 0.5, quantum: int = 50) -> None:
        if not 0 < beta <= 1:
            raise ValueError("beta must be in (0, 1]")
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.beta = beta
        self.quantum = quantum
        self.name = f"LAPS(b={beta:g},q={quantum})"
        self._rotation = 0

    def reset(self, rt) -> None:
        super().reset(rt)
        self._rotation = 0

    def _served_set(self) -> list[JobRun]:
        jobs = self.rt.active
        if not jobs:
            return []
        k = max(1, math.ceil(self.beta * len(jobs)))
        latest = sorted(jobs, key=lambda j: (j.release_step, j.job_id))[-k:]
        return latest

    def _repartition(self) -> None:
        rt = self.rt
        served = self._served_set()
        if not served:
            return
        n = len(served)
        for worker in rt.up_workers():
            if worker.blocked_until > rt.step:
                continue
            target = served[(worker.wid + self._rotation) % n]
            if worker.job is not target:
                rt.switch_worker(worker, target, preempt=True)
        self._rotation += 1

    def on_step(self) -> None:
        if self.rt.step % self.quantum == 0:
            self._repartition()

    def on_arrival(self, job: JobRun) -> None:
        rt = self.rt
        rt.active.append(job)
        self.make_arrival_deque(job)
        for worker in rt.up_workers():
            if worker.job is None or worker.job.done:
                rt.switch_worker(worker, job, preempt=False)

    def on_completion(self, job: JobRun) -> None:
        rt = self.rt
        served = self._served_set()
        for worker in rt.up_workers():
            if worker.job is job:
                if served:
                    pick = served[self.rng.index(len(served))]
                    rt.switch_worker(worker, pick, preempt=False)
                else:
                    rt.switch_worker(worker, None, preempt=False)

    def out_of_work(self, worker: Worker) -> None:
        rt = self.rt
        job = worker.job
        if job is None or job.done:
            served = self._served_set()
            if served:
                pick = served[self.rng.index(len(served))]
                rt.switch_worker(worker, pick, preempt=False)
            else:
                self.idle(worker)
            return
        if not rt.steal_within(worker, job):
            # a served job may have no stealable nodes left for this
            # worker; spinning is LAPS-faithful (it must not help old
            # jobs), so the failed attempt simply costs the step
            pass
