"""Quantum-based round-robin equi-partition — the OS-style RR baseline.

The paper's theory comparisons lean on RR/EQUI, but "RR ... [has] the
advantage of very frequent preemptions" (Sec. V-A) and is therefore
impractical: a real system can only approximate it by re-partitioning
processors every scheduling *quantum*, paying a preemption each time a
worker moves.

This scheduler realizes that approximation inside the runtime simulator:
every ``quantum`` steps the master re-partitions workers evenly across
the active jobs (rotating assignments so every job gets served), using
the same muggable-deque mechanics as DREP for preempted work.  Together
with :attr:`~repro.wsim.runtime.WsConfig.preemption_overhead` it turns
the paper's qualitative "RR preempts too much to be practical" into a
measurable crossover (ablation X7): as the per-preemption cost grows,
quantum-RR degrades while DREP — which preempts only on arrivals — holds.
"""

from __future__ import annotations

from repro.wsim.schedulers.base import WsScheduler
from repro.wsim.structures import JobRun, Worker

__all__ = ["RrQuantumWS"]


class RrQuantumWS(WsScheduler):
    """Re-partition workers evenly across jobs every ``quantum`` steps."""

    affinity = True
    clairvoyant = False

    def __init__(self, quantum: int = 50) -> None:
        if quantum < 1:
            raise ValueError("quantum must be >= 1")
        self.quantum = quantum
        self.name = f"RR(q={quantum})"
        self._rotation = 0

    def reset(self, rt) -> None:
        super().reset(rt)
        self._rotation = 0

    def _served(self) -> list[JobRun]:
        """The jobs workers are spread over and redrawn from: all of A(t)."""
        return self.rt.active

    def _repartition(self) -> None:
        """Assign worker i to served job (i + rotation) mod |served|."""
        rt = self.rt
        jobs = self._served()
        if not jobs:
            return
        n = len(jobs)
        for worker in rt.up_workers():
            if worker.blocked_until > rt.step:
                continue  # still paying a previous preemption's overhead
            target = jobs[(worker.wid + self._rotation) % n]
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
        # idle workers join immediately; busy ones wait for the quantum
        for worker in rt.up_workers():
            if worker.job is None or worker.job.done:
                rt.switch_worker(worker, job, preempt=False)

    def on_completion(self, job: JobRun) -> None:
        rt = self.rt
        served = self._served()
        for worker in rt.up_workers():
            if worker.job is job:
                pick = served[self.rng.index(len(served))] if served else None
                rt.switch_worker(worker, pick, preempt=False)

    def out_of_work(self, worker: Worker) -> None:
        rt = self.rt
        job = worker.job
        if job is None or job.done:
            served = self._served()
            if served:
                pick = served[self.rng.index(len(served))]
                rt.switch_worker(worker, pick, preempt=False)
            else:
                self.idle(worker)
            return
        rt.steal_within(worker, job)
