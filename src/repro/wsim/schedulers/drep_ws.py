"""DREP combined with work stealing (paper Sec. IV-A / V-B).

The runtime analogue of the paper's Cilk Plus implementation:

* each worker is assigned to one active job and steals only among that
  job's deques;
* on a **job arrival**, free workers take the new job outright; each busy
  worker is flagged to switch with probability ``1/|A(t)|`` by the master
  (the flag is honored at the granularity configured in
  :class:`~repro.wsim.runtime.WsConfig` — steal attempts by default,
  matching the paper's implementation);
* a switching worker leaves its deque behind **muggable**; workers of the
  job steal as usual, and a thief that picks a muggable victim *mugs* it,
  adopting the whole deque;
* on a **job completion**, each worker of the finished job re-draws a job
  uniformly at random from the remaining active jobs.

Preemptions therefore happen only on arrivals — the property behind
Theorem 1.2's O(mn) switch bound.
"""

from __future__ import annotations

from repro.wsim.schedulers.base import WsScheduler
from repro.wsim.structures import JobRun, Worker

__all__ = ["DrepWS"]


class DrepWS(WsScheduler):
    """Distributed Random Equi-Partition over work stealing."""

    name = "DREP"
    affinity = True
    clairvoyant = False

    def reset(self, rt) -> None:
        super().reset(rt)
        # bound-method cache: out_of_work fires thousands of times per
        # run and the two-hop attribute chain is measurable there
        self._steal = rt.steal_within

    def on_arrival(self, job: JobRun) -> None:
        rt = self.rt
        rt.active.append(job)
        self.make_arrival_deque(job)
        n_active = len(rt.active)  # includes the newcomer
        for worker in rt.up_workers():
            if worker.job is None or worker.job.done:
                # an idle worker takes the new job immediately (it was idle
                # only because the machine had drained)
                rt.switch_worker(worker, job, preempt=False)
                worker.flag_target = None
            elif worker.job is not job:
                if self.rng.random() < 1.0 / n_active:
                    worker.flag_target = job

    def on_completion(self, job: JobRun) -> None:
        rt = self.rt
        for worker in rt.up_workers():
            if worker.job is job:
                active = rt.active
                if active:
                    pick = active[self.rng.index(len(active))]
                    rt.switch_worker(worker, pick, preempt=False)
                else:
                    rt.switch_worker(worker, None, preempt=False)
                worker.flag_target = None

    def steal_target(self, worker: Worker) -> JobRun | None:
        # mirrors out_of_work: a worker on an unfinished job only steals
        job = worker.job
        if job is None or job.remaining_nodes == 0:
            return None
        return job

    def out_of_work(self, worker: Worker) -> None:
        job = worker.job
        if job is not None and job.remaining_nodes:
            self._steal(worker, job)
            return
        rt = self.rt
        active = rt.active
        if active:
            pick = active[self.rng.index(len(active))]
            rt.switch_worker(worker, pick, preempt=False)
        else:
            self.idle(worker)
