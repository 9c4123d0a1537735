"""Approximated Smallest-Work-First over work stealing (paper Sec. V-B).

The clairvoyant comparison point in Figure 3: "every worker when running
out of work, checks every active job in the system and works on the job
with the smallest amount of work".  Crucially it is an *approximation* of
SWF: a worker only re-evaluates when it runs out of work, so — unlike the
theoretical SWF — it "cannot immediately preempt the execution of a large
job to work on the newly available work from a smaller job".

Implementation detail: among the smallest-work jobs we prefer one that
currently has stealable nodes (non-empty or muggable deques) so workers
do not spin on a small job whose only work is a single executing node
while other jobs starve; ties and the no-stealable-work fallback go to
the smallest job overall.

The scheduler keeps its own copy of the active set ordered by the static
key ``(spec.work, job_id)``, so the target is the first job in that order
with stealable work — usually the first job it looks at.  ``rt.active``
keeps arrival order, which other schedulers draw from by position.
"""

from __future__ import annotations

from bisect import bisect_left, insort

from repro.wsim.schedulers.base import WsScheduler
from repro.wsim.structures import JobRun, Worker

__all__ = ["SwfApproxWS"]


def _work_key(job: JobRun) -> tuple[float, int]:
    return (job.spec.work, job.job_id)


class SwfApproxWS(WsScheduler):
    """Workers gravitate to the smallest-work active job when idle."""

    name = "SWF"
    affinity = True
    clairvoyant = True

    def reset(self, rt) -> None:
        super().reset(rt)
        #: ``rt.active`` sorted by :func:`_work_key`: a job joins on
        #: arrival and leaves on completion or abort
        self.by_work: list[JobRun] = []

    def _target(self) -> JobRun | None:
        """Smallest-work active job, preferring ones with stealable work."""
        by_work = self.by_work
        for job in by_work:
            for dq in job.deques:
                if dq.nodes:
                    return job
        return by_work[0] if by_work else None

    def _drop(self, job: JobRun) -> None:
        by_work = self.by_work
        at = bisect_left(by_work, _work_key(job), key=_work_key)
        if at < len(by_work) and by_work[at] is job:
            del by_work[at]

    def on_abort(self, job: JobRun) -> None:
        self._drop(job)

    def on_arrival(self, job: JobRun) -> None:
        rt = self.rt
        rt.active.append(job)
        insort(self.by_work, job, key=_work_key)
        self.make_arrival_deque(job)
        # only idle workers react immediately; busy ones re-evaluate when
        # they next run out of work (that is the approximation)
        for worker in rt.up_workers():
            if worker.job is None or worker.job.done:
                target = self._target()
                if target is not None:
                    rt.switch_worker(worker, target, preempt=False)

    def on_completion(self, job: JobRun) -> None:
        rt = self.rt
        self._drop(job)
        for worker in rt.up_workers():
            if worker.job is job:
                rt.switch_worker(worker, self._target(), preempt=False)

    def steal_target(self, worker: Worker) -> JobRun | None:
        # mirrors out_of_work's final branch.  Stable within a bulk
        # window: _target keys on static spec.work and deque emptiness,
        # and the order changes only at arrivals, completions and aborts.
        target = self._target()
        if target is None or worker.job is not target:
            return None
        return target

    def out_of_work(self, worker: Worker) -> None:
        rt = self.rt
        target = self._target()
        if target is None:
            self.idle(worker)
            return
        if worker.job is not target:
            # moving to the smallest job costs the step (preemption is a
            # switch away from an unfinished job, per Theorem 1.2 counting)
            rt.switch_worker(worker, target, preempt=True)
            return
        rt.steal_within(worker, target)
