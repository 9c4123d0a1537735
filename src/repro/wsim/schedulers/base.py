"""Scheduler interface for the work-stealing runtime.

Two families share the interface:

* **job-affinity** schedulers (``affinity = True``): workers are assigned
  to jobs and steal only within their job's deque set (DREP, SWF-approx)
  — the deque-per-job design of Sec. IV-A;
* **global-pool** schedulers (``affinity = False``): one permanent deque
  per worker, steals go worker-to-worker and a FIFO queue feeds new jobs
  (steal-first, admit-first) — the designs of [Li et al. PPoPP'16] the
  paper compares against in Sec. V-B.

The runtime calls :meth:`on_arrival` when a job's release step is reached,
:meth:`on_completion` when its last node finishes, and :meth:`out_of_work`
when a worker has neither a current node nor anything in its own deque —
that call consumes the worker's time step (steal attempts cost constant
work).
"""

from __future__ import annotations

import abc
import typing

from repro.wsim.structures import JobRun, Worker, WsDeque

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.wsim.runtime import WsRuntime

__all__ = ["WsScheduler"]


class WsScheduler(abc.ABC):
    """Base class for runtime schedulers."""

    name: str = "ws-scheduler"
    #: True for deque-per-job schedulers (DREP, SWF-approx).
    affinity: bool = True
    #: True if the scheduler needs job sizes up front (SWF-approx).
    clairvoyant: bool = False

    def reset(self, rt: "WsRuntime") -> None:
        """Bind to a runtime at the start of a run."""
        self.rt = rt
        self.rng = rt.rng
        self._victims_live: "list[Worker] | None" = None
        self._victims: "list[list[Worker] | None]" = []

    @abc.abstractmethod
    def on_arrival(self, job: JobRun) -> None:
        """A job just arrived.  Must append it to ``rt.active``."""

    def on_completion(self, job: JobRun) -> None:
        """A job just finished (already removed from ``rt.active``)."""

    def on_abort(self, job: JobRun) -> None:
        """A fault plan just killed ``job`` (repro.faults).

        Called *after* the runtime purged the job's nodes from every deque
        and detached its workers, and after it left ``rt.active``.
        Schedulers holding their own references (e.g. a FIFO admission
        queue) must drop them here; the resubmitted job arrives later as a
        brand-new :class:`JobRun` through :meth:`on_arrival`.
        """

    def on_step(self) -> None:
        """Called once per simulated step, before workers act.

        Default no-op; quantum-based schedulers (RR) use it to trigger
        periodic re-partitioning.
        """

    @abc.abstractmethod
    def out_of_work(self, worker: Worker) -> None:
        """Spend ``worker``'s step finding work (steal / mug / admit)."""

    def steal_target(self, worker: Worker) -> "JobRun | None":
        """The job :meth:`out_of_work` would steal from, or ``None``.

        Event-horizon contract (opt-in, perf only): return job ``J`` iff
        :meth:`out_of_work`, called on ``worker`` in its *current* state,
        would do exactly ``rt.steal_within(worker, J)`` and nothing else —
        no admission, no job redraw, no idling, no other side effect.
        The runtime uses this to fast-forward steal-stuck phases: when
        every victim deque of ``J`` is active-and-empty the attempt
        provably fails, so ``k`` consecutive failed attempts are replayed
        as counter bumps plus one batched victim draw (bit-identical to
        the per-step scalar draws; see ``WsRuntime._horizon_jump``).
        The answer must stay valid while no deque, flag or assignment
        changes.  Returning ``None`` (the default) excludes the worker
        from bulk jumps; it can never affect results, only speed.
        """
        return None

    # ------------------------------------------------------------------
    # shared helpers
    # ------------------------------------------------------------------

    def make_arrival_deque(self, job: JobRun) -> WsDeque:
        """Park a new job's source nodes on a muggable deque (affinity).

        The first worker that joins the job will mug it.  Source nodes
        exist for every valid DAG, so the deque is never empty — keeping
        the Sec. IV-A invariant.
        """
        dq = WsDeque(job=job, owner=None)
        for src in job.dag.sources():
            dq.push_bottom((job, int(src)))
        job.deques.append(dq)
        return dq

    def admit_to_worker(self, worker: Worker, job: JobRun) -> None:
        """Global-pool admission: the worker starts the job's sources.

        The first source becomes the worker's current node (it can begin
        executing next step); remaining sources go on its deque.
        """
        sources = [int(s) for s in job.dag.sources()]
        worker.current = (job, sources[0])
        if len(sources) > 1:
            if worker.dq is None:
                worker.dq = WsDeque(job=None, owner=worker.wid)
            for src in sources[1:]:
                worker.dq.push_bottom((job, src))
        self.rt.counters.admissions += 1

    def victims(self, worker: Worker) -> "list[Worker]":
        """The live workers other than ``worker``, in worker order.

        Cached per worker and rebuilt only when
        :meth:`WsRuntime.up_workers` returns a different list object,
        which the runtime guarantees on every membership change.
        """
        live = self.rt.up_workers()
        if live is not self._victims_live:
            self._victims_live = live
            self._victims = [None] * len(self.rt.workers)
        victims = self._victims[worker.wid]
        if victims is None:
            victims = self._victims[worker.wid] = [
                w for w in live if w is not worker
            ]
        return victims

    def idle(self, worker: Worker) -> None:
        """Record a wasted step (nothing to steal, nothing to admit)."""
        self.rt.counters.idle_steps += 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
