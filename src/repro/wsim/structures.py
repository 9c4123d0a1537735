"""Runtime data structures: per-job runs, deques and workers.

These mirror the modified-Cilk-Plus design of the paper (Sec. IV-A, V-B):

* **deques are associated with jobs, not processors** — each running job
  ``J_i`` owns a set of ``d_i(t)`` deques, ``p_i(t)`` of them *active*
  (assigned to a worker) and the rest *muggable*;
* muggable deques are never empty (an empty deque is deallocated instead
  of being marked muggable);
* a worker holds at most one deque and at most one executing node.

The same structures serve the global-pool schedulers (steal-first,
admit-first), where every deque simply stays owned by its worker for the
whole run and the ``job`` affinity is unused.
"""

from __future__ import annotations

from collections import deque as _deque
from dataclasses import dataclass, field

from repro.core.job import JobSpec
from repro.dag.graph import NO_CHILD, DagJob

__all__ = ["NodeRef", "WsDeque", "JobRun", "Worker"]


#: A node is identified by its job run plus its index in the job's DAG.
NodeRef = tuple["JobRun", int]


class WsDeque:
    """A double-ended queue of ready nodes, stored as ``(job, node)`` refs.

    The owner pushes/pops at the **bottom**; thieves steal from the
    **top**.  ``owner is None`` marks the deque muggable (only meaningful
    under job-affinity schedulers, where ``job`` records which job the
    deque belongs to).  Global-pool schedulers leave ``job`` unset and may
    mix nodes of different jobs on one deque — the refs disambiguate.
    """

    __slots__ = ("nodes", "job", "owner")

    def __init__(self, job: "JobRun | None", owner: int | None) -> None:
        self.nodes: _deque[NodeRef] = _deque()
        self.job = job
        self.owner = owner

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def muggable(self) -> bool:
        return self.owner is None

    def push_bottom(self, ref: NodeRef) -> None:
        self.nodes.append(ref)

    def pop_bottom(self) -> NodeRef:
        return self.nodes.pop()

    def steal_top(self) -> NodeRef:
        return self.nodes.popleft()


class JobRun:
    """Mutable execution state of one DAG job inside the runtime.

    Tracks per-node remaining units (so a preempted, partially executed
    node resumes where it stopped), the not-yet-satisfied parent counts
    that drive readiness, and the job's deque set.
    """

    __slots__ = (
        "spec",
        "dag",
        "node_remaining",
        "pending_parents",
        "remaining_nodes",
        "deques",
        "release_step",
        "finish_step",
        "workers",
        "_child1",
        "_child2",
    )

    def __init__(self, spec: JobSpec, release_step: int) -> None:
        if spec.dag is None:
            raise ValueError(f"job {spec.job_id} has no DAG attached")
        dag: DagJob = spec.dag
        self.spec = spec
        self.dag = dag
        # plain lists, not numpy arrays: the runtime touches single nodes
        # once per step per worker, where python-int indexing is several
        # times cheaper than numpy scalar indexing.  Floats (not ints) so
        # heterogeneous-speed workers can make fractional progress.
        self.node_remaining = dag.weights.astype(float).tolist()
        self.pending_parents = dag.in_degrees().tolist()
        self._child1 = dag.child1.tolist()
        self._child2 = dag.child2.tolist()
        self.remaining_nodes = dag.n_nodes
        self.deques: list[WsDeque] = []
        self.release_step = release_step
        self.finish_step: int | None = None
        self.workers = 0  # p_i(t): workers currently assigned (affinity mode)

    @property
    def job_id(self) -> int:
        return self.spec.job_id

    @property
    def done(self) -> bool:
        return self.remaining_nodes == 0

    def ready_children(self, node: int) -> list[int]:
        """Decrement the executed node's children; return the newly ready."""
        ready = []
        pend = self.pending_parents
        for c in (self._child1[node], self._child2[node]):
            if c == NO_CHILD:
                continue
            pend[c] -= 1
            if pend[c] == 0:
                ready.append(c)
        return ready

    def drop_deque(self, dq: WsDeque) -> None:
        """Deallocate an (empty) deque; no-op if already removed."""
        if dq.nodes:
            raise ValueError("refusing to drop a non-empty deque")
        try:
            self.deques.remove(dq)
        except ValueError:
            pass

    def muggable_count(self) -> int:
        """``d_i^m(t)``: deques awaiting a mugger."""
        return sum(1 for d in self.deques if d.muggable)


@dataclass(slots=True)
class Worker:
    """One simulated processor (a Cilk "worker").

    ``slots=True``: the runtime reads ``current`` / ``blocked_until`` /
    ``flag_target`` on every worker-step, and slot access skips the
    instance-dict lookup.
    """

    wid: int
    job: JobRun | None = None
    dq: WsDeque | None = None
    current: NodeRef | None = None
    #: DREP preemption flag: the job this worker must switch to, set by the
    #: master on an arrival (Sec. V-B) and honored per the configured
    #: check granularity; schedulers assign it directly.
    flag_target: JobRun | None = None
    failed_steals: int = 0
    #: first step at which the worker may act again after paying
    #: preemption overhead (0 = never blocked); an attribute rather than a
    #: ``scratch`` entry because the runtime reads it every worker-step
    blocked_until: int = 0
    #: crashed by a fault plan (repro.faults): excluded from the runtime's
    #: live-worker list until its recover event fires
    down: bool = False
    #: free-form scheduler scratch (e.g. steal-first's admission budget)
    scratch: dict = field(default_factory=dict)

    @property
    def out_of_work(self) -> bool:
        """No executing node and nothing in the worker's own deque."""
        return self.current is None and (self.dq is None or not self.dq.nodes)

    def describe(self) -> str:  # pragma: no cover - debugging aid
        job = self.job.job_id if self.job else None
        cur = self.current[1] if self.current else None
        dq = len(self.dq) if self.dq is not None else None
        return f"W{self.wid}(job={job}, node={cur}, deque={dq})"
