"""Discrete-time work-stealing runtime simulator.

This is the stand-in for the paper's modified Cilk Plus runtime (Sec. V-B;
see DESIGN.md Substitution 1).  Time advances in unit steps; on every step
each of the ``m`` workers performs exactly one action:

* **execute** one unit of its current node (node completion enables 0, 1
  or 2 children, handled Cilk-style: one child continues in place, the
  other is pushed to the deque bottom);
* **pop** the bottom of its own deque and execute (popping is part of the
  work step, as in real work stealing);
* **switch** jobs when its scheduler tells it to (a DREP preemption flag
  firing, or a completed job's re-draw) — switching costs the step,
  modeling preemption overhead;
* otherwise it is **out of work** and the scheduler spends the step on a
  steal attempt / mugging / job admission (every steal attempt costs
  constant work — one step — like the paper assumes).

The engine is scheduler-agnostic: all policy decisions are delegated to a
:class:`~repro.wsim.schedulers.base.WsScheduler`.  Invariants (checked in
debug mode): muggable deques are never empty; a node is on exactly one
deque or one worker; executed units equal total work at the end.

**One job intake.**  Every run pulls its jobs through one cursor that
stays one job ahead of the clock, whether they come as a materialized
:class:`~repro.workloads.Trace` or as a lazy stream of DAG-attached
specs.  Each pull validates the job and grows what depends on the jobs
seen so far: total work, the stall bound ``max_steps`` and the
exactness grid below.  The two inputs differ only in where a completion
lands: a trace's flow times fill a dense per-job array and
:meth:`WsRuntime.run` returns a :class:`~repro.core.metrics.ScheduleResult`;
a stream's fold into a :class:`~repro.core.metrics.StreamingMetrics` in
job-id order and are freed, so memory stays O(active jobs).

**Event-horizon kernel.**  Simulated time is split into *segments* — the
spans between consecutive external events (job arrivals and fault
points).  Inside a segment, :meth:`WsRuntime._horizon_jump` classifies
every live worker into one of three bulk-steppable classes and, when all
workers qualify, replays ``k`` unit steps in one update:

* **executing** — mid-node, unblocked: ``k`` subtractions of ``speed``
  collapse to one ``k * speed`` subtraction.  The jump distance is the
  min of remaining steps over these workers (an inline scalar min that
  stops early once a completion is imminent), capped one step *before*
  the earliest node completion — the completing step itself always runs
  through the normal per-step path, so completions, child enabling,
  scheduler callbacks and their mid-step interleaving are reproduced
  exactly;
* **blocked** — paying preemption overhead: ``k`` overhead steps become
  one counter bump, with the jump capped at the unblock step;
* **steal-stuck** — out of work, where the scheduler's
  :meth:`~repro.wsim.schedulers.base.WsScheduler.steal_target` hook
  names the job it would steal from and every victim deque is
  active-and-empty, so each of the ``k`` attempts provably fails:
  replayed as ``k`` attempt/failure counter bumps plus **one batched
  victim draw** (``integers(np.tile(bounds, k))``), bit-identical to the
  per-step scalar draws (``tests/wsim/test_rng_draws.py`` pins the
  stream equivalence).  Schedulers without the hook exclude their idle
  workers from jumps — a pure perf opt-out, never a semantic one.

Failed jump attempts mutate nothing, so *when* to attempt is a free
choice: the run loop re-arms attempts only after a pass that visibly
changed worker state and otherwise backs off, and the per-step loop
fast-fails provably hopeless steals inline without entering the
scheduler.  ``perf.horizon_jumps`` / ``perf.horizon_steps_saved``
report the savings.

**Exactness contract.**  Bulk jumps are enabled only when every node
weight — and, for heterogeneous workers, every speed — lies on the
dyadic grid of multiples of ``2**-20`` with magnitude below ``2**31``
(integers trivially qualify).  On that grid every per-step value is
exactly representable, so ``k`` subtractions of ``speed`` equal one
subtraction of ``k * speed`` bit-for-bit and the ``work_steps``
accumulation is order-independent; counters and flow times are
bit-for-bit identical to unit-stepping (``tests/wsim/test_golden.py``
and the Hypothesis equivalence tests enforce this, heterogeneous speeds
included).  The grid is checked job by job as the cursor pulls them: a
run takes bulk jumps until its first off-grid job (or the one that takes
total work to ``2**31``) is pulled and steps unit by unit from there.
The jumps made before were exact, so the result is still bit-identical
to unit stepping; the run records the fallback once in
``perf.exactness_fallbacks``.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from repro.core.metrics import ScheduleResult
from repro.core.rng import DrawStream, RngFactory
from repro.dag.graph import NO_CHILD
from repro.perf.counters import PerfCounters
from repro.wsim.structures import JobRun, Worker, WsDeque
from repro.workloads.traces import Trace

__all__ = [
    "WsConfig",
    "WsRuntime",
    "simulate_ws",
    "simulate_ws_stream",
    "WsimError",
]


class WsimError(RuntimeError):
    """Raised when the runtime detects an invariant violation or stall."""


#: Exactness grid for bulk jumps: multiples of 2**-20.  On this grid (with
#: magnitudes below 2**31) every remaining-work value reachable by
#: per-step subtraction is exactly representable as a float, so bulk
#: ``rem -= k * speed`` is bit-identical to ``k`` single-step
#: subtractions, ``ceil(rem / speed)`` never overshoots the true
#: steps-to-completion, and the ``work_steps`` partial sums are exact
#: (hence order-independent between step-major and worker-major
#: accumulation).
_GRID = 1048576.0  # 2**20
_GRID_MAG = 2147483648.0  # 2**31


def _on_grid(values) -> bool:
    """True when every value is a multiple of 2**-20 below 2**31."""
    a = np.asarray(values, dtype=float)
    if a.size == 0:
        return True
    if not np.all(np.abs(a) < _GRID_MAG):
        return False
    scaled = a * _GRID  # exact: power-of-two scaling, no overflow
    return bool(np.all(scaled == np.rint(scaled)))


@dataclass(frozen=True)
class WsConfig:
    """Runtime knobs.

    preempt_check:
        When a flagged worker notices its DREP preemption flag —
        ``"steal"`` (only on steal attempts; the paper's implementation),
        ``"node"`` (at node boundaries; the paper's proposed improvement,
        checking "at function calls"), or ``"step"`` (immediately; the
        theoretical algorithm of Sec. IV-A).
    preemption_overhead:
        Extra steps a worker loses after every preemptive switch,
        modeling the state save/restore cost the paper's practicality
        argument is about ("when a preemption occurs the state of a job
        needs to be stored and then later restored; this leads to a
        large overhead", Sec. I).  Zero by default (the paper's own
        simulation convention); ablation X7 sweeps it.
    max_steps:
        Hard cap on simulated steps (default: a generous bound from the
        last release and the total work, grown as jobs are pulled);
        exceeding it raises :class:`WsimError`.
    debug_invariants:
        Check structural invariants every step (slow; used by tests).
    """

    preempt_check: str = "steal"
    preemption_overhead: int = 0
    max_steps: int | None = None
    debug_invariants: bool = False

    def __post_init__(self) -> None:
        if self.preempt_check not in ("steal", "node", "step"):
            raise ValueError(
                f"preempt_check must be steal|node|step, got {self.preempt_check!r}"
            )
        if self.preemption_overhead < 0:
            raise ValueError("preemption_overhead must be >= 0")
        if self.max_steps is not None and self.max_steps < 1:
            raise ValueError("max_steps must be >= 1 (None: the default)")


@dataclass(slots=True)
class WsCounters:
    """Practicality counters the paper's arguments are about.

    ``slots=True``: the hot loop bumps these at step rate; slot stores
    skip the instance-dict write.
    """

    work_steps: int = 0
    steal_attempts: int = 0
    failed_steals: int = 0
    muggings: int = 0
    preemptions: int = 0
    switches: int = 0
    admissions: int = 0
    idle_steps: int = 0
    #: steps lost to preemption state save/restore (config overhead)
    overhead_steps: int = 0
    #: node-level migrations: ready nodes that started executing on a
    #: different worker than the one that made them ready (successful
    #: steals and muggings) — the paper's costly "migration" events
    node_migrations: int = 0
    # -- fault-injection probes (repro.faults) --------------------------
    #: worker crashes applied
    crashes: int = 0
    #: job aborts applied
    aborts: int = 0
    #: work units executed and then thrown away — a crashed worker's
    #: partial node plus everything an aborted job had completed; the
    #: re-execution cost faults impose on the schedule
    lost_work: float = 0.0
    #: worker-steps spent crashed (capacity removed from the machine)
    dead_steps: int = 0
    # -- elastic capacity probes (repro.autoscale) ----------------------
    #: workers drained (gracefully parked) by scale-down decisions
    drains: int = 0
    #: partial-node work a drain *preserved* — what a kill would have
    #: thrown away; the graceful-handover payoff
    preserved_work: float = 0.0
    #: worker-steps spent deliberately parked by the controller
    #: (capacity the schedule chose not to buy, unlike ``dead_steps``)
    parked_steps: int = 0
    extra: dict = field(default_factory=dict)


class WsRuntime:
    """One simulation run: a job source, ``m`` workers and a scheduler.

    ``trace`` is a materialized :class:`~repro.workloads.Trace` or any
    iterable of DAG-attached :class:`~repro.core.JobSpec` in trace order
    (dense ids, non-decreasing releases); either is pulled one job ahead
    of the clock.  A trace's flow times are kept densely and :meth:`run`
    returns them; any other source is *streamed* into ``metrics`` (a
    :class:`~repro.core.metrics.StreamingMetrics`, required) in
    O(active jobs) memory — use :func:`simulate_ws_stream` for that.
    """

    def __init__(
        self,
        trace: "Trace | object",
        m: int,
        scheduler: "WsScheduler",
        seed: int = 0,
        config: WsConfig = WsConfig(),
        speeds: "np.ndarray | None" = None,
        faults=None,
        autoscale=None,
        metrics=None,
    ) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        dense = isinstance(trace, Trace)
        if dense:
            for spec in trace.jobs:
                if spec.dag is None:
                    raise ValueError(
                        "wsim needs DAG-attached traces; see workloads.attach_dags"
                    )
        elif metrics is None:
            raise ValueError(
                "streaming runs need a StreamingMetrics accumulator; "
                "use simulate_ws_stream()"
            )
        self.trace = trace if dense else None
        self._metrics = metrics
        self.m = m
        self.scheduler = scheduler
        self.config = config
        # heterogeneous workers (the open problem's full setting: parallel
        # jobs on processors of different speeds): worker p executes
        # speeds[p] work units per step; steal attempts still cost one
        # step for everyone.  None means identical unit-speed workers.
        if speeds is not None:
            speeds = np.ascontiguousarray(speeds, dtype=float)
            if speeds.shape != (m,):
                raise ValueError("speeds must have shape (m,)")
            if (speeds <= 0).any():
                raise ValueError("speeds must be positive")
        self.speeds = speeds
        # python-float mirror: the hot loop and the bulk path must
        # subtract the *same* float values for bit-for-bit equivalence,
        # and plain floats beat numpy scalar indexing at step rate
        self._speed_list = (
            None if speeds is None else [float(x) for x in speeds]
        )
        #: every draw of the run — schedulers', steal_within's and the
        #: run loop's — goes through this one stream (synced whenever
        #: run() returns or raises)
        self.rng = DrawStream(
            RngFactory(seed).stream(f"wsim/{scheduler.name}")
        )
        # bound-method caches: steal_within draws once per attempt and
        # out_of_work dispatches once per stuck worker-step; both
        # attribute chains are measurable at those call rates
        self._rng_index = self.rng.index
        self._out_of_work = scheduler.out_of_work
        self.workers = [Worker(wid=i) for i in range(m)]
        #: all arrived, unfinished jobs — the paper's A(t).  Schedulers
        #: append on arrival; the runtime removes on completion.
        self.active: list[JobRun] = []
        self.counters = WsCounters()
        self.step = 0
        self._completed = 0
        # speed aggregates (the per-job min-flow bounds need them)
        self._total_speed = float(m if speeds is None else speeds.sum())
        self._max_speed = float(1.0 if speeds is None else speeds.max())
        # -- job intake: one cursor, one job ahead of the clock ------------
        self._job_iter = iter(trace)
        #: release step and spec of the next not-yet-admitted job
        #: (inf / None once the source is exhausted)
        self._peek_step: float = math.inf
        self._peek_spec = None
        self._horizon_seen = 0
        self.total_work_units = 0
        #: specs of admitted, unfinished jobs: fault resumes rebuild jobs
        #: from them, and one left at the end is an unfinished job
        self._specs_by_id: dict[int, "JobSpec"] = {}
        #: where completions land: dense per-job flow times for a trace
        #: (``wsim.probes`` reads them); for a stream, a fold into
        #: ``metrics`` strictly in job-id order — jobs finish out of
        #: order, so late ids park on a heap until the gap closes
        self._flow_steps = np.full(len(trace), np.nan) if dense else None
        self._done_heap: list[tuple[int, float, float]] = []
        self._emit_next = 0
        # -- event-horizon kernel state ------------------------------------
        self._flags_immediate = config.preempt_check == "step"
        #: bulk attempts are suppressed below this step (a completion is
        #: imminent, or a worker was in a transient non-batchable state);
        #: purely a perf hint, reset by nothing — steps are monotonic
        self._h_cooldown = 0
        #: consecutive failed verifies (drives the re-attempt backoff)
        self._h_fail = 0
        #: bound ``scheduler.steal_target`` when overridden, else None;
        #: resolved per run so scheduler swaps stay safe
        self._steal_target = None
        # exactness contract (module docstring): bulk jumps need every
        # node weight — and speed, if heterogeneous — on the dyadic grid,
        # plus bounded total work so work_steps partial sums stay exact.
        # Speeds are checked here, each job's weights as it is pulled; a
        # violation only disables *future* jumps, which is sound because
        # all bulk math performed while the contract held was exact,
        # hence order-independent.
        self._grid_exact = speeds is None or _on_grid(speeds)
        # stall bound: recomputed on every pull as the last release step
        # plus factor * work seen plus const
        self._ms_factor = 50
        self._ms_const = 10_000
        # -- fault injection (repro.faults): crash/abort plans only -------
        # ``faults`` is a FaultPlan; compiled lazily so this module keeps
        # no import-time dependency on repro.faults
        self.faults = faults
        self._fault_heap: list[tuple[int, int, dict]] = []
        self._fault_seq = 0
        self._fault_next: float = math.inf
        self._fault_log: list[dict] = []
        #: global-mode nodes stranded with no live worker to adopt them
        self._orphans: list = []
        self._live_workers = self.workers
        # ``autoscale`` is a closed-loop controller hook: called as
        # ``hook(self)`` whenever an ``{"kind": "autoscale"}`` tick action
        # pops from the fault heap; it drains/revives workers through
        # :meth:`push_fault_action`.  Attaching a hook activates the fault
        # machinery even without a plan.
        self._tick_hook = autoscale
        if faults is not None:
            from repro.faults.timeline import step_agenda

            faults.validate_for(m)
            self._fault_heap = step_agenda(faults)
            heapq.heapify(self._fault_heap)
            self._fault_seq = len(self._fault_heap)
            if self._fault_heap:
                self._fault_next = self._fault_heap[0][0]
            # distinct list: crash/recover rebuilds must not touch .workers
            self._live_workers = list(self.workers)
            # downtime and re-executed work stretch the schedule
            self._ms_factor = 100
            self._ms_const = 20_000 + int(math.ceil(faults.horizon))
        elif autoscale is not None:
            self._live_workers = list(self.workers)
            # parked capacity stretches the schedule like downtime does
            self._ms_factor = 100
            self._ms_const = 20_000
        self.max_steps = (
            self._ms_const if config.max_steps is None else config.max_steps
        )
        self.perf = PerfCounters()
        self._pull_next()  # prime the one-job lookahead

    # ------------------------------------------------------------------
    # job intake
    # ------------------------------------------------------------------

    def _pull_next(self) -> None:
        """Advance the one-job lookahead cursor from the job source.

        Validates the pulled spec (DAG attached, non-decreasing release)
        and folds it into what grows with the jobs seen: total work, the
        grid-exactness contract, and the ``max_steps`` stall bound.
        """
        try:
            spec = next(self._job_iter)
        except StopIteration:
            self._peek_spec = None
            self._peek_step = math.inf
            return
        if spec.dag is None:
            raise ValueError(
                "wsim needs DAG-attached job streams; see "
                "workloads.attach_dags_stream"
            )
        release_step = int(math.ceil(spec.release))
        if release_step < self._horizon_seen:
            raise ValueError(
                f"job {spec.job_id}: release step {release_step} precedes "
                f"an earlier arrival at {self._horizon_seen} "
                "(streams must be sorted by release)"
            )
        self._horizon_seen = release_step
        self.total_work_units += int(spec.dag.work)
        if self._grid_exact and (
            self.total_work_units >= 2**31 or not _on_grid(spec.dag.weights)
        ):
            self._grid_exact = False  # run loop books the fallback
        if self.config.max_steps is None:
            self.max_steps = (
                self._horizon_seen
                + self._ms_factor * self.total_work_units
                + self._ms_const
            )
        self._peek_spec = spec
        self._peek_step = release_step

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def run(self, observer=None) -> "ScheduleResult | None":
        """Execute to completion.

        ``observer``, if given, is called as ``observer(self)`` once per
        simulated step *after* arrivals are admitted and *before* workers
        act — the instant the potential-function analysis reasons about.
        Used by :mod:`repro.analysis.timeline` and the theory tests.

        Returns the dense :class:`ScheduleResult` for a trace; ``None``
        for a stream, where everything already lives in the metrics
        accumulator (the :func:`simulate_ws_stream` wrapper assembles the
        :class:`~repro.core.metrics.StreamResult` from it and
        ``self._run_extra``).

        However the run ends, :attr:`rng` is synced on the way out, so
        its bit generator holds the state per-call draws would leave.
        """
        try:
            return self._run(observer)
        finally:
            self.rng.sync()

    def _run(self, observer) -> "ScheduleResult | None":
        self.scheduler.reset(self)
        # bulk jumps are only sound when the per-step machinery is pure
        # node execution — no observer watching intermediate states, a
        # default (no-op) on_step hook, no per-step invariant sweep — and
        # while every weight and speed pulled so far sits on the dyadic
        # exactness grid (module docstring) so bulk float math reproduces
        # per-step math bit for bit
        default_on_step = (
            type(self.scheduler).on_step is WsScheduler.on_step
        )
        horizon_ok = (
            observer is None
            and default_on_step
            and not self.config.debug_invariants
        )
        grid_ok = True
        steal_target = type(self.scheduler).steal_target
        steal_hook = self._steal_target = (
            self.scheduler.steal_target
            if steal_target is not WsScheduler.steal_target
            else None
        )
        self._out_of_work = self.scheduler.out_of_work
        rng_index = self._rng_index
        workers = self._live_workers
        debug = self.config.debug_invariants
        scheduler_on_step = self.scheduler.on_step
        act = self._act
        finish_node = self._finish_node
        horizon_jump = self._horizon_jump
        counters = self.counters
        flags_immediate = self._flags_immediate
        have_faults = self.faults is not None or self._tick_hook is not None
        speeds = self._speed_list
        max_steps = self.max_steps
        while True:
            step = self.step
            if (
                not self.active
                and self._peek_spec is None
                and not self._specs_by_id
            ):
                # every job pulled has completed (and none awaits a fault
                # resume): leftover fault-heap events (recovers past the
                # last completion) are dropped unapplied
                break
            if step > max_steps:
                raise WsimError(
                    f"{self.scheduler.name}: exceeded {max_steps} steps "
                    f"with {self._completed} jobs done"
                )
            if have_faults and self._fault_next <= step:
                # before arrivals: a worker crashing at t is already gone
                # when a job arriving at t is placed
                self._apply_due_faults()
                workers = self._live_workers
            if self._peek_step <= step:
                # the stall bound and the exactness contract both grow
                # with the jobs pulled
                self._admit_arrivals()
                max_steps = self.max_steps
            if grid_ok and not self._grid_exact:
                grid_ok = horizon_ok = False
                self.perf.exactness_fallbacks += 1
            if not self.active:
                # machine idle: jump to the next arrival or fault point
                # (a pending recover/resume can be the only future event)
                nxt = self._peek_step
                if have_faults and self._fault_next < nxt:
                    nxt = self._fault_next
                if nxt == math.inf:
                    break
                self.step = max(step, int(nxt))
                continue
            # -- segment: everything up to the next external event.  No
            # arrival can be admitted and no fault can apply before
            # ``horizon``, so the per-step loop drops those checks and
            # bulk jumps are capped so the event lands on its exact step.
            horizon = max_steps + 1
            if self._peek_step < horizon:
                horizon = int(self._peek_step)
            if have_faults and self._fault_next < horizon:
                horizon = int(self._fault_next)
            # bulk attempt cadence: the verify inside _horizon_jump is
            # side-effect-free, so *when* to attempt is a free heuristic
            # — results cannot depend on it.  Two gates keep the cost of
            # failed verifies amortized away: a failed attempt posts a
            # resume step in ``self._h_cooldown`` (precise when a
            # completion is imminent, streak-stretched in churn phases),
            # and re-attempts additionally wait for a pass that visibly
            # changed worker state (``h_dirty``) — a quiet pass of
            # failing steals leaves the machine exactly as the failed
            # verify saw it, so retrying could not succeed anyway.
            h_cool = 0
            h_dirty = True
            while step < horizon:
                if horizon_ok and h_dirty and h_cool <= step:
                    k = horizon_jump(horizon)
                    if k:
                        step += k
                        self.step = step
                        continue
                    h_cool = self._h_cooldown
                    h_dirty = False
                if observer is not None:
                    observer(self)
                if not default_on_step:
                    scheduler_on_step()
                nstep = step + 1
                work_acc = 0.0
                for worker in workers:
                    # fast paths: a mid-node worker just executes one
                    # unit — the flag cannot fire in "steal"/"node" mode
                    # (both need the worker between nodes or out of
                    # work; a stale flag's lazy cleanup is deferred,
                    # which nothing can observe) — and a provably
                    # failing thief books its counters and victim draw
                    # inline (the exact ops steal_within's failure path
                    # performs, minus three frame pushes; steal_within
                    # stays the authoritative implementation).
                    # Everything else dispatches through _act, the
                    # single slow-path source of truth.
                    cur = worker.current
                    if cur is None:
                        if (
                            steal_hook is not None
                            and worker.blocked_until <= step
                            and worker.flag_target is None
                            and (
                                (dq := worker.dq) is None or not dq.nodes
                            )
                        ):
                            sjob = steal_hook(worker)
                            if sjob is not None:
                                nv = 0
                                for d in sjob.deques:
                                    if d is dq:
                                        continue
                                    if d.owner is None or d.nodes:
                                        nv = -1  # could succeed: _act
                                        break
                                    nv += 1
                                if nv >= 0:
                                    counters.steal_attempts += 1
                                    counters.failed_steals += 1
                                    if nv >= 2:
                                        rng_index(nv)
                                    continue
                        act(worker)
                        if worker.current is not None or (
                            worker.blocked_until > nstep
                        ):
                            # a successful steal/mug/pop or a fresh
                            # preemption stall: the machine state moved
                            h_dirty = True
                        continue
                    if worker.blocked_until > step or (
                        flags_immediate and worker.flag_target is not None
                    ):
                        act(worker)
                        if worker.current is not None or (
                            worker.blocked_until > nstep
                        ):
                            h_dirty = True
                        continue
                    job, node = cur
                    speed = 1.0 if speeds is None else speeds[worker.wid]
                    remaining = job.node_remaining
                    before = remaining[node]
                    after = before - speed
                    remaining[node] = after
                    # accumulated locally, flushed once per pass: exact
                    # (hence order-independent) on the dyadic grid; a
                    # local float add beats an attribute store at step
                    # rate
                    work_acc += speed if speed < before else before
                    if after > 1e-9:
                        continue
                    finish_node(worker, job, node)
                    h_dirty = True
                if work_acc:
                    counters.work_steps += work_acc
                if debug:
                    self._check_invariants()
                step = nstep
                self.step = nstep
                if not self.active:
                    break
        if self._specs_by_id or self._done_heap:
            # an admitted job never completed (a scheduler that drops it
            # from ``active`` idles the machine out of the loop)
            raise WsimError(f"{self.scheduler.name}: unfinished jobs at end")
        fault_extra = {}
        if self.faults is not None or self._tick_hook is not None:
            for worker in self.workers:
                if worker.down:  # run ended inside a crash/park window
                    downtime = self.step - worker.scratch["down_since"]
                    if worker.scratch.get("drained"):
                        counters.parked_steps += downtime
                    else:
                        counters.dead_steps += downtime
                    worker.scratch["down_since"] = self.step
        if self.faults is not None:
            fault_extra["faults"] = {
                "plan": self.faults.name,
                "crashes": counters.crashes,
                "aborts": counters.aborts,
                "lost_work": counters.lost_work,
                "dead_steps": counters.dead_steps,
                "log": [dict(e) for e in self._fault_log],
            }
        if self._tick_hook is not None:
            fault_extra["elastic"] = {
                "drains": counters.drains,
                "preserved_work": counters.preserved_work,
                "parked_steps": counters.parked_steps,
                "log": [dict(e) for e in self._fault_log],
            }
        self._run_extra = {
            "switches": self.counters.switches,
            "work_steps": self.counters.work_steps,
            "failed_steals": self.counters.failed_steals,
            "idle_steps": self.counters.idle_steps,
            "overhead_steps": self.counters.overhead_steps,
            "admissions": self.counters.admissions,
            "utilization": (
                self.counters.work_steps / (self.step * self._total_speed)
                if self.step
                else 0.0
            ),
            "perf": self._perf_snapshot(),
            **fault_extra,
        }
        if self._flow_steps is None:
            return None
        return ScheduleResult(
            scheduler=self.scheduler.name,
            m=self.m,
            flow_times=self._flow_steps.copy(),
            preemptions=self.counters.preemptions,
            migrations=self.counters.node_migrations,
            steal_attempts=self.counters.steal_attempts,
            muggings=self.counters.muggings,
            makespan=float(self.step),
            min_flows=np.array(
                [self._min_flow(spec.dag) for spec in self.trace.jobs]
            ),
            extra=self._run_extra,
        )

    def _min_flow(self, dag) -> float:
        """A job's flow-time lower bound, in steps: its work on all
        workers, its span on the fastest one, and at least one step."""
        return max(
            dag.work / self._total_speed,
            float(dag.span) / self._max_speed,
            1.0,
        )

    def _perf_snapshot(self) -> dict:
        self.perf.events = self.step
        return self.perf.as_dict()

    # ------------------------------------------------------------------
    # faults (repro.faults)
    # ------------------------------------------------------------------

    def up_workers(self) -> "list[Worker]":
        """Workers currently alive — what schedulers must iterate.

        Identical to :attr:`workers` (the same list object) when no fault
        plan is attached, so the no-fault path pays nothing.  Contract:
        the runtime never mutates this list in place; every membership
        change (crash, drain, revive, fault sweep) rebinds it to a new
        list, so a scheduler may cache anything derived from it for as
        long as the same object comes back
        (:meth:`~repro.wsim.schedulers.base.WsScheduler.victims` does).
        """
        return self._live_workers

    def push_fault_action(self, step: int, action: dict) -> None:
        """Schedule a dynamic fault-heap action (controller hooks use this).

        Actions at the current step apply within the ongoing
        :meth:`_apply_due_faults` sweep; future ones bound the kernel's
        segment horizon like any compiled fault point.
        """
        heapq.heappush(
            self._fault_heap, (int(step), self._fault_seq, dict(action))
        )
        self._fault_seq += 1
        if self._fault_heap[0][0] < self._fault_next:
            self._fault_next = self._fault_heap[0][0]

    def _apply_due_faults(self) -> None:
        heap = self._fault_heap
        step = self.step
        while heap and heap[0][0] <= step:
            _, _, action = heapq.heappop(heap)
            kind = action["kind"]
            entry = {"kind": kind, "step": step, "applied": True}
            if kind == "crash" or kind == "drain":
                # a drain is the scale-down: like a crash, but the partial
                # node keeps its progress — capacity leaves, work does
                # not re-execute
                proc = int(action["proc"])
                entry["proc"] = proc
                worker = self.workers[proc]
                depth = worker.scratch.get("crash_depth", 0)
                worker.scratch["crash_depth"] = depth + 1
                if depth == 0:
                    self._take_down(worker, drained=kind == "drain")
                else:
                    entry["applied"] = False  # already down (nested window)
            elif kind == "recover":
                proc = int(action["proc"])
                entry["proc"] = proc
                worker = self.workers[proc]
                depth = worker.scratch.get("crash_depth", 1) - 1
                worker.scratch["crash_depth"] = depth
                if depth == 0:
                    self._revive_worker(worker)
                else:
                    entry["applied"] = False
            elif kind == "autoscale":
                # controller tick: the hook observes the runtime and may
                # push drain/recover actions at this very step (the while
                # loop picks them up) plus its own next tick
                if self._tick_hook is not None:
                    self._tick_hook(self)
                else:
                    entry["applied"] = False
            elif kind == "abort":
                entry["job_id"] = int(action["job_id"])
                entry["applied"] = self._abort_job(
                    int(action["job_id"]), int(action["resubmit_after"])
                )
            elif kind == "resume":
                job_id = int(action["job_id"])
                entry["job_id"] = job_id
                spec = self._specs_by_id[job_id]
                # fresh JobRun with the *original* release step: all work
                # re-executes, but flow time still counts from first release
                job = JobRun(spec, int(math.ceil(spec.release)))
                self.scheduler.on_arrival(job)
            self._fault_log.append(entry)
        self._fault_next = heap[0][0] if heap else math.inf
        self._live_workers = [w for w in self.workers if not w.down]

    def _take_down(self, worker: Worker, drained: bool) -> None:
        """Take ``worker`` down: a crash, or a graceful park if ``drained``.

        Its in-progress node goes back on its deque, and the deque moves
        on: in affinity mode a non-empty deque is orphaned *muggable* —
        the job's other workers adopt it through normal stealing, the
        Sec. IV-A handover; in global-pool mode its nodes move to the
        first live worker (or a runtime orphan list when none exists,
        drained on the next revival).  A crash resets the node to full
        weight, so its partial execution re-executes (``lost_work``); a
        drain keeps that progress for whichever worker picks the node up
        (``preserved_work``: exactly what a crash would have destroyed).
        """
        counters = self.counters
        if drained:
            counters.drains += 1
            worker.scratch["drained"] = True
        else:
            counters.crashes += 1
        worker.down = True
        worker.scratch["down_since"] = self.step
        self._live_workers = [w for w in self.workers if not w.down]
        cur = worker.current
        if cur is not None:
            job, node = cur
            weight = float(job.dag.weights[node])
            executed = weight - job.node_remaining[node]
            if executed > 0:
                if drained:
                    counters.preserved_work += executed
                else:
                    counters.lost_work += executed
                    job.node_remaining[node] = weight
            self._deque_for(worker, job).push_bottom(cur)
            worker.current = None
        dq = worker.dq
        if dq is not None:
            if dq.nodes:
                if self.scheduler.affinity:
                    dq.owner = None  # muggable: stays with the job
                else:
                    target = self._live_workers[0] if self._live_workers else None
                    if target is not None:
                        if target.dq is None:
                            target.dq = WsDeque(job=None, owner=target.wid)
                        target.dq.nodes.extend(dq.nodes)
                    else:
                        self._orphans.extend(dq.nodes)
                    dq.nodes.clear()
            if not dq.nodes and dq.job is not None:
                dq.job.drop_deque(dq)
            worker.dq = None
        if worker.job is not None:
            worker.job.workers -= 1
            worker.job = None
        worker.flag_target = None
        worker.blocked_until = 0

    def _revive_worker(self, worker: Worker) -> None:
        """Bring a crashed/parked worker back; the scheduler re-engages it."""
        downtime = self.step - worker.scratch["down_since"]
        if worker.scratch.pop("drained", False):
            self.counters.parked_steps += downtime
        else:
            self.counters.dead_steps += downtime
        worker.down = False
        self._live_workers = [w for w in self.workers if not w.down]
        if not self.scheduler.affinity:
            worker.dq = WsDeque(job=None, owner=worker.wid)
            if self._orphans:
                worker.dq.nodes.extend(self._orphans)
                self._orphans.clear()
        # affinity mode: the worker is out of work next step and the
        # scheduler's out_of_work re-draw puts it on a job

    def _abort_job(self, job_id: int, resubmit_after: int) -> bool:
        """Kill an active job everywhere; schedule its resubmission."""
        # one position scan (position matters: see complete_job) instead
        # of the old find-then-remove double scan
        idx = next(
            (i for i, j in enumerate(self.active) if j.job_id == job_id),
            None,
        )
        if idx is None:
            return False  # pending, finished, or already aborted
        job = self.active[idx]
        counters = self.counters
        counters.aborts += 1
        executed = float(job.dag.work) - sum(
            r for r in job.node_remaining if r > 0
        )
        if executed > 0:
            counters.lost_work += executed
        for worker in self.workers:
            if worker.current is not None and worker.current[0] is job:
                worker.current = None
            if worker.flag_target is job:
                worker.flag_target = None
            dq = worker.dq
            if dq is not None and dq.nodes:
                kept = [ref for ref in dq.nodes if ref[0] is not job]
                if len(kept) != len(dq.nodes):
                    dq.nodes.clear()
                    dq.nodes.extend(kept)
            if worker.job is job:
                worker.job = None
        if self._orphans:
            self._orphans = [ref for ref in self._orphans if ref[0] is not job]
        for dq in job.deques:
            dq.nodes.clear()
        job.deques.clear()
        job.workers = 0
        del self.active[idx]
        self.scheduler.on_abort(job)
        heapq.heappush(
            self._fault_heap,
            (
                self.step + resubmit_after,
                self._fault_seq,
                {"kind": "resume", "job_id": job_id},
            ),
        )
        self._fault_seq += 1
        return True

    # ------------------------------------------------------------------
    # arrivals / completions
    # ------------------------------------------------------------------

    def _admit_arrivals(self) -> None:
        while self._peek_step <= self.step:
            spec = self._peek_spec
            release_step = self._peek_step
            self._pull_next()
            self._specs_by_id[spec.job_id] = spec
            self.scheduler.on_arrival(JobRun(spec, release_step))

    def complete_job(self, job: JobRun) -> None:
        """Called by :meth:`_finish_node` when a job's last node finishes."""
        job.finish_step = self.step
        # completion at the end of this step; arrival at the start of its
        # release step, so flow >= 1 for any job with work
        flow = self.step + 1 - job.release_step
        self._specs_by_id.pop(job.job_id, None)
        if self._flow_steps is not None:
            self._flow_steps[job.job_id] = flow
        else:
            # fold-and-forget, strictly in job-id order: park late ids on
            # a small heap until the id gap closes — keeps the metrics
            # stream (and the keep_flow_times reconstruction) aligned
            # with the dense, id-indexed arrays
            heap = self._done_heap
            heapq.heappush(
                heap, (job.job_id, float(flow), self._min_flow(job.dag))
            )
            metrics = self._metrics
            while heap and heap[0][0] == self._emit_next:
                _, f, mf = heapq.heappop(heap)
                metrics.add(f, min_flow=mf)
                self._emit_next += 1
        self._completed += 1
        # ``active`` order is semantic: schedulers draw uniformly from it
        # by position, so an O(1) swap-pop would permute later RNG picks
        # and break bit-for-bit goldens.  A single remove() scan (vs the
        # old ``in`` + ``remove`` double scan) is the best
        # order-preserving option; try/except covers schedulers that
        # never listed the job.
        try:
            self.active.remove(job)
        except ValueError:
            pass
        self.scheduler.on_completion(job)

    # ------------------------------------------------------------------
    # event-horizon kernel
    # ------------------------------------------------------------------

    def _horizon_jump(self, horizon: int) -> int:
        """Attempt one event-horizon bulk jump; return steps advanced.

        Classifies every live worker into one of three batchable states
        and advances all of them ``k`` steps in one update:

        * **executing** — mid-node, unblocked and, where flags fire at
          once (``preempt_check="step"``), unflagged: ``k`` subtractions
          collapse into one (grid-exact);
        * **blocked** — paying preemption overhead: ``k`` overhead steps
          are booked at once;
        * **steal-stuck** — out of work, unflagged, and the scheduler's
          :meth:`~repro.wsim.schedulers.base.WsScheduler.steal_target`
          job offers only active-and-empty victim deques, so every steal
          attempt provably fails: counters advance by ``k`` and the
          victim draws are consumed as one array draw, which numpy
          guarantees is bit-identical to the per-step scalar sequence
          (pinned by tests/wsim/test_rng_draws.py).

        ``k`` is capped one step before the earliest node completion, at
        the earliest unblock, and at ``horizon``, so every boundary step
        runs through the per-step path with its exact interleaving.  Any
        other worker state fails the verify — which is side-effect-free,
        so the re-attempt cadence (``_h_cooldown``: precise when a
        completion is imminent, exponential backoff on non-batchable
        states) is a pure perf heuristic that cannot affect results.
        Exactness relies on the dyadic-grid contract checked at
        construction.
        """
        step = self.step
        workers = self._live_workers
        nw = len(workers)
        if nw == 0:
            self._h_cooldown = step + 1
            return 0
        flags_immediate = self._flags_immediate
        kmax = horizon - step
        speeds = self._speed_list
        steal_target = self._steal_target
        n_exec = 0
        n_stuck = 0
        n_blocked = 0
        rmin = math.inf
        bounds: "list[int] | None" = None
        for w in workers:
            if w.blocked_until > step:
                # pure no-op until it unblocks; cap the window there
                b = w.blocked_until - step
                if b < kmax:
                    kmax = b
                n_blocked += 1
                continue
            cur = w.current
            if cur is not None:
                if flags_immediate and w.flag_target is not None:
                    # the flag fires at this worker's next act, mid-node
                    self._h_cooldown = step + 1
                    return 0
                # steps to this node's completion, as a float (one
                # division, one ceil on the min below); the early exit
                # fires as soon as a completion within 2 steps dooms the
                # attempt
                r = cur[0].node_remaining[cur[1]]
                if speeds is not None:
                    r /= speeds[w.wid]
                if r <= 2.0:
                    # ceil(r) - 1 < 2: post the precise resume step.
                    # Long failure streaks (churn phases, where some
                    # node always completes within 2 steps) stretch the
                    # cooldown linearly so the attempt cost amortizes
                    # away; a missed window is perf-only.
                    cooldown = step + math.ceil(r)
                    f = self._h_fail = self._h_fail + 1
                    if f > 16:
                        cooldown += f - 16 if f < 48 else 32
                    self._h_cooldown = (
                        cooldown if cooldown < horizon else horizon
                    )
                    return 0
                if r < rmin:
                    rmin = r
                n_exec += 1
                continue
            # between nodes: batchable only as a deterministically
            # failing thief — an own-deque pop, a firing flag, an
            # admission or a job redraw all mutate state
            if steal_target is None:
                # no hook: this scheduler's steal phases are never
                # batchable, so back off exponentially
                self._h_fail_backoff(step)
                return 0
            dq = w.dq
            if (dq is not None and dq.nodes) or w.flag_target is not None:
                # transient: next act pops/switches — retry right after
                self._h_cooldown = step + 1
                return 0
            job = steal_target(w)
            if job is None:
                self._h_cooldown = step + 1
                return 0
            nv = 0
            for d in job.deques:
                if d is dq:
                    continue
                if d.owner is None or d.nodes:
                    # muggable or non-empty: the steal could succeed
                    self._h_cooldown = step + 1
                    return 0
                nv += 1
            n_stuck += 1
            if nv >= 2:
                # nv == 0 fails drawless; nv == 1 skips the draw
                # (integers(1) consumes no state) — only nv >= 2 draws
                if bounds is None:
                    bounds = [nv]
                else:
                    bounds.append(nv)
        if n_exec:
            # steps-to-completion is min_i ceil(rem_i / spd_i); ceil is
            # monotone, so the min runs first and ceil once on the
            # scalar.  On the grid, fp division never overshoots the
            # true steps-to-completion (it can undershoot, which only
            # makes the jump conservative).  Last safe step is one
            # before the earliest completion.
            ke = math.ceil(rmin) - 1
            if ke < kmax:
                kmax = ke
        k = kmax
        if k < 2:
            # the earliest boundary runs during pass step + k, so no
            # attempt before step + k + 1 can succeed — skip the
            # (buffer-priced) re-checks until then, stretching with the
            # failure streak as above.  Clamped to the horizon: the next
            # segment starts with fresh state (an arrival can preempt
            # the completing worker), so the suppression must not leak
            # into it.
            cooldown = step + k + 1
            f = self._h_fail = self._h_fail + 1
            if f > 16:
                cooldown += f - 16 if f < 48 else 32
            self._h_cooldown = cooldown if cooldown < horizon else horizon
            return 0
        if bounds is not None and k > 4096:
            # bound the batched-draw buffer; the remainder of a longer
            # stall is simply picked up by the next attempt
            k = 4096
        fk = float(k)
        counters = self.counters
        if n_exec:
            if speeds is None:
                for w in workers:
                    cur = w.current
                    if cur is not None and w.blocked_until <= step:
                        cur[0].node_remaining[cur[1]] -= fk
                counters.work_steps += fk * n_exec
            else:
                for w in workers:
                    cur = w.current
                    if cur is not None and w.blocked_until <= step:
                        s = speeds[w.wid]
                        cur[0].node_remaining[cur[1]] -= fk * s
                        counters.work_steps += fk * s
        if n_stuck:
            counters.steal_attempts += k * n_stuck
            counters.failed_steals += k * n_stuck
            if bounds is not None:
                # one array draw == the interleaved scalar draws, values
                # discarded exactly as the failing per-step path would
                self.rng.integers(np.tile(np.asarray(bounds), k))
        if n_blocked:
            counters.overhead_steps += k * n_blocked
        self._h_fail = 0
        self.perf.horizon_jumps += 1
        self.perf.horizon_steps_saved += k - 1
        return k

    def _h_fail_backoff(self, step: int) -> None:
        """Post the next bulk attempt after a non-batchable verify.

        Consecutive failures back off exponentially (2, 4, ... 64 steps)
        so persistently non-batchable phases — e.g. schedulers without a
        ``steal_target`` — degrade to a rare cheap scan.  Attempts are
        side-effect-free, so this trades only missed jumps, never
        results.
        """
        f = self._h_fail + 1
        self._h_fail = f
        self._h_cooldown = step + (1 << f if f < 7 else 64)

    # ------------------------------------------------------------------
    # per-worker step
    # ------------------------------------------------------------------

    def _flag_fires(self, worker: Worker) -> bool:
        if worker.flag_target is None:
            return False
        if worker.flag_target.done:
            worker.flag_target = None  # stale: target already finished
            return False
        mode = self.config.preempt_check
        if mode == "step":
            return True
        if mode == "node":
            return worker.current is None
        return worker.out_of_work  # "steal"

    def _act(self, worker: Worker) -> None:
        if worker.blocked_until > self.step:
            self.counters.overhead_steps += 1
            return  # paying preemption overhead
        if worker.flag_target is not None and self._flag_fires(worker):
            target = worker.flag_target
            worker.flag_target = None
            self.switch_worker(worker, target, preempt=True)
            return
        if worker.current is None:
            dq = worker.dq
            if dq is not None and dq.nodes:
                # popping one's own deque is free; fall through to execute
                worker.current = dq.pop_bottom()
            else:
                # hottest dispatch in steal-heavy phases; the binding is
                # looked up once per run (scheduler swaps rebind it)
                self._out_of_work(worker)
                return
        if worker.current is not None:
            self._execute_unit(worker)
        else:
            self.counters.idle_steps += 1

    def _execute_unit(self, worker: Worker) -> None:
        job, node = worker.current
        speeds = self._speed_list
        speed = 1.0 if speeds is None else speeds[worker.wid]
        remaining = job.node_remaining
        before = remaining[node]
        after = before - speed
        remaining[node] = after
        # account actual units done; a fast worker overshooting a node's
        # end wastes the excess (realistic granularity cost)
        self.counters.work_steps += speed if speed < before else before
        if after > 1e-9:
            return
        self._finish_node(worker, job, node)

    def _finish_node(self, worker: Worker, job: JobRun, node: int) -> None:
        """Node-completion boundary path (the single source of truth).

        Enable children Cilk-style — one ready child continues in place,
        a second goes to the deque bottom (``JobRun.ready_children``
        inlined; child2 implies child1) — and complete the job when this
        was its last node.
        """
        job.remaining_nodes -= 1
        c1 = job._child1[node]
        if c1 == NO_CHILD:
            worker.current = None
        else:
            pend = job.pending_parents
            pend[c1] -= 1
            r1 = pend[c1] == 0
            c2 = job._child2[node]
            if c2 == NO_CHILD:
                worker.current = (job, c1) if r1 else None
            else:
                pend[c2] -= 1
                if pend[c2] == 0:
                    if r1:
                        self._deque_for(worker, job).push_bottom((job, c1))
                        worker.current = (job, c2)
                    else:
                        worker.current = (job, c2)
                else:
                    worker.current = (job, c1) if r1 else None
        if job.remaining_nodes == 0:
            self.complete_job(job)

    def _deque_for(self, worker: Worker, job: JobRun) -> WsDeque:
        """The worker's deque, created lazily on first push."""
        if worker.dq is None:
            dq = WsDeque(job=job if self.scheduler.affinity else None, owner=worker.wid)
            worker.dq = dq
            if self.scheduler.affinity:
                job.deques.append(dq)
        return worker.dq

    # ------------------------------------------------------------------
    # scheduler services
    # ------------------------------------------------------------------

    def switch_worker(
        self, worker: Worker, target: JobRun | None, preempt: bool
    ) -> None:
        """Detach ``worker`` from its job and attach it to ``target``.

        Affinity-mode semantics from Sec. IV-A: a partially executed node
        goes back on the worker's deque; a non-empty deque is marked
        muggable and stays with the old job; an empty one is deallocated.
        Costs the caller's step.  ``preempt=True`` counts toward the
        Theorem 1.2 preemption budget when the old job is unfinished.
        """
        old = worker.job
        if old is not None and old is target:
            return
        if worker.current is not None:
            job, _node = worker.current
            self._deque_for(worker, job).push_bottom(worker.current)
            worker.current = None
        if worker.dq is not None:
            if worker.dq.nodes:
                worker.dq.owner = None  # becomes muggable
            else:
                if worker.dq.job is not None:
                    worker.dq.job.drop_deque(worker.dq)
            worker.dq = None
        if old is not None:
            old.workers -= 1
            if preempt and not old.done:
                self.counters.preemptions += 1
                if self.config.preemption_overhead:
                    # state save/restore stalls this worker (Sec. I)
                    worker.blocked_until = (
                        self.step + 1 + self.config.preemption_overhead
                    )
        if old is not target:
            self.counters.switches += 1
        worker.job = target
        if target is not None:
            target.workers += 1

    def steal_within(self, worker: Worker, job: JobRun) -> bool:
        """One steal attempt among ``job``'s deques (affinity mode).

        Picks a victim uniformly at random among the job's other deques.
        A muggable victim is mugged: the thief adopts the whole deque and
        takes its bottom node (a mugging "can always do at least one unit
        of work").  An active victim loses its top node.  Returns True on
        success; always costs the step.
        """
        counters = self.counters
        counters.steal_attempts += 1
        dq = worker.dq
        # worker.dq is usually None for a thief; skip the filtering copy
        victims = job.deques if dq is None else [d for d in job.deques if d is not dq]
        nv = len(victims)
        if not nv:
            counters.failed_steals += 1
            return False
        # a single victim needs no draw: Generator.integers(1) returns 0
        # without consuming bit-generator state (pinned by
        # tests/wsim/test_rng_draws.py), so skipping the call keeps the
        # draw sequence — and rng_digest goldens — bit-identical
        victim = (
            victims[0] if nv == 1 else victims[self._rng_index(nv)]
        )
        nodes = victim.nodes
        if victim.owner is None:  # muggable
            # mugging: adopt the deque wholesale (always succeeds, and the
            # thief "can always do at least one unit of work" — Sec. IV-A)
            if dq is not None:
                if dq.nodes:
                    raise WsimError("thief with non-empty deque attempted a mug")
                if dq.job is not None:
                    dq.job.drop_deque(dq)
            victim.owner = worker.wid
            worker.dq = victim
            worker.current = nodes.pop()
            counters.muggings += 1
            counters.node_migrations += 1
            return True
        if nodes:
            worker.current = nodes.popleft()
            counters.node_migrations += 1
            return True
        counters.failed_steals += 1
        return False

    def steal_from_worker(self, thief: Worker, victim: Worker) -> bool:
        """Classic work stealing between worker deques (global mode)."""
        self.counters.steal_attempts += 1
        dq = victim.dq
        if dq is None or not dq.nodes:
            self.counters.failed_steals += 1
            return False
        thief.current = dq.steal_top()
        self.counters.node_migrations += 1
        return True

    # ------------------------------------------------------------------
    # invariants (debug)
    # ------------------------------------------------------------------

    def _check_invariants(self) -> None:
        for job in self.active:
            for dq in job.deques:
                if dq.muggable and not dq.nodes:
                    raise WsimError("empty muggable deque")
        seen: set[tuple[int, int]] = set()
        for worker in self.workers:
            if worker.current is not None:
                key = (worker.current[0].job_id, worker.current[1])
                if key in seen:
                    raise WsimError(f"node {key} executed by two workers")
                seen.add(key)
        all_deques = [dq for job in self.active for dq in job.deques]
        all_deques += [w.dq for w in self.workers if w.dq is not None]
        checked: set[int] = set()
        for dq in all_deques:
            if id(dq) in checked:
                continue
            checked.add(id(dq))
            for ref_job, node in dq.nodes:
                key = (ref_job.job_id, node)
                if key in seen:
                    raise WsimError(f"node {key} duplicated")
                seen.add(key)


def simulate_ws(
    trace: Trace,
    m: int,
    scheduler: "WsScheduler",
    seed: int = 0,
    config: WsConfig = WsConfig(),
    speeds: "np.ndarray | None" = None,
    faults=None,
) -> ScheduleResult:
    """Convenience wrapper: build a runtime and run it.

    ``speeds`` (length m, positive) makes workers heterogeneous — the
    related-machines setting for parallel DAG jobs.

    ``faults`` injects a :class:`repro.faults.FaultPlan` — worker crashes
    (deques reassigned, partial nodes re-executed) and job aborts with
    resubmission.  Only crash/abort kinds are supported here; fractional
    slowdowns belong to ``speeds`` or the flow-level simulator.  The
    result's ``extra["faults"]`` reports the applied log, the work lost
    and re-executed, and the worker-steps spent down.
    """
    rt = WsRuntime(
        trace, m, scheduler, seed=seed, config=config, speeds=speeds,
        faults=faults,
    )
    rt.perf.start()
    result = rt.run()
    rt.perf.stop()
    result.extra["perf"] = rt._perf_snapshot()
    return result


def simulate_ws_stream(
    jobs,
    m: int,
    scheduler: "WsScheduler",
    seed: int = 0,
    config: WsConfig = WsConfig(),
    speeds: "np.ndarray | None" = None,
    faults=None,
    *,
    keep_flow_times: bool = False,
    metrics=None,
):
    """Run the work-stealing runtime over a lazy job stream in O(active) RAM.

    ``jobs`` is any iterable of DAG-attached :class:`~repro.core.JobSpec`
    in trace order (a materialized trace's ``.jobs`` works too).  The
    trajectory — every counter, RNG draw and flow time — is bit-for-bit
    identical to :func:`simulate_ws` on the materialized trace; only the
    bookkeeping differs: completed jobs fold into a
    :class:`~repro.core.metrics.StreamingMetrics` (in job-id order) and
    their state is freed, so memory tracks the *active* job count, not
    the trace length.  ``keep_flow_times=True`` opts back into dense
    retention, letting ``result.to_schedule_result()`` reproduce the
    materialized :class:`~repro.core.metrics.ScheduleResult` exactly.
    """
    from repro.core.metrics import StreamingMetrics, StreamResult
    from repro.core.rng import derive_seed

    if metrics is None:
        metrics = StreamingMetrics(
            keep_flow_times=keep_flow_times,
            seed=derive_seed(seed, "stream/metrics"),
        )
    rt = WsRuntime(
        jobs, m, scheduler, seed=seed, config=config, speeds=speeds,
        faults=faults, metrics=metrics,
    )
    rt.perf.start()
    rt.run()
    rt.perf.stop()
    rt.perf.capture_memory()
    extra = dict(rt._run_extra)
    extra["perf"] = rt._perf_snapshot()
    extra["streaming"] = True
    return StreamResult(
        scheduler=scheduler.name,
        m=m,
        metrics=metrics,
        preemptions=rt.counters.preemptions,
        migrations=rt.counters.node_migrations,
        steal_attempts=rt.counters.steal_attempts,
        muggings=rt.counters.muggings,
        makespan=float(rt.step),
        extra=extra,
    )


# imported late to avoid a cycle (schedulers import runtime helpers' types)
from repro.wsim.schedulers.base import WsScheduler  # noqa: E402
