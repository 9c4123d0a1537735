"""Event-driven flow-level simulator.

Simulates jobs on an ``m``-processor machine under a
:class:`~repro.flowsim.policies.base.Policy`.  Between events the policy's
rate vector is constant, so job progress is linear and the engine jumps
straight to the earliest of (a) the next arrival, (b) the earliest
predicted completion, (c) a policy timer.  This is exact for every policy
in the paper's simulation study (their rate vectors only change at events)
and for SETF via its timers.

Two entry points share one core:

* :func:`simulate` — the batch harness: registers a whole
  :class:`~repro.workloads.traces.Trace` up front and drains it.
* :class:`FlowStepper` — the incremental core itself, usable directly:
  ``add_job`` registers jobs *while the clock runs* and ``advance_to``
  processes events up to a horizon, which is what the online serving
  layer (:mod:`repro.serve`) builds on.

This mirrors the paper's simulation methodology (Sec. V-A): no scheduling
or preemption overheads are charged, so results "can be thought of as the
lower bounds of what these scheduling algorithms can achieve".

Invariant checks (rates within per-job caps, total rate within machine
capacity) are *amortized*: full-strength on the first rate computation
and every :attr:`FlowSimConfig.check_every_k`-th thereafter, so simulation
bugs still fail loudly without paying four array passes per event.  Tests
that exercise the checks set ``check_every_k=1``.

The hot loop is a flat structure-of-arrays: the active set lives in
persistent, id-sorted parallel buffers (ids / remaining / caps / tol /
work / release) that the event loop reads and updates in place — no
per-event gathers against the master job table.  Policies that implement
the vectorized :meth:`~repro.flowsim.policies.base.Policy.rates_array`
hook are fed those buffers directly; the engine materializes an
:class:`~repro.flowsim.policies.base.ActiveView` only for policy hooks,
timers, and the object-path fallback.  Policies declaring
:attr:`~repro.flowsim.policies.base.Policy.rates_stable` have their rate
vector reused until the composition of the active set changes.
``ScheduleResult.extra["perf"]`` reports what the caches did
(:class:`repro.perf.PerfCounters`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.job import JobSpec, ParallelismMode
from repro.core.metrics import ScheduleResult
from repro.core.rng import RngFactory
from repro.dag.profile import ParallelismProfile
from repro.flowsim.order import CompletionCalendar, OrderIndex, sparse_sum
from repro.flowsim.policies.base import ActiveView, Policy
from repro.flowsim.rates import equal_split
from repro.perf.counters import PerfCounters
from repro.workloads.traces import Trace

__all__ = [
    "FlowSimConfig",
    "FlowStepper",
    "simulate",
    "FlowSimError",
    "default_max_events",
]

_RATE_TOL = 1e-7
#: relative clock tolerance used when admitting arrivals that are "due now"
_ADMIT_TOL = 1e-15


class FlowSimError(RuntimeError):
    """Raised when a policy violates an engine invariant or the run stalls."""


def _make_view(
    t: float,
    m: int,
    job_ids: np.ndarray,
    remaining: np.ndarray,
    work: np.ndarray,
    release: np.ndarray,
    caps: np.ndarray,
    speed: float,
) -> ActiveView:
    """Build an :class:`ActiveView` without the frozen-dataclass
    ``__init__`` (one ``object.__setattr__`` per field, ~3× the cost of a
    plain dict fill); field values are exactly what the constructor would
    store, so views from either path are indistinguishable."""
    view = ActiveView.__new__(ActiveView)
    view.__dict__.update(
        t=t,
        m=m,
        job_ids=job_ids,
        remaining=remaining,
        work=work,
        release=release,
        caps=caps,
        speed=speed,
    )
    return view


def default_max_events(n: int) -> int:
    """Event-budget used when :attr:`FlowSimConfig.max_events` is ``None``.

    ``60 * n + 1000`` for an ``n``-job run: generous against the ~3 events
    a job normally costs (arrival, completion, a few timer/re-rate events)
    yet finite, so Zeno behaviour from a buggy policy timer raises
    :class:`FlowSimError` instead of hanging the run.
    """
    return 60 * n + 1000


@dataclass(frozen=True)
class FlowSimConfig:
    """Engine knobs.

    ``completion_tol`` is the relative remaining-work threshold below which
    a job counts as finished (guards float drift); ``max_events`` bounds the
    event loop (default :func:`default_max_events`, i.e. ``60 * n + 1000``)
    to catch Zeno behaviour from a buggy policy timer.

    ``speed`` implements **resource augmentation** (Sec. II): every
    processor runs ``speed`` times faster than the adversary's unit-speed
    machine.  Theorem 1.1 gives DREP O(1/ε³)-competitiveness at speed
    4+ε; benches use this to compare DREP-at-speed-s against OPT proxies
    at speed 1.  Rate caps and the total-capacity check are unchanged
    (they are in *processors*); only work drains faster.

    ``use_profiles`` turns on **changing-parallelism** simulation for jobs
    carrying a DAG: the per-job rate cap follows the DAG's parallelism
    profile (:class:`repro.dag.ParallelismProfile`) as the job's attained
    work crosses profile breakpoints, instead of the paper's
    equally-parallel assumption.  Breakpoints generate exact event times,
    so the simulation stays event-exact.

    ``record_segments`` stores the piecewise-constant schedule itself:
    the result's ``extra["segments"]`` becomes a list of
    ``(t_start, t_end, {job_id: rate})`` tuples — every constant-rate
    interval with its non-zero allocations.  Costs memory (one entry per
    event); meant for schedule-shape verification and visualization, not
    large sweeps.

    ``check_every_k`` amortizes the rate-invariant checks: the cap /
    total-capacity / negativity passes run on the first rate computation
    and every ``k``-th thereafter (the shape check is always on).  The
    default of 32 keeps buggy policies failing within a few dozen events
    while removing four full array passes from the steady-state hot loop;
    tests that exercise the checks directly set ``check_every_k=1``.

    ``use_rates_array`` selects the vectorized policy path: policies that
    implement :meth:`~repro.flowsim.policies.base.Policy.rates_array` are
    called with the engine's flat active-set buffers instead of a
    materialized :class:`~repro.flowsim.policies.base.ActiveView`.  Both
    paths are bit-for-bit identical by contract (the golden tests and a
    Hypothesis property pin this); ``False`` forces the object path, which
    is mainly useful for equivalence testing.

    ``use_batch_horizon`` enables the completion-horizon batch kernel:
    when the policy opts in via
    :attr:`~repro.flowsim.policies.base.Policy.batch_horizon` (and no
    fault plan, timer, profile or segment recording intervenes),
    :meth:`FlowStepper.drain` and :meth:`FlowStepper.advance_to` fold the
    whole run of events between true decision points into one kernel pass
    instead of one :meth:`FlowStepper.step` call per event.  The kernel
    is bit-for-bit identical to the per-event path (goldens plus the
    batched≡unit Hypothesis suite pin this); ``False`` forces per-event
    stepping, which is mainly useful for equivalence testing.

    ``use_incremental`` enables the O(log n) active-set kernels for
    policies that declare an
    :class:`~repro.flowsim.policies.base.OrderSpec`: the engine maintains
    their priority order incrementally across admissions / completions /
    fault evictions (:class:`repro.flowsim.order.OrderIndex`), allocates
    rates by walking only the O(m) order head (or the O(beta n) LAPS
    share set), and picks the next completion from a lazy-invalidation
    calendar (:class:`repro.flowsim.order.CompletionCalendar`) instead
    of the dense finish-time sweep — per-event work then scales with the
    *change*, not with ``n_active``.  Bit-for-bit identical to the dense
    path by construction (goldens plus the incremental≡dense Hypothesis
    suite pin it); ``False`` forces the dense ``np.lexsort`` path, which
    is mainly useful for equivalence testing and A/B benches.

    ``incremental_min_active`` is the promotion threshold for those
    kernels: the run starts on the dense paths and switches to the
    incremental structures the first time the active set reaches this
    many jobs (one O(n log n) build from the live buffers; promotion is
    one-way).  Below a thousand-odd active jobs one C-speed
    ``np.lexsort`` per event beats Python-level order maintenance, so
    promoting immediately would *slow down* low-concurrency runs — the
    default sits just under the measured crossover (~1.5k for SRPT and
    FIFO alike).  ``0`` promotes at construction (the pure-incremental
    mode the scaling benches and the equivalence suite measure).  The
    switch is unobservable in results: both paths are bit-for-bit
    equal, so a promoted run composes two identical trajectory
    prefixes.
    """

    completion_tol: float = 1e-9
    max_events: int | None = None
    speed: float = 1.0
    use_profiles: bool = False
    record_segments: bool = False
    check_every_k: int = 32
    use_rates_array: bool = True
    use_batch_horizon: bool = True
    use_incremental: bool = True
    incremental_min_active: int = 1024

    def __post_init__(self) -> None:
        if not self.speed > 0:
            raise ValueError("speed must be > 0")
        if self.check_every_k < 1:
            raise ValueError("check_every_k must be >= 1")
        if self.incremental_min_active < 0:
            raise ValueError("incremental_min_active must be >= 0")


class _IncrementalCore:
    """Engine-side state for the O(log n) active-set kernels.

    One instance per run of a policy with an
    :class:`~repro.flowsim.policies.base.OrderSpec`.  Holds the live
    priority order (:class:`~repro.flowsim.order.OrderIndex`, kept in
    sync by the admission / completion / fault-eviction hooks), the
    completion calendar, the cached sparse allocation, and the *dust
    set* — jobs admitted or resumed already within completion tolerance.

    The dust set is what makes completion detection O(served): every
    active non-dust job has ``rem > tol`` at segment start (its ``rem``
    only moves while served, and crossing the tolerance while served is
    caught in that segment), so the dense ``rem <= tol`` sweep can be
    replaced by checking the served set plus the dust set.

    ``alloc`` caches ``(positions, rates, rsum)`` — positions into the
    id-sorted active buffers, ascending; every cached rate is strictly
    positive, so the positions *are* the served set.  It is invalidated
    (set to ``None``) at exactly the points the dense path drops
    ``_rates_cache``: any composition change.  Positions therefore stay
    valid for the cache's whole lifetime.
    """

    __slots__ = ("kind", "neg", "share", "beta", "order", "cal",
                 "cal_jobs", "alloc", "dust")

    def __init__(self, spec, policy: Policy) -> None:
        self.kind = spec.key
        self.neg = spec.descending
        self.share = spec.alloc == "share_topk"
        self.beta = float(getattr(policy, "beta", 1.0))
        self.order = OrderIndex()
        self.cal = CompletionCalendar()
        self.cal_jobs: set[int] = set()  # jobs with a live calendar entry
        self.alloc: tuple[np.ndarray, np.ndarray, float] | None = None
        self.dust: list[int] = []

    def key_tie(self, j: int, rem: float, work: float,
                rel: float) -> tuple[float, int]:
        """The ``(key, tie)`` pair job ``j`` sorts under (Python floats —
        ``(key, tie)`` ascending replicates the policy's lexsort)."""
        if self.kind == "remaining":
            k = rem
        elif self.kind == "work":
            k = work
        else:
            k = rel
        if self.neg:
            return -k, -j
        return k, j


class FlowStepper:
    """Incremental, event-exact core of the flow-level simulator.

    Drives one policy on an ``m``-processor machine one event at a time
    and accepts new jobs *while the clock runs* — the foundation of both
    the batch :func:`simulate` wrapper (register a whole trace, then
    :meth:`drain`) and the online serving layer (:mod:`repro.serve`),
    which submits jobs as they arrive over the wire.

    The stepping semantics are identical to the historical batch loop;
    :meth:`advance_to` additionally lets a caller bound a step by a
    *horizon* so the clock can be parked at an arbitrary time ``t`` before
    mutating the job set.  A horizon stop splits a constant-rate segment
    in two, which changes nothing observable: job progress is linear in
    time, ``Policy.rates`` is a pure function of the view, and randomness
    only happens inside arrival/completion hooks.  When horizons coincide
    with event times (e.g. submitting each job at exactly its release),
    the trajectory — including every RNG draw — is *bit-for-bit* the same
    as the batch run.

    Jobs must be registered with dense ids ``0, 1, 2, ...`` in
    non-decreasing release order, and never released in the stepper's
    past; :class:`repro.serve.online.OnlineScheduler` handles the
    bookkeeping for callers that just want to submit work.
    """

    def __init__(
        self,
        m: int,
        policy: Policy,
        seed: int = 0,
        config: FlowSimConfig = FlowSimConfig(),
        faults=None,
    ) -> None:
        if m < 1:
            raise ValueError("m must be >= 1")
        self.m = int(m)
        self.policy = policy
        self.seed = int(seed)
        self.config = config
        # ``faults`` is a repro.faults FaultPlan (compiled here) or an
        # already-compiled FaultTimeline; duck-typed so this module never
        # imports repro.faults (the dependency points the other way)
        if faults is not None and not hasattr(faults, "pop_due"):
            faults = faults.timeline(self.m)
        if faults is not None and faults.m != self.m:
            raise ValueError(
                f"fault timeline compiled for m={faults.m}, engine has m={self.m}"
            )
        self.faults = faults
        self._fault_log: list[dict] = []
        self._lost_work = 0.0
        self._displaced_work = 0.0
        self._requeue_log: list[dict] = []
        self._suspended: set[int] = set()
        rng = RngFactory(seed).stream(f"flowsim/{policy.name}")
        policy.reset(self.m, rng)

        self._specs: list[JobSpec] = []
        self._profiles: list[ParallelismProfile | None] = []
        # master columns hold rows for job ids [_base, _n): row = id - _base.
        # _base is 0 for batch/online runs (every index below degenerates to
        # the absolute id); harvest() advances it, freeing completed-prefix
        # rows so a streamed run is O(active + pending) in memory
        self._base = 0
        cap = 16
        self._release = np.zeros(cap, dtype=float)
        self._work = np.zeros(cap, dtype=float)
        self._caps_all = np.zeros(cap, dtype=float)
        self._weights = np.ones(cap, dtype=float)
        self._rem = np.zeros(cap, dtype=float)
        self._tol = np.zeros(cap, dtype=float)
        self._flow = np.full(cap, np.nan, dtype=float)
        self._n = 0

        self._act_ids: list[int] = []
        self._t = 0.0
        self._next_arrival = 0
        self._completed = 0
        self._busy_time = 0.0
        self._events = 0
        self._segments: list[tuple[float, float, dict[int, float]]] = []
        #: append-only ``(job_id, finish_time)`` log for observers
        self._completions: list[tuple[int, float]] = []
        self._weights_dirty = False
        self._init_runtime_caches()

    def _init_runtime_caches(self) -> None:
        """Hot-loop state derived from the policy/config, never snapshotted.

        The active set is a flat structure-of-arrays: persistent parallel
        buffers ``_a_ids`` / ``_a_rem`` / ``_a_caps`` / ``_a_tol`` /
        ``_a_work`` / ``_a_rel`` whose first ``_na`` entries are valid,
        kept sorted ascending by job id by construction — admissions
        append dense increasing ids, completions compact left, and fault
        resumes insert at the searchsorted position.  The event loop reads
        and updates these slices in place; the master ``_rem`` column is
        refreshed only at completions/aborts and on :meth:`state_dict`.
        ``self._act_ids`` (a plain id list set by ``__init__`` /
        :meth:`from_state_dict`) seeds the buffers here and is then
        retired — the buffers are the only runtime truth.
        """
        cap = self._release.size
        self._a_ids = np.zeros(cap, dtype=np.int64)
        # the five float columns are rows of one (5, cap) block, so a
        # completion compacts all of them with a single 2-D memmove
        # instead of five 1-D ones; the named attributes are row *views*
        self._a_blk = np.zeros((5, cap), dtype=float)
        (
            self._a_rem,
            self._a_caps,
            self._a_tol,
            self._a_work,
            self._a_rel,
        ) = self._a_blk
        # scratch for per-segment finish times (no job state — outside
        # the block, never compacted, contents dead between events)
        self._a_fin = np.zeros(cap, dtype=float)
        # scratch backing the batch kernel's aligned rate vector: shifts
        # and appends mutate it in place instead of reallocating per
        # event (no job state; dead outside one kernel pass)
        self._vec_buf = np.zeros(cap, dtype=float)
        ids = sorted(int(j) for j in self._act_ids)
        base = self._base
        self._na = len(ids)
        for k, j in enumerate(ids):
            self._a_ids[k] = j
            self._a_rem[k] = self._rem[j - base]
            self._a_caps[k] = self._caps_all[j - base]
            self._a_tol[k] = self._tol[j - base]
            self._a_work[k] = self._work[j - base]
            self._a_rel[k] = self._release[j - base]
        self._act_ids = None  # superseded by the SoA buffers

        self._rates_cache: tuple[np.ndarray, float] | None = None
        self._rate_calls = 0
        self._max_events = 0  # 0 = recompute from config/_n on next step
        cfg = self.config
        self._check_k = cfg.check_every_k
        self._speed = float(cfg.speed)
        self._use_profiles = cfg.use_profiles
        self._record_segments = cfg.record_segments
        self._update_next_rel()
        ptype = type(self.policy)
        self._has_arrival_hook = ptype.on_arrival is not Policy.on_arrival
        self._has_completion_hook = (
            ptype.on_completion is not Policy.on_completion
        )
        self._has_timer = ptype.next_timer is not Policy.next_timer
        self._has_fault_hook = ptype.on_fault is not Policy.on_fault
        self._rates_array_fn = (
            self.policy.rates_array
            if cfg.use_rates_array
            and ptype.rates_array is not Policy.rates_array
            else None
        )
        # sparse complement used only by the batch kernel (the per-event
        # path always rebuilds, so the two surfaces stay cross-checkable)
        self._rates_patch_fn = (
            self.policy.rates_array_patch
            if self._rates_array_fn is not None
            and ptype.rates_array_patch is not Policy.rates_array_patch
            else None
        )
        # profile-driven caps move with attained work, which changes
        # between events without any composition change — no reuse then
        self._rates_stable = (
            bool(self.policy.rates_stable) and not self.config.use_profiles
        )
        # completion-horizon batch kernel eligibility: everything that
        # could interleave a non-arrival/non-completion event (timers,
        # fault points, profile breakpoints) or observe segment structure
        # (record_segments) forces the per-event path; the policy opt-in
        # carries the behavioral contract (see Policy.batch_horizon)
        self._batch_ok = (
            cfg.use_batch_horizon
            and self._rates_stable
            and self._rates_array_fn is not None
            and getattr(self.policy, "batch_horizon", False)
            and not self._has_timer
            and not self._use_profiles
            and not self._record_segments
            and self.faults is None
        )
        # incremental order/calendar kernels: policies declaring an
        # OrderSpec get their priority order maintained across events
        # instead of re-lexsorted per rate rebuild.  Profiles move caps
        # between events (the order alone no longer determines rates),
        # timers need views anyway, segment recording wants the dense
        # vector, and weighted policies fold a table the spec can't see
        # — all of those fall back to the dense path, as does
        # use_rates_array=False (the object-path equivalence mode).
        spec = getattr(self.policy, "order_spec", None)
        self._inc: _IncrementalCore | None = None
        self._inc_spec = None
        if (
            cfg.use_incremental
            and spec is not None
            and self._rates_array_fn is not None
            and not self._has_timer
            and not self._use_profiles
            and not self._record_segments
            and not hasattr(self.policy, "set_weights")
        ):
            self._inc_spec = spec
        self._inc_min = int(cfg.incremental_min_active)
        # the incremental batch kernel folds event runs like
        # _batched_steps; faults interleave non-completion events, so
        # they force per-event stepping (still incremental per event
        # once promoted)
        self._inc_kernel_allowed = (
            cfg.use_batch_horizon and self.faults is None
        )
        self._inc_kernel_ok = False
        if self._inc_spec is not None and self._na >= self._inc_min:
            self._inc_promote()
        self.perf = PerfCounters()

    # -- introspection -----------------------------------------------------

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._t

    @property
    def n_jobs(self) -> int:
        """Number of jobs registered so far."""
        return self._n

    @property
    def n_completed(self) -> int:
        return self._completed

    @property
    def n_active(self) -> int:
        """Jobs admitted and not yet finished."""
        return self._na

    @property
    def n_pending(self) -> int:
        """Jobs registered but not yet admitted (release in the future)."""
        return self._n - self._next_arrival

    @property
    def drained(self) -> bool:
        """True when every registered job has completed."""
        return self._completed == self._n

    @property
    def events(self) -> int:
        return self._events

    @property
    def lost_work(self) -> float:
        """Work destroyed by fault aborts (redone from scratch)."""
        return self._lost_work

    @property
    def displaced_work(self) -> float:
        """Work redone because scale-downs displaced running jobs."""
        return self._displaced_work

    @property
    def requeue_log(self) -> list[dict]:
        """Append-only displacement records (job_id/t/resume_at/redone_work)."""
        return self._requeue_log

    def refresh_event_budget(self) -> None:
        """Recompute the Zeno event budget on the next step.

        Callers that push dynamic fault actions (the autoscale loop's
        capacity changes and displacements) grow ``faults.n_points`` after
        the budget was first cached; this makes the next :meth:`step`
        re-derive it from the new count.
        """
        self._max_events = 0

    @property
    def completion_log(self) -> list[tuple[int, float]]:
        """Append-only ``(job_id, finish_time)`` pairs in completion order."""
        return self._completions

    @property
    def specs(self) -> list[JobSpec]:
        """Registered job specs, indexed by job id."""
        return self._specs

    def active_ids(self) -> list[int]:
        return self._a_ids[: self._na].tolist()

    def _active_pos(self, job_id: int) -> int:
        """Buffer position of an active job, or ``-1`` (binary search)."""
        na = self._na
        ids = self._a_ids[:na]
        pos = int(ids.searchsorted(job_id))
        if pos < na and ids[pos] == job_id:
            return pos
        return -1

    def remaining_of(self, job_id: int) -> float:
        """Remaining work of an admitted, unfinished job (O(log n_active))."""
        pos = self._active_pos(job_id)
        if pos < 0:
            raise KeyError(f"job {job_id} not active")
        return float(self._a_rem[pos])

    def flow_time_of(self, job_id: int) -> float | None:
        """Flow time of ``job_id`` if it has completed, else ``None``."""
        if not 0 <= job_id < self._n:
            raise KeyError(f"unknown job {job_id}")
        if job_id < self._base:
            raise KeyError(
                f"job {job_id} was harvested (folded into streaming metrics)"
            )
        f = float(self._flow[job_id - self._base])
        return None if np.isnan(f) else f

    def backlog_work(self) -> float:
        """Total remaining work of admitted jobs plus work of pending ones."""
        base = self._base
        active = float(self._a_rem[: self._na].sum()) if self._na else 0.0
        pending = float(
            self._work[self._next_arrival - base : self._n - base].sum()
        )
        return active + pending

    # -- job registration --------------------------------------------------

    def add_job(self, spec: JobSpec) -> int:
        """Register ``spec``; it is admitted when the clock reaches its release.

        Ids must be dense in registration order and releases non-decreasing
        (the same contract :class:`~repro.workloads.traces.Trace` enforces);
        a job must not be released in the stepper's past.
        """
        if spec.job_id != self._n:
            raise ValueError(
                f"job_id must be dense in submit order: expected {self._n}, "
                f"got {spec.job_id}"
            )
        base = self._base
        if self._n > base and spec.release < self._release[self._n - 1 - base]:
            raise ValueError("job releases must be non-decreasing")
        if spec.release < self._t - 1e-9 * max(1.0, self._t):
            raise ValueError(
                f"cannot register a job released in the past "
                f"(release={spec.release:.6g} < now={self._t:.6g})"
            )
        self._ensure_capacity(self._n + 1 - base)
        j = self._n
        r = j - base
        self._release[r] = spec.release
        self._work[r] = spec.work
        self._caps_all[r] = spec.mode.rate_cap(self.m)
        self._weights[r] = spec.weight
        self._tol[r] = self.config.completion_tol * max(1.0, spec.work)
        self._flow[r] = np.nan
        self._specs.append(spec)
        prof: ParallelismProfile | None = None
        if (
            self.config.use_profiles
            and spec.mode is ParallelismMode.DAG
            and spec.dag is not None
        ):
            base = ParallelismProfile.from_dag(spec.dag)
            unit = spec.work / base.total_work
            prof = ParallelismProfile(
                work_breaks=base.work_breaks * unit,
                parallelism=base.parallelism,
            )
        self._profiles.append(prof)
        self._n += 1
        self._max_events = 0  # budget scales with n; recompute lazily
        if self._next_arrival == j:
            self._next_rel = float(spec.release)
        if hasattr(self.policy, "set_weights"):
            self._weights_dirty = True
        return j

    def add_jobs(self, specs: list[JobSpec]) -> None:
        """Bulk :meth:`add_job`: register a whole trace in one pass.

        Semantically identical to calling ``add_job`` per spec (same
        validation, same stored values bit for bit) but the per-job
        column writes become sliced vector stores, which matters when a
        harness registers thousands of jobs before every run.
        """
        n_new = len(specs)
        if not n_new:
            return
        n0 = self._n
        for i, spec in enumerate(specs):
            if spec.job_id != n0 + i:
                raise ValueError(
                    f"job_id must be dense in submit order: expected "
                    f"{n0 + i}, got {spec.job_id}"
                )
        rel = np.fromiter((s.release for s in specs), float, n_new)
        if n_new > 1 and (rel[1:] < rel[:-1]).any():
            raise ValueError("job releases must be non-decreasing")
        base = self._base
        if n0 > base and rel[0] < self._release[n0 - 1 - base]:
            raise ValueError("job releases must be non-decreasing")
        if rel[0] < self._t - 1e-9 * max(1.0, self._t):
            raise ValueError(
                f"cannot register a job released in the past "
                f"(release={rel[0]:.6g} < now={self._t:.6g})"
            )
        self._ensure_capacity(n0 + n_new - base)
        end = n0 + n_new
        r0, r1 = n0 - base, end - base
        work = np.fromiter((s.work for s in specs), float, n_new)
        self._release[r0:r1] = rel
        self._work[r0:r1] = work
        m = self.m
        self._caps_all[r0:r1] = np.fromiter(
            (s.mode.rate_cap(m) for s in specs), float, n_new
        )
        self._weights[r0:r1] = np.fromiter(
            (s.weight for s in specs), float, n_new
        )
        # completion_tol * max(1.0, work) elementwise — the same two
        # IEEE ops per entry as the scalar path
        self._tol[r0:r1] = self.config.completion_tol * np.maximum(1.0, work)
        self._flow[r0:r1] = np.nan
        self._specs.extend(specs)
        use_profiles = self.config.use_profiles
        for spec in specs:
            prof: ParallelismProfile | None = None
            if (
                use_profiles
                and spec.mode is ParallelismMode.DAG
                and spec.dag is not None
            ):
                base = ParallelismProfile.from_dag(spec.dag)
                unit = spec.work / base.total_work
                prof = ParallelismProfile(
                    work_breaks=base.work_breaks * unit,
                    parallelism=base.parallelism,
                )
            self._profiles.append(prof)
        self._n = end
        self._max_events = 0  # budget scales with n; recompute lazily
        if self._next_arrival == n0:
            self._next_rel = float(rel[0])
        if hasattr(self.policy, "set_weights"):
            self._weights_dirty = True

    def _ensure_capacity(self, rows: int) -> None:
        """Grow the master columns to hold ``rows`` stored rows.

        ``rows`` counts *stored* jobs (``_n - _base``), not absolute ids —
        after a harvest the columns only ever hold the unharvested tail.
        """
        cap = self._release.size
        if rows <= cap:
            return
        new = max(rows, 2 * cap)
        stored = self._n - self._base

        def grow(a: np.ndarray, fill: float) -> np.ndarray:
            out = np.full(new, fill, dtype=float)
            out[:stored] = a[:stored]
            return out

        self._release = grow(self._release, 0.0)
        self._work = grow(self._work, 0.0)
        self._caps_all = grow(self._caps_all, 0.0)
        self._weights = grow(self._weights, 1.0)
        self._rem = grow(self._rem, 0.0)
        self._tol = grow(self._tol, 0.0)
        self._flow = grow(self._flow, np.nan)

        def grow_active(a: np.ndarray) -> np.ndarray:
            out = np.zeros(new, dtype=a.dtype)
            out[: self._na] = a[: self._na]
            return out

        self._a_ids = grow_active(self._a_ids)
        blk = np.zeros((5, new), dtype=float)
        blk[:, : self._na] = self._a_blk[:, : self._na]
        self._a_blk = blk
        (
            self._a_rem,
            self._a_caps,
            self._a_tol,
            self._a_work,
            self._a_rel,
        ) = blk
        self._a_fin = np.zeros(new, dtype=float)
        self._vec_buf = np.zeros(new, dtype=float)

    # -- stepping ----------------------------------------------------------

    def _update_next_rel(self) -> None:
        i = self._next_arrival
        self._next_rel = (
            float(self._release[i - self._base]) if i < self._n else np.inf
        )

    def _push_weights(self) -> None:
        if self._weights_dirty:
            if self._base:
                # weight-aware policies index their table by absolute job
                # id; a harvested prefix makes that table unreconstructable
                raise FlowSimError(
                    "weighted policies are not supported after harvest() "
                    "(streaming mode)"
                )
            self.policy.set_weights(self._weights[: self._n].copy())
            self._weights_dirty = False
            self._rates_cache = None

    def _caps_for(self, ids: np.ndarray, remaining: np.ndarray) -> np.ndarray:
        base = self._base
        rows = ids - base if base else ids
        caps = self._caps_all[rows].copy()
        if self.config.use_profiles:
            for k, r in enumerate(rows):
                prof = self._profiles[r]
                if prof is not None:
                    attained = max(0.0, self._work[r] - remaining[k])
                    tol = self.config.completion_tol * max(1.0, self._work[r])
                    caps[k] = min(float(self.m), prof.cap_at(attained, tol=tol))
        return caps

    def _segment_caps(
        self, ids: np.ndarray, rem: np.ndarray
    ) -> tuple[np.ndarray, int, float]:
        """Effective ``(caps, m, speed)`` for the current segment.

        Only called when profiles or faults are in play (the plain path
        serves the static cap buffer directly); returned caps are either
        that buffer slice or a fresh array — never mutated in place.
        """
        if self._use_profiles and ids.size:
            caps = self._caps_for(ids, rem)
        else:
            caps = self._a_caps[: ids.size]
        m_view = self.m
        speed = self._speed
        if self.faults is not None:
            m_view = self.faults.m_eff()
            if m_view < self.m:
                caps = np.minimum(caps, float(m_view))
            speed *= self.faults.speed_factor()
        return caps, m_view, speed

    def _build_view(self) -> ActiveView:
        na = self._na
        ids = self._a_ids[:na]
        rem = self._a_rem[:na]
        if self._use_profiles or self.faults is not None:
            caps, m_view, speed = self._segment_caps(ids, rem)
        else:
            caps = self._a_caps[:na]
            m_view = self.m
            speed = self._speed
        self.perf.view_builds += 1
        return _make_view(
            self._t,
            m_view,
            ids,
            rem,
            self._a_work[:na],
            self._a_rel[:na],
            caps,
            speed,
        )

    def _check_rates(
        self, rates: np.ndarray, caps: np.ndarray, m: int, n: int
    ) -> np.ndarray:
        if rates.shape != (n,):
            raise FlowSimError(
                f"{self.policy.name}: rates shape {rates.shape} != ({n},)"
            )
        if n == 0:
            return rates
        calls = self._rate_calls
        self._rate_calls = calls + 1
        if calls % self._check_k:
            self.perf.checks_skipped += 1
            return rates
        self.perf.checks_run += 1
        if (rates < -_RATE_TOL).any():
            raise FlowSimError(f"{self.policy.name}: negative rate")
        if (rates > caps * (1 + _RATE_TOL) + _RATE_TOL).any():
            raise FlowSimError(f"{self.policy.name}: rate exceeds per-job cap")
        if rates.sum() > m * (1 + _RATE_TOL) + _RATE_TOL:
            raise FlowSimError(
                f"{self.policy.name}: total rate {rates.sum():.6g} "
                f"exceeds m={m}"
            )
        return np.clip(rates, 0.0, None)

    def _admit_due(self) -> None:
        """Admit every pending job whose release is at or before the clock."""
        thresh = self._t * (1.0 + _ADMIT_TOL)
        base = self._base
        inc = self._inc
        while self._next_arrival < self._n and self._next_rel <= thresh:
            j = self._next_arrival
            r = j - base
            k = self._na
            w = self._work[r]
            self._a_ids[k] = j
            self._a_rem[k] = w
            self._a_caps[k] = self._caps_all[r]
            self._a_tol[k] = self._tol[r]
            self._a_work[k] = w
            self._a_rel[k] = self._release[r]
            self._na = k + 1
            self._rem[r] = w
            self._next_arrival += 1
            self._update_next_rel()
            self._rates_cache = None
            if inc is not None:
                inc.alloc = None
                wf = float(w)
                inc.order.insert(
                    *inc.key_tie(j, wf, wf, float(self._release[r]))
                )
                if w <= self._tol[r]:
                    inc.dust.append(j)
            if self._has_arrival_hook:
                self.policy.on_arrival(j, self._build_view())

    def _remove_active(self, pos: int) -> None:
        """Drop the job at buffer position ``pos``, compacting left."""
        inc = self._inc
        if inc is not None:
            # the order holds the job's *current* key (the incremental
            # tail re-keys served jobs before processing completions)
            j = int(self._a_ids[pos])
            inc.order.remove(
                *inc.key_tie(
                    j,
                    float(self._a_rem[pos]),
                    float(self._a_work[pos]),
                    float(self._a_rel[pos]),
                )
            )
            inc.cal.discard(j)
            inc.cal_jobs.discard(j)
            inc.alloc = None
        na = self._na
        self._a_ids[pos : na - 1] = self._a_ids[pos + 1 : na]
        self._a_blk[:, pos : na - 1] = self._a_blk[:, pos + 1 : na]
        self._na = na - 1

    def _insert_active(self, j: int, rem_val: float) -> None:
        """Insert job ``j`` at its sorted position (fault resume path)."""
        na = self._na
        r = j - self._base
        pos = int(self._a_ids[:na].searchsorted(j))
        self._a_ids[pos + 1 : na + 1] = self._a_ids[pos:na]
        self._a_blk[:, pos + 1 : na + 1] = self._a_blk[:, pos:na]
        self._a_ids[pos] = j
        self._a_rem[pos] = rem_val
        self._a_caps[pos] = self._caps_all[r]
        self._a_tol[pos] = self._tol[r]
        self._a_work[pos] = self._work[r]
        self._a_rel[pos] = self._release[r]
        self._na = na + 1
        inc = self._inc
        if inc is not None:
            inc.alloc = None
            inc.order.insert(
                *inc.key_tie(
                    j, float(rem_val), float(self._work[r]),
                    float(self._release[r]),
                )
            )
            if rem_val <= self._tol[r]:
                inc.dust.append(j)

    def _apply_due_faults(self) -> None:
        """Apply every fault action scheduled at or before the clock.

        Machine-state actions (crash/recover/slowdowns) were already folded
        into the timeline by ``pop_due``; here we drop stale caches and give
        the policy its :meth:`Policy.on_fault` look.  Job aborts are
        replayed through the policy's completion/arrival hooks — an abort
        *is* a completion from the policy's point of view (its processors
        free up and re-draw) and the resubmission is an arrival, which
        preserves DREP's "preempt only on arrival" accounting.  Every
        action lands in the fault log with an ``applied`` flag.
        """
        for action in self.faults.pop_due(self._t):
            kind = action["kind"]
            entry = dict(action)
            entry["applied"] = True
            if kind in ("abort", "displace"):
                j = int(action["job_id"])
                pos = self._active_pos(j)
                if pos >= 0:
                    r = j - self._base
                    redone = float(self._work[r] - self._a_rem[pos])
                    resume_at = float(action["t"]) + float(
                        action.get("resubmit_after", 0.0)
                    )
                    if kind == "displace":
                        # capacity management, not a failure: same preempt
                        # + full-work requeue mechanics, separate books —
                        # every displaced unit must land in the requeue log
                        self._displaced_work += redone
                        self._requeue_log.append(
                            {
                                "job_id": j,
                                "t": float(action["t"]),
                                "resume_at": resume_at,
                                "redone_work": redone,
                            }
                        )
                    else:
                        self._lost_work += redone
                    self._remove_active(pos)
                    self._rem[r] = self._work[r]
                    self._suspended.add(j)
                    self._rates_cache = None
                    if self._has_completion_hook:
                        self.policy.on_completion(j, self._build_view())
                    self.faults.push_resume(resume_at, j)
                else:
                    # pending, finished, or already suspended: nothing to kill
                    entry["applied"] = False
            elif kind == "resume":
                j = int(action["job_id"])
                if j in self._suspended:
                    r = j - self._base
                    self._suspended.discard(j)
                    self._insert_active(j, float(self._work[r]))
                    self._rem[r] = self._work[r]
                    self._rates_cache = None
                    if self._has_arrival_hook:
                        self.policy.on_arrival(j, self._build_view())
                else:
                    entry["applied"] = False
            else:
                # machine-state change: composition is intact but the
                # effective capacity moved, so both caches are stale
                self._rates_cache = None
                if self._inc is not None:
                    self._inc.alloc = None
                if self._has_fault_hook:
                    self.policy.on_fault(action, self._build_view())
            self._fault_log.append(entry)

    def step(self, horizon: float | None = None) -> bool:
        """Execute one event iteration, optionally bounded by ``horizon``.

        Returns ``True`` if the step made (or can still make) progress,
        ``False`` when nothing can happen before ``horizon`` — the machine
        is idle with no arrival due (the clock is parked at the horizon
        when one is given).  Raises :class:`FlowSimError` on policy
        invariant violations, a stall, or an exhausted event budget.
        """
        cfg = self.config
        if self._weights_dirty:
            self._push_weights()
        self._events += 1
        max_events = self._max_events
        if not max_events:
            max_events = cfg.max_events or default_max_events(self._n)
            if self.faults is not None:
                # each fault point costs O(1) extra events (segment split,
                # re-rate, possible resume); 8x is far above the worst case
                max_events += 8 * self.faults.n_points + 64
            self._max_events = max_events
        if self._events > max_events:
            raise FlowSimError(
                f"{self.policy.name}: exceeded {max_events} events "
                f"({self._completed}/{self._n} jobs done at t={self._t:.6g})"
                " — Zeno loop?"
            )

        # ---- apply faults due now (before arrivals: a processor that
        # crashed at t is already gone when a job arriving at t draws) ----
        if self.faults is not None:
            self._apply_due_faults()

        # ---- admit arrivals due now -----------------------------------
        if self._next_rel <= self._t * (1.0 + _ADMIT_TOL):
            self._admit_due()

        na = self._na
        if not na:
            nxt = None
            if self._next_arrival < self._n:
                nxt = self._next_rel
            if self.faults is not None:
                # a pending fault point (recover, job resume) can be the
                # only future event — without this, drain() would deadlock
                # on a suspended job
                ft = self.faults.next_time()
                if ft is not None and (nxt is None or ft < nxt):
                    nxt = float(ft)
            if nxt is not None:
                if horizon is not None and nxt > horizon * (1 + _ADMIT_TOL):
                    # the next event is beyond the horizon: park there
                    self._t = max(self._t, float(horizon))
                    return False
                self._t = max(self._t, nxt)
                return True
            if horizon is not None:
                self._t = max(self._t, float(horizon))
            return False  # nothing active, nothing to come

        if self._inc_spec is not None and self._inc is None:
            if na >= self._inc_min:
                self._inc_promote()
        if self._inc is not None:
            return self._inc_step_tail(horizon, na)

        # ---- constant-rate segment until the next event -----------------
        ids = self._a_ids[:na]
        rem = self._a_rem[:na]
        view: ActiveView | None = None
        if self.faults is None and not self._use_profiles:
            caps = None  # the static cap buffer, fetched only if needed
            m_view = self.m
            speed = self._speed
        else:
            caps, m_view, speed = self._segment_caps(ids, rem)
        if self.faults is not None and m_view <= 0:
            # every processor is down: nothing runs until a recovery,
            # which is guaranteed to be on the fault agenda
            rates = np.zeros(na, dtype=float)
            rsum = 0.0
            self._rates_cache = None
        else:
            cached = self._rates_cache
            if cached is None:
                self.perf.rate_misses += 1
                fn = self._rates_array_fn
                if fn is not None:
                    if caps is None:
                        caps = self._a_caps[:na]
                    rates = fn(
                        self._t,
                        m_view,
                        ids,
                        rem,
                        self._a_work[:na],
                        self._a_rel[:na],
                        caps,
                    )
                else:
                    view = self._build_view()
                    caps = view.caps
                    rates = self.policy.rates(view)
                rates = self._check_rates(
                    np.asarray(rates, dtype=float), caps, m_view, na
                )
                rsum = float(rates.sum())
                if self._rates_stable:
                    self._rates_cache = (rates, rsum)
            else:
                self.perf.rate_hits += 1
                rates, rsum = cached
        if view is None:
            # the whole segment was computed on the flat buffers — no
            # ActiveView materialized (the SoA fast path)
            self.perf.view_reuses += 1
        # ``speed`` folds resource augmentation (Sec. II) together with
        # the current fault speed factor (degradation/stragglers), both
        # piecewise-constant between events
        if speed != 1.0:
            eff = rates * speed
        else:
            eff = rates

        # per-job finish time of the segment: rem/eff where served, +inf
        # where idle (idle jobs never bound dt; an all-idle set leaves
        # dt at inf exactly as the old masked-min did).  One masked
        # divide into a persistent scratch row replaces the old
        # all()/any() probes and boolean gathers — same quotients, same
        # min, bit for bit.
        served = eff > 0
        finish = self._a_fin[:na]
        finish[:] = np.inf
        np.divide(rem, eff, out=finish, where=served)
        dt = float(finish.min())
        if self._next_arrival < self._n:
            dt_arr = self._next_rel - self._t
            if dt_arr < dt:
                dt = dt_arr
        if self._has_timer:
            if view is None:
                view = self._build_view()
            timer = self.policy.next_timer(view)
            if timer is not None and timer > self._t:
                dt_timer = float(timer) - self._t
                if dt_timer < dt:
                    dt = dt_timer
        if self._use_profiles:
            # stop exactly at the next parallelism-profile breakpoint of
            # any served job so its cap change takes effect on time
            for k in np.flatnonzero(served):
                r = int(ids[k]) - self._base
                prof = self._profiles[r]
                if prof is None:
                    continue
                tol = cfg.completion_tol * max(1.0, self._work[r])
                attained = max(0.0, self._work[r] - rem[k])
                brk = prof.next_break_after(attained, tol=tol)
                if brk is not None:
                    dt_brk = float((brk - attained) / eff[k])
                    if dt_brk < dt:
                        dt = dt_brk
        if self.faults is not None:
            # stop exactly at the next fault point so m(t) and the speed
            # factor change on time (keeps the run event-exact)
            ft = self.faults.next_time()
            if ft is not None and ft > self._t:
                dt_f = float(ft) - self._t
                if dt_f < dt:
                    dt = dt_f
        if horizon is not None and horizon > self._t:
            dt_hor = float(horizon) - self._t
            if dt_hor < dt:
                dt = dt_hor

        if dt == np.inf:
            if horizon is not None:
                return False  # parked at the horizon with idle-rate jobs
            raise FlowSimError(
                f"{self.policy.name}: stalled at t={self._t:.6g} with "
                f"{na} active jobs, zero rates and no "
                "future events"
            )
        if dt < 0:
            raise FlowSimError(f"{self.policy.name}: negative time step {dt}")

        if dt > 0:
            # ``rem`` is the live buffer slice: the segment's progress is
            # applied in place, no gather/scatter against the job table
            rem -= eff * dt
            # processor-time, not work
            self._busy_time += rsum * dt
            if self._record_segments:
                alloc = {
                    int(j): float(r)
                    for j, r in zip(ids, rates)
                    if r > 0
                }
                self._segments.append((self._t, self._t + dt, alloc))
            self._t += dt

        # ---- completions -------------------------------------------------
        # Jobs whose remaining work dropped (within tolerance) to zero
        # finish now.  They are removed lowest job id first, and the policy
        # hook sees the active set *after* each removal — matching the
        # paper's semantics where a freed DREP processor re-draws from the
        # jobs still alive.  Nothing below mutates remaining work, so the
        # done set is computed once; ``ids`` is sorted ascending, so
        # iterating ``done`` in order is exactly lowest-id-first.
        done_mask = rem <= self._a_tol[:na]
        if done_mask.any():
            base = self._base
            done = ids[done_mask]
            # park the final (dust) remaining values in the master column
            # so checkpoints and observers see what the buffers saw
            self._rem[done - base if base else done] = rem[done_mask]
            t = self._t
            if self._has_completion_hook:
                for j in done.tolist():
                    self._remove_active(self._active_pos(j))
                    self._flow[j - base] = t - self._release[j - base]
                    self._completed += 1
                    self._completions.append((j, t))
                    self._rates_cache = None
                    self.policy.on_completion(j, self._build_view())
            else:
                keep = ~done_mask
                nk = na - int(done.size)
                self._a_ids[:nk] = self._a_ids[:na][keep]
                self._a_blk[:, :nk] = self._a_blk[:, :na][:, keep]
                self._na = nk
                for j in done.tolist():
                    self._flow[j - base] = t - self._release[j - base]
                    self._completed += 1
                    self._completions.append((j, t))
                self._rates_cache = None
        return True

    # -- incremental (O(log n)) kernels ------------------------------------

    def _inc_promote(self) -> None:
        """Build the order/calendar structures from the live buffers and
        switch the stepper onto the incremental kernels.

        Runs once per stepper, the first time the active set reaches
        ``incremental_min_active`` (at construction when the threshold
        is 0 — or when restoring a snapshot already past it).  One
        O(n log n) pass seeds the :class:`OrderIndex` with every active
        job's current ``(key, tie)`` and captures already-within-
        tolerance jobs into the dust set, exactly the state the
        structures would hold had they been maintained from the start;
        the calendar starts empty and fills as segments are served.
        Promotion is one-way — the dense paths win below the threshold
        only on constant factors, and demotion would just thrash.
        """
        inc = _IncrementalCore(self._inc_spec, self.policy)
        for k in range(self._na):
            j = int(self._a_ids[k])
            inc.order.insert(
                *inc.key_tie(
                    j,
                    float(self._a_rem[k]),
                    float(self._a_work[k]),
                    float(self._a_rel[k]),
                )
            )
            if self._a_rem[k] <= self._a_tol[k]:
                inc.dust.append(j)
        self._inc = inc
        self._inc_kernel_ok = self._inc_kernel_allowed

    def _inc_build_alloc(
        self, na: int, m_view: int
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Sparse rate allocation from the live order: ``(positions,
        rates, rsum)`` with positions ascending into the id-sorted
        buffers and every rate strictly positive.

        Bit-for-bit equal to the dense policy compute restricted to its
        non-zero entries: the prefix walk replicates
        :func:`~repro.flowsim.rates.priority_waterfill` (same Python
        floats, same break), the share walk replicates the masked
        :func:`~repro.flowsim.rates.equal_split` (the gathered call is
        bitwise equal on members), and ``rsum`` replicates
        ``float(np.add.reduce(dense))`` via :func:`sparse_sum`.
        """
        inc = self._inc
        if m_view <= 0:
            return (np.empty(0, dtype=np.int64), np.empty(0, dtype=float), 0.0)
        ids = self._a_ids[:na]
        caps = self._a_caps
        neg = inc.neg
        limit = m_view < self.m
        mv = float(m_view)
        if inc.share:
            k = max(1, math.ceil(inc.beta * na))
            head = inc.order.head(k)
            jl = [(-tie if neg else tie) for _, tie in head]
            pos = ids.searchsorted(np.asarray(jl, dtype=np.int64))
            pos.sort()
            c = self._a_caps[:na][pos]
            if limit:
                c = np.minimum(c, mv)
            rates = equal_split(c, m_view)
            rsum = sparse_sum(pos.tolist(), rates.tolist(), na)
            return (pos, rates, rsum)
        left = mv
        pl: list[int] = []
        rl: list[float] = []
        for _, tie in inc.order:
            p = int(ids.searchsorted(-tie if neg else tie))
            c = float(caps[p])
            if limit and mv < c:
                c = mv
            give = c if c < left else left
            pl.append(p)
            rl.append(give)
            left -= give
            if left <= 0:
                break
        pairs = sorted(zip(pl, rl))
        pl = [p for p, _ in pairs]
        rl = [g for _, g in pairs]
        return (
            np.asarray(pl, dtype=np.int64),
            np.asarray(rl, dtype=float),
            sparse_sum(pl, rl, na),
        )

    def _inc_check_alloc(
        self, alloc: tuple[np.ndarray, np.ndarray, float],
        na: int, m_view: int,
    ) -> None:
        """Amortized invariant checks on a sparse allocation — the same
        cap / negativity / total-capacity verification the dense path
        runs, restricted to the non-zero entries (the zeros it skips
        satisfy all three trivially)."""
        pos, rates, rsum = alloc
        if not pos.size:
            return
        if (rates < -_RATE_TOL).any():
            raise FlowSimError(f"{self.policy.name}: negative rate")
        caps = self._a_caps[:na][pos]
        if m_view < self.m:
            caps = np.minimum(caps, float(m_view))
        if (rates > caps * (1 + _RATE_TOL) + _RATE_TOL).any():
            raise FlowSimError(f"{self.policy.name}: rate exceeds per-job cap")
        if rsum > m_view * (1 + _RATE_TOL) + _RATE_TOL:
            raise FlowSimError(
                f"{self.policy.name}: total rate {rsum:.6g} "
                f"exceeds m={m_view}"
            )

    def _inc_sync_perf(self) -> None:
        """Mirror the order/calendar counters into :class:`PerfCounters`
        (one structure per run, so plain assignment is cumulative)."""
        inc = self._inc
        perf = self.perf
        perf.order_ops = inc.order.ops
        perf.calendar_pops = inc.cal.pops
        perf.calendar_invalidations = inc.cal.invalidations

    def _inc_step_tail(self, horizon: float | None, na: int) -> bool:
        """Incremental completion of one :meth:`step` event.

        Entered after the shared fault / admission / empty-set preamble;
        replicates the dense constant-rate-segment tail bit for bit —
        same ``dt`` bound sequence, same progress and busy-time updates,
        same lowest-id-first completion order with identical hook views
        — but touches only the served set, the dust set, and O(log n)
        structure updates instead of sweeping all ``n_active`` entries.
        Supports fault plans (machine-state changes invalidate the
        allocation; evictions/resumes flow through the buffer hooks).
        """
        inc = self._inc
        perf = self.perf
        rem = self._a_rem[:na]
        if self.faults is not None:
            m_view = self.faults.m_eff()
            speed = self._speed * self.faults.speed_factor()
        else:
            m_view = self.m
            speed = self._speed
        if self.faults is not None and m_view <= 0:
            # every processor is down: zero rates, no compute, no check
            # cadence tick — exactly the dense all-down branch
            self._rates_cache = None
            inc.alloc = None
            alloc = (np.empty(0, dtype=np.int64), np.empty(0, dtype=float), 0.0)
        else:
            alloc = inc.alloc
            if alloc is None:
                perf.rate_misses += 1
                alloc = self._inc_build_alloc(na, m_view)
                calls = self._rate_calls
                self._rate_calls = calls + 1
                if calls % self._check_k:
                    perf.checks_skipped += 1
                else:
                    perf.checks_run += 1
                    self._inc_check_alloc(alloc, na, m_view)
                if self._rates_stable:
                    inc.alloc = alloc
            else:
                perf.rate_hits += 1
        perf.view_reuses += 1
        pos, rates, rsum = alloc
        ns = pos.size
        cal = inc.cal
        if ns:
            rem_s = rem[pos]
            eff_s = rates * speed if speed != 1.0 else rates
            served_ids = self._a_ids[:na][pos].tolist()
            newset = set(served_ids)
            for j in inc.cal_jobs - newset:
                cal.discard(j)
            inc.cal_jobs = newset
            qs = (rem_s / eff_s).tolist()
            for i in range(ns):
                cal.update(served_ids[i], qs[i])
            dt = cal.min_quotient()
        else:
            if inc.cal_jobs:
                for j in inc.cal_jobs:
                    cal.discard(j)
                inc.cal_jobs = set()
            dt = float("inf")
        if self._next_arrival < self._n:
            dt_arr = self._next_rel - self._t
            if dt_arr < dt:
                dt = dt_arr
        if self.faults is not None:
            ft = self.faults.next_time()
            if ft is not None and ft > self._t:
                dt_f = float(ft) - self._t
                if dt_f < dt:
                    dt = dt_f
        if horizon is not None and horizon > self._t:
            dt_hor = float(horizon) - self._t
            if dt_hor < dt:
                dt = dt_hor

        if dt == np.inf:
            if horizon is not None:
                return False  # parked at the horizon with idle-rate jobs
            raise FlowSimError(
                f"{self.policy.name}: stalled at t={self._t:.6g} with "
                f"{na} active jobs, zero rates and no "
                "future events"
            )
        if dt < 0:
            raise FlowSimError(f"{self.policy.name}: negative time step {dt}")

        if dt > 0:
            if ns:
                rem[pos] -= eff_s * dt
            self._busy_time += rsum * dt
            self._t += dt
            if inc.kind == "remaining" and ns:
                # the decremented delta: re-key every served job so the
                # order tracks live remaining work (SRPT); pre-update
                # keys come from the gather taken before the scatter
                order = inc.order
                neg = inc.neg
                olds = rem_s.tolist()
                news = rem[pos].tolist()
                for i in range(ns):
                    ov = olds[i]
                    nv = news[i]
                    if nv == ov:
                        continue
                    j = served_ids[i]
                    if neg:
                        order.remove(-ov, -j)
                        order.insert(-nv, -j)
                    else:
                        order.remove(ov, j)
                        order.insert(nv, j)

        # ---- completions: served ∪ dust covers every candidate ----------
        done: list[int] = []
        if ns:
            nr = rem[pos]
            dm = nr <= self._a_tol[:na][pos]
            if dm.any():
                done = [served_ids[i] for i in np.flatnonzero(dm)]
        if inc.dust:
            ds = set(done)
            for j in inc.dust:
                # a fault eviction may have removed a dust job before any
                # segment ran; stale entries are simply dropped
                if j not in ds and self._active_pos(j) >= 0:
                    done.append(j)
            inc.dust.clear()
            done.sort()
        if done:
            base = self._base
            t = self._t
            has_hook = self._has_completion_hook
            for j in done:
                p = self._active_pos(j)
                r = j - base
                # park the final (dust) remaining value in the master
                # column, as the dense scan does
                self._rem[r] = self._a_rem[p]
                self._remove_active(p)  # also syncs order/calendar/alloc
                self._flow[r] = t - self._release[r]
                self._completed += 1
                self._completions.append((j, t))
                self._rates_cache = None
                if has_hook:
                    self.policy.on_completion(j, self._build_view())
        self._inc_sync_perf()
        return True

    def _batched_steps(self, horizon: float | None) -> bool:
        """Fold a whole run of events into one kernel pass.

        The completion-horizon batch kernel: semantically this is
        :meth:`step` called in a loop, specialized to the configurations
        ``_batch_ok`` admits — stable vectorized rates, no faults, no
        timers, no profiles, no segment recording — with the per-call
        dispatch overhead hoisted out of the loop.  Every iteration
        replicates one ``step()`` invocation *exactly*: the same
        admission threshold, the same per-element divisions and minimum,
        the same sequential ``dt`` bounds, the same lowest-id-first
        completion order with identical hook views (hence identical RNG
        draw sequences), and the same event accounting against
        ``max_events``.  The golden tests and the batched≡unit
        Hypothesis suite (``tests/flowsim/test_batch_equivalence.py``)
        pin the equivalence bit for bit.

        Where the active set is much larger than the served set (DREP
        gives out at most ``m`` processors), the segment solve gathers
        the few served entries instead of sweeping all ``n_active`` —
        valid bitwise because an ``eff == 0`` entry is exactly unchanged
        by ``rem -= eff * dt`` and can only complete in a segment where
        it was already within tolerance (the dense scan is kept for the
        first segment after any admission, the one place such an entry
        can appear).

        Returns like ``step()``: ``True`` while progress was made,
        ``False`` when nothing can happen before ``horizon`` (the clock
        is parked there when one is given).
        """
        if self._weights_dirty:
            self._push_weights()
        max_events = self._max_events
        if not max_events:
            max_events = self.config.max_events or default_max_events(self._n)
            self._max_events = max_events
        perf = self.perf
        policy = self.policy
        fn = self._rates_array_fn
        patch_fn = self._rates_patch_fn
        speed = self._speed
        m = self.m
        n = self._n
        has_completion = self._has_completion_hook
        has_arrival = self._has_arrival_hook
        check_k = self._check_k
        admit_mul = 1.0 + _ADMIT_TOL
        a_ids = self._a_ids
        a_rem = self._a_rem
        a_caps = self._a_caps
        a_tol = self._a_tol
        a_work = self._a_work
        a_rel = self._a_rel
        a_fin = self._a_fin
        a_blk = self._a_blk
        vbuf = self._vec_buf
        flow = self._flow
        release = self._release
        work_all = self._work
        caps_all = self._caps_all
        tol_all = self._tol
        rem_all = self._rem
        completions = self._completions
        # master rows are stored base-relative; stable for the whole pass
        # (harvest() only runs between kernel passes)
        base = self._base
        radd = np.add.reduce
        rmin = np.minimum.reduce
        folded = 0
        # per-iteration state lives in locals (the finally block flushes
        # it back): attribute traffic is a measurable share of a
        # multi-thousand-event drain when each iteration is only a
        # handful of small numpy calls
        ev = self._events
        t = self._t
        na = self._na
        ja = self._next_arrival
        next_rel = self._next_rel
        cache = self._rates_cache
        busy = self._busy_time
        completed = self._completed
        rate_calls = self._rate_calls
        c_miss = c_hit = c_run = c_skip = c_reuse = c_views = c_patch = 0
        # entry state is unknown (a horizon-parked step may have admitted
        # jobs without running a completion scan), so the first segment
        # always uses the dense scan
        fresh = True
        # the previous segment's rate vector, kept *structurally aligned*
        # with the active buffers across admissions/completions so the
        # policy's rates_array_patch can update it sparsely; None until
        # the first full compute (or always, without a patch hook)
        vec = None
        # promotion watch: an order-spec policy still below its
        # incremental_min_active threshold runs this dense kernel; once
        # admissions push the active set over the line, exit the pass at
        # an iteration boundary (state consistent, event not yet
        # counted) so the caller can promote and re-dispatch
        inc_pending = self._inc_spec is not None and self._inc is None
        inc_min = self._inc_min
        ret = True
        try:
            while True:
                if inc_pending and na >= inc_min:
                    break
                ev += 1
                folded += 1
                if ev > max_events:
                    raise FlowSimError(
                        f"{policy.name}: exceeded {max_events} events "
                        f"({completed}/{n} jobs done at "
                        f"t={t:.6g})"
                        " — Zeno loop?"
                    )

                # ---- admit arrivals due now -------------------------
                # (inline _admit_due: same threshold, same per-admission
                # bookkeeping and hook views, minus the call overhead)
                thresh = t * admit_mul
                if next_rel <= thresh:
                    na0 = na
                    while ja < n and next_rel <= thresh:
                        r = ja - base
                        w = work_all[r]
                        a_ids[na] = ja
                        a_rem[na] = w
                        a_caps[na] = caps_all[r]
                        a_tol[na] = tol_all[r]
                        a_work[na] = w
                        a_rel[na] = release[r]
                        na += 1
                        rem_all[r] = w
                        ja += 1
                        next_rel = (
                            float(release[ja - base]) if ja < n else np.inf
                        )
                        cache = None
                        if has_arrival:
                            c_views += 1
                            policy.on_arrival(
                                ja - 1,
                                _make_view(
                                    t,
                                    m,
                                    a_ids[:na],
                                    a_rem[:na],
                                    a_work[:na],
                                    a_rel[:na],
                                    a_caps[:na],
                                    speed,
                                ),
                            )
                    if vec is not None:
                        # align the kept rate vector: admissions append
                        # at the end (ids are handed out in sorted order)
                        # with rate 0 until the patch says otherwise
                        # (vec is a prefix view of vbuf, so this is one
                        # in-place fill, not a reallocation)
                        vbuf[na0:na] = 0.0
                        vec = vbuf[:na]
                    fresh = True
                if not na:
                    if ja < n:
                        if horizon is not None and (
                            next_rel > horizon * admit_mul
                        ):
                            # next event beyond the horizon: park there
                            t = max(t, float(horizon))
                            ret = False
                            break
                        t = max(t, next_rel)
                        # one idle-jump event; the next iteration admits
                        # (advance_to would stop here if the jump landed
                        # at/over the horizon)
                        if horizon is not None and not (
                            t * admit_mul < horizon
                        ):
                            break
                        continue
                    if horizon is not None:
                        t = max(t, float(horizon))
                    ret = False  # nothing active, nothing to come
                    break

                # ---- constant-rate segment until the next event -----
                ids = a_ids[:na]
                rem = a_rem[:na]
                if cache is None:
                    c_miss += 1
                    caps = a_caps[:na]
                    rates = None
                    if vec is not None:
                        # sparse path: vec is the previous vector aligned
                        # to the current composition; the policy reports
                        # only the entries that moved (bit-equal to a
                        # full rebuild by the rates_array_patch contract)
                        pairs = patch_fn(ids, caps)
                        if pairs is not None:
                            for pos, val in pairs:
                                vec[pos] = val
                            rates = vec
                            c_patch += 1
                    if rates is None:
                        rates = np.asarray(
                            fn(
                                t, m, ids, rem,
                                a_work[:na], a_rel[:na], caps,
                            ),
                            dtype=float,
                        )
                    # inline _check_rates: same shape gate, same
                    # amortized-verification cadence as per-event — one
                    # counted call per decision point, patched or not
                    if rates.shape != (na,):
                        raise FlowSimError(
                            f"{policy.name}: rates shape {rates.shape} "
                            f"!= ({na},)"
                        )
                    calls = rate_calls
                    rate_calls = calls + 1
                    if calls % check_k:
                        c_skip += 1
                    else:
                        c_run += 1
                        if (rates < -_RATE_TOL).any():
                            raise FlowSimError(
                                f"{policy.name}: negative rate"
                            )
                        if (rates > caps * (1 + _RATE_TOL) + _RATE_TOL).any():
                            raise FlowSimError(
                                f"{policy.name}: rate exceeds per-job cap"
                            )
                        if rates.sum() > m * (1 + _RATE_TOL) + _RATE_TOL:
                            raise FlowSimError(
                                f"{policy.name}: total rate "
                                f"{rates.sum():.6g} exceeds m={m}"
                            )
                        rates = np.clip(rates, 0.0, None)
                    rsum = float(radd(rates))
                    cache = (rates, rsum)
                else:
                    c_hit += 1
                    rates, rsum = cache
                if patch_fn is not None and rates is not vec:
                    # a fresh array reached us (full rebuild, check-pass
                    # clip, or a cache carried over from the per-event
                    # path): copy it into the scratch so the completion /
                    # admission shifts below can mutate in place
                    vbuf[:na] = rates
                    vec = vbuf[:na]
                c_reuse += 1
                eff = rates * speed if speed != 1.0 else rates

                served = eff > 0
                if na >= 32:
                    sp = served.nonzero()[0]
                    ns = sp.size
                    sparse = 4 * ns <= na
                else:
                    # tiny active sets: the dense sweep is cheaper than
                    # the nonzero() gather (both are bit-equal)
                    sparse = False
                if sparse:
                    eff_s = eff[sp]
                    dt = float(rmin(rem[sp] / eff_s)) if ns else np.inf
                else:
                    finish = a_fin[:na]
                    finish[:] = np.inf
                    np.divide(rem, eff, out=finish, where=served)
                    dt = float(rmin(finish))
                if ja < n:
                    dt_arr = next_rel - t
                    if dt_arr < dt:
                        dt = dt_arr
                if horizon is not None and horizon > t:
                    dt_hor = float(horizon) - t
                    if dt_hor < dt:
                        dt = dt_hor

                if dt == np.inf:
                    if horizon is not None:
                        ret = False  # parked with idle-rate jobs
                        break
                    raise FlowSimError(
                        f"{policy.name}: stalled at t={t:.6g} with "
                        f"{na} active jobs, zero rates and no "
                        "future events"
                    )
                if dt < 0:
                    raise FlowSimError(
                        f"{policy.name}: negative time step {dt}"
                    )

                if dt > 0:
                    if sparse:
                        rem[sp] -= eff_s * dt
                    else:
                        rem -= eff * dt
                    busy += rsum * dt
                    t += dt

                # ---- completions ------------------------------------
                sparse_done = sparse and not fresh
                if sparse_done:
                    dpos = sp[rem[sp] <= a_tol[:na][sp]] if ns else sp
                    n_done = int(dpos.size)
                else:
                    # nonzero() both counts and locates the finished
                    # entries in one pass (count_nonzero + argmax would
                    # be two)
                    done_mask = rem <= a_tol[:na]
                    dpos = done_mask.nonzero()[0]
                    n_done = dpos.size
                    fresh = False
                if n_done == 1:
                    # the overwhelmingly common case: one job finishes —
                    # scalar bookkeeping, no fancy-index round trips
                    p = int(dpos[0])
                    j = int(ids[p])
                    r = j - base
                    rem_all[r] = rem[p]
                    a_ids[p : na - 1] = a_ids[p + 1 : na]
                    a_blk[:, p : na - 1] = a_blk[:, p + 1 : na]
                    na -= 1
                    if vec is not None:
                        vbuf[p:na] = vbuf[p + 1 : na + 1]
                        vec = vbuf[:na]
                    flow[r] = t - release[r]
                    completed += 1
                    completions.append((j, t))
                    cache = None
                    if has_completion:
                        c_views += 1
                        policy.on_completion(
                            j,
                            _make_view(
                                t,
                                m,
                                a_ids[:na],
                                a_rem[:na],
                                a_work[:na],
                                a_rel[:na],
                                a_caps[:na],
                                speed,
                            ),
                        )
                elif n_done:
                    done = ids[dpos]
                    rem_all[done - base if base else done] = rem[dpos]
                    if has_completion:
                        for j in done.tolist():
                            p = int(a_ids[:na].searchsorted(j))
                            a_ids[p : na - 1] = a_ids[p + 1 : na]
                            a_blk[:, p : na - 1] = a_blk[:, p + 1 : na]
                            na -= 1
                            if vec is not None:
                                vbuf[p:na] = vbuf[p + 1 : na + 1]
                                vec = vbuf[:na]
                            flow[j - base] = t - release[j - base]
                            completed += 1
                            completions.append((j, t))
                            cache = None
                            c_views += 1
                            policy.on_completion(
                                j,
                                _make_view(
                                    t,
                                    m,
                                    a_ids[:na],
                                    a_rem[:na],
                                    a_work[:na],
                                    a_rel[:na],
                                    a_caps[:na],
                                    speed,
                                ),
                            )
                    else:
                        if sparse_done:
                            keep = np.ones(na, dtype=bool)
                            keep[dpos] = False
                        else:
                            keep = ~done_mask
                        nk = na - n_done
                        a_ids[:nk] = ids[keep]
                        a_blk[:, :nk] = a_blk[:, :na][:, keep]
                        na = nk
                        if vec is not None:
                            # fancy indexing copies first, so writing the
                            # result back into the scratch is safe
                            vbuf[:nk] = vec[keep]
                            vec = vbuf[:nk]
                        for j in done.tolist():
                            flow[j - base] = t - release[j - base]
                            completed += 1
                            completions.append((j, t))
                        cache = None

                # ---- batch-window exit ------------------------------
                if horizon is not None:
                    if not (t * admit_mul < horizon):
                        break
                elif completed == n:
                    break
        finally:
            self._events = ev
            self._t = t
            self._na = na
            self._next_arrival = ja
            self._next_rel = next_rel
            self._rates_cache = cache
            self._busy_time = busy
            self._completed = completed
            self._rate_calls = rate_calls
            perf.rate_misses += c_miss
            perf.rate_hits += c_hit
            perf.checks_run += c_run
            perf.checks_skipped += c_skip
            perf.view_reuses += c_reuse
            perf.view_builds += c_views
            perf.batch_rate_patches += c_patch
            if folded:
                perf.batch_jumps += 1
                perf.batch_events_folded += folded
        return ret

    def _inc_steps(self, horizon: float | None) -> bool:
        """Incremental completion-horizon kernel: :meth:`_inc_step_tail`
        fused into a :meth:`_batched_steps`-style event loop.

        Eligibility (``_inc_kernel_ok``) is the per-event incremental
        gate plus no faults and ``use_batch_horizon`` — the same "nothing
        interleaves a non-arrival/non-completion event" condition the
        dense batch kernel needs.  Every iteration replicates one
        ``step()`` invocation exactly (admission threshold, dt bound
        sequence, lowest-id-first completions, hook views, event
        accounting), so goldens and the incremental≡dense suite hold
        against either dense path.  Per-event cost is O((m + changes)
        log n): the order walk touches the served head, completions pop
        from the calendar, and nothing sweeps the active set.
        """
        if self._weights_dirty:
            self._push_weights()
        max_events = self._max_events
        if not max_events:
            max_events = self.config.max_events or default_max_events(self._n)
            self._max_events = max_events
        perf = self.perf
        policy = self.policy
        inc = self._inc
        order = inc.order
        cal = inc.cal
        dust = inc.dust
        rekey = inc.kind == "remaining"
        neg = inc.neg
        speed = self._speed
        m = self.m
        n = self._n
        has_completion = self._has_completion_hook
        has_arrival = self._has_arrival_hook
        check_k = self._check_k
        admit_mul = 1.0 + _ADMIT_TOL
        a_ids = self._a_ids
        a_rem = self._a_rem
        a_caps = self._a_caps
        a_tol = self._a_tol
        a_work = self._a_work
        a_rel = self._a_rel
        a_blk = self._a_blk
        flow = self._flow
        release = self._release
        work_all = self._work
        caps_all = self._caps_all
        tol_all = self._tol
        rem_all = self._rem
        completions = self._completions
        base = self._base
        key_tie = inc.key_tie
        rates_stable = self._rates_stable
        INF = float("inf")
        folded = 0
        ev = self._events
        t = self._t
        na = self._na
        ja = self._next_arrival
        next_rel = self._next_rel
        busy = self._busy_time
        completed = self._completed
        rate_calls = self._rate_calls
        c_miss = c_hit = c_run = c_skip = c_reuse = c_views = 0
        ret = True
        try:
            while True:
                ev += 1
                folded += 1
                if ev > max_events:
                    raise FlowSimError(
                        f"{policy.name}: exceeded {max_events} events "
                        f"({completed}/{n} jobs done at "
                        f"t={t:.6g})"
                        " — Zeno loop?"
                    )

                # ---- admit arrivals due now -------------------------
                thresh = t * admit_mul
                if next_rel <= thresh:
                    while ja < n and next_rel <= thresh:
                        r = ja - base
                        w = work_all[r]
                        a_ids[na] = ja
                        a_rem[na] = w
                        a_caps[na] = caps_all[r]
                        a_tol[na] = tol_all[r]
                        a_work[na] = w
                        a_rel[na] = release[r]
                        na += 1
                        rem_all[r] = w
                        wf = float(w)
                        order.insert(*key_tie(ja, wf, wf, float(release[r])))
                        if w <= tol_all[r]:
                            dust.append(ja)
                        inc.alloc = None
                        ja += 1
                        next_rel = (
                            float(release[ja - base]) if ja < n else np.inf
                        )
                        if has_arrival:
                            c_views += 1
                            policy.on_arrival(
                                ja - 1,
                                _make_view(
                                    t,
                                    m,
                                    a_ids[:na],
                                    a_rem[:na],
                                    a_work[:na],
                                    a_rel[:na],
                                    a_caps[:na],
                                    speed,
                                ),
                            )
                if not na:
                    if ja < n:
                        if horizon is not None and (
                            next_rel > horizon * admit_mul
                        ):
                            t = max(t, float(horizon))
                            ret = False
                            break
                        t = max(t, next_rel)
                        if horizon is not None and not (
                            t * admit_mul < horizon
                        ):
                            break
                        continue
                    if horizon is not None:
                        t = max(t, float(horizon))
                    ret = False
                    break

                # ---- constant-rate segment until the next event -----
                rem = a_rem[:na]
                alloc = inc.alloc
                if alloc is None:
                    c_miss += 1
                    alloc = self._inc_build_alloc(na, m)
                    calls = rate_calls
                    rate_calls = calls + 1
                    if calls % check_k:
                        c_skip += 1
                    else:
                        c_run += 1
                        self._inc_check_alloc(alloc, na, m)
                    if rates_stable:
                        inc.alloc = alloc
                else:
                    c_hit += 1
                c_reuse += 1
                pos, rates, rsum = alloc
                ns = pos.size
                if ns:
                    rem_s = rem[pos]
                    eff_s = rates * speed if speed != 1.0 else rates
                    served_ids = a_ids[:na][pos].tolist()
                    newset = set(served_ids)
                    for j in inc.cal_jobs - newset:
                        cal.discard(j)
                    inc.cal_jobs = newset
                    qs = (rem_s / eff_s).tolist()
                    for i in range(ns):
                        cal.update(served_ids[i], qs[i])
                    dt = cal.min_quotient()
                else:
                    if inc.cal_jobs:
                        for j in inc.cal_jobs:
                            cal.discard(j)
                        inc.cal_jobs = set()
                    dt = INF
                if ja < n:
                    dt_arr = next_rel - t
                    if dt_arr < dt:
                        dt = dt_arr
                if horizon is not None and horizon > t:
                    dt_hor = float(horizon) - t
                    if dt_hor < dt:
                        dt = dt_hor

                if dt == INF:
                    if horizon is not None:
                        ret = False
                        break
                    raise FlowSimError(
                        f"{policy.name}: stalled at t={t:.6g} with "
                        f"{na} active jobs, zero rates and no "
                        "future events"
                    )
                if dt < 0:
                    raise FlowSimError(
                        f"{policy.name}: negative time step {dt}"
                    )

                if dt > 0:
                    if ns:
                        rem[pos] -= eff_s * dt
                    busy += rsum * dt
                    t += dt
                    if rekey and ns:
                        olds = rem_s.tolist()
                        news = rem[pos].tolist()
                        for i in range(ns):
                            ov = olds[i]
                            nv = news[i]
                            if nv == ov:
                                continue
                            j = served_ids[i]
                            if neg:
                                order.remove(-ov, -j)
                                order.insert(-nv, -j)
                            else:
                                order.remove(ov, j)
                                order.insert(nv, j)

                # ---- completions ------------------------------------
                done: list[int] = []
                if ns:
                    dm = rem[pos] <= a_tol[:na][pos]
                    if dm.any():
                        done = [served_ids[i] for i in np.flatnonzero(dm)]
                if dust:
                    # no faults here: every dust entry is still active
                    ds = set(done)
                    for j in dust:
                        if j not in ds:
                            done.append(j)
                    del dust[:]
                    done.sort()
                for j in done:
                    p = int(a_ids[:na].searchsorted(j))
                    r = j - base
                    rem_all[r] = a_rem[p]
                    order.remove(
                        *key_tie(
                            j, float(a_rem[p]), float(a_work[p]),
                            float(a_rel[p]),
                        )
                    )
                    cal.discard(j)
                    inc.cal_jobs.discard(j)
                    a_ids[p : na - 1] = a_ids[p + 1 : na]
                    a_blk[:, p : na - 1] = a_blk[:, p + 1 : na]
                    na -= 1
                    flow[r] = t - release[r]
                    completed += 1
                    completions.append((j, t))
                    inc.alloc = None
                    if has_completion:
                        c_views += 1
                        policy.on_completion(
                            j,
                            _make_view(
                                t,
                                m,
                                a_ids[:na],
                                a_rem[:na],
                                a_work[:na],
                                a_rel[:na],
                                a_caps[:na],
                                speed,
                            ),
                        )

                # ---- batch-window exit ------------------------------
                if horizon is not None:
                    if not (t * admit_mul < horizon):
                        break
                elif completed == n:
                    break
        finally:
            self._events = ev
            self._t = t
            self._na = na
            self._next_arrival = ja
            self._next_rel = next_rel
            self._busy_time = busy
            self._completed = completed
            self._rate_calls = rate_calls
            perf.rate_misses += c_miss
            perf.rate_hits += c_hit
            perf.checks_run += c_run
            perf.checks_skipped += c_skip
            perf.view_reuses += c_reuse
            perf.view_builds += c_views
            if folded:
                perf.batch_jumps += 1
                perf.batch_events_folded += folded
            self._inc_sync_perf()
        return ret

    def advance_to(self, t: float) -> None:
        """Process every event with time ≤ ``t`` and park the clock there.

        A no-op when ``t`` is not ahead of the clock (rewinding is
        impossible; the clock never moves backwards).
        """
        t = float(t)
        while self._t * (1 + _ADMIT_TOL) < t:
            if self._inc_spec is not None and self._inc is None:
                if self._na >= self._inc_min:
                    self._inc_promote()
            if self._inc_kernel_ok:
                ok = self._inc_steps(t)
            elif self._batch_ok:
                ok = self._batched_steps(t)
            else:
                ok = self.step(horizon=t)
            if not ok:
                break

    def drain(self) -> None:
        """Step until every registered job has completed."""
        while self._completed < self._n:
            if self._inc_spec is not None and self._inc is None:
                if self._na >= self._inc_min:
                    self._inc_promote()
            if self._inc_kernel_ok:
                ok = self._inc_steps(None)
            elif self._batch_ok:
                ok = self._batched_steps(None)
            else:
                ok = self.step()
            if not ok:
                break  # unreachable while jobs remain; defensive

    # -- streaming harvest -------------------------------------------------

    def _harvest_bound(self) -> int:
        """First job id that may still need its master row: every id below
        it is completed (admitted, not active, not suspended)."""
        b = self._next_arrival
        if self._na:
            a0 = int(self._a_ids[0])
            if a0 < b:
                b = a0
        if self._suspended:
            s0 = min(self._suspended)
            if s0 < b:
                b = s0
        return b

    @property
    def n_harvestable(self) -> int:
        """Completed-prefix jobs :meth:`harvest` would fold right now."""
        return self._harvest_bound() - self._base

    def harvest(
        self,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Fold the completed prefix out of the job table and free its rows.

        Returns ``(ids, flows, weights, min_flows)`` for every job whose
        id precedes all active / suspended / pending jobs (in id order,
        ``min_flows`` already speed-normalized exactly as
        :meth:`result` reports them), then compacts the master columns
        left and advances the internal base offset.  Calling it
        periodically is what makes a streamed run O(active + pending) in
        memory; the cost is one shift of the stored rows per call.

        After the first non-empty harvest :meth:`result` /
        :meth:`state_dict` are unavailable (their per-job arrays are
        gone) — the streaming driver
        (:func:`repro.flowsim.simulate_stream`) accumulates
        :class:`~repro.core.metrics.StreamingMetrics` instead.  Weighted
        policies (``set_weights``) are refused: their weight tables are
        indexed by absolute job id over the full run.
        """
        if hasattr(self.policy, "set_weights"):
            raise FlowSimError(
                f"{self.policy.name}: weighted policies are not supported "
                "in streaming mode (their weight table spans all jobs)"
            )
        base = self._base
        b = self._harvest_bound()
        k = b - base
        if k <= 0:
            empty = np.empty(0, dtype=float)
            return np.empty(0, dtype=np.int64), empty, empty.copy(), empty.copy()
        ids = np.arange(base, b, dtype=np.int64)
        flows = self._flow[:k].copy()
        if np.isnan(flows).any():  # pragma: no cover - internal invariant
            raise FlowSimError("harvest bound covers an unfinished job")
        weights = self._weights[:k].copy()
        m = self.m
        min_flows = (
            np.fromiter(
                (spec.lower_bound(m) for spec in self._specs[:k]), float, k
            )
            / self.config.speed
        )
        stored = self._n - base
        keep = stored - k
        for a in (
            self._release,
            self._work,
            self._caps_all,
            self._weights,
            self._rem,
            self._tol,
            self._flow,
        ):
            a[:keep] = a[k:stored]
        del self._specs[:k]
        del self._profiles[:k]
        self._base = b
        if self._completions:
            # keep the observer log bounded too: harvested ids are gone
            self._completions = [e for e in self._completions if e[0] >= b]
        return ids, flows, weights, min_flows

    # -- results -----------------------------------------------------------

    def result(self, partial: bool = False) -> ScheduleResult:
        """Assemble a :class:`~repro.core.metrics.ScheduleResult`.

        With ``partial=False`` (default) every registered job must have
        completed; ``partial=True`` restricts the arrays to completed jobs
        (in job-id order), for progress reporting mid-run.
        """
        if self._base:
            raise FlowSimError(
                "result() is unavailable after harvest(): per-job arrays "
                "were folded into streaming metrics "
                "(use repro.flowsim.simulate_stream)"
            )
        n = self._n
        flows = self._flow[:n].copy()
        weights = self._weights[:n].copy()
        min_flows = np.array(
            [spec.lower_bound(self.m) for spec in self._specs], dtype=float
        )
        if partial:
            mask = ~np.isnan(flows)
            flows = flows[mask]
            weights = weights[mask]
            min_flows = min_flows[mask]
        elif np.isnan(flows).any():
            raise FlowSimError(
                f"{self.policy.name}: run ended with unfinished jobs"
            )
        makespan = self._t
        utilization = (
            self._busy_time / (makespan * self.m) if makespan > 0 else 0.0
        )
        self.perf.events = self._events
        if self._inc is not None:
            self._inc_sync_perf()
        fault_extra = {}
        if self.faults is not None:
            fault_extra["faults"] = {
                "plan": self.faults.plan.name,
                "points": self.faults.n_points,
                "applied": self.faults.applied,
                "lost_work": self._lost_work,
                "displaced_work": self._displaced_work,
                "requeues": [dict(e) for e in self._requeue_log],
                "down_now": sorted(self.faults.down_procs()),
                "log": [dict(e) for e in self._fault_log],
            }
        return ScheduleResult(
            scheduler=self.policy.name,
            m=self.m,
            flow_times=flows,
            preemptions=self.policy.preemptions,
            migrations=self.policy.migrations,
            makespan=makespan,
            min_flows=(min_flows / self.config.speed) if min_flows.size else None,
            weights=weights if weights.size else None,
            extra={
                "utilization": utilization,
                "events": self._events,
                "switches": self.policy.switches,
                "perf": self.perf.as_dict(),
                **(
                    {"segments": self._segments}
                    if self.config.record_segments
                    else {}
                ),
                **fault_extra,
            },
        )

    # -- checkpointing -----------------------------------------------------

    def _check_snapshottable(self) -> None:
        if self._base:
            raise FlowSimError(
                "cannot snapshot a harvested (streaming) run: the "
                "completed prefix was folded away"
            )

    def _job_record(self, j: int) -> dict:
        """One job's spec and remaining work as plain data."""
        s = self._specs[j]
        if s.dag is not None:
            raise FlowSimError("cannot snapshot a run with explicit DAG jobs")
        return {
            "job_id": s.job_id,
            "release": s.release,
            "work": s.work,
            "span": s.span,
            "mode": s.mode.value,
            "weight": s.weight,
            "rem": float(self._rem[j]),
        }

    def finished_state(self, start: int = 0) -> list[dict]:
        """Records of the jobs that finished after the first ``start``
        completions, in completion order.

        Each record is the job's spec plus its final ``rem``, ``flow`` and
        ``finish``.  A finished job never changes again, so a caller that
        checkpoints repeatedly collects each record once and keeps it
        (the serving journal appends them to a history file); the records
        of all :attr:`n_completed` jobs, together with :meth:`state_dict`,
        are what :meth:`from_state_dict` rebuilds the stepper from.
        """
        self._check_snapshottable()
        log = self._completions
        if not 0 <= start <= len(log):
            raise FlowSimError(
                f"finished-state cursor {start} outside 0..{len(log)}"
            )
        records = []
        for j, t in log[start:]:
            rec = self._job_record(j)
            rec["flow"] = float(self._flow[j])
            rec["finish"] = float(t)
            records.append(rec)
        return records

    def state_dict(self) -> dict:
        """Live engine state as JSON-compatible plain data.

        Covers the clock, the counters and every job that can still
        change — active, suspended and pending — with its remaining work,
        so the cost is O(live jobs) however long the stepper has run.
        Finished jobs come separately from :meth:`finished_state`.  Policy
        state is *not* included (policies are opaque to the engine);
        :mod:`repro.serve.snapshot` captures it alongside.  Jobs carrying
        explicit DAGs are not snapshottable.
        """
        self._check_snapshottable()
        na = self._na
        if na:
            # the buffers hold the live remaining-work values; flush them
            # to the master column the records read
            self._rem[self._a_ids[:na]] = self._a_rem[:na]
        live = self._a_ids[:na].tolist()
        live.extend(self._suspended)
        live.sort()
        live.extend(range(self._next_arrival, self._n))
        fault_state = {}
        if self.faults is not None:
            fault_state = {
                "faults": self.faults.state_dict(),
                "fault_log": [dict(e) for e in self._fault_log],
                "lost_work": self._lost_work,
                "displaced_work": self._displaced_work,
                "requeue_log": [dict(e) for e in self._requeue_log],
                "suspended": sorted(self._suspended),
            }
        return {
            **fault_state,
            "m": self.m,
            "seed": self.seed,
            "config": {
                "completion_tol": self.config.completion_tol,
                "max_events": self.config.max_events,
                "speed": self.config.speed,
                "use_profiles": self.config.use_profiles,
                "record_segments": self.config.record_segments,
                "check_every_k": self.config.check_every_k,
                "use_rates_array": self.config.use_rates_array,
                "use_batch_horizon": self.config.use_batch_horizon,
                "use_incremental": self.config.use_incremental,
                "incremental_min_active": self.config.incremental_min_active,
            },
            "t": self._t,
            "n_jobs": self._n,
            "next_arrival": self._next_arrival,
            "completed": self._completed,
            "busy_time": self._busy_time,
            "events": self._events,
            "act_ids": self._a_ids[:na].tolist(),
            "segments": [
                [a, b, {str(k): v for k, v in alloc.items()}]
                for a, b, alloc in self._segments
            ],
            "jobs": [self._job_record(j) for j in live],
        }

    @classmethod
    def from_state_dict(
        cls, state: dict, policy: Policy, finished: list[dict]
    ) -> "FlowStepper":
        """Rebuild a stepper from :meth:`state_dict` output plus the
        :meth:`finished_state` records of every completed job, in
        completion order.

        ``policy`` must already carry its restored internal state (the
        constructor's ``policy.reset`` call is *skipped* — the caller is
        handing us a mid-run policy, and resetting it would wipe exactly
        what a checkpoint is meant to preserve).
        """
        cfg = FlowSimConfig(**state["config"])
        n = int(state["n_jobs"])
        live = state["jobs"]
        if len(finished) != int(state["completed"]) or len(finished) + len(
            live
        ) != n:
            raise FlowSimError(
                f"checkpoint of {n} jobs holds {len(finished)} finished and "
                f"{len(live)} live records ({state['completed']} completed)"
            )
        stepper = cls.__new__(cls)
        stepper.m = int(state["m"])
        stepper.policy = policy
        stepper.seed = int(state["seed"])
        stepper.config = cfg
        cap = max(16, n)
        stepper._release = np.zeros(cap, dtype=float)
        stepper._work = np.zeros(cap, dtype=float)
        stepper._caps_all = np.zeros(cap, dtype=float)
        stepper._weights = np.ones(cap, dtype=float)
        stepper._rem = np.zeros(cap, dtype=float)
        stepper._tol = np.zeros(cap, dtype=float)
        stepper._flow = np.full(cap, np.nan, dtype=float)
        specs: list[JobSpec | None] = [None] * n
        for raw in (*finished, *live):
            spec = JobSpec(
                job_id=raw["job_id"],
                release=raw["release"],
                work=raw["work"],
                span=raw["span"],
                mode=ParallelismMode(raw["mode"]),
                weight=raw["weight"],
            )
            j = spec.job_id
            if not 0 <= j < n or specs[j] is not None:
                raise FlowSimError(
                    f"checkpoint job id {j} duplicated or out of range"
                )
            specs[j] = spec
            stepper._release[j] = spec.release
            stepper._work[j] = spec.work
            stepper._caps_all[j] = spec.mode.rate_cap(stepper.m)
            stepper._weights[j] = spec.weight
            stepper._tol[j] = cfg.completion_tol * max(1.0, spec.work)
            stepper._rem[j] = raw["rem"]
        for raw in finished:
            stepper._flow[raw["job_id"]] = raw["flow"]
        stepper._specs = specs
        stepper._profiles = [None] * n
        stepper._n = n
        stepper._base = 0
        stepper._act_ids = [int(j) for j in state["act_ids"]]
        stepper._t = float(state["t"])
        stepper._next_arrival = int(state["next_arrival"])
        stepper._completed = int(state["completed"])
        stepper._busy_time = float(state["busy_time"])
        stepper._events = int(state["events"])
        stepper._completions = [
            (int(raw["job_id"]), float(raw["finish"])) for raw in finished
        ]
        stepper._segments = [
            (a, b, {int(k): v for k, v in alloc.items()})
            for a, b, alloc in state["segments"]
        ]
        if state.get("faults") is not None:
            from repro.faults.timeline import FaultTimeline

            stepper.faults = FaultTimeline.from_state_dict(state["faults"])
            stepper._fault_log = [dict(e) for e in state["fault_log"]]
            stepper._lost_work = float(state["lost_work"])
            stepper._displaced_work = float(state["displaced_work"])
            stepper._requeue_log = [dict(e) for e in state["requeue_log"]]
            stepper._suspended = {int(j) for j in state["suspended"]}
        else:
            stepper.faults = None
            stepper._fault_log = []
            stepper._lost_work = 0.0
            stepper._displaced_work = 0.0
            stepper._requeue_log = []
            stepper._suspended = set()
        # a weight-aware policy already carries its restored table, but a
        # fresh push is harmless and covers policies restored without one
        stepper._weights_dirty = hasattr(policy, "set_weights")
        stepper._init_runtime_caches()
        return stepper


def simulate(
    trace: Trace,
    m: int,
    policy: Policy,
    seed: int = 0,
    config: FlowSimConfig = FlowSimConfig(),
    faults=None,
) -> ScheduleResult:
    """Run ``policy`` over ``trace`` on ``m`` processors; return the result.

    The policy is reset at the start with a dedicated random stream derived
    from ``seed``, so repeated calls are reproducible and two policies in
    the same sweep never share randomness.

    ``faults`` optionally injects a :class:`repro.faults.FaultPlan` (or an
    already-compiled single-use timeline): processors crash and recover,
    capacity degrades, jobs get aborted and resubmitted, all at the plan's
    scheduled times.  The result's ``extra["faults"]`` carries the applied
    fault log and the work lost to aborts.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if len(trace) == 0:
        return ScheduleResult(scheduler=policy.name, m=m, flow_times=np.empty(0))
    stepper = FlowStepper(m, policy, seed=seed, config=config, faults=faults)
    stepper.add_jobs(list(trace.jobs))
    stepper.perf.start()
    stepper.drain()
    stepper.perf.stop()
    return stepper.result()
