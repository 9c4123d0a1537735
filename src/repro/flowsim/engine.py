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

There is one event loop, :meth:`FlowStepper._run`, over a flat
structure-of-arrays: the active set lives in persistent, id-sorted
parallel buffers (ids / remaining / caps / tol / work / release) that the
loop reads and updates in place — no per-event gathers against the master
job table.  What varies between runs is data inside that loop, chosen by
what the policy and the run expose: where the rates come from (the
vectorized :meth:`~repro.flowsim.policies.base.Policy.rates_array` hook
fed the buffers directly, :meth:`~repro.flowsim.policies.base.Policy.rates`
on a materialized :class:`~repro.flowsim.policies.base.ActiveView` for
policies without it, or the incremental order structures of
:mod:`repro.flowsim.order`), how the next completion is found (a scan or a
calendar), and whether one call folds a whole run of events or handles
one.  Plain runs with a small active set run the same iterations on
Python lists instead (:meth:`FlowStepper._run_scalar`, fed by
:meth:`~repro.flowsim.policies.base.Policy.rates_scalar`), where numpy's
per-call overhead would dominate arrays of a few elements; a pass
switches between the two representations as the set grows and shrinks
past :data:`SCALAR_MAX_ACTIVE`.  Policies declaring
:attr:`~repro.flowsim.policies.base.Policy.rates_stable` have their rate
vector reused until the composition of the active set changes.
``ScheduleResult.extra["perf"]`` reports what the caches did
(:class:`repro.perf.PerfCounters`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import le, truediv

import numpy as np

from repro.core.job import JobSpec, ParallelismMode
from repro.core.metrics import ScheduleResult
from repro.core.rng import RngFactory
from repro.dag.profile import ParallelismProfile
from repro.flowsim.order import CompletionCalendar, OrderIndex, sparse_sum
from repro.flowsim.policies.base import ActiveView, Policy
from repro.flowsim.rates import dense_sum, equal_split
from repro.perf.counters import PerfCounters
from repro.workloads.traces import Trace

__all__ = [
    "FlowSimConfig",
    "FlowStepper",
    "simulate",
    "FlowSimError",
    "default_max_events",
    "SCALAR_MAX_ACTIVE",
]

_RATE_TOL = 1e-7
_INF = float("inf")
#: relative clock tolerance used when admitting arrivals that are "due now"
_ADMIT_TOL = 1e-15

#: Largest active set the scalar backend (:meth:`FlowStepper._run_scalar`)
#: serves; a pass on the numpy buffers hands back at half of it.  Chosen
#: from the per-event crossover table in docs/performance.md ("Scalar
#: backend for small active sets").
SCALAR_MAX_ACTIVE = 48


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

    ``incremental_min_active`` is the promotion threshold for the
    O(log n) active-set structures, which serve policies that declare an
    :class:`~repro.flowsim.policies.base.OrderSpec`: the engine then
    maintains their priority order incrementally across admissions /
    completions / fault evictions (:class:`repro.flowsim.order.OrderIndex`),
    allocates rates by walking only the O(m) order head (or the O(beta n)
    LAPS share set), and picks the next completion from a
    lazy-invalidation calendar
    (:class:`repro.flowsim.order.CompletionCalendar`) instead of the dense
    finish-time sweep — per-event work then scales with the *change*, not
    with ``n_active``.  The run starts on the dense paths and promotes the
    first time the active set reaches this many jobs (one O(n log n) build
    from the live buffers; promotion is one-way).  Below a thousand-odd
    active jobs one C-speed ``np.lexsort`` per event beats Python-level
    order maintenance, so promoting immediately would *slow down*
    low-concurrency runs — the default sits just under the measured
    crossover (~1.5k for SRPT and FIFO alike).  ``0`` promotes at
    construction (the pure-incremental mode ``repro.perf.scaling``
    measures); a threshold above the number of jobs keeps a run dense
    throughout (the comparator of the equivalence suites).  The
    switch is unobservable in results: both paths are bit-for-bit equal,
    so a promoted run composes two identical trajectory prefixes.
    """

    completion_tol: float = 1e-9
    max_events: int | None = None
    speed: float = 1.0
    use_profiles: bool = False
    record_segments: bool = False
    check_every_k: int = 32
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

    The sparse allocation the order walk produces, ``(positions, rates,
    rsum)``, lives in the stepper's one rate cache: positions into the
    id-sorted active buffers, ascending, every rate strictly positive, so
    the positions *are* the served set.  The cache is dropped on any
    composition change, so the positions stay valid for its lifetime.
    """

    __slots__ = ("kind", "neg", "share", "beta", "order", "cal",
                 "cal_jobs", "dust")

    def __init__(self, spec, policy: Policy) -> None:
        self.kind = spec.key
        self.neg = spec.descending
        self.share = spec.alloc == "share_topk"
        self.beta = float(getattr(policy, "beta", 1.0))
        self.order = OrderIndex()
        self.cal = CompletionCalendar()
        self.cal_jobs: set[int] = set()  # jobs with a live calendar entry
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
        # iterations that ended parked at the caller's horizon: they count
        # as events but not against the Zeno budget (see _run)
        self._parked = 0
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
        # scratch backing a folded pass's aligned rate vector: shifts and
        # appends mutate it in place instead of reallocating per event
        # (no job state; dead outside one pass)
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

        # the one rate cache: ``(rates, rsum)`` on the dense paths, the
        # order walk's ``(positions, rates, rsum)`` once promoted
        self._rates_cache: tuple | None = None
        self._rate_calls = 0
        self._max_events = 0  # 0 = recompute from config/_n on next step
        cfg = self.config
        self._check_k = cfg.check_every_k
        self._speed = float(cfg.speed)
        self._use_profiles = cfg.use_profiles
        # neither profiles nor faults: static caps, full machine, base speed
        self._plain = self.faults is None and not cfg.use_profiles
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
            if ptype.rates_array is not Policy.rates_array
            else None
        )
        # sparse complement of the vectorized hook, used inside folded
        # passes only (one-event calls always rebuild)
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
        # a dense run folds many events into one _run call when nothing
        # but arrivals and completions can happen: timers interleave
        # events of their own and segment recording observes every
        # segment.  The folded pass's sparse updates rest on the
        # rates_stable contract (see Policy.rates_stable); fault plans
        # rule folding out for every run (see _run).
        self._fold_dense = (
            self._rates_stable
            and self._rates_array_fn is not None
            and not self._has_timer
            and not self._record_segments
        )
        # the scalar backend serves plain runs of a policy whose scalar
        # hooks are the twins of the array hooks it would otherwise call:
        # defined by the same class, with a scalar patch exactly when
        # there is an array patch (a subclass overriding only the array
        # hook keeps the numpy path)
        scalar_patch = ptype.rates_scalar_patch is not Policy.rates_scalar_patch
        self._scalar_ok = (
            self._plain
            and self._rates_array_fn is not None
            and not self._has_timer
            and not self._record_segments
            and not hasattr(self.policy, "set_weights")
            and ptype.rates_scalar is not Policy.rates_scalar
            and _owner(ptype, "rates_scalar") is _owner(ptype, "rates_array")
            and scalar_patch == (self._rates_patch_fn is not None)
            and (
                not scalar_patch
                or _owner(ptype, "rates_scalar_patch")
                is _owner(ptype, "rates_array_patch")
            )
        )
        self._rates_scalar_fn = (
            self.policy.rates_scalar if self._scalar_ok else None
        )
        self._scalar_patch_fn = (
            self.policy.rates_scalar_patch
            if self._scalar_ok and scalar_patch
            else None
        )
        # which representation the last pass ended on (the hysteresis
        # state of _run's choice)
        self._scalar = True
        # incremental order/calendar structures: policies declaring an
        # OrderSpec get their priority order maintained across events
        # instead of re-lexsorted per rate rebuild.  Profiles move caps
        # between events (the order alone no longer determines rates),
        # timers need views anyway, segment recording wants the dense
        # vector, and weighted policies fold a table the spec can't see
        # — all of those stay dense, as does a policy without the
        # vectorized hook (the spec describes that hook; without it the
        # rates come from rates(view)).
        spec = getattr(self.policy, "order_spec", None)
        self._inc: _IncrementalCore | None = None
        self._inc_spec = None
        if (
            spec is not None
            and self._rates_array_fn is not None
            and not self._has_timer
            and not self._use_profiles
            and not self._record_segments
            and not hasattr(self.policy, "set_weights")
        ):
            self._inc_spec = spec
        self._inc_min = int(cfg.incremental_min_active)
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

    def _view(self, t: float, na: int) -> ActiveView:
        """The :class:`ActiveView` of the first ``na`` active jobs at ``t``
        — what policy hooks, timers and the object path see."""
        self.perf.view_builds += 1
        ids = self._a_ids[:na]
        rem = self._a_rem[:na]
        if self._plain:
            caps, m_view, speed = self._a_caps[:na], self.m, self._speed
        else:
            caps, m_view, speed = self._segment_caps(ids, rem)
        return _make_view(
            t, m_view, ids, rem, self._a_work[:na], self._a_rel[:na], caps, speed
        )

    def _check_rates(
        self, rates: np.ndarray, caps: np.ndarray, m: int
    ) -> np.ndarray:
        """Full-strength invariant checks on a dense rate vector (the
        amortized cadence is the caller's); returns it clipped at zero."""
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

    def _check_rates_scalar(
        self, rates: list[float], caps: list[float], m: int
    ) -> list[float]:
        """:meth:`_check_rates` on lists: the same checks in the same
        order, the total by :func:`dense_sum`; returns the rates clipped at
        zero as ``np.clip`` clips them."""
        name = self.policy.name
        for r in rates:
            if r < -_RATE_TOL:
                raise FlowSimError(f"{name}: negative rate")
        grow = 1 + _RATE_TOL
        for r, c in zip(rates, caps):
            if r > c * grow + _RATE_TOL:
                raise FlowSimError(f"{name}: rate exceeds per-job cap")
        total = dense_sum(rates)
        if total > m * (1 + _RATE_TOL) + _RATE_TOL:
            raise FlowSimError(
                f"{name}: total rate {total:.6g} exceeds m={m}"
            )
        return [0.0 if r <= 0.0 else r for r in rates]

    def _remove_active(self, pos: int, na: int) -> None:
        """Drop the job at buffer position ``pos`` of the first ``na``,
        compacting left; the caller owns the count (and the rate cache)."""
        inc = self._inc
        if inc is not None:
            # the order holds the job's *current* key (the loop re-keys
            # served jobs before processing completions)
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
        self._a_ids[pos : na - 1] = self._a_ids[pos + 1 : na]
        self._a_blk[:, pos : na - 1] = self._a_blk[:, pos + 1 : na]

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
                    self._remove_active(pos, self._na)
                    self._na -= 1
                    self._rem[r] = self._work[r]
                    self._suspended.add(j)
                    self._rates_cache = None
                    if self._has_completion_hook:
                        self.policy.on_completion(
                            j, self._view(self._t, self._na)
                        )
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
                        self.policy.on_arrival(
                            j, self._view(self._t, self._na)
                        )
                else:
                    entry["applied"] = False
            else:
                # machine-state change: composition is intact but the
                # effective capacity moved, so the cached rates are stale
                self._rates_cache = None
                if self._has_fault_hook:
                    self.policy.on_fault(action, self._view(self._t, self._na))
            self._fault_log.append(entry)

    def step(self, horizon: float | None = None) -> bool:
        """Execute one event, optionally bounded by ``horizon``.

        Returns ``True`` if the step made (or can still make) progress,
        ``False`` when nothing can happen before ``horizon`` — the machine
        is idle with no arrival due (the clock is parked at the horizon
        when one is given).  Raises :class:`FlowSimError` on policy
        invariant violations, a stall, or an exhausted event budget.
        """
        return self._run(horizon, fold=False)

    def advance_to(self, t: float) -> None:
        """Process every event with time ≤ ``t`` and park the clock there.

        A no-op when ``t`` is not ahead of the clock (rewinding is
        impossible; the clock never moves backwards).
        """
        t = float(t)
        while self._t * (1 + _ADMIT_TOL) < t:
            if not self._run(t, fold=True):
                break

    def drain(self) -> None:
        """Step until every registered job has completed."""
        while self._completed < self._n:
            if not self._run(None, fold=True):
                break  # unreachable while jobs remain; defensive

    def _run(self, horizon: float | None, fold: bool) -> bool:
        """The event loop: one event, or a folded run of events.

        Each iteration is one event: the Zeno guard, due fault actions,
        admission of due arrivals, the idle jump when nothing is active,
        promotion to the incremental structures, the segment's rates, its
        length ``dt``, progress, and completions.  ``fold=False`` (what
        :meth:`step` passes) stops after one iteration.  ``fold=True``
        keeps iterating up to ``horizon`` (with ``None``, up to the last
        completion) where the run allows it, and takes one iteration
        where it does not; :meth:`advance_to` and :meth:`drain` loop
        either way.  A run folds only where nothing but arrivals and
        completions can interleave: promoted runs, and rates-stable dense
        runs on the vectorized hook without timers or segment recording
        (``_fold_dense``); never under a fault plan.

        The iterations run on one of two representations of the active
        set, and one pass may switch between them at any iteration:

        * :meth:`_run_scalar` keeps it in Python lists and computes each
          event on Python floats through :meth:`Policy.rates_scalar`.  It
          serves plain runs (no fault plan, profiles, segment recording,
          timer or ``set_weights``) of a policy with that hook while at
          most :data:`SCALAR_MAX_ACTIVE` jobs are active: below that size
          numpy's per-call overhead dominates every array operation;
        * :meth:`_run_array` works on the numpy buffers and covers every
          run.  A pass on it hands back to the lists once the active set
          has shrunk to half the threshold (the hysteresis keeps a run
          hovering at the threshold from converting on every event).

        What differs between runs is data inside the loops, chosen by
        what the loop can observe:

        * rates come from the cached vector (patched in place through
          :meth:`Policy.rates_array_patch` inside a folded pass), from
          :meth:`Policy.rates_array`, from :meth:`Policy.rates` for
          policies without the vectorized hook, or — once promoted —
          from the order walk (:meth:`_inc_build_alloc`);
        * the next completion comes from a finish-time scan (gathered to
          the served entries when they are few, inside a folded pass) or
          from the :class:`CompletionCalendar`;
        * finished jobs come from the ``rem <= tol`` mask or from the
          served set plus the dust set.

        Every choice is bit-for-bit equal to the others (the golden and
        equivalence suites pin it), so they change the cost of a run,
        never its trajectory, RNG draws or :class:`PerfCounters`.
        Completions are removed lowest job id first and each completion
        hook sees the active set *after* its own removal — the paper's
        semantics, where a freed DREP processor re-draws from the jobs
        still alive.  Hot state lives in locals for the pass and is
        flushed back in ``finally``.

        The event budget guards against Zeno loops, so an iteration that
        ends with the clock parked at the caller's horizon does not count
        against it (``events`` still counts it): a live server's clock
        ticks would otherwise use it up however idle the server is.  Each
        call parks at most once.

        Returns ``True`` while progress was made, ``False`` when nothing
        can happen before ``horizon`` (the clock is parked there when one
        is given).
        """
        if self._weights_dirty:
            self._push_weights()
        max_events = self._max_events
        if not max_events:
            max_events = self.config.max_events or default_max_events(self._n)
            if self.faults is not None:
                # each fault point costs O(1) extra events (segment split,
                # re-rate, possible resume); 8x is far above the worst case
                max_events += 8 * self.faults.n_points + 64
            self._max_events = max_events
        if (
            self._inc_spec is not None
            and self._inc is None
            and self._na >= self._inc_min
        ):
            self._inc_promote()
        fold = fold and self.faults is None and (
            self._inc is not None or self._fold_dense
        )
        limit = max_events + self._parked
        top = SCALAR_MAX_ACTIVE
        scalar = (
            self._scalar_ok
            and self._inc is None
            and self._na <= (top if self._scalar else top // 2)
        )
        perf = self.perf
        folded0 = perf.batch_events_folded
        # the folded pass's aligned rate vector (see _run_array) crosses
        # a switch of representation with the pass.  The rate cache never
        # has to: a pass switches only right after the composition changed
        # (admissions on the way up, completions on the way down), which
        # drops the cache, and a call starts on the representation the
        # previous one ended on except after such a change
        vec = None
        mid = False
        try:
            while True:
                if scalar:
                    ret, vec = self._run_scalar(horizon, fold, limit, vec)
                else:
                    ret, vec = self._run_array(horizon, fold, limit, vec, mid)
                if ret is not None:
                    break
                # the scalar loop hands over right after admissions (the
                # array loop finishes that iteration), the array loop at
                # an iteration boundary
                mid = scalar
                scalar = not scalar
                if vec is not None:
                    if scalar:
                        vec = vec.tolist()
                    else:
                        k = len(vec)
                        self._vec_buf[:k] = vec
                        vec = self._vec_buf[:k]
        finally:
            self._scalar = scalar
            if fold and perf.batch_events_folded != folded0:
                perf.batch_jumps += 1
        if horizon is not None and not (self._t * (1 + _ADMIT_TOL) < horizon):
            self._parked += 1
        return ret

    def _run_scalar(
        self, horizon: float | None, fold: bool, limit: int, vec: list | None
    ) -> tuple[bool | None, list | None]:
        """:meth:`_run`'s iterations on Python lists (small plain runs).

        Loads the active set from the buffers into lists on entry and runs
        the same iterations as :meth:`_run_array` does on a plain run, op
        for op on Python floats: a stable sort for ``np.lexsort``,
        :func:`~repro.flowsim.rates.dense_sum` for ``np.add.reduce``,
        progress on the served entries only (an unserved entry's
        ``rem - 0.0 * dt`` is ``rem``).  The buffers follow every
        admission and removal as they happen; the remaining-work column,
        which moves with every segment, is written back before a hook
        builds its view and before returning.

        Returns ``(ret, vec)`` with ``ret`` as :meth:`_run` returns it, or
        ``None`` when admissions took the active set past
        :data:`SCALAR_MAX_ACTIVE` (or, in a one-event call, to the
        promotion threshold): the buffers are then current and the array
        loop finishes the iteration.
        """
        perf = self.perf
        policy = self.policy
        m = self.m
        n = self._n
        base = self._base
        speed = self._speed
        fn = self._rates_scalar_fn
        patch_fn = self._scalar_patch_fn if fold else None
        stable = self._rates_stable
        has_arrival = self._has_arrival_hook
        has_completion = self._has_completion_hook
        check_k = self._check_k
        admit_mul = 1.0 + _ADMIT_TOL
        # an order-spec policy below the promotion threshold (see
        # _run_array)
        watch = self._inc_spec is not None
        inc_min = self._inc_min
        top = SCALAR_MAX_ACTIVE
        a_ids = self._a_ids
        a_rem = self._a_rem
        a_caps = self._a_caps
        a_tol = self._a_tol
        a_work = self._a_work
        a_rel = self._a_rel
        a_blk = self._a_blk
        release = self._release
        work_all = self._work
        caps_all = self._caps_all
        tol_all = self._tol
        rem_all = self._rem
        flow = self._flow
        completions = self._completions
        na = self._na
        ids = a_ids[:na].tolist()
        rem, caps, tol, work, rel = a_blk[:, :na].tolist()
        ev = self._events
        t = self._t
        ja = self._next_arrival
        next_rel = self._next_rel
        cache = self._rates_cache
        busy = self._busy_time
        completed = self._completed
        rate_calls = self._rate_calls
        c_miss = c_hit = c_run = c_skip = c_reuse = c_patch = 0
        folded = 0
        # every completion scan of the pass after the first full one
        # covers the served entries (see _run_array's ``fresh``)
        fresh = True
        # the rem list is ahead of the buffer column
        moved = False
        ret = True
        try:
            while True:
                if watch and fold and na >= inc_min:
                    break
                ev += 1
                folded += 1
                if ev > limit:
                    raise FlowSimError(
                        f"{policy.name}: exceeded {self._max_events} events "
                        f"({completed}/{n} jobs done at t={t:.6g})"
                        " — Zeno loop?"
                    )

                # ---- admit arrivals due now ---------------------------
                thresh = t * admit_mul
                if next_rel <= thresh:
                    na0 = na
                    while ja < n and next_rel <= thresh:
                        r = ja - base
                        w = work_all[r]
                        c = caps_all[r]
                        tl = tol_all[r]
                        rl = release[r]
                        a_ids[na] = ja
                        a_rem[na] = w
                        a_caps[na] = c
                        a_tol[na] = tl
                        a_work[na] = w
                        a_rel[na] = rl
                        w = float(w)
                        ids.append(ja)
                        rem.append(w)
                        caps.append(float(c))
                        tol.append(float(tl))
                        work.append(w)
                        rel.append(float(rl))
                        na += 1
                        rem_all[r] = w
                        ja += 1
                        next_rel = float(release[ja - base]) if ja < n else _INF
                        if has_arrival:
                            if moved:
                                a_rem[:na] = rem
                                moved = False
                            policy.on_arrival(ja - 1, self._view(t, na))
                    cache = None
                    fresh = True
                    if vec is not None:
                        # in place: ``vec`` may be the list the dropped
                        # cache held, which nothing reads any more
                        vec += [0.0] * (na - na0)
                    if na > top or (watch and not fold and na >= inc_min):
                        ret = None
                        break

                if not na:
                    nxt = next_rel
                    if nxt == _INF:
                        if horizon is not None:
                            t = max(t, float(horizon))
                        ret = False
                        break
                    if horizon is not None and nxt > horizon * admit_mul:
                        t = max(t, float(horizon))
                        ret = False
                        break
                    t = max(t, nxt)
                    if fold and (horizon is None or t * admit_mul < horizon):
                        continue
                    break

                # ---- constant-rate segment until the next event -------
                if cache is not None:
                    c_hit += 1
                    rates, rsum = cache
                else:
                    c_miss += 1
                    calls = rate_calls
                    rate_calls = calls + 1
                    rates = None
                    if vec is not None:
                        pairs = patch_fn(ids, caps)
                        if pairs is not None:
                            for p, val in pairs:
                                vec[p] = val
                            rates = vec
                            c_patch += 1
                    if rates is None:
                        rates = fn(t, m, ids, rem, work, rel, caps)
                    if len(rates) != na:
                        raise FlowSimError(
                            f"{policy.name}: rates shape ({len(rates)},) "
                            f"!= ({na},)"
                        )
                    if not calls % check_k:
                        rates = self._check_rates_scalar(rates, caps, m)
                        c_run += 1
                    else:
                        c_skip += 1
                    rsum = dense_sum(rates)
                    if stable:
                        cache = (rates, rsum)
                c_reuse += 1
                if patch_fn is not None:
                    vec = rates
                eff = rates if speed == 1.0 else [e * speed for e in rates]
                if min(eff) > 0:
                    served = None  # all (RR always, others while caps fit)
                    dt = min(map(truediv, rem, eff))
                else:
                    served = []
                    dt = _INF
                    for k, e in enumerate(eff):
                        if e > 0:
                            served.append(k)
                            q = rem[k] / e
                            if q < dt:
                                dt = q
                if ja < n:
                    dt_arr = next_rel - t
                    if dt_arr < dt:
                        dt = dt_arr
                if horizon is not None and horizon > t:
                    dt_hor = float(horizon) - t
                    if dt_hor < dt:
                        dt = dt_hor

                if dt == _INF:
                    if horizon is not None:
                        ret = False  # parked at the horizon with idle-rate jobs
                        break
                    raise FlowSimError(
                        f"{policy.name}: stalled at t={t:.6g} with "
                        f"{na} active jobs, zero rates and no "
                        "future events"
                    )
                if dt < 0:
                    raise FlowSimError(f"{policy.name}: negative time step {dt}")

                if dt > 0:
                    if served is None:
                        rem = [r - e * dt for r, e in zip(rem, eff)]
                        moved = True
                    elif served:
                        for k in served:
                            rem[k] -= eff[k] * dt
                        moved = True
                    busy += rsum * dt
                    t += dt

                # ---- completions, lowest job id first -----------------
                if fresh or served is None:
                    fresh = False
                    done = (
                        [k for k in range(na) if rem[k] <= tol[k]]
                        if any(map(le, rem, tol))
                        else ()
                    )
                else:
                    done = [k for k in served if rem[k] <= tol[k]]
                if done:
                    for k, p in enumerate(done):
                        p -= k  # shifted left by the k removals before it
                        j = ids[p]
                        r = j - base
                        rem_all[r] = rem[p]
                        flow[r] = t - rel[p]
                        del ids[p], rem[p], caps[p], tol[p], work[p], rel[p]
                        a_ids[p : na - 1] = a_ids[p + 1 : na]
                        a_blk[:, p : na - 1] = a_blk[:, p + 1 : na]
                        na -= 1
                        if vec is not None:
                            del vec[p]
                        completed += 1
                        completions.append((j, t))
                        if has_completion:
                            if moved:
                                a_rem[:na] = rem
                                moved = False
                            policy.on_completion(j, self._view(t, na))
                    cache = None

                if not fold:
                    break
                if horizon is not None:
                    if not (t * admit_mul < horizon):
                        break
                elif completed == n:
                    break
        finally:
            if moved:
                a_rem[:na] = rem
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
            perf.batch_rate_patches += c_patch
            if fold and folded:
                perf.batch_events_folded += folded
        return ret, vec

    def _run_array(
        self,
        horizon: float | None,
        fold: bool,
        limit: int,
        vec: np.ndarray | None,
        mid: bool,
    ) -> tuple[bool | None, np.ndarray | None]:
        """:meth:`_run`'s iterations on the numpy buffers (every run).

        ``mid`` enters right after the admissions of an iteration the
        scalar loop began.  Returns ``(ret, vec)`` with ``ret`` as
        :meth:`_run` returns it, or ``None`` when the pass should go on
        in :meth:`_run_scalar`: the active set of a run it serves has
        shrunk to ``SCALAR_MAX_ACTIVE // 2``.
        """
        inc = self._inc
        faults = self.faults
        # an order-spec policy still below the promotion threshold: a
        # folded pass ends at the iteration boundary where admissions have
        # crossed it (the caller's next pass promotes on entry), a
        # one-event call promotes in place right after admission
        watch = self._inc_spec is not None and inc is None
        inc_min = self._inc_min
        down = self._scalar_ok and inc is None
        low = SCALAR_MAX_ACTIVE // 2
        perf = self.perf
        policy = self.policy
        m = self.m
        n = self._n
        # master rows are stored base-relative; stable for the whole pass
        # (harvest() only runs between passes)
        base = self._base
        speed0 = self._speed
        # ``speed`` folds resource augmentation (Sec. II) together with the
        # current fault speed factor (degradation, stragglers), and
        # ``m_view`` counts the processors up; both are piecewise-constant
        # between events and only move in a run that is not plain
        m_view = m
        speed = speed0
        plain = self._plain
        fn = self._rates_array_fn
        patch_fn = self._rates_patch_fn if fold else None
        stable = self._rates_stable
        has_arrival = self._has_arrival_hook
        has_completion = self._has_completion_hook
        has_timer = self._has_timer
        profiles = self._use_profiles
        record = self._record_segments
        check_k = self._check_k
        admit_mul = 1.0 + _ADMIT_TOL
        a_ids = self._a_ids
        a_rem = self._a_rem
        a_caps = self._a_caps
        a_tol = self._a_tol
        a_work = self._a_work
        a_rel = self._a_rel
        a_blk = self._a_blk
        a_fin = self._a_fin
        vbuf = self._vec_buf
        flow = self._flow
        release = self._release
        work_all = self._work
        caps_all = self._caps_all
        tol_all = self._tol
        rem_all = self._rem
        completions = self._completions
        radd = np.add.reduce
        rmin = np.minimum.reduce
        ev = self._events
        t = self._t
        na = self._na
        ja = self._next_arrival
        next_rel = self._next_rel
        cache = self._rates_cache
        busy = self._busy_time
        completed = self._completed
        rate_calls = self._rate_calls
        c_miss = c_hit = c_run = c_skip = c_reuse = c_patch = 0
        folded = 0
        # a pass starts from unknown state (a horizon-parked step may have
        # admitted jobs without a completion scan), so the first dense
        # completion scan always covers the whole active set
        fresh = True
        # ``vec``: the previous segment's rate vector, kept *structurally
        # aligned* with the active buffers across admissions/completions
        # so the policy's rates_array_patch can update it sparsely; None
        # until the pass's first full compute (or always, outside a folded
        # pass)
        ret = True
        try:
            while True:
                if mid:
                    mid = False
                else:
                    if down and na <= low:
                        ret = None
                        break
                    if watch and fold and na >= inc_min:
                        break
                    ev += 1
                    folded += 1
                    if ev > limit:
                        raise FlowSimError(
                            f"{policy.name}: exceeded {self._max_events} events "
                            f"({completed}/{n} jobs done at t={t:.6g})"
                            " — Zeno loop?"
                        )

                    # ---- faults due now (before arrivals: a processor that
                    # crashed at t is already gone when a job arriving at t
                    # draws).  Fault runs never fold, so this is the pass's
                    # first iteration and the stepper's own fields are current.
                    if faults is not None:
                        self._apply_due_faults()
                        na = self._na
                        cache = self._rates_cache

                    # ---- admit arrivals due now ---------------------------
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
                            if inc is not None:
                                wf = float(w)
                                inc.order.insert(
                                    *inc.key_tie(ja, wf, wf, float(release[r]))
                                )
                                if w <= tol_all[r]:
                                    inc.dust.append(ja)
                            ja += 1
                            next_rel = float(release[ja - base]) if ja < n else _INF
                            if has_arrival:
                                policy.on_arrival(ja - 1, self._view(t, na))
                        cache = None
                        fresh = True
                        if vec is not None:
                            # admissions append at the end (ids are handed
                            # out in sorted order) with rate 0 until the
                            # patch says otherwise; vec stays a prefix view
                            # of the scratch, so this is one in-place fill
                            vbuf[na0:na] = 0.0
                            vec = vbuf[:na]

                if not na:
                    nxt = next_rel
                    if faults is not None:
                        # a pending fault point (recover, job resume) can
                        # be the only future event — without it, drain()
                        # would deadlock on a suspended job
                        ft = faults.next_time()
                        if ft is not None and ft < nxt:
                            nxt = float(ft)
                    if nxt == _INF:
                        # nothing active, nothing to come
                        if horizon is not None:
                            t = max(t, float(horizon))
                        ret = False
                        break
                    if horizon is not None and nxt > horizon * admit_mul:
                        # the next event is beyond the horizon: park there
                        t = max(t, float(horizon))
                        ret = False
                        break
                    # the idle jump is an event of its own; the next
                    # iteration admits
                    t = max(t, nxt)
                    if fold and (horizon is None or t * admit_mul < horizon):
                        continue
                    break

                if watch and not fold and na >= inc_min:
                    self._na = na
                    self._inc_promote()
                    inc = self._inc
                    watch = down = False
                    cache = None

                # ---- constant-rate segment until the next event -------
                ids = a_ids[:na]
                rem = a_rem[:na]
                view: ActiveView | None = None
                if not plain:
                    if inc is None:
                        caps, m_view, speed = self._segment_caps(ids, rem)
                    else:
                        # the order walk clips caps to m_view itself
                        m_view = faults.m_eff()
                        speed = speed0 * faults.speed_factor()
                if m_view <= 0:
                    # every processor is down: nothing runs until a
                    # recovery, which is on the fault agenda — no rate
                    # compute, no check-cadence tick
                    cache = None
                    if inc is not None:
                        cur = (np.empty(0, dtype=np.int64), np.empty(0), 0.0)
                    else:
                        cur = (np.zeros(na, dtype=float), 0.0)
                elif cache is not None:
                    c_hit += 1
                    cur = cache
                else:
                    c_miss += 1
                    calls = rate_calls
                    rate_calls = calls + 1
                    # amortized verification: first compute and every
                    # check_k-th after it (the shape gate is always on)
                    check = not calls % check_k
                    if inc is not None:
                        cur = self._inc_build_alloc(na, m_view)
                        if check:
                            self._inc_check_alloc(cur, na, m_view)
                    else:
                        if plain:
                            caps = a_caps[:na]
                        rates = None
                        if vec is not None:
                            # the policy reports only the entries that
                            # moved (bit-equal to a full rebuild by the
                            # rates_array_patch contract)
                            pairs = patch_fn(ids, caps)
                            if pairs is not None:
                                for p, val in pairs:
                                    vec[p] = val
                                rates = vec
                                c_patch += 1
                        if rates is None:
                            if fn is not None:
                                rates = fn(
                                    t, m_view, ids, rem,
                                    a_work[:na], a_rel[:na], caps,
                                )
                            else:
                                view = self._view(t, na)
                                caps = view.caps
                                rates = policy.rates(view)
                            rates = np.asarray(rates, dtype=float)
                        if rates.shape != (na,):
                            raise FlowSimError(
                                f"{policy.name}: rates shape {rates.shape} "
                                f"!= ({na},)"
                            )
                        if check:
                            rates = self._check_rates(rates, caps, m_view)
                        cur = (rates, float(radd(rates)))
                    if check:
                        c_run += 1
                    else:
                        c_skip += 1
                    if stable:
                        cache = cur
                if view is None:
                    # the rates came off the flat buffers — no ActiveView
                    # materialized (the SoA fast path)
                    c_reuse += 1

                if inc is not None:
                    # sparse allocation: positions into the id-sorted
                    # buffers, ascending, every rate strictly positive
                    sp, rates, rsum = cur
                    ns = sp.size
                    cal = inc.cal
                    if ns:
                        rem_s = rem[sp]
                        eff_s = rates * speed if speed != 1.0 else rates
                        served_ids = ids[sp].tolist()
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
                        dt = _INF
                else:
                    rates, rsum = cur
                    if patch_fn is not None and rates is not vec:
                        # a fresh array reached us (full rebuild, check
                        # clip, or a cache carried over from an earlier
                        # call): copy it into the scratch so the shifts
                        # below can mutate it in place
                        vbuf[:na] = rates
                        vec = vbuf[:na]
                    eff = rates * speed if speed != 1.0 else rates
                    served = eff > 0
                    # where the served set is much smaller than the
                    # active set (DREP gives out at most m processors),
                    # a folded pass gathers the few served entries
                    # instead of sweeping all na — bitwise the same,
                    # since an eff == 0 entry is exactly unchanged by
                    # the progress update (the rates_stable contract
                    # rules out negative rates)
                    sp = None
                    if fold and na >= 32:
                        s = served.nonzero()[0]
                        if 4 * s.size <= na:
                            sp = s
                            ns = s.size
                            eff_s = eff[sp]
                    if sp is not None:
                        dt = float(rmin(rem[sp] / eff_s)) if ns else _INF
                    else:
                        # finish time rem/eff where served, +inf where
                        # idle: one masked divide into a persistent
                        # scratch row
                        finish = a_fin[:na]
                        finish[:] = _INF
                        np.divide(rem, eff, out=finish, where=served)
                        dt = float(rmin(finish))
                    if has_timer:
                        if view is None:
                            view = self._view(t, na)
                        timer = policy.next_timer(view)
                        if timer is not None and timer > t:
                            dt_timer = float(timer) - t
                            if dt_timer < dt:
                                dt = dt_timer
                    if profiles:
                        # stop exactly at the next parallelism-profile
                        # breakpoint of any served job so its cap change
                        # takes effect on time
                        tol_rel = self.config.completion_tol
                        for k in np.flatnonzero(served):
                            r = int(ids[k]) - base
                            prof = self._profiles[r]
                            if prof is None:
                                continue
                            tol = tol_rel * max(1.0, work_all[r])
                            attained = max(0.0, work_all[r] - rem[k])
                            brk = prof.next_break_after(attained, tol=tol)
                            if brk is not None:
                                dt_brk = float((brk - attained) / eff[k])
                                if dt_brk < dt:
                                    dt = dt_brk
                if ja < n:
                    dt_arr = next_rel - t
                    if dt_arr < dt:
                        dt = dt_arr
                if faults is not None:
                    # stop exactly at the next fault point so m(t) and the
                    # speed factor change on time (keeps the run exact)
                    ft = faults.next_time()
                    if ft is not None and ft > t:
                        dt_f = float(ft) - t
                        if dt_f < dt:
                            dt = dt_f
                if horizon is not None and horizon > t:
                    dt_hor = float(horizon) - t
                    if dt_hor < dt:
                        dt = dt_hor

                if dt == _INF:
                    if horizon is not None:
                        ret = False  # parked at the horizon with idle-rate jobs
                        break
                    raise FlowSimError(
                        f"{policy.name}: stalled at t={t:.6g} with "
                        f"{na} active jobs, zero rates and no "
                        "future events"
                    )
                if dt < 0:
                    raise FlowSimError(f"{policy.name}: negative time step {dt}")

                if dt > 0:
                    # ``rem`` is the live buffer slice: progress is applied
                    # in place, no gather/scatter against the job table
                    if sp is None:
                        rem -= eff * dt
                    elif ns:
                        rem[sp] -= eff_s * dt
                    # processor-time, not work
                    busy += rsum * dt
                    if record:
                        alloc = {
                            int(j): float(r) for j, r in zip(ids, rates) if r > 0
                        }
                        self._segments.append((t, t + dt, alloc))
                    t += dt
                    if inc is not None and ns and inc.kind == "remaining":
                        # the decremented delta: re-key every served job
                        # so the order tracks live remaining work (SRPT);
                        # pre-update keys come from the gather taken
                        # before the scatter
                        order = inc.order
                        neg = inc.neg
                        olds = rem_s.tolist()
                        news = rem[sp].tolist()
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

                # ---- completions: positions of finished jobs, ascending
                if inc is not None:
                    # served ∪ dust covers every candidate: a non-dust
                    # job's rem only moves while it is served
                    dpos = sp[rem[sp] <= a_tol[:na][sp]].tolist() if ns else []
                    if inc.dust:
                        seen = set(dpos)
                        for j in inc.dust:
                            # a fault eviction may have removed a dust job
                            # before any segment ran; stale entries drop
                            p = int(ids.searchsorted(j))
                            if p < na and ids[p] == j and p not in seen:
                                dpos.append(p)
                                seen.add(p)
                        inc.dust.clear()
                        dpos.sort()
                elif sp is not None and not fresh:
                    # off the served set nothing moved since the last
                    # full scan, so nothing there can have finished
                    dpos = sp[rem[sp] <= a_tol[:na][sp]] if ns else sp
                else:
                    dpos = (rem <= a_tol[:na]).nonzero()[0]
                    fresh = False
                n_done = len(dpos)
                if n_done > 1 and inc is None and not has_completion:
                    # nobody to notify: compact every finished entry in
                    # one pass
                    keep = np.ones(na, dtype=bool)
                    keep[dpos] = False
                    done = ids[dpos]
                    rem_all[done - base] = rem[dpos]
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
                elif n_done:
                    for k, p in enumerate(dpos if inc is not None else dpos.tolist()):
                        p -= k  # shifted left by the k removals before it
                        j = int(a_ids[p])
                        r = j - base
                        # park the final (dust) remaining value in the
                        # master column so checkpoints and observers see
                        # what the buffers saw
                        rem_all[r] = a_rem[p]
                        if inc is not None:
                            # order/calendar sync plus the compaction
                            self._remove_active(p, na)
                        else:
                            a_ids[p : na - 1] = a_ids[p + 1 : na]
                            a_blk[:, p : na - 1] = a_blk[:, p + 1 : na]
                        na -= 1
                        if vec is not None:
                            vbuf[p:na] = vbuf[p + 1 : na + 1]
                            vec = vbuf[:na]
                        flow[r] = t - release[r]
                        completed += 1
                        completions.append((j, t))
                        if has_completion:
                            policy.on_completion(j, self._view(t, na))
                    cache = None

                if not fold:
                    break
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
            perf.batch_rate_patches += c_patch
            if fold and folded:
                perf.batch_events_folded += folded
            if self._inc is not None:
                self._inc_sync_perf()
        return ret, vec

    # -- incremental (O(log n)) structures ---------------------------------

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
        # the dense vector gives way to the order walk's allocation
        self._rates_cache = None

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
                "incremental_min_active": self.config.incremental_min_active,
            },
            "t": self._t,
            "n_jobs": self._n,
            "next_arrival": self._next_arrival,
            "completed": self._completed,
            "busy_time": self._busy_time,
            "events": self._events,
            "parked": self._parked,
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
        cfg = _config_from_state(state["config"])
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
        # snapshots from before the Zeno budget exempted parked iterations
        stepper._parked = int(state.get("parked", 0))
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


def _owner(cls: type, name: str) -> type | None:
    """The class in ``cls``'s MRO whose body defines ``name``."""
    for klass in cls.__mro__:
        if name in vars(klass):
            return klass
    return None


#: switches older snapshots carry: the engine always runs with them on
#: (it picks its paths by capability), so ``True`` is the only value a
#: checkpoint can still mean
_RETIRED_CONFIG_KEYS = ("use_rates_array", "use_batch_horizon", "use_incremental")


def _config_from_state(raw: dict) -> FlowSimConfig:
    """Rebuild a :class:`FlowSimConfig` from checkpointed plain data,
    raising :class:`FlowSimError` on anything it cannot mean."""
    raw = dict(raw)
    for key in _RETIRED_CONFIG_KEYS:
        if key in raw and raw.pop(key) is not True:
            raise FlowSimError(
                f"checkpoint config sets the retired switch {key} off; "
                "the engine only runs with it on"
            )
    unknown = sorted(set(raw) - {f.name for f in fields(FlowSimConfig)})
    if unknown:
        raise FlowSimError(f"checkpoint config has unknown keys {unknown}")
    try:
        return FlowSimConfig(**raw)
    except (TypeError, ValueError) as exc:
        raise FlowSimError(f"checkpoint config is invalid: {exc}") from exc


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
