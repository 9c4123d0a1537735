"""Policy interface for the flow-level simulator.

A policy maps the active jobs — aligned numpy arrays of ids, remaining
work, total work, release times and rate caps, fed straight from the
engine's buffers — to a rate vector (:meth:`Policy.rates_array`).
Stateful policies (DREP's integral processor assignment) additionally
receive arrival and completion callbacks, which see the same fields
through an :class:`ActiveView`; the engine guarantees the callback order
documented on each hook.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

import numpy as np

__all__ = ["ActiveView", "OrderSpec", "Policy"]


@dataclass(frozen=True)
class OrderSpec:
    """Declarative priority order for the engine's incremental kernels.

    A policy whose allocation is a pure function of a *sorted order* over
    the active set can declare that order here instead of re-sorting on
    every rate rebuild: the engine then maintains a persistent
    key-ordered structure (:class:`repro.flowsim.order.OrderIndex`) in
    O(log n) per admission / completion / fault eviction and feeds the
    policy's allocation from ``(inserted, removed, decremented)`` deltas
    — the sparse, incremental complement of the dense
    ``np.lexsort``-based :meth:`Policy.rates_array`, which the policy
    keeps for runs below the engine's promotion threshold
    (``FlowSimConfig.incremental_min_active``).

    ``key`` names the per-job sort key: ``"remaining"`` (SRPT — the
    engine re-keys served jobs after every segment, the *decremented*
    delta), ``"work"`` (SJF/SWF) or ``"release"`` (FIFO, LAPS).
    ``descending`` flips both the key and the job-id tie-break (LAPS
    serves latest arrivals first, ties to the higher id), matching
    ``np.lexsort((-job_ids, -key))`` exactly as the ascending form
    matches ``np.lexsort((job_ids, key))``.

    ``alloc`` selects the engine-side sparse allocator, each bit-for-bit
    equal to the dense twin by construction:

    * ``"prefix"`` — :func:`repro.flowsim.rates.priority_waterfill`
      over the order: walk the head, grant each job its cap until the
      machine is full; touches O(m) jobs.
    * ``"share_topk"`` — :func:`repro.flowsim.rates.equal_split` over
      the first ``ceil(beta * n)`` jobs of the order (``beta`` read
      from the policy instance); touches O(beta n) jobs.

    ``key="remaining"`` is accepted with the ascending ``"prefix"``
    allocation only: SRPT's form, and the one the engine's re-key is
    written for.  It re-keys the served jobs with one splice of the
    order's head (:meth:`repro.flowsim.order.OrderIndex.rekey_head`),
    which holds because the prefix walk serves the head and a served
    job's key only shrinks (negated for a descending order, it would
    grow).
    """

    key: str
    descending: bool = False
    alloc: str = "prefix"

    def __post_init__(self) -> None:
        if self.key not in ("remaining", "work", "release"):
            raise ValueError(f"unknown order key {self.key!r}")
        if self.alloc not in ("prefix", "share_topk"):
            raise ValueError(f"unknown alloc {self.alloc!r}")
        if self.key == "remaining" and (
            self.descending or self.alloc != "prefix"
        ):
            raise ValueError(
                "key='remaining' needs the ascending 'prefix' allocation"
            )


@dataclass(frozen=True)
class ActiveView:
    """Snapshot of the active jobs at one instant.

    All arrays are aligned: entry ``k`` describes the job ``job_ids[k]``
    (``job_ids`` is sorted ascending — an engine invariant).
    ``attained == work - remaining`` is the elapsed service (for SETF).
    Views are cheap, read-only conveniences; policies must not mutate
    them.  The arrays may *alias the engine's live buffers* and are only
    valid for the duration of the call that received them — a policy that
    needs data across calls must copy it.

    :attr:`id_list` is ``job_ids`` as a list of Python ints, for hooks
    that index or bisect the ids a few times: the engine's scalar loop
    answers it from its own list without building an array.  The same
    rules hold for it: read-only, and valid only during the call.
    """

    t: float
    #: processors currently *up* — shrinks below the machine size while a
    #: fault plan has crashed processors (``repro.faults``)
    m: int
    job_ids: np.ndarray
    remaining: np.ndarray
    work: np.ndarray
    release: np.ndarray
    caps: np.ndarray
    #: resource-augmentation factor: work drains at ``rate * speed``
    #: (relevant only to policies that schedule timers in absolute time)
    speed: float = 1.0

    @property
    def n(self) -> int:
        return int(self.job_ids.size)

    @property
    def id_list(self) -> list[int]:
        """``job_ids`` as a list of ints, ascending; read-only."""
        return self.job_ids.tolist()

    @property
    def attained(self) -> np.ndarray:
        return self.work - self.remaining


class Policy(abc.ABC):
    """Base class for flow-level scheduling policies.

    Lifecycle: the engine calls :meth:`reset` once per run, then
    :meth:`on_arrival` / :meth:`on_completion` as events fire, and
    :meth:`rates_array` after every event.  ``on_arrival`` is called
    *after* the new job joins the active set; ``on_completion`` *after*
    the finished job leaves it.  :meth:`next_timer` lets a policy request
    an extra event (e.g. SETF's service-level crossings); return ``None``
    for never.

    :meth:`rates_array` is the one rate rule every policy states.  Three
    optional hooks serve the engine's faster paths, each bit-for-bit equal
    to it: :meth:`rates_array_patch` for sparse updates inside folded
    passes, and :meth:`rates_scalar` (with :meth:`rates_scalar_patch`) on
    Python lists for small active sets.
    """

    #: Human-readable name used in results and plots.
    name: str = "policy"

    #: Whether the policy is clairvoyant (needs job sizes up front).  The
    #: paper stresses DREP and RR are non-clairvoyant while SRPT/SJF/SWF
    #: are not; exposed so harnesses can annotate tables.
    clairvoyant: bool = False

    #: **Rate-stability contract.**  ``True`` declares that the rate
    #: vector is a pure function of the active-set *composition* — job
    #: ids, caps, and static per-job attributes (total work, release,
    #: weight) plus any internal state mutated only inside the
    #: arrival/completion hooks.  It must NOT depend on ``remaining`` /
    #: ``attained`` service or the clock ``t``, which drift between
    #: events.  The engine then reuses the last rate vector until the
    #: active set changes (RR/equi-partition-style policies are constant
    #: between events), which makes horizon stops and segment splits in
    #: the serving layer free.  Policies whose priorities move with
    #: attained or remaining work (SRPT, SETF, MLF) must leave this
    #: ``False``.
    #:
    #: Without a timer, the contract also lets the engine fold whole runs
    #: of events between true decision points — every completion before
    #: the next arrival, and the arrivals themselves — into one pass over
    #: its flat buffers (``FlowStepper.drain`` / ``advance_to``).  A folded pass keeps the
    #: exact hook order, view contents and RNG draw sequence, so it adds
    #: one requirement: the policy must not treat the *number* of engine
    #: iterations as information (e.g. counting rate calls as a clock).
    #: Every bundled ``rates_stable`` policy meets it.
    rates_stable: bool = False

    #: **Incremental-order opt-in** (the flowsim order/calendar
    #: kernels).  A :class:`OrderSpec` declares that the policy's rate
    #: vector is fully determined by one sorted order over the active
    #: set plus an allocation shape, letting the engine maintain that
    #: order incrementally (``repro.flowsim.order.OrderIndex``) and
    #: predict completions through a lazy calendar instead of
    #: re-sorting/rescanning per event.  The spec must describe
    #: :meth:`rates_array` *exactly* — same keys, same tie-breaks, same
    #: allocation — since the engine stops calling the hook on the
    #: incremental path and the equivalence suite pins bit-for-bit
    #: equality against it.  ``None`` (the default) keeps the policy on
    #: the dense paths.
    order_spec: "OrderSpec | None" = None

    def reset(self, m: int, rng: np.random.Generator) -> None:
        """Prepare for a fresh run on an ``m``-processor machine."""

    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        """Notify that ``job_id`` just arrived (already in ``view``)."""

    def on_completion(self, job_id: int, view: ActiveView) -> None:
        """Notify that ``job_id`` just finished (absent from ``view``)."""

    def on_fault(self, event: dict, view: ActiveView) -> None:
        """Notify of a machine-state fault (``repro.faults``).

        ``event`` is a point action dict with at least ``kind`` (one of
        ``crash`` / ``recover`` / ``degrade_on`` / ``degrade_off`` /
        ``straggle_on`` / ``straggle_off``) and ``t``; crash/recover carry
        ``proc``.  ``view.m`` already reflects the post-event processor
        count.  Stateless policies can ignore faults entirely — the engine
        clips ``view.caps`` to the up-processor count and verifies rates
        against it.  Job aborts are *not* delivered here; the engine
        replays them through :meth:`on_completion` / :meth:`on_arrival` so
        assignment-tracking policies free and re-draw processors with the
        machinery they already have.
        """

    @abc.abstractmethod
    def rates_array(
        self,
        t: float,
        m: int,
        job_ids: np.ndarray,
        remaining: np.ndarray,
        work: np.ndarray,
        release: np.ndarray,
        caps: np.ndarray,
    ) -> np.ndarray:
        """Rate vector aligned with ``job_ids`` at time ``t``.

        The arguments are the active set's aligned fields (``job_ids``
        sorted ascending; ``work - remaining`` is the attained service)
        and ``m``, the processors currently up.  The contract:

        * ``0 <= rates <= caps`` elementwise and ``rates.sum() <= m``
          (the engine verifies both);
        * the input arrays alias the engine's live buffers — never mutate
          or retain them — and the result is a *fresh* array on every
          call (never a view of internal state that a later hook
          mutates): the engine may hold on to the vector across events
          when :attr:`rates_stable` permits.
        """

    def rates_array_patch(
        self, job_ids: np.ndarray, caps: np.ndarray
    ) -> list[tuple[int, float]] | None:
        """Optional sparse complement of :meth:`rates_array` (folded passes).

        At a decision point inside a folded pass (see
        :attr:`rates_stable`) the engine already holds the previous
        segment's rate vector and has
        *structurally aligned* it to the new composition — completed
        entries dropped, admitted jobs appended with rate ``0.0``, order
        still matching ``job_ids``.  A policy whose rate changes are
        local (DREP touches at most a couple of processors per event)
        can then report just the entries that moved instead of paying a
        full :meth:`rates_array` rebuild: return ``(position, rate)``
        pairs covering **every** entry whose rate may differ from that
        aligned vector, with each rate bit-for-bit equal to what
        :meth:`rates_array` would put there.  Positions index the
        ``job_ids`` passed in; ids that already left the active set must
        simply be omitted.  Over-reporting entries whose value did not
        change is harmless; under-reporting silently corrupts the run.

        Return ``None`` (the default) to force a full recompute.  The
        engine still runs the amortized ``check_every_k`` invariant
        verification on the patched vector at the exact same cadence as
        on a rebuild, so a patch is never exempt from checking.
        """
        return None

    def rates_scalar(
        self,
        t: float,
        m: int,
        job_ids: list[int],
        remaining: list[float],
        work: list[float],
        release: list[float],
        caps: list[float],
    ) -> list[float]:
        """Optional scalar twin of :meth:`rates_array` on Python lists.

        Small active sets pay numpy's per-call overhead on arrays of a
        few elements, so the engine runs plain runs (no fault plan,
        profiles, segment recording, timer or ``set_weights``) with at
        most ``repro.flowsim.engine.SCALAR_MAX_ACTIVE`` active jobs on
        Python lists and feeds them here.  The arguments are the
        :meth:`rates_array` arguments as lists (``job_ids`` ascending),
        and the contract is stricter still:

        * the returned list must be **bit-for-bit** what
          :meth:`rates_array` returns on the same values — same IEEE
          operations in the same order; ``repro.flowsim.rates`` has
          scalar twins of the shared allocation shapes, and
          :func:`~repro.flowsim.rates.dense_sum` replicates numpy's
          pairwise sums;
        * never mutate or retain the inputs; always return a fresh list.

        The engine uses the hook only when the class that defines it also
        defines :meth:`rates_array` (a subclass that overrides just the
        array hook stays on numpy) and, for a policy with a
        :meth:`rates_array_patch`, only alongside a matching
        :meth:`rates_scalar_patch`.
        """
        raise NotImplementedError(f"{self.name} has no scalar rate hook")

    def rates_scalar_patch(
        self, job_ids: list[int], caps: list[float]
    ) -> list[tuple[int, float]] | None:
        """Scalar twin of :meth:`rates_array_patch` on Python lists.

        Same contract and the same pairs, bit for bit; the engine calls it
        inside folded passes that run on the small-active-set backend.
        """
        return None

    def next_timer(self, view: ActiveView, rates: np.ndarray) -> float | None:
        """Absolute time of the next policy-requested event, if any.

        ``rates`` is the segment's rate vector, aligned with ``view``:
        the :meth:`rates_array` result the engine runs the segment on,
        so a timer need not compute it again.  Read-only.
        """
        return None

    # -- practicality accounting ------------------------------------------

    @property
    def preemptions(self) -> int:
        """Processor switches away from unfinished jobs so far (Thm 1.2)."""
        return 0

    @property
    def migrations(self) -> int:
        """Job resumptions on a different processor so far."""
        return 0

    @property
    def switches(self) -> int:
        """All processor re-assignments so far (the Theorem 1.2 O(mn)
        quantity); includes post-completion re-draws."""
        return 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(name={self.name!r})"
