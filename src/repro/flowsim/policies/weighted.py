"""Weighted flow time policies (extension beyond the paper).

The paper's objective is unweighted average flow; the natural
generalization weights each job's waiting by an importance ``w_i`` and
minimizes ``Σ w_i (f_i - r_i)``.  Standard preemptive heuristics:

* :class:`HDF` — Highest Density First: static priority ``w_i / W_i``
  (the preemptive analogue of weighted-shortest-processing-time);
* :class:`WSRPT` — Weighted SRPT: dynamic priority ``w_i / remaining_i``;
* :class:`WDrep` — weighted DREP: on an arrival each processor switches
  with probability ``w_new / W_active`` (the newcomer's share of the
  total active weight) and completion re-draws pick a job with
  probability proportional to its weight.  With unit weights this is
  exactly the paper's DREP; the expected processor share of job ``j``
  becomes ``m · w_j / W_active``, a weighted equi-partition.

``WDrep`` keeps DREP's practicality: preemptions happen only on arrivals
and the expected number per arrival is ``m · w_new / W_active ≤ m``
(still one when weights are balanced).
"""

from __future__ import annotations

import numpy as np

from repro.flowsim.policies.base import ActiveView, Policy
from repro.flowsim.policies.drep import (
    _DOWN,
    _FREE,
    _DrepBase,
    _one_proc_rates_arr,
    _unassigned_ids,
)
from repro.flowsim.rates import priority_waterfill

__all__ = ["HDF", "WSRPT", "WDrep"]


class _WeightAware(Policy):
    """Mixin: policies that need per-job weights from the trace.

    The engine exposes weights via ``set_weights`` before the run; the
    rate hook sees only ids, so weighted policies index this table.
    """

    def __init__(self) -> None:
        self._weights: np.ndarray | None = None

    def set_weights(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=float)

    def _weights_for(self, job_ids: np.ndarray) -> np.ndarray:
        if self._weights is None:
            return np.ones(job_ids.size)
        return self._weights[job_ids]


class HDF(_WeightAware):
    """Serve jobs in decreasing static density ``weight / work``."""

    name = "HDF"
    clairvoyant = True
    rates_stable = True  # density uses static weight / total work

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        density = self._weights_for(job_ids) / work
        order = np.lexsort((job_ids, -density))
        return priority_waterfill(caps, order, m)


class WSRPT(_WeightAware):
    """Serve jobs in decreasing dynamic density ``weight / remaining``."""

    name = "WSRPT"
    clairvoyant = True

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        rem = np.maximum(remaining, 1e-300)
        density = self._weights_for(job_ids) / rem
        order = np.lexsort((job_ids, -density))
        return priority_waterfill(caps, order, m)


class WDrep(_DrepBase):
    """Weight-proportional DREP (sequential-job form).

    Reduces to :class:`~repro.flowsim.policies.drep.DrepSequential` when
    every weight is 1.
    """

    name = "WDREP"

    def __init__(self) -> None:
        super().__init__()
        self._weights: np.ndarray | None = None

    def set_weights(self, weights: np.ndarray) -> None:
        self._weights = np.asarray(weights, dtype=float)

    def _weight(self, job_id: int) -> float:
        if self._weights is None:
            return 1.0
        return float(self._weights[job_id])

    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        assignment = self._assignment
        assert assignment is not None and self._rng is not None
        if self._n_assigned + self._n_down < len(assignment):
            self._move([assignment.index(_FREE)], [job_id], preempt=False)
            return
        if self._weights is None:
            total = float(view.n)
            share = 1.0 / total
        else:
            total = float(self._weights[view.job_ids].sum())
            share = self._weight(job_id) / total
        if self._n_down:
            # crashed processors flip no coins (as in DrepSequential)
            up = [p for p, j in enumerate(assignment) if j != _DOWN]
            flips = self._rng.random_list(len(up))
            winners = [p for p, u in zip(up, flips) if u < share]
        else:
            flips = self._rng.random_list(len(assignment))
            winners = [p for p, u in enumerate(flips) if u < share]
        if not winners:
            return
        proc = winners[self._rng.index(len(winners))]
        self._move([proc], [job_id], preempt=True)

    def on_completion(self, job_id: int, view: ActiveView) -> None:
        freed = self._release_procs_of(job_id)
        if freed:
            (proc,) = freed  # a sequential job holds at most one processor
            self._redraw_recovered(proc, view)

    def _redraw_recovered(self, proc: int, view: ActiveView) -> None:
        """Seat the free ``proc`` on a weighted draw from the jobs without
        a processor (a completion's rule, and a recovery's); it stays
        free when there is none."""
        assert self._assignment is not None and self._rng is not None
        unassigned = _unassigned_ids(view.id_list, self._procs_of)
        if not unassigned:
            return
        if self._weights is None:
            pick = unassigned[self._rng.index(len(unassigned))]
        else:
            ids = np.array(unassigned, dtype=np.int64)
            w = self._weights[ids]
            p = w / w.sum()
            # a sized draw: the stream syncs the generator and delegates
            pick = int(self._rng.choice(ids, p=p))
        self._move([int(proc)], [pick], preempt=False)

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        assert self._assignment is not None
        self._rate_dirty.clear()
        return _one_proc_rates_arr(job_ids, caps, self._procs_of)
