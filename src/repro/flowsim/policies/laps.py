"""Latest-Arrival-Processor-Sharing (LAPS).

LAPS(beta) splits the machine equally among the ceil(beta * |A(t)|) most
recently arrived jobs.  Agrawal et al. [24] showed it is (1+eps)-speed
O(1/eps^3)-competitive for parallel DAG jobs — the best-known guarantee —
but the paper explains why it is impractical and even "difficult to
implement in the simulation": it needs the speedup parameter eps and
preempts at infinitesimal time steps (Sec. V-A).

The flow-level simulator's fractional rates make the idealized LAPS exact
between events, so we provide it as an **extension** beyond the paper's
Figure 1-2 series (experiment X1 in DESIGN.md).
"""

from __future__ import annotations

import math

import numpy as np

from repro.flowsim.policies.base import ActiveView, OrderSpec, Policy
from repro.flowsim.rates import equal_split

__all__ = ["LAPS"]


class LAPS(Policy):
    """Equal sharing among the latest-arriving ``beta`` fraction of jobs."""

    clairvoyant = False
    rates_stable = True  # the beta-fraction depends only on releases/ids
    # latest-first order, equal split over its first ceil(beta*n) jobs
    order_spec = OrderSpec(key="release", descending=True, alloc="share_topk")

    def __init__(self, beta: float = 0.5) -> None:
        if not 0 < beta <= 1:
            raise ValueError(f"beta must be in (0, 1], got {beta}")
        self.beta = beta
        self.name = f"LAPS({beta:g})"

    def rates(self, view: ActiveView) -> np.ndarray:
        return self.rates_array(
            view.t, view.m, view.job_ids, view.remaining,
            view.work, view.release, view.caps,
        )

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        n = job_ids.size
        k = max(1, math.ceil(self.beta * n))
        # latest arrivals first; job_id breaks release ties deterministically
        order = np.lexsort((-job_ids, -release))
        mask = np.zeros(n, dtype=bool)
        mask[order[:k]] = True
        return equal_split(caps, m, mask)
