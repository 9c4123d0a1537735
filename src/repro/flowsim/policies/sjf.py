"""Shortest-Job-First (SJF) and its parallel generalization SWF.

SJF serves the jobs with smallest *total* work first (clairvoyant, but —
unlike SRPT — its priorities are static).  For parallel jobs the paper
calls the same rule Smallest-Work-First (SWF) [24]: the job with the
smallest work receives as many processors as it can use.  Both are the
same water-fill with priority = total work, so one class covers the SJF
series in Figure 1 and the SWF series in Figure 2.
"""

from __future__ import annotations

import numpy as np

from repro.flowsim.policies.base import ActiveView, OrderSpec, Policy
from repro.flowsim.rates import priority_waterfill

__all__ = ["SJF", "SWF"]


class SJF(Policy):
    """Serve jobs in increasing order of total work."""

    name = "SJF"
    clairvoyant = True
    rates_stable = True  # priority is the static total work
    order_spec = OrderSpec(key="work")  # static keys: inserts/removes only

    def rates(self, view: ActiveView) -> np.ndarray:
        order = np.lexsort((view.job_ids, view.work))
        return priority_waterfill(view.caps, order, view.m)

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        order = np.lexsort((job_ids, work))
        return priority_waterfill(caps, order, m)


class SWF(SJF):
    """Smallest-Work-First — SJF under its parallel-jobs name (Sec. V)."""

    name = "SWF"
