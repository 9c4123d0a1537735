"""Round-Robin / Equi-partition (RR).

The paper compares against RR because "intuitively DREP simulates RR by
uniformly and randomly partitioning cores across all active jobs"
(Sec. V-A).  RR is non-clairvoyant and (2+eps)-speed O(1/eps^2)-competitive
[Edmonds, STOC 1999], but needs continuous fractional sharing — an
unbounded number of preemptions in a real system, which is exactly the
practicality gap DREP closes.

In the flow-level simulator RR is the idealized processor-sharing limit:
capacity is split equally among all active jobs with per-job caps and
water-filled redistribution of the excess.
"""

from __future__ import annotations

from repro.flowsim.policies.base import Policy
from repro.flowsim.rates import equal_split, equal_split_scalar

__all__ = ["RoundRobin"]


class RoundRobin(Policy):
    """Equal processor sharing over all active jobs (EQUI)."""

    name = "RR"
    clairvoyant = False
    rates_stable = True  # equal split over static caps

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        return equal_split(caps, m)

    def rates_scalar(self, t, m, job_ids, remaining, work, release, caps):
        return equal_split_scalar(caps, m)
