"""Shortest-Remaining-Processing-Time (SRPT).

The paper's strongest simulation baseline (Sec. V-A): clairvoyant and
preemptive, scalable — (1+eps)-speed O(1/eps)-competitive — for sequential
jobs on identical machines [Fox & Moseley, SODA 2011], and *optimal* for
fully parallel jobs (where it reduces to single-machine SRPT).  Serves the
jobs with least remaining work first, each up to its rate cap.
"""

from __future__ import annotations

import numpy as np

from repro.flowsim.policies.base import OrderSpec, Policy
from repro.flowsim.rates import priority_waterfill, priority_waterfill_scalar

__all__ = ["SRPT"]


class SRPT(Policy):
    """Serve jobs in increasing order of remaining work."""

    name = "SRPT"
    clairvoyant = True
    # incremental twin of the lexsort below: the engine keeps the
    # (remaining, id) order live across events and waterfills its head
    order_spec = OrderSpec(key="remaining")

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        # stable tie-break on job id for reproducibility
        order = np.lexsort((job_ids, remaining))
        return priority_waterfill(caps, order, m)

    def rates_scalar(self, t, m, job_ids, remaining, work, release, caps):
        return priority_waterfill_scalar(caps, remaining, m)
