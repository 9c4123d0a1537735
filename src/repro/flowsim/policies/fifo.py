"""First-In-First-Out (FIFO / First-Come-First-Served).

Not part of the paper's simulation series, but the canonical
no-preemption straw man its motivating example attacks (Sec. I,
"Challenges"): a large job that arrives first occupies the whole machine
and a burst of small jobs behind it suffers.  Included so tests and
ablations can reproduce that pathology quantitatively.
"""

from __future__ import annotations

import numpy as np

from repro.flowsim.policies.base import OrderSpec, Policy
from repro.flowsim.rates import priority_waterfill

__all__ = ["FIFO"]


class FIFO(Policy):
    """Serve jobs in arrival order, each up to its cap."""

    name = "FIFO"
    clairvoyant = False
    rates_stable = True  # priority is the static release time
    order_spec = OrderSpec(key="release")  # static keys: inserts/removes only

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        order = np.lexsort((job_ids, release))
        return priority_waterfill(caps, order, m)
