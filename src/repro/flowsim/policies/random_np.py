"""Random non-preemptive order — the null control for DREP's randomness.

DREP is random too, but its randomness is *disciplined*: the coin fires
exactly at arrivals with load-adaptive probability, and completions
re-draw uniformly.  This policy strips the discipline: it serves jobs to
completion in a uniformly random order (no preemption at all).

Comparing the two isolates what DREP's arrival-time preemption buys:
on the paper's giant-job-plus-burst pathology this policy is as bad as
FIFO in expectation, while DREP tracks RR.
"""

from __future__ import annotations

import numpy as np

from repro.flowsim.policies.base import ActiveView, Policy
from repro.flowsim.rates import priority_waterfill

__all__ = ["RandomNonPreemptive"]


class RandomNonPreemptive(Policy):
    """Serve jobs to completion in a random (arrival-time drawn) order."""

    name = "RandomNP"
    clairvoyant = False

    def __init__(self) -> None:
        self._priority: dict[int, float] = {}
        self._rng: np.random.Generator | None = None

    def reset(self, m: int, rng: np.random.Generator) -> None:
        self._priority = {}
        self._rng = rng

    def on_arrival(self, job_id: int, view: ActiveView) -> None:
        assert self._rng is not None
        # a uniform random ticket drawn once at arrival = uniformly random
        # service order among waiting jobs
        self._priority[job_id] = float(self._rng.random())

    def on_completion(self, job_id: int, view: ActiveView) -> None:
        self._priority.pop(job_id, None)

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        # non-preemption: a job that has received any service outranks
        # every waiting job (priority -1 < all random tickets in [0, 1)),
        # so it keeps its processor until completion
        priority = self._priority
        pri = np.array(
            [
                -1.0 if a > 0 else priority[j]
                for a, j in zip((work - remaining).tolist(), job_ids.tolist())
            ]
        )
        order = np.lexsort((job_ids, pri))
        return priority_waterfill(caps, order, m)
