"""Multi-Level Feedback (MLF) — the practical approximation of SETF.

SETF (shortest elapsed time first) needs infinitesimal timesharing among
tied jobs; real systems approximate it with multi-level feedback: jobs
enter the highest-priority level and are demoted each time their attained
service crosses an exponentially growing threshold
(``base * growth**level``).  The machine serves the lowest-numbered
non-empty level, sharing equally within it.

Included as a practicality counterpart: MLF is to SETF what DREP is to
RR — a bounded-preemption approximation of an infinitesimally-preempting
ideal.  Its preemptions happen only at level demotions and arrivals,
O(log(max work / base)) per job.
"""

from __future__ import annotations

import math

import numpy as np

from repro.flowsim.policies.base import ActiveView, Policy
from repro.flowsim.rates import equal_split

__all__ = ["MLF"]


class MLF(Policy):
    """Serve the lowest non-empty attained-service level; demote on
    threshold crossings."""

    clairvoyant = False

    def __init__(self, base: float = 1.0, growth: float = 2.0) -> None:
        if base <= 0:
            raise ValueError("base must be > 0")
        if growth <= 1:
            raise ValueError("growth must be > 1")
        self.base = base
        self.growth = growth
        self.name = f"MLF(b={base:g},g={growth:g})"

    def _levels(self, attained: np.ndarray) -> np.ndarray:
        """Level index per job: number of thresholds its attained service
        has crossed (threshold k sits at ``base * growth**k``)."""
        att = np.maximum(attained, 0.0)
        with np.errstate(divide="ignore"):
            lv = np.floor(np.log(np.maximum(att / self.base, 1e-300)) / math.log(self.growth)) + 1
        lv = np.where(att < self.base, 0, lv)
        return np.maximum(lv, 0).astype(int)

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        n = job_ids.size
        if n == 0:
            return np.zeros(0)
        levels = self._levels(work - remaining)
        rates = np.zeros(n)
        left = float(m)
        # serve levels from highest priority (0) down, water-filling
        for lv in np.unique(levels):
            if left <= 0:
                break
            mask = levels == lv
            level_caps = caps[mask]
            total = float(level_caps.sum())
            if total <= left:
                rates[mask] = level_caps
                left -= total
            else:
                rates += equal_split(caps, left, mask)
                left = 0.0
        return rates

    def next_timer(self, view: ActiveView, rates: np.ndarray) -> float | None:
        """Fire when any served job crosses its next demotion threshold."""
        if view.n == 0:
            return None
        att = view.attained
        levels = self._levels(att)
        best: float | None = None
        for k in np.flatnonzero(rates > 0):
            threshold = self.base * self.growth ** int(levels[k])
            gap = threshold - att[k]
            if gap <= 0:
                continue
            dt = gap / (rates[k] * view.speed)
            if dt > 0 and (best is None or dt < best):
                best = dt
        return view.t + best if best is not None else None

    def preemption_estimate(self, max_work: float) -> int:
        """Demotions a job of ``max_work`` suffers: O(log(work/base))."""
        if max_work <= self.base:
            return 0
        return int(math.ceil(math.log(max_work / self.base, self.growth)))
