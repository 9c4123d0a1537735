"""Shortest-Elapsed-Time-First (SETF), a.k.a. foreground-background.

SETF serves jobs in order of least attained service.  The paper cites it
as the closest prior art to DREP's guarantee for sequential jobs:
non-clairvoyant, (1+eps)-speed O(1)-competitive on identical processors
[23, 28] — but with an unbounded number of preemptions, since tied jobs
must be timeshared at infinitesimal granularity (Sec. I).

Idealized multiprocessor SETF: processors are water-filled over jobs in
increasing attained-service order (each up to its cap); the group of jobs
tied at the marginal level shares the leftover capacity equally, which
keeps the tie exact.  Jobs growing at different service rates can reach a
tie later, so the policy requests a timer at the earliest level-crossing
and the engine regroups there.  Extension experiment X1 in DESIGN.md.
"""

from __future__ import annotations

import numpy as np

from repro.flowsim.policies.base import ActiveView, Policy
from repro.flowsim.rates import equal_split

__all__ = ["SETF"]


class SETF(Policy):
    """Water-fill by attained service; equal sharing within tied levels."""

    name = "SETF"
    clairvoyant = False

    def __init__(self, tie_tol: float = 1e-7) -> None:
        if tie_tol <= 0:
            raise ValueError("tie_tol must be > 0")
        self.tie_tol = tie_tol

    def _levels(self, att: np.ndarray) -> list[np.ndarray]:
        """Positions grouped by attained service, lowest level first."""
        order = np.argsort(att, kind="stable")
        groups: list[list[int]] = []
        level = None
        for k in order:
            a = att[k]
            if level is None or a > level + self.tie_tol * max(1.0, level):
                groups.append([int(k)])
                level = a
            else:
                groups[-1].append(int(k))
        return [np.array(g, dtype=np.intp) for g in groups]

    def rates_array(self, t, m, job_ids, remaining, work, release, caps):
        n = job_ids.size
        rates = np.zeros(n, dtype=float)
        left = float(m)
        for group in self._levels(work - remaining):
            if left <= 0:
                break
            level_caps = caps[group]
            total = float(level_caps.sum())
            if total <= left:
                rates[group] = level_caps  # whole level saturates
                left -= total
            else:
                mask = np.zeros(n, dtype=bool)
                mask[group] = True
                rates += equal_split(caps, left, mask)
                left = 0.0
        return rates

    def next_timer(self, view: ActiveView, rates: np.ndarray) -> float | None:
        """Earliest time a faster-served level catches the one above it."""
        if view.n < 2:
            return None
        att = view.attained
        groups = self._levels(att)
        if len(groups) < 2:
            return None
        best: float | None = None
        for g_lo, g_hi in zip(groups, groups[1:]):
            # conservative earliest crossing: fastest job below vs slowest
            # job above (firing early is harmless — the engine just regroups)
            r_lo = float(rates[g_lo].max())
            r_hi = float(rates[g_hi].min())
            if r_lo <= r_hi:
                continue  # gap is not closing
            gap = float(att[g_hi].min() - att[g_lo].max())
            dt = gap / ((r_lo - r_hi) * view.speed)
            if dt > 0 and (best is None or dt < best):
                best = dt
        return view.t + best if best is not None else None
