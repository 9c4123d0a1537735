"""Quantum-based LAPS — making the paper's "impossible" policy runnable.

The paper singles LAPS out as uniquely impractical: "LAPS ... is very
difficult to implement since it needs to know the parameter epsilon ...
and preempts at infinitesimal time steps — it must process epsilon
fraction of arriving jobs equally at any time.  Because of this, LAPS is
even difficult to implement in the simulation" (Sec. V-A).

Like :class:`~repro.wsim.schedulers.rr_quantum.RrQuantumWS` does for RR,
this scheduler realizes the *implementable* LAPS: every ``quantum``
steps the master re-partitions all workers evenly across the
``ceil(beta * |A(t)|)`` most recently arrived jobs.  Combined with
``WsConfig.preemption_overhead`` it lets experiments price LAPS's
preemption appetite the same way ablation X7 prices RR's — completing
the set of "theoretically strong but preemption-hungry" baselines the
paper could only discuss.
"""

from __future__ import annotations

import math

from repro.wsim.schedulers.rr_quantum import RrQuantumWS
from repro.wsim.structures import JobRun

__all__ = ["LapsQuantumWS"]


class LapsQuantumWS(RrQuantumWS):
    """Serve the latest-arriving beta fraction, re-partitioned per quantum.

    Quantum RR over another served set: the latest
    ``ceil(beta * |A(t)|)`` jobs, which workers are spread over every
    quantum and redraw from when their job finishes.
    """

    def __init__(self, beta: float = 0.5, quantum: int = 50) -> None:
        if not 0 < beta <= 1:
            raise ValueError("beta must be in (0, 1]")
        super().__init__(quantum)
        self.beta = beta
        self.name = f"LAPS(b={beta:g},q={quantum})"

    def _served(self) -> list[JobRun]:
        jobs = self.rt.active
        if not jobs:
            return []
        k = max(1, math.ceil(self.beta * len(jobs)))
        return sorted(jobs, key=lambda j: (j.release_step, j.job_id))[-k:]
