"""repro — reproduction of *Practically Efficient Scheduler for Minimizing
Average Flow Time of Parallel Jobs* (Agrawal, Lee, Li, Lu, Moseley;
IEEE IPDPS 2019).

The package implements the paper's contribution — the **DREP** scheduler
(Distributed Random Equi-Partition) — together with every substrate its
evaluation depends on:

* :mod:`repro.core` — jobs, metrics, deterministic RNG streams;
* :mod:`repro.dag` — the parallel-DAG job model and Cilk-style generators;
* :mod:`repro.workloads` — synthetic Bing/Finance distributions, Poisson
  arrivals, load calibration, traces;
* :mod:`repro.flowsim` — the flow-level simulator behind Figures 1-2 with
  SRPT / SJF / RR / DREP (plus FIFO, LAPS, SETF extensions);
* :mod:`repro.wsim` — a discrete-time work-stealing runtime (deques,
  steals, muggable deques, mugging) behind Figure 3 with DREP-WS,
  steal-first, admit-first and the SWF approximation;
* :mod:`repro.theory` — Observation-1 lower bounds, the flow/steal
  potential functions of Sec. IV-B, preemption budgets of Theorem 1.2;
* :mod:`repro.analysis` — experiment harness, sweeps and table rendering.

Quickstart::

    from repro import flowsim, workloads

    trace = workloads.generate_trace(
        n_jobs=2000, distribution="finance", load=0.5, m=8, seed=1
    )
    result = flowsim.simulate(trace, m=8, policy=flowsim.DrepSequential())
    print(result.mean_flow, result.preemptions)
"""

__version__ = "1.0.0"

from repro import analysis, core, dag, flowsim, hetero, theory, workloads, wsim  # noqa: F401

__all__ = [
    "analysis",
    "core",
    "dag",
    "flowsim",
    "hetero",
    "theory",
    "workloads",
    "wsim",
    "__version__",
]
