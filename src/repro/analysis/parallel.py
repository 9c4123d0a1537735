"""Per-process trace memos for sweep workers.

Parameter sweeps run many cells that differ only in policy, and the grid
runner (:mod:`repro.analysis.pool`) fans them out over worker processes
that rebuild each trace from its generation parameters instead of
shipping 100k-job arrays through a pipe.  The memos here make every
process generate a given trace once: generation is a deterministic pure
function of its parameters, so sharing is safe.
"""

from __future__ import annotations

from repro.core.job import ParallelismMode

__all__ = [
    "memoized_trace",
    "memoized_ws_trace",
]


#: Per-worker-process memo of generated traces.  A sweep runs many cells
#: that differ only in policy, so every worker process would otherwise
#: regenerate the identical trace once per policy; generation is a
#: deterministic pure function of the key, so sharing is safe (simulators
#: never mutate specs).  Bounded FIFO so a long-lived pool cannot grow
#: without limit.
_TRACE_MEMO: dict[tuple, object] = {}
_TRACE_MEMO_MAX = 64


def _memoized_trace(
    distribution: str, load: float, m: int, n_jobs: int, mode: str, seed: int
):
    key = (distribution, load, m, n_jobs, mode, seed)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        # a grid run may have shipped this trace's columns via shared
        # memory (repro.analysis.shm); reconstructing from the packed
        # floats is exact, so the rows stay byte-identical to a local
        # regeneration — which remains the fallback
        from repro.analysis.shm import shared_trace

        trace = shared_trace(key)
        if trace is None:
            from repro.workloads.traces import generate_trace

            trace = generate_trace(
                n_jobs=n_jobs,
                distribution=distribution,
                load=load,
                m=m,
                mode=ParallelismMode(mode),
                seed=seed,
            )
        if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        _TRACE_MEMO[key] = trace
    return trace


#: public name — the grid runner (:mod:`repro.analysis.pool`) and the
#: shared-memory shipment key their traces through this memo
memoized_trace = _memoized_trace


def memoized_ws_trace(
    distribution: str,
    load: float,
    m: int,
    n_jobs: int,
    mean_work_units: int,
    parallelism: int,
    seed: int,
):
    """The fig-3 DAG trace build, memoized per worker process.

    Replicates :func:`repro.analysis.experiments.run_ws_point`'s trace
    construction exactly — fully-parallel unit-mean trace (work *not*
    scaled with m), scaled to ``mean_work_units`` integer steps, DAGs
    attached at the given ``parallelism`` — so grid rows match the serial
    sweep byte-for-byte.  A fig-3 cell grid runs every scheduler on the
    same trace; the memo builds it once per process instead of once per
    (scheduler × load) cell.
    """
    key = ("ws", distribution, load, m, n_jobs, mean_work_units, parallelism, seed)
    trace = _TRACE_MEMO.get(key)
    if trace is None:
        from repro.analysis.experiments import scale_trace
        from repro.workloads.traces import attach_dags, generate_trace

        base = generate_trace(
            n_jobs=n_jobs,
            distribution=distribution,
            load=load,
            m=m,
            mode=ParallelismMode.FULLY_PARALLEL,
            seed=seed,
            scale_work_with_m=False,
        )
        trace = attach_dags(
            scale_trace(base, float(mean_work_units)),
            parallelism=parallelism,
            seed=seed,
        )
        if len(_TRACE_MEMO) >= _TRACE_MEMO_MAX:
            _TRACE_MEMO.pop(next(iter(_TRACE_MEMO)))
        _TRACE_MEMO[key] = trace
    return trace
