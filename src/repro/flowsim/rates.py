"""Rate-allocation helpers shared by flow-level policies.

A flow-level policy turns the active-job state into a vector of processing
rates (processors, possibly fractional) subject to two constraints:

* per-job cap — 1 for sequential jobs, ``m`` for fully parallel ones
  (:meth:`repro.core.ParallelismMode.rate_cap`);
* machine capacity — rates sum to at most ``m``.

Two allocation shapes cover every policy in the paper's evaluation:
**priority water-fill** (SRPT, SJF/SWF, FIFO: serve jobs in priority order,
each up to its cap, until the machine is full) and **equal split** (RR /
EQUI, LAPS, SETF: split capacity evenly with per-job caps, redistributing
the excess — classic water-filling).

Each shape also has a *scalar* twin on Python lists and floats
(:func:`priority_waterfill_scalar`, :func:`equal_split_scalar`), which
the engine's small-active-set backend uses where numpy's per-call
overhead dominates; :func:`dense_sum` replicates ``np.add.reduce`` on a
list.  Every scalar twin returns bit-for-bit what its numpy twin returns
(Python floats are IEEE doubles and each replicates the same operations
in the same order); ``tests/flowsim/test_rates.py`` pins the pairs.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "priority_waterfill",
    "equal_split",
    "priority_waterfill_scalar",
    "equal_split_scalar",
    "dense_sum",
]

#: numpy's pairwise-summation block size (PW_BLOCKSIZE)
_PW_BLOCK = 128


def priority_waterfill(caps: np.ndarray, order: np.ndarray, m: float) -> np.ndarray:
    """Allocate ``m`` processors to jobs in ``order``, each up to its cap.

    Parameters
    ----------
    caps:
        ``float[n]`` per-job rate caps (> 0).
    order:
        Permutation of ``range(n)``; earlier entries are served first.
    m:
        Machine capacity.

    Returns the rate vector (aligned with ``caps``).  This is the greedy
    schedule SRPT/SJF induce: the highest-priority jobs each get their full
    cap, one job may get a partial remainder, the rest get zero.
    """
    caps = np.asarray(caps, dtype=float)
    order = np.asarray(order)
    n = caps.size
    if order.shape != (n,):
        raise ValueError("order must be a permutation of range(len(caps))")
    rates = np.zeros(n, dtype=float)
    left = float(m)
    # the walk runs on Python floats (IEEE doubles, so ``c if c < left``
    # is numpy's ``minimum``) and converts only the head it reaches: a
    # chunk of floor(m)+1 entries, enough for every cap >= 1, then the
    # next chunk while capacity is left (fractional caps)
    step = int(left) + 1 if 0 <= left < n else n
    lo = 0
    while lo < n:
        head = order[lo : lo + step]
        for idx, c in zip(head.tolist(), caps[head].tolist()):
            give = c if c < left else left
            rates[idx] = give
            left -= give
            if left <= 0:
                return rates
        lo += step
    return rates


def equal_split(caps: np.ndarray, m: float, mask: np.ndarray | None = None) -> np.ndarray:
    """Water-fill ``m`` processors equally among (masked) jobs with caps.

    Every selected job receives ``min(cap, level)`` where the common level
    is chosen so allocations sum to ``min(m, sum caps)``.  Exact O(n log n)
    water-filling via a sort on caps.
    """
    caps = np.asarray(caps, dtype=float)
    n = caps.size
    if mask is None and n and m > 0:
        # no-mask fast path (RR/SETF splitting over the whole active set):
        # with ``idx == arange(n)`` the general code's gather/scatter is
        # the identity, so these early returns are bit-identical to it
        # while skipping the selection scaffolding.  Any irregularity
        # (non-positive or non-uniform caps) falls through.
        if (caps > 0).all():
            total = caps.sum()
            if total <= m:
                return caps.copy()  # everyone saturates
            c0 = float(caps[0])
            if np.all(caps == c0):
                level = (m - 0.0) / n
                if level <= c0 + 1e-15:
                    return np.minimum(caps, level)
    sel = np.ones(n, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if sel.shape != (n,):
        raise ValueError("mask must align with caps")
    rates = np.zeros(n, dtype=float)
    idx = np.flatnonzero(sel)
    if idx.size == 0 or m <= 0:
        return rates
    c = caps[idx]
    if (c <= 0).any():
        raise ValueError("caps must be positive")
    total = c.sum()
    if total <= m:
        rates[idx] = c  # everyone saturates
        return rates
    # uniform caps (all-sequential or all-fully-parallel views — the
    # common case): the level is m/k outright, exactly what the general
    # loop below computes at i=0, so this skips its sort without changing
    # a single bit of output.  Falls through on any rounding surprise.
    c0 = float(c[0])
    if np.all(c == c0):
        level = (m - 0.0) / c.size
        if level <= c0 + 1e-15:
            rates[idx] = np.minimum(c, level)
            return rates
    # find level L with sum(min(c, L)) == m
    order = np.argsort(c)
    c_sorted = c[order]
    k = c_sorted.size
    # prefix[i] = sum of the i smallest caps
    prefix = np.concatenate([[0.0], np.cumsum(c_sorted)])
    # with the i smallest saturated at their caps, the rest at level L:
    #   prefix[i] + (k - i) * L = m, need c_sorted[i-1] <= L <= c_sorted[i]
    for i in range(k):
        level = (m - prefix[i]) / (k - i)
        if level <= c_sorted[i] + 1e-15:
            alloc = np.minimum(c_sorted, level)
            out = np.empty(k, dtype=float)
            out[order] = alloc
            rates[idx] = out
            return rates
    # numerically everyone saturates (shouldn't happen given total > m)
    rates[idx] = c * (m / total)
    return rates


# -- scalar twins (Python lists and floats) -----------------------------------


def dense_sum(v: list[float]) -> float:
    """``float(np.add.reduce(np.asarray(v, dtype=float)))``, bit for bit.

    Replicates numpy's pairwise summation on a list: below 8 elements a
    left-to-right sum from ``0.0``; up to 128, eight interleaved
    accumulators combined as a balanced tree, then the tail past the last
    multiple of 8 added one element at a time; above that, the two halves
    (the first rounded down to a multiple of 8) summed recursively.  The
    sparse complement is :func:`repro.flowsim.order.sparse_sum`.
    """
    n = len(v)
    if n < 8:
        res = 0.0
        for x in v:
            res += x
        return res
    if n <= _PW_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = v[:8]
        lim = n - n % 8
        for i in range(8, lim, 8):
            r0 += v[i]
            r1 += v[i + 1]
            r2 += v[i + 2]
            r3 += v[i + 3]
            r4 += v[i + 4]
            r5 += v[i + 5]
            r6 += v[i + 6]
            r7 += v[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(lim, n):
            res += v[i]
        return res
    half = n // 2
    half -= half % 8
    return dense_sum(v[:half]) + dense_sum(v[half:])


def priority_waterfill_scalar(
    caps: list[float], keys: list[float], m: float
) -> list[float]:
    """:func:`priority_waterfill` in ascending ``keys`` order, on lists.

    Bit for bit what ``priority_waterfill(caps, np.lexsort((ids, keys)),
    m)`` returns when ``ids`` ascend with position (the engine's active
    set): Python's sort is stable, so ties go to the lower position, which
    is the lower id.  When every cap is 1 and at most ``m`` jobs compete,
    each gets its full cap whatever the order (the running remainder stays
    an exact integer), so the sort is skipped.
    """
    n = len(caps)
    if n <= m and caps.count(1.0) == n:
        return caps[:]
    rates = [0.0] * n
    left = float(m)
    for idx in sorted(range(n), key=keys.__getitem__):
        c = caps[idx]
        give = c if c < left else left
        rates[idx] = give
        left -= give
        if left <= 0:
            break
    return rates


def equal_split_scalar(caps: list[float], m: float) -> list[float]:
    """:func:`equal_split` without a mask, on lists — bit for bit.

    Same branches in the same order: everyone saturates when the caps fit
    (their total taken by :func:`dense_sum`, as ``caps.sum()`` is), the
    uniform-cap level ``m / n``, then the sorted-prefix level search.
    Ties in the sort cannot matter: each job's rate depends only on the
    level, which the sorted values alone determine.
    """
    n = len(caps)
    if not n or m <= 0:
        return [0.0] * n
    if any(map((0.0).__ge__, caps)):
        raise ValueError("caps must be positive")
    total = dense_sum(caps)
    if total <= m:
        return caps[:]  # everyone saturates
    c0 = caps[0]
    if caps.count(c0) == n:
        level = (m - 0.0) / n
        if level <= c0 + 1e-15:
            return [c0 if c0 < level else level] * n
    prefix = 0.0
    for i, c in enumerate(sorted(caps)):
        level = (m - prefix) / (n - i)
        if level <= c + 1e-15:
            return [c if c < level else level for c in caps]
        prefix += c
    q = m / total
    return [c * q for c in caps]
