"""Unit and property tests for the incremental order structures.

:class:`OrderIndex` is checked against a plain sorted list (the oracle
``np.lexsort`` reduces to), :class:`CompletionCalendar` against a dense
min-scan over its live map, and :func:`sparse_sum` bit-for-bit against
``np.add.reduce`` on the materialized dense vector — the exactness the
engine's ``busy_time`` accounting rests on.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowsim.order import CompletionCalendar, OrderIndex, sparse_sum
from repro.flowsim.rates import dense_sum


# -- OrderIndex ----------------------------------------------------------


def test_order_index_basic():
    idx = OrderIndex()
    assert len(idx) == 0
    idx.insert(3.0, 1)
    idx.insert(1.0, 2)
    idx.insert(3.0, 0)
    assert list(idx) == [(1.0, 2), (3.0, 0), (3.0, 1)]
    assert idx.select(0) == (1.0, 2)
    assert idx.select(2) == (3.0, 1)
    assert idx.rank(3.0, 1) == 2
    assert (3.0, 0) in idx
    assert (2.0, 0) not in idx
    idx.remove(3.0, 0)
    assert list(idx) == [(1.0, 2), (3.0, 1)]
    assert idx.ops == 4


def test_order_index_remove_missing_raises():
    idx = OrderIndex()
    idx.insert(1.0, 0)
    with pytest.raises(KeyError):
        idx.remove(2.0, 0)
    with pytest.raises(KeyError):
        idx.remove(1.0, 1)
    with pytest.raises(KeyError):
        OrderIndex().remove(1.0, 0)


def test_order_index_select_bounds():
    idx = OrderIndex()
    idx.insert(1.0, 0)
    with pytest.raises(IndexError):
        idx.select(1)
    with pytest.raises(IndexError):
        idx.select(-1)


def test_order_index_head():
    idx = OrderIndex(load=4)
    for i in range(20):
        idx.insert(float(i % 5), i)
    assert idx.head(3) == sorted((float(i % 5), i) for i in range(20))[:3]
    assert idx.head(0) == []
    assert idx.head(100) == sorted((float(i % 5), i) for i in range(20))


def test_order_index_matches_lexsort_order():
    """(key, tie) ascending iteration is exactly np.lexsort((tie, key))."""
    rng = np.random.default_rng(0)
    keys = rng.choice([1.0, 2.0, 5.0, 7.5], size=200)
    ties = rng.permutation(200)
    idx = OrderIndex(load=8)
    for k, t in zip(keys, ties):
        idx.insert(float(k), int(t))
    order = np.lexsort((ties, keys))
    assert list(idx) == [(float(keys[i]), int(ties[i])) for i in order]


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["insert", "remove", "select", "rank"]),
            st.integers(0, 9),
            st.integers(0, 30),
        ),
        max_size=120,
    ),
    load=st.sampled_from([1, 2, 4, 256]),
)
def test_order_index_against_sorted_list(ops, load):
    """Random op soup against the obvious sorted-list oracle."""
    idx = OrderIndex(load=load)
    oracle: list[tuple[float, int]] = []
    for op, key_i, tie in ops:
        item = (float(key_i) / 2.0, tie)
        if op == "insert":
            if item not in oracle:
                idx.insert(*item)
                oracle.append(item)
                oracle.sort()
        elif op == "remove":
            if item in oracle:
                idx.remove(*item)
                oracle.remove(item)
            else:
                with pytest.raises(KeyError):
                    idx.remove(*item)
        elif op == "select":
            if oracle:
                i = tie % len(oracle)
                assert idx.select(i) == oracle[i]
        else:
            assert idx.rank(*item) == sum(1 for x in oracle if x < item)
        assert len(idx) == len(oracle)
        assert (item in idx) == (item in oracle)
    assert list(idx) == oracle


# -- CompletionCalendar --------------------------------------------------


def test_calendar_min_and_invalidation():
    cal = CompletionCalendar()
    assert cal.min_quotient() == float("inf")
    cal.update(0, 5.0)
    cal.update(1, 3.0)
    assert cal.min_quotient() == 3.0
    cal.update(1, 7.0)  # supersede the old minimum
    assert cal.min_quotient() == 5.0
    cal.discard(0)
    assert cal.min_quotient() == 7.0
    assert cal.invalidations == 2
    assert len(cal) == 1
    cal.clear()
    assert cal.min_quotient() == float("inf")
    assert len(cal) == 0


def test_calendar_unchanged_update_is_noop():
    cal = CompletionCalendar()
    cal.update(4, 2.5)
    inv = cal.invalidations
    cal.update(4, 2.5)
    assert cal.invalidations == inv
    assert cal.min_quotient() == 2.5


def test_calendar_epoch_no_aliasing():
    """An entry from a job's earlier served lifetime must never satisfy
    a later lookup (discard + reinsert at a worse quotient)."""
    cal = CompletionCalendar()
    cal.update(0, 1.0)
    cal.discard(0)
    cal.update(0, 9.0)
    cal.update(1, 4.0)
    assert cal.min_quotient() == 4.0  # stale (1.0, job 0) must be skipped


def test_calendar_heap_stays_bounded():
    """Amortized compaction: churning one job's quotient for thousands
    of segments must not grow the heap with the event count."""
    cal = CompletionCalendar()
    for j in range(50):
        cal.update(j, 100.0 + j)
    for i in range(10_000):
        cal.update(i % 50, 1.0 + (i % 97) / 97.0)
    assert len(cal._heap) <= 64 + 4 * len(cal)
    live_min = min(q for _, q in cal._live.values())
    assert cal.min_quotient() == live_min


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["update", "discard", "min"]),
            st.integers(0, 7),
            st.floats(0.01, 100.0, allow_nan=False),
        ),
        max_size=100,
    )
)
def test_calendar_against_dense_min(ops):
    cal = CompletionCalendar()
    live: dict[int, float] = {}
    for op, job, q in ops:
        if op == "update":
            cal.update(job, q)
            live[job] = q
        elif op == "discard":
            cal.discard(job)
            live.pop(job, None)
        else:
            expect = min(live.values()) if live else float("inf")
            assert cal.min_quotient() == expect
        assert len(cal) == len(live)
    expect = min(live.values()) if live else float("inf")
    assert cal.min_quotient() == expect


# -- sparse_sum ----------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(
    n=st.integers(1, 1500),
    data=st.data(),
)
def test_sparse_sum_matches_numpy_pairwise(n, data):
    m = data.draw(st.integers(0, min(n, 40)))
    pos = sorted(
        data.draw(
            st.lists(
                st.integers(0, n - 1), min_size=m, max_size=m, unique=True
            )
        )
    )
    val = data.draw(
        st.lists(
            st.floats(0.0, 1e6, allow_nan=False), min_size=m, max_size=m
        )
    )
    dense = np.zeros(n, dtype=float)
    for p, v in zip(pos, val):
        dense[p] = v
    assert sparse_sum(pos, val, n) == float(np.add.reduce(dense))
    assert dense_sum(dense.tolist()) == float(np.add.reduce(dense))


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(
        st.integers(0, 20),  # the plain loop and the first unrolled block
        st.integers(120, 140),  # the largest single block and the split
        st.integers(141, 4097),
    ),
    data=st.data(),
)
def test_dense_sum_matches_numpy_pairwise(n, data):
    """:func:`dense_sum` is ``np.add.reduce`` on a list, bit for bit —
    at every length class of numpy's pairwise tree and on values of any
    sign and magnitude."""
    seed = data.draw(st.integers(0, 2**32 - 1))
    scale = data.draw(st.sampled_from([1.0, 1e-9, 1e9, 1e300]))
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(n) * scale
    v[rng.random(n) < 0.3] = 0.0
    assert dense_sum(v.tolist()) == float(np.add.reduce(v))


def test_sparse_sum_dense_vector_exact():
    """Fully dense input (every position set) must still match — this is
    the regime where numpy's 8-way unroll and tail handling matter."""
    rng = np.random.default_rng(3)
    for n in (1, 7, 8, 9, 127, 128, 129, 1000, 4096):
        v = rng.random(n) * 10.0
        assert sparse_sum(list(range(n)), v.tolist(), n) == float(
            np.add.reduce(v)
        )


def test_sparse_sum_empty():
    assert sparse_sum([], [], 100) == 0.0
