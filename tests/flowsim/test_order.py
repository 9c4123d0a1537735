"""Unit and property tests for the incremental order structures.

:class:`OrderIndex` is checked against a plain sorted list (the oracle
``np.lexsort`` reduces to), :class:`CompletionCalendar` against a dense
min-scan over its live map, and :func:`sparse_sum` bit-for-bit against
``np.add.reduce`` on the materialized dense vector — the exactness the
engine's ``busy_time`` accounting rests on.
"""

from __future__ import annotations

from heapq import heapify, heappush

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.flowsim.order as order_mod
from repro.flowsim.order import CompletionCalendar, OrderIndex, rate_sum, sparse_sum
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


def _index(pairs, load):
    idx = OrderIndex(load=load)
    for pair in pairs:
        idx.insert(*pair)
    idx.ops = 0
    return idx


def _state(idx):
    n = len(idx)
    return (
        list(idx),
        n,
        [idx.select(i) for i in range(n)],
        idx.head(n // 2 + 1),
        idx.ops,
    )


@settings(max_examples=150, deadline=None)
@given(
    keys=st.lists(st.integers(0, 12), min_size=1, max_size=40),
    load=st.integers(2, 4),
    data=st.data(),
)
def test_rekey_head_equals_remove_insert_loop(keys, load, data):
    """Re-keying the first k pairs to keys that shrink or stay, in one
    splice, leaves what one remove and one insert per moved pair leave:
    iteration, length, select, head and ops (blocks split and empty at
    these loads, and new keys tie with unserved ones)."""
    pairs = [(k / 2.0, j) for j, k in enumerate(keys)]
    loop = _index(pairs, load)
    splice = _index(pairs, load)
    k = data.draw(st.integers(1, len(pairs)))
    head = loop.head(k)
    nxt = loop.select(k) if k < len(loop) else None
    new = []
    for key, tie in head:
        # shrink or stay, never past the first unserved pair
        nk = data.draw(st.sampled_from([key, key / 2.0, 0.0]))
        if nxt is not None and not (nk, tie) < nxt:
            nk = key
        new.append((nk, tie))
    perm = data.draw(st.permutations(range(k)))
    old = [head[i] for i in perm]
    new = [new[i] for i in perm]
    for o, nw in zip(old, new):
        if o != nw:
            loop.remove(*o)
            loop.insert(*nw)
    splice.rekey_head(old, new)
    assert _state(splice) == _state(loop)
    for pair in list(loop):
        assert pair in splice


def test_rekey_head_ties_with_the_next_key():
    """A served pair whose key stays may tie the first unserved pair's
    key (the job id orders them); only the moved pair costs ops."""
    idx = _index([(2.0, 0), (3.0, 4), (3.0, 7)], load=2)
    idx.rekey_head([(3.0, 4), (2.0, 0)], [(3.0, 4), (1.0, 0)])
    assert list(idx) == [(1.0, 0), (3.0, 4), (3.0, 7)]
    assert idx.ops == 2
    idx.rekey_head([(1.0, 0)], [(1.0, 0)])
    assert idx.ops == 2


def test_rekey_head_splits_an_overfull_first_block():
    pairs = [(float(i), i) for i in range(9)]
    idx = _index(pairs, load=2)
    head = idx.head(7)
    new = [(k - 10.0, j) for k, j in head]
    idx.rekey_head(head, new)
    assert list(idx) == new + pairs[7:]
    assert max(len(b) for b in idx._blocks) <= 4
    assert [idx.select(i) for i in range(9)] == new + pairs[7:]
    assert idx._maxes == [b[-1] for b in idx._blocks]


@pytest.mark.parametrize(
    "old, new",
    [
        # not the first pairs
        ([(2.0, 1)], [(1.0, 1)]),
        ([(1.0, 0), (3.0, 2)], [(0.5, 0), (2.5, 2)]),
        # a pair the index does not hold
        ([(1.0, 7)], [(0.5, 7)]),
        # the re-keyed pair would sort past the first unserved pair
        ([(1.0, 0)], [(2.5, 0)]),
        ([(1.0, 0)], [(2.0, 3)]),
        # unequal lengths
        ([(1.0, 0)], []),
    ],
)
def test_rekey_head_refuses_and_leaves_the_index_unchanged(old, new):
    idx = _index([(1.0, 0), (2.0, 1), (3.0, 2)], load=2)
    before = _state(idx)
    blocks = [list(b) for b in idx._blocks]
    with pytest.raises(ValueError):
        idx.rekey_head(old, new)
    assert _state(idx) == before
    assert idx._blocks == blocks


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


class _OneByOneCalendar(CompletionCalendar):
    """Reference: ``update`` as a stand-alone per-entry method, the
    oracle the batched update must match push for push."""

    def update(self, job, q):
        cur = self._live.get(job)
        if cur is not None:
            if cur[1] == q:
                return
            self.invalidations += 1
        epoch = self._seq
        self._seq = epoch + 1
        self._live[job] = (epoch, q)
        heappush(self._heap, (q, job, epoch))
        if len(self._heap) > 64 + 4 * len(self._live):
            self._heap = [(lq, j, ep) for j, (ep, lq) in self._live.items()]
            heapify(self._heap)


@settings(max_examples=80, deadline=None)
@given(
    segments=st.lists(
        st.tuples(
            st.lists(st.integers(0, 30), max_size=12, unique=True),
            st.lists(st.floats(0.01, 100.0, allow_nan=False), min_size=12, max_size=12),
            st.lists(st.integers(0, 30), max_size=3),
        ),
        max_size=60,
    )
)
def test_calendar_update_many_equals_one_update_per_job(segments):
    """The batched update of a served set is one ``update`` per job in
    order: same minimum after each segment, same pops, invalidations and
    heap size (the compaction fires at the same pushes)."""
    one = _OneByOneCalendar()
    single = CompletionCalendar()
    many = CompletionCalendar()
    for jobs, qs, gone in segments:
        # quotients repeat often, so unchanged entries survive as-is
        qs = [round(q, 0) for q in qs[: len(jobs)]]
        for cal in (one, single, many):
            for j in gone:
                cal.discard(j)
        for j, q in zip(jobs, qs):
            one.update(j, q)
            single.update(j, q)
        many.update_many(jobs, qs)
        expect = one.min_quotient()
        for cal in (single, many):
            assert cal.min_quotient() == expect
            assert len(cal._heap) == len(one._heap)
            assert (cal.pops, cal.invalidations) == (one.pops, one.invalidations)
            assert len(cal) == len(one)
    assert len(many._heap) <= 64 + 4 * len(many)


def test_calendar_update_many_counts_jobs_that_join_mid_batch():
    """Jobs that join within a batch raise the compaction bound as they
    join, exactly as one ``update`` per job does: a heap just under the
    bound is not compacted by the joiners' pushes."""
    one = _OneByOneCalendar()
    many = CompletionCalendar()
    old = list(range(10))
    for i in range(10):  # 100 entries against a bound of 64 + 4 * 10
        qs = [float(i + 1)] * 10
        for j, q in zip(old, qs):
            one.update(j, q)
        many.update_many(old, qs)
    joiners = list(range(10, 16))
    for j in joiners:
        one.update(j, 50.0)
    many.update_many(joiners, [50.0] * 6)
    assert len(many._heap) == len(one._heap) == 106
    assert (many.min_quotient(), many.pops) == (one.min_quotient(), one.pops)


def test_calendar_update_many_keeps_the_heap_bounded():
    cal = CompletionCalendar()
    jobs = list(range(10))
    for i in range(5_000):
        cal.update_many(jobs, [1.0 + (i + j) % 13 for j in jobs])
        assert len(cal._heap) <= 64 + 4 * len(cal)
    assert cal.min_quotient() == min(q for _, q in cal._live.values())


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


@settings(max_examples=120, deadline=None)
@given(n=st.integers(1, 5000), data=st.data())
def test_rate_sum_of_integral_rates_matches_numpy_pairwise(n, data):
    """Integral rates at random positions: the exact sum is numpy's
    pairwise sum of the dense vector, without walking its tree."""
    m = data.draw(st.integers(0, min(n, 64)))
    pos = sorted(
        data.draw(
            st.lists(st.integers(0, n - 1), min_size=m, max_size=m, unique=True)
        )
    )
    val = [
        float(v)
        for v in data.draw(
            st.lists(
                st.sampled_from([1, 2, 3, 8, 16, 64, 2**40]),
                min_size=m,
                max_size=m,
            )
        )
    ]
    dense = np.zeros(n, dtype=float)
    dense[pos] = val
    assert rate_sum(pos, val, n) == float(np.add.reduce(dense))


def test_rate_sum_takes_sparse_sum_for_fractional_rates(monkeypatch):
    calls = []

    def spy(pos, val, n):
        calls.append(list(val))
        return sparse_sum(pos, val, n)

    monkeypatch.setattr(order_mod, "sparse_sum", spy)
    assert rate_sum([0, 3], [1.0, 2.0], 5) == 3.0
    assert calls == []
    pos, val = [1, 130, 200], [0.1, 1.0, 0.2]
    dense = np.zeros(300)
    dense[pos] = val
    assert rate_sum(pos, val, 300) == float(np.add.reduce(dense))
    assert calls == [val]
    # integral values beyond 2**53 are no longer exact in every order
    big = [2.0**53, 1.0, 1.0]
    rate_sum([0, 1, 2], big, 3)
    assert calls[-1] == big
