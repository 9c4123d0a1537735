"""Tests for repro.flowsim.rates — allocation invariants (property-based)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.flowsim.rates import (
    equal_split,
    equal_split_scalar,
    priority_waterfill,
    priority_waterfill_scalar,
)


class TestPriorityWaterfill:
    def test_serves_in_order(self):
        caps = np.array([1.0, 1.0, 1.0])
        rates = priority_waterfill(caps, np.array([2, 0, 1]), m=2)
        np.testing.assert_allclose(rates, [1.0, 0.0, 1.0])

    def test_partial_remainder(self):
        caps = np.array([4.0, 4.0])
        rates = priority_waterfill(caps, np.array([0, 1]), m=6)
        np.testing.assert_allclose(rates, [4.0, 2.0])

    def test_zero_capacity(self):
        caps = np.array([1.0, 1.0])
        rates = priority_waterfill(caps, np.array([0, 1]), m=0)
        np.testing.assert_allclose(rates, [0.0, 0.0])

    def test_bad_order_shape(self):
        with pytest.raises(ValueError):
            priority_waterfill(np.array([1.0, 1.0]), np.array([0]), m=1)


def _full_walk_waterfill(caps, order, m):
    """The walk converting every cap and the whole order up front: the
    oracle :func:`priority_waterfill`'s head-only walk must match."""
    caps = np.asarray(caps, dtype=float)
    rates = np.zeros(caps.size, dtype=float)
    left = float(m)
    caps_l = caps.tolist()
    for idx in np.asarray(order).tolist():
        c = caps_l[idx]
        give = c if c < left else left
        rates[idx] = give
        left -= give
        if left <= 0:
            break
    return rates


@settings(max_examples=200, deadline=None)
@given(
    n=st.one_of(st.integers(0, 12), st.integers(200, 2000)),
    m=st.one_of(
        st.integers(0, 16),
        st.floats(0.0, 16.0, allow_nan=False),
        st.sampled_from([-1.0, 1e6, float("inf")]),
    ),
    cap_kind=st.sampled_from(["unit", "fraction", "mixed", "parallel"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_waterfill_head_walk_equals_full_walk(n, m, cap_kind, seed):
    """Bit for bit the full walk: caps in (0, 1) carry the walk across
    chunk boundaries, m = 0 and n below m + 1 end it early or never,
    and n far above m + 1 leaves most of the order unread."""
    rng = np.random.default_rng(seed)
    if cap_kind == "unit":
        caps = np.ones(n)
    elif cap_kind == "fraction":
        caps = rng.uniform(0.01, 1.0, n)
    elif cap_kind == "mixed":
        caps = rng.choice([0.25, 1.0, 3.0, 7.5], n)
    else:
        caps = np.full(n, 16.0)
    order = rng.permutation(n)
    got = priority_waterfill(caps, order, m)
    want = _full_walk_waterfill(caps, order, m)
    assert got.tobytes() == want.tobytes()


class TestEqualSplit:
    def test_plain_even_split(self):
        rates = equal_split(np.array([4.0, 4.0, 4.0]), m=6)
        np.testing.assert_allclose(rates, [2.0, 2.0, 2.0])

    def test_caps_bind_and_redistribute(self):
        # cap 1 job takes 1; the others split the remaining 5
        rates = equal_split(np.array([1.0, 8.0, 8.0]), m=6)
        np.testing.assert_allclose(rates, [1.0, 2.5, 2.5])

    def test_undersubscribed_saturates(self):
        rates = equal_split(np.array([1.0, 1.0]), m=8)
        np.testing.assert_allclose(rates, [1.0, 1.0])

    def test_mask_restricts(self):
        rates = equal_split(
            np.array([2.0, 2.0, 2.0]), m=2, mask=np.array([True, False, True])
        )
        np.testing.assert_allclose(rates, [1.0, 0.0, 1.0])

    def test_empty_mask(self):
        rates = equal_split(np.array([1.0]), m=2, mask=np.array([False]))
        np.testing.assert_allclose(rates, [0.0])

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError):
            equal_split(np.array([0.0, 1.0]), m=1)

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            equal_split(np.array([1.0, 1.0]), m=1, mask=np.array([True]))


caps_strategy = st.lists(
    st.floats(0.01, 64.0, allow_nan=False), min_size=1, max_size=40
)


@settings(max_examples=120, deadline=None)
@given(caps=caps_strategy, m=st.floats(0.0, 128.0))
def test_equal_split_invariants(caps, m):
    caps = np.array(caps)
    rates = equal_split(caps, m)
    assert (rates >= -1e-12).all()
    assert (rates <= caps + 1e-9).all()
    assert rates.sum() <= m + 1e-6
    # capacity is fully used whenever demand allows
    assert rates.sum() == pytest.approx(min(m, caps.sum()), rel=1e-6, abs=1e-6)


@settings(max_examples=120, deadline=None)
@given(caps=caps_strategy, m=st.floats(0.0, 128.0), seed=st.integers(0, 1000))
def test_waterfill_invariants(caps, m, seed):
    caps = np.array(caps)
    order = np.random.default_rng(seed).permutation(len(caps))
    rates = priority_waterfill(caps, order, m)
    assert (rates >= 0).all()
    assert (rates <= caps + 1e-12).all()
    assert rates.sum() <= m + 1e-9
    assert rates.sum() == pytest.approx(min(m, caps.sum()), rel=1e-9, abs=1e-9)
    # prefix property: a job is served only if everything ahead of it is
    # saturated
    seen_unsaturated = False
    for idx in order:
        if seen_unsaturated:
            assert rates[idx] == 0.0
        if rates[idx] < caps[idx] - 1e-12:
            seen_unsaturated = True


@settings(max_examples=60, deadline=None)
@given(caps=caps_strategy, m=st.floats(0.5, 64.0))
def test_equal_split_fairness(caps, m):
    """No unsaturated job gets less than another unsaturated job."""
    caps = np.array(caps)
    rates = equal_split(caps, m)
    unsat = rates < caps - 1e-9
    if unsat.sum() >= 2:
        vals = rates[unsat]
        assert vals.max() - vals.min() < 1e-6


# -- scalar twins --------------------------------------------------------------

#: caps as the engine sees them (1 or m) plus arbitrary positive ones
twin_caps = st.one_of(
    st.lists(st.sampled_from([1.0, 4.0]), min_size=0, max_size=40),
    st.lists(st.floats(0.01, 64.0, allow_nan=False), min_size=0, max_size=40),
)
#: keys with many exact ties
twin_keys = st.sampled_from([0.0, 1e-9, 0.5, 1.0, 3.0, 1e9])


@settings(max_examples=200, deadline=None)
@given(
    caps=twin_caps,
    m=st.one_of(st.integers(1, 16), st.floats(0.5, 64.0)),
    data=st.data(),
)
def test_waterfill_scalar_twin(caps, m, data):
    """Stable sort by key ≡ ``np.lexsort((ids, key))``; the skipped sort
    when every cap fits changes nothing."""
    keys = data.draw(
        st.lists(
            st.one_of(twin_keys, st.floats(0.0, 1e6)),
            min_size=len(caps),
            max_size=len(caps),
        )
    )
    order = np.lexsort((np.arange(len(caps)), np.array(keys, dtype=float)))
    want = priority_waterfill(np.array(caps, dtype=float), order, m)
    assert priority_waterfill_scalar(caps, keys, m) == want.tolist()


@settings(max_examples=200, deadline=None)
@given(caps=twin_caps, m=st.one_of(st.integers(0, 16), st.floats(0.0, 128.0)))
def test_equal_split_scalar_twin(caps, m):
    want = equal_split(np.array(caps, dtype=float), m)
    assert equal_split_scalar(caps, m) == want.tolist()


def test_equal_split_scalar_rejects_nonpositive_caps():
    with pytest.raises(ValueError):
        equal_split_scalar([0.0, 1.0], 1)
