"""Tests for repro.core.rng — determinism and stream independence."""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rng import DrawStream, RngFactory, derive_seed, stable_hash


class TestStableHash:
    def test_deterministic(self):
        assert stable_hash("arrivals") == stable_hash("arrivals")

    def test_distinct_names_distinct_hashes(self):
        names = [f"stream-{i}" for i in range(200)]
        hashes = {stable_hash(n) for n in names}
        assert len(hashes) == len(names)

    def test_64_bit_range(self):
        h = stable_hash("x")
        assert 0 <= h < 2**64

    def test_unicode(self):
        assert stable_hash("日本語") == stable_hash("日本語")


class TestDeriveSeed:
    """Regression pins for the library's single seed-derivation rule.

    These literals are load-bearing: the grid runner labels replication
    cells with ``derive_seed(seed, "rep/<r>")`` and every recorded sweep
    assumes the mapping never changes.  If this test fails, the fix is
    to revert the change to ``derive_seed``, not to update the numbers.
    """

    def test_pinned_values(self):
        assert derive_seed(0, "rep/1") == 4888761903474508797
        assert derive_seed(42, "arrivals") == 5884807015913752455
        assert derive_seed(7, "rep/3") == 2374400447540655814
        assert derive_seed(2**62, "x") == 1105755725977870154

    def test_range(self):
        for seed in (0, 1, 2**62, 2**63 - 1):
            assert 0 <= derive_seed(seed, "n") < 2**63

    def test_matches_child_factory(self):
        # RngFactory.child is defined in terms of derive_seed; keep it so
        assert RngFactory(11).child("rep/2").seed == derive_seed(11, "rep/2")

    def test_distinct_names_distinct_seeds(self):
        seeds = {derive_seed(3, f"rep/{r}") for r in range(100)}
        assert len(seeds) == 100


class TestRngFactory:
    def test_same_seed_same_stream(self):
        a = RngFactory(7).stream("work").random(16)
        b = RngFactory(7).stream("work").random(16)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(7).stream("work").random(16)
        b = RngFactory(8).stream("work").random(16)
        assert not np.array_equal(a, b)

    def test_different_names_differ(self):
        f = RngFactory(7)
        a = f.stream("work").random(16)
        b = f.stream("arrivals").random(16)
        assert not np.array_equal(a, b)

    def test_stream_order_independent(self):
        f1 = RngFactory(3)
        _ = f1.stream("a").random(4)
        x = f1.stream("b").random(4)
        f2 = RngFactory(3)
        y = f2.stream("b").random(4)
        np.testing.assert_array_equal(x, y)

    def test_child_factories_reproducible(self):
        a = RngFactory(5).child("rep0").stream("s").random(8)
        b = RngFactory(5).child("rep0").stream("s").random(8)
        np.testing.assert_array_equal(a, b)

    def test_child_differs_from_parent(self):
        parent = RngFactory(5)
        child = parent.child("rep0")
        assert child.seed != parent.seed
        a = parent.stream("s").random(8)
        b = child.stream("s").random(8)
        assert not np.array_equal(a, b)

    def test_rejects_non_integer_seed(self):
        with pytest.raises(TypeError):
            RngFactory(seed="42")  # type: ignore[arg-type]

    def test_numpy_integer_seed_accepted(self):
        f = RngFactory(np.int64(9))
        assert f.seed == 9


# -- DrawStream against a plain Generator ------------------------------------

#: bounds at the edges of the stream's own range (1 <= n < 2**32) and
#: past it, where it delegates: 2**32 - 1 is Lemire's largest 32-bit
#: range, 2**32 numpy's unbounded next_uint32, above it the 64-bit path
EDGE_BOUNDS = [1, 2, 3, 2**32 - 1, 2**32, 2**32 + 1, 2**40]

_bound = st.one_of(st.sampled_from(EDGE_BOUNDS), st.integers(1, 100))
_call = st.one_of(
    st.tuples(st.just("integers"), _bound, st.booleans()),
    st.tuples(st.just("random")),
    st.tuples(st.just("random_k"), st.integers(0, 5)),
    # k doubles as a list; up to past one 256-word block, so a call
    # crosses a block boundary
    st.tuples(
        st.just("random_list"),
        st.one_of(st.integers(0, 20), st.sampled_from([255, 256, 257, 300])),
    ),
    st.tuples(st.just("integers_k"), st.integers(1, 50), st.integers(0, 5)),
    st.tuples(
        st.just("integers_array"),
        st.one_of(
            st.lists(st.integers(1, 9), max_size=6),
            st.lists(st.just(1), min_size=1, max_size=4),
        ),
    ),
    st.tuples(st.just("exponential")),
    st.tuples(st.just("state")),
)


def _apply(gen, call):
    kind = call[0]
    if kind == "integers":
        n = np.int64(call[1]) if call[2] else call[1]
        return int(gen.integers(n))
    if kind == "random":
        return gen.random()
    if kind == "random_k":
        return gen.random(call[1]).tolist()
    if kind == "random_list":
        if isinstance(gen, DrawStream):
            return gen.random_list(call[1])
        return gen.random(call[1]).tolist()
    if kind == "integers_k":
        return gen.integers(call[1], size=call[2]).tolist()
    if kind == "integers_array":
        return gen.integers(np.asarray(call[1], dtype=np.int64)).tolist()
    if kind == "exponential":
        return gen.exponential(2.0)
    return gen.bit_generator.state


def _virtual_state(stream: DrawStream) -> dict:
    """The state a stream would hand back, read without syncing it."""
    return copy.deepcopy(stream).bit_generator.state


class TestDrawStream:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), calls=st.lists(_call, max_size=60))
    def test_call_sequences_match_numpy(self, seed, calls):
        stream = DrawStream(np.random.default_rng(seed))
        plain = np.random.default_rng(seed)
        for call in calls:
            assert _apply(stream, call) == _apply(plain, call)
            assert _virtual_state(stream) == plain.bit_generator.state
        assert stream.bit_generator.state == plain.bit_generator.state

    def test_long_run_crosses_blocks(self):
        # thousands of mixed draws span many prefetched blocks, odd
        # bounds force Lemire rejections, and nothing syncs in between
        stream = DrawStream(np.random.default_rng(7))
        plain = np.random.default_rng(7)
        bounds = [2, 3, 5, 3 * 2**30, 2**31 + 1, 2**32 - 1]
        for i in range(5000):
            if i % 3 == 0:
                assert stream.random() == plain.random()
            else:
                n = bounds[i % len(bounds)]
                assert stream.index(n) == int(plain.integers(n))
        assert stream.bit_generator.state == plain.bit_generator.state

    def test_random_list_crosses_blocks_between_other_draws(self):
        # list draws of every size around the block length, interleaved
        # with bounded draws (which buffer a half word), scalar and sized
        # random, and state reads that sync the stream
        stream = DrawStream(np.random.default_rng(13))
        plain = np.random.default_rng(13)
        sizes = [0, 1, 3, 255, 256, 257, 700, 16]
        for i in range(400):
            k = sizes[i % len(sizes)]
            got = stream.random_list(k)
            assert type(got) is list and len(got) == k
            assert got == plain.random(k).tolist()
            assert stream.index(5 + i % 7) == int(plain.integers(5 + i % 7))
            if i % 5 == 0:
                assert stream.random() == plain.random()
            if i % 11 == 0:
                assert stream.random(3).tolist() == plain.random(3).tolist()
            if i % 13 == 0:
                assert stream.bit_generator.state == plain.bit_generator.state
        assert stream.bit_generator.state == plain.bit_generator.state

    def test_sync_keeps_the_consumed_upper_half(self):
        # numpy leaves uinteger at the last upper half after handing it
        # out (has_uint32 back to 0); PCG64.advance zeroes both, so the
        # sync must write the half back even when it was consumed
        stream = DrawStream(np.random.default_rng(11))
        plain = np.random.default_rng(11)
        for _ in range(2):
            assert stream.integers(1000) == int(plain.integers(1000))
        want = plain.bit_generator.state
        assert want["has_uint32"] == 0 and want["uinteger"] != 0
        assert stream.bit_generator.state == want

    def test_scalar_integers_is_a_python_int(self):
        stream = DrawStream(np.random.default_rng(1))
        assert type(stream.integers(10)) is int
        assert type(stream.integers(np.uint32(10))) is int
        assert type(stream.random()) is float

    def test_integers_one_consumes_nothing(self):
        stream = DrawStream(np.random.default_rng(2))
        before = np.random.default_rng(2).bit_generator.state
        assert stream.index(1) == 0 and stream.integers(1) == 0
        assert stream.bit_generator.state == before

    def test_other_calls_see_a_synced_generator(self):
        stream = DrawStream(np.random.default_rng(4))
        plain = np.random.default_rng(4)
        stream.integers(6), plain.integers(6)
        choice = stream.choice  # bound now, called after more draws
        stream.random(), plain.random()
        assert choice(10, size=3).tolist() == plain.choice(10, size=3).tolist()
        assert stream.bit_generator.state == plain.bit_generator.state

    def test_external_state_writes_are_picked_up(self):
        # anyone holding the bit generator may reseat it between draws
        stream = DrawStream(np.random.default_rng(8))
        plain = np.random.default_rng(8)
        stream.integers(5), plain.integers(5)
        saved = plain.bit_generator.state
        stream.bit_generator.state = saved
        draws = [stream.integers(9) for _ in range(3)]
        plain.bit_generator.state = saved
        assert draws == [int(plain.integers(9)) for _ in range(3)]

    def test_invalid_arguments_raise_like_numpy(self):
        stream = DrawStream(np.random.default_rng(0))
        for bad in (0, -3):
            with pytest.raises(ValueError):
                stream.integers(bad)

    def test_other_bit_generators_are_delegated(self):
        stream = DrawStream(np.random.Generator(np.random.MT19937(3)))
        plain = np.random.Generator(np.random.MT19937(3))
        for n in (2, 7, 1000):
            assert stream.index(n) == int(plain.integers(n))
            assert stream.random() == plain.random()
            assert stream.random_list(n) == plain.random(n).tolist()
        got = stream.bit_generator.state["state"]
        want = plain.bit_generator.state["state"]
        assert got["pos"] == want["pos"]
        np.testing.assert_array_equal(got["key"], want["key"])
