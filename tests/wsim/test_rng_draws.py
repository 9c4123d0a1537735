"""Pin the PCG64 stream facts the batched draws rely on.

Two simulators depend on them:

* the work-stealing runtime replays ``k`` skipped steal attempts as
  **one** batched victim draw (``WsRuntime._horizon_jump``) and skips the
  draw entirely for single-victim steals (``steal_within``,
  ``DrepWS.on_completion``);
* flowsim's ``DrepParallel`` re-draws the ``k`` processors a completion
  frees with ``k`` scalar draws where it once made **one**
  ``integers(n, size=k)`` call, and skips them when a single job is
  left (``DrepParallel._draw_jobs``).

These shortcuts are bit-exact only because of how numpy's ``Generator``
consumes PCG64 state:

* ``integers(1)`` returns 0 **without advancing the generator** — the
  bounded-rejection sampler short-circuits on a single-value range;
* a sequence of scalar ``integers(b_i)`` calls produces the same values
  *and* the same end state as one array call ``integers([b_0, ..])``;
* hence ``k`` repeats of a fixed per-step bound pattern equal one
  ``integers(np.tile(pattern, k))`` call.

The runtime and flowsim DREP draw through
:class:`repro.core.rng.DrawStream`, which replays numpy's scalar draws
and sized ``random(k)`` in Python from a block of raw words and hands
the state back on demand.  It relies on five more facts, pinned at the
bottom of this module:

* a bounded draw ``integers(n)`` for ``2 <= n < 2**32`` is Lemire's
  rejection on ``next_uint32`` halves: a fresh 64-bit word yields its
  low half and buffers its high half in the bit-generator state
  (``has_uint32``/``uinteger``), and the buffer is shared by scalar and
  sized calls;
* ``random()`` takes one whole word, ``(word >> 11) * 2**-53``, and
  leaves the buffered half alone;
* ``random(k)`` takes ``k`` whole words the same way, and also leaves
  the buffered half alone;
* ``bit_generator.random_raw`` leaves the buffered half alone;
* ``PCG64.advance(2**128 - k)`` rewinds ``k`` words (and zeroes the
  buffered half, which the stream writes back).

These are observed properties of numpy's implementation, not documented
API guarantees — this module is the tripwire that fires if a numpy
upgrade ever changes the stream, which would silently break the
runtime's bulk-jump ≡ unit-step equivalence and DREP-par's batched
re-draw ≡ per-processor re-draw equivalence.
"""

from __future__ import annotations

import json

import numpy as np

SEED = 12345


def _state(rng: np.random.Generator) -> str:
    return json.dumps(rng.bit_generator.state, sort_keys=True, default=str)


def test_integers_one_returns_zero_without_consuming_state():
    rng = np.random.default_rng(SEED)
    before = _state(rng)
    assert int(rng.integers(1)) == 0
    assert _state(rng) == before
    # the array form also consumes nothing for all-1 bounds
    assert rng.integers(np.ones(5, dtype=np.int64)).tolist() == [0] * 5
    assert _state(rng) == before


def test_scalar_draws_equal_one_sized_draw():
    a = np.random.default_rng(SEED)
    b = np.random.default_rng(SEED)
    scalars = [int(a.integers(7)) for _ in range(40)]
    batch = b.integers(7, size=40)
    assert scalars == batch.tolist()
    assert _state(a) == _state(b)


def test_scalar_draws_with_varying_bounds_equal_array_bounds_draw():
    bounds = [3, 7, 2, 5, 11, 4, 9, 6, 3, 8]
    a = np.random.default_rng(SEED)
    b = np.random.default_rng(SEED)
    scalars = [int(a.integers(n)) for n in bounds]
    batch = b.integers(np.asarray(bounds))
    assert scalars == batch.tolist()
    assert _state(a) == _state(b)


def test_tiled_bounds_equal_interleaved_per_step_draws():
    # the exact shape of the kernel's batched stuck-steal replay: each
    # skipped step draws once per stuck worker (bounds pattern), k times
    per_step = [5, 3, 9]
    k = 17
    a = np.random.default_rng(SEED)
    b = np.random.default_rng(SEED)
    interleaved = [int(a.integers(n)) for _ in range(k) for n in per_step]
    batched = b.integers(np.tile(np.asarray(per_step), k))
    assert interleaved == batched.tolist()
    assert _state(a) == _state(b)


# -- the facts DrawStream replays ---------------------------------------------

MASK32 = 0xFFFFFFFF


def _words(seed: int, k: int) -> list[int]:
    """The next ``k`` raw 64-bit words of a fresh generator."""
    return np.random.default_rng(seed).bit_generator.random_raw(k).tolist()


def _lemire(next32, n: int) -> int:
    """Lemire's bounded draw in [0, n) from a ``next_uint32`` source."""
    m = next32() * n
    if (m & MASK32) < n:
        threshold = (2**32 - n) % n
        while (m & MASK32) < threshold:
            m = next32() * n
    return m >> 32


def _halves(words: list[int]):
    """``next_uint32``: low half of a fresh word, then its buffered high half."""
    for w in words:
        yield w & MASK32
        yield w >> 32


def test_bounded_draws_are_lemire_on_buffered_halves():
    halves = _halves(_words(SEED, 64))
    rng = np.random.default_rng(SEED)
    # a bound just under 2**32 rejects often, so a redraw is covered
    for n in [7, 3, 2**32 - 1, 3 * 2**30, 100, 2**31 + 1, 5, 2] * 4:
        assert int(rng.integers(n)) == _lemire(lambda: next(halves), n)


def test_half_buffer_is_in_the_state_and_shared_with_sized_draws():
    (w0, w1) = _words(SEED, 2)
    rng = np.random.default_rng(SEED)
    rng.integers(10)
    state = rng.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (1, w0 >> 32)
    # a sized draw starts on the buffered half, then a fresh word
    halves = iter([w0 >> 32, w1 & MASK32])
    want = [_lemire(lambda: next(halves), 10) for _ in range(2)]
    assert rng.integers(10, size=2).tolist() == want
    state = rng.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (1, w1 >> 32)
    # so does an array-bounds draw; a consumed half stays in uinteger
    # with the flag cleared
    rng.integers(np.asarray([10]))
    state = rng.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (0, w1 >> 32)


def test_random_takes_a_whole_word_and_leaves_the_half():
    (w0, w1, w2) = _words(SEED, 3)
    rng = np.random.default_rng(SEED)
    rng.integers(10)  # buffers w0's high half
    assert rng.random() == (w1 >> 11) * 2.0**-53
    assert rng.random() == (w2 >> 11) * 2.0**-53
    state = rng.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (1, w0 >> 32)


def test_sized_random_takes_whole_words_and_leaves_the_half():
    words = _words(SEED, 8)
    rng = np.random.default_rng(SEED)
    rng.integers(10)  # buffers w0's high half
    want = [(w >> 11) * 2.0**-53 for w in words[1:8]]
    assert rng.random(7).tolist() == want
    state = rng.bit_generator.state
    assert (state["has_uint32"], state["uinteger"]) == (1, words[0] >> 32)
    # the buffered half is the next bounded draw's first source
    assert int(rng.integers(10)) == _lemire(iter([words[0] >> 32]).__next__, 10)


def test_random_raw_leaves_the_half():
    rng = np.random.default_rng(SEED)
    rng.integers(10)
    before = rng.bit_generator.state
    rng.bit_generator.random_raw(5)
    after = rng.bit_generator.state
    assert (after["has_uint32"], after["uinteger"]) == (
        before["has_uint32"], before["uinteger"]
    )
    assert after["state"] != before["state"]


def test_advance_rewinds_words_and_zeroes_the_half():
    rng = np.random.default_rng(SEED)
    rng.integers(10)
    before = rng.bit_generator.state
    bitgen = rng.bit_generator
    bitgen.random_raw(7)
    bitgen.advance(2**128 - 7)
    after = bitgen.state
    assert after["state"] == before["state"]
    assert (after["has_uint32"], after["uinteger"]) == (0, 0)
