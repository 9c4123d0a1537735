"""Pin the PCG64 stream facts the batched draws rely on.

Two simulators depend on them:

* the work-stealing runtime replays ``k`` skipped steal attempts as
  **one** batched victim draw (``WsRuntime._horizon_jump``) and skips the
  draw entirely for single-victim steals (``steal_within``,
  ``DrepWS.on_completion``);
* flowsim's ``DrepParallel`` re-draws the ``k`` processors a completion
  frees with **one** ``integers(n, size=k)`` call, and skips it when a
  single job is left (``DrepParallel._draw_jobs``).

These shortcuts are bit-exact only because of how numpy's ``Generator``
consumes PCG64 state:

* ``integers(1)`` returns 0 **without advancing the generator** — the
  bounded-rejection sampler short-circuits on a single-value range;
* a sequence of scalar ``integers(b_i)`` calls produces the same values
  *and* the same end state as one array call ``integers([b_0, ..])``;
* hence ``k`` repeats of a fixed per-step bound pattern equal one
  ``integers(np.tile(pattern, k))`` call.

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
