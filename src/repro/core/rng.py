"""Deterministic random-stream management.

Every stochastic component in the library (workload generators, the DREP
coin flips, steal-victim selection, ...) draws from its own named child
stream derived from one master seed.  Two benefits:

* **Reproducibility** — a run is fully determined by a single integer seed.
* **Decoupling** — adding draws to one component never perturbs another
  component's stream, so experiments stay comparable across code changes.

The implementation uses :class:`numpy.random.SeedSequence` spawning, which
guarantees statistically independent child streams.

:class:`DrawStream` wraps one such generator for callers that make
hundreds of thousands of scalar draws (the work-stealing runtime's victim
picks, flowsim DREP's coin flips and re-draws): same draws, same
generator state, a fraction of the per-call cost.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["DrawStream", "RngFactory", "derive_seed", "stable_hash"]

#: raw words a :class:`DrawStream` prefetches at a time; larger blocks
#: save no measurable time and cost resident memory
_BLOCK = 256
_MASK32 = 0xFFFFFFFF
_TWO32 = 1 << 32
#: ``PCG64.advance`` wraps modulo 2**128, so advancing by 2**128 - k
#: rewinds k words
_PERIOD = 1 << 128
_INV53 = 1.0 / 9007199254740992.0  # 2**-53


def stable_hash(name: str) -> int:
    """Map ``name`` to a stable 64-bit integer (independent of PYTHONHASHSEED).

    Python's builtin :func:`hash` is salted per process for strings, which
    would break cross-run reproducibility; we use BLAKE2 instead.
    """
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def derive_seed(seed: int, name: str) -> int:
    """Derive a named 63-bit child seed from ``seed``, deterministically.

    The one seed-derivation rule of the library: a golden-ratio (Weyl)
    multiply of the parent seed mixed with :func:`stable_hash` of the
    name.  :meth:`RngFactory.child` and the experiment grid runner
    (:mod:`repro.analysis.pool`) both use it, so a cell labelled
    ``"rep/3"`` sees the same seed whether the grid runs serially, in a
    process pool, or through a hand-rolled loop.  Pinned by a regression
    test — changing this invalidates every recorded sweep.
    """
    return (seed * 0x9E3779B97F4A7C15 + stable_hash(name)) % 2**63


class RngFactory:
    """Create named, independent :class:`numpy.random.Generator` streams.

    Parameters
    ----------
    seed:
        Master seed.  Runs with equal seeds and equal stream names produce
        identical draws regardless of creation order.

    Examples
    --------
    >>> rngs = RngFactory(seed=42)
    >>> g1 = rngs.stream("arrivals")
    >>> g2 = rngs.stream("drep")
    >>> g1 is g2
    False
    >>> bool(RngFactory(42).stream("arrivals").integers(100)
    ...      == RngFactory(42).stream("arrivals").integers(100))
    True
    """

    def __init__(self, seed: int = 0) -> None:
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an integer, got {type(seed).__name__}")
        self.seed = int(seed)

    def stream(self, name: str) -> np.random.Generator:
        """Return a fresh generator for stream ``name``.

        Calling twice with the same name returns two generators in the same
        initial state (identical future draws) — callers own generator state.
        """
        ss = np.random.SeedSequence([self.seed, stable_hash(name)])
        return np.random.Generator(np.random.PCG64(ss))

    def child(self, name: str) -> "RngFactory":
        """Derive a sub-factory, e.g. one per experiment repetition."""
        return RngFactory(seed=derive_seed(self.seed, name))

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"RngFactory(seed={self.seed})"


class DrawStream:
    """A PCG64 :class:`numpy.random.Generator` with cheap scalar draws.

    Stands in for the generator it wraps.  Scalar ``integers(n)`` (an int
    ``1 <= n < 2**32``; the result is a Python int), scalar ``random()``
    and :meth:`random_list` (``random(k)`` as a list of Python floats)
    are computed in Python from a prefetched block of raw
    64-bit words, with numpy's own algorithms: Lemire's rejection on
    32-bit halves, the upper half of each word buffered for the next
    draw exactly as the bit generator's ``has_uint32``/``uinteger`` pair
    buffers it, and ``(word >> 11) * 2**-53``.  So the draws equal the
    wrapped generator's, call for call.

    While a block is live the bit generator runs ahead by the unused
    words and holds a stale half word.  :meth:`sync` hands the state
    back: it rewinds the unused words and writes the half word back.
    Every other call (sized draws, other distributions) and every read
    of :attr:`bit_generator` syncs first, so the state is what per-call
    numpy leaves wherever anyone can look.  (So a caller that keeps the
    bit generator and reseats it must read :attr:`bit_generator` again
    after drawing through the stream.)  A generator whose bit generator
    is not PCG64 is simply delegated to.

    >>> a = DrawStream(RngFactory(3).stream("x"))
    >>> b = RngFactory(3).stream("x")
    >>> [a.integers(10) for _ in range(5)] == [int(b.integers(10)) for _ in range(5)]
    True
    >>> a.bit_generator.state == b.bit_generator.state
    True
    """

    __slots__ = ("_gen", "_bitgen", "_pcg", "_words", "_has", "_half", "_live")

    def __init__(self, gen: np.random.Generator) -> None:
        self._gen = gen
        self._bitgen = gen.bit_generator
        self._pcg = type(self._bitgen) is np.random.PCG64
        #: the unused words of the live block, next word last
        self._words: list[int] = []
        self._has = 0
        self._half = 0
        self._live = False

    def index(self, n: int) -> int:
        """``integers(n)`` as a Python int; ``n`` is an int in [1, 2**32).

        The hot callers' entry: one frame, no argument checks.
        """
        if n == 1:
            return 0  # numpy's single-value range consumes no state
        if self._has:
            self._has = 0
            m = self._half * n
        else:
            words = self._words
            if not words:
                if self._fill():
                    return self.index(n)
                return int(self._gen.integers(n))
            w = words.pop()
            self._half = w >> 32
            self._has = 1
            m = (w & _MASK32) * n
        if (m & _MASK32) < n:
            threshold = (_TWO32 - n) % n
            while (m & _MASK32) < threshold:
                m = self._next32() * n
        return m >> 32

    def integers(self, low, high=None, size=None, dtype=np.int64, endpoint=False):
        """:meth:`numpy.random.Generator.integers`."""
        if (
            high is None
            and size is None
            and dtype is np.int64
            and not endpoint
            and (type(low) is int or isinstance(low, np.integer))
            and 0 < low < _TWO32
        ):
            return self.index(int(low))
        self.sync()
        return self._gen.integers(low, high, size, dtype, endpoint)

    def random(self, size=None, dtype=np.float64, out=None):
        """:meth:`numpy.random.Generator.random`."""
        if size is None and out is None and dtype is np.float64:
            words = self._words
            if words or self._fill():
                return (self._words.pop() >> 11) * _INV53
        self.sync()
        return self._gen.random(size, dtype, out)

    def random_list(self, k: int) -> list[float]:
        """``random(k).tolist()`` for an int ``k >= 0``: ``k`` whole words,
        ``(word >> 11) * 2**-53`` each, the buffered half word left alone."""
        words = self._words
        cut = len(words) - k
        if cut >= 0:
            out = [(w >> 11) * _INV53 for w in reversed(words[cut:])]
            del words[cut:]
            return out
        if not self._pcg:
            return self._gen.random(k).tolist()
        out = [(w >> 11) * _INV53 for w in reversed(words)]
        self._fill()
        return out + self.random_list(k - len(out))

    @property
    def bit_generator(self) -> np.random.BitGenerator:
        """The wrapped bit generator, synced."""
        self.sync()
        return self._bitgen

    def sync(self) -> None:
        """Rewind the unused words and restore the buffered half word."""
        if not self._live:
            return
        bitgen = self._bitgen
        if self._words:
            # advance() also zeroes has_uint32 and uinteger
            bitgen.advance(_PERIOD - len(self._words))
            self._words = []
        state = bitgen.state
        state["has_uint32"] = self._has
        state["uinteger"] = self._half
        bitgen.state = state
        self._has = 0
        self._live = False

    def _fill(self) -> bool:
        """Prefetch a block; False when the generator is not PCG64."""
        if not self._live:
            if not self._pcg:
                return False
            state = self._bitgen.state
            self._has = state["has_uint32"]
            self._half = state["uinteger"]
            self._live = True
        self._words = self._bitgen.random_raw(_BLOCK)[::-1].tolist()
        return True

    def _next32(self) -> int:
        """One ``next_uint32`` of a live stream (rejection redraws)."""
        if self._has:
            self._has = 0
            return self._half
        if not self._words:
            self._fill()
        w = self._words.pop()
        self._half = w >> 32
        self._has = 1
        return w & _MASK32

    def __getattr__(self, name: str):
        # every other Generator method, synced when it is called
        if name.startswith("_"):
            raise AttributeError(name)
        attr = getattr(self._gen, name)
        if not callable(attr):
            self.sync()
            return attr

        def synced(*args, **kwargs):
            self.sync()
            return attr(*args, **kwargs)

        return synced
