"""Build work-stealing runtimes whose draws go straight to the Generator.

``WsRuntime`` wraps its generator in a :class:`~repro.core.rng.DrawStream`,
which computes scalar draws in Python from prefetched raw words.  Inside
:func:`built_streams`, the runtimes built by the block get either that
stream or, with ``direct=True``, a :class:`DirectDraws` that makes every
draw one call on the wrapped ``Generator`` — numpy's own per-call draws,
the reference the stream is held to.  Either way every stream built is
recorded, so a test can read the end state of a runtime that a wrapper
(``simulate_ws``, ``simulate_ws_stream``) built and dropped.
"""

from __future__ import annotations

from contextlib import contextmanager

import repro.wsim.runtime as runtime
from repro.core.rng import DrawStream


class DirectDraws(DrawStream):
    """A stream that never prefetches: each draw is one Generator call."""

    __slots__ = ()

    def index(self, n):
        return int(self._gen.integers(n))

    def integers(self, *args, **kwargs):
        return self._gen.integers(*args, **kwargs)

    def random(self, *args, **kwargs):
        return self._gen.random(*args, **kwargs)


@contextmanager
def built_streams(direct: bool):
    """Record the streams runtimes build in the block; ``direct`` makes
    them :class:`DirectDraws`."""
    built: list[DrawStream] = []
    cls = DirectDraws if direct else DrawStream

    def build(gen):
        stream = cls(gen)
        built.append(stream)
        return stream

    saved = runtime.DrawStream
    runtime.DrawStream = build
    try:
        yield built
    finally:
        runtime.DrawStream = saved
