"""Incremental order maintenance for the flow-level engine.

The dense engine pays O(n_active) — or O(n_active log n_active) — *per
event*: order-driven policies re-``lexsort`` the whole active set on
every rate rebuild and the next-event scan divides every remaining-work
entry.  This module provides the two structures that make per-event work
scale with the *change* instead (PR 10's tentpole):

* :class:`OrderIndex` — a Fenwick-indexed sorted list of ``(key, tie)``
  pairs, the engine-maintained replacement for the policies'
  ``np.lexsort``.  Insert/remove cost O(load + log n) (a bounded-block
  memmove plus the block bisect), ``select``/``rank`` are O(log n) via a
  Fenwick tree over block sizes that is rebuilt lazily after structural
  changes, and iterating the head reproduces the lexsort order exactly:
  ``(key, tie)`` ascending is precisely ``np.lexsort((tie, key))``.
* :class:`CompletionCalendar` — a lazy-invalidation binary heap of
  predicted completion quotients keyed by ``(job, epoch)``.  Rate
  patches invalidate only the touched entries (the served set, O(m));
  entries for jobs whose rate *and* remaining work did not move stay
  valid across segments, and stale entries are discarded lazily on pop.
  The heap minimum is the exact ``min(remaining/eff)`` of the dense
  scan — same IEEE quotients, same minimum, bit for bit.

:func:`sparse_sum` closes the last bit-for-bit gap: the engine's
``busy_time`` accounting adds ``rates.sum() * dt`` per segment, and
numpy's ``add.reduce`` uses *pairwise* summation whose association
depends on the zero entries' positions.  ``sparse_sum`` replicates that
pairwise tree over a virtual dense vector from just the non-zero
entries in O(m log n) — exact because adding ``0.0`` to any finite
non-negative partial is exact, so pruning all-zero subtrees never
changes a bit (verified against ``np.add.reduce`` by a property test).
The engine calls it through :func:`rate_sum`, which sums integral
rates exactly without the tree.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
from math import fsum

__all__ = ["OrderIndex", "CompletionCalendar", "sparse_sum", "rate_sum"]

#: target block size: big enough that the Fenwick layer is tiny, small
#: enough that an in-block insert memmove stays a few cache lines
_LOAD = 256

#: numpy's pairwise-summation block size (PW_BLOCKSIZE)
_PW_BLOCK = 128

#: non-negative integers summing to at most this are added exactly in
#: any association: every partial sum is an integer a double holds
_EXACT_INT = 2.0**53


class OrderIndex:
    """Sorted multiset-like index of ``(key, tie)`` pairs.

    ``key`` is the policy's priority (remaining work for SRPT, total
    work for SJF/SWF, release for FIFO, negated release for LAPS) and
    ``tie`` the deterministic tie-break (job id, negated for
    descending-id ties).  Pairs must be unique — ``tie`` embeds the job
    id, so they are.

    Storage is a list of sorted blocks (capped at ``2 * load``) with a
    parallel list of block maxima for O(log B) block location; blocks
    split eagerly when overfull and are merged *lazily* — an emptied
    block is dropped, but shrinking blocks are never rebalanced, which
    keeps removal cheap and is why ``load`` bounds amortized, not
    worst-case, block size.  ``ops`` counts structural mutations so the
    engine can surface ``order_ops`` in its perf counters.
    """

    __slots__ = ("_blocks", "_maxes", "_len", "_load", "_fen", "ops")

    def __init__(self, load: int = _LOAD) -> None:
        self._blocks: list[list[tuple[float, int]]] = []
        self._maxes: list[tuple[float, int]] = []
        self._len = 0
        self._load = load
        self._fen: list[int] | None = None  # lazy Fenwick over block sizes
        self.ops = 0

    def __len__(self) -> int:
        return self._len

    def __iter__(self):
        for block in self._blocks:
            yield from block

    def insert(self, key: float, tie: int) -> None:
        """Insert ``(key, tie)`` at its sorted position."""
        self.ops += 1
        self._fen = None
        item = (key, tie)
        blocks = self._blocks
        if not blocks:
            blocks.append([item])
            self._maxes.append(item)
            self._len = 1
            return
        maxes = self._maxes
        i = bisect_left(maxes, item)
        if i == len(blocks):
            i -= 1
            blocks[i].append(item)
            maxes[i] = item
        else:
            insort(blocks[i], item)
        self._len += 1
        block = blocks[i]
        if len(block) > 2 * self._load:
            half = len(block) // 2
            blocks[i : i + 1] = [block[:half], block[half:]]
            maxes[i : i + 1] = [block[half - 1], block[-1]]

    def remove(self, key: float, tie: int) -> None:
        """Remove ``(key, tie)``; raises :class:`KeyError` if absent."""
        self.ops += 1
        self._fen = None
        item = (key, tie)
        maxes = self._maxes
        i = bisect_left(maxes, item)
        if i == len(maxes):
            raise KeyError(item)
        block = self._blocks[i]
        j = bisect_left(block, item)
        if j == len(block) or block[j] != item:
            raise KeyError(item)
        del block[j]
        self._len -= 1
        if block:
            maxes[i] = block[-1]
        else:
            del self._blocks[i]
            del maxes[i]

    def __contains__(self, item: tuple[float, int]) -> bool:
        maxes = self._maxes
        i = bisect_left(maxes, item)
        if i == len(maxes):
            return False
        block = self._blocks[i]
        j = bisect_left(block, item)
        return j < len(block) and block[j] == item

    # -- Fenwick-indexed order statistics ----------------------------------

    def _build_fen(self) -> list[int]:
        """(Re)build the Fenwick tree over block sizes (lazy after any
        mutation; O(B) to build, O(log B) to query)."""
        sizes = [len(b) for b in self._blocks]
        fen = [0] * (len(sizes) + 1)
        for i, s in enumerate(sizes, start=1):
            fen[i] += s
            parent = i + (i & -i)
            if parent < len(fen):
                fen[parent] += fen[i]
        self._fen = fen
        return fen

    def select(self, i: int) -> tuple[float, int]:
        """The ``i``-th smallest pair (0-based) in O(log n)."""
        if not 0 <= i < self._len:
            raise IndexError(i)
        fen = self._fen or self._build_fen()
        # descend the Fenwick tree to the block holding global index i
        pos = 0
        rem = i
        bit = 1 << (len(fen).bit_length() - 1)
        while bit:
            nxt = pos + bit
            if nxt < len(fen) and fen[nxt] <= rem:
                rem -= fen[nxt]
                pos = nxt
            bit >>= 1
        return self._blocks[pos][rem]

    def rank(self, key: float, tie: int) -> int:
        """Number of stored pairs strictly smaller than ``(key, tie)``."""
        item = (key, tie)
        i = bisect_left(self._maxes, item)
        if i == len(self._maxes):
            return self._len
        r = bisect_left(self._blocks[i], item)
        for b in range(i):
            r += len(self._blocks[b])
        return r

    def head(self, k: int) -> list[tuple[float, int]]:
        """The ``k`` smallest pairs in ascending order (O(k) walk)."""
        out: list[tuple[float, int]] = []
        for block in self._blocks:
            need = k - len(out)
            if need <= 0:
                break
            out.extend(block[:need] if len(block) > need else block)
        return out

    def rekey_head(
        self, old: list[tuple[float, int]], new: list[tuple[float, int]]
    ) -> None:
        """Replace the first ``len(old)`` pairs with ``new`` in one splice.

        ``old`` must hold exactly the ``len(old)`` smallest pairs, in any
        order, ``new[i]`` is ``old[i]`` re-keyed, and every new pair must
        sort below the first pair past that prefix.  That is SRPT's
        re-key: the order walk serves a prefix of the order, and a served
        job's remaining work only shrinks, so its new pair still sorts
        ahead of every unserved one.  The contents and ``ops`` end up as
        one :meth:`remove` plus one :meth:`insert` per moved pair would
        leave them, for O(k log k + load) work.  Both preconditions are
        checked before anything changes; ``ValueError`` if one fails.
        """
        k = len(old)
        if len(new) != k:
            raise ValueError(f"{k} old pairs but {len(new)} new ones")
        if not k:
            return
        old_sorted = sorted(old)
        new_sorted = sorted(new)
        head = self.head(k + 1)
        if head[:k] != old_sorted:
            raise ValueError("old pairs are not the index's first pairs")
        if len(head) > k and not new_sorted[-1] < head[k]:
            raise ValueError(
                f"re-keyed pair {new_sorted[-1]} does not sort before {head[k]}"
            )
        moved = 0
        for a, b in zip(old, new):
            if a != b:
                moved += 1
        if not moved:
            return
        self.ops += 2 * moved
        self._fen = None
        blocks = self._blocks
        maxes = self._maxes
        # drop whole leading blocks, then splice the new pairs over the
        # front of the first block left (its maximum stays put)
        rest = k
        b = 0
        while b < len(blocks) and rest >= len(blocks[b]):
            rest -= len(blocks[b])
            b += 1
        del blocks[:b]
        del maxes[:b]
        if blocks:
            block = blocks[0]
            block[:rest] = new_sorted
        else:
            block = new_sorted
            blocks.append(block)
            maxes.append(block[-1])
        load = self._load
        if len(block) > 2 * load:
            parts = [block[i : i + load] for i in range(0, len(block), load)]
            blocks[0:1] = parts
            maxes[0:1] = [part[-1] for part in parts]


class CompletionCalendar:
    """Lazy-invalidation heap of predicted completion quotients.

    One live entry per *served* job: the exact IEEE quotient
    ``remaining / eff`` the dense next-event scan would compute for it
    this segment.  :meth:`update` supersedes a job's entry only when the
    quotient actually moved (rate patches therefore invalidate only the
    touched entries); :meth:`discard` drops a job that left the served
    set; :meth:`min_quotient` pops stale heap entries lazily and returns
    the minimum live quotient — bit-identical to
    ``float(np.divide(rem, eff, where=served).min())``.

    ``pops`` counts heap pops (stale discards plus resolved minima);
    ``invalidations`` counts superseded/dropped entries.  Both surface
    as engine perf counters (``calendar_pops`` /
    ``calendar_invalidations``); the heavy-churn streaming test bounds
    ``pops`` far below ``events * n_active``, the dense scan's cost.
    """

    __slots__ = ("_heap", "_live", "_seq", "pops", "invalidations")

    def __init__(self) -> None:
        # heap entries: (quotient, job, epoch); _live: job -> (epoch, q).
        # Epochs are drawn from one monotone sequence so an entry from a
        # job's earlier served lifetime can never alias a later one.
        self._heap: list[tuple[float, int, int]] = []
        self._live: dict[int, tuple[int, float]] = {}
        self._seq = 0
        self.pops = 0
        self.invalidations = 0

    def __len__(self) -> int:
        return len(self._live)

    def update(self, job: int, q: float) -> None:
        """Set ``job``'s predicted quotient to ``q`` (no-op if unchanged)."""
        self.update_many((job,), (q,))

    def update_many(self, jobs, qs) -> None:
        """:meth:`update` each ``jobs[i]`` to ``qs[i]``, in order, in one
        call (the engine's per-segment update of the served set)."""
        live = self._live
        heap = self._heap
        push = heappush
        epoch = self._seq
        invalidated = 0
        # the compaction bound, kept in step with len(live)
        bound = 64 + 4 * len(live)
        for job, q in zip(jobs, qs):
            cur = live.get(job)
            if cur is None:
                bound += 4
            elif cur[1] == q:
                continue  # prediction still valid — entry survives as-is
            else:
                invalidated += 1
            live[job] = (epoch, q)
            push(heap, (q, job, epoch))
            epoch += 1
            if len(heap) > bound:
                # amortized compaction: stale entries below the heap top
                # are never popped lazily, so without this the heap grows
                # with *events*, not with the served set (streamed runs
                # must stay flat in memory).  Rebuilding from the live map
                # returns the same minimum — ``min_quotient`` yields the
                # quotient value, so ties between entries are unobservable.
                heap = [(lq, j, ep) for j, (ep, lq) in live.items()]
                heapify(heap)
                self._heap = heap
        self._seq = epoch
        self.invalidations += invalidated

    def discard(self, job: int) -> None:
        """Drop ``job``'s entry (left the served set / completed)."""
        if self._live.pop(job, None) is not None:
            self.invalidations += 1

    def min_quotient(self) -> float:
        """Minimum live quotient, or ``inf`` when nothing is scheduled."""
        heap = self._heap
        live = self._live
        while heap:
            q, job, epoch = heap[0]
            cur = live.get(job)
            if cur is not None and cur[0] == epoch:
                self.pops += 1
                return q
            heappop(heap)
            self.pops += 1
        return float("inf")

    def clear(self) -> None:
        if self._live:
            self.invalidations += len(self._live)
        self._heap.clear()
        self._live.clear()


def sparse_sum(pos: list[int], val: list[float], n: int) -> float:
    """``float(np.add.reduce(v))`` of the virtual dense vector ``v`` of
    length ``n`` with ``v[pos[i]] = val[i]`` (``pos`` strictly ascending)
    and ``0.0`` elsewhere — without materializing it.

    Replicates numpy's pairwise summation tree (8-way unrolled blocks of
    128, halves rounded to multiples of 8) exactly; all-zero subtrees
    contribute an exact ``0.0`` and are pruned, so the cost is
    O(m log n) for ``m`` non-zeros.  Values must be non-negative finite
    (rate vectors are), which keeps every pruned partial exact.
    """
    m = len(pos)

    def rec(lo: int, cnt: int, plo: int, phi: int) -> float:
        if plo == phi:
            return 0.0
        if cnt < 8:
            res = 0.0
            for k in range(plo, phi):
                res += val[k]
            return res
        if cnt <= _PW_BLOCK:
            lim = cnt - (cnt % 8)
            r = [0.0] * 8
            k = plo
            while k < phi:
                off = pos[k] - lo
                if off >= lim:
                    break
                r[off & 7] += val[k]
                k += 1
            res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            # numpy folds the non-multiple-of-8 tail into res one element
            # at a time *after* the tree combine — order matters bitwise
            while k < phi:
                res += val[k]
                k += 1
            return res
        half = cnt // 2
        half -= half % 8
        mid = lo + half
        pm = bisect_left(pos, mid, plo, phi)
        return rec(lo, half, plo, pm) + rec(mid, cnt - half, pm, phi)

    return rec(0, n, 0, m)


def rate_sum(pos: list[int], val: list[float], n: int) -> float:
    """:func:`sparse_sum` of a sparse allocation, exact and O(k) when
    every rate is an integer.

    Integral non-negative values whose total is at most 2**53 make every
    partial sum of numpy's pairwise tree an exactly represented integer,
    so the tree's result is the exact sum whatever its association —
    ``math.fsum``.  SRPT, SJF and FIFO hand out only integral rates with
    sequential or fully parallel caps on an integral capacity; anything
    else (LAPS's equal shares, say) takes :func:`sparse_sum`.
    """
    if all(map(float.is_integer, val)):
        total = fsum(val)
        if total <= _EXACT_INT:
            return total
    return sparse_sum(pos, val, n)
