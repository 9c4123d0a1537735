"""The percentile rule and the self-time arithmetic."""

import random

import numpy as np
import pytest
from common import quantile
from layers import Spans, self_times
from spans import Recorder


@pytest.mark.parametrize(
    "n, q, supported",
    [(1000, 0.99, True), (999, 0.99, False), (10000, 0.999, True), (9999, 0.999, False), (20, 0.5, True), (19, 0.5, False)],
)
def test_quantile_needs_ten_samples_beyond(n, q, supported):
    samples = list(range(n))
    value = quantile(samples, q)
    assert (value is not None) == supported
    if supported:
        assert sum(s > value for s in samples) >= 10


def test_quantile_is_nearest_rank_on_any_order():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 3000)
        q = rng.choice([0.5, 0.9, 0.99, 0.999])
        samples = [rng.random() for _ in range(n)]
        value = quantile(samples, q)
        beyond = sum(s > value for s in samples) if value is not None else None
        assert (value is None) == (n - int(np.ceil(q * n)) < 10)
        if value is not None:
            assert beyond >= 10
            assert sum(s <= value for s in samples) >= q * n


def test_self_time_subtracts_direct_children_only():
    # 0: [0, 10] top; 1: [1, 4] and 2: [5, 9] children of 0; 3: [2, 3] child of 1
    parent = np.array([-1, 0, 0, 1])
    start = np.array([0.0, 1.0, 5.0, 2.0])
    end = np.array([10.0, 4.0, 9.0, 3.0])
    np.testing.assert_allclose(self_times(parent, start, end), [3.0, 2.0, 4.0, 1.0])


def test_self_time_clips_children_to_the_parent():
    parent = np.array([-1, 0])
    start = np.array([0.0, 0.5])
    end = np.array([1.0, 1.5])  # the child outlives its parent (async hand-off)
    np.testing.assert_allclose(self_times(parent, start, end), [0.5, 1.0])


def test_recorder_nests_spans_and_layer_totals_sum_self_time(tmp_path):
    rec = Recorder()
    inner = rec.wrap(lambda: sum(range(1000)), "b.layer:inner")
    outer = rec.wrap(lambda: [inner() for _ in range(3)], "a.layer:outer")
    outer()
    outer()
    parent = np.frombuffer(rec.parent, dtype=np.int32)
    names = [rec.names[i] for i in rec.name]
    assert names.count("a.layer:outer") == 2 and names.count("b.layer:inner") == 6
    assert [p for p, n in zip(parent, names) if n == "a.layer:outer"] == [-1, -1]
    for p, n in zip(parent, names):
        if n == "b.layer:inner":
            assert names[p] == "a.layer:outer"
    rec.save(tmp_path / "1.npz", counters={}, missing=[])
    spans = Spans.load(tmp_path)
    start, end = np.array(rec.start), np.array(rec.end)
    total = float((end - start)[parent < 0].sum())
    assert spans.self_total("a.layer") + spans.self_total("b.layer") == pytest.approx(total)
    assert spans.count("b.layer") == 6 and spans.count("b") == 0

