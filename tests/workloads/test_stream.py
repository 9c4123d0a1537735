"""JobStream contract, lazy generators, and the re-streaming transforms."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.job import JobSpec, ParallelismMode
from repro.workloads.stream import (
    JobStream,
    attach_dags_stream,
    calibrate_load,
    generate_stream,
    peak_window,
    resample_stream,
    scan_stream,
    stream_trace,
)
from repro.workloads.traces import attach_dags, generate_trace


def _spec(i, release, work=1.0):
    return JobSpec(job_id=i, release=release, work=work, span=work)


class TestJobStreamContract:
    def test_dense_ids_enforced(self):
        s = JobStream([_spec(0, 0.0), _spec(5, 1.0)])
        next(s)
        with pytest.raises(ValueError, match="dense"):
            next(s)

    def test_sorted_releases_enforced(self):
        s = JobStream([_spec(0, 2.0), _spec(1, 1.0)])
        next(s)
        with pytest.raises(ValueError, match="sorted by release"):
            next(s)

    def test_single_use(self):
        s = JobStream([_spec(0, 0.0)])
        assert len(list(s)) == 1
        assert list(s) == []  # exhausted, not restartable

    def test_materialize(self):
        trace = JobStream([_spec(0, 0.0), _spec(1, 1.0)], name="t").materialize()
        assert trace.name == "t"
        assert len(trace) == 2


class TestGenerateStream:
    def test_matches_generate_trace_bitwise(self):
        trace = generate_trace(500, "finance", 0.7, 8, seed=42)
        streamed = list(generate_stream(500, "finance", 0.7, 8, seed=42))
        assert len(streamed) == len(trace.jobs)
        for a, b in zip(trace.jobs, streamed):
            assert a.release == b.release  # bit-for-bit, no approx
            assert a.work == b.work
            assert a.span == b.span
            assert a.mode == b.mode

    def test_chunk_invariant_for_poisson_exponential(self):
        one = list(generate_stream(300, "exponential", 0.6, 4, seed=7, chunk_jobs=300))
        many = list(generate_stream(300, "exponential", 0.6, 4, seed=7, chunk_jobs=17))
        assert all(a == b for a, b in zip(one, many))

    def test_mmpp_stream(self):
        jobs = list(
            generate_stream(
                200, "finance", 0.6, 4, seed=3, arrival_process="mmpp"
            )
        )
        assert len(jobs) == 200
        releases = [j.release for j in jobs]
        assert releases == sorted(releases)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            generate_stream(0, "finance", 0.5, 4)
        with pytest.raises(ValueError):
            generate_stream(10, "finance", 0.5, 4, chunk_jobs=0)
        with pytest.raises(ValueError):
            generate_stream(10, "finance", 0.5, 4, arrival_process="weird")


class TestScanAndCalibrate:
    def test_scan_stats(self):
        stats = scan_stream(
            [_spec(0, 0.0, 2.0), _spec(1, 5.0, 3.0), _spec(2, 10.0, 5.0)]
        )
        assert stats.n_jobs == 3
        assert stats.total_work == pytest.approx(10.0)
        assert stats.horizon == 10.0
        assert stats.offered_load(1) == pytest.approx(1.0)

    def test_calibrate_hits_target_load(self):
        trace = generate_trace(400, "finance", 0.9, 4, seed=5)
        out = calibrate_load(trace, 0.5, 4)
        stats = scan_stream(out)
        assert stats.offered_load(4) == pytest.approx(0.5, rel=1e-9)

    def test_calibrate_preserves_work_and_order(self):
        trace = generate_trace(100, "finance", 0.8, 4, seed=6)
        out = list(calibrate_load(trace, 0.4, 4))
        assert [j.work for j in out] == [j.work for j in trace.jobs]
        releases = [j.release for j in out]
        assert releases == sorted(releases)

    def test_calibrate_rejects_one_shot_iterator(self):
        jobs = iter([_spec(0, 0.0)])
        with pytest.raises(TypeError, match="re-streamable"):
            calibrate_load(jobs, 0.5, 4)

    def test_calibrate_validates(self):
        trace = generate_trace(10, "finance", 0.5, 2, seed=1)
        with pytest.raises(ValueError):
            calibrate_load(trace, 1.5, 2)
        with pytest.raises(ValueError):
            calibrate_load(trace, 0.5, 0)


class TestPeakWindow:
    def test_finds_the_busy_burst(self):
        # quiet - burst - quiet: the burst must be selected
        jobs = (
            [_spec(i, float(i) * 10.0, 1.0) for i in range(3)]
            + [_spec(3 + i, 100.0 + i, 50.0) for i in range(5)]
            + [_spec(8 + i, 300.0 + 10.0 * i, 1.0) for i in range(3)]
        )
        out = list(peak_window(lambda: iter(jobs), 20.0))
        assert len(out) == 5
        assert all(j.work == 50.0 for j in out)
        assert out[0].release == 0.0  # shifted to start at 0
        assert [j.job_id for j in out] == list(range(5))

    def test_rejects_empty_and_bad_window(self):
        with pytest.raises(ValueError):
            peak_window(lambda: iter([]), 10.0)
        with pytest.raises(ValueError):
            peak_window(lambda: iter([_spec(0, 0.0)]), 0.0)


class TestAttachDagsStream:
    def test_matches_attach_dags_bitwise(self):
        base = generate_trace(
            40,
            "finance",
            0.6,
            4,
            mode=ParallelismMode.FULLY_PARALLEL,
            seed=21,
            scale_work_with_m=False,
        )
        dense = attach_dags(base, parallelism=6, seed=33)
        streamed = list(
            attach_dags_stream(stream_trace(base), parallelism=6, seed=33)
        )
        for a, b in zip(dense.jobs, streamed):
            assert a.work == b.work
            assert a.span == b.span
            assert a.dag.work == b.dag.work
            assert a.dag.span == b.dag.span
            assert np.array_equal(a.dag.weights, b.dag.weights)

    def test_rejects_bad_work_unit(self):
        with pytest.raises(ValueError):
            attach_dags_stream([], parallelism=2, work_unit=0.0)


class TestResampleStream:
    def _source(self):
        return generate_trace(60, "bing", 0.7, 4, seed=9)

    def test_contract_and_support(self):
        src = self._source()
        out = list(resample_stream(src, 250, seed=5))
        assert [j.job_id for j in out] == list(range(250))
        assert all(
            a.release <= b.release for a, b in zip(out, out[1:])
        )
        src_bodies = {(j.work, j.span, j.mode) for j in src.jobs}
        assert {(j.work, j.span, j.mode) for j in out} <= src_bodies
        # releases are a running sum, so recovered gaps differ from the
        # drawn ones only by accumulation rounding
        src_gaps = sorted(
            b.release - a.release for a, b in zip(src.jobs, src.jobs[1:])
        )
        for a, b in zip(out, out[1:]):
            g = b.release - a.release
            nearest = min(src_gaps, key=lambda x: abs(x - g))
            assert g == pytest.approx(nearest, rel=1e-9, abs=1e-9)

    def test_deterministic_and_chunk_invariant(self):
        src = self._source()
        a = list(resample_stream(src, 200, seed=5, chunk_jobs=1))
        b = list(resample_stream(src, 200, seed=5, chunk_jobs=64))
        c = list(resample_stream(src, 200, seed=5))
        assert a == b == c
        d = list(resample_stream(src, 200, seed=6))
        assert a != d

    def test_factory_source(self):
        jobs = [_spec(i, float(i), work=1.0 + i) for i in range(10)]
        out = list(resample_stream(lambda: iter(jobs), 30, seed=0))
        assert len(out) == 30
        assert all(j.work in {1.0 + i for i in range(10)} for j in out)

    def test_rejects_degenerate_inputs(self):
        jobs = [_spec(0, 0.0)]
        with pytest.raises(ValueError, match=">= 2 source jobs"):
            resample_stream(lambda: iter(jobs), 10)
        with pytest.raises(ValueError, match="n_jobs"):
            resample_stream(self._source(), 0)
        with pytest.raises(ValueError, match="chunk_jobs"):
            resample_stream(self._source(), 10, chunk_jobs=0)

    def test_rejects_dag_jobs(self):
        base = generate_trace(
            10, "finance", 0.6, 4,
            mode=ParallelismMode.FULLY_PARALLEL, seed=2,
            scale_work_with_m=False,
        )
        dag_trace = attach_dags(base, parallelism=4, seed=2)
        with pytest.raises(ValueError, match="DAG"):
            resample_stream(dag_trace, 5)
