"""SWF (Standard Workload Format) parser: fixture round-trip + rejection.

SWF here is the Parallel Workloads Archive *trace format*, not the SWF
(Smallest Work First) scheduling policy — see docs/workloads.md.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.core.job import ParallelismMode
from repro.workloads.swf import (
    SWF_FIELDS,
    SwfParseError,
    format_swf_line,
    read_swf,
    swf_stream,
)

FIXTURE = Path(__file__).resolve().parent.parent / "data" / "sanitized_cluster.swf"


def test_fixture_parses_completely():
    jobs = list(read_swf(FIXTURE))
    assert len(jobs) == 40
    # submit times non-decreasing in the fixture
    submits = [j.submit_time for j in jobs]
    assert submits == sorted(submits)
    assert all(len(SWF_FIELDS) == 18 for _ in (0,))


def test_fixture_round_trips():
    jobs = list(read_swf(FIXTURE))
    lines = [format_swf_line(j) for j in jobs]
    again = list(read_swf(lines))
    assert again == jobs


def test_stream_filters_and_densifies():
    specs = list(swf_stream(FIXTURE))
    # fixture has 40 records: one cancelled (status 5), one failed
    # (status 0) and one with unknown run time (-1) must be dropped
    assert len(specs) == 37
    assert [s.job_id for s in specs] == list(range(37))
    assert specs[0].release == 0.0  # shifted to start at 0
    releases = [s.release for s in specs]
    assert releases == sorted(releases)
    for s in specs:
        assert s.work > 0 and 0 < s.span <= s.work * (1 + 1e-12)
        assert s.mode in (
            ParallelismMode.SEQUENTIAL,
            ParallelismMode.FULLY_PARALLEL,
        )


def test_stream_field_mapping():
    recs = [r for r in read_swf(FIXTURE) if r.run_time > 0 and r.status in (-1, 1)]
    specs = list(swf_stream(FIXTURE))
    for rec, spec in zip(recs, specs):
        assert spec.span == pytest.approx(rec.run_time)
        assert spec.work == pytest.approx(rec.run_time * rec.procs)
        expected_mode = (
            ParallelismMode.FULLY_PARALLEL
            if rec.procs > 1
            else ParallelismMode.SEQUENTIAL
        )
        assert spec.mode is expected_mode


def test_stream_keeps_non_completed_when_asked():
    all_specs = list(swf_stream(FIXTURE, completed_only=False))
    # only the unknown-run-time record stays excluded
    assert len(all_specs) == 39


def test_time_scale_scales_everything():
    base = list(swf_stream(FIXTURE))
    scaled = list(swf_stream(FIXTURE, time_scale=0.5))
    assert len(scaled) == len(base)
    for b, s in zip(base, scaled):
        assert s.release == pytest.approx(b.release * 0.5)
        assert s.span == pytest.approx(b.span * 0.5)
        assert s.work == pytest.approx(b.work * 0.5)


def test_time_scale_must_be_positive():
    with pytest.raises(ValueError, match="time_scale"):
        swf_stream(FIXTURE, time_scale=0.0)


def test_wrong_field_count_rejected():
    lines = ["; header", "1 2 3"]
    with pytest.raises(SwfParseError, match="expected 18 fields"):
        list(read_swf(lines))


def test_non_numeric_field_rejected():
    line = "1 0 0 10 four " + " ".join(["-1"] * 13)
    with pytest.raises(SwfParseError, match="allocated_procs"):
        list(read_swf([line]))


GOOD_LINE = "1 0 0 10 2 -1 -1 2 20 -1 1 1 1 1 1 -1 -1 -1"


@pytest.mark.parametrize("i", range(len(SWF_FIELDS)))
def test_each_non_numeric_field_is_named(i):
    """A bad value in any of the 18 fields names that field and its
    1-based line, in the message the reader has always given."""
    fields = GOOD_LINE.split()
    fields[i] = "x1" if i % 2 else "1.5.2"
    line = "  " + " ".join(fields) + "\n"
    with pytest.raises(SwfParseError) as exc:
        list(read_swf(["; header", GOOD_LINE, line]))
    name = SWF_FIELDS[i]
    assert exc.value.lineno == 3
    assert str(exc.value) == (
        f"SWF line 3: field {name!r} is not numeric ({fields[i]!r}): "
        f"{line.strip()!r}"
    )


def test_int_field_refuses_a_fraction():
    fields = GOOD_LINE.split()
    fields[4] = "2.5"  # allocated_procs
    with pytest.raises(SwfParseError, match="'allocated_procs' is not numeric"):
        list(read_swf([" ".join(fields)]))


def test_indented_comment_skipped():
    lines = ["   ; indented comment", "\t;tabbed", "  ", GOOD_LINE]
    jobs = list(read_swf(lines))
    assert len(jobs) == 1
    assert jobs[0].allocated_procs == 2 and jobs[0].requested_time == 20.0


def test_stream_stamps_dense_ids_after_its_filters():
    def rec(n, submit, run, status):
        return f"{n} {submit} 0 {run} 1 -1 -1 1 -1 -1 {status} -1 -1 -1 -1 -1 -1 -1"

    lines = [
        rec(10, 5, 3, 1),
        rec(11, 6, 4, 5),  # cancelled: dropped
        rec(12, 7, -1, 1),  # unknown run time: dropped
        rec(13, 8, 2, -1),
        rec(14, 9, 1, 1),
    ]
    stream = swf_stream(lines)
    specs = list(stream)
    assert [s.job_id for s in specs] == [0, 1, 2]
    assert [s.release for s in specs] == [0.0, 3.0, 4.0]
    assert stream.n_consumed == 3
    assert stream.meta["format"] == "swf"
    kept = list(swf_stream(lines, completed_only=False))
    assert [s.job_id for s in kept] == [0, 1, 2, 3]


def test_parse_error_carries_line_number():
    lines = ["; comment", "", "1 2 3 4"]
    with pytest.raises(SwfParseError) as exc:
        list(read_swf(lines))
    assert exc.value.lineno == 3


def test_comments_and_blanks_skipped():
    lines = [
        "; Version: 2.2",
        "",
        "1 0 0 10 2 -1 -1 2 20 -1 1 1 1 1 1 -1 -1 -1",
    ]
    jobs = list(read_swf(lines))
    assert len(jobs) == 1
    assert jobs[0].run_time == 10.0
    assert jobs[0].procs == 2


def test_procs_fallback_to_requested():
    line = "1 0 0 10 -1 -1 -1 4 20 -1 1 1 1 1 1 -1 -1 -1"
    (job,) = read_swf([line])
    assert job.procs == 4
    line = "1 0 0 10 -1 -1 -1 -1 20 -1 1 1 1 1 1 -1 -1 -1"
    (job,) = read_swf([line])
    assert job.procs == 1
