"""Standard Workload Format (SWF) trace ingestion.

**Naming hazard:** SWF here is the *Standard Workload Format* — the
18-field plain-text format the Parallel Workloads Archive uses for HPC
cluster logs — and has nothing to do with ``repro.flowsim.policies.swf``
(Smallest Work First, a scheduling policy).  ``docs/workloads.md``
spells out the disambiguation.

An SWF file is line-oriented: ``;``-prefixed header/comment lines, then
one job per line with 18 whitespace-separated numeric fields, ``-1``
meaning "unknown".  We consume the fields that matter for flow-time
scheduling:

====  ==================  =========================================
 #    SWF field           use here
====  ==================  =========================================
 1    job number          provenance only (ids are re-densified)
 2    submit time [s]     ``release`` (shifted so the trace starts at 0)
 4    run time [s]        ``span`` (critical path at its allocation)
 5    allocated procs     parallelism; ``work = run_time * procs``
 8    requested procs     fallback when allocated is unknown
11    status              completed-only filter (``1``) by default
====  ==================  =========================================

Everything is streamed: :func:`read_swf` yields one :class:`SwfJob` per
line and :func:`swf_stream` yields :class:`~repro.core.JobSpec`, so a
multi-million-job archive file never materializes in RAM.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.job import JobSpec, ParallelismMode
from repro.workloads.stream import JobStream

__all__ = [
    "SwfJob",
    "SwfParseError",
    "read_swf",
    "format_swf_line",
    "swf_stream",
    "SWF_FIELDS",
]

#: The 18 fields of the Standard Workload Format, in order.
SWF_FIELDS = (
    "job_number",
    "submit_time",
    "wait_time",
    "run_time",
    "allocated_procs",
    "avg_cpu_time",
    "used_memory",
    "requested_procs",
    "requested_time",
    "requested_memory",
    "status",
    "user_id",
    "group_id",
    "executable",
    "queue",
    "partition",
    "preceding_job",
    "think_time",
)


class SwfParseError(ValueError):
    """A malformed SWF line, with its 1-based line number."""

    def __init__(self, lineno: int, line: str, reason: str) -> None:
        super().__init__(f"SWF line {lineno}: {reason}: {line.strip()!r}")
        self.lineno = lineno
        self.line = line
        self.reason = reason


@dataclass(frozen=True)
class SwfJob:
    """One parsed SWF record (times in seconds, ``-1`` = unknown)."""

    job_number: int
    submit_time: float
    wait_time: float
    run_time: float
    allocated_procs: int
    avg_cpu_time: float
    used_memory: float
    requested_procs: int
    requested_time: float
    requested_memory: float
    status: int
    user_id: int
    group_id: int
    executable: int
    queue: int
    partition: int
    preceding_job: int
    think_time: float

    @property
    def procs(self) -> int:
        """Best-effort processor count: allocated, else requested, else 1."""
        if self.allocated_procs > 0:
            return self.allocated_procs
        if self.requested_procs > 0:
            return self.requested_procs
        return 1


_INT_FIELDS = frozenset(
    (
        "job_number",
        "allocated_procs",
        "requested_procs",
        "status",
        "user_id",
        "group_id",
        "executable",
        "queue",
        "partition",
        "preceding_job",
    )
)

#: the converter of each field, in ``SWF_FIELDS`` order
_CONVERTERS = tuple(int if name in _INT_FIELDS else float for name in SWF_FIELDS)


def read_swf(source: str | Path | Iterable[str]) -> Iterator[SwfJob]:
    """Stream :class:`SwfJob` records from a path or iterable of lines.

    ``;`` comment lines and blank lines are skipped; any other line must
    carry exactly 18 numeric fields or :class:`SwfParseError` is raised
    with the offending line number — a trace that parses at all parses
    completely.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="replace") as fh:
            yield from _parse_lines(fh)
    else:
        yield from _parse_lines(source)


def _parse_lines(lines: Iterable[str]) -> Iterator[SwfJob]:
    n_fields = len(SWF_FIELDS)
    for lineno, line in enumerate(lines, start=1):
        fields = line.split()
        if not fields or fields[0].startswith(";"):
            continue  # blank, or a comment after any leading whitespace
        if len(fields) != n_fields:
            raise SwfParseError(
                lineno, line, f"expected {n_fields} fields, got {len(fields)}"
            )
        try:
            values = [conv(raw) for conv, raw in zip(_CONVERTERS, fields)]
        except ValueError:
            raise SwfParseError(lineno, line, _non_numeric(fields)) from None
        yield SwfJob(*values)


def _non_numeric(fields: list[str]) -> str:
    """The parse error naming the first field of ``fields`` that does
    not convert (the slow path, taken once per malformed line)."""
    for name, conv, raw in zip(SWF_FIELDS, _CONVERTERS, fields):
        try:
            conv(raw)
        except ValueError:
            return f"field {name!r} is not numeric ({raw!r})"
    raise AssertionError("every field converts")  # pragma: no cover


def format_swf_line(job: SwfJob) -> str:
    """Render a record back to one SWF line (round-trip inverse of
    :func:`read_swf` for the fields it parses)."""
    out = []
    for name in SWF_FIELDS:
        v = getattr(job, name)
        if name in _INT_FIELDS:
            out.append(str(int(v)))
        else:
            out.append(f"{float(v):g}")
    return " ".join(out)


def swf_stream(
    source: str | Path | Iterable[str],
    *,
    completed_only: bool = True,
    min_run_time: float = 1e-9,
    time_scale: float = 1.0,
    name: str | None = None,
) -> JobStream:
    """Adapt an SWF trace to a :class:`~repro.workloads.stream.JobStream`.

    Field mapping: ``release = (submit - first_submit) * time_scale``,
    ``work = run_time * procs * time_scale``, ``span = run_time *
    time_scale``; jobs with more than one processor are stamped
    ``FULLY_PARALLEL`` (they can use the whole machine), single-processor
    jobs ``SEQUENTIAL``.  Records with unknown/zero run time are dropped,
    as are non-completed jobs unless ``completed_only=False`` (status 1 =
    completed; ``-1`` = unknown is kept, matching archive practice).
    Job ids are stamped dense, in submit order, on the records the
    filters keep; out-of-order submits are a contract violation surfaced
    by the stream wrapper.
    """
    if not time_scale > 0:
        raise ValueError("time_scale must be > 0")

    def _jobs() -> Iterator[JobSpec]:
        first_submit: float | None = None
        job_id = 0
        for rec in read_swf(source):
            if rec.run_time <= min_run_time:
                continue
            if completed_only and rec.status not in (-1, 1):
                continue
            if first_submit is None:
                first_submit = rec.submit_time
            procs = rec.procs
            span = rec.run_time * time_scale
            work = span * procs
            yield JobSpec(
                job_id=job_id,
                release=(rec.submit_time - first_submit) * time_scale,
                work=work,
                span=span,
                mode=(
                    ParallelismMode.FULLY_PARALLEL
                    if procs > 1
                    else ParallelismMode.SEQUENTIAL
                ),
            )
            job_id += 1

    label = name
    if label is None:
        label = Path(source).stem if isinstance(source, (str, Path)) else "swf"
    return JobStream(
        _jobs(),
        name=label,
        meta={"format": "swf", "time_scale": time_scale},
    )
