"""Checkpoint/restore of a live scheduler — engine, policy and RNG state.

A serving process must survive being killed: a restored scheduler picks
up with the same clock, the same in-flight jobs at the same remaining
work, the same admission/metrics state, and — crucially — the *same
policy randomness*, so the post-restore trajectory is identical to one
that was never interrupted.

Snapshots are a single JSON document (version-tagged), portable across
processes.  Engine-level state comes from
:meth:`repro.flowsim.FlowStepper.state_dict` (live jobs only) and
:meth:`~repro.flowsim.FlowStepper.finished_state` (one *history record*
per finished job: spec, final ``rem``, flow, finish time and tenant, in
completion order).  A document carries a ``cursor``: the number of
history records it does *not* inline because the caller keeps them
elsewhere — the serving journal appends them to ``history.jsonl`` once
each, which makes every checkpoint cost O(live jobs) instead of O(jobs
ever served).  The rolling metrics window is not copied either: it is
the tail of the completions, so restore refills it from the history.  A
self-contained snapshot (the ``snapshot`` op's file,
``drep-sim serve --restore``) is simply the same document with cursor 0
and every record inlined.

Policy state is captured generically by encoding the policy's
``__dict__`` with a small tagged codec that understands the types
scheduler policies actually hold: numpy arrays, numpy random generators
and :class:`~repro.core.rng.DrawStream` wrappers (via the synced
``bit_generator.state``), sets, tuples and int-keyed dicts.  Restore
instantiates the policy class fresh (zero-argument) and replays the
captured attributes, so any policy in :mod:`repro.flowsim.policies`
round-trips without bespoke serialization code.  DREP state written
before DREP's processor table became a list (an int64 array, with a
plain generator) is brought up to date on restore.

Jobs carrying explicit DAG objects are not snapshottable (the engine
refuses); the serving layer only creates scalar work/span jobs.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import numpy as np

from repro.core.rng import DrawStream
from repro.flowsim.engine import FlowSimError, FlowStepper
from repro.flowsim.policies.base import Policy
from repro.flowsim.policies.drep import _DrepBase
from repro.serve.admission import AdmissionController
from repro.serve.metrics import RollingMetrics
from repro.serve.online import OnlineScheduler
from repro.serve.tenancy import MultiTenantAdmission

__all__ = [
    "SNAPSHOT_VERSION",
    "finished_records",
    "snapshot_scheduler",
    "snapshot_scheduler_file",
    "restore_scheduler",
    "restore_scheduler_file",
    "SnapshotError",
]

SNAPSHOT_VERSION = 2


class SnapshotError(RuntimeError):
    """Raised when a snapshot cannot be produced or restored."""


# -- tagged value codec ----------------------------------------------------


def _encode(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (np.bool_, np.integer, np.floating)):
        return value.item()
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.random.Generator):
        return {"__rng__": value.bit_generator.state}
    if isinstance(value, DrawStream):
        return {"__draws__": value.bit_generator.state}
    if isinstance(value, set):
        return {"__set__": [_encode(v) for v in sorted(value)]}
    if isinstance(value, tuple):
        return {"__tuple__": [_encode(v) for v in value]}
    if isinstance(value, list):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {"__map__": [[_encode(k), _encode(v)] for k, v in value.items()]}
    raise SnapshotError(
        f"cannot snapshot policy attribute of type {type(value).__name__}"
    )


def _decode(value):
    if isinstance(value, list):
        return [_decode(v) for v in value]
    if isinstance(value, dict):
        if "__ndarray__" in value:
            return np.array(value["__ndarray__"], dtype=value["dtype"])
        if "__rng__" in value:
            return _generator(value["__rng__"])
        if "__draws__" in value:
            return DrawStream(_generator(value["__draws__"]))
        if "__set__" in value:
            return {_decode(v) for v in value["__set__"]}
        if "__tuple__" in value:
            return tuple(_decode(v) for v in value["__tuple__"])
        if "__map__" in value:
            return {_decode(k): _decode(v) for k, v in value["__map__"]}
        raise SnapshotError(f"unrecognized tagged value: {sorted(value)}")
    return value


def _generator(state: dict) -> np.random.Generator:
    bitgen_cls = getattr(np.random, state["bit_generator"])
    gen = np.random.Generator(bitgen_cls())
    gen.bit_generator.state = state
    return gen


def _encode_policy(policy: Policy) -> dict:
    cls = type(policy)
    return {
        "class": f"{cls.__module__}:{cls.__qualname__}",
        "attrs": {k: _encode(v) for k, v in vars(policy).items()},
    }


def _decode_policy(data: dict) -> Policy:
    module_name, _, qualname = data["class"].partition(":")
    if not module_name.startswith("repro."):
        raise SnapshotError(
            f"refusing to import policy from outside repro.*: {module_name}"
        )
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not (isinstance(obj, type) and issubclass(obj, Policy)):
        raise SnapshotError(f"{data['class']} is not a Policy")
    policy = obj()
    for key, value in data["attrs"].items():
        setattr(policy, key, _decode(value))
    if isinstance(policy, _DrepBase):
        # the earlier form: an int64 table and a plain generator
        if isinstance(policy._assignment, np.ndarray):
            policy._assignment = policy._assignment.tolist()
        if isinstance(policy._rng, np.random.Generator):
            policy._rng = DrawStream(policy._rng)
    return policy


# -- public API ------------------------------------------------------------


def check_version(state: dict) -> None:
    """Raise :class:`SnapshotError` unless ``state`` is in this format.

    Version 1 snapshots (the whole job table inlined, no cursor) are not
    restorable: a journal directory written by an older server has to be
    drained and started afresh.
    """
    version = state.get("version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"snapshot version {version!r} not supported "
            f"(expected {SNAPSHOT_VERSION})"
        )


def finished_records(sched: OnlineScheduler, start: int = 0) -> list[dict]:
    """History records of the jobs finished after the first ``start``
    completions, in completion order, each labelled with its tenant."""
    records = sched.stepper.finished_state(start)
    for rec in records:
        rec["tenant"] = sched.tenant_of(rec["job_id"])
    return records


def snapshot_scheduler(sched: OnlineScheduler, cursor: int = 0) -> dict:
    """Serializable state of a live :class:`OnlineScheduler`.

    The first ``cursor`` history records are left out — the caller keeps
    them and hands them back to :func:`restore_scheduler` — and every
    later one is inlined under ``finished``.  ``cursor=0`` gives a
    self-contained snapshot.
    """
    metrics = sched.metrics
    if metrics is not None and metrics.completed != sched.n_completed:
        raise SnapshotError(
            f"metrics recorded {metrics.completed} completions, the engine "
            f"{sched.n_completed}: the window cannot be rebuilt from history"
        )
    engine = sched.stepper.state_dict()
    return {
        "version": SNAPSHOT_VERSION,
        "cursor": cursor,
        "finished": finished_records(sched, cursor),
        "engine": engine,
        "policy": _encode_policy(sched.policy),
        "admission": (
            None if sched.admission is None else sched.admission.state_dict()
        ),
        "metrics": None if metrics is None else metrics.state_dict(),
        "offered": sched.n_offered,
        "shed": sched.n_shed,
        # tenants of the live jobs, aligned with engine["jobs"]
        "tenant_of": [
            sched.tenant_of(job["job_id"]) for job in engine["jobs"]
        ],
        "autoscale": sched.autoscale_state_dict(),
    }


def restore_scheduler(
    state: dict, history: list[dict] = ()
) -> OnlineScheduler:
    """Rebuild a scheduler that continues exactly where the snapshot stopped.

    ``history`` holds the ``state["cursor"]`` history records the snapshot
    left out, in order.
    """
    check_version(state)
    if len(history) != state["cursor"]:
        raise SnapshotError(
            f"snapshot covers {state['cursor']} history records, "
            f"got {len(history)}"
        )
    finished = [*history, *state["finished"]]
    policy = _decode_policy(state["policy"])
    try:
        stepper = FlowStepper.from_state_dict(
            state["engine"], policy, finished
        )
    except FlowSimError as exc:
        raise SnapshotError(f"inconsistent snapshot: {exc}") from exc
    tenant_of: list[str | None] = [None] * stepper.n_jobs
    for rec in finished:
        tenant_of[rec["job_id"]] = rec["tenant"]
    for job, tenant in zip(state["engine"]["jobs"], state["tenant_of"]):
        tenant_of[job["job_id"]] = tenant
    admission_state = state["admission"]
    if admission_state is None:
        admission = None
    elif admission_state.get("kind") == "multi_tenant":
        admission = MultiTenantAdmission.from_state_dict(admission_state)
    else:
        admission = AdmissionController.from_state_dict(admission_state)
    metrics = None
    if state["metrics"] is not None:
        # the window is the tail of the completions, i.e. of the history
        completions = [(r["finish"], r["flow"], r["tenant"]) for r in finished]
        try:
            metrics = RollingMetrics.from_state_dict(
                state["metrics"], completions
            )
        except ValueError as exc:
            raise SnapshotError(f"inconsistent snapshot: {exc}") from exc
    return OnlineScheduler._from_stepper(
        stepper,
        admission=admission,
        metrics=metrics,
        offered=state["offered"],
        shed=state["shed"],
        tenant_of=tenant_of,
        # a snapshot of a scheduler built without autoscale may omit it
        autoscale_state=state.get("autoscale"),
    )


def snapshot_scheduler_file(sched: OnlineScheduler, path: str | Path) -> Path:
    """Write a snapshot atomically (tmp file + rename) and return the path."""
    path = Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(snapshot_scheduler(sched)))
    tmp.replace(path)
    return path


def restore_scheduler_file(path: str | Path) -> OnlineScheduler:
    return restore_scheduler(json.loads(Path(path).read_text()))
