"""Online scheduling service built on the flow-level simulator.

The paper's pitch is that DREP is *practical*: online, non-clairvoyant,
decentralized, with an O(mn) switch budget (Theorems 1.1-1.2).  This
package exercises exactly that claim by running any
:mod:`repro.flowsim` policy as a **live scheduler** instead of an
offline batch sweep:

* :mod:`repro.serve.online` — :class:`OnlineScheduler`, the
  submit-while-the-clock-runs engine (wraps
  :class:`repro.flowsim.FlowStepper`);
* :mod:`repro.serve.admission` — queue caps, load estimation and
  backpressure/shed decisions;
* :mod:`repro.serve.metrics` — rolling windowed flow-time statistics
  with Prometheus text exposition;
* :mod:`repro.serve.snapshot` — checkpoint/restore of the scheduler
  state (live engine state + policy + RNG, plus one history record per
  finished job), so a killed server resumes without losing in-flight
  jobs;
* :mod:`repro.serve.server` — an asyncio JSON-lines server speaking the
  wire protocol documented in ``docs/serving.md``;
* :mod:`repro.serve.loadgen` — an open-loop generator replaying
  :mod:`repro.workloads` traces at a configurable rate multiplier.

A drained online run produces the same
:class:`repro.core.metrics.ScheduleResult` as the batch
:func:`repro.flowsim.simulate` on the same trace — bit-for-bit when
jobs are submitted at their release times — so serving results are
directly comparable with every offline figure in this repo.
"""

from repro.serve.admission import (
    AdmissionConfig,
    AdmissionController,
    AdmissionDecision,
)
from repro.serve.loadgen import LoadGenReport, replay_into, replay_over_wire
from repro.serve.metrics import RollingMetrics
from repro.serve.online import OnlineScheduler, SubmitOutcome
from repro.serve.server import SchedulerServer, ServeConfig
from repro.serve.shard import (
    HashRing,
    LocalShard,
    ShardFrontend,
    ShardRouter,
    ShardSupervisor,
    SubprocessShard,
    build_local_router,
    build_subprocess_router,
    shard_seed,
)
from repro.serve.snapshot import (
    restore_scheduler,
    restore_scheduler_file,
    snapshot_scheduler,
    snapshot_scheduler_file,
)
from repro.serve.tenancy import MultiTenantAdmission, TenancyConfig, TenantAccount

__all__ = [
    "OnlineScheduler",
    "SubmitOutcome",
    "AdmissionConfig",
    "AdmissionController",
    "AdmissionDecision",
    "RollingMetrics",
    "SchedulerServer",
    "ServeConfig",
    "snapshot_scheduler",
    "snapshot_scheduler_file",
    "restore_scheduler",
    "restore_scheduler_file",
    "LoadGenReport",
    "replay_into",
    "replay_over_wire",
    "HashRing",
    "LocalShard",
    "ShardFrontend",
    "ShardRouter",
    "ShardSupervisor",
    "SubprocessShard",
    "build_local_router",
    "build_subprocess_router",
    "shard_seed",
    "MultiTenantAdmission",
    "TenancyConfig",
    "TenantAccount",
]
