#!/usr/bin/env python
"""CI smoke for the sharded multi-tenant serving tier (`make shard-smoke`).

1. boots a router over 2 journaled `drep-sim serve` subprocess shards
   with DRF multi-tenant admission sized to the fleet;
2. pushes an overloaded trace split across 3 tenants on a skewed
   (zipf:1.5) label distribution — the hot tenant offers ~5x what the
   coldest one does;
3. asserts **no tenant starves**: every tenant has accepted jobs, the
   hot tenant is the one being shed, and every colder tenant's
   acceptance *rate* beats the hot tenant's (DRF serves you better the
   less you dominate);
4. runs the identical workload a second time, now pipelined through
   ``submit_batch`` in chunks of 16, and requires the merged,
   canonically-serialized report to match **byte for byte** — the
   sharded tier's replay-determinism contract, which batching must keep.

Exits non-zero (with a message) on any violation.  Needs only the
package itself — no pytest.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.serve.admission import AdmissionConfig  # noqa: E402
from repro.serve.loadgen import tenant_labels  # noqa: E402
from repro.serve.shard import build_subprocess_router  # noqa: E402
from repro.serve.tenancy import TenancyConfig  # noqa: E402
from repro.workloads.traces import generate_trace  # noqa: E402

SEED = 21
N_JOBS = 120
N_TENANTS = 3
BATCH = 16


def fail(msg: str) -> None:
    print(f"FAIL: {msg}")
    sys.exit(1)


def workload():
    # trace sized for 8 machines at load 0.9 -> offered utilization ~1.8
    # on the 2x2-core fleet, so the admission layer has real shedding to
    # do and the DRF layer has a dominant tenant to find
    jobs = generate_trace(N_JOBS, "finance", 0.9, 8, seed=SEED).jobs
    tenants = tenant_labels(N_JOBS, N_TENANTS, "zipf:1.5", seed=SEED)
    return list(zip(jobs, tenants))


def run_once(journal_root: Path, batch: int = 1) -> tuple[dict, bytes]:
    """One run; ``batch`` > 1 submits through ``submit_batch`` chunks."""
    router = build_subprocess_router(
        2,
        journal_root,
        m=2,
        policy="drep",
        seed=SEED,
        tenancy=TenancyConfig(drf_headroom=1.1),
        admission_config=AdmissionConfig(max_load=1.0, halflife=5.0),
        snapshot_every=16,
    )
    try:
        items = [
            {
                "work": spec.work,
                "span": spec.span,
                "release": spec.release,
                "tenant": tenant,
            }
            for spec, tenant in workload()
        ]
        for lo in range(0, len(items), batch):
            chunk = items[lo : lo + batch]
            if batch == 1:
                router.submit(**chunk[0])
                continue
            for reply in router.submit_batch(chunk):
                if not reply["ok"]:
                    fail(f"batched submit failed: {reply}")
        healthy = router.ping_all()
        if not all(healthy.values()):
            fail(f"unhealthy shards after load: {healthy}")
        merged = router.drain()
        return merged, router.report_json()
    finally:
        router.close()


def main() -> None:
    with tempfile.TemporaryDirectory(prefix="drep-shard-smoke-") as tmp:
        merged, blob = run_once(Path(tmp) / "run-a")
        rows = merged["tenants"]
        offered = {t: 0 for t in rows}
        for _, tenant in workload():
            offered[tenant] = offered.get(tenant, 0) + 1
        hot = max(offered, key=offered.get)

        print(f"shards=2 m_total={merged['m_total']} "
              f"offered={merged['offered']} accepted={merged['accepted']} "
              f"shed={merged['shed']}")
        for tenant in sorted(rows):
            row = rows[tenant]
            print(f"  tenant {tenant}: offered={offered[tenant]} "
                  f"accepted={row['accepted']} shed={row['shed']} "
                  f"mean_flow={row['mean_flow']:.3f}")

        if len(rows) != N_TENANTS:
            fail(f"expected {N_TENANTS} tenants in the report, got {rows}")
        for tenant, row in rows.items():
            if row["accepted"] == 0:
                fail(f"tenant {tenant} starved (0 accepted)")
        if rows[hot]["shed"] == 0:
            fail(f"hot tenant {hot} was never shed despite overload")
        hot_rate = rows[hot]["accepted"] / offered[hot]
        for tenant, row in rows.items():
            rate = row["accepted"] / offered[tenant]
            if tenant != hot and rate <= hot_rate:
                fail(f"tenant {tenant} accepted at {rate:.2f} <= hot "
                     f"tenant's {hot_rate:.2f} — DRF should serve "
                     "non-dominant tenants strictly better")

        _, blob_b = run_once(Path(tmp) / "run-b", batch=BATCH)
        if blob != blob_b:
            fail("replay mismatch: the batched run and the one-at-a-time "
                 "run produced different merged reports")

    print("OK: no tenant starved, shedding tracked dominance, and the "
          "batched sharded replay is byte-identical")


if __name__ == "__main__":
    main()
