#!/usr/bin/env python
"""CI gate for the incremental kernels' asymptotics (`make scaling-smoke`).

Runs the adversarial staircase ladder 10² → 10⁴ on the incremental
order/calendar kernels for every order-driven policy (and on the dense
kernel for RR and DREP) and fits the scaling exponent of wall-per-event vs active-set size (see
`repro.perf.scaling`).  The exponent — unlike raw wall time — is
machine-drift-free, which is what makes it gateable on shared CI
runners.

Thresholds:

* SRPT / SJF / FIFO: exponent must stay **below 0.5**.  Their served set
  is O(m), so the incremental per-event cost is O(m log n); the dense
  path fits ≈1 on the same ladder.
* LAPS(0.05): gated at **0.85**.  LAPS serves ceil(beta·n) jobs by
  definition — beta·n rates change at every event, so every exact
  engine has an Ω(beta·n) per-event floor and the fitted slope rises
  toward 1 as beta·n overtakes the O(log n) terms.  The win over the
  dense path is the removed sort and scan (constants and the log
  factor), not the exponent; 0.85 catches a regression to dense-like
  behavior without pretending the floor away (docs/performance.md has
  the full table).
* RR / DREP: exponent must stay **below 0.5**.  Neither is ever
  promoted, so this gates the hand-over from the scalar small-active-set
  backend to the numpy buffers instead: with it the dense vector ops
  keep the slope near 0 on this ladder, while a scalar pass that never
  hands over pays Python-level O(n) per event and fits ≈0.7–0.9.

The same run pins the frozen `active_scaling` row of `BENCH_10.json`:
over `SCALING_POLICIES` the ladder's summed `events`, summed `n_jobs`
(active-set sizes) and mean of the per-rung `mean_flow` must equal that
row bit for bit.  The row was recorded at seed 311; the order-driven
policies draw no randomness, so seed 0 reproduces it.

Exits non-zero if any bound or pin fails.  Needs only the package — no
pytest.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.perf.scaling import SCALING_POLICIES, measure_scaling  # noqa: E402

LADDER = (100, 1_000, 10_000)
BOUNDS = {"srpt": 0.5, "sjf": 0.5, "fifo": 0.5, "laps": 0.85, "rr": 0.5, "drep": 0.5}


def pin_mismatches(results: dict) -> list[str]:
    """Where the ladder's summary differs from BENCH_10's `active_scaling`."""
    want = json.loads((REPO / "BENCH_10.json").read_text())["benches"][
        "active_scaling"
    ]
    points = [p for key in SCALING_POLICIES for p in results[key]["points"]]
    flows = [p["mean_flow"] for p in points]
    got = {
        "events": sum(p["events"] for p in points),
        "n_jobs": sum(p["n_active"] for p in points),
        "mean_flow": sum(flows) / len(flows),
    }
    return [
        f"{key} {value!r} != BENCH_10 {want[key]!r}"
        for key, value in got.items()
        if value != want[key]
    ]


def main() -> int:
    print(f"# scaling smoke — staircase ladder {LADDER}")
    results = measure_scaling(LADDER, tuple(BOUNDS), repeats=2)
    status = 0
    for key, bound in BOUNDS.items():
        r = results[key]
        exp = r["exponent"]
        per_event = " -> ".join(
            f"{p['us_per_event']:.1f}us" for p in r["points"]
        )
        verdict = "ok" if exp < bound else "FAIL"
        if exp >= bound:
            status = 1
        print(
            f"{key:6s} exponent {exp:+.3f} (bound {bound:.2f}) "
            f"[{per_event}]  {verdict}"
        )
    if status:
        print(
            "scaling smoke: fitted exponent at or above its bound — the "
            "incremental kernels (or, for RR/DREP, the scalar backend's "
            "hand-over) have regressed toward per-event costs linear in "
            "the active-set size",
            file=sys.stderr,
        )
    pin = pin_mismatches(results)
    for line in pin:
        print(f"active_scaling pin: {line}  FAIL")
    if pin:
        status = 1
    else:
        print("active_scaling pin: events, n_jobs and mean_flow equal BENCH_10  ok")
    return status


if __name__ == "__main__":
    raise SystemExit(main())
