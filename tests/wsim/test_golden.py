"""Golden bit-for-bit equivalence tests for the work-stealing runtime.

``tests/data/golden_wsim.json`` was captured from the pre-optimization
runtime (before the PR-2 hot-path overhaul: macro-stepping, list-based
job state, inlined per-worker dispatch).  Every scheduler and config
variant must reproduce it exactly — flow times at full float precision,
all practicality counters, and the RNG end-state digest (which pins the
entire draw sequence, not just the outcomes).

If one of these fails after an engine change, the change altered
observable behavior; regenerate the goldens only for a deliberate
semantic change, never to absorb a perf regression
(``PYTHONPATH=src python tests/data/gen_goldens.py``).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.wsim.runtime import WsConfig

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

_spec = importlib.util.spec_from_file_location(
    "gen_goldens", DATA_DIR / "gen_goldens.py"
)
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)

GOLDEN = json.loads((DATA_DIR / "golden_wsim.json").read_text())

CASES = {
    **{name: (name, WsConfig(), None) for name in gen_goldens.WS_SCHEDULERS},
    "drep/check=node": ("drep", WsConfig(preempt_check="node"), None),
    "drep/check=step": ("drep", WsConfig(preempt_check="step"), None),
    "drep/overhead=2": ("drep", WsConfig(preemption_overhead=2), None),
    "drep/hetero": ("drep", WsConfig(), np.array([2.0, 1.0, 1.0, 0.5])),
}

#: Figure 3's schedulers on its m = 16 machine: key -> (scheduler, crash?)
FIG3_CASES = {
    **{
        f"fig3/{name}/m16": (name, False)
        for name in gen_goldens.FIG3_SCHEDULERS
    },
    "fig3/steal-first/m16/crash": ("steal-first", True),
}


@pytest.fixture(scope="module")
def trace():
    return gen_goldens.ws_trace()


@pytest.fixture(scope="module")
def fig3_trace():
    return gen_goldens.fig3_trace()


def test_golden_covers_all_cases():
    assert set(CASES) | set(FIG3_CASES) == set(GOLDEN)


@pytest.mark.parametrize("key", sorted(FIG3_CASES))
def test_fig3_bit_for_bit(fig3_trace, key):
    scheduler, crash = FIG3_CASES[key]
    faults = gen_goldens.fig3_crash_plan() if crash else None
    got = gen_goldens.run_ws_case(fig3_trace, 16, scheduler, seed=9, faults=faults)
    assert json.loads(json.dumps(got)) == GOLDEN[key]


@pytest.mark.parametrize("key", sorted(CASES))
def test_bit_for_bit(trace, key):
    scheduler, config, speeds = CASES[key]
    got = gen_goldens.run_ws_case(
        trace, 4, scheduler, seed=9, config=config, speeds=speeds
    )
    # the JSON round-trip normalizes float reprs exactly like the stored
    # golden, so == is a bit-for-bit comparison
    assert json.loads(json.dumps(got)) == GOLDEN[key]
