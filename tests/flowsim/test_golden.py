"""Golden bit-for-bit equivalence tests for the flow-level engine.

``tests/data/golden_flowsim.json`` was captured from the pre-optimization
engine (before the PR-2 hot-path overhaul: cached active-set views, the
``rates_stable`` rate cache, amortized invariant checks).  Every policy
must reproduce it exactly — per-job flow times at full float precision,
event/switch counters, and the policy RNG end-state digest where a
policy draws randomness.

Two extra gates pin the amortization contract:

* ``check_every_k=1`` (validate every rate call) must give identical
  results to the default ``check_every_k=32`` — the skipped checks are
  pure validation, never semantics;
* a large ``check_every_k`` likewise changes nothing.

Regenerate the goldens only for a deliberate semantic change
(``PYTHONPATH=src python tests/data/gen_goldens.py``).
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

from repro.flowsim.engine import FlowSimConfig, simulate
from repro.flowsim.policies import policy_by_name
from tests.flowsim.paths import ARRAY, SCALAR, full_record, scalar_max

DATA_DIR = Path(__file__).resolve().parents[1] / "data"

_spec = importlib.util.spec_from_file_location(
    "gen_goldens", DATA_DIR / "gen_goldens.py"
)
gen_goldens = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen_goldens)

GOLDEN = json.loads((DATA_DIR / "golden_flowsim.json").read_text())


@pytest.fixture(scope="module")
def seq_trace():
    return gen_goldens.flow_seq_trace()


@pytest.fixture(scope="module")
def par_trace():
    return gen_goldens.flow_par_trace()


def test_golden_covers_all_cases():
    expected = (
        {f"seq/{p}" for p in gen_goldens.FLOW_SEQ_POLICIES}
        | {f"par/{p}" for p in gen_goldens.FLOW_PAR_POLICIES}
        | {"seq/drep/speed2", "profiled/srpt"}
        | {"fig2/drep-par/m64", "fig2/drep-par/m64/crash"}
    )
    assert expected == set(GOLDEN)


@pytest.mark.parametrize("policy", gen_goldens.FLOW_SEQ_POLICIES)
def test_sequential_bit_for_bit(seq_trace, policy):
    got = gen_goldens.run_flow_case(seq_trace, 4, policy, seed=7)
    assert json.loads(json.dumps(got)) == GOLDEN[f"seq/{policy}"]


@pytest.mark.parametrize("policy", gen_goldens.FLOW_PAR_POLICIES)
def test_parallel_bit_for_bit(par_trace, policy):
    got = gen_goldens.run_flow_case(par_trace, 4, policy, seed=7)
    assert json.loads(json.dumps(got)) == GOLDEN[f"par/{policy}"]


def test_speed_augmented_bit_for_bit(seq_trace):
    got = gen_goldens.run_flow_case(
        seq_trace, 4, "drep", seed=7, config=FlowSimConfig(speed=2.0)
    )
    assert json.loads(json.dumps(got)) == GOLDEN["seq/drep/speed2"]


def test_profiled_bit_for_bit():
    got = gen_goldens.run_flow_case(
        gen_goldens.flow_profiled_trace(),
        4,
        "srpt",
        seed=7,
        config=FlowSimConfig(use_profiles=True),
    )
    assert json.loads(json.dumps(got)) == GOLDEN["profiled/srpt"]


# -- DREP-par at Figure 2's widest machine ----------------------------------
#
# At m = 64 an arrival's coin flips and a completion's re-draws move many
# processors at once; the fault case adds crash evictions and recovery
# re-draws.  Both backends must hit the goldens.


@pytest.fixture(scope="module")
def fig2_trace():
    return gen_goldens.fig2_trace()


@pytest.mark.parametrize("crash", [False, True], ids=["plain", "crash"])
@pytest.mark.parametrize("force", [SCALAR, ARRAY], ids=["lists", "arrays"])
def test_fig2_drep_par_m64_bit_for_bit(fig2_trace, crash, force):
    key = "fig2/drep-par/m64" + ("/crash" if crash else "")
    faults = gen_goldens.fig2_crash_plan() if crash else None
    with scalar_max(force):
        got = gen_goldens.run_flow_case(
            fig2_trace, 64, "drep-par", seed=7, faults=faults
        )
    assert json.loads(json.dumps(got)) == GOLDEN[key]


@pytest.mark.parametrize("policy", ["srpt", "rr", "drep", "setf", "wdrep"])
@pytest.mark.parametrize("k", [1, 1000])
def test_check_every_k_is_pure_validation(seq_trace, policy, k):
    got = gen_goldens.run_flow_case(
        seq_trace, 4, policy, seed=7, config=FlowSimConfig(check_every_k=k)
    )
    assert json.loads(json.dumps(got)) == GOLDEN[f"seq/{policy}"]


# -- one event per call ---------------------------------------------------
#
# Each golden is also replayed one event per `step()` call, which never
# folds.


@pytest.mark.parametrize("policy", gen_goldens.FLOW_SEQ_POLICIES)
def test_sequential_one_event_steps_bit_for_bit(seq_trace, policy):
    got = gen_goldens.run_flow_case(seq_trace, 4, policy, seed=7, steps=True)
    assert json.loads(json.dumps(got)) == GOLDEN[f"seq/{policy}"]


@pytest.mark.parametrize("policy", gen_goldens.FLOW_PAR_POLICIES)
def test_parallel_one_event_steps_bit_for_bit(par_trace, policy):
    got = gen_goldens.run_flow_case(par_trace, 4, policy, seed=7, steps=True)
    assert json.loads(json.dumps(got)) == GOLDEN[f"par/{policy}"]


# -- the scalar backend vs the numpy buffers --------------------------------
#
# Plain runs of the policies with scalar hooks run on Python lists while
# the active set is small.  `scalar_max` pins a run to one backend: both
# must hit the goldens, and agree on every perf counter besides.


def _backend_case(trace, policy, force, config=FlowSimConfig()):
    with scalar_max(force):
        record = gen_goldens.run_flow_case(trace, 4, policy, seed=7, config=config)
        result = simulate(trace, 4, policy_by_name(policy), seed=7, config=config)
    return json.loads(json.dumps(record)), full_record(result)


@pytest.mark.parametrize("policy", gen_goldens.FLOW_SEQ_POLICIES)
def test_sequential_backends_bit_for_bit(seq_trace, policy):
    on_lists, lists_full = _backend_case(seq_trace, policy, SCALAR)
    on_arrays, arrays_full = _backend_case(seq_trace, policy, ARRAY)
    assert on_lists == on_arrays == GOLDEN[f"seq/{policy}"]
    assert lists_full == arrays_full


@pytest.mark.parametrize("policy", gen_goldens.FLOW_PAR_POLICIES)
def test_parallel_backends_bit_for_bit(par_trace, policy):
    on_lists, lists_full = _backend_case(par_trace, policy, SCALAR)
    on_arrays, arrays_full = _backend_case(par_trace, policy, ARRAY)
    assert on_lists == on_arrays == GOLDEN[f"par/{policy}"]
    assert lists_full == arrays_full


def test_speed_augmented_backends_bit_for_bit(seq_trace):
    config = FlowSimConfig(speed=2.0)
    on_lists, lists_full = _backend_case(seq_trace, "drep", SCALAR, config)
    on_arrays, arrays_full = _backend_case(seq_trace, "drep", ARRAY, config)
    assert on_lists == on_arrays == GOLDEN["seq/drep/speed2"]
    assert lists_full == arrays_full
