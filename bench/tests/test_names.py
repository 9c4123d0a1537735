"""The names in BENCHMARK.json are the names the benchmark prints."""

import json

import pytest
import run
import workloads
from common import ROOT
from layers import PER_LAYER

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_declared_metrics_match_the_code():
    declared = [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]]
    assert declared == workloads.END_TO_END
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
def test_a_run_prints_every_declared_metric(trace, monkeypatch, capsys):
    # a small stream keeps the run short; seed 1 is checked by invariants
    monkeypatch.setattr(workloads, "SHALLOW_JOBS", 3000)
    status = run.run_one("stream_shallow", seed=1, seconds=0.1, trace=trace)
    lines = capsys.readouterr().out.splitlines()
    result = json.loads(lines[-1])
    assert status == 0 and result["correct"] and result["failed"] == 0
    key = "per_layer" if trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in BENCHMARK[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = {line.split()[0] for line in lines[1:-1] if not line.lstrip().startswith("#")}
    assert printed == set(declared)
