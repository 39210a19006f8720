"""Smoke test: every workload at a few episodes, untraced and traced.

    python3 -m pytest perfbench/tests

Checks that each run reports every end-to-end and per-layer metric,
finite and with a unit, and that the traced run's call-count self-check
passes.  It does not check the accuracy floors, which a few training
episodes cannot reach.
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402  (pins BLAS threads before numpy loads)

run.import_package()

import workloads  # noqa: E402

DECLARED = run.spec()
NAMES = [w["name"] for w in DECLARED["workloads"]]


def _check_metrics(result, declared):
    for name in (m["name"] for m in declared):
        metric = result["metrics"][name]
        assert math.isfinite(metric["value"]), name
        assert metric["unit"], name


@pytest.mark.parametrize("name", NAMES)
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, record = run.run(name, seed=3, seconds=0.01, trace=False,
                             sizes=workloads.TINY)
    _check_metrics(result, DECLARED["end_to_end"])
    assert result["attempted"] >= 1 and result["failed"] == 0
    gate = [p for p in record["problems"] if p.startswith("gate")]
    assert gate == []


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_reports_every_per_layer_metric_and_passes_self_check(name):
    result, record = run.run(name, seed=3, seconds=0.01, trace=True,
                             sizes=workloads.TINY)
    _check_metrics(result, DECLARED["per_layer"])
    problems = [p for p in record["problems"] if "self-check" in p or "traced" in p]
    assert problems == []
    assert record["notes"] == []
    metrics = result["metrics"]
    if workloads.WORKLOADS[name].head == "proto":
        assert metrics["linalg.cholesky.calls"]["value"] == 0
    assert metrics["encoder.reembed_ratio"]["value"] == 1.0


def test_gate_answers_match_the_recorded_reference():
    reference = json.loads(run.REFERENCE.read_text())
    for name, w in workloads.WORKLOADS.items():
        assert workloads.gate_mismatches(workloads.gate_answer(w), reference[name]) == []


def test_gate_rejects_a_wrong_answer():
    reference = json.loads(run.REFERENCE.read_text())["train-regression-5w5s"]
    wrong = dict(reference, per_episode=[a - 5.0 for a in reference["per_episode"]])
    assert workloads.gate_mismatches(wrong, reference) != []
    wrong = dict(reference, loss=[x * (1 + 1e-4) for x in reference["loss"]])
    assert workloads.gate_mismatches(wrong, reference) != []
