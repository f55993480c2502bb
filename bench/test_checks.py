"""Tests of the benchmark's failure counting (no package run needed).

Run with ``python3 -m pytest bench/test_checks.py``.
"""

from __future__ import annotations

import copy
import json
import math

import checks
import run
import tracer


def _reference(workload: str) -> dict:
    return json.loads((run.BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))


def _pass_from(reference: dict) -> dict:
    items = [
        {"name": name, "ok": True, "detail": "", "outputs": copy.deepcopy(outputs)}
        for name, outputs in reference.items()
    ]
    return {"items": items}


def _failed(workload: str, seed: int, passes: list[dict]) -> int:
    return sum(not item["ok"] for item in run._check_items(workload, seed, passes))


def test_reference_outputs_pass_unchanged():
    for workload in run.WORKLOADS:
        assert _failed(workload, 0, [_pass_from(_reference(workload))]) == 0


def test_perturbation_beyond_tolerance_is_a_failure():
    reference = _reference("window")
    name = sorted(reference)[0]
    for factor, expected in ((1.0 + 1e-8, 1), (1.0 - 1e-8, 1), (1.0 + 1e-10, 0)):
        perturbed = _pass_from(reference)
        item = next(i for i in perturbed["items"] if i["name"] == name)
        item["outputs"]["integral"] *= factor
        assert _failed("window", 0, [perturbed]) == expected


def test_nested_perturbation_in_a_suite_report_is_a_failure():
    reference = _reference("suite")
    perturbed = _pass_from(reference)
    item = next(i for i in perturbed["items"] if i["name"] == "theorem1_resolved")
    item["outputs"]["rows"][0][0] *= 1.0 + 1e-7
    assert _failed("suite", 0, [perturbed]) == 1


def test_reference_applies_to_other_seeds_only_where_seed_invariant():
    for workload, expected in (("window", 0), ("blocks", 1)):
        perturbed = _pass_from(_reference(workload))
        first = perturbed["items"][0]["outputs"]
        key = next(k for k, v in first.items() if isinstance(v, float))
        first[key] *= 1.0 + 1e-6
        assert _failed(workload, 7, [perturbed]) == expected


def test_missing_output_and_unknown_item_are_failures():
    reference = _reference("blocks")
    broken = _pass_from(reference)
    del broken["items"][0]["outputs"]["main"]
    broken["items"][1]["name"] = "M=99.lower"
    assert _failed("blocks", 0, [broken]) == 2


def test_pass_that_does_not_repeat_pass_one_is_a_failure():
    reference = _reference("benches")
    first, second = _pass_from(reference), _pass_from(reference)
    lhs = second["items"][3]["outputs"]["lhs"]
    lhs[0] = math.nextafter(lhs[0], math.inf)
    assert _failed("benches", 3, [first, second]) == 1


def test_deviations_use_relative_tolerance_and_exact_non_numbers():
    assert checks.deviations({"x": 1e-300}, {"x": 1e-300}) == []
    assert checks.deviations({"x": 0.0}, {"x": 1e-300}) != []
    assert checks.deviations({"flag": True}, {"flag": False}) != []
    assert checks.deviations({"flag": True}, {"flag": 1}) != []
    assert checks.deviations({"s": "a"}, {"s": "a"}) == []


def test_benchmark_json_lists_the_metrics_the_driver_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert spec["paths"] == ["bench"]
    assert set(w["name"] for w in spec["workloads"]) <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    per_layer = list(tracer.METRICS) + [("trace.overhead_s", "s")]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer
