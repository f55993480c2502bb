"""The gated benchmark workloads reproduce their recorded outputs.

Runs ``window``, ``benches`` and ``suite`` of ``bench/workloads.py`` once at
seed 0, in this process and in a temporary directory, and checks every item
against ``bench/reference/<workload>.json`` with ``bench/checks.py``, as the
benchmark driver does for seed 0.  Nothing under ``bench/`` is written.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    """``bench/<name>.py``, loaded by path so that ``bench/`` need not be on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", _BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["window", "benches", "suite"])
def test_gated_workload_matches_its_reference_at_seed_0(workload, tmp_path):
    workloads, checks = _bench_module("workloads"), _bench_module("checks")
    make_inputs, run = workloads.WORKLOADS[workload]
    items = run(make_inputs(0, tmp_path), tmp_path, False)
    reference = json.loads((_BENCH / "reference" / f"{workload}.json").read_text(encoding="utf-8"))
    checked = checks.apply_reference(items, reference)
    assert sorted(item["name"] for item in checked) == sorted(reference)
    assert [f"{item['name']}: {item['detail']}" for item in checked if not item["ok"]] == []
