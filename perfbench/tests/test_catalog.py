"""BENCHMARK.json lists exactly the workloads and metrics the benchmark reports."""

import json

from perfbench import catalog, workloads

from .conftest import ROOT


def test_benchmark_json_matches_the_catalog():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert doc["workloads"] == [{"name": w.name, "why": w.why} for w in workloads.WORKLOADS.values()]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in catalog.END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in catalog.PER_LAYER
    ]
