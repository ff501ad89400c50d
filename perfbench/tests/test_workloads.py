"""Each workload runs, passes its own checks and yields its layers, on tiny inputs."""

import json
import time

import pytest

from perfbench import catalog, workloads
from perfbench.tracing import Tracer, layer_metrics


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_run_once_passes_its_checks(tiny, tmp_path, name, traced):
    run_dir = tmp_path / "run"
    workloads.prepare_run(name, tiny, run_dir)
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        record = workloads.run_once(name, tiny, run_dir, time.perf_counter(), tracer)
    finally:
        if tracer:
            tracer.restore()
    assert record["errors"] == []
    assert 0 < record["setup_s"] < record["run_s"]
    assert record["work_per_s"] > 0
    if tracer:
        layers = layer_metrics(tracer.spans, record["run_s"])
        known = {m.name for m in catalog.PER_LAYER}
        assert set(layers) - {"trace.spans"} <= known
        assert set(record["counts"]) <= known
        busiest = {
            "search-surrogate-L": ["evaluators.evaluate_s", "knowledge.load_s", "cli.artifacts_s"],
            "harmonize-merge": ["unifier.apply_mapping_s", "unifier.merge_s", "dsl.evaluate_s"],
        }[name]
        assert all(layers[layer] > 0 for layer in busiest)
    json.dumps(record)  # the child prints it
