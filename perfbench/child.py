"""One measured run of a workload, in a fresh process started by ``run.py``.

Usage: ``python3 perfbench/child.py '<json>'`` with keys ``workload``,
``inputs_dir``, ``run_dir``, ``t0`` (the parent's
``perf_counter`` just before it started this process; the clock is
system-wide) and ``trace``. Prints one JSON record as its last line.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]


def main() -> None:
    args = json.loads(sys.argv[1])
    tracer = None
    if args["trace"]:
        from perfbench.tracing import Tracer, layer_metrics

        tracer = Tracer()
        tracer.install()
    from perfbench.workloads import run_once

    run_dir = Path(args["run_dir"])
    record = run_once(args["workload"], Path(args["inputs_dir"]), run_dir, args["t0"], tracer)
    if tracer:
        layers = layer_metrics(tracer.spans, record["run_s"])
        distinct = len(tracer.candidates)
        layers["evaluators.distinct_candidates"] = distinct
        calls = layers["evaluators.calls"]
        layers["evaluators.useful_ratio"] = distinct / calls if calls else 0.0
        record["layers"] = layers
        tracer.write(run_dir / "spans.jsonl")
    print(json.dumps(record))


if __name__ == "__main__":
    main()
