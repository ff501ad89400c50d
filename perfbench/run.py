"""pertpipe benchmark: one workload, several fresh-process runs, medians.

Usage (from the repository root)::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the workload's inputs from ``--seed`` under ``.perfbench/work``,
then starts one child process per run (``child.py``), one after another,
until ``--seconds`` are used (at least two runs). Each run is checked;
its outputs' fingerprints must agree across runs. Prints a readable
report, writes ``.perfbench/results/<workload>-seed<n>-trace<t>.json``
with the machine description, and ends with one JSON line holding the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``, traced runs alternating with untraced ones so the
tracing overhead is measured too).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_PINNING = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
}
MIN_RUNS = 2
RUN_TIMEOUT_S = 150.0
# no new run starts once this much time has passed, so the command ends in time
START_CUTOFF_S = 100.0


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def machine() -> dict:
    import numpy as np

    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu or platform.processor(),
        "ram_gib": round(os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30, 2),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pinning": THREAD_PINNING,
    }


def run_child(workload, inputs_dir, run_dir, traced, env) -> dict:
    t0 = time.perf_counter()
    args = {
        "workload": workload, "inputs_dir": str(inputs_dir),
        "run_dir": str(run_dir), "t0": t0, "trace": traced,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "child.py"), json.dumps(args)],
            env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "errors": [f"run exceeded {RUN_TIMEOUT_S} s"]}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no stderr"]
        return {"traced": traced, "errors": [f"exit code {proc.returncode}: {tail[0]}"]}
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    record["traced"] = traced
    return record


def median(values):
    return statistics.median(values) if values else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pertpipe" / "__init__.py").is_file():
        fail(f"no pertpipe sources under {ROOT / 'src'}")
    os.environ.update(THREAD_PINNING)
    sys.path[0:1] = [str(ROOT / "src"), str(ROOT)]
    import pertpipe

    if not Path(pertpipe.__file__).resolve().is_relative_to(ROOT / "src"):
        fail(f"imported pertpipe from {pertpipe.__file__}, not from {ROOT / 'src'}")
    from perfbench import catalog, workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    work = ROOT / ".perfbench" / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    results_dir = ROOT / ".perfbench" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runs = []
    try:
        started = time.perf_counter()
        workloads.build_inputs(args.workload, args.seed, work / "inputs")
        inputs_s = time.perf_counter() - started
        measure_start = time.perf_counter()
        durations = []
        while True:
            traced = bool(args.trace) and len(runs) % 2 == 1
            run_dir = work / f"run_{len(runs):02d}"
            workloads.prepare_run(args.workload, work / "inputs", run_dir)
            t = time.perf_counter()
            record = run_child(args.workload, work / "inputs", run_dir, traced, env)
            durations.append(time.perf_counter() - t)
            if traced and (run_dir / "spans.jsonl").is_file():
                shutil.copyfile(run_dir / "spans.jsonl", results_dir / f"{stem}-spans.jsonl")
            shutil.rmtree(run_dir)
            runs.append(record)
            elapsed = time.perf_counter() - measure_start
            if len(runs) >= MIN_RUNS and elapsed + median(durations) > args.seconds:
                break
            if time.perf_counter() - started > START_CUTOFF_S:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # fingerprints must agree across the runs of one set
    printed = [r for r in runs if "fingerprint" in r]
    reference = printed[0]["fingerprint"] if printed else None
    for r in printed:
        if r["fingerprint"] != reference:
            r["errors"].append("output fingerprint differs from the first run's")
    failed = sum(bool(r["errors"]) for r in runs)
    # a run that failed a check still has its times; a crashed run has none
    measured = [r for r in runs if "run_s" in r]
    plain = [r for r in measured if not r["traced"]]
    traced_runs = [r for r in measured if r["traced"]]
    if not plain or (args.trace and not traced_runs):
        for r in runs:
            print(f"run failed: {r['errors']}", file=sys.stderr)
        sys.exit(1)

    if args.trace:
        merged = [dict(r["layers"], **r["counts"]) for r in traced_runs]
        values = {m.name: median([x.get(m.name, 0.0) for x in merged]) for m in catalog.PER_LAYER}
        values["trace.overhead_s"] = (
            median([r["run_s"] for r in traced_runs]) - median([r["run_s"] for r in plain])
        )
        chosen = catalog.PER_LAYER
    else:
        values = {m.name: median([r[m.name] for r in plain]) for m in catalog.END_TO_END}
        chosen = catalog.END_TO_END

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print(f"inputs built in {inputs_s:.2f} s; {len(runs)} runs "
          f"({len(traced_runs)} traced), {failed} failed")
    for m in chosen:
        spread = ""
        if not args.trace:
            each = [r[m.name] for r in plain]
            spread = f"  (median of {len(each)}; min {min(each):.6g}, max {max(each):.6g})"
        print(f"  {m.name:32s} {values[m.name]:14.6g} {m.unit}{spread}")
    print(f"  {'error_rate':32s} {failed / len(runs):14.6g} ratio")
    for r in runs:
        for e in r["errors"]:
            print(f"  error: {e}")
    print(f"  fingerprint {json.dumps(reference, sort_keys=True)}")
    result = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine(), "inputs_s": inputs_s,
        "error_rate": failed / len(runs), "runs": runs, "metrics": values,
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit} for m in chosen},
    }))


if __name__ == "__main__":
    main()
