"""The workloads: input building, one measured run, and its output checks.

``build_inputs`` runs once in the parent before any timed run. ``run_once``
runs in a fresh child process per run and returns the run's phase times,
counts, fingerprints and failed checks. Checks run after the run's last
artifact is written, so they never count toward its times.
"""

from __future__ import annotations

import hashlib
import json
import resource
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from pertpipe import bundle as bundle_io
from pertpipe import data, evaluators, knowledge, unifier

from . import flows, inputs


@dataclass(frozen=True)
class Workload:
    name: str
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "search-surrogate-L",
            "surrogate evaluation is ~all of run_search on a 4020x5000 bundle; "
            "64 sims reach ~31 distinct candidates, so evaluator caching shows here",
        ),
        Workload(
            "harmonize-merge",
            "unify a 40k-cell drug screen (mock-LLM mapping) and a 20k-cell CRISPR screen, "
            "merge and write 60k cells: per-cell Python and bundle writes, no search",
        ),
    )
}

SEARCH_SEED = 3
N_SIM = 64
KB_ENTRIES = 2000


def build_inputs(name: str, seed: int, inputs_dir: Path) -> None:
    inputs_dir.mkdir(parents=True, exist_ok=True)
    if name == "search-surrogate-L":
        inputs.build_synthetic_bundle(inputs_dir / "bundle", inputs.SIZE_L, seed)
        inputs.build_knowledge_base(inputs_dir / "kb.jsonl", seed, KB_ENTRIES)
    elif name == "harmonize-merge":
        inputs.build_drug_screen(inputs_dir / "raw_drug", seed)
        inputs.build_crispr_screen(inputs_dir / "raw_crispr", seed)
        (inputs_dir / "crispr_mapping.json").write_text(json.dumps(inputs.CRISPR_MAPPING))
        (inputs_dir / "mock_reply.txt").write_text(inputs.mock_llm_reply())
    else:
        raise ValueError(f"unknown workload {name!r}")


def prepare_run(name: str, inputs_dir: Path, run_dir: Path) -> None:
    """Give the run a fresh copy of everything its flow mutates."""
    run_dir.mkdir(parents=True)
    if name == "search-surrogate-L":
        shutil.copyfile(inputs_dir / "kb.jsonl", run_dir / "kb.jsonl")


def _sha(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tree_nodes(node) -> int:
    return 1 + sum(_tree_nodes(c) for c in node.children)


def run_search(inputs_dir: Path, run_dir: Path, t0: float, tracer) -> dict:
    bundle = inputs_dir / "bundle"
    kb_path = run_dir / "kb.jsonl"
    out = run_dir / "out"
    run = flows.search_flow(
        bundle, out, SEARCH_SEED, kb_path=kb_path, sets={"search.n_sim": str(N_SIM)},
        wrap_evaluator=tracer.wrap_evaluator if tracer else None,
    )
    rss = _peak_rss_mb()
    if tracer:
        tracer.restore()
    result = run.result
    traj = result.trajectory
    search_s = run.t_search_end - run.t_work
    record = {
        "run_s": run.t_end - t0,
        "setup_s": run.t_work - t0,
        "peak_rss_mb": rss,
        "work_per_s": len(traj) / search_s,
        "counts": {
            "bundle.read_mb": flows.bundle_mb(bundle),
            "search.sims": len(traj),
            "search.expansions": result.n_expansions,
            "search.tree_nodes": _tree_nodes(result.root),
            "search.warm_starts": int(run.retrieval_mode == "warm_start"),
            "search.best_m_val": result.best_m_val,
            "knowledge.entries_loaded": run.entries_loaded,
            "cli.artifacts_mb": run.artifacts_bytes / 2**20,
        },
        "errors": [],
    }

    errors = record["errors"]
    if len(traj) != N_SIM:
        errors.append(f"trajectory has {len(traj)} records, expected {N_SIM}")
    # the search keeps the first successful simulation with the highest reward
    top = max((rec for rec in traj if rec["failed"] is None), key=lambda rec: rec["reward"])
    if (result.best_reward, result.best_m_val) != (top["reward"], top["m_val"]):
        errors.append(f"best (reward, m_val) {(result.best_reward, result.best_m_val)!r} "
                      f"is not the trajectory's best {(top['reward'], top['m_val'])!r}")
    ds = bundle_io.read_canonical_bundle(bundle)
    split = data.split_unseen_perturbation(ds, train_frac=0.8, seed=SEARCH_SEED)
    again = evaluators.SurrogateEvaluator(ds, split).evaluate(result.best_candidate, SEARCH_SEED)
    if again.m_val != result.best_m_val:
        errors.append(f"a fresh evaluator gives m_val {again.m_val!r} for the best "
                      f"candidate, not {result.best_m_val!r}")
    loaded = len(knowledge.KnowledgeBase(kb_path).load())
    if loaded != run.entries_loaded + 1:
        errors.append(f"knowledge base reloads with {loaded} entries, "
                      f"expected {run.entries_loaded + 1}")
    record["fingerprint"] = {
        "trajectory.jsonl": _sha(out / "trajectory.jsonl"),
        "best_candidate.json": _sha(out / "best_candidate.json"),
    }
    return record


def run_harmonize(inputs_dir: Path, run_dir: Path, t0: float, tracer) -> dict:
    drug = flows.unify_setup(
        inputs_dir / "raw_drug", mock_reply=(inputs_dir / "mock_reply.txt").read_text()
    )
    crispr = flows.unify_setup(
        inputs_dir / "raw_crispr", mapping_file=inputs_dir / "crispr_mapping.json"
    )
    t_work = perf_counter()
    parts = [flows.unify_apply(drug, run_dir / "drug"), flows.unify_apply(crispr, run_dir / "crispr")]
    merged = unifier.merge_datasets(parts)
    out = run_dir / "merged"
    bundle_io.write_canonical_bundle(merged.dataset, out)
    merged_digest = bundle_io.bundle_digest(out)
    t_end = perf_counter()
    rss = _peak_rss_mb()
    if tracer:
        tracer.restore()
    n_cells = drug.table.n_cells + crispr.table.n_cells
    record = {
        "run_s": t_end - t0,
        "setup_s": t_work - t0,
        "peak_rss_mb": rss,
        "work_per_s": n_cells / (t_end - t_work),
        "counts": {
            "unifier.vocab_size": merged.dataset.n_perts,
            "unifier.merge_warnings": len(merged.warnings),
            "bundle.read_mb": flows.bundle_mb(drug.raw_bundle) + flows.bundle_mb(crispr.raw_bundle),
            "bundle.write_mb": sum(flows.bundle_mb(run_dir / d) for d in ("drug", "crispr", "merged")),
        },
        "errors": [],
    }

    errors = record["errors"]
    ds = merged.dataset
    if ds.n_cells != n_cells:
        errors.append(f"merged dataset has {ds.n_cells} cells, expected {n_cells}")
    report = data.validate_canonical(ds)
    if not report.ok:
        errors.append(f"merged dataset fails validation: {report}")
    back = bundle_io.read_canonical_bundle(out)
    for name in ("cell_type", "batch_id", "donor_id", "pert_type", "is_control",
                 "condition_name", "X", "pert_mask", "pert_dose", "ensembl_id", "gene_symbol"):
        if not np.array_equal(getattr(back, name), getattr(ds, name)):
            errors.append(f"merged bundle reads back a different {name}")
    if back.pert_vocab != ds.pert_vocab or set(back.extra_obs) != set(ds.extra_obs) or any(
        not np.array_equal(back.extra_obs[k], v) for k, v in ds.extra_obs.items()
    ):
        errors.append("merged bundle reads back different vocabulary or extra obs")
    record["fingerprint"] = {
        "drug": drug.run_manifest.outcome["canonical_digest"],
        "crispr": crispr.run_manifest.outcome["canonical_digest"],
        "merged": merged_digest,
    }
    return record


def run_once(name: str, inputs_dir: Path, run_dir: Path, t0: float, tracer) -> dict:
    if name == "search-surrogate-L":
        return run_search(inputs_dir, run_dir, t0, tracer)
    if name == "harmonize-merge":
        return run_harmonize(inputs_dir, run_dir, t0, tracer)
    raise ValueError(f"unknown workload {name!r}")
