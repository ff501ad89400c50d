"""The benchmark's drivers for the search and unify flows.

``search_flow`` and ``unify_setup``/``unify_apply`` call the same public
pertpipe functions as ``pertpipe search`` and ``pertpipe unify``, in the
same order, and write the same artifacts; ``tests/test_parity.py`` pins
the bytes against the CLI. Unlike the CLI they note ``perf_counter``
marks between phases, so a run can split set-up from work without
wrapping any call.

Every pertpipe call goes through a module attribute (``search.run_search``,
not a name imported from it), so the traced run can replace those
attributes with timing wrappers while the untraced run calls the plain
functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from pertpipe import bundle as bundle_io
from pertpipe import data, evaluators, knowledge, manifest, search, unifier
from pertpipe.llm import LlmClient


@dataclass
class SearchRun:
    """Outcome and phase marks of one search flow."""

    t_start: float
    t_work: float  # run_search entered; everything before is set-up
    t_search_end: float
    t_end: float  # last artifact written
    result: search.SearchResult
    retrieval_mode: str | None
    entries_loaded: int
    artifacts_bytes: int


def profile_text(ds, config) -> str:
    """Task profile text, as ``pertpipe search --evaluator surrogate`` builds it."""
    vocab_head = " ".join(ds.pert_vocab[:8])
    return (
        f"cells {ds.n_cells} genes {ds.n_genes} perturbations {ds.n_perts} "
        f"vocab {vocab_head} split {config['split.kind']} evaluator surrogate"
    )


def search_flow(
    bundle: Path,
    out_dir: Path,
    seed: int,
    kb_path: Path | None = None,
    sets: dict[str, str] | None = None,
    wrap_evaluator=None,
) -> SearchRun:
    """``pertpipe search --evaluator surrogate``; ``wrap_evaluator`` is the traced run's hook."""
    t_start = perf_counter()
    config = manifest.resolve_config(None, sets or {})
    ds = bundle_io.read_canonical_bundle(bundle)
    if config["split.kind"] != "unseen_perturbation":
        raise ValueError("the benchmark uses the unseen_perturbation split only")
    split = data.split_unseen_perturbation(
        ds, train_frac=float(config["split.train_frac"]), seed=seed
    )
    evaluator = evaluators.SurrogateEvaluator(ds, split)
    profile = profile_text(ds, config)
    retrieval = None
    entries_loaded = 0
    if kb_path:
        entries = knowledge.KnowledgeBase(kb_path).load()
        entries_loaded = len(entries)
        retrieval = knowledge.retrieve(
            profile,
            entries,
            knowledge.RetrievalParams(
                tau_filter=float(config["retrieval.tau_filter"]),
                m=int(config["retrieval.m"]),
                alpha_retrieval=float(config["retrieval.alpha_retrieval"]),
                tau=float(config["retrieval.tau"]),
            ),
        )
    search_config = search.SearchConfig(
        C=float(config["search.c"]),
        alpha_qmix=float(config["search.alpha_qmix"]),
        uct_epsilon=float(config["search.uct_epsilon"]),
        n_sim=int(config["search.n_sim"]),
        w_p=float(config["search.w_p"]),
        w_e=float(config["search.w_e"]),
        wall_clock_budget=float(config["search.wall_clock_budget"]),
        seed=seed,
        mode=str(config["search.mode"]),
    )
    run_manifest = manifest.RunManifest(
        command="search",
        config=dict(config),
        input_digests={"bundle": bundle_io.bundle_digest(bundle)},
        seed=seed,
    )
    if wrap_evaluator is not None:
        evaluator = wrap_evaluator(evaluator)
    t_work = perf_counter()
    result = search.run_search(search_config, evaluator, retrieval=retrieval)
    t_search_end = perf_counter()
    if not result.found_valid:
        raise RuntimeError("search finished without any successful simulation")
    artifacts_bytes = write_search_artifacts(
        out_dir, result, retrieval, run_manifest, config["split.kind"], search_config.mode
    )
    if kb_path:
        debug_free = tuple(a for a in result.best_path if a != "debug")
        entry = knowledge.make_entry(
            profile_text=profile + " | solution: " + result.best_candidate.key(),
            action_path=debug_free,
            reward=min(1.0, max(0.0, result.best_reward)),
        )
        knowledge.KnowledgeBase(kb_path).record(entry)
    return SearchRun(
        t_start=t_start,
        t_work=t_work,
        t_search_end=t_search_end,
        t_end=perf_counter(),
        result=result,
        retrieval_mode=retrieval.mode if retrieval is not None else None,
        entries_loaded=entries_loaded,
        artifacts_bytes=artifacts_bytes,
    )


def write_search_artifacts(out_dir, result, retrieval, run_manifest, split_used, mode) -> int:
    """Write what ``pertpipe search`` writes on success; returns the bytes written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "trajectory.jsonl").write_text(result.trajectory_jsonl())
    (out / "tree.json").write_text(result.tree_json() + "\n")
    names = ["trajectory.jsonl", "tree.json", "best_candidate.json", "run_manifest.json"]
    if retrieval is not None:
        (out / "retrieval.json").write_text(
            json.dumps(
                {
                    "rho": None if retrieval.rho == float("-inf") else retrieval.rho,
                    "mode": retrieval.mode,
                    "epsilon0": list(retrieval.epsilon0) if retrieval.epsilon0 else None,
                },
                sort_keys=True,
            )
            + "\n"
        )
        names.append("retrieval.json")
    best = {
        "candidate": result.best_candidate.key(),
        "path": list(result.best_path),
        "reward": result.best_reward,
        "m_val": result.best_m_val,
        "split": split_used,
        "mode": mode,
    }
    (out / "best_candidate.json").write_text(json.dumps(best, indent=2, sort_keys=True) + "\n")
    run_manifest.finish(status="ok", **{k: best[k] for k in ("candidate", "reward", "m_val")})
    run_manifest.write(out)
    return sum((out / name).stat().st_size for name in names)


# --------------------------------------------------------------------------
# unify


@dataclass
class UnifyInput:
    """What ``pertpipe unify`` holds once its inputs are read and its spec obtained."""

    raw_bundle: Path
    table: object
    spec: unifier.MappingSpec
    run_manifest: manifest.RunManifest
    config: dict


def induce_spec(table, reply: str, sample_size: int) -> unifier.MappingSpec:
    """``unify --induce --llm-transport mock``: preview, prompt, complete, parse."""
    preview = unifier.preview_schema(table, sample_size=sample_size)
    return unifier.induce_mapping(preview, LlmClient.mock(reply))


def unify_setup(
    raw_bundle: Path, mapping_file: Path | None = None, mock_reply: str | None = None
) -> UnifyInput:
    """Read the raw bundle and obtain the mapping spec from a file or the mock LLM."""
    if (mapping_file is None) == (mock_reply is None):
        raise ValueError("pass exactly one of mapping_file or mock_reply")
    config = manifest.resolve_config()
    table = bundle_io.read_raw_bundle(raw_bundle)
    run_manifest = manifest.RunManifest(
        command="unify",
        config=dict(config),
        input_digests={"raw_bundle": bundle_io.bundle_digest(raw_bundle)},
        seed=0,
    )
    if mapping_file is not None:
        spec = unifier.MappingSpec.from_json(Path(mapping_file).read_text())
    else:
        spec = induce_spec(table, mock_reply, int(config["unify.sample_size"]))
    return UnifyInput(raw_bundle, table, spec, run_manifest, config)


def unify_apply(inp: UnifyInput, out_dir: Path):
    """Apply the spec and write the canonical bundle as ``pertpipe unify`` does."""
    ds = unifier.apply_mapping(
        inp.table, inp.spec, combo_delimiter=str(inp.config["unify.combo_delimiter"])
    )
    out = Path(out_dir)
    bundle_io.write_canonical_bundle(ds, out)
    (out / "validation_report.json").write_text(json.dumps({"issues": []}) + "\n")
    inp.run_manifest.finish(
        status="ok",
        canonical_digest=bundle_io.bundle_digest(out),
        n_cells=ds.n_cells,
        n_genes=ds.n_genes,
        p=ds.n_perts,
    )
    inp.run_manifest.write(out)
    return ds


def bundle_mb(path: Path) -> float:
    """Size of a bundle's files in MiB."""
    return sum(f.stat().st_size for f in Path(path).iterdir() if f.is_file()) / 2**20
