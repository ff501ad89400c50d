"""Command-line surface wiring the modules into end-to-end flows.

Commands: ``unify`` (raw bundle -> canonical bundle via a mapping file or
induction), ``search`` (pipeline search over a canonical bundle),
``evaluate`` (score a predictions file), ``gen-synthetic`` (benchmark
generator), and ``kb`` (knowledge-base inspection). Every failure writes a
machine-readable JSON object to stderr; primary results go to stdout or
the output directory.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import click
import numpy as np

from . import bundle as bundle_io
from .actions import hierarchical_path
from .data import PseudoBulkProfile, pseudo_bulk, split_unseen_cell, split_unseen_perturbation
from .errors import (
    BundleFormatError,
    LlmReplyError,
    MappingError,
    ParameterError,
    TransportError,
    ValidationError,
)
from .evaluators import (
    FailureInjectingEvaluator,
    LandscapeEvaluator,
    SurrogateEvaluator,
    SyntheticConfig,
    builtin_landscape_path,
    generate_synthetic,
)
from .knowledge import KnowledgeBase, make_entry, retrieve
from .llm import LlmClient
from .manifest import (
    RunManifest,
    parse_config_file,
    resolve_config,
    to_retrieval_params,
    to_search_config,
)
from .metrics import evaluate_predictions
from .search import run_search
from .unifier import MappingSpec, apply_mapping, induce_mapping, preview_schema

click.UsageError.exit_code = 1

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VALIDATION = 2
EXIT_TRANSPORT = 3
EXIT_NO_CANDIDATE = 4


def _fail(code: str, message: str, exit_code: int, **details):
    payload = {"error": {"code": code, "message": message}}
    if details:
        payload["error"]["details"] = details
    click.echo(json.dumps(payload), err=True)
    sys.exit(exit_code)


def _resolved_config(config_path, sets, mode=None):
    file_values = parse_config_file(config_path) if config_path else None
    overrides = {}
    for item in sets:
        if "=" not in item:
            _fail("usage", f"--set expects key=value, got {item!r}", EXIT_USAGE)
        key, _, value = item.partition("=")
        overrides[key.strip()] = value.strip()
    if mode:  # --mode beats the config file and --set
        overrides["search.mode"] = "flat_ablation" if mode == "flat" else "hierarchical"
    return resolve_config(file_values, overrides)


@click.group()
def main():
    """Dataset harmonization and pipeline search."""


@main.command()
@click.argument("raw_bundle", type=click.Path(exists=True, file_okay=False))
@click.argument("out_dir", type=click.Path(file_okay=False))
@click.option("--mapping", "mapping_file", type=click.Path(exists=True, dir_okay=False),
              help="Apply a mapping specification from a JSON file.")
@click.option("--induce", is_flag=True, help="Induce the mapping from a schema preview.")
@click.option("--llm-transport", type=click.Choice(["live", "replay", "mock"]), default="replay")
@click.option("--replay-file", type=click.Path(exists=True, dir_okay=False),
              help="Recorded responses for the replay transport.")
@click.option("--mock-response", type=str, default=None, help="Fixed response for the mock transport.")
@click.option("--model", type=str, default=None, help="Model name for the live transport.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "sets", multiple=True, help="Config override key=value.")
def unify(raw_bundle, out_dir, mapping_file, induce, llm_transport, replay_file,
          mock_response, model, config_path, sets):
    """Project a raw bundle onto the canonical schema."""
    if bool(mapping_file) == bool(induce):
        _fail("usage", "exactly one of --mapping or --induce is required", EXIT_USAGE)
    try:
        config = _resolved_config(config_path, sets)
    except (ParameterError, OSError) as exc:
        _fail("config", str(exc), EXIT_USAGE)
    try:
        table = bundle_io.read_raw_bundle(raw_bundle)
    except (BundleFormatError, ValidationError) as exc:
        _fail("bundle", str(exc), EXIT_VALIDATION)

    manifest = RunManifest(
        command="unify",
        config=dict(config),
        input_digests={"raw_bundle": bundle_io.bundle_digest(raw_bundle)},
        seed=0,
    )
    if mapping_file:
        try:
            spec = MappingSpec.from_json(Path(mapping_file).read_text(encoding="utf-8"))
        except UnicodeDecodeError as exc:
            _fail("mapping_spec", f"mapping file is not UTF-8 text: {exc}", EXIT_VALIDATION)
        except MappingError as exc:
            _fail("mapping_spec", str(exc), EXIT_VALIDATION)
    else:
        preview = preview_schema(table, sample_size=config["unify.sample_size"])
        try:
            client = _make_client(llm_transport, replay_file, mock_response, model, config)
            spec = induce_mapping(preview, client)
        except TransportError as exc:
            _fail("transport", str(exc), EXIT_TRANSPORT)
        except LlmReplyError as exc:
            _fail("llm_response", str(exc), EXIT_TRANSPORT)
        except MappingError as exc:
            _fail("mapping_spec", str(exc), EXIT_VALIDATION)
    try:
        ds = apply_mapping(table, spec, combo_delimiter=config["unify.combo_delimiter"])
    except (MappingError, ValidationError) as exc:
        _fail("apply_mapping", str(exc), EXIT_VALIDATION)

    out = Path(out_dir)
    try:
        bundle_io.write_canonical_bundle(ds, out)
    except BundleFormatError as exc:  # a mapped value the bundle cannot store
        _fail("apply_mapping", str(exc), EXIT_VALIDATION)
    bundle_io.write_text_atomic(
        out / "validation_report.json", json.dumps({"issues": []}) + "\n"
    )
    manifest.finish(
        status="ok",
        canonical_digest=bundle_io.bundle_digest(out),
        n_cells=ds.n_cells,
        n_genes=ds.n_genes,
        p=ds.n_perts,
    )
    manifest.write(out)
    click.echo(json.dumps({"out": str(out), "n_cells": ds.n_cells, "p": ds.n_perts}))


def _make_client(transport, replay_file, mock_response, model, config) -> LlmClient:
    if transport == "replay":
        if not replay_file:
            raise TransportError("replay transport needs --replay-file")
        return LlmClient.replay(replay_file)
    if transport == "mock":
        if mock_response is None:
            raise TransportError("mock transport needs --mock-response")
        return LlmClient.mock(mock_response)
    return LlmClient.live(model=model or config["unify.model"])


@main.command()
@click.argument("bundle", type=click.Path(exists=True, file_okay=False))
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--evaluator", "evaluator_spec", default="surrogate",
              help="'surrogate' or 'landscape:<table.json>'.")
@click.option("--mode", type=click.Choice(["hierarchical", "flat"]), default=None)
@click.option("--kb", "kb_path", type=click.Path(dir_okay=False), default=None)
@click.option("--seed", type=click.IntRange(min=0), default=0)
@click.option("--fail-rate", type=float, default=0.0,
              help="Deterministically fail this fraction of candidates (debug-path demo).")
@click.option("--fail-fixable/--no-fail-fixable", default=True,
              help="Whether injected failures succeed after a debug action.")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "sets", multiple=True, help="Config override key=value.")
def search(bundle, out_dir, evaluator_spec, mode, kb_path, seed, fail_rate,
           fail_fixable, config_path, sets):
    """Search for the best modeling pipeline on a canonical bundle."""
    try:
        config = _resolved_config(config_path, sets, mode)
    except (ParameterError, OSError) as exc:
        _fail("config", str(exc), EXIT_USAGE)
    try:
        ds = bundle_io.read_canonical_bundle(bundle)
    except (BundleFormatError, ValidationError) as exc:
        _fail("bundle", str(exc), EXIT_VALIDATION)

    try:
        evaluator, split_used = _make_evaluator(evaluator_spec, ds, config, seed)
        if fail_rate != 0:  # the injector refuses a rate outside [0, 1], NaN too
            evaluator = FailureInjectingEvaluator(
                evaluator, failure_rate=fail_rate, fix_succeeds=fail_fixable
            )
    except (ParameterError, OSError) as exc:
        _fail("evaluator", str(exc), EXIT_USAGE)

    profile_text = _profile_text(ds, config, evaluator_spec)
    retrieval = None
    if kb_path:
        kb = KnowledgeBase(kb_path)
        try:
            entries = kb.load()
        except ValidationError as exc:
            _fail("kb", str(exc), EXIT_VALIDATION)
        retrieval = retrieve(profile_text, entries, to_retrieval_params(config))

    search_config = to_search_config(config, seed)
    input_digests = {"bundle": bundle_io.bundle_digest(bundle)}
    if evaluator_spec.startswith("landscape:"):
        table = _landscape_path(evaluator_spec).read_bytes()
        input_digests["landscape"] = hashlib.sha256(table).hexdigest()
    if kb_path:
        input_digests["kb"] = kb.digest
    manifest = RunManifest(
        command="search",
        config=dict(config),
        input_digests=input_digests,
        seed=seed,
        options={
            "evaluator": evaluator_spec,
            "fail_rate": fail_rate,
            "fail_fixable": fail_fixable,
        },
    )
    result = run_search(search_config, evaluator, retrieval=retrieval)

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    bundle_io.write_text_atomic(out / "trajectory.jsonl", result.trajectory_jsonl())
    bundle_io.write_text_atomic(out / "tree.json", result.tree_json() + "\n")
    if retrieval is not None:
        bundle_io.write_text_atomic(
            out / "retrieval.json",
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

    if not result.found_valid:
        manifest.finish(status="no_valid_candidate", n_iterations=result.n_iterations)
        manifest.write(out)
        _fail("no_valid_candidate",
              "search finished without any successful simulation", EXIT_NO_CANDIDATE)

    best = {
        "candidate": result.best_candidate.key(),
        "path": list(result.best_path),
        "reward": result.best_reward,
        "m_val": result.best_m_val,
        "split": split_used,
        "mode": search_config.mode,
    }
    bundle_io.write_text_atomic(
        out / "best_candidate.json", json.dumps(best, indent=2, sort_keys=True) + "\n"
    )
    manifest.finish(status="ok", **{k: best[k] for k in ("candidate", "reward", "m_val")})
    manifest.write(out)

    if kb_path:
        # stored paths must be hierarchy-legal; a flat-mode path is reordered
        # into the hierarchical path that materializes to the same candidate
        entry = make_entry(
            profile_text=profile_text + " | solution: " + result.best_candidate.key(),
            action_path=hierarchical_path(result.best_path),
            reward=min(1.0, max(0.0, result.best_reward)),
        )
        KnowledgeBase(kb_path).record(entry)
    click.echo(json.dumps(best))


def _make_evaluator(spec: str, ds, config, seed):
    if spec == "surrogate":
        kind = config["split.kind"]
        if kind == "unseen_perturbation":
            split = split_unseen_perturbation(ds, train_frac=config["split.train_frac"], seed=seed)
        else:  # unseen_cell
            types = sorted(set(ds.cell_type.tolist()))
            split = split_unseen_cell(ds, types[-1], 0.5, seed)
        return SurrogateEvaluator(ds, split), kind
    if spec.startswith("landscape:"):
        return LandscapeEvaluator.from_file(_landscape_path(spec)), None
    raise ParameterError(
        f"unknown evaluator {spec!r}; use 'surrogate' or 'landscape:<table.json>' "
        f"(builtin tables: funnel, funnel_jitter, ablation)"
    )


def _landscape_path(spec: str) -> Path:
    ref = Path(spec.split(":", 1)[1])
    return ref if ref.is_file() else builtin_landscape_path(str(ref))


def _profile_text(ds, config, evaluator_spec) -> str:
    vocab_head = " ".join(ds.pert_vocab[:8])
    return (
        f"cells {ds.n_cells} genes {ds.n_genes} perturbations {ds.n_perts} "
        f"vocab {vocab_head} split {config['split.kind']} evaluator {evaluator_spec}"
    )


@main.command()
@click.argument("bundle", type=click.Path(exists=True, file_okay=False))
@click.argument("predictions", type=click.Path(exists=True, dir_okay=False))
@click.option("--control", "control_name", default=None,
              help="Condition name of the control profile (default: the bundle's control rows).")
def evaluate(bundle, predictions, control_name):
    """Score a JSON predictions file against a bundle's pseudo-bulk truth."""
    try:
        ds = bundle_io.read_canonical_bundle(bundle)
    except (BundleFormatError, ValidationError) as exc:
        _fail("bundle", str(exc), EXIT_VALIDATION)
    try:
        doc = json.loads(Path(predictions).read_text(encoding="utf-8"))
    except UnicodeDecodeError as exc:
        _fail("predictions", f"predictions file is not UTF-8 text: {exc}", EXIT_VALIDATION)
    except (json.JSONDecodeError, RecursionError) as exc:
        _fail("predictions", f"predictions file is not valid JSON: {exc}", EXIT_VALIDATION)
    if not isinstance(doc, dict):
        _fail("predictions", "predictions file must map condition -> vector", EXIT_VALIDATION)

    truth = pseudo_bulk(ds)
    if control_name is None:
        control_rows = np.flatnonzero(ds.is_control)
        if control_rows.size == 0:
            _fail("predictions", "bundle has no control cells; pass --control", EXIT_VALIDATION)
        control_name = ds.condition_name[control_rows[0]]
    control = next((p for p in truth if p.condition_name == control_name), None)
    if control is None:
        _fail("predictions", f"control condition {control_name!r} not in bundle", EXIT_VALIDATION)

    predicted = []
    for cond, vec in doc.items():
        try:
            arr = _json_vector(vec)
        except (ValueError, OverflowError) as exc:
            _fail("predictions", f"condition {cond!r} is not a vector of numbers: {exc}",
                  EXIT_VALIDATION)
        if arr.shape != (ds.n_genes,):
            _fail(
                "shape",
                f"condition {cond!r} has {arr.shape[0]} values, expected {ds.n_genes}",
                EXIT_VALIDATION,
                expected=ds.n_genes,
                actual=int(arr.shape[0]),
            )
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            _fail(
                "predictions",
                f"condition {cond!r} has non-finite value {arr[bad[0]]} at gene "
                f"{bad[0]} ({bad.size} values)",
                EXIT_VALIDATION,
            )
        predicted.append(PseudoBulkProfile(condition_name=cond, mean_expr=arr, n_cells=0))
    try:
        report = evaluate_predictions(truth, predicted, control)
    except (ParameterError, ValidationError) as exc:
        _fail("evaluate", str(exc), EXIT_VALIDATION)
    click.echo(report.to_json())


def _json_vector(vec) -> np.ndarray:
    """A JSON list of numbers as float64; numpy alone would also read "1.0", true and null."""
    if type(vec) is not list:
        raise ValueError(f"got {type(vec).__name__} {vec!r}")
    for j, v in enumerate(vec):
        if type(v) not in (int, float):
            raise ValueError(f"gene {j} holds {v!r}")
    return np.array(vec, dtype=np.float64)  # OverflowError past the float range


@main.command("gen-synthetic")
@click.option("--out", "out_dir", required=True, type=click.Path(file_okay=False))
@click.option("--n-genes", type=int, default=60)
@click.option("--n-perts", type=int, default=8)
@click.option("--cells-per-condition", type=int, default=12)
@click.option("--noise-sigma", type=float, default=0.3)
@click.option("--effect-sparsity", type=float, default=0.3)
@click.option("--seed", type=click.IntRange(min=0), default=0)
def gen_synthetic(out_dir, n_genes, n_perts, cells_per_condition, noise_sigma,
                  effect_sparsity, seed):
    """Generate a synthetic canonical bundle with a ground-truth sidecar."""
    try:
        cfg = SyntheticConfig(
            n_genes=n_genes,
            n_perts=n_perts,
            cells_per_condition=cells_per_condition,
            noise_sigma=noise_sigma,
            effect_sparsity=effect_sparsity,
            seed=seed,
        )
        ds, truth = generate_synthetic(cfg)
    except (ParameterError, ValidationError) as exc:
        _fail("gen_synthetic", str(exc), EXIT_VALIDATION)
    out = Path(out_dir)
    bundle_io.write_canonical_bundle(ds, out)
    bundle_io.write_text_atomic(out / "ground_truth.json", truth.to_json() + "\n")
    manifest = RunManifest(
        command="gen-synthetic",
        config={
            "n_genes": n_genes,
            "n_perts": n_perts,
            "cells_per_condition": cells_per_condition,
            "noise_sigma": noise_sigma,
            "effect_sparsity": effect_sparsity,
        },
        input_digests={},
        seed=seed,
    )
    digest = bundle_io.bundle_digest(out)
    manifest.finish(status="ok", bundle_digest=digest)
    manifest.write(out)
    click.echo(json.dumps({"out": str(out), "digest": digest}))


@main.group()
def kb():
    """Inspect or extend a knowledge base file."""


@kb.command("list")
@click.option("--kb", "kb_path", required=True, type=click.Path(dir_okay=False))
def kb_list(kb_path):
    entries = _load_kb_entries(kb_path)
    rows = [
        {
            "index": i,
            "created_at": e.created_at,
            "reward": e.reward,
            "path": list(e.action_path),
            "profile": e.profile_text[:80],
        }
        for i, e in enumerate(entries)
    ]
    click.echo(json.dumps(rows, indent=2, sort_keys=True))


@kb.command("show")
@click.argument("index", type=int)
@click.option("--kb", "kb_path", required=True, type=click.Path(dir_okay=False))
def kb_show(index, kb_path):
    entries = _load_kb_entries(kb_path)
    if not (0 <= index < len(entries)):
        _fail("kb", f"index {index} out of range (0..{len(entries) - 1})", EXIT_USAGE)
    e = entries[index]
    click.echo(
        json.dumps(
            {
                "created_at": e.created_at,
                "reward": e.reward,
                "path": list(e.action_path),
                "profile_text": e.profile_text,
            },
            indent=2,
            sort_keys=True,
        )
    )


@kb.command("add")
@click.option("--kb", "kb_path", required=True, type=click.Path(dir_okay=False))
@click.option("--profile", required=True, type=str)
@click.option("--reward", required=True, type=float)
@click.option("--path", "path_text", required=True,
              help="Comma-separated action path, e.g. 'paradigm:generative,backbone:conditional_vae'.")
def kb_add(kb_path, profile, reward, path_text):
    actions = tuple(a.strip() for a in path_text.split(",") if a.strip())
    entry = make_entry(profile_text=profile, action_path=actions, reward=reward)
    try:
        KnowledgeBase(kb_path).record(entry)
    except ValidationError as exc:
        _fail("kb", str(exc), EXIT_VALIDATION)
    click.echo(json.dumps({"recorded": True, "path": list(actions)}))


def _load_kb_entries(kb_path):
    try:
        return KnowledgeBase(kb_path).load()
    except ValidationError as exc:
        _fail("kb", str(exc), EXIT_VALIDATION)


if __name__ == "__main__":
    main()
