"""Command-line surface wiring the modules into end-to-end flows.

Commands: ``unify`` (raw bundle -> canonical bundle via a mapping file or
induction), ``search`` (pipeline search over a canonical bundle),
``evaluate`` (score a predictions file), ``gen-synthetic`` (benchmark
generator), and ``kb`` (knowledge-base inspection). Every failure writes a
machine-readable JSON object to stderr; primary results go to stdout or
the output directory. Each command imports the modules it runs inside its
function, so a process loads only what its command needs.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from pathlib import Path

import click
import numpy as np

from .errors import (
    BundleFormatError,
    LlmReplyError,
    MappingError,
    ParameterError,
    TransportError,
    ValidationError,
)

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


@contextmanager
def _failing(code: str, exit_code: int, *errors, message=str):
    """End the command with the JSON error ``code`` when one of ``errors`` is raised inside.

    ``message`` words the error from the exception. Nested blocks catch
    innermost first, as the ``except`` clauses of one ``try`` catch top first.
    """
    try:
        yield
    except errors as exc:
        _fail(code, message(exc), exit_code)


def _writing(out):
    """End the command with the JSON error ``output`` on an OSError while writing ``out``."""
    return _failing("output", EXIT_VALIDATION, OSError,
                    message=lambda exc: f"cannot write {out}: {exc.strerror or exc}")


def _resolved_config(config_path, sets, mode=None, model=None):
    from .manifest import parse_config_file, resolve_config

    with _failing("config", EXIT_USAGE, ParameterError, OSError):
        file_values = parse_config_file(config_path) if config_path else None
        overrides = {}
        for item in sets:
            if "=" not in item:
                _fail("usage", f"--set expects key=value, got {item!r}", EXIT_USAGE)
            key, _, value = item.partition("=")
            overrides[key.strip()] = value.strip()
        if mode:  # --mode and --model beat the config file and --set
            overrides["search.mode"] = "flat_ablation" if mode == "flat" else "hierarchical"
        if model:
            overrides["unify.model"] = model
        return resolve_config(file_values, overrides)


# click < 8.2 shows the help of a bare group and exits 0 instead of raising
_NO_ARGS = getattr(click.exceptions, "NoArgsIsHelpError", ())


class _JsonErrors(click.Group):
    """Ends click's own errors (a bad option, path or value) as JSON ``usage`` errors.

    Only in standalone mode: a caller that passes ``standalone_mode=False``
    gets click's exceptions, as with any click command.
    """

    def main(self, *args, standalone_mode=True, **kwargs):
        if not standalone_mode:
            return super().main(*args, standalone_mode=False, **kwargs)
        try:
            # returns the exit code of --help, None after a command
            sys.exit(super().main(*args, standalone_mode=False, **kwargs))
        except _NO_ARGS as exc:  # bare `pertpipe` or `pertpipe kb`: the help, then the error
            click.echo(exc.format_message(), err=True)
            _fail("usage", "missing command", EXIT_USAGE)
        except click.ClickException as exc:
            _fail("usage", exc.format_message(), EXIT_USAGE)
        except click.Abort:
            _fail("usage", "aborted", EXIT_USAGE)


@click.group(cls=_JsonErrors)
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
@click.option("--model", type=str, default=None,
              help="Model name for the live transport (sets unify.model).")
@click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False))
@click.option("--set", "sets", multiple=True, help="Config override key=value.")
def unify(raw_bundle, out_dir, mapping_file, induce, llm_transport, replay_file,
          mock_response, model, config_path, sets):
    """Project a raw bundle onto the canonical schema."""
    from .bundle import bundle_digest, read_raw_bundle, write_canonical_bundle
    from .manifest import RunManifest
    from .unifier import MappingSpec, apply_mapping, induce_mapping, preview_schema

    if bool(mapping_file) == bool(induce):
        _fail("usage", "exactly one of --mapping or --induce is required", EXIT_USAGE)
    config = _resolved_config(config_path, sets, model=model)
    with _failing("bundle", EXIT_VALIDATION, BundleFormatError, ValidationError):
        table = read_raw_bundle(raw_bundle)

    if mapping_file:
        with (
            _failing("mapping_spec", EXIT_VALIDATION, MappingError, OSError),
            _failing("mapping_spec", EXIT_VALIDATION, UnicodeDecodeError,
                     message=lambda exc: f"mapping file is not UTF-8 text: {exc}"),
        ):
            spec = MappingSpec.from_json(Path(mapping_file).read_text(encoding="utf-8"))
    else:
        preview = preview_schema(table, sample_size=config["unify.sample_size"])
        with (
            _failing("mapping_spec", EXIT_VALIDATION, MappingError),
            _failing("llm_response", EXIT_TRANSPORT, LlmReplyError),
            _failing("transport", EXIT_TRANSPORT, TransportError),
        ):
            client = _make_client(llm_transport, replay_file, mock_response, config)
            spec = induce_mapping(preview, client)
    manifest = RunManifest(
        command="unify",
        config=dict(config),
        input_digests={"raw_bundle": bundle_digest(raw_bundle), "mapping": spec.digest},
        seed=0,
    )
    with _failing("apply_mapping", EXIT_VALIDATION, MappingError, ValidationError):
        ds = apply_mapping(table, spec, combo_delimiter=config["unify.combo_delimiter"])

    out = Path(out_dir)
    with _writing(out):
        with _failing("apply_mapping", EXIT_VALIDATION, BundleFormatError):  # an unstorable value
            write_canonical_bundle(ds, out)
        manifest.finish(
            status="ok",
            canonical_digest=bundle_digest(out),
            n_cells=ds.n_cells,
            n_genes=ds.n_genes,
            p=ds.n_perts,
        )
        manifest.write(
            out,
            {"validation_report.json": json.dumps({"issues": []}) + "\n",
             "ground_truth.json": None},
        )
    click.echo(json.dumps({"out": str(out), "n_cells": ds.n_cells, "p": ds.n_perts}))


def _make_client(transport, replay_file, mock_response, config):
    from .llm import LlmClient

    if transport == "replay":
        if not replay_file:
            raise TransportError("replay transport needs --replay-file")
        return LlmClient.replay(replay_file)
    if transport == "mock":
        if mock_response is None:
            raise TransportError("mock transport needs --mock-response")
        return LlmClient.mock(mock_response)
    return LlmClient.live(model=config["unify.model"])


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
    from .actions import hierarchical_path
    from .bundle import bundle_digest, read_canonical_bundle
    from .evaluators import FailureInjectingEvaluator, LandscapeEvaluator
    from .knowledge import KnowledgeBase, make_entry, retrieve
    from .manifest import RunManifest, to_retrieval_params, to_search_config
    from .search import run_search

    config = _resolved_config(config_path, sets, mode)
    with _failing("bundle", EXIT_VALIDATION, BundleFormatError, ValidationError):
        ds = read_canonical_bundle(bundle)

    if kb_path:  # a store that fails to load ends the run before any preparation
        kb = KnowledgeBase(kb_path)
        with _failing("kb", EXIT_VALIDATION, ValidationError):
            entries = kb.load()
    with _failing("evaluator", EXIT_USAGE, ParameterError, OSError):
        scored, split_used = _make_evaluator(evaluator_spec, ds, config, seed)
        evaluator = scored
        if fail_rate != 0:  # the injector refuses a rate outside [0, 1], NaN too
            evaluator = FailureInjectingEvaluator(
                scored, failure_rate=fail_rate, fix_succeeds=fail_fixable
            )

    profile_text = _profile_text(ds, config, evaluator_spec)
    retrieval = None
    if kb_path:
        retrieval = retrieve(profile_text, entries, to_retrieval_params(config))

    search_config = to_search_config(config, seed)
    input_digests = {"bundle": bundle_digest(bundle)}
    if isinstance(scored, LandscapeEvaluator):
        input_digests["landscape"] = scored.digest  # of the table it parsed
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

    # search owns these names: one this run does not write is removed
    files = {
        "trajectory.jsonl": result.trajectory_jsonl(),
        "tree.json": result.tree_json() + "\n",
        "retrieval.json": None if retrieval is None else json.dumps(
            {
                "rho": None if retrieval.rho == float("-inf") else retrieval.rho,
                "mode": retrieval.mode,
                "epsilon0": list(retrieval.epsilon0) if retrieval.epsilon0 else None,
            },
            sort_keys=True,
        ) + "\n",
        "best_candidate.json": None,
    }
    if not result.found_valid:
        manifest.finish(status="no_valid_candidate", n_iterations=result.n_iterations)
        with _writing(out_dir):
            manifest.write(out_dir, files)
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
    if kb_path:  # appended first, so a failed append leaves OUT_DIR as it was
        # stored paths must be hierarchy-legal; a flat-mode path is reordered
        # into the hierarchical path that materializes to the same candidate
        entry = make_entry(
            profile_text=profile_text + " | solution: " + result.best_candidate.key(),
            action_path=hierarchical_path(result.best_path),
            reward=min(1.0, max(0.0, result.best_reward)),
        )
        with _failing("kb", EXIT_VALIDATION, ValidationError):
            kb.record(entry)
    files["best_candidate.json"] = json.dumps(best, indent=2, sort_keys=True) + "\n"
    manifest.finish(status="ok", **{k: best[k] for k in ("candidate", "reward", "m_val")})
    with _writing(out_dir):
        manifest.write(out_dir, files)
    click.echo(json.dumps(best))


def _make_evaluator(spec: str, ds, config, seed):
    from .data import split_unseen_cell, split_unseen_perturbation
    from .evaluators import LandscapeEvaluator, SurrogateEvaluator, builtin_landscape_path

    if spec == "surrogate":
        kind = config["split.kind"]
        if kind == "unseen_perturbation":
            split = split_unseen_perturbation(ds, train_frac=config["split.train_frac"], seed=seed)
        else:  # unseen_cell: the last cell type in sorted order is held out
            types = sorted(set(ds.cell_type.tolist()))
            if not types:
                raise ParameterError("the unseen_cell split needs cells; the bundle has none")
            split = split_unseen_cell(ds, types[-1], seed)
        return SurrogateEvaluator(ds, split), kind
    if spec.startswith("landscape:"):
        ref = Path(spec.split(":", 1)[1])
        path = ref if ref.is_file() else builtin_landscape_path(str(ref))
        return LandscapeEvaluator.from_file(path), None
    raise ParameterError(
        f"unknown evaluator {spec!r}; use 'surrogate' or 'landscape:<table.json>' "
        f"(builtin tables: funnel, funnel_jitter, ablation)"
    )


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
    from .bundle import read_canonical_bundle
    from .data import pseudo_bulk
    from .metrics import evaluate_predictions

    with _failing("bundle", EXIT_VALIDATION, BundleFormatError, ValidationError):
        ds = read_canonical_bundle(bundle)
    with (
        _failing("predictions", EXIT_VALIDATION, OSError),
        _failing("predictions", EXIT_VALIDATION, UnicodeDecodeError,
                 message=lambda exc: f"predictions file is not UTF-8 text: {exc}"),
        _failing("predictions", EXIT_VALIDATION, json.JSONDecodeError, RecursionError,
                 message=lambda exc: f"predictions file is not valid JSON: {exc}"),
    ):
        doc = json.loads(Path(predictions).read_text(encoding="utf-8"))
    if not isinstance(doc, dict):
        _fail("predictions", "predictions file must map condition -> vector", EXIT_VALIDATION)

    with _failing("evaluate", EXIT_VALIDATION, ParameterError):  # a bundle of no cells
        truth = pseudo_bulk(ds)
    if control_name is None:
        control_rows = np.flatnonzero(ds.is_control)
        if control_rows.size == 0:
            _fail("predictions", "bundle has no control cells; pass --control", EXIT_VALIDATION)
        control_name = ds.condition_name[control_rows[0]]
    if control_name not in truth:
        _fail("predictions", f"control condition {control_name!r} not in bundle", EXIT_VALIDATION)

    predicted = {}
    for cond, vec in doc.items():
        with _failing("predictions", EXIT_VALIDATION, ValueError, OverflowError,
                      message=lambda exc: f"condition {cond!r} is not a vector of numbers: {exc}"):
            arr = _json_vector(vec)
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
        predicted[cond] = arr
    with _failing("evaluate", EXIT_VALIDATION, ParameterError):
        report = evaluate_predictions(truth, predicted, control_name)
    click.echo(json.dumps(report, indent=2))


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
    from .bundle import bundle_digest, write_canonical_bundle
    from .evaluators import SyntheticConfig, generate_synthetic
    from .manifest import RunManifest

    with _failing("gen_synthetic", EXIT_VALIDATION, ParameterError, ValidationError):
        ds, truth = generate_synthetic(SyntheticConfig(
            n_genes=n_genes,
            n_perts=n_perts,
            cells_per_condition=cells_per_condition,
            noise_sigma=noise_sigma,
            effect_sparsity=effect_sparsity,
            seed=seed,
        ))
    out = Path(out_dir)
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
    with _writing(out):
        write_canonical_bundle(ds, out)
        digest = bundle_digest(out)
        manifest.finish(status="ok", bundle_digest=digest)
        manifest.write(
            out, {"ground_truth.json": truth.to_json() + "\n", "validation_report.json": None}
        )
    click.echo(json.dumps({"out": str(out), "digest": digest}))


@main.group()
def kb():
    """Inspect or extend a knowledge base file."""


@kb.command("list")
@click.option("--kb", "kb_path", required=True, type=click.Path(dir_okay=False))
def kb_list(kb_path):
    from .knowledge import KnowledgeBase

    with _failing("kb", EXIT_VALIDATION, ValidationError):
        entries = KnowledgeBase(kb_path).load()
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
    from .knowledge import KnowledgeBase

    with _failing("kb", EXIT_VALIDATION, ValidationError):
        entries = KnowledgeBase(kb_path).load()
    if not entries:
        _fail("kb", f"knowledge base {kb_path} is empty", EXIT_USAGE)
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
    from .knowledge import KnowledgeBase, make_entry

    actions = tuple(a.strip() for a in path_text.split(",") if a.strip())
    entry = make_entry(profile_text=profile, action_path=actions, reward=reward)
    with _failing("kb", EXIT_VALIDATION, ValidationError):
        KnowledgeBase(kb_path).record(entry)
    click.echo(json.dumps({"recorded": True, "path": list(actions)}))


if __name__ == "__main__":
    main()
