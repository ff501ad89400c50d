from __future__ import annotations

import builtins
import errno
import hashlib
import io
import json
import math
import os
import re
import shutil
import subprocess
import sys
import threading
import tomllib
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pertpipe
import pertpipe.bundle
from helpers import small_canonical
from pertpipe.bundle import (
    bundle_digest,
    read_canonical_bundle,
    write_canonical_bundle,
    write_raw_bundle,
)
from pertpipe.actions import materialize, validate_action_path
from pertpipe.cli import _profile_text, main
from pertpipe.data import RawTable, pseudo_bulk
from pertpipe.evaluators import (
    LandscapeEvaluator,
    SyntheticConfig,
    builtin_landscape_path,
    generate_synthetic,
)
from pertpipe.knowledge import KnowledgeBase, make_entry
from pertpipe import manifest as manifest_module
from pertpipe.manifest import CONFIG_DEFAULTS, RunManifest, parse_config_file, resolve_config
from pertpipe.unifier import extract_json_block


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def raw_bundle_dir(tmp_path, drug_raw_table):
    path = tmp_path / "raw"
    write_raw_bundle(drug_raw_table, path)
    return path


@pytest.fixture
def mapping_file(tmp_path, flat_form_mapping):
    path = tmp_path / "mapping.json"
    path.write_text(json.dumps(flat_form_mapping))
    return path


def _nested_mapping_response() -> str:
    doc = {
        "uscp_mapping": {
            "obs": {
                "cell_type": "cell_type_annotation",
                "batch_id": "None",
                "donor_id": "cell_type_annotation",
                "pert_type": "drug",
                "is_control_logic": "adata.obs['drug_id'] == 'DMSO'",
                "condition_name_logic": "adata.obs['drug_id'].astype(str)",
            },
            "obsm": {"pert_mask_source": "drug_id", "pert_dose_source": "None"},
            "var": {"index_type": "Ensembl ID", "gene_symbol_col": "symbol"},
            "numerical": {
                "is_already_log1p": False,
                "normalization_required": True,
                "target_sum": 10000.0,
            },
        },
        "data_summary": "drugs on A549",
    }
    return "```json\n" + json.dumps(doc) + "\n```"


def _stderr_error(result) -> dict:
    return json.loads(result.stderr.strip().splitlines()[-1])


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not strict JSON")


def _read_manifest(out: Path) -> dict:
    """``run_manifest.json`` read as strict JSON: ``NaN`` and the infinities are refused."""
    return json.loads((out / "run_manifest.json").read_text(), parse_constant=_refuse_constant)


class TestUnify:
    def test_mapping_file_produces_canonical_bundle(
        self, runner, raw_bundle_dir, mapping_file, tmp_path
    ):
        out = tmp_path / "canon"
        result = runner.invoke(
            main, ["unify", str(raw_bundle_dir), str(out), "--mapping", str(mapping_file)]
        )
        assert result.exit_code == 0, result.output + result.stderr
        ds = read_canonical_bundle(out)
        assert ds.pert_vocab == ("drugA", "drugB")
        a = ds.pert_vocab.index("drugA")
        assert 10000.0 in set(ds.pert_dose[:, a].tolist())
        assert _read_manifest(out)["command"] == "unify"

    def test_run_id_covers_the_mapping(self, runner, raw_bundle_dir, flat_form_mapping,
                                       tmp_path):
        def run_id(name, mapping):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(mapping))
            out = tmp_path / name
            result = runner.invoke(
                main, ["unify", str(raw_bundle_dir), str(out), "--mapping", str(path)]
            )
            assert result.exit_code == 0, result.output + result.stderr
            manifest = _read_manifest(out)
            assert manifest["input_digests"]["mapping"] == hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
            return manifest["run_id"]

        other = {**flat_form_mapping, "perturbation_type": "crispr"}
        assert run_id("a", flat_form_mapping) == run_id("b", flat_form_mapping)
        assert run_id("c", other) != run_id("a", flat_form_mapping)

    def test_induced_mapping_and_model_are_recorded(self, runner, raw_bundle_dir, tmp_path):
        # a reply may hold a lone surrogate (a JSON replay file can escape one)
        reply = _nested_mapping_response().replace("drugs on", "drugs \ud800 on")
        block = extract_json_block(reply).encode("utf-8", "surrogatepass")
        induced = hashlib.sha256(block).hexdigest()
        ids = []
        for model in ("model-a", "model-b"):
            out = tmp_path / model
            result = runner.invoke(
                main,
                ["unify", str(raw_bundle_dir), str(out), "--induce", "--llm-transport", "mock",
                 "--mock-response", reply, "--model", model],
            )
            assert result.exit_code == 0, result.output + result.stderr
            manifest = _read_manifest(out)
            assert manifest["config"]["unify.model"] == model
            assert manifest["input_digests"]["mapping"] == induced
            ids.append(manifest["run_id"])
        assert ids[0] != ids[1]

    @pytest.mark.parametrize("fault", ["out_under_a_file", "disk_full"])
    def test_an_output_that_cannot_be_written_exits_2(
        self, runner, raw_bundle_dir, mapping_file, tmp_path, monkeypatch, fault
    ):
        out = tmp_path / "canon"
        reason = "No space left on device"
        if fault == "out_under_a_file":
            out, reason = raw_bundle_dir / "manifest.json" / "canon", "Not a directory"
        else:
            def full(path, text):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

            monkeypatch.setattr(manifest_module, "write_text_atomic", full)
        result = runner.invoke(
            main, ["unify", str(raw_bundle_dir), str(out), "--mapping", str(mapping_file)]
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error == {"code": "output", "message": f"cannot write {out}: {reason}"}
        assert not (out / "run_manifest.json").exists()

    def test_non_ascii_value_round_trips_under_the_c_locale(
        self, drug_raw_table, mapping_file, tmp_path
    ):
        # every bundle reader decodes UTF-8, so writers must not use the locale's encoding
        drugs = drug_raw_table.obs["drug_id"]
        drug_raw_table.obs["drug_id"] = np.where(drugs == "drugA", "\u03b1-amanitin", drugs)
        write_raw_bundle(drug_raw_table, tmp_path / "raw")
        env = {**os.environ, "PYTHONPATH": str(Path(pertpipe.__file__).parents[1]),
               "LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}
        out = tmp_path / "canon"
        subprocess.run(
            [sys.executable, "-m", "pertpipe.cli", "unify", str(tmp_path / "raw"), str(out),
             "--mapping", str(mapping_file)],
            capture_output=True, check=True, env=env,
        )
        assert read_canonical_bundle(out).pert_vocab == ("drugB", "\u03b1-amanitin")

    def test_string_literals_keep_trailing_nuls(
        self, runner, raw_bundle_dir, flat_form_mapping, tmp_path
    ):
        spec = {
            **flat_form_mapping,
            "cell_line": {"type": "constant", "value": "HeLa\u0000"},
            "batch_id": {"type": "logic", "expression": "'b\u0000\u0000'"},
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        out = tmp_path / "canon"
        result = runner.invoke(
            main, ["unify", str(raw_bundle_dir), str(out), "--mapping", str(spec_file)]
        )
        assert result.exit_code == 0, result.output + result.stderr
        ds = read_canonical_bundle(out)
        assert set(ds.cell_type.tolist()) == {"HeLa\x00"}
        assert set(ds.batch_id.tolist()) == {"b\x00\x00"}

    def test_missing_column_exits_2_with_name(self, runner, raw_bundle_dir, tmp_path):
        spec = {
            "perturbation_name": {"type": "direct", "source_key": "missing_col"},
            "control_status": "df['drug_id'] == 'DMSO'",
        }
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(spec))
        result = runner.invoke(
            main,
            ["unify", str(raw_bundle_dir), str(tmp_path / "o"), "--mapping", str(spec_file)],
        )
        assert result.exit_code == 2
        error = _stderr_error(result)
        assert "missing_col" in error["error"]["message"]

    def test_induce_replay_byte_deterministic(self, runner, raw_bundle_dir, tmp_path):
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps([_nested_mapping_response()]))
        digests = []
        for i in range(3):
            out = tmp_path / f"canon{i}"
            result = runner.invoke(
                main,
                [
                    "unify", str(raw_bundle_dir), str(out),
                    "--induce", "--llm-transport", "replay",
                    "--replay-file", str(replay),
                ],
            )
            assert result.exit_code == 0, result.output + result.stderr
            digests.append(bundle_digest(out))
        assert len(set(digests)) == 1

    def test_exhausted_replay_exits_3(self, runner, raw_bundle_dir, tmp_path):
        replay = tmp_path / "replay.json"
        replay.write_text(json.dumps([]))
        result = runner.invoke(
            main,
            [
                "unify", str(raw_bundle_dir), str(tmp_path / "o"),
                "--induce", "--llm-transport", "replay", "--replay-file", str(replay),
            ],
        )
        assert result.exit_code == 3

    def test_response_without_json_exits_3(self, runner, raw_bundle_dir, tmp_path):
        result = runner.invoke(
            main,
            [
                "unify", str(raw_bundle_dir), str(tmp_path / "o"),
                "--induce", "--llm-transport", "mock",
                "--mock-response", "no mapping here",
            ],
        )
        assert result.exit_code == 3

    def test_unparsable_json_reply_exits_3(self, runner, raw_bundle_dir, tmp_path):
        result = runner.invoke(
            main,
            [
                "unify", str(raw_bundle_dir), str(tmp_path / "o"),
                "--induce", "--llm-transport", "mock",
                "--mock-response", "```json\n{not json\n```",
            ],
        )
        assert result.exit_code == 3
        assert _stderr_error(result)["error"]["code"] == "llm_response"

    def test_spec_error_quoting_reply_error_text_exits_2(
        self, runner, raw_bundle_dir, tmp_path
    ):
        # valid JSON whose spec error happens to contain "no fenced JSON block"
        doc = {"uscp_mapping": {"obs": {"cell_type": {"type": "no fenced JSON block"}}}}
        result = runner.invoke(
            main,
            [
                "unify", str(raw_bundle_dir), str(tmp_path / "o"),
                "--induce", "--llm-transport", "mock",
                "--mock-response", "```json\n" + json.dumps(doc) + "\n```",
            ],
        )
        assert result.exit_code == 2
        error = _stderr_error(result)["error"]
        assert error["code"] == "mapping_spec"
        assert "no fenced JSON block" in error["message"]

    @pytest.mark.parametrize(
        "numerical",
        [{"is_already_log1p": "false"}, {"normalization_required": "false"},
         {"target_sum": "inf"}],
        ids=["log1p_string", "normalization_string", "target_sum_string"],
    )
    def test_mistyped_numerical_block_exits_2(self, runner, raw_bundle_dir, tmp_path,
                                              flat_form_mapping, numerical):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({**flat_form_mapping, "numerical": numerical}))
        result = runner.invoke(
            main,
            ["unify", str(raw_bundle_dir), str(tmp_path / "o"), "--mapping", str(spec_file)],
        )
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error["code"] == "mapping_spec"
        assert f"numerical.{next(iter(numerical))}" in error["message"]
        assert not (tmp_path / "o").exists()

    def test_requires_exactly_one_mode(self, runner, raw_bundle_dir, tmp_path):
        result = runner.invoke(main, ["unify", str(raw_bundle_dir), str(tmp_path / "o")])
        assert result.exit_code == 1

    def test_missing_bundle_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["unify", str(tmp_path / "nope"), str(tmp_path / "o"), "--induce"]
        )
        assert result.exit_code == 1


@pytest.fixture
def synthetic_bundle(tmp_path, runner):
    out = tmp_path / "bundle"
    result = runner.invoke(
        main,
        [
            "gen-synthetic", "--out", str(out), "--seed", "5",
            "--n-genes", "40", "--n-perts", "6", "--cells-per-condition", "8",
            "--noise-sigma", "0.3",
        ],
    )
    assert result.exit_code == 0, result.output + result.stderr
    return out


class TestSearchCommand:
    def test_landscape_search_writes_artifacts(self, runner, synthetic_bundle, tmp_path):
        out = tmp_path / "run"
        result = runner.invoke(
            main,
            [
                "search", str(synthetic_bundle), "--out", str(out),
                "--evaluator", "landscape:funnel", "--seed", "3",
                "--set", "search.n_sim=16",
            ],
        )
        assert result.exit_code == 0, result.output + result.stderr
        best = json.loads((out / "best_candidate.json").read_text())
        assert best["candidate"].startswith("discriminative/")
        assert (out / "trajectory.jsonl").is_file()
        assert (out / "tree.json").is_file()
        assert _read_manifest(out)["command"] == "search"
        lines = (out / "trajectory.jsonl").read_text().strip().splitlines()
        assert len(lines) == 16

    def test_surrogate_search_appends_kb_entry(self, runner, synthetic_bundle, tmp_path):
        kb = tmp_path / "kb.jsonl"
        result = runner.invoke(
            main,
            [
                "search", str(synthetic_bundle), "--out", str(tmp_path / "run"),
                "--evaluator", "surrogate", "--seed", "2",
                "--set", "search.n_sim=12", "--kb", str(kb),
            ],
        )
        assert result.exit_code == 0, result.output + result.stderr
        listing = runner.invoke(main, ["kb", "list", "--kb", str(kb)])
        rows = json.loads(listing.output)
        assert len(rows) == 1
        assert rows[0]["path"][0].startswith("paradigm:")
        best = json.loads((tmp_path / "run" / "best_candidate.json").read_text())
        assert rows[0]["path"] == best["path"]

    def test_warm_start_used_on_rerun(self, runner, synthetic_bundle, tmp_path):
        kb = tmp_path / "kb.jsonl"
        for i in range(2):
            result = runner.invoke(
                main,
                [
                    "search", str(synthetic_bundle), "--out", str(tmp_path / f"run{i}"),
                    "--evaluator", "surrogate", "--seed", "2",
                    "--set", "search.n_sim=10", "--kb", str(kb),
                ],
            )
            assert result.exit_code == 0, result.output + result.stderr
        retrieval = json.loads((tmp_path / "run1" / "retrieval.json").read_text())
        assert retrieval["mode"] == "warm_start"
        first = json.loads(
            (tmp_path / "run1" / "trajectory.jsonl").read_text().splitlines()[0]
        )
        assert first["path"] == retrieval["epsilon0"]

    def test_flat_and_hierarchical_modes_run(self, runner, synthetic_bundle, tmp_path):
        logs = {}
        for mode in ("hierarchical", "flat"):
            out = tmp_path / mode
            result = runner.invoke(
                main,
                [
                    "search", str(synthetic_bundle), "--out", str(out),
                    "--evaluator", "landscape:ablation", "--mode", mode,
                    "--seed", "0", "--set", "search.n_sim=20",
                ],
            )
            assert result.exit_code == 0, result.output + result.stderr
            logs[mode] = (out / "trajectory.jsonl").read_text()
        assert logs["hierarchical"] != logs["flat"]

    def test_unfixable_failures_exit_4(self, runner, synthetic_bundle, tmp_path):
        result = runner.invoke(
            main,
            [
                "search", str(synthetic_bundle), "--out", str(tmp_path / "run"),
                "--evaluator", "landscape:funnel", "--seed", "1",
                "--set", "search.n_sim=6",
                "--fail-rate", "1.0", "--no-fail-fixable",
            ],
        )
        assert result.exit_code == 4
        assert _stderr_error(result)["error"]["code"] == "no_valid_candidate"

    def test_rerun_without_kb_removes_the_earlier_retrieval(
        self, runner, synthetic_bundle, tmp_path
    ):
        out = tmp_path / "run"
        args = ["search", str(synthetic_bundle), "--out", str(out),
                "--evaluator", "landscape:funnel", "--set", "search.n_sim=6"]
        result = runner.invoke(main, [*args, "--kb", str(tmp_path / "kb.jsonl")])
        assert result.exit_code == 0, result.output + result.stderr
        assert (out / "retrieval.json").is_file()
        result = runner.invoke(main, [*args, "--seed", "1"])
        assert result.exit_code == 0, result.output + result.stderr
        assert "kb" not in _read_manifest(out)["input_digests"]
        assert not (out / "retrieval.json").exists()

    def test_run_without_a_candidate_removes_the_earlier_best(
        self, runner, synthetic_bundle, tmp_path
    ):
        out = tmp_path / "run"
        args = ["search", str(synthetic_bundle), "--out", str(out),
                "--evaluator", "landscape:funnel", "--set", "search.n_sim=6"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output + result.stderr
        assert (out / "best_candidate.json").is_file()
        result = runner.invoke(main, [*args, "--fail-rate", "1", "--no-fail-fixable"])
        assert result.exit_code == 4, result.output + result.stderr
        assert _read_manifest(out)["outcome"]["status"] == "no_valid_candidate"
        assert not (out / "best_candidate.json").exists()

    def test_non_finite_bundle_exits_4(self, runner, synthetic_bundle, tmp_path):
        n_genes = len(read_canonical_bundle(synthetic_bundle).ensembl_id)
        X = np.memmap(synthetic_bundle / "X.f64", dtype="<f8", mode="r+").reshape(-1, n_genes)
        X[-1, 0] = np.nan  # a perturbed cell
        X.flush()
        del X
        result = runner.invoke(
            main,
            [
                "search", str(synthetic_bundle), "--out", str(tmp_path / "run"),
                "--evaluator", "surrogate", "--seed", "1", "--set", "search.n_sim=6",
            ],
        )
        assert result.exit_code == 4, result.output + result.stderr
        assert _stderr_error(result)["error"]["code"] == "no_valid_candidate"
        for line in (tmp_path / "run" / "trajectory.jsonl").read_text().splitlines():
            assert json.loads(line)["failed"].startswith("non-finite input")

    def test_degenerate_split_exits_4(self, runner, synthetic_bundle, tmp_path):
        # one cell line, held out whole: train has no cells
        result = runner.invoke(
            main,
            [
                "search", str(synthetic_bundle), "--out", str(tmp_path / "run"),
                "--evaluator", "surrogate", "--seed", "1", "--set", "search.n_sim=6",
                "--set", "split.kind=unseen_cell",
            ],
        )
        assert result.exit_code == 4, result.output + result.stderr
        assert _stderr_error(result)["error"]["code"] == "no_valid_candidate"
        for line in (tmp_path / "run" / "trajectory.jsonl").read_text().splitlines():
            assert json.loads(line)["failed"].startswith("degenerate split")

    def test_missing_bundle_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main, ["search", str(tmp_path / "ghost"), "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 1


# (options, predictions, report) per case; ``pertpipe evaluate`` must print
# exactly ``json.dumps(report, indent=2)``: these keys in this order, these bits
EVALUATE_PINS = {
    "default_control": (
        [], {"B": [0.4, 2.5, 1.4], "A": [2.1, 1.3, 0.2], "C": [1.5, 1.0, 3.0]},
        {"n_conditions": 3,
         "aggregate": {"rmse": 0.44531128441248885, "delta_pcc": 0.8286123845836403,
                       "cos_logfc": 0.9282685027290422},
         "per_condition": {
             "A": {"rmse": 0.09574271077563377, "delta_pcc": 0.9980079926036591,
                   "cos_logfc": 0.9971471788702646},
             "B": {"rmse": 0.3741657386773941, "delta_pcc": 0.987829161147262,
                   "cos_logfc": 0.9876583293168623},
             "C": {"rmse": 0.8660254037844386, "delta_pcc": 0.4999999999999999,
                   "cos_logfc": 0.7999999999999998}},
         "skipped": {"rmse": [], "delta_pcc": [], "cos_logfc": []}},
    ),
    "named_control": (
        ["--control", "B"], {"A": [2.1, 1.3, 0.2], "control": [1.1, 0.9, 2.2]},
        {"n_conditions": 2,
         "aggregate": {"rmse": 0.1185820335064717, "delta_pcc": 0.9998917080514333,
                       "cos_logfc": 0.9986068684582742},
         "per_condition": {
             "A": {"rmse": 0.09574271077563377, "delta_pcc": 0.9999008674099177,
                   "cos_logfc": 0.9989405556803542},
             "control": {"rmse": 0.14142135623730961, "delta_pcc": 0.9998825486929489,
                         "cos_logfc": 0.9982731812361941}},
         "skipped": {"rmse": [], "delta_pcc": [], "cos_logfc": []}},
    ),
    # A's shift is constant and B's is zero
    "constant_prediction": (
        [], {"A": [1.5, 1.5, 2.5], "B": [1.0, 1.0, 2.0], "C": [0.4, 2.5, 1.4]},
        {"n_conditions": 3,
         "aggregate": {"rmse": 1.4223813394738845, "delta_pcc": -4.578482586627533e-17,
                       "cos_logfc": 0.005591613874742787},
         "per_condition": {
             "A": {"rmse": 1.3768926368215255, "delta_pcc": None,
                   "cos_logfc": -0.06666666666666667},
             "B": {"rmse": 1.3228756555322954, "delta_pcc": None, "cos_logfc": None},
             "C": {"rmse": 1.5673757260678332, "delta_pcc": -4.578482586627533e-17,
                   "cos_logfc": 0.07784989441615224}},
         "skipped": {"rmse": [], "delta_pcc": ["A", "B"], "cos_logfc": ["B"]}},
    ),
    "control_predicted": (
        [], {"control": [1.0, 1.0, 2.0], "A": [2.1, 1.3, 0.2]},
        {"n_conditions": 1,
         "aggregate": {"rmse": 0.09574271077563377, "delta_pcc": 0.9980079926036591,
                       "cos_logfc": 0.9971471788702646},
         "per_condition": {
             "A": {"rmse": 0.09574271077563377, "delta_pcc": 0.9980079926036591,
                   "cos_logfc": 0.9971471788702646}},
         "skipped": {"rmse": [], "delta_pcc": [], "cos_logfc": []}},
    ),
}


def _strict_json(text: str):
    """``json.loads`` that refuses the NaN and Infinity of Python's json."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


class TestEvaluateCommand:
    @pytest.mark.parametrize("case", EVALUATE_PINS)
    def test_report_text_is_pinned(self, runner, tmp_path, case):
        options, predictions, report = EVALUATE_PINS[case]
        ds = small_canonical({"control": [[1.0, 0.5, 2.0], [1.0, 1.5, 2.0]],
                              "A": [[2.0, 1.0, 0.0], [2.5, 1.5, 0.5]],
                              "B": [[0.5, 3.0, 1.0]], "C": [[1.0, 2.0, 4.0]]})
        write_canonical_bundle(ds, tmp_path / "b")
        pred_file = tmp_path / "pred.json"
        pred_file.write_text(json.dumps(predictions))
        result = runner.invoke(main, ["evaluate", str(tmp_path / "b"), str(pred_file), *options])
        assert result.exit_code == 0, result.output + result.stderr
        assert result.stdout == json.dumps(report, indent=2) + "\n"
        assert result.stderr == ""

    def test_huge_predictions_print_strict_json_and_no_warning(self, runner, tmp_path):
        bundle = tmp_path / "b"
        result = runner.invoke(main, [
            "gen-synthetic", "--out", str(bundle), "--n-genes", "3", "--n-perts", "2",
            "--cells-per-condition", "2", "--effect-sparsity", "1", "--seed", "1",
        ])
        assert result.exit_code == 0, result.output + result.stderr
        pred_file = tmp_path / "pred.json"
        pred_file.write_text(json.dumps({"PERT_000": [1e200, -1e200, 3e199]}))
        # a process of its own, so numpy's warnings reach its stderr as they would a user's
        env = {**os.environ, "PYTHONPATH": str(Path(pertpipe.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-m", "pertpipe.cli", "evaluate", str(bundle), str(pred_file)],
            capture_output=True, text=True, env=env,
        )
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""
        report = _strict_json(done.stdout)
        assert report["skipped"] == {"rmse": [], "delta_pcc": [], "cos_logfc": []}
        assert report["per_condition"]["PERT_000"]["rmse"] == pytest.approx(
            1e200 * math.sqrt(2.09 / 3), rel=1e-6
        )

    def test_perfect_predictions(self, runner, tmp_path):
        ds = small_canonical(
            {"control": [[1.0, 1.0, 1.0]], "A": [[2.0, 1.0, 0.5]], "B": [[0.5, 2.0, 1.5]]}
        )
        bundle = tmp_path / "b"
        write_canonical_bundle(ds, bundle)
        profiles = {c: mean.tolist() for c, mean in pseudo_bulk(ds).items()}
        pred_file = tmp_path / "pred.json"
        pred_file.write_text(
            json.dumps({c: v for c, v in profiles.items() if c != "control"})
        )
        result = runner.invoke(main, ["evaluate", str(bundle), str(pred_file)])
        assert result.exit_code == 0, result.output + result.stderr
        report = json.loads(result.output)
        assert report["aggregate"]["rmse"] == 0.0
        assert abs(report["aggregate"]["delta_pcc"] - 1.0) < 1e-12
        assert abs(report["aggregate"]["cos_logfc"] - 1.0) < 1e-12

    def test_hand_computed_reference_triple(self, runner, tmp_path):
        # control mean [1,1,1]; condition truth [2,3,4]; prediction [2,2,4]
        # deltas [1,2,3] vs [1,1,3]
        ds = small_canonical({"control": [[1.0, 1.0, 1.0]], "A": [[2.0, 3.0, 4.0]]})
        bundle = tmp_path / "b"
        write_canonical_bundle(ds, bundle)
        pred_file = tmp_path / "pred.json"
        pred_file.write_text(json.dumps({"A": [2.0, 2.0, 4.0]}))
        result = runner.invoke(main, ["evaluate", str(bundle), str(pred_file)])
        assert result.exit_code == 0
        got = json.loads(result.output)["per_condition"]["A"]
        assert abs(got["rmse"] - 0.57735) < 1e-5
        assert abs(got["delta_pcc"] - 0.86603) < 1e-5
        assert abs(got["cos_logfc"] - 0.96698) < 1e-5

    def test_gene_count_mismatch_exits_2(self, runner, tmp_path):
        ds = small_canonical({"control": [[1.0, 1.0]], "A": [[2.0, 2.0]]})
        bundle = tmp_path / "b"
        write_canonical_bundle(ds, bundle)
        pred_file = tmp_path / "pred.json"
        pred_file.write_text(json.dumps({"A": [1.0, 2.0, 3.0]}))
        result = runner.invoke(main, ["evaluate", str(bundle), str(pred_file)])
        assert result.exit_code == 2
        error = _stderr_error(result)["error"]
        assert error["details"]["expected"] == 2
        assert error["details"]["actual"] == 3


    def test_non_finite_prediction_exits_2(self, runner, tmp_path):
        bundle = tmp_path / "b"
        result = runner.invoke(main, ["gen-synthetic", "--out", str(bundle), "--n-genes", "5"])
        assert result.exit_code == 0, result.output + result.stderr
        pred_file = tmp_path / "pred.json"
        # Python's json reads the NaN literal
        pred_file.write_text(
            '{"PERT_000": [1.0, NaN, 2.0, 0.5, 1.0], "PERT_001": [1.0, 1.5, 2.0, 0.5, 1.0]}'
        )
        result = runner.invoke(main, ["evaluate", str(bundle), str(pred_file)])
        assert result.exit_code == 2, result.output
        assert result.stdout == ""
        error = _stderr_error(result)["error"]
        assert error["code"] == "predictions"
        assert error["message"] == (
            "condition 'PERT_000' has non-finite value nan at gene 1 (1 values)"
        )

    @pytest.mark.parametrize(
        "vector",
        [[1.0, "x", 2.0, 0.5, 1.0], [1.0, [2.0], 2.0, 0.5, 1.0], {"gene": 1.0},
         ["1.0", "2", "3", "0.5", "1"], [True, 2.0, 3.0, 0.5, 1.0], [1.0, None, 2.0, 0.5, 1.0],
         "1.0", 1.0, [10**400, 2.0, 3.0, 0.5, 1.0]],
        ids=["string", "nested_list", "object", "numeric_strings", "bool", "null",
             "bare_string", "bare_number", "int_beyond_float"],
    )
    def test_non_numeric_prediction_exits_2(self, runner, tmp_path, vector):
        bundle = tmp_path / "b"
        result = runner.invoke(main, ["gen-synthetic", "--out", str(bundle), "--n-genes", "5"])
        assert result.exit_code == 0, result.output + result.stderr
        pred_file = tmp_path / "pred.json"
        pred_file.write_text(json.dumps({"PERT_000": vector}))
        result = runner.invoke(main, ["evaluate", str(bundle), str(pred_file)])
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error["code"] == "predictions"
        assert error["message"].startswith("condition 'PERT_000' is not a vector of numbers: ")


class TestCanonicalBundleFormat:
    """A canonical bundle that breaks format 2 exits 2 with a JSON error."""

    @staticmethod
    def _write(path, values, dtype):
        np.array(values, dtype=dtype).tofile(path)

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("format_1", "is canonical bundle format 1, expected format 2"),
            ("decreasing_indptr", "pert_indptr decreases from 2 to 1 at row 1"),
            ("index_equal_to_p", "pert_indices[1] = 2 lies outside [0, 2)"),
            ("duplicate_index", "pert_indices are not strictly increasing in row 2"),
            ("nnz_disagrees", "pert_indices.i64 holds 16 bytes, expected 24"),
        ],
    )
    def test_invalid_bundle_exits_2(self, runner, tmp_path, defect, message):
        # cells control, A, B: indptr [0, 0, 1, 2], indices [0, 1]
        ds = small_canonical(
            {"control": [[1.0, 1.0]], "A": [[2.0, 2.0]], "B": [[0.5, 1.5]]}
        )
        bundle = tmp_path / "b"
        write_canonical_bundle(ds, bundle)
        manifest = json.loads((bundle / "manifest.json").read_text())
        if defect == "format_1":
            del manifest["format"]
        elif defect == "decreasing_indptr":
            self._write(bundle / "pert_indptr.i64", [0, 2, 1, 2], "<i8")
        elif defect == "index_equal_to_p":
            self._write(bundle / "pert_indices.i64", [0, 2], "<i8")
        elif defect == "duplicate_index":
            self._write(bundle / "pert_indptr.i64", [0, 0, 0, 2], "<i8")
            self._write(bundle / "pert_indices.i64", [1, 1], "<i8")
        else:
            manifest["nnz"] = 3
        (bundle / "manifest.json").write_text(json.dumps(manifest))
        result = runner.invoke(main, ["search", str(bundle), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error["code"] == "bundle"
        assert message in error["message"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            ({"pert_vocab": ["PERT_000"] * 6}, "pert_vocab names 'PERT_000' twice"),
            ({"p": 9}, "has p 9, expected the length of pert_vocab, 6"),
        ],
        ids=["vocab_names_one_perturbation_twice", "p_is_not_the_vocab_length"],
    )
    def test_manifest_vocabulary_that_no_writer_produces_exits_2(
        self, runner, synthetic_bundle, tmp_path, edit, message
    ):
        manifest_path = synthetic_bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        assert len(manifest["pert_vocab"]) == manifest["p"] == 6
        manifest.update(edit)
        manifest_path.write_text(json.dumps(manifest))
        result = runner.invoke(main, ["search", str(synthetic_bundle), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error["code"] == "bundle"
        assert message in error["message"]


class TestIncompleteBundles:
    """A bundle missing a file or a manifest key exits 2 naming it, not with a traceback."""

    @pytest.mark.parametrize("command", ["search", "evaluate"])
    @pytest.mark.parametrize(
        "defect, message",
        [
            ("X.f64", "X.f64 is missing"),
            ("pert_indices.i64", "pert_indices.i64 is missing"),
            ("pert_indptr.i64", "pert_indptr.i64 is missing"),
            ("obs.tsv", "obs.tsv is missing"),
            ("n_cells", "has no 'n_cells'"),
            ("n_genes", "has no 'n_genes'"),
            ("pert_vocab", "has no 'pert_vocab'"),
            ("manifest.json not UTF-8", "manifest.json is not valid UTF-8 JSON"),
            ("obs.tsv not UTF-8", "obs.tsv is not UTF-8 text"),
            ("var.tsv not UTF-8", "var.tsv is not UTF-8 text"),
            ("obs.tsv without cell_type", "obs.tsv missing canonical columns: ['cell_type']"),
            ("var.tsv without gene_symbol", "var.tsv missing column 'gene_symbol'"),
            ("manifest.json holding []", "manifest.json is not a JSON object"),
            ("obs.tsv torn", "obs.tsv has 55 rows, expected 56"),
            ("var.tsv torn", "var.tsv has 39 rows, expected 40"),
        ],
    )
    def test_canonical_bundle_exits_2(self, runner, synthetic_bundle, tmp_path,
                                      command, defect, message):
        manifest_path = synthetic_bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if defect.endswith(" not UTF-8"):
            path = synthetic_bundle / defect.removesuffix(" not UTF-8")
            path.write_bytes(path.read_bytes() + b"\xff")
        elif defect.endswith(" torn"):
            _tear_last_row(synthetic_bundle / defect.removesuffix(" torn"))
        elif " without " in defect:
            name, column = defect.split(" without ")
            path = synthetic_bundle / name
            rows = [line.split("\t") for line in path.read_text().splitlines()]
            j = rows[0].index(column)
            path.write_text("".join("\t".join(row[:j] + row[j + 1:]) + "\n" for row in rows))
        elif defect == "manifest.json holding []":
            manifest_path.write_text("[]")
        elif defect in manifest:
            del manifest[defect]
            manifest_path.write_text(json.dumps(manifest))
        else:
            (synthetic_bundle / defect).unlink()
        pred_file = tmp_path / "pred.json"
        pred_file.write_text("{}")
        args = {
            "search": ["search", str(synthetic_bundle), "--out", str(tmp_path / "o")],
            "evaluate": ["evaluate", str(synthetic_bundle), str(pred_file)],
        }[command]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error["code"] == "bundle"
        assert message in error["message"]

    @pytest.mark.parametrize("command", ["search", "unify"])
    def test_deeply_nested_manifest_exits_2(self, runner, synthetic_bundle, raw_bundle_dir,
                                            mapping_file, tmp_path, command):
        out = str(tmp_path / "o")
        bundle, args = {
            "search": (synthetic_bundle, ["search", str(synthetic_bundle), "--out", out]),
            "unify": (raw_bundle_dir,
                      ["unify", str(raw_bundle_dir), out, "--mapping", str(mapping_file)]),
        }[command]
        (bundle / "manifest.json").write_text(_DEEP)
        result = runner.invoke(main, args)
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        assert _stderr_error(result)["error"]["code"] == "bundle"

    @pytest.mark.parametrize(
        "value", ["12", -1, None, ["a"]], ids=["string", "negative", "null", "list"],
    )
    def test_invalid_count_exits_2(self, runner, synthetic_bundle, tmp_path, value):
        manifest_path = synthetic_bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["n_genes"] = value
        manifest_path.write_text(json.dumps(manifest))
        result = runner.invoke(main, ["search", str(synthetic_bundle), "--out", str(tmp_path / "o")])
        assert result.exit_code == 2, result.output
        assert f"has n_genes {value!r}, expected a count" in _stderr_error(result)["error"]["message"]

    @pytest.mark.parametrize(
        "defect, message",
        [
            ("X.f64", "X.f64 is missing"),
            ("obs.tsv", "obs.tsv is missing"),
            ("n_cells", "has no 'n_cells'"),
            ("n_genes", "has no 'n_genes'"),
        ],
    )
    def test_raw_bundle_exits_2(self, runner, raw_bundle_dir, mapping_file, tmp_path,
                                defect, message):
        manifest_path = raw_bundle_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if defect in manifest:
            del manifest[defect]
            manifest_path.write_text(json.dumps(manifest))
        else:
            (raw_bundle_dir / defect).unlink()
        result = runner.invoke(
            main, ["unify", str(raw_bundle_dir), str(tmp_path / "o"), "--mapping", str(mapping_file)]
        )
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error["code"] == "bundle"
        assert message in error["message"]


    @pytest.mark.parametrize("command", ["search", "evaluate", "unify"])
    @pytest.mark.parametrize("name", ["X.f64", "obs.tsv"])
    def test_a_bundle_file_that_is_a_directory_exits_2(
        self, runner, synthetic_bundle, raw_bundle_dir, mapping_file, tmp_path, command, name
    ):
        bundle = raw_bundle_dir if command == "unify" else synthetic_bundle
        (bundle / name).unlink()
        (bundle / name).mkdir()
        predictions = tmp_path / "pred.json"
        predictions.write_text("{}")
        argv = {
            "search": ["search", str(bundle), "--out", str(tmp_path / "o"),
                       "--evaluator", "landscape:funnel"],
            "evaluate": ["evaluate", str(bundle), str(predictions)],
            "unify": ["unify", str(bundle), str(tmp_path / "o"), "--mapping", str(mapping_file)],
        }[command]
        result = runner.invoke(main, argv)
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        assert _stderr_error(result)["error"] == {
            "code": "bundle",
            "message": f"cannot read bundle file {bundle / name}: Is a directory",
        }

    @pytest.mark.parametrize(
        "manifest_edit, message",
        [
            ({"obs_types": ["str"]}, "has obs_types ['str'], expected an object from column"),
            ({"obs_types": {"drug_id": "text"}}, "has obs_types {'drug_id': 'text'}"),
            ({"obs_types": {"drug_id": "float"}},
             "float obs column 'drug_id': cannot cast value 'DMSO' at row 0 to float"),
            ({"obs_types": {"drug_id": "bool"}}, "bool obs column 'drug_id' contains 'DMSO'"),
        ],
        ids=["obs_types_list", "obs_types_unknown_tag", "float_cell_not_a_number",
             "bool_cell_not_a_bool"],
    )
    def test_raw_manifest_types_exit_2(self, runner, raw_bundle_dir, mapping_file, tmp_path,
                                       manifest_edit, message):
        manifest_path = raw_bundle_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest.update(manifest_edit)
        manifest_path.write_text(json.dumps(manifest))
        result = runner.invoke(
            main, ["unify", str(raw_bundle_dir), str(tmp_path / "o"), "--mapping", str(mapping_file)]
        )
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error["code"] == "bundle"
        assert message in error["message"]

    @pytest.mark.parametrize(
        "obsm", [{}, {"emb": 2}, {"../emb": 2}, ["emb"]],
        ids=["empty", "names_a_file", "names_a_path", "malformed"],
    )
    def test_raw_manifest_with_an_obsm_key_unifies_as_without(
        self, runner, raw_bundle_dir, mapping_file, tmp_path, monkeypatch, obsm
    ):
        # raw manifests of earlier writers hold "obsm": {}; the key and any
        # obsm_*.f64 file are ignored
        args = ["unify", str(raw_bundle_dir), str(tmp_path / "plain"), "--mapping",
                str(mapping_file)]
        assert runner.invoke(main, args).exit_code == 0
        plain = bundle_digest(tmp_path / "plain")
        manifest_path = raw_bundle_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["obsm"] = obsm
        manifest_path.write_text(json.dumps(manifest, sort_keys=True, separators=(",", ":")) + "\n")
        digest = bundle_digest(raw_bundle_dir)
        stray = raw_bundle_dir / "obsm_emb.f64"
        stray.write_bytes(bytes(manifest["n_cells"] * 2 * 8))
        assert bundle_digest(raw_bundle_dir) == digest
        opened = []

        def recording(real):
            def wrapper(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)):
                    opened.append(Path(file).resolve())
                return real(file, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(builtins, "open", recording(builtins.open))
        monkeypatch.setattr(io, "open", recording(io.open))
        out = tmp_path / "out"
        result = runner.invoke(main, ["unify", str(raw_bundle_dir), str(out), "--mapping",
                                      str(mapping_file)])
        assert result.exit_code == 0, result.output + result.stderr
        read = [p for p in opened if p.parent != out.resolve()]
        assert bundle_digest(out) == plain
        assert _read_manifest(out)["input_digests"]["raw_bundle"] == digest
        raw = raw_bundle_dir.resolve()
        assert stray.resolve() not in read
        assert [p for p in read if p.parent != raw and p != mapping_file.resolve()] == []


# taken before bundles carried a digest record: with the record, without
# it and in a copy of the directory, every digest and run id stays
_IDENTITY_PINS = {
    "gen-synthetic": {
        "digest": "9959b8b7c4ffdeea88dd7afa6661343e129d5c9ac1d7a0dfd252c38fc7d8de96",
    },
    "unify": {
        "canonical_digest": "f451c5d5d0e5f93c3bb01845845fb1c2a364bf7b486cdd06123912ffc08010d3",
        "run_id": "4e29b9e56e11a0e8",
    },
    "search": {
        "run_id": "66fe81bea554ad4b",
        "input_digests": {
            "bundle": "3f4cf9b902411b4cadf79b031e2a7f4bc561269f6ada382116f0157b021a0892",
            "kb": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            "landscape": "d01593cb151f1d9c5104f88cf7ba954ec03cd787ea2fc4c408b90247b4cc634c",
        },
    },
}


def _record_states(bundle_dir: Path, tmp_path: Path):
    """``bundle_dir`` as written, a ``shutil.copytree`` copy, then itself without its record."""
    copy = tmp_path / f"{bundle_dir.name}_copy"
    shutil.copytree(bundle_dir, copy)
    for state, path in [("recorded", bundle_dir), ("copied", copy)]:
        # the writer's record holds only where the writer left it
        trusted = pertpipe.bundle._recorded_digest(path, pertpipe.bundle._bundle_stats(path))
        assert (trusted is not None) == (state == "recorded"), state
        yield state, path
    (bundle_dir / "bundle_digest.json").unlink()
    yield "unrecorded", bundle_dir


class TestDigestRecordMovesNoIdentity:
    def test_gen_synthetic_digest(self, runner, tmp_path):
        out = tmp_path / "syn"
        result = runner.invoke(main, ["gen-synthetic", "--out", str(out), "--seed", "7",
                                      "--n-genes", "20", "--n-perts", "3",
                                      "--cells-per-condition", "4"])
        assert result.exit_code == 0, result.output + result.stderr
        assert {"digest": json.loads(result.output)["digest"]} == _IDENTITY_PINS["gen-synthetic"]
        for state, path in _record_states(out, tmp_path):
            assert {"digest": bundle_digest(path)} == _IDENTITY_PINS["gen-synthetic"], state

    def test_unify_digest_and_run_id(self, runner, raw_bundle_dir, mapping_file, tmp_path):
        for state, path in _record_states(raw_bundle_dir, tmp_path):
            out = tmp_path / f"unified_{state}"
            result = runner.invoke(main, ["unify", str(path), str(out), "--mapping",
                                          str(mapping_file)])
            assert result.exit_code == 0, result.output + result.stderr
            manifest = _read_manifest(out)
            got = {"canonical_digest": manifest["outcome"]["canonical_digest"],
                   "run_id": manifest["run_id"]}
            assert got == _IDENTITY_PINS["unify"], state

    def test_search_run_id_and_input_digests(self, runner, synthetic_bundle, tmp_path):
        for state, path in _record_states(synthetic_bundle, tmp_path):
            out = tmp_path / f"search_{state}"
            result = runner.invoke(main, [
                "search", str(path), "--out", str(out), "--evaluator", "landscape:funnel",
                "--set", "search.n_sim=8", "--kb", str(tmp_path / f"kb_{state}.jsonl"),
            ])
            assert result.exit_code == 0, result.output + result.stderr
            manifest = _read_manifest(out)
            got = {"run_id": manifest["run_id"], "input_digests": manifest["input_digests"]}
            assert got == _IDENTITY_PINS["search"], state


def test_unify_artifacts_do_not_depend_on_the_hash_seed(raw_bundle_dir, mapping_file, tmp_path):
    # grouping by dict and set must not carry the string hash order into an artifact
    src = str(Path(pertpipe.__file__).parents[1])
    got = []
    for seed in ("0", "1"):
        out = tmp_path / f"unified_{seed}"
        subprocess.run(
            [sys.executable, "-m", "pertpipe.cli", "unify", str(raw_bundle_dir), str(out),
             "--mapping", str(mapping_file)],
            capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        manifest = _read_manifest(out)
        got.append({"canonical_digest": manifest["outcome"]["canonical_digest"],
                    "run_id": manifest["run_id"]})
    assert got == [_IDENTITY_PINS["unify"]] * 2


class TestGenSyntheticAndKb:
    def test_same_seed_same_digest(self, runner, tmp_path):
        digests = []
        for name in ("one", "two"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["gen-synthetic", "--out", str(out), "--seed", "7",
                 "--n-genes", "20", "--n-perts", "3", "--cells-per-condition", "4"],
            )
            assert result.exit_code == 0
            digests.append(json.loads(result.output)["digest"])
        assert digests[0] == digests[1]
        assert (tmp_path / "one" / "ground_truth.json").is_file()

    def test_digest_taken_once_for_manifest_and_output(self, runner, tmp_path, monkeypatch):
        import pertpipe.bundle

        calls = []
        real = pertpipe.bundle.bundle_digest
        monkeypatch.setattr(
            pertpipe.bundle, "bundle_digest", lambda path: calls.append(path) or real(path)
        )
        out = tmp_path / "b"
        result = runner.invoke(main, ["gen-synthetic", "--out", str(out), "--n-genes", "20"])
        assert result.exit_code == 0, result.output + result.stderr
        manifest = _read_manifest(out)
        printed = json.loads(result.output)["digest"]
        assert len(calls) == 1
        assert printed == manifest["outcome"]["bundle_digest"] == real(out)

    def test_kb_add_then_list(self, runner, tmp_path):
        kb = tmp_path / "kb.jsonl"
        result = runner.invoke(
            main,
            ["kb", "add", "--kb", str(kb), "--profile", "demo task",
             "--reward", "0.8",
             "--path", "paradigm:generative,backbone:flow_matching"],
        )
        assert result.exit_code == 0, result.output + result.stderr
        listing = runner.invoke(main, ["kb", "list", "--kb", str(kb)])
        rows = json.loads(listing.output)
        assert rows[0]["reward"] == 0.8
        shown = runner.invoke(main, ["kb", "show", "0", "--kb", str(kb)])
        assert json.loads(shown.output)["profile_text"] == "demo task"

    def test_kb_list_missing_file_is_empty(self, runner, tmp_path):
        result = runner.invoke(main, ["kb", "list", "--kb", str(tmp_path / "none.jsonl")])
        assert result.exit_code == 0
        assert json.loads(result.output) == []

    def test_kb_add_illegal_path_rejected(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["kb", "add", "--kb", str(tmp_path / "kb.jsonl"), "--profile", "x",
             "--reward", "0.5", "--path", "backbone:resnet"],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "command",
        [["search", "{bundle}", "--out", "{out}", "--evaluator", "landscape:funnel",
          "--kb", "{kb}"],
         ["kb", "add", "--kb", "{kb}", "--profile", "p", "--reward", "0.5",
          "--path", "paradigm:generative"]],
        ids=["search", "kb_add"],
    )
    def test_a_failed_kb_append_exits_2(self, runner, synthetic_bundle, tmp_path, monkeypatch,
                                        command):
        kb = tmp_path / "kb.jsonl"

        def full(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fsync", full)
        argv = [a.format(bundle=synthetic_bundle, out=tmp_path / "o", kb=kb) for a in command]
        result = runner.invoke(main, argv)
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error["code"] == "kb"
        assert error["message"] == (
            f"cannot append to knowledge base {kb}: No space left on device"
        )

    def test_a_failed_kb_append_leaves_the_run_directory_as_it_was(
        self, runner, synthetic_bundle, tmp_path, monkeypatch
    ):
        out = tmp_path / "o"
        argv = ["search", str(synthetic_bundle), "--out", str(out), "--evaluator",
                "landscape:funnel"]
        assert runner.invoke(main, argv).exit_code == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}

        def full(fd):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(os, "fsync", full)
        result = runner.invoke(main, [*argv, "--seed", "1", "--kb", str(tmp_path / "kb.jsonl")])
        assert result.exit_code == 2, result.output
        assert _stderr_error(result)["error"]["code"] == "kb"
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_kb_show_on_an_empty_store(self, runner, tmp_path):
        kb = tmp_path / "kb.jsonl"
        result = runner.invoke(main, ["kb", "show", "0", "--kb", str(kb)])
        assert result.exit_code == 1
        assert _stderr_error(result)["error"] == {
            "code": "kb", "message": f"knowledge base {kb} is empty"
        }


class TestKnowledgeBaseFlags:
    def test_flat_mode_records_hierarchy_legal_path(self, runner, tmp_path):
        # on this bundle the flat-mode best path is [paradigm, loss:huber]
        bundle = tmp_path / "bundle"
        result = runner.invoke(
            main,
            ["gen-synthetic", "--out", str(bundle), "--seed", "1", "--noise-sigma", "0.4"],
        )
        assert result.exit_code == 0
        kb, out = tmp_path / "kb.jsonl", tmp_path / "run"
        result = runner.invoke(
            main,
            ["search", str(bundle), "--out", str(out), "--mode", "flat",
             "--seed", "3", "--kb", str(kb)],
        )
        assert result.exit_code == 0, result.output + result.stderr
        best = json.loads((out / "best_candidate.json").read_text())
        (entry,) = KnowledgeBase(kb).load()
        validate_action_path(entry.action_path)
        assert materialize(entry.action_path).key() == best["candidate"]

    def test_out_of_range_kb_reward_exits_2(self, runner, synthetic_bundle, tmp_path):
        kb = tmp_path / "kb.jsonl"
        KnowledgeBase(kb).record(make_entry("x", ("paradigm:generative",), 0.5))
        with open(kb, "a") as fh:
            fh.write(make_entry("y", ("paradigm:generative",), 0.5).to_json()
                     .replace('"reward": 0.5', '"reward": NaN') + "\n")
        result = runner.invoke(
            main, ["search", str(synthetic_bundle), "--out", str(tmp_path / "o"), "--kb", str(kb)]
        )
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error["code"] == "kb"
        assert error["message"] == f"{kb}:3 entry reward nan outside [0, 1]"

    @pytest.mark.parametrize(
        "command",
        [["search", "{bundle}", "--out", "{out}"], ["kb", "list"], ["kb", "show", "0"]],
        ids=["search", "kb_list", "kb_show"],
    )
    def test_torn_kb_line_exits_2(self, runner, synthetic_bundle, tmp_path, command):
        # a newline after the damage: not an append cut short, so not skipped
        kb = tmp_path / "kb.jsonl"
        KnowledgeBase(kb).record(make_entry("x", ("paradigm:generative",), 0.5))
        with open(kb, "a") as fh:
            fh.write('{"torn\n')
        args = [a.format(bundle=synthetic_bundle, out=tmp_path / "o") for a in command]
        result = runner.invoke(main, args + ["--kb", str(kb)])
        assert result.exit_code == 2
        error = _stderr_error(result)["error"]
        assert error["code"] == "kb"
        assert f"{kb}:3 " in error["message"]

    def test_a_bad_store_ends_search_before_any_preparation(
        self, runner, synthetic_bundle, tmp_path, monkeypatch
    ):
        kb = tmp_path / "kb.jsonl"
        KnowledgeBase(kb).record(make_entry("x", ("paradigm:generative",), 0.5))
        with open(kb, "a") as fh:
            fh.write('{"torn\n')
        built = []
        monkeypatch.setattr("pertpipe.evaluators.SurrogateEvaluator", lambda *a: built.append(a))
        result = runner.invoke(
            main, ["search", str(synthetic_bundle), "--out", str(tmp_path / "o"), "--kb", str(kb)]
        )
        assert result.exit_code == 2, result.output
        assert _stderr_error(result)["error"]["code"] == "kb"
        assert built == []


    def test_search_after_a_crash_mid_append(self, runner, synthetic_bundle, tmp_path):
        kb = tmp_path / "kb.jsonl"
        KnowledgeBase(kb).record(make_entry("x", ("paradigm:generative",), 0.5))
        half = make_entry("y", ("paradigm:generative",), 0.5).to_json()
        with open(kb, "a") as fh:
            fh.write(half[: len(half) // 2])  # the crash: half an entry, no newline
        result = runner.invoke(
            main,
            ["search", str(synthetic_bundle), "--out", str(tmp_path / "o"),
             "--set", "search.n_sim=8", "--kb", str(kb)],
        )
        assert result.exit_code == 0, result.output + result.stderr
        data = kb.read_bytes()
        assert data.endswith(b"\n")
        assert all(json.loads(line) for line in data.splitlines())
        assert [e.profile_text for e in KnowledgeBase(kb).load()][0] == "x"
        assert len(KnowledgeBase(kb).load()) == 2

    def test_illegal_stored_path_exits_2(self, runner, synthetic_bundle, tmp_path):
        # a hand edit with the query's own profile, so a load that kept it
        # would warm-start from the illegal path
        profile = _profile_text(
            read_canonical_bundle(synthetic_bundle), resolve_config(None, {}), "surrogate"
        )
        kb = tmp_path / "kb.jsonl"
        KnowledgeBase(kb).record(make_entry("x", ("paradigm:generative",), 0.5))
        doc = {"profile_text": profile, "action_path": ["backbone:resnet", "bogus:action"],
               "reward": 0.9, "created_at": 1.0}
        with open(kb, "a") as fh:
            fh.write(json.dumps(doc) + "\n")
        result = runner.invoke(
            main, ["search", str(synthetic_bundle), "--out", str(tmp_path / "o"), "--kb", str(kb)]
        )
        assert result.exit_code == 2, result.output
        error = _stderr_error(result)["error"]
        assert error["code"] == "kb"
        assert error["message"].startswith(f"{kb}:3 ")
        assert "not legal" in error["message"]

    def test_kb_file_read_once_before_record(self, runner, synthetic_bundle, tmp_path,
                                             monkeypatch):
        kb = tmp_path / "kb.jsonl"
        KnowledgeBase(kb).record(make_entry("x", ("paradigm:generative",), 0.5))
        opened = []

        def counting(real):
            def wrapper(file, *args, **kwargs):
                if isinstance(file, (str, os.PathLike)) and Path(file) == kb:
                    opened.append(file)
                return real(file, *args, **kwargs)
            return wrapper

        monkeypatch.setattr(builtins, "open", counting(builtins.open))
        monkeypatch.setattr(io, "open", counting(io.open))
        at_record = []
        real_record = KnowledgeBase.record
        monkeypatch.setattr(
            KnowledgeBase, "record",
            lambda self, entry: at_record.append(len(opened)) or real_record(self, entry),
        )
        result = runner.invoke(
            main,
            ["search", str(synthetic_bundle), "--out", str(tmp_path / "o"),
             "--set", "search.n_sim=8", "--kb", str(kb)],
        )
        assert result.exit_code == 0, result.output + result.stderr
        assert at_record == [1]

    def test_manifest_kb_digest_is_the_pre_run_sha256(self, runner, synthetic_bundle, tmp_path):
        kb = tmp_path / "kb.jsonl"
        KnowledgeBase(kb).record(make_entry("x", ("paradigm:generative",), 0.5))
        before = hashlib.sha256(kb.read_bytes()).hexdigest()
        out = tmp_path / "o"
        result = runner.invoke(
            main,
            ["search", str(synthetic_bundle), "--out", str(out),
             "--set", "search.n_sim=8", "--kb", str(kb)],
        )
        assert result.exit_code == 0, result.output + result.stderr
        assert hashlib.sha256(kb.read_bytes()).hexdigest() != before  # the run appended
        manifest = _read_manifest(out)
        assert manifest["input_digests"]["kb"] == before


class TestManifests:
    def test_one_version_string(self):
        pyproject = Path(__file__).parents[1] / "pyproject.toml"
        assert pertpipe.__version__ == tomllib.loads(pyproject.read_text())["project"]["version"]
        assert RunManifest("c", {}, {}, 0).tool_version == pertpipe.__version__

    def test_run_id_content_addressed(self, runner, synthetic_bundle, tmp_path):
        ids = []
        for name in ("a", "b"):
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["search", str(synthetic_bundle), "--out", str(out),
                 "--evaluator", "landscape:funnel", "--seed", "3",
                 "--set", "search.n_sim=8"],
            )
            assert result.exit_code == 0
            manifest = _read_manifest(out)
            ids.append(manifest["run_id"])
            assert manifest["input_digests"]["bundle"]
        assert ids[0] == ids[1]

    @pytest.mark.parametrize(
        "base,varied",
        [
            ([], ["--evaluator", "landscape:funnel"]),
            ([], ["--fail-rate", "0.5"]),
            (["--fail-rate", "0.5"], ["--fail-rate", "0.5", "--no-fail-fixable"]),
            ([], ["--kb", "empty"]),
            (["--kb", "empty"], ["--kb", "one_entry"]),
        ],
        ids=["evaluator", "fail_rate", "fail_fixable", "kb", "kb_state"],
    )
    def test_run_id_covers_search_flags(self, runner, synthetic_bundle, tmp_path, base, varied):
        def run_id(name, flags):
            flags = list(flags)
            if "--kb" in flags:  # every run gets a fresh copy of the named store
                i = flags.index("--kb") + 1
                kb = tmp_path / f"{name}.jsonl"
                if flags[i] == "one_entry":
                    entry = make_entry("x", ("paradigm:generative",), 0.5, created_at=0.0)
                    KnowledgeBase(kb).record(entry)
                flags[i] = str(kb)
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["search", str(synthetic_bundle), "--out", str(out), "--seed", "3",
                 "--set", "search.n_sim=8", *flags],
            )
            assert result.exit_code == 0, result.output + result.stderr
            return _read_manifest(out)["run_id"]

        assert run_id("a", base) == run_id("b", base)
        assert run_id("c", varied) != run_id("a", base)

    def test_run_id_covers_landscape_table_content(self, runner, synthetic_bundle, tmp_path):
        table = tmp_path / "table.json"
        ids = []
        for name in ("funnel", "ablation"):
            table.write_bytes(builtin_landscape_path(name).read_bytes())
            out = tmp_path / name
            result = runner.invoke(
                main,
                ["search", str(synthetic_bundle), "--out", str(out),
                 "--evaluator", f"landscape:{table}", "--set", "search.n_sim=8"],
            )
            assert result.exit_code == 0, result.output + result.stderr
            ids.append(_read_manifest(out)["run_id"])
        assert ids[0] != ids[1]

    def test_landscape_digest_is_of_the_table_that_was_scored(
        self, runner, synthetic_bundle, tmp_path, monkeypatch
    ):
        # the table changes on disk right after it is parsed: the manifest
        # names the bytes the search scored, not the ones there afterwards
        table = tmp_path / "table.json"
        scored = builtin_landscape_path("funnel").read_bytes()
        table.write_bytes(scored)
        parse = LandscapeEvaluator.from_file.__func__

        def parse_then_rewrite(cls, path):
            evaluator = parse(cls, path)
            table.write_bytes(builtin_landscape_path("ablation").read_bytes())
            return evaluator

        monkeypatch.setattr(LandscapeEvaluator, "from_file", classmethod(parse_then_rewrite))
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["search", str(synthetic_bundle), "--out", str(out),
             "--evaluator", f"landscape:{table}", "--set", "search.n_sim=8"],
        )
        assert result.exit_code == 0, result.output + result.stderr
        assert table.read_bytes() != scored
        digest = _read_manifest(out)["input_digests"]["landscape"]
        assert digest == hashlib.sha256(scored).hexdigest()

    def test_rerun_from_manifest_reproduces_output(self, runner, synthetic_bundle, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        for out in (out1, out2):
            result = runner.invoke(
                main,
                ["search", str(synthetic_bundle), "--out", str(out),
                 "--evaluator", "surrogate", "--seed", "4",
                 "--set", "search.n_sim=10"],
            )
            assert result.exit_code == 0
        assert (out1 / "trajectory.jsonl").read_text() == (out2 / "trajectory.jsonl").read_text()
        assert (out1 / "best_candidate.json").read_text() == (out2 / "best_candidate.json").read_text()

    def test_config_file_and_overrides(self, runner, synthetic_bundle, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("search.n_sim=5\nsearch.mode=hierarchical  # comment\n")
        out = tmp_path / "out"
        result = runner.invoke(
            main,
            ["search", str(synthetic_bundle), "--out", str(out),
             "--evaluator", "landscape:funnel", "--config", str(config),
             "--set", "search.n_sim=7"],
        )
        assert result.exit_code == 0
        lines = (out / "trajectory.jsonl").read_text().strip().splitlines()
        assert len(lines) == 7  # CLI override beats the file value

    def test_config_defaults_are_pinned(self):
        # run ids hash the resolved config, so a default that moves or changes type moves them
        pinned = {
            "search.c": 1.0,
            "search.alpha_qmix": 0.7,
            "search.uct_epsilon": 1e-6,
            "search.n_sim": 32,
            "search.w_p": 0.8,
            "search.w_e": 0.2,
            "search.wall_clock_budget": 18000.0,
            "search.mode": "hierarchical",
            "retrieval.tau_filter": 0.3,
            "retrieval.m": 3,
            "retrieval.alpha_retrieval": 0.5,
            "retrieval.tau": 0.5,
            "split.kind": "unseen_perturbation",
            "split.train_frac": 0.8,
            "unify.sample_size": 8,
            "unify.combo_delimiter": "+",
            "unify.model": "default-model",
        }
        typed = {key: (value, type(value)) for key, value in CONFIG_DEFAULTS.items()}
        assert typed == {key: (value, type(value)) for key, value in pinned.items()}

    def test_readme_lists_every_config_key_with_its_default(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        rows = re.findall(r"^\| `([a-z_]+\.[a-z_]+)` \| `([^`]*)` \|", readme, re.M)
        assert dict(rows) == {key: str(value) for key, value in CONFIG_DEFAULTS.items()}

    def test_unknown_config_key_rejected(self, runner, synthetic_bundle, tmp_path):
        result = runner.invoke(
            main,
            ["search", str(synthetic_bundle), "--out", str(tmp_path / "o"),
             "--set", "search.bogus=1"],
        )
        assert result.exit_code == 1


_NOT_UTF8 = b'{"a": "\xff"}\n'
_UNIFY_MAPPING = ["unify", "{raw}", "{out}", "--mapping", "{file}"]
_UNIFY_REPLAY = ["unify", "{raw}", "{out}", "--induce", "--llm-transport", "replay",
                 "--replay-file", "{file}"]
_SEARCH_CONFIG = ["search", "{bundle}", "--out", "{out}", "--config", "{file}"]
_SEARCH_LANDSCAPE = ["search", "{bundle}", "--out", "{out}", "--evaluator", "landscape:{file}"]
_SEARCH_KB = ["search", "{bundle}", "--out", "{out}", "--evaluator", "landscape:funnel",
              "--kb", "{file}"]
_KB_LIST = ["kb", "list", "--kb", "{file}"]
_UNDER_A_FILE = "{file}/kb.jsonl"  # a store path whose parent is a regular file
_KB_HEADER = '{"kb_version": 2, "dim": 256}\n'
_EVALUATE = ["evaluate", "{bundle}", "{file}"]
# a reply that induces a valid mapping, so only the config file can fail the run;
# its braces are doubled for the str.format in _invoke_on
_VALID_REPLY = _nested_mapping_response().replace("{", "{{").replace("}", "}}")
_UNIFY_CONFIG = ["unify", "{raw}", "{out}", "--induce", "--llm-transport", "mock",
                 "--mock-response", _VALID_REPLY, "--config", "{file}"]
_DEEP = "[" * 100_000 + "]" * 100_000  # past the recursion limit of json.loads


def _funnel_lacking_a_leaf() -> bytes:
    doc = json.loads(builtin_landscape_path("funnel").read_text())
    del doc["leaves"]["generative/flow_matching/h3/huber"]
    return json.dumps(doc).encode()


def _one_gene_bundle(path: Path) -> None:
    ds, _ = generate_synthetic(SyntheticConfig(1, 4, 6, 0.4, 0.3, seed=0))
    write_canonical_bundle(ds, path)


def _raw_with_a_row_sum_past_float64(path: Path) -> None:
    X = np.ones((2, 3))
    X[1, :2] = 1e308  # finite values whose sum is not
    table = RawTable(obs={"drug_id": np.array(["DMSO", "drugA"], dtype=object)},
                     var_index=np.array(["g0", "g1", "g2"], dtype=object), X=X)
    write_raw_bundle(table, path)
    (path / "mapping.json").write_text(json.dumps({
        "perturbation_type": "drug",
        "perturbation_name": "drug_id",
        "control_status": "df['drug_id'] == 'DMSO'",
    }))


def _raw_with_a_scaled_sum_past_float64(path: Path) -> None:
    # rows 0 and 3 scaled to the largest float sum past it
    table = RawTable(obs={"drug_id": np.array(["DMSO", "drugA", "drugB", "drugA"], dtype=object)},
                     var_index=np.array(["g0", "g1"], dtype=object),
                     X=np.array([[3.0, 0.0], [1.0, 1.0], [2.0, 2.0], [7.0, 0.0]]))
    write_raw_bundle(table, path)
    (path / "mapping.json").write_text(json.dumps({
        **_DRUG_MAPPING, "numerical": {"target_sum": np.finfo(np.float64).max.item()},
    }))


def _tear_last_row(path: Path) -> None:
    path.write_text(path.read_text().removesuffix("\n").rsplit("\n", 1)[0] + "\n")


_DRUG_MAPPING = {
    "perturbation_type": "drug",
    "perturbation_name": "drug_id",
    "control_status": "df['drug_id'] == 'DMSO'",
}


def _four_cell_raw(mapping: dict, torn: str | None = None):
    """A writer of a four-cell raw bundle with ``mapping`` as its mapping.json,
    and with the last row of its file ``torn`` cut off."""
    def write(path: Path) -> None:
        table = RawTable(
            obs={"drug_id": np.array(["DMSO", "drugA", "drugB", "drugA"], dtype=object),
                 "dose": np.array(["0", "10", "10uM", "5"], dtype=object)},
            var_index=np.array(["g0", "g1", "g2"], dtype=object), X=np.ones((4, 3)),
        )
        write_raw_bundle(table, path)
        (path / "mapping.json").write_text(json.dumps(mapping))
        if torn:
            _tear_last_row(path / torn)
    return write


def _mapping(**entries) -> bytes:
    return json.dumps({**_DRUG_MAPPING, **entries}).encode()


def _kb_line(action_path: str) -> bytes:
    return (_KB_HEADER + '{"profile_text": "p", "action_path": ' + action_path
            + ', "reward": 0.5, "created_at": 0.0}\n').encode()


_UNIFY_OWN_MAPPING = ["unify", "{file}", "{out}", "--mapping", "{file}/mapping.json"]

# (outside file as bytes or a function that writes it, command reading it,
# exit code, error code)
OUTSIDE_INPUTS = {
    "tab_in_mapped_value": (
        json.dumps({
            "perturbation_type": "drug",
            "perturbation_name": "drug_id",
            "control_status": "df['drug_id'] == 'DMSO'",
            "condition_name": "df['drug_id'] + '\t'",  # a real tab once JSON is read
        }).encode(),
        _UNIFY_MAPPING, 2, "apply_mapping",
    ),
    "mapping_not_utf8": (_NOT_UTF8, _UNIFY_MAPPING, 2, "mapping_spec"),
    "config_not_utf8": (b"search.n_sim=\xff\n", _SEARCH_CONFIG, 1, "config"),
    "replay_not_utf8": (_NOT_UTF8, _UNIFY_REPLAY, 3, "transport"),
    "predictions_not_utf8": (_NOT_UTF8, _EVALUATE, 2, "predictions"),
    "landscape_without_leaves": (b'{"t_exec": 1}', _SEARCH_LANDSCAPE, 1, "evaluator"),
    "landscape_leaves_not_an_object": (b'{"leaves": []}', _SEARCH_LANDSCAPE, 1, "evaluator"),
    "landscape_lacking_a_leaf": (_funnel_lacking_a_leaf(), _SEARCH_LANDSCAPE, 1, "evaluator"),
    "landscape_not_utf8": (_NOT_UTF8, _SEARCH_LANDSCAPE, 1, "evaluator"),
    "config_n_sim_zero": (b"search.n_sim=0\n", _SEARCH_CONFIG, 1, "config"),
    "config_negative_weight": (b"search.w_p=-1\n", _SEARCH_CONFIG, 1, "config"),
    "config_unknown_mode": (b"search.mode=bogus\n", _SEARCH_CONFIG, 1, "config"),
    "config_negative_uct_epsilon": (b"search.uct_epsilon=-2\n", _SEARCH_CONFIG, 1, "config"),
    "config_not_finite": (b"search.c=nan\n", _SEARCH_CONFIG, 1, "config"),
    "config_top_m_zero": (b"retrieval.m=0\n", _SEARCH_CONFIG, 1, "config"),
    "config_top_m_negative": (b"retrieval.m=-1\n", _SEARCH_CONFIG, 1, "config"),
    "config_train_frac_above_one": (b"split.train_frac=1.5\n", _SEARCH_CONFIG, 1, "config"),
    "config_unknown_split": (b"split.kind=x\n", _SEARCH_CONFIG, 1, "config"),
    "config_empty_combo_delimiter": (b"unify.combo_delimiter=\n", _UNIFY_CONFIG, 1, "config"),
    "config_negative_sample_size": (b"unify.sample_size=-3\n", _UNIFY_CONFIG, 1, "config"),
    "mapping_nested_too_deep": (_DEEP.encode(), _UNIFY_MAPPING, 2, "mapping_spec"),
    "replay_nested_too_deep": (_DEEP.encode(), _UNIFY_REPLAY, 3, "transport"),
    "reply_nested_too_deep": (
        json.dumps(["```json\n" + _DEEP + "\n```"]).encode(), _UNIFY_REPLAY, 3, "llm_response"
    ),
    "predictions_nested_too_deep": (_DEEP.encode(), _EVALUATE, 2, "predictions"),
    "landscape_nested_too_deep": (_DEEP.encode(), _SEARCH_LANDSCAPE, 1, "evaluator"),
    "kb_header_nested_too_deep": ((_DEEP + "\n").encode(), _KB_LIST, 2, "kb"),
    "kb_line_nested_too_deep": (
        ('{"kb_version": 2, "dim": 256}\n' + _DEEP + "\n").encode(), _SEARCH_KB, 2, "kb"
    ),
    "kb_under_a_file_list": (b"", [*_KB_LIST[:-1], _UNDER_A_FILE], 2, "kb"),
    "kb_under_a_file_add": (
        b"", ["kb", "add", "--profile", "p", "--reward", "0.5", "--path", "paradigm:generative",
              "--kb", _UNDER_A_FILE], 2, "kb",
    ),
    "kb_under_a_file_search": (b"", [*_SEARCH_KB[:-1], _UNDER_A_FILE], 2, "kb"),
    "kb_reward_a_bool": (
        (_KB_HEADER + '{"profile_text": "p", "action_path": ["paradigm:generative"], '
         '"reward": true, "created_at": 0.0}\n').encode(), _KB_LIST, 2, "kb"
    ),
    "kb_reward_a_string": (
        (_KB_HEADER + '{"profile_text": "p", "action_path": ["paradigm:generative"], '
         '"reward": "0.5", "created_at": 0.0}\n').encode(), _KB_LIST, 2, "kb"
    ),
    "kb_created_at_nan": (
        (_KB_HEADER + '{"profile_text": "p", "action_path": ["paradigm:generative"], '
         '"reward": 0.5, "created_at": NaN}\n').encode(), _KB_LIST, 2, "kb"
    ),
    "kb_empty_path": (
        (_KB_HEADER + '{"profile_text": "p", "action_path": [], '
         '"reward": 0.5, "created_at": 0.0}\n').encode(), _SEARCH_KB, 2, "kb"
    ),
    "lone_surrogate_in_mapped_value": (
        _mapping(batch_id={"type": "constant", "value": "\ud800"}), _UNIFY_MAPPING,
        2, "apply_mapping",
    ),
    "target_sum_scales_a_row_past_float64": (
        _raw_with_a_scaled_sum_past_float64, _UNIFY_OWN_MAPPING, 2, "apply_mapping",
    ),
    "raw_row_sum_past_float64": (
        _raw_with_a_row_sum_past_float64,
        ["unify", "{file}", "{out}", "--mapping", "{file}/mapping.json"], 2, "apply_mapping",
    ),
    # a shift correlation needs two genes, so no candidate can be scored
    "bundle_with_one_gene": (
        _one_gene_bundle, ["search", "{file}", "--out", "{out}", "--set", "search.n_sim=4"],
        4, "no_valid_candidate",
    ),
    "dose_not_a_number": (
        _four_cell_raw({**_DRUG_MAPPING, "dose_value": "dose"}), _UNIFY_OWN_MAPPING,
        2, "apply_mapping",
    ),
    "gene_symbol_col_not_a_column": (
        _mapping(var={"gene_symbol_col": "nope"}), _UNIFY_MAPPING, 2, "apply_mapping",
    ),
    "control_status_constant_not_a_bool": (
        _mapping(control_status={"type": "constant", "value": "yes"}), _UNIFY_MAPPING,
        2, "apply_mapping",
    ),
    "control_status_unknown_column": (
        _mapping(control_status="df['nope'] == 'x'"), _UNIFY_MAPPING, 2, "apply_mapping",
    ),
    "mapping_a_list": (b"[]", _UNIFY_MAPPING, 2, "mapping_spec"),
    "raw_obs_torn": (_four_cell_raw(_DRUG_MAPPING, "obs.tsv"), _UNIFY_OWN_MAPPING, 2, "bundle"),
    "raw_var_torn": (_four_cell_raw(_DRUG_MAPPING, "var.tsv"), _UNIFY_OWN_MAPPING, 2, "bundle"),
    "kb_path_a_string": (_kb_line('"paradigm:generative"'), _KB_LIST, 2, "kb"),
    "kb_path_holds_a_list": (_kb_line('[["paradigm:generative"]]'), _KB_LIST, 2, "kb"),
}

# the error message of an outside input, with {file} its path
OUTSIDE_MESSAGES = {
    "dose_not_a_number": "pert_dose_source: cannot cast value '10uM' at row 2 to float",
    "gene_symbol_col_not_a_column":
        "gene_symbol_col 'nope' not in var columns; available: ['symbol']",
    "control_status_constant_not_a_bool": "is_control: expected a boolean value, got 'yes'",
    "control_status_unknown_column": "is_control: unknown column 'nope'; available columns: "
                                     "['cell_type_annotation', 'conc_um', 'drug_id']",
    "mapping_a_list": "mapping JSON must be an object",
    "lone_surrogate_in_mapped_value": "tsv cell value is not encodable as UTF-8: '\\ud800'",
    "target_sum_scales_a_row_past_float64":
        "expression row X[0] scaled to target_sum 1.7976931348623157e+308 passes the "
        "float64 range; 2 row(s) cannot be normalized",
    "raw_obs_torn": "{file}/obs.tsv has 3 rows, expected 4",
    "raw_var_torn": "{file}/var.tsv has 2 rows, expected 3",
    "kb_path_a_string": "{file}:2 action_path 'paradigm:generative' is not a list of names",
    "kb_path_holds_a_list":
        "{file}:2 action_path [['paradigm:generative']] is not a list of names",
}


def _invoke_on(runner, argv, contents, raw, bundle, root):
    """Run ``argv`` with ``contents`` as its outside file, written under ``root``."""
    path = root / "input"
    if callable(contents):
        contents(path)
    else:
        path.write_bytes(contents)
    args = [a.format(raw=raw, bundle=bundle, file=path, out=root / "out") for a in argv]
    return runner.invoke(main, args)


class TestOutsideInputs:
    """Bad outside files end with their documented exit code and a JSON error."""

    @pytest.mark.parametrize(
        "contents, argv, exit_code, code", OUTSIDE_INPUTS.values(), ids=OUTSIDE_INPUTS.keys()
    )
    def test_exits_with_json_error(self, runner, raw_bundle_dir, synthetic_bundle, tmp_path,
                                   contents, argv, exit_code, code):
        result = _invoke_on(runner, argv, contents, raw_bundle_dir, synthetic_bundle, tmp_path)
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == exit_code, result.output
        assert _stderr_error(result)["error"]["code"] == code
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("name", OUTSIDE_MESSAGES)
    def test_names_the_fault(self, runner, raw_bundle_dir, synthetic_bundle, tmp_path, name):
        contents, argv, _, _ = OUTSIDE_INPUTS[name]
        result = _invoke_on(runner, argv, contents, raw_bundle_dir, synthetic_bundle, tmp_path)
        message = OUTSIDE_MESSAGES[name].format(file=tmp_path / "input")
        assert _stderr_error(result)["error"]["message"] == message

    def test_refused_mapped_value_keeps_the_previous_bundle(
        self, runner, raw_bundle_dir, mapping_file, tmp_path
    ):
        out = tmp_path / "out"
        args = ["unify", str(raw_bundle_dir), str(out), "--mapping", str(mapping_file)]
        assert runner.invoke(main, args).exit_code == 0
        digest = bundle_digest(out)
        contents, argv, _, _ = OUTSIDE_INPUTS["tab_in_mapped_value"]
        result = _invoke_on(runner, argv, contents, raw_bundle_dir, None, tmp_path)
        assert result.exit_code == 2, result.output
        assert bundle_digest(out) == digest  # the manifest is hashed too
        # the previous run is left whole, its run manifest included
        run = json.loads((out / "run_manifest.json").read_text())
        assert run["outcome"]["canonical_digest"] == digest


_SEARCH = ["search", "{bundle}", "--out", "{out}"]
_GEN_SYNTHETIC = ["gen-synthetic", "--out", "{out}"]

# (command line, exit code, error code or None where click refuses the option
# itself, text the error names)
BAD_OPTIONS = {
    "search_negative_seed": ([*_SEARCH, "--seed", "-1"], 1, "usage", "--seed"),
    "search_landscape_negative_seed": (
        [*_SEARCH, "--evaluator", "landscape:funnel", "--seed", "-1"], 1, "usage", "--seed"
    ),
    "gen_synthetic_negative_seed": ([*_GEN_SYNTHETIC, "--seed", "-1"], 1, "usage", "--seed"),
    "fail_rate_nan": ([*_SEARCH, "--fail-rate", "nan"], 1, "evaluator", "failure_rate"),
    "fail_rate_negative": ([*_SEARCH, "--fail-rate", "-0.5"], 1, "evaluator", "failure_rate"),
    "fail_rate_above_one": ([*_SEARCH, "--fail-rate", "1.5"], 1, "evaluator", "failure_rate"),
    "noise_sigma_nan": (
        [*_GEN_SYNTHETIC, "--noise-sigma", "nan"], 2, "gen_synthetic", "noise_sigma"
    ),
    "noise_sigma_inf": (
        [*_GEN_SYNTHETIC, "--noise-sigma", "inf"], 2, "gen_synthetic", "noise_sigma"
    ),
    "noise_sigma_negative": (
        [*_GEN_SYNTHETIC, "--noise-sigma", "-1"], 2, "gen_synthetic", "noise_sigma"
    ),
    # an output directory under a regular file cannot be made
    "search_out_under_a_file": (
        ["search", "{bundle}", "--out", "{bundle}/manifest.json/run", "--evaluator",
         "landscape:funnel"], 2, "output", "manifest.json/run: Not a directory",
    ),
    "gen_synthetic_out_under_a_file": (
        ["gen-synthetic", "--out", "{bundle}/manifest.json/run"], 2, "output",
        "manifest.json/run: Not a directory",
    ),
    # an empty stored path would gate a search into a warm start that injects nothing
    "kb_add_empty_path": (
        ["kb", "add", "--kb", "{out}/kb.jsonl", "--profile", "p", "--reward", "0.5",
         "--path", ","], 2, "kb", "empty",
    ),
}


class TestBadOptions:
    """Out-of-range options end with their documented exit code and write no manifest."""

    @pytest.mark.parametrize(
        "argv, exit_code, code, named", BAD_OPTIONS.values(), ids=BAD_OPTIONS.keys()
    )
    def test_exits_without_traceback(self, runner, synthetic_bundle, tmp_path,
                                     argv, exit_code, code, named):
        out = tmp_path / "out"
        result = runner.invoke(main, [a.format(bundle=synthetic_bundle, out=out) for a in argv])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == exit_code, result.output
        assert "Traceback" not in result.stderr
        assert named in result.stderr
        if code is not None:
            assert _stderr_error(result)["error"]["code"] == code
        assert not (out / "run_manifest.json").exists()


class TestClickUsageErrors:
    """What click itself refuses ends as a JSON ``usage`` error with exit 1."""

    @pytest.mark.parametrize(
        "argv",
        [["search", "{missing}", "--out", "{out}"],
         ["search", "{bundle}", "--out", "{out}", "--seed", "-3"],
         ["search", "{bundle}", "--out", "{out}", "--no-such-option"],
         ["kb", "show", "-1", "--kb", "{out}/kb.jsonl"]],
        ids=["missing_path", "negative_seed", "unknown_option", "kb_show_negative_index"],
    )
    def test_exits_1_with_json_error(self, runner, synthetic_bundle, tmp_path, argv):
        paths = {"missing": tmp_path / "missing", "bundle": synthetic_bundle,
                 "out": tmp_path / "o"}
        result = runner.invoke(main, [a.format(**paths) for a in argv])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert _stderr_error(result)["error"]["code"] == "usage"

    def test_bare_group_shows_help_then_json_error(self, runner):
        result = runner.invoke(main, ["kb"])
        assert result.exit_code == 1
        assert "Commands:" in result.stderr
        assert _stderr_error(result)["error"] == {"code": "usage", "message": "missing command"}


_INDUCE = ["unify", "{raw}", "{out}", "--induce", "--llm-transport"]

# (command line, exit code, JSON error) of exits that no other test reaches
DOCUMENTED_EXITS = {
    "set_without_equals": (
        [*_SEARCH, "--set", "search.n_sim"], 1,
        {"code": "usage", "message": "--set expects key=value, got 'search.n_sim'"},
    ),
    "replay_without_a_file": (
        [*_INDUCE, "replay"], 3,
        {"code": "transport", "message": "replay transport needs --replay-file"},
    ),
    "mock_without_a_response": (
        [*_INDUCE, "mock"], 3,
        {"code": "transport", "message": "mock transport needs --mock-response"},
    ),
    "predictions_an_array": (
        ["evaluate", "{bundle}", "{array}"], 2,
        {"code": "predictions", "message": "predictions file must map condition -> vector"},
    ),
    "bundle_without_controls": (
        ["evaluate", "{no_controls}", "{empty}"], 2,
        {"code": "predictions", "message": "bundle has no control cells; pass --control"},
    ),
    "control_not_in_the_bundle": (
        ["evaluate", "{bundle}", "{empty}", "--control", "ghost"], 2,
        {"code": "predictions", "message": "control condition 'ghost' not in bundle"},
    ),
    "predicted_condition_not_in_the_bundle": (
        ["evaluate", "{bundle}", "{ghost}"], 2,
        {"code": "evaluate",
         "message": "predicted condition 'ghost' has no matching truth condition"},
    ),
    "kb_show_past_the_end": (
        ["kb", "show", "1", "--kb", "{kb}"], 1,
        {"code": "kb", "message": "index 1 out of range (0..0)"},
    ),
}


class TestDocumentedExits:
    @pytest.mark.parametrize(
        "argv, exit_code, error", DOCUMENTED_EXITS.values(), ids=DOCUMENTED_EXITS.keys()
    )
    def test_exits_with_its_json_error(self, runner, synthetic_bundle, raw_bundle_dir,
                                       tmp_path, argv, exit_code, error):
        paths = {"bundle": synthetic_bundle, "raw": raw_bundle_dir, "out": tmp_path / "out",
                 "no_controls": tmp_path / "no_controls", "kb": tmp_path / "kb.jsonl"}
        n_genes = read_canonical_bundle(synthetic_bundle).n_genes
        for name, doc in [("array", []), ("empty", {}), ("ghost", {"ghost": [0.0] * n_genes})]:
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(doc))
        no_controls = small_canonical({"A": [[1.0, 2.0]], "B": [[2.0, 1.0]]}, control_name="-")
        write_canonical_bundle(no_controls, paths["no_controls"])
        KnowledgeBase(paths["kb"]).record(make_entry("p", ("paradigm:generative",), 0.5))
        result = runner.invoke(main, [a.format(**paths) for a in argv])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == exit_code, result.output
        assert _stderr_error(result)["error"] == error
        assert result.stdout == ""


@pytest.fixture
def cell_free_bundle(runner, tmp_path):
    """A canonical bundle of zero cells, unified from a raw bundle of zero cells."""
    raw = tmp_path / "raw0"
    table = RawTable(obs={"drug_id": np.array([], dtype=object)},
                     var_index=np.array(["g0", "g1"], dtype=object), X=np.zeros((0, 2)))
    write_raw_bundle(table, raw)
    mapping = tmp_path / "mapping0.json"
    mapping.write_text(json.dumps({"perturbation_type": "drug", "perturbation_name": "drug_id",
                                   "control_status": "df['drug_id'] == 'DMSO'"}))
    out = tmp_path / "canon0"
    result = runner.invoke(main, ["unify", str(raw), str(out), "--mapping", str(mapping)])
    assert result.exit_code == 0, result.output + result.stderr
    assert json.loads(result.output)["n_cells"] == 0
    return out


class TestInputsThatRaisedPastTheCli:
    """Inputs that once ended in a traceback end with a JSON error."""

    def test_evaluate_on_a_bundle_without_cells_exits_2(self, runner, cell_free_bundle,
                                                         tmp_path):
        predictions = tmp_path / "pred.json"
        predictions.write_text("{}")
        result = runner.invoke(main, ["evaluate", str(cell_free_bundle), str(predictions)])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        assert _stderr_error(result)["error"] == {
            "code": "evaluate", "message": "cell subset is empty"
        }

    @pytest.mark.parametrize("kind", ["unseen_cell", "unseen_perturbation"])
    def test_search_on_a_bundle_without_cells_exits_1(self, runner, cell_free_bundle,
                                                      tmp_path, kind):
        result = runner.invoke(main, ["search", str(cell_free_bundle), "--out",
                                      str(tmp_path / "run"), "--set", f"split.kind={kind}"])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 1, result.output
        assert _stderr_error(result)["error"]["code"] == "evaluator"
        assert not (tmp_path / "run").exists()

    @pytest.mark.parametrize(
        "argv, code",
        [(["unify", "{raw}", "{out}", "--mapping", "{file}"], "mapping_spec"),
         (["evaluate", "{bundle}", "{file}"], "predictions")],
        ids=["mapping", "predictions"],
    )
    def test_a_file_that_cannot_be_read_exits_2(self, runner, raw_bundle_dir, synthetic_bundle,
                                                tmp_path, monkeypatch, argv, code):
        unreadable = tmp_path / "input.json"
        unreadable.write_text("{}")
        real = Path.read_text

        def denied(path, *args, **kwargs):
            if path == unreadable:
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
            return real(path, *args, **kwargs)

        monkeypatch.setattr(Path, "read_text", denied)
        paths = {"raw": raw_bundle_dir, "bundle": synthetic_bundle, "file": unreadable,
                 "out": tmp_path / "out"}
        result = runner.invoke(main, [a.format(**paths) for a in argv])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 2, result.output
        assert _stderr_error(result)["error"] == {
            "code": code, "message": f"[Errno 13] Permission denied: '{unreadable}'"
        }

    @pytest.mark.parametrize(
        "endpoint, reply, code, message",
        [
            ("llm.invalid/v1", b"", "transport",
             "LLM endpoint request failed: unknown url type: 'llm.invalid/v1'"),
            ("http://llm.invalid/v1", TimeoutError("timed out"), "transport",
             "LLM endpoint request failed: timed out"),
            ("http://llm.invalid/v1", b'{"choices": ["x"]}', "llm_response",
             "no fenced JSON block found in response"),
        ],
        ids=["endpoint_without_scheme", "read_timeout", "choice_not_an_object"],
    )
    def test_a_live_transport_failure_exits_3(self, runner, raw_bundle_dir, tmp_path,
                                              monkeypatch, endpoint, reply, code, message):
        import urllib.request

        def urlopen(request, timeout):
            if isinstance(reply, Exception):
                raise reply
            return io.BytesIO(reply)

        monkeypatch.setattr(urllib.request, "urlopen", urlopen)
        monkeypatch.setenv("HC_LLM_ENDPOINT", endpoint)
        result = runner.invoke(main, ["unify", str(raw_bundle_dir), str(tmp_path / "out"),
                                      "--induce", "--llm-transport", "live"])
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == 3, result.output
        assert _stderr_error(result)["error"] == {"code": code, "message": message}
        assert not (tmp_path / "out").exists()


def _fuzz_bytes(valid: bytes):
    """Random bytes, text with a byte that is never UTF-8, and cut-short valid files."""
    return st.one_of(
        st.binary(max_size=48),
        st.tuples(st.text(max_size=24), st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        .map(lambda parts: parts[0].encode() + parts[1]),
        st.integers(0, len(valid.rstrip()) - 1).map(lambda k: valid[:k]),
    )


# each command still fails if the drawn file happens to be valid
_FUZZED = {
    "mapping": (_UNIFY_MAPPING, json.dumps({"perturbation_name": "drug_id"}).encode()),
    "config": ([*_SEARCH_CONFIG, "--evaluator", "none"], b"search.n_sim=4\nsplit.kind=x\n"),
    "replay": (_UNIFY_REPLAY, json.dumps(["```json\n{}\n```"]).encode()),
    "predictions": ([*_EVALUATE, "--control", "none"], json.dumps({"PERT_000": [0.5]}).encode()),
    "landscape": (_SEARCH_LANDSCAPE, builtin_landscape_path("funnel").read_bytes()),
}


@pytest.fixture(scope="module")
def fuzz_bundles(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    write_raw_bundle(
        RawTable(
            obs={"drug_id": np.array(["DMSO", "drugA"], dtype=object)},
            var_index=np.array(["ENSG00000000001"], dtype=object),
            var_columns={},
            X=np.ones((2, 1)),
        ),
        root / "raw",
    )
    write_canonical_bundle(small_canonical({"control": [[1.0]], "PERT_000": [[2.0]]}),
                           root / "bundle")
    return root


@pytest.mark.parametrize("kind", _FUZZED)
@given(data=st.data())
@settings(max_examples=50, deadline=None)
def test_random_outside_file_ends_in_json_error(fuzz_bundles, kind, data):
    argv, valid = _FUZZED[kind]
    contents = data.draw(_fuzz_bytes(valid), label="contents")
    result = _invoke_on(CliRunner(), argv, contents, fuzz_bundles / "raw",
                        fuzz_bundles / "bundle", fuzz_bundles)
    assert isinstance(result.exception, SystemExit), result.exception
    assert result.exit_code in (1, 2, 3), result.output
    error = json.loads(result.stderr.strip().splitlines()[-1])["error"]
    assert isinstance(error["code"], str) and isinstance(error["message"], str)


# legal and illegal words, small counts, floats near [0, 1] and anywhere, and text
# without decimal digits, so that an integer key never reads a count that stalls the run
_CONFIG_VALUES = st.one_of(
    st.sampled_from(["", "hierarchical", "flat_ablation", "unseen_perturbation", "unseen_cell"]),
    st.integers(-3, 12).map(str),
    st.floats(-0.5, 1.5).map(repr),
    st.floats().map(repr),
    st.text(st.characters(exclude_categories=("Nd", "Cs")), max_size=8),
)


@given(values=st.dictionaries(st.sampled_from(sorted(CONFIG_DEFAULTS)), _CONFIG_VALUES,
                              max_size=3))
@settings(max_examples=120, deadline=None)
def test_random_config_runs_or_ends_in_config_error(fuzz_bundles, values):
    contents = "".join(f"{key}={value}\n" for key, value in values.items()).encode()
    # the store gains an entry with each run, so later runs warm-start and use retrieval.*
    argv = [*_SEARCH_CONFIG, "--evaluator", "landscape:funnel",
            "--kb", str(fuzz_bundles / "kb.jsonl")]
    result = _invoke_on(CliRunner(), argv, contents, None, fuzz_bundles / "bundle", fuzz_bundles)
    if result.exit_code == 0:
        return
    assert isinstance(result.exception, SystemExit), result.exception
    assert "Traceback" not in result.stderr
    error = _stderr_error(result)["error"]
    if result.exit_code == 4:  # a wall-clock budget spent before the first simulation
        assert error["code"] == "no_valid_candidate"
        config = resolve_config(parse_config_file(fuzz_bundles / "input"))
        assert config["search.wall_clock_budget"] < 1
    else:
        assert (result.exit_code, error["code"]) == (1, "config")


# argv of each command that writes a run into an output directory {out}
_WRITER_ARGS = {
    "unify": ["unify", "{raw}", "{out}", "--mapping", "{mapping}"],
    "gen-synthetic": ["gen-synthetic", "--out", "{out}", "--n-genes", "20", "--n-perts", "3",
                      "--cells-per-condition", "4"],
    # with --kb, retrieval.json is among the renames
    "search": ["search", "{bundle}", "--out", "{out}", "--evaluator", "landscape:funnel",
               "--set", "search.n_sim=8", "--kb", "{kb}"],
}


@pytest.fixture
def writer_args(synthetic_bundle, raw_bundle_dir, mapping_file, tmp_path):
    """The argv of ``command`` writing into ``out``, over this test's inputs."""
    inputs = {"bundle": synthetic_bundle, "raw": raw_bundle_dir, "mapping": mapping_file,
              "kb": tmp_path / "kb.jsonl"}
    return lambda command, out: [a.format(out=out, **inputs) for a in _WRITER_ARGS[command]]


def _dir_bytes(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in path.iterdir()}


class TestArtifactWrites:
    @pytest.mark.parametrize(
        "command,artifact",
        [
            ("search", "trajectory.jsonl"),
            ("search", "tree.json"),
            ("search", "retrieval.json"),
            ("search", "best_candidate.json"),
            ("search", "run_manifest.json"),
            ("unify", "validation_report.json"),
            ("gen-synthetic", "ground_truth.json"),
        ],
    )
    def test_failed_write_keeps_the_old_artifact(
        self, runner, writer_args, tmp_path, monkeypatch, command, artifact
    ):
        out = tmp_path / "out"
        args = writer_args(command, out)
        assert runner.invoke(main, args).exit_code == 0
        old = (out / artifact).read_bytes()

        real = Path.write_text

        def torn(path, text, *rest, **kwargs):
            if path.name in (artifact, f".{artifact}.tmp"):
                real(path, text[: len(text) // 2], *rest, **kwargs)
                raise OSError(f"disk full while writing {path.name}")
            return real(path, text, *rest, **kwargs)

        monkeypatch.setattr(Path, "write_text", torn)
        result = runner.invoke(main, args)
        assert isinstance(result.exception, SystemExit), result.exception
        error = _stderr_error(result)["error"]
        assert (result.exit_code, error["code"]) == (2, "output")
        assert error["message"] == f"cannot write {out}: disk full while writing " + (
            f".{artifact}.tmp")
        if (command, artifact) == ("search", "run_manifest.json"):
            # search removes the earlier run's manifest before its first write,
            # so the new artifacts are left without a manifest, not beside the old one
            assert not (out / artifact).exists()
        else:
            assert (out / artifact).read_bytes() == old
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]

    @pytest.mark.parametrize("command", ["unify", "gen-synthetic", "search"])
    def test_crash_at_any_rename_leaves_no_earlier_manifest(
        self, runner, writer_args, tmp_path, monkeypatch, command
    ):
        # the bundle (or the search artifacts) is written before
        # run_manifest.json, so a crash at a rename must not leave the new
        # files beside the earlier run's manifest; a crash at a removal
        # leaves the earlier run whole or no manifest
        out = tmp_path / "out"
        args = writer_args(command, out)
        earlier = [*args, "--set", "unify.sample_size=3"] if command == "unify" else [
            *args, "--seed", "1"]
        real = {"replace": os.replace, "unlink": os.unlink}
        calls = {name: [] for name in real}
        for name, call in real.items():
            monkeypatch.setattr(os, name, lambda *a, n=name, f=call: calls[n].append(a) or f(*a))
        assert runner.invoke(main, args).exit_code == 0
        if command == "search":
            assert "retrieval.json" in [Path(dst).name for _, dst in calls["replace"]]
        assert "run_manifest.json" in [Path(a[0]).name for a in calls["unlink"]]
        for name, k in [(name, k) for name in real for k in range(len(calls[name]))]:
            for restored, call in real.items():
                monkeypatch.setattr(os, restored, call)
            assert runner.invoke(main, earlier).exit_code == 0
            before = _dir_bytes(out)
            assert "run_manifest.json" in before
            seen = iter(range(len(calls[name])))

            def crash(*a):
                if next(seen) == k:
                    raise OSError(f"crash at {name} {k}")
                return real[name](*a)

            monkeypatch.setattr(os, name, crash)
            result = runner.invoke(main, args)
            if name == "replace" and Path(calls[name][k][1]).name == "bundle_digest.json":
                # the digest record is a cache: the run goes on without it
                assert result.exit_code == 0, (name, k, result.output)
                assert not (out / "bundle_digest.json").exists(), (name, k)
                assert (out / "run_manifest.json").exists(), (name, k)
                continue
            assert isinstance(result.exception, SystemExit), (name, k, result.exception)
            assert result.exit_code == 2, (name, k, result.output)
            assert _stderr_error(result)["error"] == {
                "code": "output", "message": f"cannot write {out}: crash at {name} {k}"
            }, (name, k)
            if name == "replace":
                assert not (out / "run_manifest.json").exists(), (name, k)
            elif (out / "run_manifest.json").exists():
                assert _dir_bytes(out) == before, (name, k)

    @pytest.mark.parametrize("first,second", [("gen-synthetic", "unify"),
                                              ("unify", "gen-synthetic")])
    def test_a_run_removes_the_other_commands_sidecar(
        self, runner, writer_args, tmp_path, first, second
    ):
        # unify writes validation_report.json and gen-synthetic ground_truth.json
        # into the same kind of bundle directory
        alone = tmp_path / "alone"
        assert runner.invoke(main, writer_args(second, alone)).exit_code == 0
        out = tmp_path / "out"
        for command in (first, second):
            assert runner.invoke(main, writer_args(command, out)).exit_code == 0
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in alone.iterdir())


def test_no_worker_thread_outlives_a_command(runner, raw_bundle_dir, mapping_file, tmp_path):
    # unify and gen-synthetic split passes over X and hash while writing;
    # search splits the surrogate's preparation over two cores
    synthetic = ["gen-synthetic", "--out", str(tmp_path / "syn"), "--n-genes", "20",
                 "--n-perts", "3", "--cells-per-condition", "4"]
    for args in (
        ["unify", str(raw_bundle_dir), str(tmp_path / "unified"), "--mapping", str(mapping_file)],
        synthetic,
        ["search", str(tmp_path / "syn"), "--out", str(tmp_path / "search"),
         "--evaluator", "surrogate", "--set", "search.n_sim=4"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output + result.stderr
        workers = [
            t.name for t in threading.enumerate()
            if t.name.startswith(("row-half", "bundle-digest"))
        ]
        assert workers == [], args[0]


# each case: what a fresh interpreter runs (a statement, or a command line) and
# the modules it must leave unloaded; only the live LLM transport needs
# urllib.request, which loads http.client and ssl, so no case may load either
_HTTP = ("urllib.request", "http.client")
_SUBMODULES = tuple(sorted(
    f"pertpipe.{p.stem}" for p in Path(pertpipe.__file__).parent.glob("*.py")
    if p.stem != "__init__"
))

# a kb command reads and writes the store alone: no bundle, engine or mapping code
_KB_UNLOADED = ("pertpipe.evaluators", "pertpipe.unifier", "pertpipe.dsl", "pertpipe.search",
                "pertpipe.manifest", "pertpipe.bundle", "pertpipe.data")


@pytest.mark.parametrize(
    "run, unloaded",
    [
        ("import pertpipe.cli", _HTTP),
        ("import pertpipe", _SUBMODULES),
        ("import pertpipe.bundle", ("pertpipe.dsl",)),
        (["search", "{bundle}", "--out", "{out}", "--set", "search.n_sim=4"],
         ("pertpipe.unifier", "pertpipe.dsl", "pertpipe.llm")),
        (["unify", "{raw}", "{out}", "--mapping", "{mapping}"],
         ("pertpipe.evaluators", "pertpipe.metrics", "pertpipe.search", "pertpipe.knowledge",
          "pertpipe.actions")),
        (["kb", "list", "--kb", "{kb}"],
         ("pertpipe.evaluators", "pertpipe.unifier", "pertpipe.dsl")),
        # the settings classes live beside ParameterError, so resolving a config
        # loads neither the engine nor the store
        ("import pertpipe.manifest",
         ("pertpipe.search", "pertpipe.knowledge", "pertpipe.actions")),
        (["kb", "show", "0", "--kb", "{kb}"], _KB_UNLOADED),
        (["kb", "add", "--kb", "{kb}", "--profile", "p", "--reward", "0.5",
          "--path", "paradigm:generative"], _KB_UNLOADED),
    ],
    ids=["cli", "package", "bundle", "search", "unify", "kb_list", "manifest", "kb_show",
         "kb_add"],
)
def test_a_command_loads_only_what_it_runs(
    run, unloaded, synthetic_bundle, raw_bundle_dir, mapping_file, tmp_path
):
    kb = tmp_path / "kb.jsonl"
    KnowledgeBase(kb).record(make_entry("x", ("paradigm:generative",), 0.5))
    if isinstance(run, list):
        paths = {"bundle": synthetic_bundle, "raw": raw_bundle_dir, "mapping": mapping_file,
                 "kb": kb, "out": tmp_path / "o"}
        argv = [arg.format(**paths) for arg in run]
        # not standalone: a command that fails raises SystemExit past main
        run = f"from pertpipe.cli import main\nmain({argv!r}, standalone_mode=False)"
    code = f"import sys\n{run}\nprint(' '.join(sorted(sys.modules)))"
    src = str(Path(pertpipe.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    loaded = set(out.stdout.splitlines()[-1].split())
    assert sorted(loaded & {*unloaded, *_HTTP}) == []


@pytest.mark.parametrize("module", ["pertpipe", *_SUBMODULES])
def test_each_module_imports_alone(module):
    # nothing fixes the load order, so an import cycle fails here
    src = str(Path(pertpipe.__file__).parents[1])
    subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )


def _command_lines(group, prefix=()):
    for name, command in group.commands.items():
        yield [*prefix, name]
        if isinstance(command, click.Group):
            yield from _command_lines(command, (*prefix, name))


@pytest.mark.parametrize("argv", list(_command_lines(main)), ids=" ".join)
def test_every_command_has_help(runner, argv):
    result = runner.invoke(main, [*argv, "--help"])
    assert result.exit_code == 0, result.output
    assert "Usage:" in result.output
