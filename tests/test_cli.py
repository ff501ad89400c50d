from __future__ import annotations

import builtins
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import pertpipe
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
from pertpipe.evaluators import SyntheticConfig, builtin_landscape_path, generate_synthetic
from pertpipe.knowledge import KnowledgeBase, make_entry
from pertpipe.manifest import CONFIG_DEFAULTS, parse_config_file, resolve_config


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


class TestEvaluateCommand:
    def test_perfect_predictions(self, runner, tmp_path):
        ds = small_canonical(
            {"control": [[1.0, 1.0, 1.0]], "A": [[2.0, 1.0, 0.5]], "B": [[0.5, 2.0, 1.5]]}
        )
        bundle = tmp_path / "b"
        write_canonical_bundle(ds, bundle)
        profiles = {p.condition_name: p.mean_expr.tolist() for p in pseudo_bulk(ds)}
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
        ],
    )
    def test_canonical_bundle_exits_2(self, runner, synthetic_bundle, tmp_path,
                                      command, defect, message):
        manifest_path = synthetic_bundle / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        if defect.endswith(" not UTF-8"):
            path = synthetic_bundle / defect.removesuffix(" not UTF-8")
            path.write_bytes(path.read_bytes() + b"\xff")
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


    @pytest.mark.parametrize(
        "manifest_edit, message",
        [
            ({"obsm": {"emb": "two"}}, "has obsm {'emb': 'two'}, expected an object from name"),
            ({"obsm": ["emb"]}, "has obsm ['emb'], expected an object from name"),
            ({"obsm": {"emb": -1}}, "has obsm {'emb': -1}, expected an object from name"),
            ({"obs_types": ["str"]}, "has obs_types ['str'], expected an object from column"),
            ({"obs_types": {"drug_id": "text"}}, "has obs_types {'drug_id': 'text'}"),
            ({"obs_types": {"drug_id": "float"}},
             "float obs column 'drug_id': cannot cast value 'DMSO' at row 0 to float"),
            ({"obs_types": {"drug_id": "bool"}}, "bool obs column 'drug_id' contains 'DMSO'"),
        ],
        ids=["obsm_width_string", "obsm_list", "obsm_negative", "obs_types_list",
             "obs_types_unknown_tag", "float_cell_not_a_number", "bool_cell_not_a_bool"],
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
    # a shift correlation needs two genes, so no candidate can be scored
    "bundle_with_one_gene": (
        _one_gene_bundle, ["search", "{file}", "--out", "{out}", "--set", "search.n_sim=4"],
        4, "no_valid_candidate",
    ),
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


_SEARCH = ["search", "{bundle}", "--out", "{out}"]
_GEN_SYNTHETIC = ["gen-synthetic", "--out", "{out}"]

# (command line, exit code, error code or None where click refuses the option
# itself, text the error names)
BAD_OPTIONS = {
    "search_negative_seed": ([*_SEARCH, "--seed", "-1"], 1, None, "--seed"),
    "search_landscape_negative_seed": (
        [*_SEARCH, "--evaluator", "landscape:funnel", "--seed", "-1"], 1, None, "--seed"
    ),
    "gen_synthetic_negative_seed": ([*_GEN_SYNTHETIC, "--seed", "-1"], 1, None, "--seed"),
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
        self, runner, synthetic_bundle, raw_bundle_dir, mapping_file, tmp_path, monkeypatch,
        command, artifact,
    ):
        out = tmp_path / "out"
        args = {
            "search": ["search", str(synthetic_bundle), "--out", str(out),
                       "--evaluator", "landscape:funnel", "--set", "search.n_sim=8",
                       "--kb", str(tmp_path / "kb.jsonl")],
            "unify": ["unify", str(raw_bundle_dir), str(out), "--mapping", str(mapping_file)],
            "gen-synthetic": ["gen-synthetic", "--out", str(out), "--n-genes", "20",
                              "--n-perts", "3", "--cells-per-condition", "4"],
        }[command]
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
        assert isinstance(result.exception, OSError)
        assert (out / artifact).read_bytes() == old
        assert not [p.name for p in out.iterdir() if p.name.endswith(".tmp")]


def test_import_leaves_the_http_client_unloaded():
    # only the live LLM transport needs urllib.request, which loads http.client and ssl
    src = str(Path(pertpipe.__file__).parents[1])
    code = (
        "import sys, pertpipe.cli; "
        "print(sorted({'urllib.request', 'http.client'} & sys.modules.keys()))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, env={**os.environ, "PYTHONPATH": src},
    )
    assert out.stdout.strip() == "[]"
