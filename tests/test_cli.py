from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import pertpipe
from helpers import small_canonical
from pertpipe.bundle import (
    bundle_digest,
    read_canonical_bundle,
    write_canonical_bundle,
    write_raw_bundle,
)
from pertpipe.actions import materialize, validate_action_path
from pertpipe.cli import main
from pertpipe.data import pseudo_bulk
from pertpipe.evaluators import builtin_landscape_path
from pertpipe.knowledge import KnowledgeBase, make_entry


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
        assert (out / "run_manifest.json").is_file()

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
        assert (out / "run_manifest.json").is_file()
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
        manifest = json.loads((out / "run_manifest.json").read_text())
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
        kb = tmp_path / "kb.jsonl"
        KnowledgeBase(kb).record(make_entry("x", ("paradigm:generative",), 0.5))
        with open(kb, "a") as fh:
            fh.write('{"torn')
        args = [a.format(bundle=synthetic_bundle, out=tmp_path / "o") for a in command]
        result = runner.invoke(main, args + ["--kb", str(kb)])
        assert result.exit_code == 2
        error = _stderr_error(result)["error"]
        assert error["code"] == "kb"
        assert f"{kb}:3 " in error["message"]


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
            manifest = json.loads((out / "run_manifest.json").read_text())
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
            return json.loads((out / "run_manifest.json").read_text())["run_id"]

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
            ids.append(json.loads((out / "run_manifest.json").read_text())["run_id"])
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

    def test_unknown_config_key_rejected(self, runner, synthetic_bundle, tmp_path):
        result = runner.invoke(
            main,
            ["search", str(synthetic_bundle), "--out", str(tmp_path / "o"),
             "--set", "search.bogus=1"],
        )
        assert result.exit_code == 1


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
