from __future__ import annotations

import json

import numpy as np
import pytest

from pertpipe.data import RawTable, validate_canonical
from pertpipe.errors import LlmReplyError, MappingError, ParameterError, TransportError
from pertpipe.llm import LlmClient
from pertpipe.unifier import (
    Absent,
    Constant,
    Direct,
    Logic,
    MappingSpec,
    apply_mapping,
    build_mapping_messages,
    extract_json_block,
    induce_mapping,
    merge_datasets,
    preview_schema,
    render_preview_text,
)


class TestPreviewSchema:
    def test_first_distinct_sample_rule(self, drug_raw_table):
        preview = preview_schema(drug_raw_table, sample_size=5)
        cols = {c.name: c for c in preview.obs_columns}
        assert cols["drug_id"].samples == ("DMSO", "drugA", "drugB")
        assert cols["conc_um"].samples == ("0", "10", "5")

    def test_sample_size_truncates(self, drug_raw_table):
        preview = preview_schema(drug_raw_table, sample_size=2)
        cols = {c.name: c for c in preview.obs_columns}
        assert cols["drug_id"].samples == ("DMSO", "drugA")

    def test_all_zero_matrix_stats(self):
        table = RawTable(
            obs={"c": np.array(["x", "y"], dtype=object)},
            var_index=np.array(["g"], dtype=object),
            X=np.zeros((2, 1)),
        )
        preview = preview_schema(table, 3)
        assert preview.x_stats == (0.0, 0.0, 0.0)
        assert preview.notes == ()

    def test_raw_counts_note_above_threshold(self, drug_raw_table):
        preview = preview_schema(drug_raw_table, 3)
        assert "likely raw counts" in preview.notes

    def test_no_note_for_log_scale_data(self):
        table = RawTable(
            obs={"c": np.array(["x"], dtype=object)},
            var_index=np.array(["g"], dtype=object),
            X=np.array([[5.0]]),
        )
        assert preview_schema(table, 3).notes == ()

    def test_sample_size_validated(self, drug_raw_table):
        with pytest.raises(ParameterError):
            preview_schema(drug_raw_table, 0)

    def test_render_is_deterministic(self, drug_raw_table):
        a = render_preview_text(preview_schema(drug_raw_table, 4))
        b = render_preview_text(preview_schema(drug_raw_table, 4))
        assert a == b and "drug_id" in a


class TestMappingSpecLoading:
    def test_flat_form_per_key_entries(self, flat_form_mapping):
        spec = MappingSpec.from_dict(flat_form_mapping)
        assert isinstance(spec.pert_dose_source, Logic)
        assert spec.pert_dose_source.expression == "df['conc_um'].astype(float) * 1000"
        assert spec.obs_entries["pert_type"] == Constant("drug")
        assert isinstance(spec.obs_entries["is_control"], Logic)
        assert spec.pert_mask_source == Direct("drug_id")
        # cell_line maps to donor_id and doubles as cell_type when unmapped
        assert spec.obs_entries["donor_id"] == Direct("cell_type_annotation")
        assert spec.obs_entries["cell_type"] == Direct("cell_type_annotation")

    def test_nested_form(self):
        doc = {
            "uscp_mapping": {
                "obs": {
                    "cell_type": "celltype",
                    "batch_id": "unknown",
                    "donor_id": "None",
                    "pert_type": "crispr",
                    "is_control_logic": "df['guide'] == 'ctrl'",
                    "condition_name_logic": "adata.obs['guide'].astype(str)",
                },
                "obsm": {"pert_mask_source": "guide", "pert_dose_source": "None"},
                "var": {"index_type": "Ensembl ID", "gene_symbol_col": "sym"},
                "numerical": {
                    "is_already_log1p": True,
                    "normalization_required": False,
                    "target_sum": 10000.0,
                },
            },
            "data_summary": "guides",
        }
        spec = MappingSpec.from_dict(doc)
        assert spec.obs_entries["cell_type"] == Direct("celltype")
        assert isinstance(spec.obs_entries["batch_id"], Absent)
        assert isinstance(spec.obs_entries["donor_id"], Absent)
        assert spec.is_already_log1p is True
        assert spec.var_index_type == "ensembl"
        assert spec.gene_symbol_col == "sym"
        assert spec.data_summary == "guides"

    def test_missing_obs_block_names_obs(self):
        with pytest.raises(MappingError, match="obs"):
            MappingSpec.from_dict({"uscp_mapping": {"obsm": {}}})

    def test_unrecognizable_document(self):
        with pytest.raises(MappingError):
            MappingSpec.from_dict({"something": 1})

    def test_bad_logic_expression_reports_dsl_error(self):
        doc = dict_flat_with_control("df['a'].apply(f)")
        with pytest.raises(MappingError, match="unsupported construct"):
            MappingSpec.from_dict(doc)

    def test_bad_pert_type_constant_rejected(self):
        doc = {"perturbation_type": "chemogenetic",
               "perturbation_name": {"type": "direct", "source_key": "p"}}
        with pytest.raises(MappingError, match="chemogenetic"):
            MappingSpec.from_dict(doc)

    def test_violations_are_listed_together(self):
        doc = {
            "perturbation_type": "nope",
            "control_status": "df['a'].apply(f)",
            "perturbation_name": {"type": "direct"},
        }
        with pytest.raises(MappingError) as err:
            MappingSpec.from_dict(doc)
        message = str(err.value)
        assert "nope" in message
        assert "unsupported construct" in message
        assert "source_key" in message

    def test_from_json_rejects_non_json(self):
        with pytest.raises(MappingError, match="not valid JSON") as err:
            MappingSpec.from_json("{broken")
        assert not isinstance(err.value, LlmReplyError)

    def test_non_json_reply_is_an_unusable_reply(self):
        with pytest.raises(LlmReplyError, match="not valid JSON"):
            MappingSpec.from_json("{broken", raw_response="```json\n{broken\n```")
        with pytest.raises(LlmReplyError, match="no fenced JSON block"):
            extract_json_block("no mapping here")


def dict_flat_with_control(expr: str) -> dict:
    return {
        "perturbation_name": {"type": "direct", "source_key": "p"},
        "control_status": {"type": "logic", "expression": expr},
    }


class TestInduceMapping:
    def _nested_response(self) -> str:
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
                "obsm": {"pert_mask_source": "drug_id", "pert_dose_source": "conc_um"},
                "var": {"index_type": "Ensembl ID", "gene_symbol_col": "symbol"},
                "numerical": {
                    "is_already_log1p": False,
                    "normalization_required": True,
                    "target_sum": 10000.0,
                },
            },
            "data_summary": "drug response",
        }
        return "Mapping follows.\n```json\n" + json.dumps(doc) + "\n```\n"

    def test_induce_parses_logic_entries(self, drug_raw_table):
        client = LlmClient.mock(self._nested_response())
        spec = induce_mapping(preview_schema(drug_raw_table, 5), client)
        assert isinstance(spec.obs_entries["is_control"], Logic)
        assert spec.obs_entries["is_control"].parsed is not None

    def test_replay_transport_is_deterministic(self, drug_raw_table, tmp_path):
        replay = tmp_path / "responses.json"
        replay.write_text(json.dumps([self._nested_response()] * 2))
        preview = preview_schema(drug_raw_table, 5)
        a = induce_mapping(preview, LlmClient.replay(replay))
        b = induce_mapping(preview, LlmClient.replay(replay))
        assert a == b

    def test_replay_exhaustion(self, drug_raw_table, tmp_path):
        replay = tmp_path / "responses.json"
        replay.write_text(json.dumps([self._nested_response()]))
        client = LlmClient.replay(replay)
        preview = preview_schema(drug_raw_table, 5)
        induce_mapping(preview, client)
        with pytest.raises(TransportError, match="exhausted"):
            induce_mapping(preview, client)

    def test_no_json_block_carries_raw_response(self, drug_raw_table):
        client = LlmClient.mock("Sorry, I cannot help with that.")
        with pytest.raises(MappingError, match="no fenced JSON block") as err:
            induce_mapping(preview_schema(drug_raw_table, 5), client)
        assert err.value.raw_response == "Sorry, I cannot help with that."

    def test_missing_obs_block_error(self, drug_raw_table):
        client = LlmClient.mock("```json\n" + json.dumps({"uscp_mapping": {}}) + "\n```")
        with pytest.raises(MappingError, match="obs"):
            induce_mapping(preview_schema(drug_raw_table, 5), client)

    def test_extract_first_fenced_block(self):
        text = "a\n```json\n{\"x\": 1}\n```\nmore\n```json\n{\"y\": 2}\n```"
        assert json.loads(extract_json_block(text)) == {"x": 1}

    def test_plain_fence_accepted(self):
        assert extract_json_block("```\n{}\n```") == "{}"

    def test_prompt_messages_include_preview(self, drug_raw_table):
        messages = build_mapping_messages(preview_schema(drug_raw_table, 4))
        assert messages[0]["role"] == "system"
        assert "drug_id" in messages[1]["content"]
        assert "uscp_mapping" in messages[0]["content"]


class TestApplyMapping:
    def test_listing_fixture_end_to_end(self, drug_raw_table, flat_form_mapping):
        spec = MappingSpec.from_dict(flat_form_mapping)
        ds = apply_mapping(drug_raw_table, spec)
        assert ds.pert_vocab == ("drugA", "drugB")
        dmso = drug_raw_table.obs["drug_id"] == "DMSO"
        assert np.array_equal(ds.is_control, dmso)
        a = list(ds.pert_vocab).index("drugA")
        for i in np.flatnonzero(drug_raw_table.obs["drug_id"] == "drugA"):
            assert ds.pert_dose[i, a] == 10000.0
        assert validate_canonical(ds).ok

    def test_nan_dose_under_mask_is_rejected(self, drug_raw_table, flat_form_mapping):
        obs = dict(drug_raw_table.obs)
        conc = obs["conc_um"].copy()
        conc[1] = "nan"  # drugA, so its mask bit is set
        obs["conc_um"] = conc
        table = RawTable(obs=obs, var_index=drug_raw_table.var_index,
                         var_columns=drug_raw_table.var_columns, X=drug_raw_table.X)
        with pytest.raises(MappingError, match=r"non_finite.*pert_dose\[1, 0\]"):
            apply_mapping(table, MappingSpec.from_dict(flat_form_mapping))

    def test_absent_donor_defaults_to_unknown(self, drug_raw_table):
        spec = MappingSpec.from_dict(
            {
                "perturbation_name": {"type": "direct", "source_key": "drug_id"},
                "control_status": "df['drug_id'] == 'DMSO'",
            }
        )
        ds = apply_mapping(drug_raw_table, spec)
        assert set(ds.donor_id.tolist()) == {"unknown"}
        assert set(ds.batch_id.tolist()) == {"unknown"}
        assert set(ds.pert_type.tolist()) == {"mixed"}

    def test_combination_perturbation_mask_bits(self):
        table = RawTable(
            obs={
                "pert": np.array(["A+B", "C", "ctrl", "A", "B"], dtype=object),
                "is_ctrl": np.array([False, False, True, False, False]),
            },
            var_index=np.array(["g1", "g2"], dtype=object),
            X=np.ones((5, 2)),
        )
        spec = MappingSpec.from_dict(
            {
                "perturbation_name": {"type": "direct", "source_key": "pert"},
                "control_status": "df['is_ctrl'] == True",
            }
        )
        ds = apply_mapping(table, spec)
        assert ds.pert_vocab == ("A", "B", "C")
        # brute-force expectation over the 5-row fixture
        expected = np.zeros((5, 3), dtype=np.uint8)
        for i, (value, ctrl) in enumerate(
            zip(table.obs["pert"], table.obs["is_ctrl"])
        ):
            if not ctrl:
                for part in str(value).split("+"):
                    expected[i, ("A", "B", "C").index(part)] = 1
        assert np.array_equal(ds.pert_mask, expected)
        assert ds.pert_mask[0].tolist() == [1, 1, 0]

    def test_control_rows_zeroed(self, drug_raw_table, flat_form_mapping):
        ds = apply_mapping(drug_raw_table, MappingSpec.from_dict(flat_form_mapping))
        ctrl = ds.is_control
        assert ds.pert_mask[ctrl].sum() == 0
        assert ds.pert_dose[ctrl].sum() == 0

    def test_missing_source_column_names_it(self, drug_raw_table):
        spec = MappingSpec.from_dict(
            {
                "perturbation_name": {"type": "direct", "source_key": "nonexistent"},
                "control_status": "df['drug_id'] == 'DMSO'",
            }
        )
        with pytest.raises(MappingError, match="nonexistent"):
            apply_mapping(drug_raw_table, spec)

    def test_default_condition_name_uses_mask_source(self, drug_raw_table):
        spec = MappingSpec.from_dict(
            {
                "perturbation_name": {"type": "direct", "source_key": "drug_id"},
                "control_status": "df['drug_id'] == 'DMSO'",
            }
        )
        ds = apply_mapping(drug_raw_table, spec)
        assert set(ds.condition_name.tolist()) == {"DMSO", "drugA", "drugB"}

    def test_duplicate_var_index_rejected_with_report(self, flat_form_mapping):
        table = RawTable(
            obs={
                "drug_id": np.array(["DMSO", "drugA"], dtype=object),
                "conc_um": np.array(["0", "1"], dtype=object),
                "cell_type_annotation": np.array(["A549", "A549"], dtype=object),
            },
            var_index=np.array(["dup", "dup"], dtype=object),
            X=np.ones((2, 2)),
        )
        with pytest.raises(MappingError, match="dup"):
            apply_mapping(table, MappingSpec.from_dict(flat_form_mapping))

    def test_is_control_must_be_boolean(self, drug_raw_table):
        spec = MappingSpec.from_dict(
            {
                "perturbation_name": {"type": "direct", "source_key": "drug_id"},
                "control_status": {"type": "direct", "source_key": "conc_um"},
            }
        )
        with pytest.raises(MappingError, match="boolean"):
            apply_mapping(drug_raw_table, spec)

    def test_pure_function_of_inputs(self, drug_raw_table, flat_form_mapping):
        spec = MappingSpec.from_dict(flat_form_mapping)
        a = apply_mapping(drug_raw_table, spec)
        b = apply_mapping(drug_raw_table, spec)
        assert np.array_equal(a.X, b.X)
        assert a.pert_vocab == b.pert_vocab
        assert np.array_equal(a.pert_dose, b.pert_dose)


def _mini_canonical(genes, vocab, conditions, symbols=None):
    """conditions: list of (condition_name, is_control, mask_bits, x_row)."""
    n = len(conditions)
    mask = np.array([c[2] for c in conditions], dtype=np.uint8)
    from helpers import csr_from_dense
    from pertpipe.data import CanonicalDataset

    return CanonicalDataset(
        cell_type=np.array(["t"] * n, dtype=object),
        batch_id=np.array(["b"] * n, dtype=object),
        donor_id=np.array(["d"] * n, dtype=object),
        pert_type=np.array(
            ["control" if c[1] else "crispr" for c in conditions], dtype=object
        ),
        is_control=np.array([c[1] for c in conditions], dtype=bool),
        condition_name=np.array([c[0] for c in conditions], dtype=object),
        X=np.array([c[3] for c in conditions], dtype=np.float64),
        **csr_from_dense(mask.reshape(n, len(vocab)), np.zeros((n, len(vocab)))),
        ensembl_id=np.array(genes, dtype=object),
        gene_symbol=np.array(symbols or genes, dtype=object),
        pert_vocab=tuple(vocab),
    )


class TestMergeDatasets:
    def test_gene_intersection_in_first_part_order(self):
        part1 = _mini_canonical(
            ["g1", "g2", "g3"], ["A"],
            [("ctrl", True, [0], [1.0, 2.0, 3.0]), ("A", False, [1], [4.0, 5.0, 6.0])],
        )
        part2 = _mini_canonical(
            ["g2", "g3", "g4"], ["A"],
            [("ctrl", True, [0], [1.0, 2.0, 3.0]), ("A", False, [1], [4.0, 5.0, 6.0])],
        )
        merged = merge_datasets([part1, part2]).dataset
        assert merged.ensembl_id.tolist() == ["g2", "g3"]

    def test_vocab_union_and_reindexing(self):
        part1 = _mini_canonical(
            ["g1", "g2"], ["A", "B"],
            [("ctrl", True, [0, 0], [1.0, 1.0]), ("B", False, [0, 1], [2.0, 2.0])],
        )
        part2 = _mini_canonical(
            ["g1", "g2"], ["B", "C"],
            [("ctrl", True, [0, 0], [1.0, 1.0]), ("B", False, [1, 0], [2.0, 2.0])],
        )
        merged = merge_datasets([part1, part2]).dataset
        assert merged.pert_vocab == ("A", "B", "C")
        # part 2's B column lands at union index 1
        assert merged.pert_mask[3].tolist() == [0, 1, 0]

    def test_self_merge_doubles_rows(self):
        part = _mini_canonical(
            ["g1", "g2"], ["A"],
            [("ctrl", True, [0], [1.0, 1.0]), ("A", False, [1], [2.0, 2.0])],
        )
        merged = merge_datasets([part, part]).dataset
        assert merged.n_cells == 2 * part.n_cells
        assert merged.ensembl_id.tolist() == part.ensembl_id.tolist()

    def test_x_submatrix_exact_equality(self):
        rng = np.random.default_rng(2)
        x1 = rng.uniform(0, 4, (3, 3))
        part1 = _mini_canonical(
            ["g1", "g2", "g3"], ["A"],
            [("ctrl", True, [0], x1[0]), ("A", False, [1], x1[1]), ("A", False, [1], x1[2])],
        )
        x2 = rng.uniform(0, 4, (2, 2))
        part2 = _mini_canonical(
            ["g3", "g2"], ["A"],
            [("ctrl", True, [0], x2[0]), ("A", False, [1], x2[1])],
        )
        merged = merge_datasets([part1, part2]).dataset
        assert merged.ensembl_id.tolist() == ["g2", "g3"]
        assert np.array_equal(merged.X[:3], x1[:, [1, 2]])
        assert np.array_equal(merged.X[3:], x2[:, [1, 0]])

    def test_empty_intersection_rejected(self):
        part1 = _mini_canonical(["g1"], ["A"], [("ctrl", True, [0], [1.0]), ("A", False, [1], [2.0])])
        part2 = _mini_canonical(["g9"], ["A"], [("ctrl", True, [0], [1.0]), ("A", False, [1], [2.0])])
        with pytest.raises(ParameterError, match="intersection"):
            merge_datasets([part1, part2])

    def test_needs_two_parts(self):
        part = _mini_canonical(["g1"], ["A"], [("ctrl", True, [0], [1.0]), ("A", False, [1], [2.0])])
        with pytest.raises(ParameterError):
            merge_datasets([part])

    def test_symbol_conflict_warns_first_wins(self):
        part1 = _mini_canonical(
            ["g1"], ["A"], [("ctrl", True, [0], [1.0]), ("A", False, [1], [2.0])],
            symbols=["SYM1"],
        )
        part2 = _mini_canonical(
            ["g1"], ["A"], [("ctrl", True, [0], [1.0]), ("A", False, [1], [2.0])],
            symbols=["OTHER"],
        )
        result = merge_datasets([part1, part2])
        assert result.dataset.gene_symbol.tolist() == ["SYM1"]
        assert any("conflict" in w for w in result.warnings)

    def test_provenance_column_added(self):
        part = _mini_canonical(["g1"], ["A"], [("ctrl", True, [0], [1.0]), ("A", False, [1], [2.0])])
        merged = merge_datasets([part, part]).dataset
        assert merged.extra_obs["source_dataset"].tolist() == [
            "dataset_0", "dataset_0", "dataset_1", "dataset_1",
        ]

    def test_control_name_collision_resolved_first_seen(self):
        part1 = _mini_canonical(["g1"], ["A"], [("ctrl", True, [0], [1.0]), ("A", False, [1], [2.0])])
        part2 = _mini_canonical(["g1"], ["A"], [("DMSO", True, [0], [1.0]), ("A", False, [1], [2.0])])
        result = merge_datasets([part1, part2])
        merged = result.dataset
        assert validate_canonical(merged).ok
        ctrl_names = set(merged.condition_name[merged.is_control].tolist())
        assert ctrl_names == {"ctrl"}
        assert any("renamed" in w for w in result.warnings)


def _screen(rng, labels, controls, genes, doses=None) -> RawTable:
    n = len(labels)
    obs = {"pert": np.array(labels, dtype=object), "ctrl": np.array(controls, dtype=bool)}
    if doses is not None:
        obs["dose"] = np.array(doses, dtype=np.float64)
    return RawTable(
        obs=obs,
        var_index=np.array([f"ENSG{j:011d}" for j in genes], dtype=object),
        X=rng.poisson(5.0, size=(n, len(genes))).astype(np.float64),
    )


def test_pipeline_never_reads_the_dense_views(tmp_path, monkeypatch):
    """Unify, merge, write, read and search at size S without ``pert_mask``/``pert_dose``."""
    from pertpipe.bundle import read_canonical_bundle, write_canonical_bundle
    from pertpipe.data import CanonicalDataset, split_unseen_perturbation
    from pertpipe.evaluators import SurrogateEvaluator, SyntheticConfig, generate_synthetic
    from pertpipe.search import SearchConfig, run_search

    def dense_view(self):
        raise AssertionError("pipeline code read a dense perturbation view")

    monkeypatch.setattr(CanonicalDataset, "pert_mask", property(dense_view))
    monkeypatch.setattr(CanonicalDataset, "pert_dose", property(dense_view))

    # two screens of 108 and 60 cells over 60 genes, 40 of them shared
    rng = np.random.default_rng(0)
    drugs = ["D1+D0", "D0", "D1", "D2", "D3+D2", "D4", "D5", "D6", "D7"]
    drug_labels = [drugs[i % len(drugs)] for i in range(96)] + ["DMSO"] * 12
    drug = _screen(rng, drug_labels, [lab == "DMSO" for lab in drug_labels], range(60),
                   doses=rng.choice([10.0, 100.0], size=108))
    guide_labels = [f"G{i % 4}" for i in range(48)] + ["NT"] * 12
    crispr = _screen(rng, guide_labels, [lab == "NT" for lab in guide_labels], range(20, 80))

    spec = {
        "perturbation_type": "drug",
        "perturbation_name": {"type": "direct", "source_key": "pert"},
        "control_status": {"type": "direct", "source_key": "ctrl"},
    }
    parts = [
        apply_mapping(drug, MappingSpec.from_dict(
            {**spec, "dose_value": {"type": "direct", "source_key": "dose"}})),
        apply_mapping(crispr, MappingSpec.from_dict({**spec, "perturbation_type": "crispr"})),
    ]
    merged = merge_datasets(parts).dataset
    synthetic, _ = generate_synthetic(SyntheticConfig(
        n_genes=60, n_perts=8, cells_per_condition=12, noise_sigma=0.4, effect_sparsity=0.3,
        seed=0,
    ))
    for name, ds in (("merged", merged), ("synthetic", synthetic)):
        write_canonical_bundle(ds, tmp_path / name)
        back = read_canonical_bundle(tmp_path / name)
        split = split_unseen_perturbation(back, train_frac=0.8, seed=0)
        result = run_search(SearchConfig(n_sim=16, seed=0), SurrogateEvaluator(back, split))
        assert result.found_valid, name
