from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from pertpipe import data, dsl
from pertpipe.bundle import bundle_digest, write_canonical_bundle
from pertpipe.data import RawTable, validate_canonical
from pertpipe.errors import LlmReplyError, MappingError, ParameterError, TransportError
from pertpipe.llm import LlmClient
from pertpipe.unifier import (
    MappingSpec,
    apply_mapping,
    build_mapping_messages,
    extract_json_block,
    induce_mapping,
    merge_datasets,
    preview_schema,
)


class TestPreviewSchema:
    def test_first_distinct_sample_rule(self, drug_raw_table):
        lines = preview_schema(drug_raw_table, sample_size=5).splitlines()
        assert "  - drug_id (str): ['DMSO', 'drugA', 'drugB']" in lines
        assert "  - conc_um (str): ['0', '10', '5']" in lines

    def test_sample_size_truncates(self, drug_raw_table):
        lines = preview_schema(drug_raw_table, sample_size=2).splitlines()
        assert "  - drug_id (str): ['DMSO', 'drugA']" in lines

    def test_all_zero_matrix_stats(self):
        table = RawTable(
            obs={"c": np.array(["x", "y"], dtype=object)},
            var_index=np.array(["g"], dtype=object),
            X=np.zeros((2, 1)),
        )
        preview = preview_schema(table, 3)
        assert "expression stats: min=0 max=0 mean=0" in preview.splitlines()
        assert "note:" not in preview

    def test_raw_counts_note_above_threshold(self, drug_raw_table):
        assert "note: likely raw counts" in preview_schema(drug_raw_table, 3).splitlines()

    def test_no_note_for_log_scale_data(self):
        table = RawTable(
            obs={"c": np.array(["x"], dtype=object)},
            var_index=np.array(["g"], dtype=object),
            X=np.array([[5.0]]),
        )
        assert "note:" not in preview_schema(table, 3)

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_stats_of_one_call_each(self, row):
        # min and max are taken over two halves of the rows; a NaN in either
        # half, or a one-row matrix with an empty first half, prints as one
        # call over the whole matrix does
        X = np.arange(10.0).reshape(5, 2)
        X[row, 1] = np.nan
        for x in (X, X[:1], X[3:4] * 200.0):
            table = RawTable(obs={"c": np.array(["x"] * len(x), dtype=object)},
                             var_index=np.array(["g1", "g2"], dtype=object), X=x)
            want = "expression stats: min={:.6g} max={:.6g} mean={:.6g}".format(
                float(x.min()), float(x.max()), float(x.mean()))
            assert want in preview_schema(table, 3).splitlines()

    def test_sample_size_validated(self, drug_raw_table):
        with pytest.raises(ParameterError):
            preview_schema(drug_raw_table, 0)

    def test_prompt_text_pinned(self, drug_raw_table):
        """The user prompt, byte for byte, for a small table and a zero-cell one."""
        empty = RawTable(
            obs={
                "drug_id": np.array([], dtype=object),
                "dose": np.array([], dtype=np.float64),
            },
            var_index=np.array(["ENSG1", "ENSG2"], dtype=object),
            X=np.zeros((0, 2)),
        )
        head = (
            "Data audit preview (original column names, inferred types, sampled values,\n"
            "and expression statistics):\n\n"
        )
        tail = (
            "\n\nProduce the canonical mapping JSON for this dataset now. Remember: exactly\n"
            'one ```json code block, use "None" for fields with no corresponding column,\n'
            "and keep every expression inside the allowed operation set.\n"
        )
        drug = (
            "cells: 12\n"
            "genes: 6\n"
            "expression stats: min=0.588982 max=78.0498 mean=40.8893\n"
            "note: likely raw counts\n"
            "obs columns:\n"
            "  - drug_id (str): ['DMSO', 'drugA']\n"
            "  - conc_um (str): ['0', '10']\n"
            "  - cell_type_annotation (str): ['A549']\n"
            "var index samples: 'ENSG00000000000', 'ENSG00000000001'"
        )
        zero = (
            "cells: 0\n"
            "genes: 2\n"
            "expression stats: min=0 max=0 mean=0\n"
            "obs columns:\n"
            "  - drug_id (str): []\n"
            "  - dose (float): []\n"
            "var index samples: 'ENSG1', 'ENSG2'"
        )
        for table, preview in ((drug_raw_table, drug), (empty, zero)):
            messages = build_mapping_messages(preview_schema(table, 2))
            assert messages[1]["content"] == head + preview + tail

    def test_preview_is_deterministic(self, drug_raw_table):
        a = preview_schema(drug_raw_table, 4)
        assert a == preview_schema(drug_raw_table, 4) and "drug_id" in a


class TestMappingSpecLoading:
    def test_flat_form_per_key_entries(self, flat_form_mapping):
        spec = MappingSpec.from_dict(flat_form_mapping)
        assert spec.entries["pert_dose_source"] == dsl.parse("df['conc_um'].astype(float) * 1000")
        assert spec.entries["pert_type"] == dsl.StrLit("drug")
        assert spec.entries["is_control"] == dsl.parse("df['drug_id'] == 'DMSO'")
        assert spec.entries["pert_mask_source"] == dsl.ColumnRef("drug_id")
        # cell_line maps to donor_id and doubles as cell_type when unmapped
        assert spec.entries["donor_id"] == dsl.ColumnRef("cell_type_annotation")
        assert spec.entries["cell_type"] == dsl.ColumnRef("cell_type_annotation")

    @pytest.mark.parametrize(
        "absent", ["None", "", "unknown", None], ids=["None", "empty", "unknown", "null"]
    )
    def test_absent_cell_line_keeps_the_donor(self, absent):
        spec = MappingSpec.from_dict(
            {"perturbation_name": "drug", "donor_id": "donor", "cell_line": absent}
        )
        assert spec.entries["donor_id"] == dsl.ColumnRef("donor")
        assert spec.entries["cell_type"] is None

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
        assert spec.entries["cell_type"] == dsl.ColumnRef("celltype")
        assert spec.entries["batch_id"] is None
        assert spec.entries["donor_id"] is None
        assert spec.entries["is_control"] == dsl.parse("df['guide'] == 'ctrl'")
        assert spec.entries["condition_name"] == dsl.parse("df['guide'].astype(str)")
        assert spec.entries["pert_dose_source"] is None
        assert spec.is_already_log1p is True
        assert spec.gene_symbol_col == "sym"

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

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"numerical": {"is_already_log1p": "false"}},
             "numerical.is_already_log1p must be true or false, got 'false'"),
            ({"numerical": {"normalization_required": "false"}},
             "numerical.normalization_required must be true or false, got 'false'"),
            ({"numerical": {"is_already_log1p": 1}},
             "numerical.is_already_log1p must be true or false, got 1"),
            ({"numerical": {"target_sum": float("nan")}},
             "numerical.target_sum must be a finite positive number, got nan"),
            ({"numerical": {"target_sum": "inf"}},
             "numerical.target_sum must be a finite positive number, got 'inf'"),
            ({"numerical": {"target_sum": "10000"}},
             "numerical.target_sum must be a finite positive number, got '10000'"),
            ({"numerical": {"target_sum": True}},
             "numerical.target_sum must be a finite positive number, got True"),
            ({"numerical": {"target_sum": 10**400}},
             "numerical.target_sum must be a finite positive number, got 1000"),
            ({"numerical": {"target_sum": 0}},
             "numerical.target_sum must be a finite positive number, got 0"),
            ({"numerical": [1]}, "'numerical' block must be an object"),
            ({"var": ["x"]}, "'var' block must be an object"),
            ({"var": {"gene_symbol_col": ["x"]}},
             "var.gene_symbol_col ['x'] is not a column name"),
            ({"var": {"index_type": "Entrez ID"}}, "var.index_type 'Entrez ID' not recognized"),
        ],
        ids=["log1p_string", "normalization_string", "log1p_int", "target_nan",
             "target_inf_string", "target_numeric_string", "target_bool", "target_huge_int",
             "target_zero", "numerical_list", "var_list", "symbol_col_list",
             "index_type_unknown"],
    )
    @pytest.mark.parametrize("form", ["flat", "nested"])
    def test_numerical_and_var_blocks_are_typed(self, flat_form_mapping, extra, message, form):
        if form == "flat":
            doc = {**flat_form_mapping, **extra}
        else:
            doc = {"uscp_mapping": {"obs": {"pert_type": "drug"}, **extra}}
        with pytest.raises(MappingError) as err:
            MappingSpec.from_dict(doc)
        assert message in str(err.value)

    def test_numerical_block_values_are_kept(self, flat_form_mapping):
        doc = {
            **flat_form_mapping,
            "numerical": {
                "is_already_log1p": True, "normalization_required": False, "target_sum": 500,
            },
        }
        spec = MappingSpec.from_dict(doc)
        assert (spec.is_already_log1p, spec.normalization_required) == (True, False)
        assert spec.target_sum == 500.0 and type(spec.target_sum) is float

    def test_both_forms_load_equal_specs(self):
        flat = {
            "perturbation_type": "drug",
            "perturbation_name": "drug_id",
            "dose_value": {"type": "logic", "expression": "df['conc_um'].astype(float)"},
            "cell_type": "cell_type_annotation",
            "donor_id": {"type": "constant", "value": "d1"},
            "control_status": "df['drug_id'] == 'DMSO'",
            "condition_name": "",
            "var": {"index_type": "Gene Symbol"},
            "numerical": {"normalization_required": False},
        }
        nested = {
            "uscp_mapping": {
                "obs": {
                    "cell_type": "cell_type_annotation",
                    "donor_id": {"type": "constant", "value": "d1"},
                    "pert_type": "drug",
                    "is_control_logic": "df['drug_id'] == 'DMSO'",
                    "condition_name_logic": "",
                },
                "obsm": {
                    "pert_mask_source": "drug_id",
                    "pert_dose_source": {
                        "type": "logic", "expression": "df['conc_um'].astype(float)",
                    },
                },
                "var": {"index_type": "Gene Symbol"},
                "numerical": {"normalization_required": False},
            }
        }
        assert MappingSpec.from_dict(flat) == MappingSpec.from_dict(nested)

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"perturbation_name": {"type": "constant"}},
             "perturbation_name: constant entry missing value"),
            ({"perturbation_name": {"type": "logic"}},
             "perturbation_name: logic entry missing expression"),
            ({"perturbation_name": 42}, "perturbation_name: cannot interpret entry 42"),
            ({"uscp_mapping": ["obs"]}, "uscp_mapping must be an object"),
        ],
        ids=["constant_without_value", "logic_without_expression", "bare_number",
             "nested_body_a_list"],
    )
    def test_malformed_entries_are_violations(self, doc, message):
        with pytest.raises(MappingError) as err:
            MappingSpec.from_dict(doc)
        assert f"- {message}\n" in str(err.value) + "\n"

    @pytest.mark.parametrize(
        "doc, message",
        [
            ({"perturbation_type": "drug", "pert_type": "crispr"},
             "pert_type: perturbation_type and pert_type give different entries"),
            ({"is_control": "df['a'] == 'b'", "control_status": "df['a'] == 'c'"},
             "is_control: is_control and control_status give different entries"),
            ({"obs": {"is_control_logic": "df['a'] == 'b'", "is_control": "df['a'] == 'c'"}},
             "is_control: obs.is_control_logic and obs.is_control give different entries"),
        ],
        ids=["flat_pert_type", "flat_is_control", "nested_is_control"],
    )
    def test_two_keys_for_one_target_must_agree(self, doc, message):
        with pytest.raises(MappingError) as err:
            MappingSpec.from_dict(doc)
        assert f"- {message}\n" in str(err.value) + "\n"

    @pytest.mark.parametrize(
        "doc, target, entry",
        [
            ({"perturbation_type": "drug", "pert_type": {"type": "constant", "value": "drug"}},
             "pert_type", dsl.StrLit("drug")),
            ({"control_status": "None", "is_control": "df['a'] == 'b'"},
             "is_control", dsl.parse("df['a'] == 'b'")),
            ({"is_control": "df['a'] == 'b'", "control_status": None},
             "is_control", dsl.parse("df['a'] == 'b'")),
            ({"obs": {"is_control_logic": "None", "is_control": "df['a'] == 'b'"}},
             "is_control", dsl.parse("df['a'] == 'b'")),
        ],
        ids=["equal_entries", "absent_first", "absent_second", "nested_absent_logic"],
    )
    def test_two_keys_that_agree_bind_one_entry(self, doc, target, entry):
        assert MappingSpec.from_dict(doc).entries[target] == entry

    @pytest.mark.parametrize(
        "target, value, entry",
        [
            ("batch_id", 3, dsl.StrLit("3")),
            ("batch_id", 1.5, dsl.StrLit("1.5")),
            ("batch_id", True, dsl.StrLit("True")),
            ("batch_id", None, dsl.StrLit("None")),
            ("batch_id", [1, "a"], dsl.StrLit("[1, 'a']")),
            ("batch_id", "a\x00", dsl.StrLit("a\x00")),
            ("control_status", "yes", dsl.StrLit("yes")),
            ("control_status", True, dsl.BoolLit(True)),
            ("control_status", 1, dsl.NumLit(1.0)),
            ("dose_value", 250, dsl.NumLit(250.0)),
            ("dose_value", "2.5", dsl.StrLit("2.5")),
        ],
    )
    def test_a_constant_loads_as_a_literal(self, target, value, entry):
        doc = {"perturbation_type": "drug", target: {"type": "constant", "value": value}}
        key = {"control_status": "is_control", "dose_value": "pert_dose_source"}.get(target, target)
        assert MappingSpec.from_dict(doc).entries[key] == entry

    @pytest.mark.parametrize(
        "target, value, message",
        [
            ("control_status", None, "constant None is not a string, a boolean or a number"),
            ("dose_value", [1], "constant [1] is not a string, a boolean or a number"),
            ("dose_value", {"a": 1}, "constant {'a': 1} is not a string, a boolean or a number"),
            ("dose_value", 10**400, f"constant {10**400} is past the float range"),
            ("perturbation_type", "drugs",
             "pert_type constant 'drugs' not in ['drug', 'crispr', 'mixed', 'control']"),
        ],
        ids=["null", "array", "object", "past_the_float_range", "unknown_pert_type"],
    )
    def test_a_constant_of_no_literal_is_a_violation(self, target, value, message):
        with pytest.raises(MappingError) as err:
            MappingSpec.from_dict({target: {"type": "constant", "value": value}})
        assert message in str(err.value)

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
        assert spec.entries["is_control"] == dsl.parse("df['drug_id'] == 'DMSO'")

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
    @pytest.mark.parametrize(
        "key, constant, expression",
        [("perturbation_type", "drug", "'drug'"), ("control_status", False, "False"),
         ("dose_value", 250, "250")],
    )
    def test_a_constant_is_its_logic_literal(self, drug_raw_table, tmp_path, key, constant,
                                              expression):
        digests = []
        for i, entry in enumerate([{"type": "constant", "value": constant},
                                   {"type": "logic", "expression": expression}]):
            doc = {"perturbation_type": "drug", "perturbation_name": "drug_id",
                   "control_status": "df['drug_id'] == 'DMSO'", key: entry}
            write_canonical_bundle(apply_mapping(drug_raw_table, MappingSpec.from_dict(doc)),
                                   tmp_path / str(i))
            digests.append(bundle_digest(tmp_path / str(i)))
        assert digests[0] == digests[1]

    @pytest.mark.parametrize(
        "entry, error",
        [({"type": "constant", "value": True}, None), ("df['ctrl']", None),
         ({"type": "constant", "value": "yes"}, "an empty str column"),
         ({"type": "direct", "source_key": "drug_id"}, "an empty str column"),
         ({"type": "constant", "value": 1}, "an empty float column")],
        ids=["bool_constant", "bool_column", "str_constant", "str_column", "number_constant"],
    )
    def test_is_control_of_a_zero_cell_table(self, entry, error):
        table = RawTable(
            obs={"drug_id": np.array([], dtype=object), "ctrl": np.array([], dtype=bool)},
            var_index=np.array(["g0", "g1"], dtype=object), X=np.zeros((0, 2)),
        )
        spec = MappingSpec.from_dict({"perturbation_name": "drug_id", "control_status": entry})
        if error is None:
            assert apply_mapping(table, spec).n_cells == 0
        else:
            with pytest.raises(MappingError) as err:
                apply_mapping(table, spec)
            assert str(err.value) == f"is_control: expected a boolean value, got {error}"

    @pytest.mark.parametrize("form", ["nested", "flat"])
    def test_the_documented_examples_apply(self, drug_raw_table, form):
        doc = (Path(__file__).parents[1] / "docs" / "mapping-spec.md").read_text()
        nested, flat = re.findall(r"```json\n(.*?)```", doc, re.DOTALL)
        spec = MappingSpec.from_json(nested if form == "nested" else flat)
        ds = apply_mapping(drug_raw_table, spec)
        assert ds.pert_vocab == ("drugA", "drugB")
        assert ds.pert_type.tolist() == ["drug"] * drug_raw_table.n_cells

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

    def test_absent_control_status_perturbs_every_cell(self, drug_raw_table):
        ds = apply_mapping(drug_raw_table, MappingSpec.from_dict({"perturbation_name": "drug_id"}))
        assert not ds.is_control.any()
        assert ds.pert_vocab == ("DMSO", "drugA", "drugB")
        assert np.array_equal(ds.pert_indptr, np.arange(drug_raw_table.n_cells + 1))

    def test_constant_true_control_status_makes_every_cell_a_control(self, drug_raw_table):
        spec = MappingSpec.from_dict({
            "perturbation_name": "drug_id",
            "control_status": {"type": "constant", "value": True},
            # one name, as cells of one mask/dose pattern must share it
            "condition_name": {"type": "constant", "value": "vehicle"},
        })
        ds = apply_mapping(drug_raw_table, spec)
        assert ds.is_control.all()
        assert set(ds.condition_name.tolist()) == {"vehicle"}
        assert (ds.pert_vocab, ds.pert_indices.size) == ((), 0)

    def test_constant_dose_reaches_every_perturbed_cell(self, drug_raw_table,
                                                         flat_form_mapping):
        doc = {**flat_form_mapping, "dose_value": {"type": "constant", "value": 250}}
        ds = apply_mapping(drug_raw_table, MappingSpec.from_dict(doc))
        perturbed = ~ds.is_control
        assert ds.pert_values.dtype == np.float64
        assert ds.pert_values.tolist() == [250.0] * int(perturbed.sum())
        assert (ds.pert_dose[perturbed].max(axis=1) == 250.0).all()

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

    @pytest.mark.parametrize("already_log1p", [False, True])
    def test_x_is_scanned_once(self, drug_raw_table, flat_form_mapping, monkeypatch,
                               already_log1p):
        # normalize_log1p scans X, and the report that follows trusts that scan
        scanned = []
        real = data._x_faults
        monkeypatch.setattr(data, "_x_faults",
                            lambda X: scanned.append(X.shape) or real(X))
        spec = MappingSpec.from_dict({**flat_form_mapping, "is_already_log1p": already_log1p})
        ds = apply_mapping(drug_raw_table, spec)
        assert scanned == [drug_raw_table.X.shape]
        assert validate_canonical(ds).ok
        assert scanned == [drug_raw_table.X.shape] * 2

    def test_pure_function_of_inputs(self, drug_raw_table, flat_form_mapping):
        spec = MappingSpec.from_dict(flat_form_mapping)
        a = apply_mapping(drug_raw_table, spec)
        b = apply_mapping(drug_raw_table, spec)
        assert np.array_equal(a.X, b.X)
        assert a.pert_vocab == b.pert_vocab
        assert np.array_equal(a.pert_dose, b.pert_dose)


def _rss_file_kb() -> int:
    status = Path("/proc/self/status").read_text()
    return int(re.search(r"^RssFile:\s+(\d+) kB$", status, re.M).group(1))


class TestMappedRawMatrix:
    """apply_mapping lets go of a mapped raw X's pages, and of nothing it needs."""

    SPEC = {
        "perturbation_type": "drug",
        "perturbation_name": {"type": "direct", "source_key": "pert"},
        "control_status": {"type": "direct", "source_key": "ctrl"},
    }

    @pytest.mark.parametrize("log1p", [False, True])
    def test_canonical_bundle_equals_the_one_from_memory(self, tmp_path, log1p):
        from pertpipe.bundle import (
            bundle_digest, read_raw_bundle, write_canonical_bundle, write_raw_bundle,
        )

        labels = [f"D{i % 5}" if i % 6 else "DMSO" for i in range(60)]
        table = _screen(np.random.default_rng(1), labels, [lab == "DMSO" for lab in labels],
                        range(30))
        write_raw_bundle(table, tmp_path / "raw")
        mapped = read_raw_bundle(tmp_path / "raw")
        spec = MappingSpec.from_dict({**self.SPEC, "numerical": {"is_already_log1p": log1p}})
        write_canonical_bundle(apply_mapping(mapped, spec), tmp_path / "mapped")
        write_canonical_bundle(apply_mapping(table, spec), tmp_path / "memory")
        assert bundle_digest(tmp_path / "mapped") == bundle_digest(tmp_path / "memory")
        assert np.array_equal(mapped.X, table.X)

    @pytest.mark.skipif(
        not Path("/proc/self/status").is_file(), reason="needs /proc/self/status"
    )
    def test_raw_pages_leave_the_resident_set(self, tmp_path):
        from pertpipe.bundle import read_raw_bundle, write_raw_bundle

        # 4096 x 512 float64: 16 MiB of file pages once touched
        labels = [f"D{i % 7}" if i % 8 else "DMSO" for i in range(4096)]
        write_raw_bundle(
            _screen(np.random.default_rng(2), labels, [lab == "DMSO" for lab in labels],
                    range(512)),
            tmp_path / "raw",
        )
        table = read_raw_bundle(tmp_path / "raw")
        table.X.sum()
        before = _rss_file_kb()
        apply_mapping(table, MappingSpec.from_dict(self.SPEC))
        assert before - _rss_file_kb() >= 0.9 * table.X.nbytes / 1024


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

    def test_filled_columns_share_one_object_per_part(self):
        from dataclasses import replace

        part = _mini_canonical(["g1"], ["A"], [("ctrl", True, [0], [1.0]), ("A", False, [1], [2.0])])
        plates = np.array(["p1", "p2"], dtype=object)
        merged = merge_datasets([replace(part, extra_obs={"plate": plates}), part, part]).dataset
        source = merged.extra_obs["source_dataset"]
        assert source.tolist() == ["dataset_0"] * 2 + ["dataset_1"] * 2 + ["dataset_2"] * 2
        assert len({id(v) for v in source}) == 3
        plate = merged.extra_obs["plate"]
        assert plate.tolist() == ["p1", "p2"] + ["unknown"] * 4
        assert plate[0] is plates[0] and plate[2] is plate[3] and plate[4] is plate[5]

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
