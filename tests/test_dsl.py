from __future__ import annotations

import random

import json

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import obs_table, random_expr
from pertpipe.bundle import write_raw_bundle
from pertpipe.cli import main
from pertpipe import dsl
from pertpipe.dsl import (
    BinOp,
    BoolLit,
    Cast,
    ColumnRef,
    DslEvalError,
    DslSyntaxError,
    IsIn,
    NumLit,
    StrLit,
    UnsupportedConstructError,
    evaluate,
    parse,
)

NEGATIVE_CORPUS = [
    "df['a'].apply(lambda x: x)",
    "df['a'].str.upper()",
    "lambda x: x",
    "df['a'][0]",
    "df['a'].astype(int)",
    "df['a'].astype(bool)",
    "df['a'] < 5",
    "df['a'] >= 5",
    "df['a'] ** 2",
    "df['a'] % 2",
    "df['a'] & df['b']",
    "df['a'] | df['b']",
    "not df['a']",
    "df.a",
    "df['a'] == df['b'] == df['c']",
    "df['a'].isin(df['b'])",
    "adata.var['x']",
    "foo(df['a'])",
    "df['a'] if True else df['b']",
    "-df['a']",
]


class TestParse:
    def test_equality_with_string(self):
        assert parse("adata.obs['col'] == 'control'") == BinOp(
            "==", ColumnRef("col"), StrLit("control")
        )

    def test_cast_and_multiply(self):
        assert parse("df['conc_um'].astype(float) * 1000") == BinOp(
            "*", Cast("float", ColumnRef("conc_um")), NumLit(1000.0)
        )

    def test_string_concat_left_associative(self):
        expr = parse("adata.obs['A'].astype(str) + '_' + adata.obs['B'].astype(str)")
        assert expr == BinOp(
            "+",
            BinOp("+", Cast("str", ColumnRef("A")), StrLit("_")),
            Cast("str", ColumnRef("B")),
        )

    def test_whitespace_insensitive(self):
        a = parse("df['x']==1")
        b = parse("  df[ 'x' ]   ==  1  ")
        assert a == b

    def test_both_column_spellings(self):
        assert parse("df['c']") == parse("adata.obs['c']") == ColumnRef("c")

    def test_isin_list(self):
        assert parse("df['a'].isin(['Ctrl', 'DMSO'])") == IsIn(
            ColumnRef("a"), ("Ctrl", "DMSO")
        )

    def test_parentheses_group_without_a_node(self):
        assert parse("((df['a']))") == ColumnRef("a")
        assert parse("(df['a'] == 'x') and df['b'] == 'y'") == BinOp(
            "and",
            BinOp("==", ColumnRef("a"), StrLit("x")),
            BinOp("==", ColumnRef("b"), StrLit("y")),
        )
        assert parse("2 * (df['a'] - 1)") == BinOp(
            "*", NumLit(2.0), BinOp("-", ColumnRef("a"), NumLit(1.0))
        )
        assert parse("df['a'] - (1 - 2)") == BinOp(
            "-", ColumnRef("a"), BinOp("-", NumLit(1.0), NumLit(2.0))
        )

    def test_negative_number_literal(self):
        assert parse("-5 * 2") == BinOp("*", NumLit(-5.0), NumLit(2.0))

    def test_booleans(self):
        assert parse("True") == BoolLit(True)
        assert parse("False") == BoolLit(False)

    def test_binary_ops_are_the_precedence_table(self):
        for op in dsl._PRECEDENCE:
            assert parse(f"df['a'] {op} df['b']") == BinOp(op, ColumnRef("a"), ColumnRef("b"))

    def test_empty_input(self):
        with pytest.raises(DslSyntaxError):
            parse("   ")

    def test_syntax_error_carries_offset_and_expectations(self):
        with pytest.raises(DslSyntaxError) as err:
            parse("df['a'] == ")
        assert err.value.offset == 11
        assert err.value.expected

    def test_unterminated_string(self):
        with pytest.raises(DslSyntaxError, match="unterminated"):
            parse("df['a")

    def test_mixed_type_list_rejected(self):
        with pytest.raises(DslSyntaxError, match="mixes"):
            parse("df['a'].isin([1, 'b'])")

    @pytest.mark.parametrize("text", NEGATIVE_CORPUS)
    def test_negative_corpus_rejected_as_unsupported(self, text):
        with pytest.raises(UnsupportedConstructError) as err:
            parse(text)
        assert "unsupported construct" in str(err.value)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("df['a'] df['b']",
             "unexpected trailing token 'df' at offset 8 (expected one of: <end>)"),
            ("df['a'].astype(float",
             "unexpected token '<end>' at offset 20 (expected one of: ))"),
            ("df['a'].",
             "expected method name after '.' at offset 8 (expected one of: astype, isin)"),
            ("(df['a'])(1)", "unsupported construct: call on expression at offset 9"),
            ("df['a'].isin([1,", "expected a literal, got '<end>' at offset 16 "
                                 "(expected one of: False, True, number, string)"),
            ("df['a'].isin([1 <])", "unsupported construct: operator '<' at offset 16"),
            ("df['a'] == [1]", "unsupported construct: list literal outside isin at offset 11"),
            ("adata", "unsupported construct: bare identifier 'adata' at offset 0"),
            ("df[1]", "column subscript must be a string literal at offset 3 "
                      "(expected one of: string)"),
        ],
        ids=["trailing_token", "unclosed_astype", "no_method_name", "call_on_expression",
             "unclosed_list", "operator_in_list", "list_outside_isin", "bare_identifier",
             "numeric_subscript"],
    )
    def test_refusal_messages(self, text, message):
        with pytest.raises(dsl.DslError) as err:
            parse(text)
        assert str(err.value) == message


class TestTokenize:
    @pytest.mark.parametrize(
        "text, tokens",
        [
            ("1.", [("NUMBER", "1", 0), ("OP", ".", 1)]),
            (".5", [("NUMBER", ".5", 0)]),
            ("1e", [("NUMBER", "1", 0), ("NAME", "e", 1)]),
            ("1e+5", [("NUMBER", "1e+5", 0)]),
            ("1.5.3", [("NUMBER", "1.5", 0), ("NUMBER", ".3", 3)]),
            ("'it\\'s'", [("STRING", "it's", 0)]),
            ('"a\\"b"', [("STRING", 'a"b', 0)]),
            ("'a\\nb'", [("STRING", "anb", 0)]),
            ("!", [("UNSUP", "character '!'", 0)]),
            ("!=", [("OP", "!=", 0)]),
            ("{", [("UNSUP", "character '{'", 0)]),
            ("a //b", [("NAME", "a", 0), ("UNSUP", "operator '//'", 2), ("NAME", "b", 4)]),
            ("x==y", [("NAME", "x", 0), ("OP", "==", 1), ("NAME", "y", 3)]),
            ("²", [("NAME", "²", 0)]),
        ],
    )
    def test_token_values_and_offsets(self, text, tokens):
        got = [(t.kind, t.value, t.offset) for t in dsl._tokenize(text)]
        assert got == tokens + [("EOF", "", len(text))]

    @pytest.mark.parametrize(
        "text, message",
        [
            ("'a\\", "unterminated string literal at offset 0"),
            ("df['a", "unterminated string literal at offset 3"),
            ('"abc', "unterminated string literal at offset 0"),
            ("1 + `", "unexpected character '`' at offset 4"),
            ("a \\ b", "unexpected character '\\\\' at offset 2"),
            ("x ½", "unexpected character '½' at offset 2"),
        ],
        ids=["trailing_backslash", "unterminated_subscript", "unterminated_double",
             "backtick", "backslash", "vulgar_fraction"],
    )
    def test_token_errors(self, text, message):
        with pytest.raises(DslSyntaxError) as err:
            dsl._tokenize(text)
        assert str(err.value) == message


class TestNonDecimalDigit:
    """``str.isdigit`` holds for '²', but ``float`` cannot read it."""

    def test_parse_refuses_it_as_a_bare_identifier(self):
        with pytest.raises(UnsupportedConstructError, match="bare identifier '²' at offset 11"):
            parse("df['g'] == ²")

    def test_unify_exits_2_not_1(self, tmp_path, drug_raw_table):
        write_raw_bundle(drug_raw_table, tmp_path / "raw")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({
            "perturbation_name": "drug_id", "control_status": "df['drug_id'] == ²",
        }))
        result = CliRunner().invoke(
            main, ["unify", str(tmp_path / "raw"), str(tmp_path / "o"), "--mapping", str(spec)]
        )
        assert result.exit_code == 2, result.output
        error = json.loads(result.stderr.strip().splitlines()[-1])["error"]
        assert error["code"] == "mapping_spec"
        assert "bare identifier '²'" in error["message"]


def _nested(levels: int, core: str = "df['d'] == 'a'") -> str:
    return "(" * levels + core + ")" * levels


class TestNesting:
    """Nesting too deep for Python's stack is refused, not a ``RecursionError``;
    everything shallower still parses and evaluates."""

    WORKING = {
        "or_chain": (
            " or ".join(f"df['d'] == 'c{i}'" for i in range(150)),
            {"d": np.array(["c0", "c149", "x"], dtype=object)}, [True, True, False],
        ),
        "parentheses": (
            _nested(140), {"d": np.array(["a", "b"], dtype=object)}, [True, False],
        ),
        "cast_chain": (
            "df['x']" + ".astype(float)" * 140, {"x": np.array([1.0, 2.0])}, [1.0, 2.0],
        ),
    }

    @pytest.mark.parametrize("shape", sorted(WORKING))
    def test_deep_trees_parse_and_evaluate(self, shape):
        text, columns, value = self.WORKING[shape]
        expr = parse(text)
        assert evaluate(expr, obs_table(columns)).tolist() == value

    @pytest.mark.parametrize("levels", [400, 5000])
    def test_deep_parentheses_are_unsupported(self, levels):
        with pytest.raises(UnsupportedConstructError, match="nested too deeply"):
            parse(_nested(levels))

    def test_chain_too_long_to_evaluate(self):
        # the parser loops over a chain, evaluate recurses on it
        expr = parse(" + ".join(["df['x']"] * 5000))
        with pytest.raises(DslEvalError, match="nested too deeply to evaluate"):
            evaluate(expr, obs_table({"x": np.array([1.0])}))

    # control_status text and the error code: parse refuses deep parentheses,
    # a chain parses but is too deep to evaluate
    CONTROL_STATUS = {
        "parentheses_400": (_nested(400, "df['drug_id'] == 'DMSO'"), "mapping_spec"),
        "parentheses_5000": (_nested(5000, "df['drug_id'] == 'DMSO'"), "mapping_spec"),
        "or_chain_5000": (" or ".join(["df['drug_id'] == 'DMSO'"] * 5000), "apply_mapping"),
    }

    @pytest.mark.parametrize("shape", sorted(CONTROL_STATUS))
    def test_unify_exits_2(self, tmp_path, drug_raw_table, shape):
        text, code = self.CONTROL_STATUS[shape]
        write_raw_bundle(drug_raw_table, tmp_path / "raw")
        spec = tmp_path / "spec.json"
        spec.write_text(json.dumps({"perturbation_name": "drug_id", "control_status": text}))
        result = CliRunner().invoke(
            main, ["unify", str(tmp_path / "raw"), str(tmp_path / "o"), "--mapping", str(spec)]
        )
        assert result.exit_code == 2, result.output
        error = json.loads(result.stderr.strip().splitlines()[-1])["error"]
        assert error["code"] == code
        assert "nested too deeply" in error["message"]


REFERENCE_EXPRESSIONS = {
    "adata.obs['col'] == 'control'": BinOp("==", ColumnRef("col"), StrLit("control")),
    "df['conc_um'].astype(float) * 1000": BinOp(
        "*", Cast("float", ColumnRef("conc_um")), NumLit(1000.0)
    ),
    "adata.obs['A'].astype(str) + '_' + adata.obs['B'].astype(str)": BinOp(
        "+",
        BinOp("+", Cast("str", ColumnRef("A")), StrLit("_")),
        Cast("str", ColumnRef("B")),
    ),
}


class TestParseFidelity:
    """Text derived from the grammar parses to the tree derived with it."""

    @pytest.mark.parametrize("text", sorted(REFERENCE_EXPRESSIONS))
    def test_reference_expressions_in_either_spelling(self, text):
        tree = REFERENCE_EXPRESSIONS[text]
        assert parse(text) == tree
        respelled = text.replace("adata.obs[", "df[").replace("'", '"')
        assert respelled != text and parse(respelled) == tree

    def test_escaped_source_text(self):
        assert parse(r"'it\'s'") == StrLit("it's")
        assert parse(r'''"it\"s" + 'a\\b' ''') == BinOp("+", StrLit('it"s'), StrLit("a\\b"))
        assert parse(r"df['d\r\'ug'] == '\x'") == BinOp(
            "==", ColumnRef("dr'ug"), StrLit("x")
        )

    def test_random_text_parses_to_its_tree(self):
        rng = random.Random(2024)
        for _ in range(300):
            text, tree = random_expr(rng, depth=6)
            assert parse(text) == tree, text


class TestEvaluate:
    def test_equality_elementwise(self):
        table = obs_table({"drug_id": np.array(["DMSO", "X", "DMSO"], dtype=object)})
        out = evaluate(parse("df['drug_id'] == 'DMSO'"), table)
        assert out.tolist() == [True, False, True]

    def test_cast_float_and_scale(self):
        table = obs_table({"conc_um": np.array(["10"], dtype=object)})
        out = evaluate(parse("df['conc_um'].astype(float) * 1000"), table)
        assert out.tolist() == [10000.0]

    def test_isin(self):
        table = obs_table({"a": np.array(["Ctrl", "Drug"], dtype=object)})
        out = evaluate(parse("df['a'].isin(['Ctrl', 'DMSO'])"), table)
        assert out.tolist() == [True, False]

    def test_string_concat(self):
        table = obs_table({
            "A": np.array(["g1", "g2"], dtype=object),
            "B": np.array(["x", "y"], dtype=object),
        })
        out = evaluate(
            parse("adata.obs['A'].astype(str) + '_' + adata.obs['B'].astype(str)"),
            table,
        )
        assert out.tolist() == ["g1_x", "g2_y"]

    def test_missing_column_lists_available(self):
        with pytest.raises(DslEvalError) as err:
            evaluate(parse("df['nope']"), obs_table({"a": np.array([1.0]), "b": np.array([2.0])}))
        message = str(err.value)
        assert "'nope'" in message and "a" in message and "b" in message

    def test_type_mismatch_string_times_number(self):
        with pytest.raises(DslEvalError, match="type mismatch"):
            evaluate(parse("df['a'] * 2"), obs_table({"a": np.array(["x"], dtype=object)}))

    def test_division_by_zero_names_row(self):
        table = obs_table({"a": np.array([1.0, 2.0]), "b": np.array([1.0, 0.0])})
        with pytest.raises(DslEvalError, match="row 1"):
            evaluate(parse("df['a'] / df['b']"), table)

    def test_and_or_elementwise_both_operands(self):
        table = obs_table({
            "a": np.array([True, True, False]),
            "b": np.array([True, False, False]),
        })
        assert evaluate(parse("df['a'] and df['b']"), table).tolist() == [True, False, False]
        assert evaluate(parse("df['a'] or df['b']"), table).tolist() == [True, True, False]

    def test_boolean_op_requires_booleans(self):
        table = obs_table({"a": np.array([1.0, 2.0])})
        with pytest.raises(DslEvalError, match="type mismatch"):
            evaluate(parse("df['a'] and df['a']"), table)

    def test_scalar_broadcast_result(self):
        # a pure-literal expression evaluates to a column of the table's length
        out = evaluate(parse("2 * 3"), obs_table({"a": np.array([0.0, 1.0])}))
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert out.tolist() == [6.0, 6.0]

    def test_cast_float_failure_names_row(self):
        table = obs_table({"a": np.array(["1.5", "oops"], dtype=object)})
        with pytest.raises(DslEvalError, match="row 1"):
            evaluate(parse("df['a'].astype(float)"), table)

    @pytest.mark.parametrize("dtype", [object, str])
    def test_cast_float_reads_each_value_as_float_does(self, dtype):
        table = obs_table({"a": np.array([" 1e3 ", "-0", "nan", "2.5"], dtype=dtype)})
        out = evaluate(parse("df['a'].astype(float)"), table)
        assert out.dtype == np.float64
        assert [v.hex() for v in out.tolist()] == [
            (1000.0).hex(), (-0.0).hex(), float("nan").hex(), (2.5).hex()
        ]
        bad = np.array([" 1e3 ", "-0", "nan", "1,5", "x"], dtype=dtype)
        with pytest.raises(DslEvalError) as info:
            evaluate(parse("df['a'].astype(float)"), obs_table({"a": bad}))
        assert str(info.value) == f"cannot cast value {bad[3]!r} at row 3 to float"
        empty = obs_table({"a": np.array([], dtype=dtype)})
        empty = evaluate(parse("df['a'].astype(float)"), empty)
        assert empty.dtype == np.float64 and empty.shape == (0,)

    def test_numeric_equality_after_cast(self):
        table = obs_table({"a": np.array(["2", "3"], dtype=object)})
        out = evaluate(parse("df['a'].astype(float) == 2"), table)
        assert out.tolist() == [True, False]

    def test_comparing_mismatched_kinds_fails(self):
        table = obs_table({"a": np.array([1.0, 2.0])})
        with pytest.raises(DslEvalError, match="compare"):
            evaluate(parse("df['a'] == 'x'"), table)

    def test_determinism(self):
        table = obs_table({"a": np.array(["u", "v"], dtype=object)})
        expr = parse("df['a'] != 'u'")
        assert evaluate(expr, table).tolist() == evaluate(expr, table).tolist()


def _column(values, dtype):
    column = np.empty(len(values), dtype=dtype)
    column[:] = values
    return column


@st.composite
def random_tables(draw):
    """A table over the columns ``random_expr`` names, with 0-4 rows."""
    n = draw(st.integers(0, 4))
    draw_list = lambda pool: draw(  # noqa: E731
        st.lists(st.sampled_from(pool), min_size=n, max_size=n)
    )
    return obs_table({
        "drug_id": _column(draw_list(["DMSO", "Ctrl", "a_b", "", "x\x00"]), object),
        "conc_um": _column(draw_list(["1.5", "0", "1000", "x"]), object),
        "cell_line": np.array(draw_list(["KRAS knockdown", "x 1", "a"]), dtype=str),
        "guide": _column(draw_list(["a_b", "", "DMSO"]), object),
        "dose": np.array(draw_list([0.0, -0.0, 1.0, 2.5, -5.0]), dtype=np.float64),
        "batch": np.array(draw_list([True, False]), dtype=bool),
    })


@given(st.integers(0, 2**32 - 1), random_tables())
@settings(max_examples=100, deadline=None)
def test_random_expr_evaluates_row_by_row(seed, table):
    # a literal is a column, so every row of a result depends on that row alone;
    # most random expressions mix kinds and fail, so each example tries twenty
    n = table.n_cells
    rows = [
        obs_table({name: column[i : i + 1] for name, column in table.obs.items()})
        for i in range(n)
    ]
    rng = random.Random(seed)
    for _ in range(20):
        _, expr = random_expr(rng)
        try:
            out = evaluate(expr, table)
        except DslEvalError:
            continue
        assert isinstance(out, np.ndarray) and out.shape == (n,)
        for i, row_table in enumerate(rows):
            row = evaluate(expr, row_table)
            assert row.dtype == out.dtype and row.shape == (1,)
            assert repr(row.tolist()[0]) == repr(out.tolist()[i])
