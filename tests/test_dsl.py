from __future__ import annotations

import random

import json

import numpy as np
import pytest
from click.testing import CliRunner

from helpers import random_expr
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
    ListLit,
    NumLit,
    StrLit,
    UnsupportedConstructError,
    evaluate,
    format_expr,
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
            ColumnRef("a"), ListLit(("Ctrl", "DMSO"))
        )

    def test_parens_preserved(self):
        expr = parse("(df['a'] == 'x') and df['b'] == 'y'")
        assert isinstance(expr.lhs, dsl.Paren)

    def test_negative_number_literal(self):
        assert parse("-5 * 2") == BinOp("*", NumLit(-5.0), NumLit(2.0))

    def test_booleans(self):
        assert parse("True") == BoolLit(True)
        assert parse("False") == BoolLit(False)

    def test_binary_ops_are_the_precedence_table(self):
        assert dsl.BINARY_OPS == tuple(dsl._PRECEDENCE)
        for op in dsl.BINARY_OPS:
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
    everything shallower still parses, evaluates and formats."""

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
    def test_deep_trees_parse_evaluate_and_format(self, shape):
        text, columns, value = self.WORKING[shape]
        expr = parse(text)
        assert evaluate(expr, columns).tolist() == value
        assert parse(format_expr(expr)) == expr

    @pytest.mark.parametrize("levels", [400, 5000])
    def test_deep_parentheses_are_unsupported(self, levels):
        with pytest.raises(UnsupportedConstructError, match="nested too deeply"):
            parse(_nested(levels))

    def test_chain_too_long_to_evaluate_or_format(self):
        # the parser loops over a chain, evaluate and format_expr recurse on it
        expr = parse(" + ".join(["df['x']"] * 5000))
        with pytest.raises(DslEvalError, match="nested too deeply to evaluate"):
            evaluate(expr, {"x": np.array([1.0])})
        with pytest.raises(dsl.DslError, match="nested too deeply to format"):
            format_expr(expr)

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


class TestFormat:
    def test_column_canonical_spelling(self):
        assert format_expr(ColumnRef("x")) == "df['x']"

    @pytest.mark.parametrize(
        "text",
        [
            "adata.obs['col'] == 'control'",
            "df['conc_um'].astype(float) * 1000",
            "adata.obs['A'].astype(str) + '_' + adata.obs['B'].astype(str)",
        ],
    )
    def test_reference_expressions_reach_fixpoint(self, text):
        once = parse(text)
        rendered = format_expr(once)
        again = parse(rendered)
        assert once == again
        assert format_expr(again) == rendered

    def test_right_nested_binop_gets_parentheses(self):
        expr = BinOp("+", NumLit(1.0), BinOp("+", NumLit(2.0), NumLit(3.0)))
        assert format_expr(expr) == "1.0 + (2.0 + 3.0)"

    @pytest.mark.parametrize("value", [5, 5.0, np.float64(5.0), np.int64(5)])
    def test_any_number_renders_as_float(self, value):
        assert format_expr(NumLit(value)) == "5.0"
        assert format_expr(ListLit((value,))) == "[5.0]"

    def test_literal_nodes_render_like_list_items(self):
        assert format_expr(BoolLit(False)) == "False"
        assert format_expr(StrLit("a\\b'c")) == "'a\\\\b\\'c'"
        assert parse(format_expr(StrLit("a\\b'c"))) == StrLit("a\\b'c")

    def test_escaped_quote_round_trip(self):
        lit = StrLit("it's")
        assert parse(format_expr(lit)) == lit

    def test_random_ast_round_trip(self):
        rng = random.Random(2024)
        for _ in range(300):
            expr = random_expr(rng, depth=6)
            assert parse(format_expr(expr)) == expr


class TestEvaluate:
    def test_equality_elementwise(self):
        cols = {"drug_id": np.array(["DMSO", "X", "DMSO"], dtype=object)}
        out = evaluate(parse("df['drug_id'] == 'DMSO'"), cols)
        assert out.tolist() == [True, False, True]

    def test_cast_float_and_scale(self):
        cols = {"conc_um": np.array(["10"], dtype=object)}
        out = evaluate(parse("df['conc_um'].astype(float) * 1000"), cols)
        assert out.tolist() == [10000.0]

    def test_isin(self):
        cols = {"a": np.array(["Ctrl", "Drug"], dtype=object)}
        out = evaluate(parse("df['a'].isin(['Ctrl', 'DMSO'])"), cols)
        assert out.tolist() == [True, False]

    def test_string_concat(self):
        cols = {
            "A": np.array(["g1", "g2"], dtype=object),
            "B": np.array(["x", "y"], dtype=object),
        }
        out = evaluate(
            parse("adata.obs['A'].astype(str) + '_' + adata.obs['B'].astype(str)"),
            cols,
        )
        assert out.tolist() == ["g1_x", "g2_y"]

    def test_missing_column_lists_available(self):
        with pytest.raises(DslEvalError) as err:
            evaluate(parse("df['nope']"), {"a": np.array([1.0]), "b": np.array([2.0])})
        message = str(err.value)
        assert "'nope'" in message and "a" in message and "b" in message

    def test_type_mismatch_string_times_number(self):
        with pytest.raises(DslEvalError, match="type mismatch"):
            evaluate(parse("df['a'] * 2"), {"a": np.array(["x"], dtype=object)})

    def test_division_by_zero_names_row(self):
        cols = {"a": np.array([1.0, 2.0]), "b": np.array([1.0, 0.0])}
        with pytest.raises(DslEvalError, match="row 1"):
            evaluate(parse("df['a'] / df['b']"), cols)

    def test_and_or_elementwise_both_operands(self):
        cols = {
            "a": np.array([True, True, False]),
            "b": np.array([True, False, False]),
        }
        assert evaluate(parse("df['a'] and df['b']"), cols).tolist() == [True, False, False]
        assert evaluate(parse("df['a'] or df['b']"), cols).tolist() == [True, True, False]

    def test_boolean_op_requires_booleans(self):
        cols = {"a": np.array([1.0, 2.0])}
        with pytest.raises(DslEvalError, match="type mismatch"):
            evaluate(parse("df['a'] and df['a']"), cols)

    def test_scalar_broadcast_result(self):
        # a pure-literal expression evaluates to a broadcastable scalar
        assert evaluate(parse("2 * 3"), {"a": np.array([0.0])}) == 6.0

    def test_cast_float_failure_names_row(self):
        cols = {"a": np.array(["1.5", "oops"], dtype=object)}
        with pytest.raises(DslEvalError, match="row 1"):
            evaluate(parse("df['a'].astype(float)"), cols)

    def test_numeric_equality_after_cast(self):
        cols = {"a": np.array(["2", "3"], dtype=object)}
        out = evaluate(parse("df['a'].astype(float) == 2"), cols)
        assert out.tolist() == [True, False]

    def test_comparing_mismatched_kinds_fails(self):
        cols = {"a": np.array([1.0, 2.0])}
        with pytest.raises(DslEvalError, match="compare"):
            evaluate(parse("df['a'] == 'x'"), cols)

    def test_determinism(self):
        cols = {"a": np.array(["u", "v"], dtype=object)}
        expr = parse("df['a'] != 'u'")
        assert evaluate(expr, cols).tolist() == evaluate(expr, cols).tolist()
