"""A restricted expression language for metadata mapping logic.

Mapping specifications carry pandas-style snippets such as
``df['conc_um'].astype(float) * 1000`` or
``adata.obs['drug_id'].isin(['Ctrl', 'DMSO'])``. This module parses that
surface into a small typed AST and evaluates it against table columns
without ever touching ``eval``.

Grammar (whitespace-insensitive)::

    expression → or_expr
    or_expr    → and_expr ("or" and_expr)*
    and_expr   → cmp ("and" cmp)*
    cmp        → sum (("==" | "!=") sum)?
    sum        → term (("+" | "-") term)*
    term       → postfix (("*" | "/") postfix)*
    postfix    → atom (".astype(" type ")" | ".isin(" list ")")*
    atom       → column | literal | "(" expression ")"

Columns are written ``df['name']`` or ``adata.obs['name']``. Literals are
single- or double-quoted strings, numbers (float64, optional leading
minus), and True/False. Any other Python construct (method calls, slicing,
lambdas, comparison chains, extra operators) is rejected with an
"unsupported construct" error rather than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PertpipeError

# --------------------------------------------------------------------------
# errors


class DslError(PertpipeError):
    """Base class for parse and evaluation failures."""


class DslSyntaxError(DslError):
    def __init__(self, message: str, offset: int, expected: set[str] | None = None):
        self.offset = offset
        self.expected = frozenset(expected or ())
        detail = f"{message} at offset {offset}"
        if self.expected:
            detail += f" (expected one of: {', '.join(sorted(self.expected))})"
        super().__init__(detail)


class UnsupportedConstructError(DslError):
    def __init__(self, construct: str, offset: int):
        self.construct = construct
        self.offset = offset
        super().__init__(f"unsupported construct: {construct} at offset {offset}")


class DslEvalError(DslError):
    """Raised when a well-formed expression cannot be evaluated on a table."""


# --------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class ColumnRef:
    name: str


@dataclass(frozen=True)
class StrLit:
    value: str


@dataclass(frozen=True)
class NumLit:
    value: float


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class ListLit:
    items: tuple


@dataclass(frozen=True)
class Cast:
    target: str  # "float" or "str"
    operand: "Expr"


@dataclass(frozen=True)
class IsIn:
    operand: "Expr"
    items: ListLit


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True)
class Paren:
    inner: "Expr"


Expr = ColumnRef | StrLit | NumLit | BoolLit | ListLit | Cast | IsIn | BinOp | Paren

BINARY_OPS = ("==", "!=", "+", "-", "*", "/", "and", "or")
CAST_TARGETS = ("float", "str")

# Python operators/keywords we recognise but refuse, so that rejection
# names the construct instead of reporting a bare syntax error.
_UNSUPPORTED_OPS = ("<=", ">=", "//", "**", "<", ">", "%", "&", "|", "^", "~", "@", "=")
_UNSUPPORTED_KEYWORDS = {
    "not", "in", "is", "if", "else", "lambda", "None", "for", "while",
}


# --------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME NUMBER STRING OP EOF
    value: str
    offset: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    i, n = 0, len(text)
    simple = "()[],.+-*/"
    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            i += 1
            continue
        if ch in "'\"":
            quote = ch
            j = i + 1
            buf = []
            while j < n and text[j] != quote:
                if text[j] == "\\" and j + 1 < n:
                    buf.append(text[j + 1])
                    j += 2
                else:
                    buf.append(text[j])
                    j += 1
            if j >= n:
                raise DslSyntaxError("unterminated string literal", i)
            tokens.append(_Token("STRING", "".join(buf), i))
            i = j + 1
            continue
        if ch.isdigit() or (ch == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            seen_dot = False
            while j < n and (text[j].isdigit() or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # a digit must follow, otherwise this dot is postfix syntax
                    if j + 1 >= n or not text[j + 1].isdigit():
                        break
                    seen_dot = True
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    while k < n and text[k].isdigit():
                        k += 1
                    j = k
            tokens.append(_Token("NUMBER", text[i:j], i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], i))
            i = j
            continue
        two = text[i : i + 2]
        if two in ("==", "!="):
            tokens.append(_Token("OP", two, i))
            i += 2
            continue
        matched_bad = next(
            (op for op in _UNSUPPORTED_OPS if text.startswith(op, i)), None
        )
        if matched_bad:
            # recognised-but-refused tokens surface at parse time so the
            # enclosing construct (a call, a lambda) can be named instead
            tokens.append(_Token("UNSUP", f"operator {matched_bad!r}", i))
            i += len(matched_bad)
            continue
        if ch in simple:
            tokens.append(_Token("OP", ch, i))
            i += 1
            continue
        if ch in "{}:;?!#$":
            tokens.append(_Token("UNSUP", f"character {ch!r}", i))
            i += 1
            continue
        raise DslSyntaxError(f"unexpected character {ch!r}", i)
    tokens.append(_Token("EOF", "", n))
    return tokens


# --------------------------------------------------------------------------
# parser


class _Parser:
    def __init__(self, text: str):
        if not text or not text.strip():
            raise DslSyntaxError("empty expression", 0)
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, value: str) -> _Token:
        tok = self.peek()
        if tok.kind == "UNSUP":
            raise UnsupportedConstructError(tok.value, tok.offset)
        if tok.kind != "OP" or tok.value != value:
            raise DslSyntaxError(
                f"unexpected token {tok.value or '<end>'!r}", tok.offset, {value}
            )
        return self.advance()

    def parse(self) -> Expr:
        expr = self.or_expr()
        tok = self.peek()
        if tok.kind != "EOF":
            if tok.kind == "UNSUP":
                raise UnsupportedConstructError(tok.value, tok.offset)
            if tok.kind == "OP" and tok.value == "(":
                raise UnsupportedConstructError("call on expression", tok.offset)
            if tok.kind == "NAME" and tok.value in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedConstructError(f"keyword {tok.value!r}", tok.offset)
            raise DslSyntaxError(
                f"unexpected trailing token {tok.value!r}", tok.offset, {"<end>"}
            )
        return expr

    def or_expr(self) -> Expr:
        node = self.and_expr()
        while self._at_keyword("or"):
            self.advance()
            node = BinOp("or", node, self.and_expr())
        return node

    def and_expr(self) -> Expr:
        node = self.cmp()
        while self._at_keyword("and"):
            self.advance()
            node = BinOp("and", node, self.cmp())
        return node

    def cmp(self) -> Expr:
        node = self.sum_expr()
        tok = self.peek()
        if tok.kind == "OP" and tok.value in ("==", "!="):
            op = self.advance().value
            node = BinOp(op, node, self.sum_expr())
            again = self.peek()
            if again.kind == "OP" and again.value in ("==", "!="):
                raise UnsupportedConstructError("chained comparison", again.offset)
        return node

    def sum_expr(self) -> Expr:
        node = self.term()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in ("+", "-"):
                op = self.advance().value
                node = BinOp(op, node, self.term())
            else:
                return node

    def term(self) -> Expr:
        node = self.postfix()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value in ("*", "/"):
                op = self.advance().value
                node = BinOp(op, node, self.postfix())
            else:
                return node

    def postfix(self) -> Expr:
        node = self.atom()
        while True:
            tok = self.peek()
            if tok.kind == "OP" and tok.value == ".":
                self.advance()
                name = self.peek()
                if name.kind != "NAME":
                    raise DslSyntaxError(
                        "expected method name after '.'", name.offset,
                        {"astype", "isin"},
                    )
                if name.value == "astype":
                    self.advance()
                    self.expect_op("(")
                    target = self.peek()
                    if target.kind != "NAME" or target.value not in CAST_TARGETS:
                        raise UnsupportedConstructError(
                            f"astype target {target.value!r}", target.offset
                        )
                    self.advance()
                    self.expect_op(")")
                    node = Cast(target.value, node)
                elif name.value == "isin":
                    self.advance()
                    self.expect_op("(")
                    items = self.list_literal()
                    self.expect_op(")")
                    node = IsIn(node, items)
                else:
                    after = self.tokens[self.pos + 1]
                    if after.kind == "OP" and after.value == "(":
                        raise UnsupportedConstructError(
                            f"method call .{name.value}()", name.offset
                        )
                    raise UnsupportedConstructError(
                        f"attribute access .{name.value}", name.offset
                    )
            elif tok.kind == "OP" and tok.value == "[":
                raise UnsupportedConstructError("indexing on expression", tok.offset)
            elif tok.kind == "OP" and tok.value == "(":
                raise UnsupportedConstructError("call on expression", tok.offset)
            else:
                return node

    def list_literal(self) -> ListLit:
        open_tok = self.peek()
        if open_tok.kind != "OP" or open_tok.value != "[":
            raise UnsupportedConstructError(
                "isin argument must be a literal list", open_tok.offset
            )
        self.advance()
        items: list = []
        if not (self.peek().kind == "OP" and self.peek().value == "]"):
            while True:
                items.append(self._literal_value())
                tok = self.peek()
                if tok.kind == "OP" and tok.value == ",":
                    self.advance()
                    continue
                break
        self.expect_op("]")
        kinds = {type(v) for v in items}
        if len(kinds) > 1:
            raise DslSyntaxError(
                "list literal mixes element types", open_tok.offset
            )
        return ListLit(tuple(items))

    def _literal_value(self):
        tok = self.peek()
        if tok.kind == "UNSUP":
            raise UnsupportedConstructError(tok.value, tok.offset)
        if tok.kind == "STRING":
            self.advance()
            return tok.value
        if tok.kind == "NUMBER":
            self.advance()
            return float(tok.value)
        if tok.kind == "OP" and tok.value == "-":
            self.advance()
            num = self.peek()
            if num.kind != "NUMBER":
                raise UnsupportedConstructError("unary minus", tok.offset)
            self.advance()
            return -float(num.value)
        if tok.kind == "NAME" and tok.value in ("True", "False"):
            self.advance()
            return tok.value == "True"
        raise DslSyntaxError(
            f"expected a literal, got {tok.value or '<end>'!r}", tok.offset,
            {"string", "number", "True", "False"},
        )

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "UNSUP":
            raise UnsupportedConstructError(tok.value, tok.offset)
        if tok.kind == "OP" and tok.value == "(":
            self.advance()
            inner = self.or_expr()
            self.expect_op(")")
            return Paren(inner)
        if tok.kind == "OP" and tok.value == "-":
            self.advance()
            num = self.peek()
            if num.kind != "NUMBER":
                raise UnsupportedConstructError("unary minus", tok.offset)
            self.advance()
            return NumLit(-float(num.value))
        if tok.kind == "OP" and tok.value == "[":
            raise UnsupportedConstructError("list literal outside isin", tok.offset)
        if tok.kind == "STRING":
            self.advance()
            return StrLit(tok.value)
        if tok.kind == "NUMBER":
            self.advance()
            return NumLit(float(tok.value))
        if tok.kind == "NAME":
            if tok.value in ("True", "False"):
                self.advance()
                return BoolLit(tok.value == "True")
            if tok.value in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedConstructError(f"keyword {tok.value!r}", tok.offset)
            if tok.value == "df":
                self.advance()
                nxt = self.peek()
                if nxt.kind == "OP" and nxt.value == ".":
                    raise UnsupportedConstructError(
                        "attribute column access on df", nxt.offset
                    )
                return self._column_subscript()
            if tok.value == "adata":
                self.advance()
                dot = self.peek()
                if dot.kind == "OP" and dot.value == ".":
                    self.advance()
                    attr = self.peek()
                    if attr.kind == "NAME" and attr.value == "obs":
                        self.advance()
                        return self._column_subscript()
                    raise UnsupportedConstructError(
                        f"adata attribute .{attr.value}", attr.offset
                    )
                raise UnsupportedConstructError("bare identifier 'adata'", tok.offset)
            self.advance()
            nxt = self.peek()
            if nxt.kind == "OP" and nxt.value == "(":
                raise UnsupportedConstructError(
                    f"function call {tok.value}()", tok.offset
                )
            raise UnsupportedConstructError(
                f"bare identifier {tok.value!r}", tok.offset
            )
        raise DslSyntaxError(
            f"unexpected token {tok.value or '<end>'!r}", tok.offset,
            {"column", "literal", "("},
        )

    def _column_subscript(self) -> ColumnRef:
        self.expect_op("[")
        tok = self.peek()
        if tok.kind != "STRING":
            raise DslSyntaxError(
                "column subscript must be a string literal", tok.offset, {"string"}
            )
        self.advance()
        self.expect_op("]")
        return ColumnRef(tok.value)

    def _at_keyword(self, kw: str) -> bool:
        tok = self.peek()
        return tok.kind == "NAME" and tok.value == kw


def parse(text: str) -> Expr:
    """Parse mapping-logic text into an AST."""
    return _Parser(text).parse()


# --------------------------------------------------------------------------
# formatter

_PRECEDENCE = {"or": 1, "and": 2, "==": 3, "!=": 3, "+": 4, "-": 4, "*": 5, "/": 5}


def _node_precedence(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PRECEDENCE[e.op]
    return 9


def format_expr(e: Expr) -> str:
    """Render an AST back to canonical text; parse(format_expr(e)) == e."""
    if isinstance(e, ColumnRef):
        return f"df['{e.name}']"
    if isinstance(e, StrLit):
        escaped = e.value.replace("\\", "\\\\").replace("'", "\\'")
        return f"'{escaped}'"
    if isinstance(e, NumLit):
        return repr(float(e.value))
    if isinstance(e, BoolLit):
        return "True" if e.value else "False"
    if isinstance(e, ListLit):
        return "[" + ", ".join(_format_literal(v) for v in e.items) + "]"
    if isinstance(e, Cast):
        return f"{_format_postfix_operand(e.operand)}.astype({e.target})"
    if isinstance(e, IsIn):
        return f"{_format_postfix_operand(e.operand)}.isin({format_expr(e.items)})"
    if isinstance(e, Paren):
        return f"({format_expr(e.inner)})"
    if isinstance(e, BinOp):
        p = _PRECEDENCE[e.op]
        # comparisons are non-associative; others associate left
        lhs_min = p + 1 if e.op in ("==", "!=") else p
        lhs = format_expr(e.lhs)
        if _node_precedence(e.lhs) < lhs_min:
            lhs = f"({lhs})"
        rhs = format_expr(e.rhs)
        if _node_precedence(e.rhs) <= p:
            rhs = f"({rhs})"
        return f"{lhs} {e.op} {rhs}"
    raise TypeError(f"not an expression node: {e!r}")


def _format_literal(v) -> str:
    if isinstance(v, bool):
        return "True" if v else "False"
    if isinstance(v, float):
        return repr(v)
    escaped = str(v).replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def _format_postfix_operand(e: Expr) -> str:
    text = format_expr(e)
    if isinstance(e, BinOp):
        return f"({text})"
    return text


# --------------------------------------------------------------------------
# evaluator

# evaluation result: a column (ndarray of length n_cells) or a broadcastable scalar
ColumnValue = np.ndarray | float | str | bool


def _table_columns(table) -> dict[str, np.ndarray]:
    obs = getattr(table, "obs", table)
    if not isinstance(obs, dict):
        raise DslEvalError(f"cannot evaluate against {type(table).__name__}")
    return obs


def _kind(value) -> str:
    if isinstance(value, np.ndarray):
        if value.dtype == bool:
            return "bool"
        if np.issubdtype(value.dtype, np.floating) or np.issubdtype(
            value.dtype, np.integer
        ):
            return "float"
        return "str"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, float):
        return "float"
    return "str"


def evaluate(expr: Expr, table):
    """Evaluate an AST against a table's obs columns.

    Returns either a column of length n_cells or a scalar literal that
    broadcasts. Both operands of ``and``/``or`` always evaluate (columns
    have no short-circuit semantics). Never executes arbitrary code.
    """
    columns = _table_columns(table)

    def ev(node: Expr):
        if isinstance(node, ColumnRef):
            if node.name not in columns:
                available = sorted(columns)
                raise DslEvalError(
                    f"unknown column {node.name!r}; available columns: {available}"
                )
            return columns[node.name]
        if isinstance(node, StrLit):
            return node.value
        if isinstance(node, NumLit):
            return float(node.value)
        if isinstance(node, BoolLit):
            return node.value
        if isinstance(node, Paren):
            return ev(node.inner)
        if isinstance(node, ListLit):
            raise DslEvalError("a bare list literal has no column value")
        if isinstance(node, Cast):
            return _cast(ev(node.operand), node.target)
        if isinstance(node, IsIn):
            return _isin(ev(node.operand), node.items)
        if isinstance(node, BinOp):
            return _binop(node.op, ev(node.lhs), ev(node.rhs))
        raise DslEvalError(f"cannot evaluate node {node!r}")

    return ev(expr)


def _cast(value, target: str):
    if target == "float":
        if isinstance(value, np.ndarray):
            if _kind(value) == "float":
                return value.astype(np.float64)
            if value.dtype == bool:
                return value.astype(np.float64)
            out = np.empty(len(value), dtype=np.float64)
            for i, v in enumerate(value):
                try:
                    out[i] = float(v)
                except (TypeError, ValueError):
                    raise DslEvalError(
                        f"cannot cast value {v!r} at row {i} to float"
                    ) from None
            return out
        try:
            return float(value)
        except (TypeError, ValueError):
            raise DslEvalError(f"cannot cast value {value!r} to float") from None
    if target == "str":
        if isinstance(value, np.ndarray):
            return np.array(list(map(str, value.tolist())), dtype=object)
        return str(value)
    raise DslEvalError(f"unknown cast target {target!r}")


def _isin(operand, items: ListLit):
    if not items.items:
        if isinstance(operand, np.ndarray):
            return np.zeros(len(operand), dtype=bool)
        return False
    first = items.items[0]
    element_kind = (
        "bool" if isinstance(first, bool) else "float" if isinstance(first, float) else "str"
    )
    op_kind = _kind(operand)
    if op_kind != element_kind:
        raise DslEvalError(
            f"type mismatch: isin over {element_kind} literals applied to "
            f"{op_kind} values"
        )
    wanted = set(items.items)
    if isinstance(operand, np.ndarray):
        return np.array([v in wanted for v in operand.tolist()], dtype=bool)
    return operand in wanted


def _binop(op: str, lhs, rhs):
    lk, rk = _kind(lhs), _kind(rhs)
    if op in ("and", "or"):
        if lk != "bool" or rk != "bool":
            raise DslEvalError(
                f"type mismatch: cannot apply {op!r} to {lk} and {rk}"
            )
        if op == "and":
            return np.logical_and(lhs, rhs) if _any_array(lhs, rhs) else (lhs and rhs)
        return np.logical_or(lhs, rhs) if _any_array(lhs, rhs) else (lhs or rhs)
    if op in ("==", "!="):
        if lk != rk:
            raise DslEvalError(
                f"type mismatch: cannot compare {lk} with {rk}"
            )
        if lk == "str" and _any_array(lhs, rhs):
            lhs_list = lhs.tolist() if isinstance(lhs, np.ndarray) else None
            rhs_list = rhs.tolist() if isinstance(rhs, np.ndarray) else None
            n = len(lhs_list) if lhs_list is not None else len(rhs_list)
            out = np.empty(n, dtype=bool)
            for i in range(n):
                a = lhs_list[i] if lhs_list is not None else lhs
                b = rhs_list[i] if rhs_list is not None else rhs
                out[i] = a == b
            return out if op == "==" else ~out
        result = np.equal(lhs, rhs) if _any_array(lhs, rhs) else (lhs == rhs)
        if op == "!=":
            result = ~result if isinstance(result, np.ndarray) else (not result)
        return result
    if op == "+":
        if lk == "str" and rk == "str":
            if _any_array(lhs, rhs):
                la = _as_str_list(lhs, rhs)
                ra = _as_str_list(rhs, lhs)
                return np.array([a + b for a, b in zip(la, ra)], dtype=object)
            return lhs + rhs
        if lk == "float" and rk == "float":
            return lhs + rhs
        raise DslEvalError(f"type mismatch: cannot apply '+' to {lk} and {rk}")
    if op in ("-", "*", "/"):
        if lk != "float" or rk != "float":
            raise DslEvalError(f"type mismatch: cannot apply {op!r} to {lk} and {rk}")
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        zero_rows = (
            np.flatnonzero(np.asarray(rhs) == 0)
            if isinstance(rhs, np.ndarray)
            else ([0] if rhs == 0 else [])
        )
        if len(zero_rows) > 0:
            raise DslEvalError(f"division by zero at row {int(zero_rows[0])}")
        return lhs / rhs
    raise DslEvalError(f"unknown operator {op!r}")


def _any_array(*values) -> bool:
    return any(isinstance(v, np.ndarray) for v in values)


def _as_str_list(value, other):
    if isinstance(value, np.ndarray):
        return value.tolist()
    n = len(other)
    return [value] * n
