"""A restricted expression language for metadata mapping logic.

Mapping specifications carry pandas-style snippets such as
``df['conc_um'].astype(float) * 1000`` or
``adata.obs['drug_id'].isin(['Ctrl', 'DMSO'])``. This module parses that
surface into a small typed AST and evaluates it against table columns
without ever touching ``eval``.

Grammar (whitespace-insensitive)::

    expression → postfix (binary_op postfix)*
    postfix    → atom (".astype(" type ")" | ".isin(" list ")")*
    atom       → column | literal | "(" expression ")"

``_PRECEDENCE`` is the single precedence table: the parser climbs it and
``format_expr`` reads it to place parentheses. From loosest to tightest the
binary operators are ``or``, ``and``, ``==``/``!=``, ``+``/``-`` and
``*``/``/``. All associate left, except that comparisons do not chain.

Columns are written ``df['name']`` or ``adata.obs['name']``. Literals are
single- or double-quoted strings, numbers (float64, optional leading
minus), and True/False. Any other Python construct (method calls, slicing,
lambdas, comparison chains, extra operators) is rejected with an
"unsupported construct" error rather than approximated, and so is nesting
deeper than Python's recursion limit lets ``parse`` follow; ``evaluate`` and
``format_expr`` refuse such a tree with a ``DslError`` as well.
"""

from __future__ import annotations

import re
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

CAST_TARGETS = ("float", "str")

# Python keywords we recognise but refuse, so that rejection names the
# construct instead of reporting a bare syntax error.
_UNSUPPORTED_KEYWORDS = {
    "not", "in", "is", "if", "else", "lambda", "None", "for", "while",
}


# --------------------------------------------------------------------------
# tokenizer


@dataclass(frozen=True)
class _Token:
    kind: str  # NAME NUMBER STRING OP UNSUP EOF
    value: str
    offset: int


# One named group per token class, tried in this order. The refused
# operators and characters become UNSUP tokens that surface at parse time,
# so the enclosing construct (a call, a lambda) can be named instead.
_TOKEN_RE = re.compile(
    r"""
      (?P<SPACE>[ \t\r\n]+)
    | (?P<STRING>'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*")
    | (?P<OPEN_QUOTE>['"])
    | (?P<NUMBER>(?:\d+(?:\.\d+)?|\.\d+)(?:[eE][+-]?\d+)?)
    | (?P<NAME>[^\W\d]\w*)
    | (?P<CMP>==|!=)
    | (?P<REFUSED_OP><=|>=|//|\*\*|[<>%&|^~@=])
    | (?P<OP>[()\[\],.+\-*/])
    | (?P<REFUSED_CHAR>[{}:;?!#$])
    | (?P<BAD>.)
    """,
    re.VERBOSE | re.DOTALL,
)
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_REFUSED = {"REFUSED_OP": "operator", "REFUSED_CHAR": "character"}


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for m in _TOKEN_RE.finditer(text):
        kind, value, offset = m.lastgroup, m.group(), m.start()
        head = value[0]
        # \w also holds numeric signs such as '½', which start no name
        bad_name = kind == "NAME" and not (head.isalpha() or head.isdigit() or head == "_")
        if kind == "BAD" or bad_name:
            raise DslSyntaxError(f"unexpected character {head!r}", offset)
        if kind == "OPEN_QUOTE":
            raise DslSyntaxError("unterminated string literal", offset)
        if kind == "SPACE":
            continue
        if kind == "STRING":
            value = _ESCAPE_RE.sub(r"\1", value[1:-1])
        elif kind == "CMP":
            kind = "OP"
        elif kind in _REFUSED:
            kind, value = "UNSUP", f"{_REFUSED[kind]} {value!r}"
        tokens.append(_Token(kind, value, offset))
    tokens.append(_Token("EOF", "", len(text)))
    return tokens


# --------------------------------------------------------------------------
# parser

# binding strength of each binary operator: the grammar and the formatter
# both read this table
_PRECEDENCE = {"or": 1, "and": 2, "==": 3, "!=": 3, "+": 4, "-": 4, "*": 5, "/": 5}
BINARY_OPS = tuple(_PRECEDENCE)
_COMPARISONS = ("==", "!=")
_LITERAL_NODES = {str: StrLit, float: NumLit, bool: BoolLit}


class _Parser:
    def __init__(self, text: str):
        if not text or not text.strip():
            raise DslSyntaxError("empty expression", 0)
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def at(self, *values: str, kind: str = "OP") -> bool:
        tok = self.peek()
        return tok.kind == kind and tok.value in values

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
        expr = self.expression()
        tok = self.peek()
        if tok.kind != "EOF":
            if tok.kind == "UNSUP":
                raise UnsupportedConstructError(tok.value, tok.offset)
            if self.at("("):
                raise UnsupportedConstructError("call on expression", tok.offset)
            if tok.kind == "NAME" and tok.value in _UNSUPPORTED_KEYWORDS:
                raise UnsupportedConstructError(f"keyword {tok.value!r}", tok.offset)
            raise DslSyntaxError(
                f"unexpected trailing token {tok.value!r}", tok.offset, {"<end>"}
            )
        return expr

    def expression(self, min_precedence: int = 1) -> Expr:
        """Precedence climbing: operators binding at least ``min_precedence``."""
        node = self.postfix()
        while True:
            tok = self.peek()
            precedence = _PRECEDENCE.get(tok.value) if tok.kind in ("OP", "NAME") else None
            if precedence is None or precedence < min_precedence:
                return node
            self.advance()
            node = BinOp(tok.value, node, self.expression(precedence + 1))
            if tok.value in _COMPARISONS and self.at(*_COMPARISONS):
                raise UnsupportedConstructError("chained comparison", self.peek().offset)

    def postfix(self) -> Expr:
        node = self.atom()
        while True:
            tok = self.peek()
            if self.at("."):
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
            elif self.at("["):
                raise UnsupportedConstructError("indexing on expression", tok.offset)
            elif self.at("("):
                raise UnsupportedConstructError("call on expression", tok.offset)
            else:
                return node

    def list_literal(self) -> ListLit:
        open_tok = self.peek()
        if not self.at("["):
            raise UnsupportedConstructError(
                "isin argument must be a literal list", open_tok.offset
            )
        self.advance()
        items: list = []
        if not self.at("]"):
            items.append(self._literal_value())
            while self.at(","):
                self.advance()
                items.append(self._literal_value())
        self.expect_op("]")
        if len({type(v) for v in items}) > 1:
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
        if self.at("-"):
            self.advance()
            num = self.peek()
            if num.kind != "NUMBER":
                raise UnsupportedConstructError("unary minus", tok.offset)
            self.advance()
            return -float(num.value)
        if self.at("True", "False", kind="NAME"):
            self.advance()
            return tok.value == "True"
        raise DslSyntaxError(
            f"expected a literal, got {tok.value or '<end>'!r}", tok.offset,
            {"string", "number", "True", "False"},
        )

    def atom(self) -> Expr:
        tok = self.peek()
        if self.at("("):
            self.advance()
            inner = self.expression()
            self.expect_op(")")
            return Paren(inner)
        if self.at("["):
            raise UnsupportedConstructError("list literal outside isin", tok.offset)
        if tok.kind == "NAME" and tok.value not in ("True", "False"):
            return self._name()
        if tok.kind == "EOF" or (tok.kind == "OP" and tok.value != "-"):
            raise DslSyntaxError(
                f"unexpected token {tok.value or '<end>'!r}", tok.offset,
                {"column", "literal", "("},
            )
        value = self._literal_value()
        return _LITERAL_NODES[type(value)](value)

    def _name(self) -> Expr:
        tok = self.advance()
        if tok.value in _UNSUPPORTED_KEYWORDS:
            raise UnsupportedConstructError(f"keyword {tok.value!r}", tok.offset)
        if tok.value == "df":
            if self.at("."):
                raise UnsupportedConstructError(
                    "attribute column access on df", self.peek().offset
                )
            return self._column_subscript()
        if tok.value == "adata":
            if not self.at("."):
                raise UnsupportedConstructError("bare identifier 'adata'", tok.offset)
            self.advance()
            attr = self.peek()
            if attr.kind == "NAME" and attr.value == "obs":
                self.advance()
                return self._column_subscript()
            raise UnsupportedConstructError(
                f"adata attribute .{attr.value}", attr.offset
            )
        if self.at("("):
            raise UnsupportedConstructError(f"function call {tok.value}()", tok.offset)
        raise UnsupportedConstructError(f"bare identifier {tok.value!r}", tok.offset)

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


def parse(text: str) -> Expr:
    """Parse mapping-logic text into an AST."""
    parser = _Parser(text)
    try:
        return parser.parse()
    except RecursionError:
        raise UnsupportedConstructError(
            "expression nested too deeply", parser.peek().offset
        ) from None


# --------------------------------------------------------------------------
# formatter


def _node_precedence(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PRECEDENCE[e.op]
    return 9


def format_expr(e: Expr) -> str:
    """Render an AST back to canonical text; parse(format_expr(e)) == e."""
    try:
        return _format(e)
    except RecursionError:
        raise DslError("expression nested too deeply to format") from None


def _format(e: Expr) -> str:
    if isinstance(e, ColumnRef):
        return f"df['{e.name}']"
    if isinstance(e, (StrLit, NumLit, BoolLit)):
        return _format_literal(e.value)
    if isinstance(e, ListLit):
        return "[" + ", ".join(_format_literal(v) for v in e.items) + "]"
    if isinstance(e, Cast):
        return f"{_format_postfix_operand(e.operand)}.astype({e.target})"
    if isinstance(e, IsIn):
        return f"{_format_postfix_operand(e.operand)}.isin({_format(e.items)})"
    if isinstance(e, Paren):
        return f"({_format(e.inner)})"
    if isinstance(e, BinOp):
        p = _PRECEDENCE[e.op]
        # comparisons are non-associative; others associate left
        lhs_min = p + 1 if e.op in _COMPARISONS else p
        lhs = _format(e.lhs)
        if _node_precedence(e.lhs) < lhs_min:
            lhs = f"({lhs})"
        rhs = _format(e.rhs)
        if _node_precedence(e.rhs) <= p:
            rhs = f"({rhs})"
        return f"{lhs} {e.op} {rhs}"
    raise TypeError(f"not an expression node: {e!r}")


def _format_literal(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return "True" if v else "False"
    if isinstance(v, (int, float, np.number)):
        return repr(float(v))
    escaped = str(v).replace("\\", "\\\\").replace("'", "\\'")
    return f"'{escaped}'"


def _format_postfix_operand(e: Expr) -> str:
    text = _format(e)
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

    try:
        return ev(expr)
    except RecursionError:
        raise DslEvalError("expression nested too deeply to evaluate") from None


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
        if not _any_array(lhs, rhs):
            return (lhs == rhs) if op == "==" else not (lhs == rhs)
        if lk == "str":
            # compare Python objects: numpy's unicode dtype drops trailing NULs
            lhs, rhs = np.asarray(lhs, dtype=object), np.asarray(rhs, dtype=object)
        result = np.equal(lhs, rhs)
        return result if op == "==" else ~result
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
