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

The parser climbs the precedence table ``_PRECEDENCE``. From loosest to
tightest the binary operators are ``or``, ``and``, ``==``/``!=``,
``+``/``-`` and ``*``/``/``. All associate left, except that comparisons do
not chain. The tree holds only what ``evaluate`` reads: ``(e)`` parses to
the tree of ``e``, and the items of ``isin`` are a tuple of literal values.

Columns are written ``df['name']`` or ``adata.obs['name']``. Literals are
single- or double-quoted strings, numbers (float64, optional leading
minus), and True/False. A literal stands for a column that holds its value
in every row, so every expression evaluates to a column of the table's
length. Any other Python construct (method calls, slicing,
lambdas, comparison chains, extra operators) is rejected with an
"unsupported construct" error rather than approximated, and so is nesting
deeper than Python's recursion limit lets ``parse`` follow; ``evaluate``
refuses such a tree with a ``DslError`` as well.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .data import RawTable, cast_column, column_kind
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
class Cast:
    target: str  # "float" or "str"
    operand: "Expr"


@dataclass(frozen=True)
class IsIn:
    operand: "Expr"
    items: tuple  # literal values of one type


@dataclass(frozen=True)
class BinOp:
    op: str
    lhs: "Expr"
    rhs: "Expr"


Expr = ColumnRef | StrLit | NumLit | BoolLit | Cast | IsIn | BinOp

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

# binding strength of each binary operator, from loosest to tightest
_PRECEDENCE = {"or": 1, "and": 2, "==": 3, "!=": 3, "+": 4, "-": 4, "*": 5, "/": 5}
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

    def list_literal(self) -> tuple:
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
        return tuple(items)

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
            return inner
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
# evaluator

# the dtype of the column a literal stands for
_LITERAL_DTYPES = {StrLit: object, NumLit: np.float64, BoolLit: bool}


def evaluate(expr: Expr, table: RawTable) -> np.ndarray:
    """Evaluate an AST against a table's obs columns.

    Returns a column of length n_cells. A literal stands for the column
    that holds its value in every row, so each operator sees columns only.
    Both operands of ``and``/``or`` always evaluate (columns have no
    short-circuit semantics). Never executes arbitrary code.
    """
    columns, n = table.obs, table.n_cells

    def ev(node: Expr) -> np.ndarray:
        if isinstance(node, ColumnRef):
            if node.name not in columns:
                available = sorted(columns)
                raise DslEvalError(
                    f"unknown column {node.name!r}; available columns: {available}"
                )
            return columns[node.name]
        if isinstance(node, (StrLit, NumLit, BoolLit)):
            # fill, not np.full: np.full passes a string through numpy's
            # unicode dtype, which drops trailing NULs
            column = np.empty(n, dtype=_LITERAL_DTYPES[type(node)])
            column.fill(node.value)
            return column
        if isinstance(node, Cast):
            operand = ev(node.operand)
            try:
                return cast_column(operand, node.target)
            except ValueError as exc:
                raise DslEvalError(str(exc)) from None
        if isinstance(node, IsIn):
            return _isin(ev(node.operand), node.items)
        if isinstance(node, BinOp):
            return _binop(node.op, ev(node.lhs), ev(node.rhs))
        raise DslEvalError(f"cannot evaluate node {node!r}")

    try:
        return ev(expr)
    except RecursionError:
        raise DslEvalError("expression nested too deeply to evaluate") from None


def _isin(operand: np.ndarray, items: tuple) -> np.ndarray:
    if items:
        element_kind, op_kind = column_kind(np.array(items[:1])), column_kind(operand)
        if op_kind != element_kind:
            raise DslEvalError(
                f"type mismatch: isin over {element_kind} literals applied to "
                f"{op_kind} values"
            )
    wanted = set(items)
    return np.array([v in wanted for v in operand.tolist()], dtype=bool)


_ARITHMETIC = {"+": np.add, "-": np.subtract, "*": np.multiply, "/": np.true_divide}


def _binop(op: str, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    lk, rk = column_kind(lhs), column_kind(rhs)
    if op in ("and", "or"):
        if lk != "bool" or rk != "bool":
            raise DslEvalError(
                f"type mismatch: cannot apply {op!r} to {lk} and {rk}"
            )
        return np.logical_and(lhs, rhs) if op == "and" else np.logical_or(lhs, rhs)
    if lk == rk == "str":
        # Python objects: numpy's unicode dtype drops trailing NULs
        lhs, rhs = np.asarray(lhs, dtype=object), np.asarray(rhs, dtype=object)
    if op in ("==", "!="):
        if lk != rk:
            raise DslEvalError(
                f"type mismatch: cannot compare {lk} with {rk}"
            )
        result = np.equal(lhs, rhs)
        return result if op == "==" else ~result
    if op not in _ARITHMETIC:
        raise DslEvalError(f"unknown operator {op!r}")
    if not (lk == rk == "float" or (op == "+" and lk == rk == "str")):
        raise DslEvalError(f"type mismatch: cannot apply {op!r} to {lk} and {rk}")
    zero_rows = np.flatnonzero(rhs == 0) if op == "/" else ()
    if len(zero_rows) > 0:
        raise DslEvalError(f"division by zero at row {int(zero_rows[0])}")
    return _ARITHMETIC[op](lhs, rhs)

