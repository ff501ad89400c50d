"""Every function, class and method in ``src/pertpipe`` has a caller outside
the tests: its name occurs in code of ``src/``, ``perfbench/`` (its tests
aside), or a code span of ``README.md`` or ``docs/``, outside its own
definition. Docstrings, comments and prose strings do not count. Dunders,
which Python calls, and click commands, which click calls, are exempt.

Every dataclass field in ``src/pertpipe`` is read by code of ``src/`` or
``perfbench/`` (its tests aside): an attribute load or a string naming it,
as ``getattr`` spells it; setting a field or passing it to the constructor
is no read, and neither is calling a method of its name or a string used as
a dict key. Every field of a class whose instances ``dataclasses.asdict``
serializes counts as read.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "pertpipe"
_IDENT = re.compile(r"[^\W\d]\w*")
_DOTTED = re.compile(r"[^\W\d]\w*(?:\.[^\W\d]\w*)*")
_CODE_SPAN = re.compile(r"```.*?```|`[^`\n]+`", re.DOTALL)


def _is_docstring(node: ast.AST, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(body, list) and body and body[0] is node
        and isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
        and isinstance(node.value.value, str)
    )


def _uses(tree: ast.AST) -> Counter:
    """Identifiers the code of ``tree`` names, each counted outside the
    definitions of that name that enclose it."""
    uses: Counter = Counter()

    def visit(node: ast.AST, enclosing: frozenset) -> None:
        names: list[str] = []
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = node.name.split(".")
        elif isinstance(node, ast.keyword) and node.arg:
            names = [node.arg]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a name in a string, as getattr and patch tables spell it; not prose
            names = node.value.split(".") if _DOTTED.fullmatch(node.value) else []
        uses.update(name for name in names if name not in enclosing)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        for child in ast.iter_child_nodes(node):
            if not _is_docstring(child, node):
                visit(child, enclosing)

    visit(tree, frozenset())
    return uses


def _is_click_command(node: ast.AST) -> bool:
    return any(
        isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
        and d.func.attr in ("command", "group")
        for d in getattr(node, "decorator_list", ())
    )


def _definitions():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                dunder = node.name.startswith("__") and node.name.endswith("__")
                if not dunder and not _is_click_command(node):
                    yield f"{path.name}:{node.lineno}", node.name


def _corpus() -> Counter:
    uses: Counter = Counter()
    sources = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]
    for path in sources:
        if "tests" not in path.relative_to(ROOT).parts:
            uses += _uses(ast.parse(path.read_text(encoding="utf-8")))
    for path in [ROOT / "README.md", *(ROOT / "docs").rglob("*.md")]:
        for span in _CODE_SPAN.findall(path.read_text(encoding="utf-8")):
            uses.update(_IDENT.findall(span))
    return uses


def test_each_definition_has_a_caller_outside_the_tests():
    uses = _corpus()
    unused = [f"{where} {name}" for where, name in _definitions() if not uses[name]]
    assert unused == []


def test_a_name_used_only_in_its_own_body_or_docstring_is_unused():
    tree = ast.parse(
        '"""helper() in a docstring"""\n'
        "def helper(n):\n"
        "    # helper() in a comment\n"
        "    return helper(n - 1) if n else 0\n"
        "def caller():\n"
        "    return cache.lookup('pertpipe.x'), 'no helper here'\n"
    )
    uses = _uses(tree)
    assert uses["helper"] == 0 and uses["n"] == 2
    assert uses["lookup"] == 1 and uses["x"] == 1 and uses["caller"] == 0


# fields that only the tests read, each kept for the reason given
_FIELDS_READ_BY_TESTS = {
    "RetrievalResult.ranked":
        "the ranking that retrieve returns, pinned by the retrieval tests",
}


def _is_dataclass(node: ast.ClassDef) -> bool:
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(isinstance(t, ast.Name) and t.id == "dataclass" for t in targets)


def _fields():
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                        yield f"{path.name}:{stmt.lineno}", node.name, stmt.target.id


def _reads(tree: ast.AST) -> tuple[set, set]:
    """Attribute names that the code of ``tree`` loads or spells in a string,
    and the classes whose instances it passes to ``dataclasses.asdict``.

    A called attribute is a method, and a string that is a dict key (of a
    dict literal, a subscript, or ``.get``/``.pop``/``.setdefault``) names
    an item: neither reads a field.
    """
    reads, whole = set(), set()
    not_reads: set[int] = set()  # ids of the nodes just described

    def visit(node: ast.AST, cls: str | None) -> None:
        if id(node) in not_reads:
            pass
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if _DOTTED.fullmatch(node.value):
                reads.update(node.value.split("."))
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "asdict":
            arg = node.args[0]
            if isinstance(arg, ast.Name) and arg.id == "self":
                whole.add(cls)
            elif isinstance(arg, ast.Call) and isinstance(arg.func, ast.Name):
                whole.add(arg.func.id)
        keys = []
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            not_reads.add(id(node.func))
            if node.func.attr in ("get", "pop", "setdefault"):
                keys = node.args[:1]
        elif isinstance(node, ast.Dict):
            keys = node.keys
        elif isinstance(node, ast.Subscript):
            keys = [node.slice]
        not_reads.update(id(key) for key in keys if isinstance(key, ast.Constant))
        if isinstance(node, ast.ClassDef):
            cls = node.name
        for child in ast.iter_child_nodes(node):
            if not _is_docstring(child, node):
                visit(child, cls)

    visit(tree, None)
    return reads, whole


def test_each_dataclass_field_is_read_outside_the_tests():
    reads, whole = set(), set()
    for path in [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py")]:
        if "tests" not in path.relative_to(ROOT).parts:
            more_reads, more_whole = _reads(ast.parse(path.read_text(encoding="utf-8")))
            reads |= more_reads
            whole |= more_whole
    unread = {
        f"{cls}.{name}": where
        for where, cls, name in _fields()
        if name not in reads and cls not in whole
    }
    assert sorted(f"{where} {key}" for key, where in unread.items()
                  if key not in _FIELDS_READ_BY_TESTS) == []
    # an allowed field that code now reads, or that is gone, leaves the list
    assert sorted(_FIELDS_READ_BY_TESTS.keys() - unread.keys()) == []


def test_a_field_set_or_passed_by_keyword_is_unread():
    reads, whole = _reads(ast.parse(
        "class Manifest:\n"
        "    def write(self):\n"
        "        return asdict(self)\n"
        "def build(row):\n"
        "    row.stored = Row(kept=1)\n"
        "    row.called(row.passed)\n"
        "    cells = {'literal_key': 1, row.key_field: 2}\n"
        "    cells['subscript_key'], cells.get('get_key'), cells.pop('pop_key')\n"
        "    cells[row.index_field], cells.get(row.get_field)\n"
        "    cells.setdefault('default_key', 0), cells.find('searched')\n"
        "    return row.loaded, getattr(row, 'named'), asdict(Other(x=2))\n"
    ))
    assert {"loaded", "named", "passed", "searched", "key_field", "index_field",
            "get_field"} <= reads
    assert not {"stored", "kept", "x", "called", "literal_key", "subscript_key", "get_key",
                "pop_key", "default_key"} & reads
    assert whole == {"Manifest", "Other"}
