"""Every function, class and record field in `src/ragner` is used by the
program itself.

A definition counts as used when its name is read (as a name or an
attribute) somewhere in `src/ragner` outside its own definition, so that
code only the tests call, or only it calls itself, shows up here. Dunder
methods, which Python calls, and click commands, which the command line
calls, are exempt.

A field of a dataclass or NamedTuple counts as read when an attribute of
its name is loaded anywhere in `src/ragner`; assigning it, or passing it
to the constructor, is no read. The match is by name, so a field shares
the reads of every other attribute of its name.
"""

from __future__ import annotations

import ast
from pathlib import Path

import ragner

SRC = Path(ragner.__file__).parent
DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _is_click_command(node: ast.AST) -> bool:
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr == "command" for d in node.decorator_list)


def _reads(tree: ast.AST) -> list[tuple[str, int]]:
    """(name, line) of every name and attribute read in `tree`."""
    return [(node.id, node.lineno) if isinstance(node, ast.Name) else (node.attr, node.lineno)
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))]


def unused_definitions(src: Path) -> list[str]:
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    reads = {name: _reads(tree) for name, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for node in ast.walk(tree):
            if not isinstance(node, DEFINITIONS) or _is_click_command(node):
                continue
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            used = any(name == node.name and (other != module
                                              or not node.lineno <= line <= node.end_lineno)
                       for other, found in reads.items() for name, line in found)
            if not used:
                unused.append(f"{module}:{node.lineno} {node.name}")
    return unused


def _is_record(node: ast.ClassDef) -> bool:
    def name(expr: ast.expr) -> str | None:
        expr = expr.func if isinstance(expr, ast.Call) else expr
        return expr.id if isinstance(expr, ast.Name) else getattr(expr, "attr", None)

    return (any(name(d) == "dataclass" for d in node.decorator_list)
            or any(name(b) == "NamedTuple" for b in node.bases))


def unread_fields(src: Path) -> list[str]:
    """`Class.field` of every dataclass or NamedTuple field whose name no
    attribute load in `src` reads."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(src.glob("*.py"))}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    return [f"{cls.name}.{stmt.target.id}"
            for tree in trees.values() for cls in ast.walk(tree)
            if isinstance(cls, ast.ClassDef) and _is_record(cls)
            for stmt in cls.body
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
            and stmt.target.id not in loaded]


UNREAD_FIELDS = {  # each with the reason it stays
    "NerOutput.unrecognized": "parse_output fills it for the prediction rows to record",
    "NerOutput.dropped_ungrounded": "parse_output counts it for the prediction rows to record",
    "SearchHit.record_id": "perfbench/run.py and the acceptance tests read it",
}


def test_every_function_and_class_is_used_by_the_program():
    assert unused_definitions(SRC) == []


def test_every_record_field_is_read_by_the_program():
    assert sorted(unread_fields(SRC)) == sorted(UNREAD_FIELDS)


def test_the_scan_finds_a_definition_only_its_own_body_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "class Shape:\n    def __len__(self):\n        return used()\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text("from a import Shape\n\nSIZE = len(Shape())\n",
                                   encoding="utf-8")
    assert unused_definitions(tmp_path) == ["a.py:1 loop"]


def test_the_field_scan_finds_a_field_only_written(tmp_path):
    (tmp_path / "a.py").write_text(
        "from dataclasses import dataclass\nfrom typing import NamedTuple\n\n\n"
        "@dataclass(eq=False)\nclass Row:\n    id: int\n    note: str = ''\n\n\n"
        "class Pair(NamedTuple):\n    left: int\n    right: int\n\n\n"
        "class Plain:\n    size: int\n\n\n"
        "def use(row: Row, pair: Pair) -> int:\n    row.note = 'seen'\n"
        "    return row.id + pair.left\n",
        encoding="utf-8")
    assert unread_fields(tmp_path) == ["Row.note", "Pair.right"]
