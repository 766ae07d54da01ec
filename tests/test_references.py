"""Every function and class in `src/ragner` is used by the program itself.

A definition counts as used when its name is read (as a name or an
attribute) somewhere in `src/ragner` outside its own definition, so that
code only the tests call, or only it calls itself, shows up here. Dunder
methods, which Python calls, and click commands, which the command line
calls, are exempt.
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


def test_every_function_and_class_is_used_by_the_program():
    assert unused_definitions(SRC) == []


def test_the_scan_finds_a_definition_only_its_own_body_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "def loop(n):\n    return loop(n - 1) if n else 0\n\n\n"
        "def used():\n    return 1\n\n\n"
        "class Shape:\n    def __len__(self):\n        return used()\n",
        encoding="utf-8")
    (tmp_path / "b.py").write_text("from a import Shape\n\nSIZE = len(Shape())\n",
                                   encoding="utf-8")
    assert unused_definitions(tmp_path) == ["a.py:1 loop"]
