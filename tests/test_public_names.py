"""Every public top-level function and class in ``src/wearbench`` is used by
the package itself: code that only tests call belongs in the tests."""
import ast
from pathlib import Path

import wearbench

SRC = Path(wearbench.__file__).parent


def _references(tree: ast.Module, modules: set):
    """``(name, line)`` of every name a module loads, imports, or reads as
    an attribute of a sibling module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute) and isinstance(
                node.value, ast.Name) and node.value.id in modules:
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node.lineno


def unreferenced_public_names(src: Path) -> list:
    """``module.name`` of each public top-level def or class that no code
    under ``src`` refers to outside its own definition."""
    files = sorted(src.glob("*.py"))
    modules = {path.stem for path in files}
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in files}
    refs = {(file, name, line) for file, tree in trees.items()
            for name, line in _references(tree, modules)}
    unused = []
    for file, tree in trees.items():
        if file == "__init__.py":
            continue
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and not node.name.startswith("_") and not any(
                        name == node.name and not (
                            ref_file == file
                            and node.lineno <= line <= node.end_lineno)
                        for ref_file, name, line in refs):
                unused.append(f"{file[:-3]}.{node.name}")
    return unused


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_public_names(SRC) == []


def test_scan_finds_a_test_only_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def only_for_tests():\n    return only_for_tests\n\n\n"
        "class Shape:\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a.used()\n"
                                   "\n\ndef shape():\n    return a.Shape\n")
    assert unreferenced_public_names(tmp_path) == ["a.only_for_tests",
                                                   "b.shape"]
