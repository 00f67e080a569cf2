"""Every top-level function, class and constant in ``src/wearbench`` is
used by the package itself: code that only tests call belongs in the tests,
and a name nothing reads is dead."""
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


def _checked_definitions(tree: ast.Module):
    """``(name, node)`` of each top-level def, class and constant; dunders
    are exempt."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not (name.startswith("__") and name.endswith("__")):
                yield name, node


def unreferenced_names(src: Path) -> list:
    """``module.name`` of each top-level def, class or constant that no
    code under ``src`` refers to outside its own definition."""
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
        for name, node in _checked_definitions(tree):
            if not any(ref == name and not (
                    ref_file == file
                    and node.lineno <= line <= node.end_lineno)
                    for ref_file, ref, line in refs):
                unused.append(f"{file[:-3]}.{name}")
    return unused


def test_every_public_name_is_used_by_the_package():
    assert unreferenced_names(SRC) == []


def test_scan_finds_a_test_only_function(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return helper()\n\n\n"
        "def helper():\n    return 1\n\n\n"
        "def only_for_tests():\n    return only_for_tests\n\n\n"
        "class Shape:\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a.used()\n"
                                   "\n\ndef shape():\n    return a.Shape\n")
    assert unreferenced_names(tmp_path) == ["a.only_for_tests", "b.VALUE",
                                            "b.shape"]


def test_scan_finds_unused_private_names(tmp_path):
    (tmp_path / "a.py").write_text(
        "__all__ = ['used']\n_LIMIT = 3\n_LEFT, _OVER = 1, 2\n"
        "_TABLE: dict = {}\nPUBLIC = 4\n\n\n"
        "def used():\n    return _helper() + _LIMIT + _LEFT\n\n\n"
        "def _helper():\n    return _TABLE.get(0, 0)\n\n\n"
        "def _queries(x):\n    return _queries(x)\n\n\n"
        "class _Unused:\n    pass\n")
    (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a.used()\n")
    assert unreferenced_names(tmp_path) == [
        "a._OVER", "a.PUBLIC", "a._queries", "a._Unused", "b.VALUE"]


def test_scan_finds_unused_public_constants(tmp_path):
    (tmp_path / "a.py").write_text(
        "__version__ = '1'\nLIMIT = 3\nLOW, HIGH = 1, 2\n"
        "TABLE: dict = {}\nONLY_FOR_TESTS = 4\n\n\n"
        "def used():\n    return LIMIT + LOW\n")
    (tmp_path / "b.py").write_text(
        "from . import a\nfrom .a import TABLE\n\nVALUE = a.used()\n"
        "\n\ndef size():\n    return len(TABLE) + VALUE\n")
    assert unreferenced_names(tmp_path) == [
        "a.HIGH", "a.ONLY_FOR_TESTS", "b.size"]
