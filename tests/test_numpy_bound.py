"""The ``numpy>=1.24`` bound in pyproject.toml, checked by API.

Each ``np.`` name that code under ``src/wearbench`` uses, and each keyword
it passes to one, is looked up in the installed NumPy's docstrings; a
``.. versionadded::`` above 1.24 on the function itself, or in the
parameter entry of a keyword the code passes, fails the test. This reads
only what NumPy documents: a name added without a version note, or a new
parameter passed by position, is not seen. The CI job that installs
``numpy==1.24.*`` is the only real run against the bound.
"""
import ast
import inspect
import re
from pathlib import Path

import numpy as np

import wearbench

SRC = Path(wearbench.__file__).parent

BOUND = (1, 24)
# (name, keyword or None) -> the guard in ``src`` that keeps older NumPy
# working; empty while no newer API is used
GUARDED = {}

_VERSION = re.compile(r"\.\. versionadded::\s*(\d+)\.(\d+)")
_PARAMETER_SECTIONS = ("Parameters", "Other Parameters")


def _np_chain(node):
    """``"fft.rfft"`` for the expression ``np.fft.rfft``, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "np" and parts:
        return ".".join(reversed(parts))
    return None


def numpy_uses(tree: ast.Module) -> dict:
    """Each ``np.`` name in ``tree`` -> the keywords its calls pass."""
    uses, inner = {}, set()
    for node in ast.walk(tree):
        name = _np_chain(node)
        if name is not None and id(node) not in inner:
            uses.setdefault(name, set())
            inner.add(id(node.value))
        if isinstance(node, ast.Call) and _np_chain(node.func) is not None:
            uses.setdefault(_np_chain(node.func), set()).update(
                k.arg for k in node.keywords if k.arg is not None)
    return uses


def versions_added(doc: str) -> dict:
    """``None`` (the function itself) or a parameter name -> the versions
    in the ``.. versionadded::`` notes that belong to it, in a numpydoc
    docstring as ``inspect.getdoc`` gives it. A note belongs to the
    parameter entry it is indented under, else to the function."""
    found, section, names = {}, None, ()
    lines = doc.splitlines()
    for line, underline in zip(lines, lines[1:] + [""]):
        if set(underline) == {"-"}:
            section, names = line.strip(), ()
        elif (section in _PARAMETER_SECTIONS and line
              and not line[0].isspace() and set(line) != {"-"}):
            names = [n.strip().lstrip("*")
                     for n in line.split(" : ")[0].split(",")]
        elif line and not line[0].isspace():
            names = ()
        version = _VERSION.search(line)
        if version:
            for name in names or [None]:
                found.setdefault(name, []).append(
                    (int(version[1]), int(version[2])))
    return found


def too_new(uses: dict) -> list:
    """``(name, keyword or None, version)`` of each use above ``BOUND``."""
    newer = []
    for name, keywords in sorted(uses.items()):
        obj = np
        for part in name.split("."):
            obj = getattr(obj, part)
        added = versions_added(inspect.getdoc(obj) or "")
        for key in [None, *sorted(keywords)]:
            newer += [(name, key, v) for v in added.get(key, ())
                      if v > BOUND and (name, key) not in GUARDED]
    return newer


def test_src_uses_no_numpy_api_above_the_bound():
    uses = {}
    for path in sorted(SRC.glob("*.py")):
        for name, keywords in numpy_uses(
                ast.parse(path.read_text(encoding="utf-8"))).items():
            uses.setdefault(name, set()).update(keywords)
    assert len(uses) > 80  # the walk sees the package's NumPy use
    assert too_new(uses) == []


def test_notes_belong_to_their_function_or_parameter():
    doc = inspect.cleandoc("""Summary.

        .. versionadded:: 2.0.0

        Parameters
        ----------
        a : array_like
            Input.
        min, max : scalar, optional
            Bounds.

            .. versionadded:: 2.1.0
        *args : tuple
            More.

            .. versionadded:: 1.20

        Notes
        -----
        .. versionadded:: 1.25
        """)
    assert versions_added(doc) == {None: [(2, 0), (1, 25)], "min": [(2, 1)],
                                   "max": [(2, 1)], "args": [(1, 20)]}


def test_uses_record_names_and_keywords():
    tree = ast.parse("np.clip(x, 0, 1, out=y)\nnp.fft.rfft(x, axis=0)\n"
                     "z = np.float64\nnp.add.at(x, i, 1)\nx.clip(min=0)\n")
    assert numpy_uses(tree) == {"clip": {"out"}, "fft.rfft": {"axis"},
                                "float64": set(), "add.at": set()}
