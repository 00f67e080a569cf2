"""``features.csv`` is a function of the inputs, not of the host CPU.

OpenBLAS picks its dot-product kernel by CPU, and NumPy's AVX-512 ``power``
rounds differently from its other versions. So the signal chain computes
sums of products as ``np.sum(a * b)`` and cubes as products, and neither
``np.dot``, ``np.matmul``, ``@`` nor a ``**`` other than squaring runs on
its arrays.
"""
import ast
import os
import subprocess
import sys
from pathlib import Path

import wearbench
from wearbench import synth

SRC = Path(wearbench.__file__).parent
# the model work, which keeps ``np.matmul``; every other module is on the
# ``extract`` path or does no array arithmetic
MODEL_MODULES = ("mlbench.py", "models.py")
# powers of integer literals by Python ints, exact on any host
INTEGER_POWERS = {("session_io.py", "10 ** n"), ("session_io.py", "10 ** k"),
                  ("session_io.py", "10000 ** g")}
# a BLAS kernel and a NumPy dispatch other than this host's defaults; a
# feature name the host lacks is ignored
DOWNGRADED = {
    "OPENBLAS_CORETYPE": "Prescott",
    "NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}


def _literal(node):
    try:
        return ast.literal_eval(node)
    except ValueError:
        return None


def _host_dependent(tree: ast.Module):
    """``(line, source)`` of each dot product, matrix product, or power
    other than a square or a power of two literals."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("dot", "matmul")
                and isinstance(node.value, ast.Name)
                and node.value.id == "np"):
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.MatMult):
            yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            exponent = _literal(node.right)
            if exponent != 2 and (exponent is None
                                  or _literal(node.left) is None):
                yield node.lineno, ast.unparse(node)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            if _literal(node.value) != 2:
                yield node.lineno, ast.unparse(node)


def test_extract_path_has_no_host_dependent_arithmetic():
    found = [(path.name, line, text)
             for path in sorted(SRC.glob("*.py"))
             if path.name not in MODEL_MODULES
             for line, text in _host_dependent(
                 ast.parse(path.read_text(encoding="utf-8")))
             if (path.name, text) not in INTEGER_POWERS]
    assert found == []


def test_host_dependent_arithmetic_is_found():
    code = ("a = np.dot(x, y)\nb = x @ y\nx @= y\nc = x ** 3\nx **= 0.5\n"
            "d = np.matmul(x, y)\ne = x ** 2 + 2.0 ** 50 + 2.0 ** -52\n")
    assert sorted(line for line, _ in _host_dependent(ast.parse(code))) == [
        1, 2, 3, 4, 5, 6]


def test_extract_bytes_equal_under_a_downgraded_cpu(tmp_path):
    manifest = synth.generate_cohort(
        tmp_path / "data", synth.CohortSpec(n_unipolar=1, n_bipolar=1,
                                            duration_s=120.0), 0)
    path = os.pathsep.join([str(SRC.parent), os.environ.get("PYTHONPATH", "")])
    tables = []
    for name, downgrade in (("default", {}), ("downgraded", DOWNGRADED)):
        env = {**os.environ, "PYTHONPATH": path, **downgrade}
        for key in DOWNGRADED.keys() - downgrade.keys():
            env.pop(key, None)
        subprocess.run(
            [sys.executable, "-m", "wearbench", "--data-root",
             str(tmp_path / "data"), "--manifest", str(manifest), "--out",
             str(tmp_path / name), "extract"],
            env=env, check=True, capture_output=True, timeout=300)
        tables.append((tmp_path / name / "features.csv").read_bytes())
    assert tables[0].count(b"\n") == 3  # the header and two subjects
    assert tables[0] == tables[1]
