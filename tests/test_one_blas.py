"""One BLAS: the program's dense kernels all run in scipy's OpenBLAS.

numpy and scipy each load their own OpenBLAS, each with its own thread
pool.  A call into one library right after a call into the other finds
the first pool's workers still spinning, so on two cores the two pools
slow each other down.  The RFP LAPACK routines exist only in scipy, so
every product goes through ``scipy.linalg.blas`` and nothing in ``src``
may reach numpy's BLAS.  ``reference.py`` is exempt: its oracles use
numpy on purpose, as an independent implementation.
"""

import ast
from pathlib import Path

import randumb

SOURCES = sorted(
    p for p in Path(randumb.__file__).parent.glob("*.py") if p.name != "reference.py"
)
NUMPY = {"np", "numpy"}
# numpy functions that call its BLAS for float arrays.
BLAS_FUNCTIONS = {"dot", "matmul", "inner", "vdot", "tensordot"}


def numpy_blas_uses(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each construct of ``tree`` that reaches numpy's BLAS."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append((node.lineno, "the @ operator"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.value.id in NUMPY and node.attr in BLAS_FUNCTIONS | {"linalg"}:
                found.append((node.lineno, f"{node.value.id}.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            names = {alias.name for alias in node.names}
            if node.module == "numpy.linalg" or names & (BLAS_FUNCTIONS | {"linalg"}):
                found.append((node.lineno, f"from {node.module} import"))
        elif isinstance(node, ast.Import):
            if any(alias.name == "numpy.linalg" for alias in node.names):
                found.append((node.lineno, "import numpy.linalg"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            func = node.func
            if func.attr == "dot" and not (
                isinstance(func.value, ast.Name) and func.value.id in NUMPY
            ):
                found.append((node.lineno, "a .dot() method call"))
            if func.attr == "einsum" and any(k.arg == "optimize" for k in node.keywords):
                found.append((node.lineno, "einsum with optimize"))
    return sorted(found)


def test_sources_are_found():
    names = {p.name for p in SOURCES}
    assert {"fourier.py", "classifier.py", "precision.py", "streaming.py"} <= names
    assert "reference.py" not in names


def test_no_source_reaches_numpys_blas():
    offences = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in numpy_blas_uses(ast.parse(path.read_text(), str(path)))
    ]
    assert not offences, "numpy BLAS on the run path:\n" + "\n".join(offences)


def test_the_check_catches_each_construct():
    snippets = {
        "a @ b": 1,
        "a @= b": 1,
        "np.dot(a, b)": 1,
        "numpy.matmul(a, b)": 1,
        "np.inner(a, b) + np.vdot(a, b) + np.tensordot(a, b)": 3,
        "a.dot(b)": 1,
        "np.linalg.solve(a, b)": 1,
        "from numpy.linalg import cholesky": 1,
        "from numpy import dot": 1,
        "import numpy.linalg": 1,
        "np.einsum('ij,jk->ik', a, b, optimize=True)": 1,
        "np.einsum('ec,ec->c', a, b)": 0,
        "ddot(a, a) + sgemm(1.0, a, b, trans_a=1)": 0,
        "np.maximum(a, 0.0, out=a)": 0,
    }
    for source, count in snippets.items():
        assert len(numpy_blas_uses(ast.parse(source))) == count, source
