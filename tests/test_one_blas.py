"""One BLAS: the program's dense kernels all run in scipy's OpenBLAS.

numpy and scipy each load their own OpenBLAS, each with its own thread
pool.  A call into one library right after a call into the other finds
the first pool's workers still spinning, so on two cores the two pools
slow each other down.  The RFP LAPACK routines exist only in scipy, so
every product goes through one of scipy's f2py routines, which
``randumb.kernels`` loads without ``scipy.linalg`` and no other module
of ``src`` imports, and nothing in ``src`` may reach numpy's BLAS.
``reference.py`` is exempt: its oracles use numpy on purpose, as an
independent implementation, and its kernel-matrix oracle alone loads
``scipy.spatial``.
"""

import ast
import json
import re
from pathlib import Path

import pytest

import randumb
from conftest import child_peak_rss

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


def scipy_imports(tree: ast.AST) -> list[int]:
    """The lines of ``tree`` that import from scipy."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if (isinstance(node, ast.Import)
            and any(alias.name.split(".")[0] == "scipy" for alias in node.names))
        or (isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "scipy")
    )


def test_only_the_loader_imports_scipy():
    offences = [
        f"{path.name}:{line}"
        for path in SOURCES
        if path.name != "kernels.py"
        for line in scipy_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert not offences, "scipy imported outside kernels.py:\n" + "\n".join(offences)
    for source, count in {"import scipy": 1, "import scipy.linalg as la": 1,
                          "from scipy.linalg.blas import dgemm": 1, "from scipy import linalg": 1,
                          "from .kernels import dgemm": 0, "import scipyish": 0}.items():
        assert len(scipy_imports(ast.parse(source))) == count, source


def test_import_leaves_scipy_linalg_unloaded():
    """The kernels come from scipy's two extension modules alone, so
    importing the package runs no ``scipy/linalg/__init__`` and none of
    the numpy submodules it would pull in."""
    heavy = ["scipy.linalg", "numpy.ma", "numpy.testing", "numpy.f2py"]
    _, output = child_peak_rss(
        f"import json, sys, randumb; print(json.dumps([m for m in {heavy!r} if m in sys.modules]))"
    )
    assert json.loads(output.splitlines()[-1]) == []


def test_bound_routines_are_scipys_own():
    """Each routine ``kernels`` binds is the very object ``scipy.linalg``
    exposes, imported after randumb, with the same Fortran entry point."""
    names = ("sgemm", "dgemm", "dsyrk", "ddot", "dsfrk", "dsyevd", "dtfttr", "dpftrf",
             "dpftrs", "dtrttf")
    _, output = child_peak_rss(
        "import json, randumb.kernels as k, scipy.linalg.blas as b, scipy.linalg.lapack as l\n"
        "same = {}\n"
        f"for name in {names!r}:\n"
        "    ours, theirs = getattr(k, name), getattr(b, name, None) or getattr(l, name)\n"
        "    same[name] = ours is theirs and ours._cpointer == theirs._cpointer\n"
        "print(json.dumps(same))"
    )
    assert json.loads(output.splitlines()[-1]) == dict.fromkeys(names, True)


def test_a_missing_extension_module_names_the_directory():
    from randumb import kernels

    with pytest.raises(ImportError, match=re.escape(kernels.LINALG_DIR)):
        kernels._load("_no_such_module")


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
