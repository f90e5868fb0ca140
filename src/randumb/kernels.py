"""The BLAS and LAPACK routines a run calls: scipy's own f2py wrappers.

numpy and scipy each ship an OpenBLAS with its own thread pool, and
the RFP LAPACK routines exist only in scipy's, so every dense kernel of
the program is one of the ten below and runs in scipy's OpenBLAS
(``tests/test_one_blas.py``).

They live in two extension modules, ``scipy.linalg._fblas`` and
``_flapack``.  Importing them the usual way runs ``scipy/linalg/__init__``
first, which loads a few hundred modules the program never calls
(``numpy.testing``, ``numpy.f2py``, ``numpy.ma``, ...): about 0.2 s
and 17 MiB of start-up, more than a small run takes.  So this module
finds the two extension files in scipy's ``linalg`` directory and
executes only them.  Each is registered in ``sys.modules`` under its
usual name, so a later ``import scipy.linalg`` reuses it, and
``scipy.linalg.blas.dgemm`` is the very routine bound here.  A module
already imported is reused.  There is no other way in: a missing
module raises ImportError naming the directory searched.
"""

from __future__ import annotations

import sys
from importlib.machinery import PathFinder
from importlib.util import module_from_spec
from pathlib import Path

import scipy

LINALG_DIR = str(Path(scipy.__path__[0]) / "linalg")


def _load(name: str):
    """The extension module ``scipy.linalg.<name>``, without ``scipy.linalg``."""
    qualified = f"scipy.linalg.{name}"
    if qualified in sys.modules:
        return sys.modules[qualified]
    spec = PathFinder.find_spec(qualified, [LINALG_DIR])
    if spec is None:
        raise ImportError(
            f"no extension module {qualified} in {LINALG_DIR}", name=qualified, path=LINALG_DIR
        )
    module = module_from_spec(spec)
    spec.loader.exec_module(module)
    sys.modules[qualified] = module
    return module


_fblas = _load("_fblas")
_flapack = _load("_flapack")

sgemm = _fblas.sgemm
dgemm = _fblas.dgemm
dsyrk = _fblas.dsyrk
ddot = _fblas.ddot
dsfrk = _flapack.dsfrk
dsyevd = _flapack.dsyevd
dtfttr = _flapack.dtfttr
dpftrf = _flapack.dpftrf
dpftrs = _flapack.dpftrs
dtrttf = _flapack.dtrttf
