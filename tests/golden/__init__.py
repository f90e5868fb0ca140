"""A golden run record: what a fixed grid of small runs produces, so that
"results unchanged" is one check.

``runs.jsonl`` holds a header line with the BLAS fingerprint it was
written under, then one line per run of ``GRID``: the run's
``RunResult.to_json()`` without ``wall_time_seconds`` and
``peak_rss_bytes``, which are measurements, not results.  The grid
covers all five variants, flips on and off, both scatter forms (train
sizes on both sides of ``precision.low_rank_fits``: at E = 256 and
C = 10 the factor form holds up to a rank bound of 12), ``eval_every``
0 and one cut, and a features set for ``rp_relu``, at E <= 256.  The
data are glyphs (``glyphs.py``), made by the tests' own code, so a
change to the program's I/O cannot change the inputs.

A run's bits depend on the BLAS build and its thread count, so the
record is compared in one of two ways (``test_golden.py``):

* under the fingerprint it was written with, to the byte;
* under any other, every count, ``state_bytes``, ``factor_rank``,
  setting and accuracy exactly, and rho, mu and log det within a
  relative REL_TOL.  The embedding is float32: a different BLAS rounds
  the projection differently in the last of float32's bits (about
  6e-8 relative), and the diagnostics, sums over a few hundred such
  entries, move by a few times that.  REL_TOL = 1e-5 leaves two orders
  of magnitude above it.  (One BLAS thread instead of two changes only
  the float64 reductions: rho and log det then moved by at most 5.8e-16
  relative.)  ``numpy_version`` in the settings is not compared in this
  mode.

Rewrite the record with ``python -m tests.golden --write`` from the
repository root; without ``--write`` the module prints every run and
field that differs from the record, old and new, and exits 1 if any
does.  A change that moves a result lists those lines.
"""

from __future__ import annotations

import ctypes
import json
import math
import os
import sys
from pathlib import Path

_TESTS = Path(__file__).resolve().parent.parent
# run as `python -m tests.golden`: the generator and this checkout's src/
for _path in (str(_TESTS.parent / "src"), str(_TESTS)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

from glyphs import glyph_dataset, glyph_features  # noqa: E402
from randumb import run_on_dataset  # noqa: E402

RECORD = Path(__file__).with_name("runs.jsonl")
MEASURED = ("wall_time_seconds", "peak_rss_bytes")
LOOSE = ("shrinkage_rho", "shrinkage_mu", "log_det")
REL_TOL = 1e-5

# Data sets by name: (generator, seed, train, test).  "few" and "pairs"
# are small enough for the factor form at E = 256: a rank bound of
# 20 - 10 without flips and 2 * 10 - 10 with them.
DATA = {
    "images": (glyph_dataset, 1, 200, 100),
    "few": (glyph_dataset, 2, 20, 100),
    "pairs": (glyph_dataset, 3, 10, 100),
    "features": (glyph_features, 4, 200, 100),
    "few-features": (glyph_features, 5, 20, 100),
}

# (data set, run settings); each run also takes SHARED.
SHARED = {"embed_dim": 256, "gamma": 1e-3, "seed": 1}
GRID = [
    (name, {"variant": variant, "augment": augment, "eval_every": eval_every})
    for variant in ("randumb", "kernel_ncm", "slda", "ncm", "rp_relu")
    for name, augment, eval_every in (
        ("images", False, 0),
        ("images", True, 64),
        ("few", False, 8),
        ("pairs", True, 0),
    )
] + [
    ("features", {"variant": "rp_relu", "augment": False, "eval_every": 0}),
    ("features", {"variant": "rp_relu", "augment": False, "eval_every": 50}),
    ("few-features", {"variant": "rp_relu", "augment": False, "eval_every": 0}),
    ("few-features", {"variant": "randumb", "augment": False, "eval_every": 6}),
]


def runs() -> list[dict]:
    """The grid's results in order, each without the measured fields."""
    made = {name: make(seed, train, test) for name, (make, seed, train, test) in DATA.items()}
    out = []
    for name, settings in GRID:
        result = run_on_dataset(made[name], **SHARED, **settings).to_json()
        for key in MEASURED:
            del result[key]
        out.append(result)
    return out


# OpenBLAS's exported (thread count, config string) entry points, as
# scipy's and numpy's builds name them
_OPENBLAS_ENTRY_POINTS = [
    (f"{prefix}_get_num_threads{suffix}", f"{prefix}_get_config{suffix}")
    for prefix in ("scipy_openblas", "openblas")
    for suffix in ("64_", "")
]


def fingerprint() -> list[dict]:
    """Every OpenBLAS loaded into this process: file, config string and
    thread count, read as the benchmark's provenance reads them."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            maps = f.read().splitlines()
    except OSError:
        return []
    paths = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for threads_name, config_name in _OPENBLAS_ENTRY_POINTS:
            if hasattr(lib, threads_name) and hasattr(lib, config_name):
                threads, config = getattr(lib, threads_name), getattr(lib, config_name)
                threads.restype, config.restype = ctypes.c_int, ctypes.c_char_p
                found.append({
                    "library": os.path.basename(path),
                    "config": config().decode().strip(),
                    "threads": threads(),
                })
                break
    return found


def lines(results: list[dict]) -> list[str]:
    """The record's lines: the fingerprint header, then one per run."""
    return [json.dumps({"fingerprint": fingerprint()})] + [json.dumps(r) for r in results]


def read() -> tuple[list[dict], list[dict]]:
    """(the recorded fingerprint, the recorded runs)."""
    header, *recorded = RECORD.read_text(encoding="utf-8").splitlines()
    return json.loads(header)["fingerprint"], [json.loads(line) for line in recorded]


def differences(recorded: list[dict], current: list[dict], exact: bool = True) -> list[str]:
    """One line per run and field where ``current`` differs from
    ``recorded``, old and new; with ``exact`` False, LOOSE fields only
    beyond REL_TOL, and numpy_version not at all."""
    out = []

    def walk(path, old, new, run):
        if isinstance(old, dict) and isinstance(new, dict):
            for key in dict.fromkeys([*old, *new]):
                if not exact and key == "numpy_version":
                    continue
                walk(f"{path}.{key}" if path else key, old.get(key), new.get(key), run)
        elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
            for i, (a, b) in enumerate(zip(old, new)):
                walk(f"{path}[{i}]", a, b, run)
        elif old != new and not (
            not exact and path in LOOSE and None not in (old, new)
            and math.isclose(old, new, rel_tol=REL_TOL, abs_tol=0.0)
        ):
            out.append(f"run {run}: {path}: {old!r} -> {new!r}")

    if len(recorded) != len(current):
        out.append(f"{len(recorded)} runs recorded, {len(current)} made")
    for run, (old, new) in enumerate(zip(recorded, current)):
        walk("", old, new, f"{run} ({GRID[run][0]}, {GRID[run][1]})")
    return out
