"""Shared helpers: synthetic class data, memory measurement and
dataset-availability gating."""

import os
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import randumb

# The suite tests this checkout: pyproject.toml puts its src/ on the path.
# An installed copy found first would be tested in its place, silently.
_SRC = Path(__file__).resolve().parent.parent / "src"
if not Path(randumb.__file__).resolve().is_relative_to(_SRC):
    raise ImportError(f"randumb imported from {randumb.__file__}, not {_SRC}")


def traced_peak(fn, *args):
    """(fn(*args), the peak bytes tracemalloc saw allocated during the call)."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child_peak_rss(code: str, timeout: float = 120) -> tuple[int, str]:
    """Run ``python -c code`` with this checkout's src/ on the path.

    Returns (peak RSS in bytes, stdout and stderr).  The peak is the
    child's ``ru_maxrss`` as ``os.wait4`` reports it, the way the
    benchmark measures a run.  A child that exits non-zero, or is killed
    after ``timeout`` seconds, fails the calling test with its output.
    """
    env = {**os.environ, "PYTHONPATH": str(_SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.Popen(
        [sys.executable, "-c", code], stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, env=env, text=True,
    )
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        output = proc.stdout.read()
    finally:
        timer.cancel()
        proc.stdout.close()
        # wait4, not Popen.wait: only it returns the child's rusage.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    assert proc.returncode == 0, output
    return usage.ru_maxrss * 1024, output  # Linux reports KiB


def paired_halves(spec):
    """A and B of a paired spec, folded by hand from the unpaired draw
    W0 at D/2 rows: per image row of W0, p = (a_j + a_j') / 2 and
    q = (a_j - a_j') / 2 over the mirror pairs (j, j') in float32, then
    a middle column whole into A."""
    from randumb.fourier import FeatureMapSpec, build_map

    rows, width = spec.num_bases // 2, spec.mirror_width
    half = width // 2
    iid = build_map(FeatureMapSpec(
        spec.head, spec.input_dim, 2 * rows if spec.head == "fourier" else rows,
        spec.seed, gamma=spec.gamma,
    ))
    runs = iid.weights.reshape(-1, width)
    left, right = runs[:, :half], runs[:, ::-1][:, :half]
    sums = np.concatenate([(left + right) * np.float32(0.5), runs[:, half : width - half]], 1)
    return sums.reshape(rows, -1), ((left - right) * np.float32(0.5)).reshape(rows, -1)


def gaussian_blobs(rng, num_classes, dim, per_class, spread=2.0, noise=1.0):
    """Balanced labeled clusters with Gaussian class centers.

    Returns (X float32 (n, dim), y int64 (n,)) in shuffled order.
    """
    centers = rng.standard_normal((num_classes, dim)) * spread
    X = np.concatenate(
        [centers[i] + noise * rng.standard_normal((per_class, dim)) for i in range(num_classes)]
    )
    y = np.repeat(np.arange(num_classes), per_class)
    perm = rng.permutation(len(y))
    return X[perm].astype(np.float32), y[perm].astype(np.int64)


def blob_dataset(seed=0, num_classes=5, dim=12, train_per_class=60, test_per_class=30,
                 spread=2.5):
    """A RawDataset of feature vectors drawn from Gaussian blobs."""
    from randumb import dataset_from_features

    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((num_classes, dim)) * spread
    def draw(per_class):
        X = np.concatenate(
            [centers[i] + rng.standard_normal((per_class, dim)) for i in range(num_classes)]
        )
        y = np.repeat(np.arange(num_classes), per_class)
        perm = rng.permutation(len(y))
        return X[perm].astype(np.float32), y[perm].astype(np.int64)
    Xtr, ytr = draw(train_per_class)
    Xte, yte = draw(test_per_class)
    return dataset_from_features(Xtr, ytr, Xte, yte)


def assert_refused(path, match):
    """Loading the checkpoint at ``path`` fails with a DataFormatError
    (exit code 3) whose message starts with the path and matches ``match``."""
    from randumb import StreamingClassifier
    from randumb.errors import DataFormatError

    with pytest.raises(DataFormatError, match=match) as info:
        StreamingClassifier.load(path)
    assert info.value.exit_code == 3
    assert str(info.value).startswith(f"{path}: ")


def data_dir() -> Path:
    return Path(os.environ.get("RANDUMB_DATA_DIR", "data"))


def require_mnist() -> Path:
    """Skip the calling test when the MNIST files are not on disk."""
    base = data_dir()
    for sub in (base / "mnist", base / "MNIST" / "raw", base):
        if (sub / "train-images-idx3-ubyte").exists() or (
            sub / "train-images-idx3-ubyte.gz"
        ).exists():
            return base
    pytest.skip(
        f"MNIST files not found under {base} (set RANDUMB_DATA_DIR); "
        f"this criterion needs the real dataset"
    )


def require_cifar10() -> Path:
    base = data_dir()
    for sub in (base / "cifar10", base / "cifar-10-batches-bin", base):
        if (sub / "data_batch_1.bin").exists():
            return base
    pytest.skip(
        f"CIFAR-10 binary batches not found under {base} (set RANDUMB_DATA_DIR); "
        f"this criterion needs the real dataset"
    )


def require_full_scale() -> None:
    if os.environ.get("RANDUMB_FULL_SCALE", "") != "1":
        pytest.skip(
            "full-scale run (~5 GB covariance accumulator, tens of CPU minutes); "
            "set RANDUMB_FULL_SCALE=1 to enable"
        )
