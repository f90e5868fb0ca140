"""Shared helpers: synthetic class data and dataset-availability gating."""

import os
from pathlib import Path

import numpy as np
import pytest

import randumb

# The suite tests this checkout: pyproject.toml puts its src/ on the path.
# An installed copy found first would be tested in its place, silently.
_SRC = Path(__file__).resolve().parent.parent / "src"
if not Path(randumb.__file__).resolve().is_relative_to(_SRC):
    raise ImportError(f"randumb imported from {randumb.__file__}, not {_SRC}")


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
