"""The benchmark's workloads: run settings, expected accuracy, and the
seeded generators that write each workload's files in the on-disk
formats ``randumb.load_dataset`` reads (IDX, CIFAR-100 binary, RDFB).

The table is plain data so the orchestrator can read it without
importing numpy; the generators import numpy when they run.  The files
are written by this module's own encoders, not by the program's writers,
so a change to the program's I/O cannot change the inputs.
"""

from __future__ import annotations

import struct
from pathlib import Path

# Every workload is one `randumb run`: load_dataset(dataset, dir) followed
# by run_on_dataset(data, **run).  "data" sizes the generated files;
# "accuracy" is the average_accuracy measured at the seed commit (median
# over seeds 1..5) that every run is checked against, within the accuracy
# bound of BENCHMARK.json.  README.md says why each workload is here.
WORKLOADS = {
    "ingest-mnist-e6144": {
        "dataset": "mnist",
        "data": {"train_per_class": 30, "test_per_class": 200, "noise": 1.55},
        "run": {
            "variant": "randumb",
            "embed_dim": 6144,
            "gamma": 2e-3,
            "classes_per_task": 1,
            "augment": False,
        },
        "accuracy": 0.929,
    },
    "finalize-features-e8192": {
        "dataset": "features",
        "data": {
            "classes": 20, "dim": 512, "train_per_class": 8, "test_per_class": 200,
            "mixing": 1.0, "noise": 1.9,
        },
        "run": {
            "variant": "rp_relu",
            "embed_dim": 8192,
            "classes_per_task": 1,
            "augment": False,
        },
        "accuracy": 0.973,
    },
    "ingest-cifar100-kncm-flip": {
        "dataset": "cifar100",
        "data": {"train_per_class": 50, "test_per_class": 20, "noise": 1.2},
        "run": {
            "variant": "kernel_ncm",
            "embed_dim": 2048,
            "gamma": 5e-4,
            "classes_per_task": 10,
            "augment": True,
        },
        "accuracy": 0.8505,
    },
}

# Sizes for the self-test: every layer still runs, in about a second.
TINY = {
    "ingest-mnist-e6144": {
        "data": {"train_per_class": 4, "test_per_class": 6},
        "run": {"embed_dim": 64},
    },
    "finalize-features-e8192": {
        "data": {"classes": 20, "dim": 32, "train_per_class": 3, "test_per_class": 4},
        "run": {"embed_dim": 96},
    },
    "ingest-cifar100-kncm-flip": {
        "data": {"train_per_class": 2, "test_per_class": 2},
        "run": {"embed_dim": 64},
    },
}


def settings(name: str, tiny: bool = False) -> dict:
    """The workload's table entry, with the self-test sizes merged in."""
    spec = WORKLOADS[name]
    out = {
        "name": name,
        "dataset": spec["dataset"],
        "data": dict(spec["data"]),
        "run": dict(spec["run"]),
        "accuracy": None if tiny else spec["accuracy"],
    }
    if tiny:
        out["data"].update(TINY[name]["data"])
        out["run"].update(TINY[name]["run"])
    return out


def num_classes(ws: dict) -> int:
    return ws["data"].get("classes", 100 if ws["dataset"] == "cifar100" else 10)


def stream_length(ws: dict) -> int:
    """observe calls a full run must make: one per train sample, two with flips."""
    n = num_classes(ws) * ws["data"]["train_per_class"]
    return 2 * n if ws["run"]["augment"] else n


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def _balanced_labels(rng, classes: int, per_class: int):
    import numpy as np

    y = np.repeat(np.arange(classes, dtype=np.int64), per_class)
    rng.shuffle(y)
    return y


def _smooth_fields(rng, count: int, shape: tuple[int, ...], grid: int):
    """Low-frequency random fields: a coarse normal grid, bilinearly upsampled."""
    import numpy as np

    *lead, h, w = shape
    coarse = rng.standard_normal((count, *lead, grid, grid))
    ys = np.linspace(0, grid - 1, h)
    xs = np.linspace(0, grid - 1, w)
    y0 = np.minimum(ys.astype(int), grid - 2)
    x0 = np.minimum(xs.astype(int), grid - 2)
    fy = (ys - y0)[:, None]
    fx = (xs - x0)[None, :]
    c00 = coarse[..., y0[:, None], x0[None, :]]
    c01 = coarse[..., y0[:, None], x0[None, :] + 1]
    c10 = coarse[..., y0[:, None] + 1, x0[None, :]]
    c11 = coarse[..., y0[:, None] + 1, x0[None, :] + 1]
    return (c00 * (1 - fy) * (1 - fx) + c01 * (1 - fy) * fx
            + c10 * fy * (1 - fx) + c11 * fy * fx)


def _images(rng, prototypes, labels, noise: float, shift: int):
    """Prototype of each label, shifted by up to ``shift`` pixels, plus
    pixel noise, mapped to u8."""
    import numpy as np

    n = len(labels)
    x = prototypes[labels].copy()
    dy = rng.integers(-shift, shift + 1, n)
    dx = rng.integers(-shift, shift + 1, n)
    for sy, sx in set(zip(dy.tolist(), dx.tolist())):
        rows = np.flatnonzero((dy == sy) & (dx == sx))
        x[rows] = np.roll(x[rows], (sy, sx), axis=(-2, -1))
    x += noise * rng.standard_normal(x.shape)
    return np.clip(np.rint(127.5 + 60.0 * x), 0, 255).astype(np.uint8)


def _write_idx(path: Path, array) -> None:
    import numpy as np

    magic = 0x00000803 if array.ndim == 3 else 0x00000801
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">I{array.ndim}I", magic, *array.shape))
        fh.write(np.ascontiguousarray(array, dtype=np.uint8).tobytes())


def _write_cifar100(path: Path, images, labels) -> None:
    import numpy as np

    n = len(labels)
    records = np.empty((n, 2 + 3072), dtype=np.uint8)
    records[:, 0] = labels // 5  # coarse label; load_dataset reads the fine byte
    records[:, 1] = labels
    records[:, 2:] = images.reshape(n, 3072)
    path.write_bytes(records.tobytes())


def _write_rdfb(path: Path, vectors, labels) -> None:
    import numpy as np

    n, dim = vectors.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sIIIB3x", b"RDFB", 1, n, dim, 0))
        fh.write(np.ascontiguousarray(vectors, dtype="<f4").tobytes())
        fh.write(np.asarray(labels, dtype="<u4").tobytes())


def generate(ws: dict, seed: int, root: Path) -> list[Path]:
    """Write the workload's train and test files under ``root``; return them.

    Every class gets exactly ``train_per_class`` train and
    ``test_per_class`` test samples, so no class of the stream is empty.
    """
    import numpy as np

    # The class structure (prototypes, means, mixing) is one fixed
    # population per workload; the seed draws the samples, like drawing a
    # fresh split of a fixed dataset, so accuracy is comparable across seeds.
    population = np.random.default_rng(sum(map(ord, ws["name"])))
    rng = np.random.default_rng([seed, 0x5EED])
    d = ws["data"]
    classes = num_classes(ws)
    train_y = _balanced_labels(rng, classes, d["train_per_class"])
    test_y = _balanced_labels(rng, classes, d["test_per_class"])
    dataset = ws["dataset"]
    out = root / dataset
    out.mkdir(parents=True, exist_ok=True)
    if dataset == "mnist":
        protos = _smooth_fields(population, classes, (28, 28), 6)
        files = {
            "train-images-idx3-ubyte": _images(rng, protos, train_y, d["noise"], 2),
            "train-labels-idx1-ubyte": train_y,
            "t10k-images-idx3-ubyte": _images(rng, protos, test_y, d["noise"], 2),
            "t10k-labels-idx1-ubyte": test_y,
        }
        for name, array in files.items():
            _write_idx(out / name, array)
        return [out / name for name in files]
    if dataset == "cifar100":
        protos = _smooth_fields(population, classes, (3, 32, 32), 5)
        _write_cifar100(out / "train.bin", _images(rng, protos, train_y, d["noise"], 2), train_y)
        _write_cifar100(out / "test.bin", _images(rng, protos, test_y, d["noise"], 2), test_y)
        return [out / "train.bin", out / "test.bin"]
    if dataset == "features":
        dim = d["dim"]
        means = population.standard_normal((classes, dim))
        mixing = population.standard_normal((dim, 16)) * d["mixing"]

        def draw(y):
            z = rng.standard_normal((len(y), 16))
            eps = rng.standard_normal((len(y), dim))
            return means[y] + z @ mixing.T + d["noise"] * eps

        _write_rdfb(out / "train.rdfb", draw(train_y), train_y)
        _write_rdfb(out / "test.rdfb", draw(test_y), test_y)
        return [out / "train.rdfb", out / "test.rdfb"]
    raise ValueError(f"no generator for dataset {dataset!r}")
