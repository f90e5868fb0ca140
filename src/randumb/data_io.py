"""Dataset loading, normalization, augmentation, and binary containers.

Three file formats are handled here:

* IDX (big-endian, magic 0x00000803 for u8 image tensors and 0x00000801
  for u8 label vectors), the MNIST distribution format.  Gzipped files
  are detected by their header and read the same way.
* CIFAR binary records: 1 label byte (CIFAR-10 style) or 2 label bytes
  (CIFAR-100, coarse then fine; the fine label is read) followed by 3072
  pixel bytes laid out as row-major R, G, B planes.
* RDFB, a little-endian feature-vector container used to ingest
  precomputed embeddings (for example frozen-backbone features):

      magic "RDFB" | u32 version=1 | u32 N | u32 dim | u8 dtype tag
      (0 = f32) | 3 pad bytes | N*dim little-endian f32 | N little-endian
      u32 labels

A fourth container, RDCK, serializes named float arrays plus a JSON
header and backs classifier checkpoints:

      magic "RDCK" | u32 version=1 | u32 header_len | header JSON (UTF-8)
      | raw little-endian array payloads in header order
"""

from __future__ import annotations

import gzip
import json
import math
import os
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DataFormatError,
    UnsupportedAugmentationError,
    check_int,
)

_IDX_IMAGE_MAGIC = 0x00000803
_IDX_LABEL_MAGIC = 0x00000801

_RDFB_MAGIC = b"RDFB"
_RDFB_HEADER = struct.Struct("<4sIIIB3x")  # magic, version, N, dim, dtype tag
_RDFB_DTYPE_F32 = 0

_RDCK_MAGIC = b"RDCK"
_RDCK_HEADER = struct.Struct("<4sII")  # magic, version, header_len


@dataclass(frozen=True)
class DatasetDescriptor:
    """Static description of a dataset: dimensions, classes, normalization
    constants, and per-dataset defaults used by the harness.

    ``kind`` is "images" for pixel datasets (normalize + flatten applies)
    and "features" for precomputed-vector datasets (ingested as-is).
    """

    name: str
    kind: str
    input_dim: int
    num_classes: int
    channel_means: tuple[float, ...] = ()
    channel_stds: tuple[float, ...] = ()
    image_shape: tuple[int, ...] | None = None
    flip_default: bool = False
    default_ridge: float = 1e-4

    def __post_init__(self):
        if self.kind not in ("images", "features"):
            raise ConfigurationError(f"unknown dataset kind {self.kind!r}")
        check_int("input_dim", self.input_dim, 1)
        check_int("num_classes", self.num_classes, 1)
        if self.kind == "images":
            if self.image_shape is None:
                raise ConfigurationError("image datasets need image_shape")
            if int(np.prod(self.image_shape)) != self.input_dim:
                raise ConfigurationError(
                    f"image_shape {self.image_shape} does not flatten to "
                    f"input_dim {self.input_dim}"
                )
            n_ch = self.image_shape[0] if len(self.image_shape) == 3 else 1
            if len(self.channel_means) != n_ch or len(self.channel_stds) != n_ch:
                raise ConfigurationError(
                    f"need {n_ch} per-channel normalization constants"
                )
            if any(s <= 0 for s in self.channel_stds):
                raise ConfigurationError("channel stds must be positive")

    @property
    def default_gamma(self) -> float | None:
        """The Fourier kernel width a run takes when none is given:
        1 / (2 * input_dim) for images, whose normalized pixels have about
        unit variance, so the kernel's exponent is about 1 between two
        unrelated images.  Feature vectors have no such scale: None."""
        return 1.0 / (2 * self.input_dim) if self.kind == "images" else None


# Normalization constants are the widely published per-channel values for
# each dataset; they are defaults, echoed into every run result, and can be
# replaced by constructing a custom descriptor.
DESCRIPTORS: dict[str, DatasetDescriptor] = {
    "mnist": DatasetDescriptor(
        name="mnist",
        kind="images",
        input_dim=784,
        num_classes=10,
        channel_means=(0.1307,),
        channel_stds=(0.3081,),
        image_shape=(28, 28),
        flip_default=False,
        default_ridge=1e-6,
    ),
    "cifar10": DatasetDescriptor(
        name="cifar10",
        kind="images",
        input_dim=3072,
        num_classes=10,
        channel_means=(0.4914, 0.4822, 0.4465),
        channel_stds=(0.2470, 0.2435, 0.2616),
        image_shape=(3, 32, 32),
        flip_default=True,
        default_ridge=1e-5,
    ),
    "cifar100": DatasetDescriptor(
        name="cifar100",
        kind="images",
        input_dim=3072,
        num_classes=100,
        channel_means=(0.5071, 0.4865, 0.4409),
        channel_stds=(0.2673, 0.2564, 0.2762),
        image_shape=(3, 32, 32),
        flip_default=True,
        default_ridge=1e-5,
    ),
    "tinyimagenet": DatasetDescriptor(
        name="tinyimagenet",
        kind="images",
        input_dim=3072,
        num_classes=200,
        channel_means=(0.4802, 0.4481, 0.3975),
        channel_stds=(0.2770, 0.2691, 0.2821),
        image_shape=(3, 32, 32),
        flip_default=True,
        default_ridge=1e-4,
    ),
    "miniimagenet": DatasetDescriptor(
        name="miniimagenet",
        kind="images",
        input_dim=3072,
        num_classes=100,
        channel_means=(0.485, 0.456, 0.406),
        channel_stds=(0.229, 0.224, 0.225),
        image_shape=(3, 32, 32),
        flip_default=True,
        default_ridge=1e-4,
    ),
}


# ---------------------------------------------------------------------------
# IDX (MNIST)
# ---------------------------------------------------------------------------


def _read_bytes(path: str | Path) -> bytes:
    raw = Path(path).read_bytes()
    if raw[:2] == b"\x1f\x8b":
        raw = gzip.decompress(raw)
    return raw


def _parse_idx(raw: bytes, path: str | Path) -> tuple[int, np.ndarray]:
    if len(raw) < 4:
        raise DataFormatError(f"{path}: bad magic, file truncated at offset 0")
    magic = struct.unpack(">I", raw[:4])[0]
    if magic == _IDX_IMAGE_MAGIC:
        ndim = 3
    elif magic == _IDX_LABEL_MAGIC:
        ndim = 1
    else:
        raise DataFormatError(f"{path}: bad magic 0x{magic:08x} at offset 0")
    header_end = 4 + 4 * ndim
    if len(raw) < header_end:
        raise DataFormatError(
            f"{path}: truncated dimension header at offset {len(raw)}"
        )
    dims = struct.unpack(f">{ndim}I", raw[4:header_end])
    expected = int(np.prod(dims))
    payload = raw[header_end:]
    if len(payload) != expected:
        raise DataFormatError(
            f"{path}: payload truncated at offset {header_end + len(payload)}: "
            f"expected {expected} bytes after header, found {len(payload)}"
        )
    data = np.frombuffer(payload, dtype=np.uint8).reshape(dims)
    return magic, data


def load_idx_images(path: str | Path) -> np.ndarray:
    """Read one IDX image file into a u8 tensor of shape (N, rows, cols)."""
    magic, data = _parse_idx(_read_bytes(path), path)
    if magic != _IDX_IMAGE_MAGIC:
        raise DataFormatError(
            f"{path}: expected image magic 0x{_IDX_IMAGE_MAGIC:08x}, "
            f"got 0x{magic:08x}"
        )
    return data


def load_idx_labels(path: str | Path) -> np.ndarray:
    """Read one IDX label file into an int64 vector of length N."""
    magic, data = _parse_idx(_read_bytes(path), path)
    if magic != _IDX_LABEL_MAGIC:
        raise DataFormatError(
            f"{path}: expected label magic 0x{_IDX_LABEL_MAGIC:08x}, "
            f"got 0x{magic:08x}"
        )
    return data.astype(np.int64)


def load_idx(images_path: str | Path, labels_path: str | Path):
    """Load a paired IDX image/label file set, enforcing count agreement."""
    images = load_idx_images(images_path)
    labels = load_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise DataFormatError(
            f"count mismatch: {images_path} holds {images.shape[0]} images but "
            f"{labels_path} holds {labels.shape[0]} labels"
        )
    return images, labels


# ---------------------------------------------------------------------------
# CIFAR binary
# ---------------------------------------------------------------------------

_CIFAR_FORMATS = {
    # label bytes per record, index of the byte to use
    "cifar10": (1, 0),
    "cifar100_fine": (2, 1),
}


def load_cifar_binary(path: str | Path, fmt: str = "cifar10"):
    """Read one CIFAR-style binary file.

    Returns (images, labels) with images u8 of shape (N, 3, 32, 32) and
    labels int64, each the record's label byte (the fine one for
    cifar100_fine); ``load_dataset`` checks them against the class count.
    """
    if fmt not in _CIFAR_FORMATS:
        raise ConfigurationError(
            f"unknown CIFAR format {fmt!r}; expected one of {sorted(_CIFAR_FORMATS)}"
        )
    label_bytes, label_index = _CIFAR_FORMATS[fmt]
    record = label_bytes + 3072
    raw = _read_bytes(path)
    if len(raw) == 0 or len(raw) % record != 0:
        raise DataFormatError(
            f"{path}: size {len(raw)} is not a positive multiple of the "
            f"{record}-byte record"
        )
    n = len(raw) // record
    data = np.frombuffer(raw, dtype=np.uint8).reshape(n, record)
    labels = data[:, label_index].astype(np.int64)
    images = data[:, label_bytes:].reshape(n, 3, 32, 32)
    return images, labels


# ---------------------------------------------------------------------------
# RDFB feature container
# ---------------------------------------------------------------------------


def write_feature_file(
    path: str | Path, vectors: np.ndarray, labels: np.ndarray
) -> None:
    """Write N feature vectors plus labels in the RDFB layout (bit-exact)."""
    vectors = np.ascontiguousarray(vectors, dtype="<f4")
    labels = np.asarray(labels)
    if vectors.ndim != 2 or vectors.shape[0] < 1 or vectors.shape[1] < 1:
        raise DataError("vectors must be a non-empty 2-D array")
    if labels.shape != (vectors.shape[0],):
        raise DataError(
            f"need one label per vector: {labels.shape} vs {vectors.shape[0]} vectors"
        )
    if not np.isfinite(vectors).all():
        raise DataError("feature vectors contain non-finite values")
    refuse_fractional_labels(labels, str(path))
    if labels.min(initial=0) < 0 or labels.max(initial=0) >= 2**32:
        raise DataError("labels must fit in an unsigned 32-bit integer")
    n, dim = vectors.shape
    header = _RDFB_HEADER.pack(_RDFB_MAGIC, 1, n, dim, _RDFB_DTYPE_F32)
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(vectors.tobytes())
        fh.write(labels.astype("<u4").tobytes())


def _read_into(fh, arr: np.ndarray) -> int:
    """Fill ``arr`` from the file's current position; returns bytes read."""
    return fh.readinto(arr.reshape(-1).view(np.uint8))


def load_feature_file(path: str | Path):
    """Read an RDFB container back into (vectors f32 (N, dim), labels int64).

    The payload is read straight into the returned vector array; the
    file is never held in memory as a second copy.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _RDFB_HEADER.size:
            raise DataFormatError(f"{path}: truncated header ({size} bytes)")
        magic, version, n, dim, dtype_tag = _RDFB_HEADER.unpack(
            fh.read(_RDFB_HEADER.size)
        )
        if magic != _RDFB_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r} at offset 0")
        if version != 1:
            raise DataFormatError(f"{path}: unsupported version {version}")
        if dtype_tag != _RDFB_DTYPE_F32:
            raise DataFormatError(f"{path}: unsupported dtype tag {dtype_tag}")
        if n < 1 or dim < 1:
            raise DataFormatError(f"{path}: empty container (N={n}, dim={dim})")
        vec_bytes = 4 * n * dim
        label_offset = _RDFB_HEADER.size + vec_bytes
        expected = label_offset + 4 * n
        if size != expected:
            raise DataFormatError(
                f"{path}: expected {expected} bytes for N={n}, dim={dim}, "
                f"found {size} (payload truncated or trailing garbage at "
                f"offset {min(size, expected)})"
            )
        vectors = np.empty((n, dim), dtype="<f4")
        labels = np.empty(n, dtype="<u4")
        if _read_into(fh, vectors) + _read_into(fh, labels) != expected - _RDFB_HEADER.size:
            raise DataFormatError(f"{path}: file shrank while it was read")
    if not np.isfinite(vectors).all():
        raise DataError(f"{path}: feature vectors contain non-finite values")
    return vectors, labels.astype(np.int64)


# ---------------------------------------------------------------------------
# RDCK checkpoint container
# ---------------------------------------------------------------------------

_RDCK_DTYPES = {"<f8", "<f4", "<i8", "<u8"}


def write_checkpoint(
    path: str | Path, meta: dict, arrays: dict[str, np.ndarray]
) -> None:
    """Serialize a JSON meta block plus named arrays, all little-endian.

    Array bytes are written straight from each C-ordered buffer, without
    a serialized copy.  The file is written under a temporary name in the
    same directory and moved over ``path`` only once it is complete and
    synced, so a crash mid-write leaves an earlier checkpoint intact.
    """
    manifest = []
    payloads = []
    for name, arr in arrays.items():
        arr = np.ascontiguousarray(arr)
        dtype = arr.dtype.newbyteorder("<").str
        if dtype not in _RDCK_DTYPES:
            raise DataError(f"array {name!r} has unsupported dtype {arr.dtype}")
        arr = arr.astype(dtype, copy=False)
        manifest.append({"name": name, "dtype": dtype, "shape": list(arr.shape)})
        payloads.append(arr)
    header = json.dumps({"meta": meta, "arrays": manifest}).encode("utf-8")
    path = Path(path)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(_RDCK_HEADER.pack(_RDCK_MAGIC, 1, len(header)))
            fh.write(header)
            for arr in payloads:
                fh.write(arr.reshape(-1).view(np.uint8))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_checkpoint(path: str | Path):
    """Read an RDCK container back into (meta dict, {name: array}).

    Each array is read straight into its own preallocated buffer, so the
    peak is the payload once, not the file plus a copy.  A manifest entry
    that is not an object with a new string name, a supported dtype and a
    list of sizes raises DataFormatError naming the path and its index.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        if size < _RDCK_HEADER.size:
            raise DataFormatError(f"{path}: truncated header ({size} bytes)")
        magic, version, header_len = _RDCK_HEADER.unpack(fh.read(_RDCK_HEADER.size))
        if magic != _RDCK_MAGIC:
            raise DataFormatError(f"{path}: bad magic {magic!r} at offset 0")
        if version != 1:
            raise DataFormatError(f"{path}: unsupported version {version}")
        body_start = _RDCK_HEADER.size + header_len
        if size < body_start:
            raise DataFormatError(f"{path}: truncated JSON header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataFormatError(f"{path}: unreadable JSON header: {exc}") from exc
        if not isinstance(header, dict) or not isinstance(header.get("meta", {}), dict):
            raise DataFormatError(f"{path}: JSON header or its 'meta' is not an object")
        manifest = header.get("arrays", [])
        if not isinstance(manifest, list):
            raise DataFormatError(f"{path}: JSON header's 'arrays' is not a list")
        arrays = {}
        offset = body_start
        for i, entry in enumerate(manifest):
            where = f"{path}: array entry {i}"
            if not isinstance(entry, dict):
                raise DataFormatError(f"{where} is not an object")
            name, dtype, shape = entry.get("name"), entry.get("dtype"), entry.get("shape")
            if not isinstance(name, str):
                raise DataFormatError(f"{where} has no string 'name'")
            if name in arrays:
                raise DataFormatError(f"{where} repeats the name {name!r}")
            if not isinstance(dtype, str) or dtype not in _RDCK_DTYPES:
                raise DataFormatError(f"{where} ({name!r}) has unsupported dtype {dtype!r}")
            # bool is an int subclass, but JSON true is no size
            if not isinstance(shape, list) or not all(
                type(n) is int and n >= 0 for n in shape
            ):
                raise DataFormatError(
                    f"{where} ({name!r}) has shape {shape!r}, not a list of sizes >= 0"
                )
            dtype = np.dtype(dtype)
            nbytes = dtype.itemsize * math.prod(shape)
            if offset + nbytes > size:
                raise DataFormatError(f"{path}: array {name!r} truncated at offset {offset}")
            arr = np.empty(shape, dtype=dtype)
            if _read_into(fh, arr) != nbytes:
                raise DataFormatError(f"{path}: array {name!r} truncated at offset {offset}")
            arrays[name] = arr
            offset += nbytes
        if offset != size:
            raise DataFormatError(f"{path}: {size - offset} trailing bytes")
    return header.get("meta", {}), arrays


# ---------------------------------------------------------------------------
# Normalization and augmentation
# ---------------------------------------------------------------------------


def normalize(image: np.ndarray, descriptor: DatasetDescriptor) -> np.ndarray:
    """Scale a u8 image to [0, 1], standardize per channel, flatten.

    Flattening is channel-major: all of channel 0, then channel 1, and so
    on, matching the raw layout of the CIFAR binary records.
    """
    if descriptor.kind != "images":
        raise ConfigurationError(f"{descriptor.name}: not an image dataset")
    if image.shape != descriptor.image_shape:
        raise DataError(
            f"image shape {image.shape} does not match descriptor "
            f"{descriptor.image_shape}"
        )
    means = np.asarray(descriptor.channel_means, dtype=np.float32)
    stds = np.asarray(descriptor.channel_stds, dtype=np.float32)
    scaled = image.astype(np.float32) / np.float32(255.0)
    if image.ndim == 2:
        out = (scaled - means[0]) / stds[0]
    else:
        out = (scaled - means[:, None, None]) / stds[:, None, None]
    return out.reshape(-1)


def normalize_batch(images: np.ndarray, descriptor: DatasetDescriptor) -> np.ndarray:
    """Vectorized ``normalize`` over a stack of images; returns (n, input_dim).

    Same arithmetic as the per-image path, in the same order, applied in
    place to one float32 copy of the stack: the output is the only
    allocation.
    """
    if descriptor.kind != "images":
        raise ConfigurationError(f"{descriptor.name}: not an image dataset")
    images = np.asarray(images)
    if images.shape[1:] != descriptor.image_shape:
        raise DataError(
            f"image batch shape {images.shape[1:]} does not match descriptor "
            f"{descriptor.image_shape}"
        )
    means = np.asarray(descriptor.channel_means, dtype=np.float32)
    stds = np.asarray(descriptor.channel_stds, dtype=np.float32)
    out = images.astype(np.float32)
    out /= np.float32(255.0)
    if images.ndim == 3:
        out -= means[0]
        out /= stds[0]
    else:
        out -= means[None, :, None, None]
        out /= stds[None, :, None, None]
    return out.reshape(images.shape[0], -1)


def flip_horizontal(images: np.ndarray) -> np.ndarray:
    """Mirror unflattened images left-right: columns, the last axis, are
    reversed per channel.  Takes one (H, W) or (C, H, W) image or a
    stack of them."""
    if images.ndim < 2:
        raise UnsupportedAugmentationError(
            "flip requires an unflattened image; feature vectors cannot be flipped"
        )
    return np.ascontiguousarray(images[..., ::-1])


# ---------------------------------------------------------------------------
# Dataset discovery
# ---------------------------------------------------------------------------


@dataclass
class RawDataset:
    """A loaded train/test split before normalization or streaming."""

    descriptor: DatasetDescriptor
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray


def _find_dir(data_dir: str | Path, names: list[str]) -> Path:
    base = Path(data_dir)
    for name in names:
        cand = base / name
        if cand.is_dir():
            return cand
    return base


def _find_file(directory: Path, names: list[str]) -> Path:
    for name in names:
        cand = directory / name
        if cand.is_file():
            return cand
    raise DataFormatError(
        f"none of {names} found under {directory}; see the README for the "
        f"expected dataset layout"
    )


def load_dataset(name: str, data_dir: str | Path) -> RawDataset:
    """Locate and load a named dataset under ``data_dir``.

    Image datasets return u8 image tensors, and a label of either split
    at or above the dataset's class count raises DataFormatError; the
    "features" dataset returns f32 vectors read from RDFB containers with
    a descriptor built from the file contents.
    """
    if name == "mnist":
        d = _find_dir(data_dir, ["mnist", "MNIST/raw", "MNIST"])
        train = load_idx(
            _find_file(d, ["train-images-idx3-ubyte", "train-images-idx3-ubyte.gz"]),
            _find_file(d, ["train-labels-idx1-ubyte", "train-labels-idx1-ubyte.gz"]),
        )
        test = load_idx(
            _find_file(d, ["t10k-images-idx3-ubyte", "t10k-images-idx3-ubyte.gz"]),
            _find_file(d, ["t10k-labels-idx1-ubyte", "t10k-labels-idx1-ubyte.gz"]),
        )
    elif name == "cifar10":
        d = _find_dir(data_dir, ["cifar10", "cifar-10-batches-bin"])
        batches = [
            load_cifar_binary(_find_file(d, [f"data_batch_{i}.bin"]), "cifar10")
            for i in range(1, 6)
        ]
        train = (
            np.concatenate([b[0] for b in batches]),
            np.concatenate([b[1] for b in batches]),
        )
        test = load_cifar_binary(_find_file(d, ["test_batch.bin"]), "cifar10")
    elif name == "cifar100":
        d = _find_dir(data_dir, ["cifar100", "cifar-100-binary"])
        train = load_cifar_binary(_find_file(d, ["train.bin"]), "cifar100_fine")
        test = load_cifar_binary(_find_file(d, ["test.bin"]), "cifar100_fine")
    elif name in ("tinyimagenet", "miniimagenet"):
        # Pre-downscaled 32x32 RGB images in CIFAR-10-style records.
        d = _find_dir(data_dir, [name])
        train = load_cifar_binary(_find_file(d, ["train.bin"]), "cifar10")
        test = load_cifar_binary(_find_file(d, ["test.bin"]), "cifar10")
    elif name == "features":
        d = _find_dir(data_dir, ["features"])
        train = load_feature_file(_find_file(d, ["train.rdfb"]))
        test = load_feature_file(_find_file(d, ["test.rdfb"]))
        return dataset_from_features(train[0], train[1], test[0], test[1])
    else:
        raise ConfigurationError(
            f"unknown dataset {name!r}; expected one of "
            f"{sorted(DESCRIPTORS) + ['features']}"
        )
    descriptor = DESCRIPTORS[name]
    for split, y in (("train", train[1]), ("test", test[1])):
        _refuse_labels_past(y, descriptor.num_classes, f"{name} {split}")
    return RawDataset(descriptor, train[0], train[1], test[0], test[1])


def _refuse_labels_past(y: np.ndarray, num_classes: int, split: str) -> None:
    """Raise DataFormatError naming ``split``, the first index and the label
    when a label of ``y`` is at or above ``num_classes``: it would be in no
    task of the stream and no row of the model."""
    if y.max(initial=0) >= num_classes:
        i = int(np.argmax(y >= num_classes))
        raise DataFormatError(
            f"{split} label at index {i} is {y[i]}, out of range for {num_classes} classes"
        )


def refuse_fractional_labels(y: np.ndarray, split: str) -> None:
    """Raise DataError naming ``split``, the first index and the label when
    a label of ``y`` is not a finite whole number: the cast to integer
    labels would truncate it without a word."""
    if y.dtype.kind == "f":
        bad = ~(np.isfinite(y) & (y == np.trunc(y)))
        if bad.any():
            i = int(np.argmax(bad))
            raise DataError(
                f"{split} label at index {i} is {y[i]}; labels must be whole numbers", row=i
            )


def as_class_labels(y: np.ndarray, split: str) -> np.ndarray:
    """``y`` as int64 class indices; a negative or fractional label raises
    DataError naming ``split``, the first such index and the label."""
    refuse_fractional_labels(y, split)
    if (y < 0).any():
        i = int(np.argmax(y < 0))
        raise DataError(f"{split} label at index {i} is {y[i]}; labels must be >= 0", row=i)
    return y.astype(np.int64, copy=False)


def dataset_from_features(train_x, train_y, test_x, test_y, name="features"):
    """Build a RawDataset around in-memory feature vectors.

    Labels are class indices, and the train split's largest fixes the
    class count C: a split whose vector and label counts differ, a
    non-finite vector, or a negative or fractional label raises DataError,
    and a test label at or above C raises DataFormatError."""
    train_x = np.asarray(train_x, dtype=np.float32)
    test_x = np.asarray(test_x, dtype=np.float32)
    if train_x.ndim != 2 or test_x.ndim != 2 or train_x.shape[1] != test_x.shape[1]:
        raise DataError("train and test feature dimensions disagree")
    labels = []
    for part, x, y in (("train", train_x, np.asarray(train_y)),
                       ("test", test_x, np.asarray(test_y))):
        if len(y) != len(x):
            raise DataError(f"{part} split holds {len(x)} vectors but {len(y)} labels")
        finite = np.isfinite(x).all(axis=1)
        if not finite.all():
            i = int(np.argmin(finite))
            raise DataError(f"{part} vector at index {i} is not finite", row=i)
        labels.append(as_class_labels(y, part))
    train_y, test_y = labels
    num_classes = int(train_y.max(initial=0)) + 1
    _refuse_labels_past(test_y, num_classes, f"{name} test")
    descriptor = DatasetDescriptor(
        name=name,
        kind="features",
        input_dim=train_x.shape[1],
        num_classes=num_classes,
        flip_default=False,
        default_ridge=1e-4,
    )
    return RawDataset(descriptor, train_x, train_y, test_x, test_y)
