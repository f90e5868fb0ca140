"""Dataset loading, normalization, augmentation, and binary containers.

Three file formats are handled here:

* IDX (big-endian, magic 0x00000803 for u8 image tensors and 0x00000801
  for u8 label vectors), the MNIST distribution format.  Gzipped files
  are accepted transparently.
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
import os
import struct
import tempfile
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    ConfigurationError,
    DataError,
    DataFormatError,
    UnsupportedAugmentationError,
)

ORIGIN_ORIGINAL = "original"
ORIGIN_FLIPPED = "flipped"

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
    train_count: int = 1
    test_count: int = 1
    flip_default: bool = False
    default_ridge: float = 1e-4

    def __post_init__(self):
        if self.kind not in ("images", "features"):
            raise ConfigurationError(f"unknown dataset kind {self.kind!r}")
        if self.input_dim < 1 or self.num_classes < 1:
            raise ConfigurationError("input_dim and num_classes must be positive")
        if self.train_count < 1 or self.test_count < 1:
            raise ConfigurationError("sample counts must be positive")
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
        train_count=60000,
        test_count=10000,
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
        train_count=50000,
        test_count=10000,
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
        train_count=50000,
        test_count=10000,
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
        train_count=100000,
        test_count=10000,
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
        train_count=50000,
        test_count=10000,
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
    # label bytes per record, index of the byte to use, default class count
    "cifar10": (1, 0, 10),
    "cifar100_fine": (2, 1, 100),
}


def load_cifar_binary(
    path: str | Path, fmt: str = "cifar10", num_classes: int | None = None
):
    """Read one CIFAR-style binary file.

    Returns (images, labels) with images u8 of shape (N, 3, 32, 32) and
    labels int64 in [0, num_classes).
    """
    if fmt not in _CIFAR_FORMATS:
        raise ConfigurationError(
            f"unknown CIFAR format {fmt!r}; expected one of {sorted(_CIFAR_FORMATS)}"
        )
    label_bytes, label_index, default_classes = _CIFAR_FORMATS[fmt]
    if num_classes is None:
        num_classes = default_classes
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
    if labels.max(initial=0) >= num_classes:
        raise DataFormatError(
            f"{path}: label {int(labels.max())} out of range for "
            f"{num_classes} classes"
        )
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
    peak is the payload once, not the file plus a copy.
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
        arrays = {}
        offset = body_start
        for entry in header.get("arrays", []):
            shape = tuple(entry["shape"])
            if entry["dtype"] not in _RDCK_DTYPES or min(shape, default=0) < 0:
                raise DataFormatError(
                    f"{path}: array {entry['name']!r} has unsupported dtype "
                    f"{entry['dtype']!r} or shape {list(shape)}"
                )
            dtype = np.dtype(entry["dtype"])
            nbytes = dtype.itemsize * int(np.prod(shape, dtype=np.int64))
            if offset + nbytes > size:
                raise DataFormatError(
                    f"{path}: array {entry['name']!r} truncated at offset {offset}"
                )
            arr = np.empty(shape, dtype=dtype)
            if _read_into(fh, arr) != nbytes:
                raise DataFormatError(
                    f"{path}: array {entry['name']!r} truncated at offset {offset}"
                )
            arrays[entry["name"]] = arr
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

    Same arithmetic as the per-image path, applied to the whole tensor.
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
    scaled = images.astype(np.float32) / np.float32(255.0)
    if images.ndim == 3:
        out = (scaled - means[0]) / stds[0]
    else:
        out = (scaled - means[None, :, None, None]) / stds[None, :, None, None]
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

    Image datasets return u8 image tensors; the "features" dataset returns
    f32 vectors read from RDFB containers with a descriptor built from the
    file contents.
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
        classes = DESCRIPTORS[name].num_classes
        train = load_cifar_binary(_find_file(d, ["train.bin"]), "cifar10", classes)
        test = load_cifar_binary(_find_file(d, ["test.bin"]), "cifar10", classes)
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
    descriptor = replace(
        DESCRIPTORS[name], train_count=len(train[1]), test_count=len(test[1])
    )
    return RawDataset(descriptor, train[0], train[1], test[0], test[1])


def dataset_from_features(train_x, train_y, test_x, test_y, name="features"):
    """Build a RawDataset around in-memory feature vectors."""
    train_x = np.asarray(train_x, dtype=np.float32)
    test_x = np.asarray(test_x, dtype=np.float32)
    train_y = np.asarray(train_y, dtype=np.int64)
    test_y = np.asarray(test_y, dtype=np.int64)
    if train_x.ndim != 2 or test_x.ndim != 2 or train_x.shape[1] != test_x.shape[1]:
        raise DataError("train and test feature dimensions disagree")
    # Labels are class indices; the stream covers classes 0..C-1 only.
    for part, y in (("train", train_y), ("test", test_y)):
        if (y < 0).any():
            i = int(np.argmax(y < 0))
            raise DataError(f"{part} label at index {i} is {y[i]}; labels must be >= 0", row=i)
    num_classes = int(max(train_y.max(initial=0), test_y.max(initial=0))) + 1
    descriptor = DatasetDescriptor(
        name=name,
        kind="features",
        input_dim=train_x.shape[1],
        num_classes=num_classes,
        train_count=len(train_y),
        test_count=len(test_y),
        flip_default=False,
        default_ridge=1e-4,
    )
    return RawDataset(descriptor, train_x, train_y, test_x, test_y)
