"""Binary dataset formats, normalization, augmentation, and dataset
discovery.  Format tests build files byte by byte so the loaders are
checked against the layout itself, not against the writers."""

import errno
import gzip
import json
import os
import re
import struct

import numpy as np
import pytest

from randumb import (
    ConfigurationError,
    DataError,
    DataFormatError,
    DatasetDescriptor,
    UnsupportedAugmentationError,
    load_feature_file,
    write_feature_file,
)
from randumb.data_io import (
    DESCRIPTORS,
    dataset_from_features,
    flip_horizontal,
    load_cifar_binary,
    load_dataset,
    load_idx,
    load_idx_images,
    load_idx_labels,
    normalize,
    normalize_batch,
    read_checkpoint,
    write_checkpoint,
)
from randumb.precision import pack_upper

from conftest import traced_peak


def idx_image_bytes(images: np.ndarray) -> bytes:
    n, rows, cols = images.shape
    return struct.pack(">IIII", 0x00000803, n, rows, cols) + images.astype(np.uint8).tobytes()


def idx_label_bytes(labels) -> bytes:
    labels = np.asarray(labels, dtype=np.uint8)
    return struct.pack(">II", 0x00000801, len(labels)) + labels.tobytes()


class TestIdx:
    def test_images_roundtrip(self, tmp_path):
        images = np.arange(2 * 3 * 4, dtype=np.uint8).reshape(2, 3, 4)
        path = tmp_path / "imgs"
        path.write_bytes(idx_image_bytes(images))
        loaded = load_idx_images(path)
        assert loaded.dtype == np.uint8
        np.testing.assert_array_equal(loaded, images)

    def test_labels_roundtrip(self, tmp_path):
        path = tmp_path / "labels"
        path.write_bytes(idx_label_bytes([3, 1, 4, 1, 5]))
        loaded = load_idx_labels(path)
        assert loaded.dtype == np.int64
        np.testing.assert_array_equal(loaded, [3, 1, 4, 1, 5])

    def test_gzip_transparent(self, tmp_path):
        images = np.full((2, 2, 2), 7, dtype=np.uint8)
        path = tmp_path / "imgs.gz"
        path.write_bytes(gzip.compress(idx_image_bytes(images)))
        np.testing.assert_array_equal(load_idx_images(path), images)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad"
        path.write_bytes(struct.pack(">IIII", 0xDEADBEEF, 1, 2, 2) + b"\x00" * 4)
        with pytest.raises(DataFormatError, match="bad magic 0xdeadbeef at offset 0"):
            load_idx_images(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError, match="offset 0"):
            load_idx_images(path)

    def test_truncated_dimension_header(self, tmp_path):
        path = tmp_path / "short"
        raw = struct.pack(">II", 0x00000803, 2)  # 2 of 3 dims missing
        path.write_bytes(raw)
        with pytest.raises(DataFormatError, match=f"offset {len(raw)}"):
            load_idx_images(path)

    def test_truncated_payload_names_offset(self, tmp_path):
        path = tmp_path / "cut"
        full = idx_image_bytes(np.zeros((2, 3, 3), dtype=np.uint8))
        path.write_bytes(full[:-5])
        with pytest.raises(DataFormatError, match="payload truncated at offset"):
            load_idx_images(path)

    def test_magic_kind_mixup(self, tmp_path):
        img_path = tmp_path / "imgs"
        img_path.write_bytes(idx_image_bytes(np.zeros((1, 2, 2), dtype=np.uint8)))
        lab_path = tmp_path / "labels"
        lab_path.write_bytes(idx_label_bytes([0]))
        with pytest.raises(DataFormatError, match="expected label magic"):
            load_idx_labels(img_path)
        with pytest.raises(DataFormatError, match="expected image magic"):
            load_idx_images(lab_path)

    def test_count_mismatch(self, tmp_path):
        img_path = tmp_path / "imgs"
        img_path.write_bytes(idx_image_bytes(np.zeros((3, 2, 2), dtype=np.uint8)))
        lab_path = tmp_path / "labels"
        lab_path.write_bytes(idx_label_bytes([0, 1]))
        with pytest.raises(DataFormatError, match="count mismatch"):
            load_idx(img_path, lab_path)


class TestCifarBinary:
    def make_records(self, labels, label_bytes=1, pixel=0):
        out = bytearray()
        for lab in labels:
            if label_bytes == 1:
                out += bytes([lab])
            else:
                coarse, fine = lab
                out += bytes([coarse, fine])
            out += bytes([pixel]) * 3072
        return bytes(out)

    def test_cifar10_layout(self, tmp_path):
        path = tmp_path / "batch.bin"
        path.write_bytes(self.make_records([3, 9], pixel=200))
        images, labels = load_cifar_binary(path, "cifar10")
        assert images.shape == (2, 3, 32, 32)
        assert images.dtype == np.uint8
        assert (images == 200).all()
        np.testing.assert_array_equal(labels, [3, 9])

    def test_cifar100_fine_uses_second_byte(self, tmp_path):
        path = tmp_path / "train.bin"
        path.write_bytes(self.make_records([(7, 42), (19, 99)], label_bytes=2))
        _, fine = load_cifar_binary(path, "cifar100_fine")
        np.testing.assert_array_equal(fine, [42, 99])

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown CIFAR format"):
            load_cifar_binary(tmp_path / "x.bin", "cifar1000")

    def test_bad_record_size(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(self.make_records([1]) + b"\x00" * 7)
        with pytest.raises(DataFormatError, match="3073-byte record"):
            load_cifar_binary(path, "cifar10")

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(DataFormatError, match="positive multiple"):
            load_cifar_binary(path, "cifar10")

    def test_label_out_of_range(self, tmp_path):
        """load_dataset checks the labels against the dataset's class
        count: 11 is out of range for cifar10's 10 classes, but a
        tinyimagenet label in its 200."""
        d = tmp_path / "cifar10"
        d.mkdir()
        for i in range(1, 6):
            labels = [1, 11 if i == 3 else 2]
            (d / f"data_batch_{i}.bin").write_bytes(self.make_records(labels))
        (d / "test_batch.bin").write_bytes(self.make_records([0]))
        with pytest.raises(
            DataFormatError,
            match="cifar10 train label at index 5 is 11, out of range for 10 classes",
        ):
            load_dataset("cifar10", tmp_path)

        d = tmp_path / "tinyimagenet"
        d.mkdir()
        (d / "train.bin").write_bytes(self.make_records([11, 199]))
        (d / "test.bin").write_bytes(self.make_records([4, 11, 200]))
        with pytest.raises(DataFormatError, match="tinyimagenet test label at index 2 is 200"):
            load_dataset("tinyimagenet", tmp_path)
        (d / "test.bin").write_bytes(self.make_records([4, 11]))
        ds = load_dataset("tinyimagenet", tmp_path)
        np.testing.assert_array_equal(ds.train_y, [11, 199])


class TestFeatureFile:
    def test_roundtrip_bitwise(self, tmp_path):
        rng = np.random.default_rng(0)
        vectors = rng.standard_normal((10, 6)).astype(np.float32)
        labels = rng.integers(0, 5, size=10)
        path = tmp_path / "feat.rdfb"
        write_feature_file(path, vectors, labels)
        back_v, back_y = load_feature_file(path)
        np.testing.assert_array_equal(back_v, vectors)
        assert back_v.dtype == np.float32
        np.testing.assert_array_equal(back_y, labels)
        assert back_y.dtype == np.int64
        # Rewriting the loaded arrays reproduces the file byte for byte.
        second = tmp_path / "feat2.rdfb"
        write_feature_file(second, back_v, back_y)
        assert second.read_bytes() == path.read_bytes()

    def test_hand_written_container(self, tmp_path):
        vectors = np.array(
            [[1.0, 2.0, 3.0, 4.0], [5.0, 6.0, 7.0, 8.0], [-1.0, 0.0, 0.5, 0.25]],
            dtype="<f4",
        )
        labels = np.array([2, 0, 1], dtype="<u4")
        raw = (
            struct.pack("<4sIIIB3x", b"RDFB", 1, 3, 4, 0)
            + vectors.tobytes()
            + labels.tobytes()
        )
        path = tmp_path / "hand.rdfb"
        path.write_bytes(raw)
        back_v, back_y = load_feature_file(path)
        np.testing.assert_array_equal(back_v, vectors)
        np.testing.assert_array_equal(back_y, [2, 0, 1])

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (("magic", b"XXXX"), "bad magic"),
            (("version", 2), "unsupported version"),
            (("dtype", 1), "unsupported dtype tag"),
            (("n", 0), "empty container"),
        ],
    )
    def test_bad_headers(self, tmp_path, mutation, message):
        field, value = mutation
        magic, version, n, dim, dtype = b"RDFB", 1, 2, 3, 0
        if field == "magic":
            magic = value
        elif field == "version":
            version = value
        elif field == "dtype":
            dtype = value
        elif field == "n":
            n = value
        body = np.zeros((2, 3), dtype="<f4").tobytes() + np.zeros(2, dtype="<u4").tobytes()
        path = tmp_path / "bad.rdfb"
        path.write_bytes(struct.pack("<4sIIIB3x", magic, version, n, dim, dtype) + body)
        with pytest.raises(DataFormatError, match=message):
            load_feature_file(path)

    def test_truncated_and_trailing(self, tmp_path):
        path = tmp_path / "feat.rdfb"
        write_feature_file(path, np.ones((2, 3), dtype=np.float32), [0, 1])
        raw = path.read_bytes()
        short = tmp_path / "short.rdfb"
        short.write_bytes(raw[:-3])
        with pytest.raises(DataFormatError, match="truncated or trailing"):
            load_feature_file(short)
        long = tmp_path / "long.rdfb"
        long.write_bytes(raw + b"\x00")
        with pytest.raises(DataFormatError, match="truncated or trailing"):
            load_feature_file(long)

    def test_header_shorter_than_fixed_size(self, tmp_path):
        path = tmp_path / "stub.rdfb"
        path.write_bytes(b"RDFB\x01")
        with pytest.raises(DataFormatError, match="truncated header"):
            load_feature_file(path)

    def test_dim_mismatch_shifts_labels(self, tmp_path):
        # A wrong dim field makes the byte count disagree; the loader must
        # refuse rather than reinterpret label bytes as features.
        vectors = np.ones((4, 5), dtype="<f4")
        labels = np.arange(4, dtype="<u4")
        raw = struct.pack("<4sIIIB3x", b"RDFB", 1, 4, 6, 0) + vectors.tobytes() + labels.tobytes()
        path = tmp_path / "shift.rdfb"
        path.write_bytes(raw)
        with pytest.raises(DataFormatError):
            load_feature_file(path)

    def test_non_finite_rejected_on_write(self, tmp_path):
        bad = np.ones((2, 2), dtype=np.float32)
        bad[0, 1] = np.nan
        with pytest.raises(DataError, match="non-finite"):
            write_feature_file(tmp_path / "nan.rdfb", bad, [0, 1])
        bad[0, 1] = np.inf
        with pytest.raises(DataError, match="non-finite"):
            write_feature_file(tmp_path / "inf.rdfb", bad, [0, 1])

    def test_non_finite_rejected_on_load(self, tmp_path):
        vectors = np.array([[1.0, np.nan]], dtype="<f4")
        labels = np.array([0], dtype="<u4")
        raw = struct.pack("<4sIIIB3x", b"RDFB", 1, 1, 2, 0) + vectors.tobytes() + labels.tobytes()
        path = tmp_path / "nan.rdfb"
        path.write_bytes(raw)
        with pytest.raises(DataError, match="non-finite"):
            load_feature_file(path)

    def test_write_validation(self, tmp_path):
        with pytest.raises(DataError, match="2-D"):
            write_feature_file(tmp_path / "x.rdfb", np.ones(3, dtype=np.float32), [0])
        with pytest.raises(DataError, match="one label per vector"):
            write_feature_file(tmp_path / "x.rdfb", np.ones((2, 2), dtype=np.float32), [0])
        with pytest.raises(DataError, match="unsigned 32-bit"):
            write_feature_file(tmp_path / "x.rdfb", np.ones((2, 2), dtype=np.float32), [-1, 0])

    @pytest.mark.parametrize("bad", [1.7, float("nan"), float("inf")])
    def test_write_refuses_labels_that_are_not_whole(self, tmp_path, bad):
        """A fractional label would be truncated to an integer without a word."""
        path = tmp_path / "x.rdfb"
        with pytest.raises(DataError, match=f"label at index 1 is {bad}; labels must be whole"):
            write_feature_file(path, np.ones((3, 2), dtype=np.float32), [0.0, bad, 2.9])
        assert not path.exists()


class TestCheckpointContainer:
    def test_roundtrip(self, tmp_path):
        meta = {"kind": "test", "nested": {"a": [1, 2, 3]}, "flag": True}
        arrays = {
            "f8": np.linspace(0, 1, 7),
            "f4": np.ones((2, 3), dtype=np.float32),
            "i8": np.array([-5, 0, 5], dtype=np.int64),
            "u8": np.array([[1, 2], [3, 4]], dtype=np.uint64),
        }
        path = tmp_path / "state.rdck"
        write_checkpoint(path, meta, arrays)
        back_meta, back = read_checkpoint(path)
        assert back_meta == meta
        assert set(back) == set(arrays)
        for name, arr in arrays.items():
            np.testing.assert_array_equal(back[name], arr)
            assert back[name].dtype == arr.dtype
            assert back[name].shape == arr.shape

    def test_unsupported_dtype(self, tmp_path):
        with pytest.raises(DataError, match="unsupported dtype"):
            write_checkpoint(
                tmp_path / "x.rdck", {}, {"bad": np.zeros(3, dtype=np.int32)}
            )

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rdck"
        path.write_bytes(struct.pack("<4sII", b"NOPE", 1, 2) + b"{}")
        with pytest.raises(DataFormatError, match="bad magic"):
            read_checkpoint(path)

    def test_unreadable_json(self, tmp_path):
        body = b"{not json"
        path = tmp_path / "bad.rdck"
        path.write_bytes(struct.pack("<4sII", b"RDCK", 1, len(body)) + body)
        with pytest.raises(DataFormatError, match="unreadable JSON header"):
            read_checkpoint(path)

    @pytest.mark.parametrize("body", [b"[1]", b'{"meta": [1, 2], "arrays": []}'])
    def test_header_or_meta_not_an_object(self, tmp_path, body):
        path = tmp_path / "bad.rdck"
        path.write_bytes(struct.pack("<4sII", b"RDCK", 1, len(body)) + body)
        with pytest.raises(DataFormatError, match="is not an object"):
            read_checkpoint(path)

    def test_truncated_array(self, tmp_path):
        header = json.dumps(
            {"meta": {}, "arrays": [{"name": "v", "dtype": "<f8", "shape": [4]}]}
        ).encode()
        path = tmp_path / "cut.rdck"
        path.write_bytes(
            struct.pack("<4sII", b"RDCK", 1, len(header)) + header + b"\x00" * 16
        )
        with pytest.raises(DataFormatError, match="'v' truncated at offset"):
            read_checkpoint(path)

    @pytest.mark.parametrize(
        "arrays,message",
        [
            ({"v": {"name": "v"}}, r"'arrays' is not a list"),
            ([5], r"array entry 0 is not an object"),
            ([{"dtype": "<f8", "shape": [1]}], r"array entry 0 has no string 'name'"),
            ([{"name": 3, "dtype": "<f8", "shape": [1]}], r"array entry 0 has no string 'name'"),
            ([{"name": "v", "dtype": "<f8"}], r"array entry 0 \('v'\) has shape None"),
            ([{"name": "v", "shape": [1]}], r"array entry 0 \('v'\) has unsupported dtype None"),
            (
                [{"name": "v", "dtype": ["<f8"], "shape": [1]}],
                r"array entry 0 \('v'\) has unsupported dtype \['<f8'\]",
            ),
            ([{"name": "v", "dtype": "<f8", "shape": 1}], r"array entry 0 \('v'\) has shape 1"),
            ([{"name": "v", "dtype": "<f8", "shape": [1.5]}], r"has shape \[1.5\]"),
            ([{"name": "v", "dtype": "<f8", "shape": ["1"]}], r"has shape \['1'\]"),
            ([{"name": "v", "dtype": "<f8", "shape": [True]}], r"has shape \[True\]"),
            (
                [{"name": "v", "dtype": "<f8", "shape": [1]}] * 2,
                r"array entry 1 repeats the name 'v'",
            ),
        ],
        ids=[
            "arrays-not-a-list", "entry-not-an-object", "no-name", "name-not-a-string",
            "no-shape", "no-dtype", "dtype-not-a-string", "shape-not-a-list",
            "float-size", "string-size", "bool-size", "duplicate-name",
        ],
    )
    def test_malformed_manifest_entry(self, tmp_path, arrays, message):
        """Each malformed manifest raises DataFormatError naming the path
        and the entry, never a bare KeyError or TypeError."""
        header = json.dumps({"meta": {}, "arrays": arrays}).encode()
        # one float64 per entry, so a reader that skips the check finds a
        # well-sized payload
        payload = bytes(8 * len(arrays)) if isinstance(arrays, list) else b""
        path = tmp_path / "bad.rdck"
        path.write_bytes(struct.pack("<4sII", b"RDCK", 1, len(header)) + header + payload)
        with pytest.raises(DataFormatError, match=message) as info:
            read_checkpoint(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_trailing_bytes(self, tmp_path):
        path = tmp_path / "long.rdck"
        write_checkpoint(path, {"k": 1}, {"v": np.zeros(2)})
        path.write_bytes(path.read_bytes() + b"\xff\xff")
        with pytest.raises(DataFormatError, match="2 trailing bytes"):
            read_checkpoint(path)


class _FailingWriter:
    """A file stand-in that accepts ``limit`` bytes and then fails as a
    full disk would, part-way through a payload."""

    def __init__(self, fh, limit):
        self.fh, self.left = fh, limit

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        data = memoryview(data).cast("B")
        if len(data) > self.left:
            self.fh.write(data[: self.left])
            raise OSError(errno.ENOSPC, "No space left on device")
        self.left -= len(data)
        return self.fh.write(data)

    def flush(self):
        self.fh.flush()

    def fileno(self):
        return self.fh.fileno()


class TestCheckpointAtomicity:
    def test_failed_write_keeps_prior_checkpoint(self, tmp_path, monkeypatch):
        path = tmp_path / "state.rdck"
        write_checkpoint(path, {"step": 1}, {"v": np.arange(1000.0)})
        before = path.read_bytes()

        real_fdopen = os.fdopen
        monkeypatch.setattr(
            os, "fdopen", lambda fd, mode: _FailingWriter(real_fdopen(fd, mode), 4000)
        )
        with pytest.raises(OSError, match="No space left"):
            write_checkpoint(path, {"step": 2}, {"v": np.arange(2000.0)})
        monkeypatch.undo()

        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.rdck"]
        meta, arrays = read_checkpoint(path)
        assert meta == {"step": 1}

    def test_symmetric_fortran_array_written_without_a_copy(self, tmp_path):
        """A symmetric matrix is checkpointed as the packed vector of its
        upper triangle, which is written from its own buffer."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal((512, 512))
        packed = pack_upper(np.asfortranarray(a + a.T))
        path = tmp_path / "sym.rdck"
        _, peak = traced_peak(write_checkpoint, path, {}, {"scatter": packed})
        assert peak < 0.1 * packed.nbytes
        np.testing.assert_array_equal(read_checkpoint(path)[1]["scatter"], packed)

    def test_read_peak_is_the_payload_once(self, tmp_path):
        arrays = {"scatter": np.ones((512, 512)), "means": np.zeros((10, 512))}
        path = tmp_path / "state.rdck"
        write_checkpoint(path, {"kind": "x"}, arrays)
        payload = sum(a.nbytes for a in arrays.values())
        (_, back), peak = traced_peak(read_checkpoint, path)
        assert peak <= 1.1 * payload
        np.testing.assert_array_equal(back["scatter"], arrays["scatter"])

    def test_unsupported_dtype_in_header_rejected(self, tmp_path):
        header = json.dumps(
            {"meta": {}, "arrays": [{"name": "o", "dtype": "|O", "shape": [1]}]}
        ).encode()
        path = tmp_path / "obj.rdck"
        path.write_bytes(struct.pack("<4sII", b"RDCK", 1, len(header)) + header + bytes(8))
        with pytest.raises(DataFormatError, match="unsupported dtype"):
            read_checkpoint(path)

    def test_feature_file_read_holds_no_second_copy(self, tmp_path):
        """Vectors are read in place; only the finiteness mask (a quarter
        of the float32 payload) and the int64 labels come on top."""
        vectors = np.ones((2000, 128), dtype=np.float32)
        path = tmp_path / "f.rdfb"
        write_feature_file(path, vectors, np.arange(2000) % 7)
        (back, _), peak = traced_peak(load_feature_file, path)
        assert peak <= 1.4 * vectors.nbytes
        np.testing.assert_array_equal(back, vectors)


class TestDescriptor:
    def test_registry_shapes_flatten_to_input_dim(self):
        for name, d in DESCRIPTORS.items():
            if d.kind == "images":
                assert int(np.prod(d.image_shape)) == d.input_dim, name
                n_ch = d.image_shape[0] if len(d.image_shape) == 3 else 1
                assert len(d.channel_means) == n_ch
                assert len(d.channel_stds) == n_ch

    def test_registry_defaults(self):
        assert DESCRIPTORS["mnist"].default_ridge == 1e-6
        assert DESCRIPTORS["cifar10"].default_ridge == 1e-5
        assert DESCRIPTORS["cifar100"].default_ridge == 1e-5
        assert DESCRIPTORS["tinyimagenet"].default_ridge == 1e-4
        assert DESCRIPTORS["mnist"].flip_default is False
        assert DESCRIPTORS["cifar10"].flip_default is True

    def test_validation(self):
        with pytest.raises(ConfigurationError, match="kind"):
            DatasetDescriptor(name="x", kind="audio", input_dim=4, num_classes=2)
        with pytest.raises(ConfigurationError, match="image_shape"):
            DatasetDescriptor(name="x", kind="images", input_dim=4, num_classes=2)
        with pytest.raises(ConfigurationError, match="flatten"):
            DatasetDescriptor(
                name="x", kind="images", input_dim=5, num_classes=2,
                image_shape=(2, 2), channel_means=(0.5,), channel_stds=(0.5,),
            )
        with pytest.raises(ConfigurationError, match="normalization constants"):
            DatasetDescriptor(
                name="x", kind="images", input_dim=12, num_classes=2,
                image_shape=(3, 2, 2), channel_means=(0.5,), channel_stds=(0.5,),
            )
        with pytest.raises(ConfigurationError, match="stds must be positive"):
            DatasetDescriptor(
                name="x", kind="images", input_dim=4, num_classes=2,
                image_shape=(2, 2), channel_means=(0.5,), channel_stds=(0.0,),
            )

    @pytest.mark.parametrize(
        "input_dim,num_classes,refusal",
        [
            (8.0, 3, "input_dim must be an integer, got 8.0"),
            (True, 3, "input_dim must be an integer, got True"),
            (0, 3, "input_dim must be >= 1, got 0"),
            (8, 3.0, "num_classes must be an integer, got 3.0"),
            (8, 0, "num_classes must be >= 1, got 0"),
        ],
    )
    def test_sizes_are_exact_positive_ints(self, input_dim, num_classes, refusal):
        with pytest.raises(ConfigurationError, match=f"^{re.escape(refusal)}$"):
            DatasetDescriptor("x", "features", input_dim, num_classes)


class TestNormalize:
    def test_zero_image_mnist(self):
        d = DESCRIPTORS["mnist"]
        out = normalize(np.zeros((28, 28), dtype=np.uint8), d)
        assert out.shape == (784,)
        assert out.dtype == np.float32
        expected = np.float32(-0.1307 / 0.3081)
        np.testing.assert_allclose(out, expected, rtol=1e-6)

    def test_half_unit_constants(self):
        d = DatasetDescriptor(
            name="toy", kind="images", input_dim=4, num_classes=2,
            image_shape=(2, 2), channel_means=(0.5,), channel_stds=(0.5,),
        )
        out = normalize(np.full((2, 2), 255, dtype=np.uint8), d)
        np.testing.assert_array_equal(out, np.ones(4, dtype=np.float32))
        out = normalize(np.zeros((2, 2), dtype=np.uint8), d)
        np.testing.assert_array_equal(out, -np.ones(4, dtype=np.float32))

    def test_channel_major_flattening(self):
        d = DESCRIPTORS["cifar10"]
        image = np.zeros((3, 32, 32), dtype=np.uint8)
        image[0] = 255
        out = normalize(image, d)
        assert out.shape == (3072,)
        # First 1024 entries come from channel 0, all equal; the rest are
        # the zero-pixel values of channels 1 and 2.
        assert len(set(out[:1024].tolist())) == 1
        assert len(set(out[1024:2048].tolist())) == 1
        assert len(set(out[2048:].tolist())) == 1
        assert out[0] > 0 > out[1024]

    def test_shape_mismatch(self):
        with pytest.raises(DataError, match="shape"):
            normalize(np.zeros((32, 32), dtype=np.uint8), DESCRIPTORS["mnist"])

    def test_feature_descriptor_rejected(self):
        d = DatasetDescriptor(name="f", kind="features", input_dim=4, num_classes=2)
        with pytest.raises(ConfigurationError, match="not an image dataset"):
            normalize(np.zeros(4, dtype=np.uint8), d)

    @pytest.mark.parametrize("name", ["mnist", "cifar10"])
    def test_batch_matches_single_bitwise(self, name):
        d = DESCRIPTORS[name]
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(20,) + d.image_shape, dtype=np.uint8)
        batch = normalize_batch(images, d)
        assert batch.shape == (20, d.input_dim)
        for i in range(20):
            np.testing.assert_array_equal(batch[i], normalize(images[i], d))

    @pytest.mark.parametrize("name", ["mnist", "cifar10"])
    def test_batch_allocates_only_its_output(self, name):
        d = DESCRIPTORS[name]
        images = np.random.default_rng(4).integers(
            0, 256, size=(256,) + d.image_shape, dtype=np.uint8
        )
        out, peak = traced_peak(normalize_batch, images, d)
        assert out.dtype == np.float32
        assert peak <= 1.05 * out.nbytes

    def test_batch_shape_mismatch(self):
        with pytest.raises(DataError, match="batch shape"):
            normalize_batch(np.zeros((2, 3, 3), dtype=np.uint8), DESCRIPTORS["mnist"])


class TestFlip:
    def test_columns_reverse(self):
        image = np.array([[1, 2], [3, 4]], dtype=np.uint8)
        np.testing.assert_array_equal(flip_horizontal(image), [[2, 1], [4, 3]])

    def test_involution(self):
        rng = np.random.default_rng(1)
        image = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
        np.testing.assert_array_equal(flip_horizontal(flip_horizontal(image)), image)

    def test_symmetric_image_fixed(self):
        image = np.array([[1, 2, 1], [0, 9, 0]], dtype=np.uint8)
        np.testing.assert_array_equal(flip_horizontal(image), image)

    def test_three_channel_flips_width_only(self):
        rng = np.random.default_rng(2)
        image = rng.integers(0, 256, size=(3, 4, 5), dtype=np.uint8)
        flipped = flip_horizontal(image)
        for c in range(3):
            np.testing.assert_array_equal(flipped[c], image[c][:, ::-1])

    def test_stack_matches_per_image(self):
        rng = np.random.default_rng(3)
        images = rng.integers(0, 256, size=(6, 3, 4, 5), dtype=np.uint8)
        flipped = flip_horizontal(images)
        for image, out in zip(images, flipped):
            np.testing.assert_array_equal(out, flip_horizontal(image))

    def test_flat_vector_rejected(self):
        with pytest.raises(UnsupportedAugmentationError, match="cannot be flipped"):
            flip_horizontal(np.zeros(3072, dtype=np.float32))


class TestDatasetDiscovery:
    def test_unknown_name(self, tmp_path):
        with pytest.raises(ConfigurationError, match="unknown dataset"):
            load_dataset("imagenet21k", tmp_path)

    def test_missing_files_name_candidates(self, tmp_path):
        with pytest.raises(DataFormatError, match="train-images-idx3-ubyte"):
            load_dataset("mnist", tmp_path)

    def test_features_dataset_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        train_x = rng.standard_normal((12, 8)).astype(np.float32)
        train_y = rng.integers(0, 4, size=12)
        test_x = rng.standard_normal((6, 8)).astype(np.float32)
        test_y = rng.integers(0, 4, size=6)
        feat_dir = tmp_path / "features"
        feat_dir.mkdir()
        write_feature_file(feat_dir / "train.rdfb", train_x, train_y)
        write_feature_file(feat_dir / "test.rdfb", test_x, test_y)
        ds = load_dataset("features", tmp_path)
        assert ds.descriptor.kind == "features"
        assert ds.descriptor.input_dim == 8
        assert ds.descriptor.num_classes == int(max(train_y.max(), test_y.max())) + 1
        assert len(ds.train_y) == 12
        assert len(ds.test_y) == 6
        np.testing.assert_array_equal(ds.train_x, train_x)
        np.testing.assert_array_equal(ds.test_y, test_y)

    def test_synthetic_mnist_layout(self, tmp_path):
        rng = np.random.default_rng(6)
        d = tmp_path / "mnist"
        d.mkdir()
        train_imgs = rng.integers(0, 256, size=(8, 28, 28), dtype=np.uint8)
        train_labels = rng.integers(0, 10, size=8).astype(np.uint8)
        test_imgs = rng.integers(0, 256, size=(4, 28, 28), dtype=np.uint8)
        test_labels = rng.integers(0, 10, size=4).astype(np.uint8)
        (d / "train-images-idx3-ubyte").write_bytes(idx_image_bytes(train_imgs))
        (d / "train-labels-idx1-ubyte").write_bytes(idx_label_bytes(train_labels))
        (d / "t10k-images-idx3-ubyte.gz").write_bytes(
            gzip.compress(idx_image_bytes(test_imgs))
        )
        (d / "t10k-labels-idx1-ubyte.gz").write_bytes(
            gzip.compress(idx_label_bytes(test_labels))
        )
        ds = load_dataset("mnist", tmp_path)
        assert ds.descriptor.name == "mnist"
        assert len(ds.train_y) == 8
        assert len(ds.test_y) == 4
        np.testing.assert_array_equal(ds.train_x, train_imgs)
        np.testing.assert_array_equal(ds.test_y, test_labels)

    def test_idx_label_out_of_range(self, tmp_path):
        """Such rows would drop out of the stream without a word, and the
        test class would count as one nothing can predict."""
        d = tmp_path / "mnist"
        d.mkdir()
        labels = np.arange(20) % 10
        labels[[7, 13]] = 12
        (d / "train-images-idx3-ubyte").write_bytes(
            idx_image_bytes(np.zeros((20, 2, 2)))
        )
        (d / "train-labels-idx1-ubyte").write_bytes(idx_label_bytes(labels))
        (d / "t10k-images-idx3-ubyte").write_bytes(idx_image_bytes(np.zeros((2, 2, 2))))
        (d / "t10k-labels-idx1-ubyte").write_bytes(idx_label_bytes([0, 1]))
        with pytest.raises(
            DataFormatError,
            match="mnist train label at index 7 is 12, out of range for 10 classes",
        ):
            load_dataset("mnist", tmp_path)

    def test_dataset_from_features_dim_mismatch(self):
        with pytest.raises(DataError, match="disagree"):
            dataset_from_features(
                np.ones((3, 4), dtype=np.float32), [0, 1, 0],
                np.ones((2, 5), dtype=np.float32), [0, 1],
            )

    @pytest.mark.parametrize(
        "part,vectors,labels", [("train", 60, 40), ("train", 40, 60), ("test", 30, 20)]
    )
    def test_dataset_from_features_refuses_count_mismatch(self, part, vectors, labels):
        """Extra train vectors used to be dropped without a word, extra train
        labels to fail mid-stream with a bare IndexError, and a short test
        split only in compute_accuracy after the whole pass."""
        rng = np.random.default_rng(9)
        n = {"train": (60, 60), "test": (30, 30)}
        n[part] = (vectors, labels)
        x = {split: rng.standard_normal((n[split][0], 4)) for split in n}
        y = {split: np.arange(n[split][1]) % 3 for split in n}
        with pytest.raises(
            DataError, match=f"^{part} split holds {vectors} vectors but {labels} labels$"
        ):
            dataset_from_features(x["train"], y["train"], x["test"], y["test"])

    @pytest.mark.parametrize("part", ["train", "test"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_dataset_from_features_refuses_non_finite_vectors(self, part, bad):
        """A NaN test vector used to be scored silently, as label 0 with a
        NaN score, and only lower the reported accuracy."""
        rng = np.random.default_rng(10)
        x = {"train": rng.standard_normal((40, 4)), "test": rng.standard_normal((30, 4))}
        y = {"train": np.arange(40) % 4, "test": np.arange(30) % 4}
        x[part][[7, 12], 2] = bad
        with pytest.raises(DataError, match=f"^{part} vector at index 7 is not finite$") as info:
            dataset_from_features(x["train"], y["train"], x["test"], y["test"])
        assert info.value.row == 7

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_features_class_count_comes_from_the_train_split(self, tmp_path, part):
        """Train labels 0..3: a 5 in the train split makes six classes; a 5
        in the test split is refused (exit 3) naming the split, the first
        offending index and the label, read from disk or from memory."""
        rng = np.random.default_rng(8)
        y = {"train": np.arange(40) % 4, "test": np.arange(12) % 4}
        y[part][[6, 9]] = 5
        x = {"train": rng.standard_normal((40, 3)), "test": rng.standard_normal((12, 3))}
        d = tmp_path / "features"
        d.mkdir()
        for split in ("train", "test"):
            write_feature_file(d / f"{split}.rdfb", x[split].astype(np.float32), y[split])
        if part == "train":
            assert load_dataset("features", tmp_path).descriptor.num_classes == 6
            return
        for load in (
            lambda: load_dataset("features", tmp_path),
            lambda: dataset_from_features(x["train"], y["train"], x["test"], y["test"]),
        ):
            with pytest.raises(
                DataFormatError,
                match="features test label at index 6 is 5, out of range for 4 classes",
            ) as info:
                load()
            assert info.value.exit_code == 3

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_dataset_from_features_refuses_fractional_labels(self, part):
        """A label of 1.7 would stream as class 1 without a word."""
        y = {"train": [0.0, 1.0, 2.0, 1.0], "test": [0.0, 1.0, 2.0]}
        y[part][1] = 1.7
        with pytest.raises(
            DataError, match=f"{part} label at index 1 is 1.7; labels must be whole"
        ) as info:
            dataset_from_features(np.ones((4, 2)), y["train"], np.ones((3, 2)), y["test"])
        assert info.value.row == 1

    @pytest.mark.parametrize("part", ["train", "test"])
    def test_dataset_from_features_refuses_negative_labels(self, part):
        """Such rows would drop out of the stream without a word, leaving
        fewer samples observed than the echoed train_count."""
        rng = np.random.default_rng(7)
        y = {"train": rng.integers(0, 3, size=60), "test": rng.integers(0, 3, size=20)}
        y[part][[13, 17, 19]] = -1
        with pytest.raises(DataError, match=f"{part} label at index 13 is -1") as info:
            dataset_from_features(
                rng.standard_normal((60, 4)), y["train"], rng.standard_normal((20, 4)), y["test"]
            )
        assert info.value.row == 13
