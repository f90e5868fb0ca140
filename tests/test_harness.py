"""Benchmark harness: stream construction, accuracy bookkeeping, the
single-pass contract, and the sweep/ablation drivers."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest

from conftest import blob_dataset, child_peak_rss, traced_peak
from randumb import (
    ConfigurationError,
    DataError,
    DatasetDescriptor,
    FeatureMap,
    FeatureMapSpec,
    ModelStateError,
    ModelVariant,
    RunResult,
    StreamingClassifier,
    StreamingEstimator,
    UnsupportedAugmentationError,
    compute_accuracy,
    make_stream,
    run_ablation,
    run_on_dataset,
    sweep_embedding,
)
from randumb.data_io import (
    DESCRIPTORS,
    RawDataset,
    dataset_from_features,
    flip_horizontal,
    normalize,
    normalize_batch,
)
from randumb.reference import (
    FLIP_MEANS_TOL,
    FLIP_SCATTER_TOL,
    batch_stats,
    flip_check_dataset,
    flip_pair_errors,
    oas_reference,
)
from randumb.harness import (
    ABLATION_ORDER,
    BLOCK_ROWS,
    _predict_test,
    append_jsonl,
    check_memory_cap,
    sweep_table,
)

# One kernel_ncm run on random CIFAR-shaped images with {test} test
# images, in a child process; prints the RSS high-water mark before the
# run, then the result's peak_rss_bytes.
RSS_CHILD = """
import resource
import numpy as np
from randumb import RawDataset, run_on_dataset
from randumb.data_io import DESCRIPTORS

rng = np.random.default_rng(0)
descriptor = DESCRIPTORS["cifar10"]
train_x = rng.integers(0, 256, size=(300, 3, 32, 32), dtype=np.uint8)
test_x = rng.integers(0, 256, size=({test}, 3, 32, 32), dtype=np.uint8)
data = RawDataset(descriptor, train_x, np.arange(300) % 10, test_x, np.arange({test}) % 10)
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
result = run_on_dataset(data, variant="kernel_ncm", embed_dim=256, gamma=1e-3, seed=0)
print(before, result.peak_rss_bytes)
"""

# Every variant, with flips and without (at E=512 the Fourier variants
# hold a factor without flips and the packed form with them), and one
# snapshotting run; prints the modules the runs added and removed.  The
# images are hashed, not drawn, so the child itself imports no
# numpy.random before the runs.
RUN_IMPORTS_CHILD = """
import json, sys
import numpy as np
from randumb import RawDataset, run_on_dataset
from randumb.classifier import VARIANTS
from randumb.data_io import DESCRIPTORS

def draw(n, offset):
    pixels = (np.arange(offset, offset + n * 3 * 32 * 32) * 2654435761) % 251
    return pixels.astype(np.uint8).reshape(n, 3, 32, 32), np.arange(n) % 10
data = RawDataset(DESCRIPTORS["cifar10"], *draw(40, 0), *draw(20, 1 << 20))
before = set(sys.modules)
for variant in VARIANTS:
    for augment in (False, True):
        run_on_dataset(data, variant=variant, embed_dim=512, seed=0, augment=augment)
run_on_dataset(data, variant="randumb", embed_dim=512, seed=0, augment=True, eval_every=10)
after = set(sys.modules)
print(json.dumps([sorted(after - before), sorted(before - after)]))
"""


def toy_image_descriptor():
    return DatasetDescriptor(
        name="toyimg",
        kind="images",
        input_dim=4,
        num_classes=2,
        channel_means=(0.5,),
        channel_stds=(0.5,),
        image_shape=(2, 2),
        flip_default=False,
        default_ridge=1e-4,
    )


def toy_image_dataset(seed=0, per_class=10, test_per_class=4):
    """Two image classes separated by brightness, so flips keep the label."""
    rng = np.random.default_rng(seed)
    def draw(n_per):
        dark = rng.integers(0, 80, size=(n_per, 2, 2), dtype=np.uint8)
        bright = rng.integers(180, 256, size=(n_per, 2, 2), dtype=np.uint8)
        X = np.concatenate([dark, bright])
        y = np.repeat([0, 1], n_per)
        perm = rng.permutation(len(y))
        return X[perm], y[perm]
    train_x, train_y = draw(per_class)
    test_x, test_y = draw(test_per_class)
    return RawDataset(toy_image_descriptor(), train_x, train_y, test_x, test_y)


def task_labels(data, **settings):
    """The stream's tasks, in order, as the sorted labels each one holds."""
    labels = stream_rows(data, **settings)[3]
    bounds = np.flatnonzero(np.diff(labels // settings.get("classes_per_task", 1))) + 1
    return [sorted(set(task.tolist())) for task in np.split(labels, bounds)]


class TestStreamSettings:
    def test_default_order_is_identity(self):
        data = blob_dataset(num_classes=4, train_per_class=5)
        assert task_labels(data) == [[0], [1], [2], [3]]

    def test_tasks_chunking(self):
        data = blob_dataset(num_classes=5, train_per_class=5)
        assert task_labels(data, classes_per_task=2) == [[0, 1], [2, 3], [4]]

    def test_validation(self):
        """Each setting is refused naming the value given, by the function
        that owns it, before a block is made or a model is built."""
        data = toy_image_dataset()
        for k in (0, -1):
            refusal = f"^classes_per_task must be >= 1, got {k}$"
            with pytest.raises(ConfigurationError, match=refusal):
                make_stream(data, classes_per_task=k)
            with pytest.raises(ConfigurationError, match=refusal):
                run_on_dataset(data, variant="slda", classes_per_task=k)

    def test_augmenting_features_rejected(self):
        """Flipping a feature vector would reverse it; make_stream refuses
        it when called, before the first block."""
        data = blob_dataset()
        with pytest.raises(UnsupportedAugmentationError, match="feature vectors"):
            make_stream(data, augment=True)
        with pytest.raises(UnsupportedAugmentationError, match="feature vectors"):
            run_on_dataset(data, variant="slda", augment=True)

    @pytest.mark.parametrize("variant", ["randumb", "kernel_ncm", "slda", "ncm", "rp_relu"])
    @pytest.mark.parametrize("seed", [-1, -2])
    def test_negative_seed_refused(self, variant, seed):
        """The run seed is checked, not the stream seed seed + 1 derived
        from it: -1 used to run with stream seed 0, and -2 was refused as
        -1."""
        data = blob_dataset(seed=3, num_classes=3, train_per_class=10)
        with pytest.raises(ConfigurationError, match=rf"^seed must be >= 0, got {seed}$"):
            run_on_dataset(data, variant=variant, embed_dim=16, gamma=0.1, seed=seed)

    @pytest.mark.parametrize(
        "setting,value",
        [("classes_per_task", 1.5), ("seed", 1.5), ("eval_every", 2.5), ("seed", True),
         ("classes_per_task", np.int64(2))],
    )
    def test_setting_of_the_wrong_type_refused(self, setting, value):
        """Only an exact int is a count or a seed: a float used to end in a
        bare TypeError, and seed=True ran as seed 1."""
        data = blob_dataset(seed=3, num_classes=3, train_per_class=10)
        refusal = rf"^{setting} must be an integer, got {re.escape(repr(value))}$"
        with pytest.raises(ConfigurationError, match=refusal):
            run_on_dataset(data, variant="slda", **{setting: value})
        stream_setting = {"eval_every": "cut_every"}.get(setting, setting)
        with pytest.raises(ConfigurationError, match=rf"^{stream_setting} must be an integer"):
            make_stream(data, **{stream_setting: value})

    def test_odd_cut_refused_on_a_flip_stream(self, monkeypatch):
        """A flip stream is cut only between an image and its mirror: an
        odd cut is refused naming --eval-every-k when make_stream is
        called, and by run_on_dataset before the model is built."""
        built = []
        monkeypatch.setattr(
            StreamingClassifier, "__init__", lambda self, config: built.append(config)
        )
        data = toy_image_dataset()
        refusal = r"^--eval-every-k 7 would cut an image from its mirror"
        with pytest.raises(ConfigurationError, match=refusal):
            make_stream(data, augment=True, cut_every=7)
        with pytest.raises(ConfigurationError, match=refusal):
            run_on_dataset(data, variant="slda", augment=True, eval_every=7)
        assert built == []

    def test_odd_cut_without_flips_runs(self):
        data = toy_image_dataset(per_class=20)
        assert [b.start for b in make_stream(data, cut_every=7)] == list(range(0, 40, 7))
        result = run_on_dataset(data, variant="slda", augment=False, eval_every=7)
        assert result.observe_count == 40
        assert [s["step"] for s in result.intermediate] == [7, 14, 21, 28, 35]


def step_rows(block, descriptor):
    """The flat row of every step of a block: a flip block's original
    rows each followed by its mirror, reversed left-right by hand."""
    if block.mirror_width is None:
        return block.features
    rows = np.repeat(block.features, 2, axis=0)
    shape = descriptor.image_shape
    for i in range(1, len(rows), 2):
        rows[i] = rows[i].reshape(shape)[..., ::-1].reshape(-1)
    return rows


def step_flipped(block):
    """Whether each step of a block is a mirrored copy: on a flip stream,
    the odd steps."""
    steps = np.arange(block.start, block.stop)
    return (steps % 2 == 1) if block.mirror_width else np.zeros(len(steps), bool)


def stream_rows(data, **kwargs):
    """Concatenate a block stream into per-step arrays."""
    blocks = list(make_stream(data, **kwargs))
    return (
        np.concatenate([b.indices for b in blocks]),
        np.concatenate([step_flipped(b) for b in blocks]),
        np.concatenate([step_rows(b, data.descriptor) for b in blocks]),
        np.concatenate([b.labels for b in blocks]),
    )


class TestMakeStream:
    def test_class_incremental_contiguity(self):
        data = blob_dataset(num_classes=4, train_per_class=5)
        labels = stream_rows(data)[3].tolist()
        assert labels == [0] * 5 + [1] * 5 + [2] * 5 + [3] * 5

    def test_within_task_mixing(self):
        data = blob_dataset(num_classes=4, train_per_class=8)
        labels = stream_rows(data, classes_per_task=2, seed=1)[3].tolist()
        first, second = labels[:16], labels[16:]
        assert set(first) == {0, 1} and set(second) == {2, 3}
        # A task's classes are interleaved by the shuffle, not concatenated.
        assert first != sorted(first) or second != sorted(second)

    def test_deterministic_in_seed(self):
        data = blob_dataset(num_classes=3, train_per_class=7)
        a = list(make_stream(data, seed=9))
        b = list(make_stream(data, seed=9))
        assert len(a) == len(b)
        for ba, bb in zip(a, b):
            assert ba.start == bb.start
            np.testing.assert_array_equal(ba.indices, bb.indices)
            np.testing.assert_array_equal(ba.labels, bb.labels)
            np.testing.assert_array_equal(ba.features, bb.features)

    def test_different_seeds_differ(self):
        data = blob_dataset(num_classes=2, train_per_class=30)
        orders = []
        for seed in (0, 1):
            orders.append(stream_rows(data, seed=seed)[0].tolist())
        assert orders[0] != orders[1]

    def test_missing_class_rejected(self):
        """Refused when make_stream is called, before the first block."""
        data = blob_dataset(num_classes=3, train_per_class=5)
        mask = data.train_y != 1
        data = RawDataset(
            data.descriptor, data.train_x[mask], data.train_y[mask], data.test_x, data.test_y
        )
        with pytest.raises(ConfigurationError, match="class 1 has no samples"):
            make_stream(data)

    def test_flip_augmentation_doubles_and_interleaves(self):
        """2n steps, each flipped copy right after its original, and the
        block carries one normalized, unflipped row per image, the
        original of steps 2i and 2i + 1: nothing is flipped or normalized
        twice."""
        data = toy_image_dataset(per_class=6)
        (block,) = make_stream(data, augment=True, seed=2)
        n = len(data.train_y)
        assert len(block.labels) == 2 * n and block.mirror_width == 2
        assert block.describe(2).endswith(", original)")
        assert block.describe(3).endswith(", flipped)")
        np.testing.assert_array_equal(block.indices[0::2], block.indices[1::2])
        np.testing.assert_array_equal(block.labels[0::2], block.labels[1::2])
        assert sorted(block.indices[0::2].tolist()) == list(range(n))
        np.testing.assert_array_equal(
            block.features, normalize_batch(data.train_x[block.indices[0::2]], data.descriptor)
        )

    def test_no_augmentation_keeps_origin_original(self):
        data = toy_image_dataset(per_class=4)
        indices, flipped, features, labels = stream_rows(data, augment=False)
        assert len(labels) == len(data.train_y)
        assert not flipped.any()
        assert all(b.mirror_width is None for b in make_stream(data))
        assert features.shape == (len(data.train_y), 4)

    def test_feature_stream_passthrough(self):
        data = blob_dataset(num_classes=2, train_per_class=3)
        indices, _, features, labels = stream_rows(data)
        assert features.dtype == np.float32
        np.testing.assert_array_equal(features, data.train_x[indices])
        np.testing.assert_array_equal(labels, data.train_y[indices])

    @pytest.mark.parametrize("cut_every", [0, 8])
    def test_blocks_match_per_image_normalize_and_flip(self, cut_every):
        """The per-image functions are the reference for the block path:
        each step's row, its original's mirrored where it is flipped,
        is the per-image normalize of the (flipped) image, bit for bit,
        also on blocks cut off the BLOCK_ROWS grid."""
        rng = np.random.default_rng(3)
        n = 300
        train_x = rng.integers(0, 256, size=(n, 2, 2), dtype=np.uint8)
        train_y = np.repeat([0, 1], n // 2)
        descriptor = toy_image_descriptor()
        data = RawDataset(descriptor, train_x, train_y, train_x[:4], train_y[:4])
        settings = dict(augment=True, seed=4, cut_every=cut_every)
        indices, flipped, features, labels = stream_rows(data, **settings)
        assert len(features) == 2 * n
        for i, flip, row in zip(indices, flipped, features):
            image = flip_horizontal(train_x[i]) if flip else train_x[i]
            np.testing.assert_array_equal(row, normalize(image, descriptor))
        for block in make_stream(data, **settings):
            # one original per image the block touches, and no pair cut
            assert block.start % 2 == 0
            assert len(block.features) == len(set(block.indices.tolist()))

    def test_blocks_cut_at_absolute_positions(self):
        # 2 tasks x 200 samples, flipped: 800 steps.  Cuts fall on
        # multiples of 256 and of cut_every, never at the task boundary.
        data = toy_image_dataset(per_class=200)
        settings = dict(augment=True, seed=5)
        starts = [b.start for b in make_stream(data, **settings)]
        assert starts == [0, 256, 512, 768]
        blocks = list(make_stream(data, cut_every=300, **settings))
        assert [b.start for b in blocks] == [0, 256, 300, 512, 600, 768]
        assert [b.stop for b in blocks] == [256, 300, 512, 600, 768, 800]
        whole = stream_rows(data, **settings)
        cut = stream_rows(data, cut_every=300, **settings)
        for a, b in zip(whole, cut):
            np.testing.assert_array_equal(a, b)
        # Every cut falls between flip pairs, so each block carries
        # exactly the originals of its own steps.
        blocks = list(make_stream(data, cut_every=302, **settings))
        assert [b.start for b in blocks] == [0, 256, 302, 512, 604, 768]
        for b in blocks:
            np.testing.assert_array_equal(
                b.features, normalize_batch(data.train_x[b.indices[0::2]], data.descriptor)
            )
        for a, b in zip(whole, stream_rows(data, cut_every=302, **settings)):
            np.testing.assert_array_equal(a, b)


class TestComputeAccuracy:
    def test_hand_example(self):
        per_class, average, class_average = compute_accuracy(
            np.array([0, 1, 1, 1]), np.array([0, 0, 1, 1])
        )
        assert per_class == {0: 0.5, 1: 1.0}
        assert average == 0.75
        assert class_average == 0.75

    def test_imbalanced_classes_separate_the_two_averages(self):
        per_class, average, class_average = compute_accuracy(
            np.array([0, 0, 0, 0]), np.array([0, 0, 0, 1])
        )
        assert per_class == {0: 1.0, 1: 0.0}
        assert average == 0.75
        assert class_average == 0.5

    def test_permuted_predictions_score_near_chance(self):
        rng = np.random.default_rng(0)
        labels = np.repeat(np.arange(10), 1000)
        predictions = rng.permutation(labels)
        _, average, _ = compute_accuracy(predictions, labels)
        assert abs(average - 0.1) < 0.02

    def test_validation(self):
        with pytest.raises(DataError, match="equal-length"):
            compute_accuracy(np.zeros(3), np.zeros(4))
        with pytest.raises(DataError, match="empty"):
            compute_accuracy(np.zeros(0), np.zeros(0))
        with pytest.raises(DataError, match=r"^evaluation label at index 2 is -1.0;") as bad:
            compute_accuracy(np.zeros(4), np.array([0.0, 1.0, -1.0, 1.0]))
        assert bad.value.row == 2
        with pytest.raises(DataError, match=r"^evaluation label at index 1 is 0.5;") as bad:
            compute_accuracy(np.zeros(3), np.array([0.0, 0.5, 1.0]))
        assert bad.value.row == 1


class TestRunBenchmark:
    def test_blobs_learned(self):
        data = blob_dataset(seed=1, num_classes=5, dim=12, train_per_class=60)
        result = run_on_dataset(
            data, variant="randumb", embed_dim=128, gamma=0.05, seed=0
        )
        assert result.average_accuracy > 0.9
        assert result.observe_count == 300
        assert set(result.per_class_accuracy) == set(range(5))
        assert 0.0 <= result.shrinkage_rho <= 1.0
        assert result.log_det is not None
        assert result.factor_rank == 128  # rank bound 295: the dense factor
        # 5 counts, 5 mean rows and the packed 4*E*(E+1)-byte accumulator
        assert result.state_bytes == 8 * 5 + 8 * 5 * 128 + 4 * 128 * 129

    def test_a_run_imports_nothing(self):
        """Whatever a run uses is imported with the package, so no lazy
        import lands inside the timed run."""
        _, output = child_peak_rss(RUN_IMPORTS_CHILD)
        assert json.loads(output.splitlines()[-1]) == [[], []]

    def test_few_shot_run_reports_the_low_rank_factor(self):
        """3 classes of 2 samples bound the scatter's rank by 3, so at
        E=400 the run holds the scatter as its 400 x 3 factor in a
        400 x (3 + 3) buffer, its state is the class rows and that buffer,
        and the result says so; a mean-only variant reports no factor."""
        rng = np.random.default_rng(6)
        X = rng.standard_normal((6, 16)).astype(np.float32)
        y = np.arange(6) % 3
        data = dataset_from_features(X, y, X, y)
        result = run_on_dataset(data, variant="rp_relu", embed_dim=400, seed=0)
        assert result.factor_rank == 3 and result.to_json()["factor_rank"] == 3
        assert result.state_bytes == 8 * 3 * 401 + 8 * 400 * (3 + 3)
        ncm = run_on_dataset(data, variant="ncm", seed=0)
        assert ncm.factor_rank is None

    def test_bit_for_bit_repeatable(self):
        data = blob_dataset(seed=2)
        a = run_on_dataset(data, variant="randumb", embed_dim=64, gamma=0.1, seed=5)
        b = run_on_dataset(data, variant="randumb", embed_dim=64, gamma=0.1, seed=5)
        assert a.average_accuracy == b.average_accuracy
        assert a.per_class_accuracy == b.per_class_accuracy
        assert a.shrinkage_rho == b.shrinkage_rho
        assert a.log_det == b.log_det

    def test_task_size_does_not_move_accuracy(self):
        """One class per task and all five in one task stream the same
        samples in different orders."""
        data = blob_dataset(seed=3, num_classes=5, dim=10, train_per_class=80)
        settings = dict(variant="randumb", embed_dim=64, gamma=0.05, seed=0)
        one = run_on_dataset(data, classes_per_task=1, **settings)
        five = run_on_dataset(data, classes_per_task=5, **settings)
        assert abs(one.average_accuracy - five.average_accuracy) <= 0.02

    def test_single_class_dataset(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((30, 6)).astype(np.float32)
        y = np.zeros(30, dtype=np.int64)
        data = dataset_from_features(X, y, X[:10], y[:10])
        result = run_on_dataset(data, variant="randumb", embed_dim=32, gamma=0.1, seed=0)
        assert result.per_class_accuracy == {0: 1.0}
        assert result.average_accuracy == 1.0

    def test_eval_every_snapshots(self):
        data = blob_dataset(seed=5, num_classes=3, train_per_class=40)  # 120 steps
        result = run_on_dataset(
            data, variant="randumb", embed_dim=32, gamma=0.1, seed=0, eval_every=30
        )
        assert [e["step"] for e in result.intermediate] == [30, 60, 90, 120]
        # The last snapshot sees the full stream, so it must equal the
        # final number exactly.
        assert result.intermediate[-1]["average_accuracy"] == result.average_accuracy
        for e in result.intermediate:
            assert 0.0 <= e["average_accuracy"] <= 1.0

    def test_eval_every_final_finalize_consumes(self, monkeypatch):
        """Snapshots factor a copy; the last finalize hands the
        accumulator over instead of copying it once more."""
        flags = []
        real = StreamingEstimator.scatter_state

        def recording(self, consume=False):
            flags.append(consume)
            return real(self, consume=consume)

        monkeypatch.setattr(StreamingEstimator, "scatter_state", recording)
        data = blob_dataset(seed=5, num_classes=3, train_per_class=40)  # 120 steps
        run_on_dataset(
            data, variant="randumb", embed_dim=32, gamma=0.1, seed=0, eval_every=30
        )
        assert flags == [False, False, False, False, True]

    def test_negative_eval_every_refused(self):
        data = blob_dataset(seed=5, num_classes=3, train_per_class=10)
        with pytest.raises(ConfigurationError, match="eval_every must be >= 0"):
            run_on_dataset(
                data, variant="randumb", embed_dim=32, gamma=0.1, seed=0, eval_every=-1
            )

    @pytest.mark.parametrize("variant", ["randumb", "rp_relu"])
    def test_every_embed_call_gets_at_most_block_rows(self, monkeypatch, variant):
        """The map projects whatever it is handed, in one call, so the
        stream (through embed_batch) and predict_batch must keep each
        projection within one block."""
        rows = []
        real = FeatureMap.project

        def recording(self, X):
            rows.append(len(X))
            return real(self, X)

        monkeypatch.setattr(FeatureMap, "project", recording)
        data = blob_dataset(
            seed=8, num_classes=3, dim=6, train_per_class=200, test_per_class=100
        )
        result = run_on_dataset(data, variant=variant, embed_dim=32, gamma=0.1, seed=0)
        assert max(rows) == BLOCK_ROWS
        assert sum(rows) == result.observe_count + 300  # stream + test set

    def test_accuracy_improves_along_the_stream(self):
        data = blob_dataset(seed=6, num_classes=5, dim=10, train_per_class=50)
        result = run_on_dataset(
            data, variant="randumb", embed_dim=64, gamma=0.05, seed=0, eval_every=50
        )
        # While tasks are arriving, unseen classes are never predicted;
        # accuracy climbs as classes appear.
        first, last = result.intermediate[0], result.intermediate[-1]
        assert first["average_accuracy"] < last["average_accuracy"]

    def test_memory_cap_refusal(self):
        data = blob_dataset(seed=7)
        with pytest.raises(
            ConfigurationError,
            match=r"= \d+ for the class rows and 1 x 4\*E\*\(E\+1\) = 1050624 ",
        ):
            run_on_dataset(
                data, variant="randumb", embed_dim=512, gamma=0.1, seed=0,
                memory_cap_bytes=1024**2,
            )

    def test_memory_cap_counts_the_eval_every_copy(self):
        """The packed accumulator, 4*E*(E+1) bytes, fits the cap, but
        snapshots factor a copy of it, so an eval_every run needs twice
        that and is refused."""
        data = blob_dataset(seed=7)
        cap = 3 * 4 * 256 * 257 // 2
        settings = dict(variant="randumb", embed_dim=256, gamma=0.1, seed=0,
                        memory_cap_bytes=cap)
        assert run_on_dataset(data, **settings).observe_count == len(data.train_y)
        with pytest.raises(ConfigurationError, match=r"2 x 4\*E\*\(E\+1\)"):
            run_on_dataset(data, eval_every=50, **settings)

    def test_memory_cap_counts_no_copy_for_low_rank_snapshots(self):
        """3 classes of 4 samples bound the scatter's rank by 9, and
        8 (9 + 2 * 3) <= E + 1 at E=256: the run holds the scatter as its
        factor, which every snapshot only reads, so an eval_every run fits
        a cap of the class rows plus the factor's E x (9 + C) buffer."""
        data = blob_dataset(seed=7, num_classes=3, train_per_class=4)
        cap = 8 * 3 * 257 + 8 * 256 * (9 + 3)
        result = run_on_dataset(
            data, variant="randumb", embed_dim=256, gamma=0.1, seed=0, eval_every=4,
            memory_cap_bytes=cap,
        )
        assert [s["step"] for s in result.intermediate] == [4, 8, 12]
        assert result.factor_rank == 9

    def test_memory_cap_counts_flipped_rows_in_the_rank_bound(self):
        """3 images of each of 2 classes bound the rank by 4 without flips
        (8 (4 + 2 * 2) <= E + 1 at E=64) and by 10 with them (not), so
        at a cap of one accumulator plus the class rows only the flip
        run holds the packed accumulator, whose snapshots need a copy,
        and it is refused."""
        data = toy_image_dataset(per_class=3)
        settings = dict(variant="randumb", embed_dim=64, seed=0, eval_every=2,
                        memory_cap_bytes=8 * 2 * 65 + 4 * 64 * 65)
        assert run_on_dataset(data, augment=False, **settings).factor_rank == 4
        with pytest.raises(ConfigurationError, match=r"2 x 4\*E\*\(E\+1\)"):
            run_on_dataset(data, augment=True, **settings)

    def test_memory_cap_ignores_mean_only_variants(self):
        """A mean-only run holds no accumulator, so a cap below its
        4*E*(E+1) bytes leaves it alone."""
        data = blob_dataset(seed=7)
        result = run_on_dataset(
            data, variant="kernel_ncm", embed_dim=512, gamma=0.1, seed=0,
            memory_cap_bytes=1024**2,
        )
        assert result.observe_count == len(data.train_y)

    @pytest.mark.parametrize("variant", ["ncm", "randumb"])
    def test_memory_cap_counts_the_class_rows(self, variant):
        """A train label of 4e9 makes C = 4e9 + 1 class rows: refused by
        the cap, naming C, before anything C-sized is allocated."""
        rng = np.random.default_rng(7)
        X = rng.standard_normal((4, 3)).astype(np.float32)
        data = dataset_from_features(X, [0, 1, 4_000_000_000, 1], X, [0, 1, 1, 0])
        with pytest.raises(ConfigurationError, match=r"4000000001 classes .* class rows"):
            run_on_dataset(data, variant=variant, embed_dim=8, gamma=0.1, seed=0)

    def test_stream_errors_name_the_step(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((10, 4)).astype(np.float32)
        y = np.array([0] * 5 + [1] * 5, dtype=np.int64)
        data = dataset_from_features(X, y, X[5:], y[5:])
        # dataset_from_features refuses NaN, so the shared train rows are
        # poisoned after it: whichever step draws sample 0 fails
        data.train_x[0] = np.nan
        with pytest.raises(DataError, match=r"stream step \d+ \(class \d+, original\)"):
            run_on_dataset(data, variant="slda", embed_dim=4, seed=0)

    def test_mid_block_error_names_its_own_step(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((600, 4)).astype(np.float32)
        y = np.repeat([0, 1, 2], 200)
        data = dataset_from_features(X, y, X[:30], y[:30])
        # run_on_dataset shuffles the stream with seed + 1.
        indices, _, _, labels = stream_rows(data, seed=1)
        step = 300  # row 44 of the block starting at step 256
        data.train_x[indices[step]] = np.nan
        with pytest.raises(
            DataError,
            match=rf"stream step {step} \(class {labels[step]}, original\)",
        ):
            run_on_dataset(data, variant="slda", seed=0)

    def test_flipped_copy_error_names_its_step(self, monkeypatch):
        # Image pixels are always finite, so a fault is injected into the
        # embedded row of one flipped copy.
        from randumb.streaming import StreamingEstimator

        data = toy_image_dataset(per_class=200)
        step = 2 * 150 + 1  # the flipped copy of the 151st image
        original = StreamingEstimator.observe
        seen = []

        def poisoned(self, phi, labels):
            start = sum(seen)
            seen.append(len(phi))
            if start <= step < start + len(phi):
                phi = np.array(phi)
                phi[step - start] = np.inf
            return original(self, phi, labels)

        monkeypatch.setattr(StreamingEstimator, "observe", poisoned)
        with pytest.raises(
            DataError, match=rf"stream step {step} \(class \d+, flipped\)"
        ):
            run_on_dataset(
                data, variant="randumb", embed_dim=16, gamma=0.5, seed=0,
                augment=True,
            )

    def test_label_past_the_class_rows_names_its_step(self, monkeypatch):
        """The loaders refuse such labels, so one is injected into the
        labels of one step: the model has no row for it."""
        data = blob_dataset(seed=6, num_classes=3)
        step = 100
        original = StreamingEstimator.observe
        seen = []

        def relabeled(self, phi, labels):
            start = sum(seen)
            seen.append(len(phi))
            if start <= step < start + len(phi):
                labels = np.array(labels)
                labels[step - start] = 3
            return original(self, phi, labels)

        monkeypatch.setattr(StreamingEstimator, "observe", relabeled)
        with pytest.raises(
            DataError,
            match=rf"stream step {step} \(class \d+, original\): label 3 is outside 0..2",
        ):
            run_on_dataset(data, variant="slda", seed=0)

    def test_one_pass_check_raises(self, monkeypatch):
        # A model that folds in a row twice breaks the one-pass contract;
        # the check is a raised error, so it also holds under python -O.
        from randumb.classifier import StreamingClassifier

        original = StreamingClassifier.observe

        def double_first_row(self, x_raw, labels, *flips):
            original(self, x_raw, labels, *flips)
            original(self, x_raw[:1], labels[:1])

        monkeypatch.setattr(StreamingClassifier, "observe", double_first_row)
        with pytest.raises(ModelStateError, match="one-pass check failed"):
            run_on_dataset(blob_dataset(seed=1), variant="slda", seed=0)
        # and on a flip stream, whose blocks carry originals only
        with pytest.raises(ModelStateError, match="one-pass check failed"):
            run_on_dataset(toy_image_dataset(), variant="slda", seed=0, augment=True)

    def test_augmented_run_observes_two_per_image(self):
        data = toy_image_dataset(per_class=10)
        result = run_on_dataset(
            data, variant="randumb", embed_dim=16, gamma=0.5, seed=0, augment=True
        )
        assert result.observe_count == 2 * len(data.train_y)
        assert result.config["augment"] is True

    def test_image_pipeline_end_to_end(self):
        data = toy_image_dataset(per_class=30, test_per_class=10)
        result = run_on_dataset(
            data, variant="randumb", embed_dim=32, gamma=0.2, seed=0
        )
        assert result.average_accuracy == 1.0  # brightness classes are trivial


class TestConfigEcho:
    def test_seed_derivation_and_echo_fields(self):
        data = blob_dataset(seed=10)
        result = run_on_dataset(data, variant="randumb", embed_dim=32, gamma=0.3, seed=7)
        echo = result.config
        assert echo["feature_seed"] == 7
        assert echo["stream_seed"] == 8
        assert echo["gamma"] == 0.3
        assert echo["state_dim"] == 32
        assert echo["num_bases"] == 16
        assert echo["ridge"] == data.descriptor.default_ridge
        assert echo["variant"] == "randumb"
        assert "PCG64" in echo["rng"]
        assert echo["numpy_version"] == np.__version__
        assert echo["augment"] is False

    def test_inner_product_variants_echo_no_ridge(self):
        data = blob_dataset(seed=10)
        result = run_on_dataset(data, variant="ncm", embed_dim=32, seed=0)
        assert result.config["ridge"] is None
        assert result.config["gamma"] is None
        assert result.config["feature_seed"] is None
        assert result.config["state_dim"] == data.descriptor.input_dim

    def test_relu_variant_echoes_its_rows_and_no_gamma(self):
        data = blob_dataset(seed=10)
        result = run_on_dataset(data, variant="rp_relu", embed_dim=33, gamma=0.3, seed=4)
        echo = result.config
        assert echo["num_bases"] == echo["state_dim"] == 33
        assert echo["gamma"] is None
        assert echo["feature_seed"] == 4


class TestRunSettingsReachTheModel:
    """A run's settings reach the model it builds, checked on what the
    model computes rather than on the config echo."""

    def test_explicit_ridge_reaches_the_factor(self):
        """log det of an slda run is that of the batch oracle's shrunk
        covariance plus the ridge given, for each of two ridges."""
        data = blob_dataset(seed=12, num_classes=3, dim=8, train_per_class=20)
        stats = batch_stats(data.train_x.astype(np.float64), data.train_y)
        _, _, shrunk = oas_reference(stats.covariance, len(data.train_y))
        for ridge in (1e-3, 0.5):
            result = run_on_dataset(data, variant="slda", ridge=ridge, seed=0)
            expected = np.linalg.slogdet(shrunk + ridge * np.eye(8))[1]
            assert result.log_det == pytest.approx(expected, rel=1e-12, abs=0)

    def test_snapshots_follow_the_stream_seeded_with_seed_plus_one(self):
        """A run's snapshots are those of a model fed the stream seeded
        with seed + 1, and not those of the stream seeded with the map's
        own seed."""
        data = blob_dataset(seed=13, num_classes=3, dim=6, train_per_class=30, spread=1.0)
        seed, k = 4, 10
        spec = FeatureMapSpec("fourier", 6, 32, seed=seed, gamma=0.1)
        config = ModelVariant("randumb", 3, spec, ridge=data.descriptor.default_ridge)
        result = run_on_dataset(
            data, variant="randumb", embed_dim=32, gamma=0.1, seed=seed,
            classes_per_task=3, eval_every=k,
        )

        def snapshots(stream_seed):
            model, out = StreamingClassifier(config), []
            for block in make_stream(data, 3, False, stream_seed, k):
                model.observe(block.features, block.labels)
                if block.stop % k == 0:
                    model.finalize()
                    _, average, _ = compute_accuracy(_predict_test(model, data), data.test_y)
                    out.append({"step": block.stop, "average_accuracy": average})
            return out

        assert result.intermediate == snapshots(seed + 1)
        assert result.intermediate != snapshots(seed)


def prototype_images(name, seed, train_per_class, test_per_class, noise=64.0):
    """Images shaped as dataset ``name``'s: one smooth random prototype per
    class (fixed across seeds) plus pixel noise drawn from ``seed``."""
    base = DESCRIPTORS[name]
    shape, c = base.image_shape, base.num_classes
    coarse = np.random.default_rng(0).standard_normal((c, *shape[:-2], 4, 4))
    prototypes = 128 + 48 * np.kron(coarse, np.ones((shape[-2] // 4, shape[-1] // 4)))
    rng = np.random.default_rng(seed)

    def draw(per_class):
        y = np.repeat(np.arange(c), per_class)
        x = prototypes[y] + noise * rng.standard_normal((len(y), *shape))
        return np.clip(x, 0, 255).astype(np.uint8), y

    return RawDataset(base, *draw(train_per_class), *draw(test_per_class))


class TestDefaultGamma:
    def test_images_default_to_half_the_inverse_input_dim(self):
        assert DESCRIPTORS["mnist"].default_gamma == 1 / (2 * 784)
        assert DESCRIPTORS["cifar100"].default_gamma == 1 / (2 * 3072)
        assert blob_dataset().descriptor.default_gamma is None

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("name,train,test", [("mnist", 20, 20), ("cifar100", 10, 3)])
    def test_default_width_learns_images(self, name, train, test, seed):
        """The width that used to be the default, 1.0, scores at chance:
        its kernel is about 0 between any two images.  Chance is scored
        on at least 20 test images per class: at 3 per class (300 images
        of 100 classes) a chance-level run reads 2 x chance on some seeds
        by luck alone."""
        data = prototype_images(name, seed, train, test)
        settings = dict(variant="randumb", embed_dim=512, seed=seed)
        result = run_on_dataset(data, **settings)
        assert result.config["gamma"] == data.descriptor.default_gamma
        assert result.average_accuracy >= 0.9
        chance = 1 / data.descriptor.num_classes
        wide = prototype_images(name, seed, train, max(test, 20))
        assert run_on_dataset(wide, gamma=1.0, **settings).average_accuracy < 2 * chance

    @pytest.mark.parametrize("variant", ["randumb", "kernel_ncm"])
    def test_fourier_variant_on_features_needs_gamma(self, variant):
        data = blob_dataset(seed=8)
        with pytest.raises(ConfigurationError, match="set --gamma"):
            run_on_dataset(data, variant=variant, embed_dim=32, seed=0)
        for other in ("rp_relu", "slda", "ncm"):
            assert run_on_dataset(data, variant=other, embed_dim=32, seed=0).config["gamma"] is None


class TestCheckMemoryCap:
    CONFIG = ModelVariant(
        "randumb", num_classes=4, embedding=FeatureMapSpec("fourier", 8, 100, seed=0, gamma=1.0)
    )
    # rank bounds either side of the rule at E=100 and C=4: 8 (4 + 2 * 4)
    # <= E + 1 < 8 (5 + 2 * 4)
    LOW_RANK, DENSE = 4, 5

    def test_byte_arithmetic(self):
        # 4 class rows of 100 float64 means and one int64 count (3232
        # bytes), and the packed upper triangle: 100 * 101 / 2 float64
        # entries (40400 bytes)
        assert check_memory_cap(self.CONFIG, 43632, self.DENSE) == 43632
        with pytest.raises(ConfigurationError, match="43632 bytes"):
            check_memory_cap(self.CONFIG, 43631, self.DENSE)
        # the factor form: the class rows and L's buffer, 100 x (4 + 4)
        # float64 (6400 bytes)
        assert check_memory_cap(self.CONFIG, 9632, self.LOW_RANK) == 9632
        with pytest.raises(ConfigurationError, match=r"9632 bytes .*8\*E\*\(n-k\+C\) = 6400"):
            check_memory_cap(self.CONFIG, 9631, self.LOW_RANK)

    def test_eval_every_doubles_the_need(self):
        assert check_memory_cap(self.CONFIG, 84032, self.DENSE, eval_every=5) == 84032
        with pytest.raises(ConfigurationError, match="eval-every"):
            check_memory_cap(self.CONFIG, 84031, self.DENSE, eval_every=5)

    def test_low_rank_snapshots_add_no_copy(self):
        """With the run's rank bound on the low-rank side of the rule the
        run holds the factor, which snapshots only read; one past it, it
        holds the packed accumulator and each snapshot factors a copy."""
        assert check_memory_cap(self.CONFIG, 9632, self.LOW_RANK, eval_every=5) == 9632
        assert check_memory_cap(self.CONFIG, 84032, self.DENSE, eval_every=5) == 84032
        with pytest.raises(ConfigurationError, match="eval-every"):
            check_memory_cap(self.CONFIG, 84031, self.DENSE, eval_every=5)

    def test_symmetric_half_counts_half_the_class_rows(self):
        """kernel_ncm on a flip run holds C means of E/2 entries and C
        counts: the cap counts 8*C*(E/2+1) bytes, and the run's
        state_bytes is that count."""
        data = flip_check_dataset(np.random.default_rng(69))
        d = data.descriptor
        config = ModelVariant("kernel_ncm", d.num_classes, FeatureMapSpec(
            "fourier", d.input_dim, 256, 0, gamma=d.default_gamma, mirror_width=32,
        ))
        need = 8 * d.num_classes * (128 + 1)
        assert check_memory_cap(config, need, 2 * len(data.train_y)) == need
        with pytest.raises(ConfigurationError, match=rf"8\*C\*\(E/2\+1\) = {need} "):
            check_memory_cap(config, need - 1, 2 * len(data.train_y))
        result = run_on_dataset(data, variant="kernel_ncm", embed_dim=256, seed=0)
        assert result.config["state_dim"] == 256
        assert result.state_bytes == need

    def test_mean_only_variants_need_their_class_rows(self):
        config = ModelVariant("ncm", num_classes=4, input_dim=100)
        assert check_memory_cap(config, 3232, self.DENSE, eval_every=5) == 3232
        with pytest.raises(ConfigurationError, match="4 classes at state dimension 100"):
            check_memory_cap(config, 3231, self.DENSE)


class TestPeakMemoryEstimate:
    """What a run really allocates at once stays within fixed bounds: the
    packed accumulator (twice with eval_every), the map, the test set,
    and the ingestion, finalize and predict blocks.

    Each bound is the value of the byte-count formula that results
    reported as ``peak_memory_estimate_bytes`` before it was deleted in
    favour of these measured peaks; the sizes are fixed, so the peaks
    are deterministic."""

    @staticmethod
    def cifar_shaped(seed=0, train=300, test=100):
        rng = np.random.default_rng(seed)
        def draw(n):
            return (rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8),
                    np.arange(n) % 10)
        return RawDataset(DESCRIPTORS["cifar10"], *draw(train), *draw(test))

    # Bytes per case's variant, at eval_every 0 and 50.
    BOUNDS = {
        "randumb": {0: 18_543_512, 50: 19_594_136},
        "rp_relu": {0: 2_438_048, 50: 3_029_408},
        "kernel_ncm": {0: 2_104_736, 50: 2_104_736},
        "ncm": {0: 4_823_832, 50: 4_823_832},
    }

    @pytest.mark.parametrize("eval_every", [0, 50])
    @pytest.mark.parametrize(
        "kind,settings",
        [
            ("images", dict(variant="randumb", embed_dim=512, gamma=1e-3, augment=True)),
            ("features", dict(variant="rp_relu", embed_dim=384)),
            ("features", dict(variant="kernel_ncm", embed_dim=512, gamma=0.05)),
            # evaluation sets the peak: predictions and accuracy masks
            ("long-test", dict(variant="ncm")),
        ],
    )
    def test_traced_peak_within_estimate(self, kind, settings, eval_every):
        if kind == "images":
            data = self.cifar_shaped()
        elif kind == "long-test":
            data = blob_dataset(seed=3, num_classes=2, dim=4, test_per_class=100_000)
        else:
            data = blob_dataset(seed=3, num_classes=5, dim=64, train_per_class=80)
        _, peak = traced_peak(
            lambda: run_on_dataset(data, seed=0, eval_every=eval_every, **settings)
        )
        assert peak <= self.BOUNDS[settings["variant"]][eval_every]

    def test_snapshot_predictions_are_freed_before_the_final_evaluation(self):
        """Each eval_every snapshot's int64 test predictions go before the
        final evaluation makes its own, so snapshots of a mean-only model
        add less than half of them (8 bytes a test row) to the peak."""
        data = blob_dataset(seed=3, num_classes=2, dim=4, test_per_class=100_000)
        settings = dict(variant="ncm", seed=0)
        _, once = traced_peak(lambda: run_on_dataset(data, **settings))
        _, snap = traced_peak(lambda: run_on_dataset(data, eval_every=50, **settings))
        assert snap < once + 4 * len(data.test_y)

    def test_test_split_adds_only_its_raw_bytes_to_peak_rss(self):
        """The test split is normalized one block at a time just before it
        is scored, so 100x more test images raise the process's peak by
        their raw bytes, not by a normalized float32 copy (4x) of them."""
        small, _ = child_peak_rss(RSS_CHILD.format(test=100))
        large, _ = child_peak_rss(RSS_CHILD.format(test=10_000))
        added = (10_000 - 100) * (3 * 32 * 32 + 8)  # u8 images, int64 labels
        assert large - small <= added + 8 * 2**20

    def test_peak_rss_bytes_is_the_process_high_water_mark(self):
        """Measured at the end of the run: at least the mark before it, at
        most the child's final mark, and within 15045528 bytes (the
        deleted formula's value for this run) on top of the pre-run mark,
        plus 8 MiB of allocator and BLAS slack."""
        final, output = child_peak_rss(RSS_CHILD.format(test=100))
        before, measured = map(int, output.split())
        assert before <= measured <= final
        assert measured <= before + 15_045_528 + 8 * 2**20


class TestBlockedEvaluation:
    @pytest.mark.parametrize("kind", ["images", "features"])
    def test_blocked_and_whole_split_predictions_agree(self, kind):
        """Normalizing and scoring the test split one BLOCK_ROWS block at
        a time gives the predictions of the whole split at once."""
        if kind == "images":
            data = TestPeakMemoryEstimate.cifar_shaped(seed=5, train=200, test=600)
            whole = normalize_batch(data.test_x, data.descriptor)
        else:
            data = blob_dataset(seed=5, dim=20, test_per_class=120)
            whole = data.test_x
        d = data.descriptor
        embedding = FeatureMapSpec("fourier", d.input_dim, 128, seed=0, gamma=1e-3)
        config = ModelVariant(
            "randumb", num_classes=d.num_classes, embedding=embedding, ridge=d.default_ridge
        )
        model = StreamingClassifier(config)
        for block in make_stream(data, seed=1):
            model.observe(block.features, block.labels)
        model.finalize()
        assert len(data.test_y) > 2 * BLOCK_ROWS
        np.testing.assert_array_equal(
            _predict_test(model, data), model.predict_batch(whole)
        )


class TestFlipPairs:
    """The gate of the flip path: a flip run's streamed model, which
    embeds each image once and derives its mirrored copy, against the
    stream that flips, normalizes and embeds every copy through the same
    mirror-paired map (``reference.flip_pair_errors``)."""

    @pytest.fixture(scope="class")
    def data(self):
        return flip_check_dataset(np.random.default_rng(0))

    @pytest.mark.parametrize("cut_every", [0, 38])
    @pytest.mark.parametrize("classes_per_task", [1, 3])
    @pytest.mark.parametrize("variant", ["randumb", "kernel_ncm", "slda", "ncm", "rp_relu"])
    def test_streamed_matches_explicit_copies(self, data, variant, classes_per_task, cut_every):
        means, scatter, apart = flip_pair_errors(data, variant, 256, 0, classes_per_task, cut_every)
        assert apart == 0
        if variant in ("slda", "ncm"):
            # the mirror of a normalized original is the normalize of the
            # mirror, bit for bit: normalization is per channel
            assert means == scatter == 0
        else:
            assert means <= FLIP_MEANS_TOL and scatter <= FLIP_SCATTER_TOL

    def test_flip_run_embeds_each_image_once(self, data, monkeypatch):
        rows = []
        original = FeatureMap.project

        def counted(self, X):
            rows.append(len(X))
            return original(self, X)

        monkeypatch.setattr(FeatureMap, "project", counted)
        result = run_on_dataset(data, variant="kernel_ncm", embed_dim=256, seed=0)
        n = len(data.train_y)
        assert result.config["augment"] is True and result.observe_count == 2 * n
        assert sum(rows) == n + len(data.test_y)


class TestSweepAndAblation:
    def test_every_size_checked_before_the_first_run(self, monkeypatch):
        """A size refused late used to cost every run before it, and the
        CSV was never written."""
        built = []
        monkeypatch.setattr(
            StreamingClassifier, "__init__", lambda self, config: built.append(config)
        )
        data = blob_dataset(seed=11)
        with pytest.raises(ConfigurationError, match="positive even number"):
            sweep_embedding([512, 1024, 1025], data, variant="randumb", gamma=0.1, seed=0)
        images = toy_image_dataset()
        with pytest.raises(ConfigurationError, match="--embed-dim 66 cannot be split"):
            sweep_embedding([64, 66], images, variant="randumb", gamma=0.1, augment=True)
        # the memory cap of the largest size
        d = data.descriptor
        cap = check_memory_cap(
            ModelVariant("rp_relu", d.num_classes, FeatureMapSpec("relu", d.input_dim, 64, 0)),
            2**40, len(data.train_y) - d.num_classes,
        )
        with pytest.raises(ConfigurationError, match="above the configured cap"):
            sweep_embedding([64, 65], data, variant="rp_relu", memory_cap_bytes=cap)
        assert built == []

    def test_repeated_size_reproduces(self):
        data = blob_dataset(seed=11)
        results = sweep_embedding(
            [64, 64], data, variant="randumb", gamma=0.1, seed=3
        )
        assert len(results) == 2
        assert results[0].average_accuracy == results[1].average_accuracy

    def test_descending_sizes_rejected(self):
        data = blob_dataset(seed=11)
        with pytest.raises(ConfigurationError, match="non-descending"):
            sweep_embedding([128, 64], data, variant="randumb", gamma=0.1, seed=0)
        with pytest.raises(ConfigurationError, match="at least one"):
            sweep_embedding([], data, variant="randumb", gamma=0.1, seed=0)

    @pytest.mark.parametrize("variant", ["slda", "ncm"])
    def test_raw_input_variant_rejected(self, variant):
        """slda and ncm ignore embed_dim, so every size would run the same
        model at the input dimension."""
        data = blob_dataset(seed=11)
        with pytest.raises(ConfigurationError, match=f"variant {variant} runs on raw"):
            sweep_embedding([64, 128], data, variant=variant, seed=0)

    def test_ablation_plans_every_variant_before_the_first_run(self, monkeypatch):
        """A variant refused late used to cost the full pass of every
        variant before it: slda ran, then randumb had no kernel width."""
        built = []
        monkeypatch.setattr(
            StreamingClassifier, "__init__", lambda self, config: built.append(config)
        )
        data = blob_dataset(seed=11)
        with pytest.raises(ConfigurationError, match="no default kernel width"):
            run_ablation(data, variants=("slda", "randumb"))
        assert built == []

    def test_ablation_covers_all_variants(self):
        data = blob_dataset(seed=12, num_classes=4, dim=10, train_per_class=50)
        results = run_ablation(data, embed_dim=64, gamma=0.05, seed=0)
        assert [r.config["variant"] for r in results] == list(ABLATION_ORDER)
        for r in results:
            assert r.average_accuracy > 0.5, r.config["variant"]
        # Every variant consumed the same stream.
        counts = {r.observe_count for r in results}
        assert counts == {200}

    def test_sweep_table_csv(self):
        data = blob_dataset(seed=13)
        results = sweep_embedding([32, 64], data, variant="randumb", gamma=0.1, seed=0)
        table = sweep_table(results)
        lines = table.strip().split("\n")
        assert lines[0] == "variant,state_dim,average_accuracy,class_average_accuracy"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "randumb"
        assert first[1] == "32"
        assert 0.0 <= float(first[2]) <= 1.0


class TestRunResultSerialization:
    def make_result(self):
        data = blob_dataset(seed=14)
        return run_on_dataset(data, variant="randumb", embed_dim=32, gamma=0.1, seed=0)

    def test_to_json_types(self):
        result = self.make_result()
        encoded = json.dumps(result.to_json())
        decoded = json.loads(encoded)
        assert all(isinstance(k, str) for k in decoded["per_class_accuracy"])
        assert decoded["average_accuracy"] == result.average_accuracy
        assert "intermediate" not in decoded  # empty list is omitted

    def test_to_json_keys_are_the_fields_in_order(self):
        names = [f.name for f in fields(RunResult)]
        assert names[-1] == "intermediate"  # the one key left out when empty
        assert list(self.make_result().to_json()) == names[:-1]
        data = blob_dataset(seed=14)
        snapshots = run_on_dataset(
            data, variant="randumb", embed_dim=32, gamma=0.1, seed=0, eval_every=100
        )
        assert list(snapshots.to_json()) == names

    def test_append_jsonl(self, tmp_path):
        result = self.make_result()
        path = tmp_path / "runs.jsonl"
        append_jsonl(result, path)
        append_jsonl(result, path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        for line in lines:
            decoded = json.loads(line)
            assert decoded["observe_count"] == result.observe_count
