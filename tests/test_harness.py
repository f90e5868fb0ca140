"""Benchmark harness: stream construction, accuracy bookkeeping, the
single-pass contract, and the sweep/ablation drivers."""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import blob_dataset
from randumb import (
    ConfigurationError,
    DataError,
    DatasetDescriptor,
    ModelStateError,
    RunResult,
    StreamSpec,
    UnsupportedAugmentationError,
    compute_accuracy,
    make_stream,
    run_ablation,
    run_benchmark,
    run_on_dataset,
    sweep_embedding,
)
from randumb.data_io import (
    DESCRIPTORS,
    RawDataset,
    dataset_from_features,
    flip_horizontal,
    normalize,
)
from randumb.harness import (
    ABLATION_ORDER,
    append_jsonl,
    build_model_config,
    check_memory_cap,
    sweep_table,
)


def toy_image_descriptor(num_classes=2, train_count=20, test_count=8,
                         flip_default=False):
    return DatasetDescriptor(
        name="toyimg",
        kind="images",
        input_dim=4,
        num_classes=num_classes,
        channel_means=(0.5,),
        channel_stds=(0.5,),
        image_shape=(2, 2),
        train_count=train_count,
        test_count=test_count,
        flip_default=flip_default,
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
    descriptor = toy_image_descriptor(
        train_count=len(train_y), test_count=len(test_y)
    )
    return RawDataset(descriptor, train_x, train_y, test_x, test_y)


class TestStreamSpec:
    def test_default_order_is_identity(self):
        spec = StreamSpec(dataset=toy_image_descriptor(num_classes=4))
        assert spec.class_order == (0, 1, 2, 3)

    def test_tasks_chunking(self):
        spec = StreamSpec(
            dataset=toy_image_descriptor(num_classes=5),
            classes_per_task=2,
            class_order=(3, 1, 4, 0, 2),
        )
        assert spec.tasks == ((3, 1), (4, 0), (2,))

    def test_validation(self):
        d = toy_image_descriptor(num_classes=3)
        with pytest.raises(ConfigurationError, match="classes_per_task"):
            StreamSpec(dataset=d, classes_per_task=0)
        with pytest.raises(ConfigurationError, match="seed"):
            StreamSpec(dataset=d, seed=-1)
        with pytest.raises(ConfigurationError, match="permutation"):
            StreamSpec(dataset=d, class_order=(0, 1))
        with pytest.raises(ConfigurationError, match="permutation"):
            StreamSpec(dataset=d, class_order=(0, 1, 1))

    def test_augmenting_features_rejected(self):
        data = blob_dataset()
        with pytest.raises(UnsupportedAugmentationError, match="feature vectors"):
            StreamSpec(dataset=data.descriptor, augment=True)


def stream_rows(spec, data, **kwargs):
    """Concatenate a block stream into per-step arrays."""
    blocks = list(make_stream(spec, data.train_x, data.train_y, **kwargs))
    return (
        np.concatenate([b.indices for b in blocks]),
        np.concatenate([b.flipped for b in blocks]),
        np.concatenate([b.features for b in blocks]),
        np.concatenate([b.labels for b in blocks]),
    )


class TestMakeStream:
    def test_class_incremental_contiguity(self):
        data = blob_dataset(num_classes=4, train_per_class=5)
        spec = StreamSpec(dataset=data.descriptor, class_order=(2, 0, 3, 1))
        labels = stream_rows(spec, data)[3].tolist()
        assert labels == [2] * 5 + [0] * 5 + [3] * 5 + [1] * 5

    def test_within_task_mixing(self):
        data = blob_dataset(num_classes=4, train_per_class=8)
        spec = StreamSpec(dataset=data.descriptor, classes_per_task=2, seed=1)
        labels = stream_rows(spec, data)[3].tolist()
        first, second = labels[:16], labels[16:]
        assert set(first) == {0, 1} and set(second) == {2, 3}
        # A task's classes are interleaved by the shuffle, not concatenated.
        assert first != sorted(first) or second != sorted(second)

    def test_deterministic_in_seed(self):
        data = blob_dataset(num_classes=3, train_per_class=7)
        spec = StreamSpec(dataset=data.descriptor, seed=9)
        a = list(make_stream(spec, data.train_x, data.train_y))
        b = list(make_stream(spec, data.train_x, data.train_y))
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
            spec = StreamSpec(dataset=data.descriptor, seed=seed)
            orders.append(stream_rows(spec, data)[0].tolist())
        assert orders[0] != orders[1]

    def test_missing_class_rejected(self):
        data = blob_dataset(num_classes=3, train_per_class=5)
        mask = data.train_y != 1
        spec = StreamSpec(dataset=data.descriptor)
        with pytest.raises(ConfigurationError, match="class 1 has no samples"):
            list(make_stream(spec, data.train_x[mask], data.train_y[mask]))

    def test_flip_augmentation_doubles_and_interleaves(self):
        data = toy_image_dataset(per_class=6)
        spec = StreamSpec(dataset=data.descriptor, augment=True, seed=2)
        indices, flipped, features, labels = stream_rows(spec, data)
        n = len(data.train_y)
        assert len(labels) == 2 * n
        assert not flipped[0::2].any() and flipped[1::2].all()
        np.testing.assert_array_equal(indices[0::2], indices[1::2])
        np.testing.assert_array_equal(labels[0::2], labels[1::2])
        assert sorted(indices[0::2].tolist()) == list(range(n))
        for orig, flip in zip(features[0::2], features[1::2]):
            # Normalization is per-pixel, so flipping commutes with it.
            np.testing.assert_array_equal(
                orig.reshape(2, 2)[:, ::-1], flip.reshape(2, 2)
            )

    def test_no_augmentation_keeps_origin_original(self):
        data = toy_image_dataset(per_class=4)
        spec = StreamSpec(dataset=data.descriptor, augment=False)
        indices, flipped, features, labels = stream_rows(spec, data)
        assert len(labels) == len(data.train_y)
        assert not flipped.any()
        assert features.shape == (len(data.train_y), 4)

    def test_feature_stream_passthrough(self):
        data = blob_dataset(num_classes=2, train_per_class=3)
        spec = StreamSpec(dataset=data.descriptor)
        indices, _, features, labels = stream_rows(spec, data)
        assert features.dtype == np.float32
        np.testing.assert_array_equal(features, data.train_x[indices])
        np.testing.assert_array_equal(labels, data.train_y[indices])

    def test_blocks_match_per_image_normalize_and_flip(self):
        # The per-image functions are the reference for the block path.
        rng = np.random.default_rng(3)
        n = 300
        train_x = rng.integers(0, 256, size=(n, 2, 2), dtype=np.uint8)
        train_y = np.repeat([0, 1], n // 2)
        descriptor = toy_image_descriptor(train_count=n)
        spec = StreamSpec(dataset=descriptor, augment=True, seed=4)
        data = RawDataset(descriptor, train_x, train_y, train_x[:4], train_y[:4])
        indices, flipped, features, labels = stream_rows(spec, data)
        for i, flip, row in zip(indices, flipped, features):
            image = flip_horizontal(train_x[i]) if flip else train_x[i]
            np.testing.assert_array_equal(row, normalize(image, descriptor))

    def test_blocks_cut_at_absolute_positions(self):
        # 2 tasks x 200 samples, flipped: 800 steps.  Cuts fall on
        # multiples of 256 and of cut_every, never at the task boundary.
        data = toy_image_dataset(per_class=200)
        spec = StreamSpec(dataset=data.descriptor, augment=True, seed=5)
        starts = [b.start for b in make_stream(spec, data.train_x, data.train_y)]
        assert starts == [0, 256, 512, 768]
        blocks = list(make_stream(spec, data.train_x, data.train_y, cut_every=300))
        assert [b.start for b in blocks] == [0, 256, 300, 512, 600, 768]
        assert [b.stop for b in blocks] == [256, 300, 512, 600, 768, 800]
        whole = stream_rows(spec, data)
        cut = stream_rows(spec, data, cut_every=300)
        for a, b in zip(whole, cut):
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
        assert result.peak_memory_estimate_bytes > 8 * 128 * 128

    def test_bit_for_bit_repeatable(self):
        data = blob_dataset(seed=2)
        a = run_on_dataset(data, variant="randumb", embed_dim=64, gamma=0.1, seed=5)
        b = run_on_dataset(data, variant="randumb", embed_dim=64, gamma=0.1, seed=5)
        assert a.average_accuracy == b.average_accuracy
        assert a.per_class_accuracy == b.per_class_accuracy
        assert a.shrinkage_rho == b.shrinkage_rho
        assert a.log_det == b.log_det

    def test_class_order_does_not_move_accuracy(self):
        data = blob_dataset(seed=3, num_classes=5, dim=10, train_per_class=80)
        base = run_on_dataset(data, variant="randumb", embed_dim=64, gamma=0.05, seed=0)
        permuted = run_on_dataset(
            data, variant="randumb", embed_dim=64, gamma=0.05, seed=0,
            class_order=(4, 2, 0, 3, 1),
        )
        assert abs(base.average_accuracy - permuted.average_accuracy) <= 0.02

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

    def test_accuracy_improves_along_the_stream(self):
        data = blob_dataset(seed=6, num_classes=5, dim=10, train_per_class=50)
        result = run_on_dataset(
            data, variant="randumb", embed_dim=64, gamma=0.05, seed=0, eval_every=50
        )
        # While tasks are arriving, unseen classes score zero; accuracy
        # climbs as classes appear.
        first, last = result.intermediate[0], result.intermediate[-1]
        assert first["average_accuracy"] < last["average_accuracy"]

    def test_memory_cap_refusal(self):
        data = blob_dataset(seed=7)
        with pytest.raises(ConfigurationError, match=r"1 x 4\*E\*\(E\+1\)"):
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

    def test_memory_cap_ignores_mean_only_variants(self):
        data = blob_dataset(seed=7)
        result = run_on_dataset(
            data, variant="kernel_ncm", embed_dim=512, gamma=0.1, seed=0,
            memory_cap_bytes=1024**2,
        )
        assert result.observe_count == len(data.train_y)

    def test_input_dim_mismatch(self):
        data = blob_dataset(seed=8, dim=12)
        config = build_model_config(
            "slda", blob_dataset(seed=8, dim=7).descriptor,
            embed_dim=64, gamma=1.0, ridge=None, seed=0,
        )
        spec = StreamSpec(dataset=data.descriptor)
        with pytest.raises(ConfigurationError, match="dataset feeds"):
            run_benchmark(
                spec, config, data.train_x, data.train_y, data.test_x, data.test_y
            )

    def test_stream_errors_name_the_step(self):
        rng = np.random.default_rng(9)
        X = rng.standard_normal((10, 4)).astype(np.float32)
        y = np.array([0] * 5 + [1] * 5, dtype=np.int64)
        X[0] = np.nan  # poisons whichever step draws this sample
        data = dataset_from_features(X, y, X[5:], y[5:])
        with pytest.raises(DataError, match=r"stream step \d+ \(class \d+, original\)"):
            run_on_dataset(data, variant="slda", embed_dim=4, seed=0)

    def test_mid_block_error_names_its_own_step(self):
        rng = np.random.default_rng(10)
        X = rng.standard_normal((600, 4)).astype(np.float32)
        y = np.repeat([0, 1, 2], 200)
        data = dataset_from_features(X, y, X[:30], y[:30])
        # run_on_dataset shuffles the stream with seed + 1.
        spec = StreamSpec(dataset=data.descriptor, seed=1)
        indices, _, _, labels = stream_rows(spec, data)
        step = 300  # row 44 of the block starting at step 256
        X[indices[step]] = np.nan
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

    def test_one_pass_check_raises(self, monkeypatch):
        # A model that folds in a row twice breaks the one-pass contract;
        # the check is a raised error, so it also holds under python -O.
        from randumb.classifier import StreamingClassifier

        original = StreamingClassifier.observe

        def double_first_row(self, x_raw, labels):
            original(self, x_raw, labels)
            original(self, x_raw[:1], labels[:1])

        monkeypatch.setattr(StreamingClassifier, "observe", double_first_row)
        data = blob_dataset(seed=1)
        with pytest.raises(ModelStateError, match="one-pass check failed"):
            run_on_dataset(data, variant="slda", seed=0)

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


class TestCheckMemoryCap:
    def test_byte_arithmetic(self):
        data = blob_dataset(seed=0)
        config = build_model_config(
            "randumb", data.descriptor, embed_dim=100, gamma=1.0, ridge=None, seed=0
        )
        # the packed upper triangle: 100 * 101 / 2 float64 entries
        assert check_memory_cap(config, 40400) == 40400
        with pytest.raises(ConfigurationError, match="40400 bytes"):
            check_memory_cap(config, 40399)

    def test_eval_every_doubles_the_need(self):
        data = blob_dataset(seed=0)
        config = build_model_config(
            "randumb", data.descriptor, embed_dim=100, gamma=1.0, ridge=None, seed=0
        )
        assert check_memory_cap(config, 80800, eval_every=5) == 80800
        with pytest.raises(ConfigurationError, match="eval-every"):
            check_memory_cap(config, 80799, eval_every=5)


class TestPeakMemoryEstimate:
    """The reported estimate bounds what a run really allocates at once:
    the packed accumulator (twice with eval_every), the map, the test
    set, and the ingestion, finalize and predict blocks."""

    @staticmethod
    def cifar_shaped(seed=0, train=300, test=100):
        rng = np.random.default_rng(seed)
        descriptor = replace(DESCRIPTORS["cifar10"], train_count=train, test_count=test)
        def draw(n):
            return (rng.integers(0, 256, size=(n, 3, 32, 32), dtype=np.uint8),
                    np.arange(n) % 10)
        return RawDataset(descriptor, *draw(train), *draw(test))

    @pytest.mark.parametrize("eval_every", [0, 50])
    @pytest.mark.parametrize(
        "kind,settings",
        [
            ("images", dict(variant="randumb", embed_dim=512, gamma=1e-3, augment=True)),
            ("features", dict(variant="rp_relu", embed_dim=384)),
            ("features", dict(variant="kernel_ncm", embed_dim=512, gamma=0.05)),
        ],
    )
    def test_traced_peak_within_estimate(self, kind, settings, eval_every):
        if kind == "images":
            data = self.cifar_shaped()
        else:
            data = blob_dataset(seed=3, num_classes=5, dim=64, train_per_class=80)
        tracemalloc.start()
        try:
            result = run_on_dataset(data, seed=0, eval_every=eval_every, **settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= result.peak_memory_estimate_bytes

    def test_estimate_counts_the_snapshot_copy(self):
        data = blob_dataset(seed=3)
        settings = dict(variant="randumb", embed_dim=256, gamma=0.1, seed=0)
        once = run_on_dataset(data, **settings).peak_memory_estimate_bytes
        snap = run_on_dataset(data, eval_every=50, **settings).peak_memory_estimate_bytes
        assert snap == once + 4 * 256 * 257


class TestSweepAndAblation:
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
