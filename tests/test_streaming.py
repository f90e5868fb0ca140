"""Streaming estimator: exactness against batch statistics, order
invariance, memory behavior, and its state through a checkpoint."""

import re
import tracemalloc

import numpy as np
import pytest

from conftest import assert_refused, traced_peak
from randumb.classifier import VARIANTS, ModelVariant, StreamingClassifier
from randumb.fourier import FeatureMapSpec
from randumb.data_io import read_checkpoint, write_checkpoint
from randumb.errors import (
    ConfigurationError,
    DataError,
    DataFormatError,
    InsufficientDataError,
    ModelStateError,
    ShapeError,
)
from randumb.precision import pack_upper
from randumb.reference import batch_stats
from randumb.streaming import StreamingEstimator


def feed(est, X, y):
    for xi, yi in zip(X, y):
        est.observe(xi, yi)
    return est


# The class count of the estimators here: every test labels its samples
# below it, unless it passes its own.
CLASSES = 10


def raw_model(e, classes=CLASSES):
    """A classifier on raw inputs: its state is exactly one estimator
    plus a ridge, and checkpoints are the classifier's."""
    return StreamingClassifier(ModelVariant("slda", num_classes=classes, input_dim=e, ridge=1e-4))


def reload(model, path):
    """The estimator of ``model`` after a save to ``path`` and a load."""
    model.save(path)
    return StreamingClassifier.load(path).estimator


class TestSingleSamples:
    def test_first_sample_sets_mean_and_zero_scatter(self):
        est = StreamingEstimator(4, CLASSES)
        phi = np.array([1.0, -2.0, 0.5, 3.0])
        est.observe(phi, 0)
        counts, means = est.class_rows()
        np.testing.assert_array_equal(means[0], phi)
        assert counts.tolist() == [1] + [0] * (CLASSES - 1)
        assert not est.scatter().any()

    def test_identical_samples_leave_scatter_zero(self):
        est = StreamingEstimator(3, CLASSES)
        phi = np.array([0.25, 0.5, -1.0])
        est.observe(phi, 2)
        est.observe(phi, 2)
        assert not est.scatter().any()
        np.testing.assert_allclose(est.class_rows()[1][2], phi, atol=1e-15)

    def test_two_point_covariance_closed_form(self):
        v = np.array([1.0, 4.0])
        w = np.array([3.0, 0.0])
        est = feed(StreamingEstimator(2, CLASSES), [v, w], [0, 0])
        np.testing.assert_allclose(
            est.covariance(), 0.5 * np.outer(v - w, v - w), atol=1e-12
        )

    def test_nonzero_counts_mark_observed_labels_only(self):
        est = StreamingEstimator(2, CLASSES)
        est.observe(np.ones(2), 3)
        est.observe(np.zeros(2), 7)
        assert np.flatnonzero(est.class_rows()[0]).tolist() == [3, 7]


class TestBatchEquivalence:
    def test_pooled_matches_batch_oracle(self):
        """500 samples, 5 classes: scatter and means agree with the
        two-pass batch computation to 1e-10 relative."""
        rng = np.random.default_rng(10)
        X = rng.standard_normal((500, 16))
        y = rng.integers(0, 5, size=500)
        est = feed(StreamingEstimator(16, CLASSES), X, y)
        ref = batch_stats(X, y)
        scale = np.abs(ref.scatter).max()
        assert np.abs(est.scatter() - ref.scatter).max() / scale < 1e-10
        means = est.class_rows()[1]
        for label, mean in ref.means.items():
            np.testing.assert_allclose(means[label], mean, rtol=1e-12, atol=1e-12)

    def test_class_means_high_count(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((1000, 8))
        y = np.repeat(np.arange(10), 100)
        est = feed(StreamingEstimator(8, CLASSES), X, y)
        ref = batch_stats(X, y)
        means = est.class_rows()[1]
        for label, mean in ref.means.items():
            np.testing.assert_allclose(means[label], mean, rtol=1e-12)

    def test_reversed_stream_gives_same_covariance(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((300, 6))
        y = rng.integers(0, 3, size=300)
        fwd = feed(StreamingEstimator(6, CLASSES), X, y).covariance()
        rev = feed(StreamingEstimator(6, CLASSES), X[::-1], y[::-1]).covariance()
        assert np.abs(fwd - rev).max() / np.abs(fwd).max() < 1e-10

    def test_iid_standard_normal_covariance_near_identity(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((10_000, 8))
        y = np.zeros(10_000, dtype=int)
        est = feed(StreamingEstimator(8, CLASSES), X, y)
        assert np.abs(est.covariance() - np.eye(8)).max() < 0.1


class TestNumericalShape:
    def test_scatter_is_exactly_symmetric(self):
        rng = np.random.default_rng(16)
        est = feed(
            StreamingEstimator(7, CLASSES),
            rng.standard_normal((120, 7)),
            rng.integers(0, 3, size=120),
        )
        s = est.scatter()
        assert np.abs(s - s.T).max() == 0.0

    def test_covariance_positive_semidefinite(self):
        rng = np.random.default_rng(17)
        est = feed(
            StreamingEstimator(10, CLASSES),
            rng.standard_normal((200, 10)),
            rng.integers(0, 6, size=200),
        )
        eigs = np.linalg.eigvalsh(est.covariance())
        assert eigs.min() >= -1e-8 * eigs.max()

    def test_dimension_and_finiteness_checks(self):
        est = StreamingEstimator(3, CLASSES)
        with pytest.raises(ShapeError):
            est.observe(np.zeros(4), 0)
        with pytest.raises(DataError):
            est.observe(np.array([1.0, np.inf, 0.0]), 0)

    def test_insufficient_data_errors(self):
        est = StreamingEstimator(3, CLASSES)
        with pytest.raises(InsufficientDataError):
            est.covariance()
        est.observe(np.ones(3), 0)
        with pytest.raises(InsufficientDataError):
            est.covariance()
        with pytest.raises(InsufficientDataError):
            est.packed_scatter(consume=True)
        est.observe(np.zeros(3), 1)
        assert est.packed_scatter()[1] == 1

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingEstimator(0, CLASSES)
        for value in (10.5, True, np.int64(4)):
            refusal = rf"^embed_dim must be an integer, got {re.escape(repr(value))}$"
            with pytest.raises(ConfigurationError, match=refusal):
                StreamingEstimator(value, 3)
        with pytest.raises(ConfigurationError, match=r"^num_classes must be an integer, got 3\.0$"):
            StreamingEstimator(4, 3.0)
        # one covariance: no centering mode, no (n - C) normalizer
        with pytest.raises(TypeError):
            StreamingEstimator(4, CLASSES, mode="global")
        with pytest.raises(TypeError):
            StreamingEstimator(4, CLASSES, pooled_unbiased=True)


class TestMemoryContract:
    def test_state_size_constant_after_all_classes_seen(self):
        """State is one E x E accumulator plus C mean vectors: growing
        the stream 100x does not grow the state."""
        rng = np.random.default_rng(18)
        est = StreamingEstimator(12, CLASSES)
        for i in range(50):
            est.observe(rng.standard_normal(12), i % 5)
        size_warm = est.state_nbytes()
        for i in range(5000):
            est.observe(rng.standard_normal(12), i % 5)
        assert est.state_nbytes() == size_warm
        assert est.total_count == 5050

    def test_consuming_covariance_spends_the_estimator(self):
        """The consuming handoff returns the accumulator itself, as
        stored: the scatter's upper triangle packed into E (E + 1) / 2
        entries, and the normalizer; the copying handoff returns an equal
        copy."""
        rng = np.random.default_rng(19)
        for e in (4, 5):
            X = rng.standard_normal((40, e))
            y = rng.integers(0, 2, size=40)
            spend = feed(StreamingEstimator(e, CLASSES), X, y)
            expected = spend.scatter()
            buffer = spend._scatter
            copied, denom = spend.packed_scatter()
            assert copied is not buffer and denom == 39
            taken, denom = spend.packed_scatter(consume=True)
            assert taken is buffer and taken.shape == (e * (e + 1) // 2,) and denom == 39
            np.testing.assert_array_equal(taken, copied)
            np.testing.assert_array_equal(taken, pack_upper(expected))
            with pytest.raises(ModelStateError):
                spend.observe(np.zeros(e), 0)
            with pytest.raises(ModelStateError):
                spend.covariance()
            with pytest.raises(ModelStateError):
                spend.packed_scatter()

    def test_mean_only_mode_has_no_scatter(self):
        est = StreamingEstimator(4, CLASSES, track_scatter=False)
        full = StreamingEstimator(4, CLASSES)
        for model in (est, full):
            model.observe(np.ones(4), 0)
            model.observe(np.zeros(4), 1)
        with pytest.raises(ModelStateError):
            est.covariance()
        assert np.flatnonzero(est.class_rows()[0]).tolist() == [0, 1]
        # the packed upper triangle: E (E + 1) / 2 float64 entries
        assert full.state_nbytes() - est.state_nbytes() == 4 * 5 // 2 * 8


class TestClassRows:
    """Label c is row c of the C class rows, allocated at construction; a
    count of 0 marks a class not seen yet."""

    @pytest.mark.parametrize("track_scatter", [True, False])
    def test_state_nbytes_fixed_at_construction(self, track_scatter):
        """8 C bytes of counts and 8 C E of means, plus the 4 E (E + 1) of
        the packed accumulator when it is kept: the same before the first
        observe, after the last and after a checkpoint round trip."""
        e, c = 6, 7
        want = 8 * c + 8 * c * e + (4 * e * (e + 1) if track_scatter else 0)
        est = StreamingEstimator(e, c, track_scatter=track_scatter)
        assert est.state_nbytes() == want
        rng = np.random.default_rng(30)
        for labels in ([3], [6, 0, 0], list(range(c)) * 5):
            est.observe(rng.standard_normal((len(labels), e)), labels)
            assert est.state_nbytes() == want
        model = raw_model(e, c)
        model.observe(rng.standard_normal((20, e)), np.arange(20) % c)
        assert model.estimator.state_nbytes() == 8 * c + 8 * c * e + 4 * e * (e + 1)

    def test_each_row_keeps_its_class_statistics_bitwise(self, tmp_path):
        """New labels arrive out of order, several per block; each class's
        mean is the merge rule's arithmetic on its own rows, bit for bit."""
        e = 6
        rng = np.random.default_rng(31)
        model = raw_model(e)
        est = model.estimator
        want_means, want_counts = {}, {}
        for labels in ([7, 3, 3], [5, 1, 9, 5], [0, 8], [2, 4, 6, 3], [1, 7, 7]):
            block = rng.standard_normal((len(labels), e)).astype(np.float32)
            est.observe(block, labels)
            for c in sorted(set(labels)):
                rows = block[np.asarray(labels) == c].astype(np.float64)
                mean = want_means.setdefault(c, np.zeros(e))
                n, m = want_counts.get(c, 0), len(rows)
                mean += (rows.sum(axis=0) / m - mean) * m / (n + m)
                want_counts[c] = n + m
        counts, means = est.class_rows()
        assert counts.tolist() == [want_counts[c] for c in range(CLASSES)]
        for c in range(CLASSES):
            assert means[c].tobytes() == want_means[c].tobytes()
        back = reload(model, tmp_path / "rows.rdck")
        for name, stored in est._arrays().items():
            assert back._arrays()[name].tobytes() == stored.tobytes()

    @pytest.mark.parametrize("bad", [-1, 4])
    def test_label_outside_the_rows_names_its_row_and_leaves_state(self, bad):
        est = StreamingEstimator(3, 4)
        est.observe(np.ones((2, 3)), [0, 1])
        before = est.scatter()
        with pytest.raises(DataError, match=f"label {bad} is outside 0..3") as info:
            est.observe(np.zeros((4, 3)), [1, 3, bad, 0])
        assert info.value.row == 2
        assert est.class_rows()[0].tolist() == [1, 1, 0, 0]
        np.testing.assert_array_equal(est.scatter(), before)
        with pytest.raises(DataError) as info:
            est.observe(np.zeros(3), bad)
        assert info.value.row == 0

    def test_observe_allocates_the_stack_and_a_few_vectors(self):
        """A float32 block is scattered straight into the float64 stack
        of the rank-k update: no float32 sorted copy, no held mean-shift
        vectors."""
        e, m, c = 1024, 256, 10
        rng = np.random.default_rng(32)
        est = StreamingEstimator(e, CLASSES)
        est.observe(rng.standard_normal((c, e)).astype(np.float32), np.arange(c))
        block = rng.standard_normal((m, e)).astype(np.float32)
        _, peak = traced_peak(est.observe, block, rng.integers(0, c, size=m))
        stack = 8 * (m + c + 1) * e
        assert peak <= stack + 16 * 8 * e


class TestCheckpoint:
    """The estimator's arrays are what a checkpoint stores.  Checkpoints
    belong to the classifier, so each case goes through ``raw_model``."""

    @pytest.mark.parametrize("classes", [1, 2, 3, 4, 5, 8, 9, 17])
    def test_round_trip_preserves_every_statistic(self, tmp_path, classes):
        """The checkpoint holds the C rows as they are, and a load adopts
        them: rows seen after the load fold in as in the saved estimator."""
        rng = np.random.default_rng([20, classes])
        X = rng.standard_normal((150, 6))
        y = rng.permutation(np.arange(150) % classes)
        model = raw_model(6, classes + 2)
        est = feed(model.estimator, X, y)
        back = reload(model, tmp_path / "estimator.rdck")
        assert back.total_count == est.total_count
        np.testing.assert_array_equal(back.class_rows()[0], est.class_rows()[0])
        assert np.flatnonzero(est.class_rows()[0]).tolist() == list(range(classes))
        np.testing.assert_array_equal(back.covariance(), est.covariance())
        assert back.state_nbytes() == est.state_nbytes()
        for name, stored in est._arrays().items():
            assert back._arrays()[name].dtype == stored.dtype
            np.testing.assert_array_equal(back._arrays()[name], stored)
        new = [classes, classes + 1]
        x = rng.standard_normal((2, 6))
        back.observe(x, new)
        est.observe(x, new)
        for name, stored in est._arrays().items():
            np.testing.assert_array_equal(back._arrays()[name], stored)

    def test_round_trip_of_an_empty_stream(self, tmp_path):
        """No class seen: every count 0, every mean row zero, and the
        first rows after the load fold in as a fresh estimator's do."""
        model = raw_model(6)
        back = reload(model, tmp_path / "empty.rdck")
        counts, means = back.class_rows()
        assert back.total_count == 0 and not counts.any() and not means.any()
        assert back.state_nbytes() == model.estimator.state_nbytes()
        x = np.arange(12.0).reshape(2, 6)
        for est in (back, model.estimator):
            est.observe(x, [3, 7])
        np.testing.assert_array_equal(back.scatter(), model.estimator.scatter())
        np.testing.assert_array_equal(back._means, model.estimator._means)

    @pytest.mark.parametrize(
        "variant,negative",
        [
            *[pytest.param(v, False, id=v) for v in VARIANTS],
            # every seen score below zero: an unseen class scoring 0 would win
            pytest.param("ncm", True, id="ncm-negative-scores"),
        ],
    )
    def test_unseen_middle_class_round_trips_bitwise_and_is_never_predicted(
        self, tmp_path, variant, negative
    ):
        """Classes 0 and 2 of 3 seen: the checkpoint keeps class 1's zero
        row and count bit for bit, and the model never predicts it."""
        rng = np.random.default_rng(22)
        head = VARIANTS[variant][0]
        spec = None if head is None else FeatureMapSpec(
            head, 5, 16, 3, gamma=0.2 if head == "fourier" else None
        )
        model = StreamingClassifier(ModelVariant(
            variant, num_classes=3, embedding=spec, ridge=1e-4,
            input_dim=5 if spec is None else None,
        ))
        if negative:
            X = np.abs(rng.standard_normal((40, 5))) + np.repeat(np.eye(5)[:2] * 3, 20, axis=0)
            T = -np.abs(rng.standard_normal((500, 5))) * 4.0
        else:
            X = rng.standard_normal((40, 5)) + np.repeat([[3.0], [-3.0]], 20, axis=0)
            T = rng.standard_normal((500, 5)) * 4.0
        y = np.repeat([0, 2], 20)
        model.observe(X, y)
        back = reload(model, tmp_path / "gap.rdck")
        assert back.class_rows()[0].tolist() == [20, 0, 20]
        assert back._counts[1] == 0 and not back._means[1].any()
        for name, stored in model.estimator._arrays().items():
            assert back._arrays()[name].tobytes() == stored.tobytes()
        loaded = StreamingClassifier.load(tmp_path / "gap.rdck")
        if negative:
            means = model.estimator.class_rows()[1]
            assert (T @ means[[0, 2]].T < 0).all()
        for m in (model, loaded):
            m.finalize()
        predicted = model.predict_batch(T)
        assert set(predicted.tolist()) == {0, 2}
        np.testing.assert_array_equal(loaded.predict_batch(T), predicted)

    def test_resume_matches_uninterrupted_run_bitwise(self, tmp_path):
        """Saving mid-stream and resuming replays the identical float
        operations, so the final state is bit-identical."""
        rng = np.random.default_rng(21)
        X = rng.standard_normal((80, 5))
        y = rng.integers(0, 3, size=80)
        whole = feed(StreamingEstimator(5, CLASSES), X, y)

        first = raw_model(5)
        feed(first.estimator, X[:37], y[:37])
        resumed = feed(reload(first, tmp_path / "mid.rdck"), X[37:], y[37:])
        np.testing.assert_array_equal(resumed.covariance(), whole.covariance())

    def test_save_and_load_hold_one_copy_of_the_accumulator(self, tmp_path):
        """save writes the packed accumulator from its own buffer (a copy
        would add a whole 4*E*(E+1) bytes on top), and load reads it into
        the vector it resumes with."""
        e = 1024
        rng = np.random.default_rng(23)
        model = raw_model(e)
        model.observe(rng.standard_normal((300, e)), rng.integers(0, 4, size=300))
        path = tmp_path / "big.rdck"
        packed = 4 * e * (e + 1)
        tracemalloc.start()
        try:
            model.save(path)
            saved = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            back = StreamingClassifier.load(path).estimator
            loaded = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert saved < 0.1 * packed
        assert loaded < 1.1 * packed
        assert back._scatter.shape == (e * (e + 1) // 2,)
        np.testing.assert_array_equal(back._scatter, model.estimator._scatter)

    MISMATCHES = {
        "scatter_square_of_a_smaller_order": ("scatter", np.zeros((5, 5)), [21], [5, 5]),
        "scatter_square_pre_packed_layout": ("scatter", np.zeros((6, 6)), [21], [6, 6]),
        "scatter_short": ("scatter", np.zeros(20), [21], [20]),
        "means_fewer_rows_than_labels": ("class_means", np.zeros((2, 6)), [3, 6], [2, 6]),
        "means_narrower_than_embed_dim": ("class_means", np.zeros((3, 4)), [3, 6], [3, 4]),
        "counts_shorter_than_labels": ("class_counts", np.ones(2, np.int64), [3], [2]),
    }

    @pytest.mark.parametrize("case", sorted(MISMATCHES))
    def test_array_disagreeing_with_meta_rejected(self, tmp_path, case):
        """Every array is checked against the shape the model's config
        implies, so a mismatched checkpoint fails at load, naming the
        array, instead of at the next observe."""
        name, bad, expected, found = self.MISMATCHES[case]
        rng = np.random.default_rng(24)
        model = raw_model(6, 3)
        model.observe(rng.standard_normal((30, 6)), np.arange(30) % 3)
        path = tmp_path / "bad.rdck"
        model.save(path)
        meta, arrays = read_checkpoint(path)
        arrays[name] = bad
        write_checkpoint(path, meta, arrays)
        with pytest.raises(DataFormatError) as info:
            StreamingClassifier.load(path)
        message = str(info.value)
        assert repr(name) in message
        assert f"expected {expected}" in message and f"shape {found}" in message

    @staticmethod
    def tampered(tmp_path, edit):
        """A saved three-class model whose (meta, arrays) ``edit`` changed."""
        X = np.eye(4)[[0, 1, 2, 3, 0, 1]]
        model = raw_model(4, 3)
        feed(model.estimator, X, [0, 1, 2, 0, 1, 2])
        path = tmp_path / "tampered.rdck"
        model.save(path)
        meta, arrays = read_checkpoint(path)
        edit(meta, arrays)
        write_checkpoint(path, meta, arrays)
        return path

    def test_missing_array_rejected(self, tmp_path):
        path = self.tampered(tmp_path, lambda meta, arrays: arrays.pop("scatter"))
        assert_refused(path, "no 'scatter' array")

    def test_array_the_model_does_not_use_rejected(self, tmp_path):
        def add(meta, arrays):
            arrays["weights"] = np.zeros((4, 4))

        assert_refused(self.tampered(tmp_path, add), "'weights' array that its model")

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.rdck"
        write_checkpoint(path, {"kind": "something_else"}, {})
        with pytest.raises(DataError):
            StreamingClassifier.load(path)

    @pytest.mark.parametrize(
        "field,value",
        [("estimator_mode", "pooled_within_class"), ("pooled_unbiased", False)],
    )
    def test_field_of_the_deleted_estimator_settings_rejected(self, tmp_path, field, value):
        """Checkpoints written while the estimator had a global mode and an
        (n - C) normalizer carry both fields, even at their defaults."""
        path = self.tampered(
            tmp_path, lambda meta, arrays: meta["model"].update({field: value})
        )
        assert_refused(path, repr(field))

    def test_grand_mean_array_rejected(self, tmp_path):
        """Only the deleted global mode updated it; older checkpoints
        stored it, all zeros, beside every pooled model."""
        def add(meta, arrays):
            arrays["grand_mean"] = np.zeros(4)

        assert_refused(self.tampered(tmp_path, add), "'grand_mean' array that its model")

    def test_float_counts_rejected(self, tmp_path):
        """The manifest allows <f8 for any array; restoring into the integer
        rows would truncate a count of 10.9 to 10."""
        def to_float(meta, arrays):
            arrays["class_counts"] = np.array([10.9, 10.2, 2.0], dtype=np.float64)

        path = self.tampered(tmp_path, to_float)
        assert_refused(path, "'class_counts' has dtype float64, expected integers")

    def test_negative_count_rejected(self, tmp_path):
        def negative(meta, arrays):
            arrays["class_counts"] = np.array([2, -1, 2], dtype=np.int64)

        assert_refused(self.tampered(tmp_path, negative), "'class_counts' holds a negative count")

    def test_label_ordered_checkpoint_rejected(self, tmp_path):
        """A checkpoint from before the class rows were indexed by label: its
        meta has no class count, and a 'class_labels' array lists the
        classes seen."""
        def old_layout(meta, arrays):
            meta["model"].pop("num_classes")
            arrays["class_labels"] = np.array([0, 1, 2], dtype=np.int64)

        assert_refused(self.tampered(tmp_path, old_layout), "no 'num_classes' field")


def feed_blocks(est, X, y, cuts):
    """Fold X in as the blocks between consecutive cut positions."""
    bounds = [0, *cuts, len(y)]
    for start, stop in zip(bounds, bounds[1:]):
        if stop > start:
            est.observe(X[start:stop], y[start:stop])
    return est


def fixed_cuts(n, size):
    return list(range(size, n, size))


class TestBlocked:
    """The blocked merge (one dsyrk per block) against the per-sample
    rule and the two-pass batch oracle."""

    @pytest.mark.parametrize("order", ["shuffled", "class_incremental"])
    @pytest.mark.parametrize("size", [1, 2, 7, 256, None])
    def test_blocked_matches_per_sample_and_batch(self, size, order):
        """Shuffled labels make blocks mix classes; class-incremental
        labels (the continual-learning stream) make most blocks hold one
        class and bring each new class in mid-stream."""
        rng = np.random.default_rng(30)
        for trial in range(4):
            e = int(rng.integers(2, 24))
            n = int(rng.integers(20, 600))
            k = int(rng.integers(1, 8))
            X = rng.standard_normal((n, e)) + rng.standard_normal(e) * 3
            y = rng.integers(0, k, size=n)
            if order == "class_incremental":
                y = np.sort(y)
            cuts = fixed_cuts(n, size or n)
            blocked = feed_blocks(StreamingEstimator(e, k), X, y, cuts)
            single = feed(StreamingEstimator(e, k), X, y)
            ref = batch_stats(X, y)
            expected = ref.covariance
            scale = np.abs(expected).max()
            for est in (blocked, single):
                assert est.total_count == n
                counts, means = est.class_rows()
                assert counts.tolist() == [ref.counts.get(c, 0) for c in range(k)]
                assert np.abs(est.covariance() - expected).max() / scale <= 1e-8
                for label, mean in ref.means.items():
                    np.testing.assert_allclose(means[label], mean, rtol=1e-8, atol=1e-12)
            if size == 1:
                # a block of one takes the per-sample rule, to the last bit
                np.testing.assert_array_equal(blocked.scatter(), single.scatter())
                np.testing.assert_array_equal(blocked.class_rows()[1], single.class_rows()[1])

    @pytest.mark.parametrize("order", ["shuffled", "class_incremental"])
    def test_random_cuts_and_orders_agree(self, order):
        """One stream in the drawn order (or sorted by class) against a
        random permutation of it, each cut at random block boundaries."""
        rng = np.random.default_rng(31)
        for trial in range(10):
            e = int(rng.integers(2, 20))
            n = int(rng.integers(10, 400))
            X = rng.standard_normal((n, e))
            y = rng.integers(0, int(rng.integers(1, 6)), size=n)
            if order == "class_incremental":
                y = np.sort(y)
            perm = rng.permutation(n)
            cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, 12), replace=False))
            a = feed_blocks(StreamingEstimator(e, CLASSES), X, y, cuts)
            b = feed_blocks(StreamingEstimator(e, CLASSES), X[perm], y[perm], cuts[::2])
            ref = batch_stats(X, y)
            scale = np.abs(ref.scatter).max()
            for est in (a, b):
                assert np.abs(est.scatter() - ref.scatter).max() / scale <= 1e-8

    def test_mean_only_blocks_match_batch_means(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((300, 6)).astype(np.float32)
        y = rng.integers(0, 4, size=300)
        est = feed_blocks(StreamingEstimator(6, CLASSES, track_scatter=False), X, y, [5, 100, 299])
        ref = batch_stats(X, y)
        means = est.class_rows()[1]
        for label, mean in ref.means.items():
            np.testing.assert_allclose(means[label], mean, rtol=1e-10, atol=1e-12)

    def test_resume_at_block_boundary_bitwise(self, tmp_path):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((200, 7))
        y = rng.integers(0, 4, size=200)
        cuts = fixed_cuts(200, 13)
        whole = feed_blocks(StreamingEstimator(7, CLASSES), X, y, cuts)
        stop = 13 * 8
        first = raw_model(7)
        feed_blocks(first.estimator, X[:stop], y[:stop], cuts[:7])
        rest = [c - stop for c in cuts[8:]]
        restored = reload(first, tmp_path / "mid.rdck")
        resumed = feed_blocks(restored, X[stop:], y[stop:], rest)
        np.testing.assert_array_equal(resumed.covariance(), whole.covariance())
        np.testing.assert_array_equal(resumed.class_rows()[1], whole.class_rows()[1])

    def test_resume_at_a_random_block_boundary_is_bitwise(self, tmp_path):
        """Over random shapes, class counts and block cuts, a run saved at a random block boundary, loaded and
        finished holds exactly the state of the uninterrupted run."""
        rng = np.random.default_rng(35)
        path = tmp_path / "resume.rdck"
        for trial in range(30):
            e = int(rng.integers(1, 30))
            n = int(rng.integers(2, 300))
            X = rng.standard_normal((n, e)) + rng.standard_normal(e) * 2
            y = rng.integers(0, int(rng.integers(1, 8)), size=n)
            cuts = sorted(
                rng.choice(np.arange(1, n), size=int(rng.integers(0, min(n, 20))), replace=False)
            )
            bounds = [0, *cuts, n]
            stop = bounds[int(rng.integers(1, len(bounds)))]

            whole = feed_blocks(StreamingEstimator(e, CLASSES), X, y, cuts)
            first = raw_model(e)
            feed_blocks(first.estimator, X[:stop], y[:stop], [c for c in cuts if c < stop])
            rest = [c - stop for c in cuts if c > stop]
            resumed = feed_blocks(reload(first, path), X[stop:], y[stop:], rest)
            assert resumed.total_count == whole.total_count == n
            np.testing.assert_array_equal(resumed.class_rows()[0], whole.class_rows()[0])
            np.testing.assert_array_equal(resumed._scatter, whole._scatter)
            np.testing.assert_array_equal(resumed.class_rows()[1], whole.class_rows()[1])
            if n >= 2:
                np.testing.assert_array_equal(resumed.covariance(), whole.covariance())

    def test_bad_row_names_its_index_and_leaves_state(self):
        rng = np.random.default_rng(34)
        est = StreamingEstimator(3, CLASSES)
        est.observe(rng.standard_normal((4, 3)), [0, 1, 0, 1])
        before = est.scatter()
        block = rng.standard_normal((5, 3))
        block[3, 1] = np.nan
        with pytest.raises(DataError) as info:
            est.observe(block, [0, 0, 1, 1, 2])
        assert info.value.row == 3
        assert est.class_rows()[0].tolist() == [2, 2] + [0] * (CLASSES - 2)
        np.testing.assert_array_equal(est.scatter(), before)

    def test_block_shape_checks(self):
        est = StreamingEstimator(3, CLASSES)
        with pytest.raises(ShapeError, match="labels"):
            est.observe(np.zeros((4, 3)), [0, 1, 2])
        with pytest.raises(ShapeError):
            est.observe(np.zeros((4, 2)), [0, 1, 2, 3])
        with pytest.raises(ShapeError):
            est.observe(np.zeros((2, 4, 3)), [0, 1])
