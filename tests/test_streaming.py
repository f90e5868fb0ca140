"""Streaming estimator: exactness against batch statistics, order
invariance, memory behavior, and its state through a checkpoint."""

import tracemalloc

import numpy as np
import pytest

from conftest import assert_refused
from randumb.classifier import ModelVariant, StreamingClassifier
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
from randumb.streaming import MODE_GLOBAL, MODE_POOLED, StreamingEstimator


def feed(est, X, y):
    for xi, yi in zip(X, y):
        est.observe(xi, yi)
    return est


def raw_model(e, mode=MODE_POOLED, unbiased=False):
    """A classifier on raw inputs: its state is exactly one estimator
    plus a ridge, and checkpoints are the classifier's."""
    return StreamingClassifier(
        ModelVariant("slda", input_dim=e, ridge=1e-4, estimator_mode=mode,
                     pooled_unbiased=unbiased)
    )


def reload(model, path):
    """The estimator of ``model`` after a save to ``path`` and a load."""
    model.save(path)
    return StreamingClassifier.load(path).estimator


class TestSingleSamples:
    def test_first_sample_sets_mean_and_zero_scatter(self):
        est = StreamingEstimator(4)
        phi = np.array([1.0, -2.0, 0.5, 3.0])
        est.observe(phi, 0)
        np.testing.assert_array_equal(est.class_means()[0], phi)
        assert est.class_counts() == {0: 1}
        assert not est.scatter().any()

    def test_identical_samples_leave_scatter_zero(self):
        est = StreamingEstimator(3)
        phi = np.array([0.25, 0.5, -1.0])
        est.observe(phi, 2)
        est.observe(phi, 2)
        assert not est.scatter().any()
        np.testing.assert_allclose(est.class_means()[2], phi, atol=1e-15)

    def test_two_point_covariance_closed_form(self):
        v = np.array([1.0, 4.0])
        w = np.array([3.0, 0.0])
        est = feed(StreamingEstimator(2), [v, w], [0, 0])
        np.testing.assert_allclose(
            est.covariance(), 0.5 * np.outer(v - w, v - w), atol=1e-12
        )

    def test_key_set_tracks_observed_labels_only(self):
        est = StreamingEstimator(2)
        est.observe(np.ones(2), 3)
        est.observe(np.zeros(2), 7)
        assert set(est.class_means()) == {3, 7}
        assert est.classes_seen == [3, 7]


class TestBatchEquivalence:
    def test_pooled_matches_batch_oracle(self):
        """500 samples, 5 classes: scatter and means agree with the
        two-pass batch computation to 1e-10 relative."""
        rng = np.random.default_rng(10)
        X = rng.standard_normal((500, 16))
        y = rng.integers(0, 5, size=500)
        est = feed(StreamingEstimator(16), X, y)
        ref = batch_stats(X, y)
        scale = np.abs(ref.scatter).max()
        assert np.abs(est.scatter() - ref.scatter).max() / scale < 1e-10
        for label, mean in est.class_means().items():
            np.testing.assert_allclose(mean, ref.means[label], rtol=1e-12, atol=1e-12)

    def test_global_mode_matches_batch_oracle(self):
        rng = np.random.default_rng(11)
        X = rng.standard_normal((400, 9))
        y = rng.integers(0, 4, size=400)
        est = feed(StreamingEstimator(9, mode=MODE_GLOBAL), X, y)
        ref = batch_stats(X, y, mode="global")
        np.testing.assert_allclose(est.covariance(), ref.covariance, rtol=1e-10, atol=1e-12)

    def test_class_means_high_count(self):
        rng = np.random.default_rng(12)
        X = rng.standard_normal((1000, 8))
        y = np.repeat(np.arange(10), 100)
        est = feed(StreamingEstimator(8), X, y)
        ref = batch_stats(X, y)
        for label, mean in est.class_means().items():
            np.testing.assert_allclose(mean, ref.means[label], rtol=1e-12)

    def test_reversed_stream_gives_same_covariance(self):
        rng = np.random.default_rng(13)
        X = rng.standard_normal((300, 6))
        y = rng.integers(0, 3, size=300)
        fwd = feed(StreamingEstimator(6), X, y).covariance()
        rev = feed(StreamingEstimator(6), X[::-1], y[::-1]).covariance()
        assert np.abs(fwd - rev).max() / np.abs(fwd).max() < 1e-10

    def test_iid_standard_normal_covariance_near_identity(self):
        rng = np.random.default_rng(14)
        X = rng.standard_normal((10_000, 8))
        y = np.zeros(10_000, dtype=int)
        est = feed(StreamingEstimator(8), X, y)
        assert np.abs(est.covariance() - np.eye(8)).max() < 0.1

    def test_pooled_unbiased_divides_by_n_minus_c(self):
        rng = np.random.default_rng(15)
        X = rng.standard_normal((60, 5))
        y = rng.integers(0, 4, size=60)
        plain = feed(StreamingEstimator(5), X, y)
        unbiased = feed(StreamingEstimator(5, pooled_unbiased=True), X, y)
        k = len(np.unique(y))
        np.testing.assert_allclose(
            unbiased.covariance(), plain.covariance() * (60 - 1) / (60 - k), rtol=1e-12
        )


class TestNumericalShape:
    def test_scatter_is_exactly_symmetric(self):
        rng = np.random.default_rng(16)
        est = feed(
            StreamingEstimator(7),
            rng.standard_normal((120, 7)),
            rng.integers(0, 3, size=120),
        )
        s = est.scatter()
        assert np.abs(s - s.T).max() == 0.0

    def test_covariance_positive_semidefinite(self):
        rng = np.random.default_rng(17)
        est = feed(
            StreamingEstimator(10),
            rng.standard_normal((200, 10)),
            rng.integers(0, 6, size=200),
        )
        eigs = np.linalg.eigvalsh(est.covariance())
        assert eigs.min() >= -1e-8 * eigs.max()

    def test_dimension_and_finiteness_checks(self):
        est = StreamingEstimator(3)
        with pytest.raises(ShapeError):
            est.observe(np.zeros(4), 0)
        with pytest.raises(DataError):
            est.observe(np.array([1.0, np.inf, 0.0]), 0)

    def test_insufficient_data_errors(self):
        est = StreamingEstimator(3)
        with pytest.raises(InsufficientDataError):
            est.covariance()
        est.observe(np.ones(3), 0)
        with pytest.raises(InsufficientDataError):
            est.covariance()
        # with the (n - C) normalizer, two samples in two classes is too few
        est2 = StreamingEstimator(3, pooled_unbiased=True)
        est2.observe(np.ones(3), 0)
        est2.observe(np.zeros(3), 1)
        with pytest.raises(InsufficientDataError):
            est2.covariance()

    def test_constructor_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingEstimator(0)
        with pytest.raises(ConfigurationError):
            StreamingEstimator(4, mode="diagonal")
        with pytest.raises(ConfigurationError):
            StreamingEstimator(4, mode=MODE_GLOBAL, pooled_unbiased=True)


class TestMemoryContract:
    def test_state_size_constant_after_all_classes_seen(self):
        """State is one E x E accumulator plus C mean vectors: growing
        the stream 100x does not grow the state."""
        rng = np.random.default_rng(18)
        est = StreamingEstimator(12)
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
            spend = feed(StreamingEstimator(e), X, y)
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

    def test_normalizer_counts_classes_when_unbiased(self):
        rng = np.random.default_rng(22)
        X = rng.standard_normal((30, 3))
        y = np.repeat([0, 1, 2], 10)
        _, denom = feed(StreamingEstimator(3, pooled_unbiased=True), X, y).packed_scatter()
        assert denom == 27
        with pytest.raises(InsufficientDataError):
            feed(StreamingEstimator(3), X[:1], y[:1]).packed_scatter(consume=True)

    def test_mean_only_mode_has_no_scatter(self):
        est = StreamingEstimator(4, track_scatter=False)
        full = StreamingEstimator(4)
        for model in (est, full):
            model.observe(np.ones(4), 0)
            model.observe(np.zeros(4), 1)
        with pytest.raises(ModelStateError):
            est.covariance()
        assert set(est.class_means()) == {0, 1}
        # the packed upper triangle: E (E + 1) / 2 float64 entries
        assert full.state_nbytes() - est.state_nbytes() == 4 * 5 // 2 * 8


class TestCheckpoint:
    """The estimator's arrays are what a checkpoint stores.  Checkpoints
    belong to the classifier, so each case goes through ``raw_model``."""

    def test_round_trip_preserves_every_statistic(self, tmp_path):
        rng = np.random.default_rng(20)
        X = rng.standard_normal((150, 6))
        y = rng.integers(0, 4, size=150)
        model = raw_model(6)
        est = feed(model.estimator, X, y)
        back = reload(model, tmp_path / "estimator.rdck")
        assert back.total_count == est.total_count
        assert back.class_counts() == est.class_counts()
        assert back.classes_seen == est.classes_seen
        np.testing.assert_array_equal(back.covariance(), est.covariance())
        assert back.state_nbytes() == est.state_nbytes()
        for name, stored in est._arrays().items():
            assert back._arrays()[name].dtype == stored.dtype
            np.testing.assert_array_equal(back._arrays()[name], stored)

    def test_resume_matches_uninterrupted_run_bitwise(self, tmp_path):
        """Saving mid-stream and resuming replays the identical float
        operations, so the final state is bit-identical."""
        rng = np.random.default_rng(21)
        X = rng.standard_normal((80, 5))
        y = rng.integers(0, 3, size=80)
        whole = feed(StreamingEstimator(5), X, y)

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
        "grand_mean_wrong_length": ("grand_mean", np.zeros(5), [6], [5]),
    }

    @pytest.mark.parametrize("case", sorted(MISMATCHES))
    def test_array_disagreeing_with_meta_rejected(self, tmp_path, case):
        """Every array is checked against the shape the model's config
        implies, so a mismatched checkpoint fails at load, naming the
        array, instead of at the next observe."""
        name, bad, expected, found = self.MISMATCHES[case]
        rng = np.random.default_rng(24)
        model = raw_model(6)
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
        model = raw_model(4)
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
        "field", [pytest.param("estimator_mode", id="mode"), "pooled_unbiased"]
    )
    def test_missing_meta_field_rejected(self, tmp_path, field):
        path = self.tampered(tmp_path, lambda meta, arrays: meta["model"].pop(field))
        assert_refused(path, repr(field))

    def test_unknown_mode_rejected_as_data_format(self, tmp_path):
        path = self.tampered(
            tmp_path, lambda meta, arrays: meta["model"].update(estimator_mode="median")
        )
        assert_refused(path, "estimator_mode")

    def test_global_mode_with_pooled_unbiased_rejected_as_data_format(self, tmp_path):
        """The estimator refuses this pair with ConfigurationError (exit 2)
        when called; from a checkpoint it is a bad file (exit 3)."""
        def edit(meta, arrays):
            meta["model"].update(estimator_mode=MODE_GLOBAL, pooled_unbiased=True)

        assert_refused(self.tampered(tmp_path, edit), "pooled_within_class mode only")

    def test_repeated_class_label_rejected(self, tmp_path):
        def repeat(meta, arrays):
            arrays["class_labels"] = np.array([0, 1, 1], dtype=np.int64)

        assert_refused(self.tampered(tmp_path, repeat), "'class_labels' repeats")

    def test_labels_out_of_order_rejected(self, tmp_path):
        """Rows are kept in increasing label order; a row swap would
        otherwise pair each label with another class's mean and count."""
        def swap(meta, arrays):
            arrays["class_labels"] = np.array([0, 2, 1], dtype=np.int64)

        assert_refused(self.tampered(tmp_path, swap), "'class_labels' .* is out of order")

    def test_count_below_one_rejected(self, tmp_path):
        def zero(meta, arrays):
            arrays["class_counts"] = np.array([2, 0, 2], dtype=np.int64)

        assert_refused(self.tampered(tmp_path, zero), "'class_counts' holds a count below 1")


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

    SETTINGS = [
        (MODE_POOLED, False),
        (MODE_POOLED, True),
        (MODE_GLOBAL, False),
    ]

    @pytest.mark.parametrize("mode,unbiased", SETTINGS)
    @pytest.mark.parametrize("size", [1, 2, 7, 256, None])
    def test_blocked_matches_per_sample_and_batch(self, mode, unbiased, size):
        rng = np.random.default_rng(30)
        for trial in range(4):
            e = int(rng.integers(2, 24))
            n = int(rng.integers(20, 600))
            k = int(rng.integers(1, 8))
            X = rng.standard_normal((n, e)) + rng.standard_normal(e) * 3
            # shuffled labels, so blocks mix classes
            y = rng.integers(0, k, size=n)
            cuts = fixed_cuts(n, size or n)
            blocked = feed_blocks(
                StreamingEstimator(e, mode=mode, pooled_unbiased=unbiased), X, y, cuts
            )
            single = feed(StreamingEstimator(e, mode=mode, pooled_unbiased=unbiased), X, y)
            ref = batch_stats(X, y, mode=mode)
            labels = np.unique(y)
            denom = n - (len(labels) if unbiased else 1)
            expected = ref.scatter / denom
            scale = np.abs(expected).max()
            for est in (blocked, single):
                assert est.total_count == n
                assert est.class_counts() == ref.counts
                assert np.abs(est.covariance() - expected).max() / scale <= 1e-8
                for label, mean in est.class_means().items():
                    np.testing.assert_allclose(mean, ref.means[label], rtol=1e-8, atol=1e-12)
            if size == 1:
                # a block of one takes the per-sample rule, to the last bit
                np.testing.assert_array_equal(blocked.scatter(), single.scatter())
                for label, mean in blocked.class_means().items():
                    np.testing.assert_array_equal(mean, single.class_means()[label])

    @pytest.mark.parametrize("mode", [MODE_POOLED, MODE_GLOBAL])
    def test_random_cuts_and_orders_agree(self, mode):
        rng = np.random.default_rng(31)
        for trial in range(10):
            e = int(rng.integers(2, 20))
            n = int(rng.integers(10, 400))
            X = rng.standard_normal((n, e))
            y = rng.integers(0, int(rng.integers(1, 6)), size=n)
            perm = rng.permutation(n)
            cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, 12), replace=False))
            a = feed_blocks(StreamingEstimator(e, mode=mode), X, y, cuts)
            b = feed_blocks(StreamingEstimator(e, mode=mode), X[perm], y[perm], cuts[::2])
            ref = batch_stats(X, y, mode=mode)
            scale = np.abs(ref.scatter).max()
            for est in (a, b):
                assert np.abs(est.scatter() - ref.scatter).max() / scale <= 1e-8

    def test_mean_only_blocks_match_batch_means(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((300, 6)).astype(np.float32)
        y = rng.integers(0, 4, size=300)
        est = feed_blocks(StreamingEstimator(6, track_scatter=False), X, y, [5, 100, 299])
        ref = batch_stats(X, y)
        for label, mean in est.class_means().items():
            np.testing.assert_allclose(mean, ref.means[label], rtol=1e-10, atol=1e-12)

    def test_resume_at_block_boundary_bitwise(self, tmp_path):
        rng = np.random.default_rng(33)
        X = rng.standard_normal((200, 7))
        y = rng.integers(0, 4, size=200)
        for mode in (MODE_POOLED, MODE_GLOBAL):
            cuts = fixed_cuts(200, 13)
            whole = feed_blocks(StreamingEstimator(7, mode=mode), X, y, cuts)
            stop = 13 * 8
            first = raw_model(7, mode)
            feed_blocks(first.estimator, X[:stop], y[:stop], cuts[:7])
            rest = [c - stop for c in cuts[8:]]
            restored = reload(first, tmp_path / f"{mode}.rdck")
            resumed = feed_blocks(restored, X[stop:], y[stop:], rest)
            np.testing.assert_array_equal(resumed.covariance(), whole.covariance())
            for label, mean in whole.class_means().items():
                np.testing.assert_array_equal(resumed.class_means()[label], mean)

    def test_resume_at_a_random_block_boundary_is_bitwise(self, tmp_path):
        """Over random shapes, class counts, block cuts and every estimator
        setting, a run saved at a random block boundary, loaded and
        finished holds exactly the state of the uninterrupted run."""
        rng = np.random.default_rng(35)
        path = tmp_path / "resume.rdck"
        for trial in range(30):
            mode, unbiased = self.SETTINGS[trial % len(self.SETTINGS)]
            e = int(rng.integers(1, 30))
            n = int(rng.integers(2, 300))
            X = rng.standard_normal((n, e)) + rng.standard_normal(e) * 2
            y = rng.integers(0, int(rng.integers(1, 8)), size=n)
            cuts = sorted(
                rng.choice(np.arange(1, n), size=int(rng.integers(0, min(n, 20))), replace=False)
            )
            bounds = [0, *cuts, n]
            stop = bounds[int(rng.integers(1, len(bounds)))]

            def build():
                return StreamingEstimator(e, mode=mode, pooled_unbiased=unbiased)

            whole = feed_blocks(build(), X, y, cuts)
            first = raw_model(e, mode, unbiased)
            feed_blocks(first.estimator, X[:stop], y[:stop], [c for c in cuts if c < stop])
            rest = [c - stop for c in cuts if c > stop]
            resumed = feed_blocks(reload(first, path), X[stop:], y[stop:], rest)
            assert resumed.total_count == whole.total_count == n
            assert resumed.class_counts() == whole.class_counts()
            np.testing.assert_array_equal(resumed._scatter, whole._scatter)
            np.testing.assert_array_equal(resumed._grand_mean, whole._grand_mean)
            for label, mean in whole.class_means().items():
                np.testing.assert_array_equal(resumed.class_means()[label], mean)
            if n - (len(whole.classes_seen) if unbiased else 1) >= 1:
                np.testing.assert_array_equal(resumed.covariance(), whole.covariance())

    def test_bad_row_names_its_index_and_leaves_state(self):
        rng = np.random.default_rng(34)
        est = StreamingEstimator(3)
        est.observe(rng.standard_normal((4, 3)), [0, 1, 0, 1])
        before = est.scatter()
        block = rng.standard_normal((5, 3))
        block[3, 1] = np.nan
        with pytest.raises(DataError) as info:
            est.observe(block, [0, 0, 1, 1, 2])
        assert info.value.row == 3
        assert est.total_count == 4 and est.classes_seen == [0, 1]
        np.testing.assert_array_equal(est.scatter(), before)

    def test_block_shape_checks(self):
        est = StreamingEstimator(3)
        with pytest.raises(ShapeError, match="labels"):
            est.observe(np.zeros((4, 3)), [0, 1, 2])
        with pytest.raises(ShapeError):
            est.observe(np.zeros((4, 2)), [0, 1, 2, 3])
        with pytest.raises(ShapeError):
            est.observe(np.zeros((2, 4, 3)), [0, 1])
