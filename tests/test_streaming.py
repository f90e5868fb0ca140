"""Streaming estimator: exactness against batch statistics, order
invariance, memory behavior, and its state through a checkpoint."""

import re
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from conftest import assert_refused, traced_peak
from randumb import streaming as streaming_module
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


def raw_model(e, classes=CLASSES, rank_bound=None):
    """A classifier on raw inputs: its state is exactly one estimator
    plus a ridge, and checkpoints are the classifier's."""
    return StreamingClassifier(
        ModelVariant("slda", num_classes=classes, input_dim=e, ridge=1e-4), rank_bound
    )


FORMS = ["packed", "factor"]


def in_form(form, monkeypatch):
    """The rank bound to build a model with in ``form`` from a stream of
    labels y, as a function: None for the packed form; for the factor
    form the stream's rows less its classes, with the rule forced to
    hold, since it fails at the small E of these tests."""
    if form == "packed":
        return lambda y: None
    monkeypatch.setattr(streaming_module, "low_rank_fits", lambda *args: True)
    return lambda y: len(y) - len(np.unique(y))


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
            est.scatter_state(consume=True)
        est.observe(np.zeros(3), 1)
        assert est.scatter_state()[1] == 1

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
        entries, and the normalizer; the other handoff lends a read-only
        view of it."""
        rng = np.random.default_rng(19)
        for e in (4, 5):
            X = rng.standard_normal((40, e))
            y = rng.integers(0, 2, size=40)
            spend = feed(StreamingEstimator(e, CLASSES), X, y)
            expected = spend.scatter()
            buffer = spend._scatter
            copied, denom = spend.scatter_state()
            assert copied.base is buffer and denom == 39
            assert not copied.flags.writeable and buffer.flags.writeable
            taken, denom = spend.scatter_state(consume=True)
            assert taken is buffer and taken.shape == (e * (e + 1) // 2,) and denom == 39
            np.testing.assert_array_equal(taken, copied)
            np.testing.assert_array_equal(taken, pack_upper(expected))
            with pytest.raises(ModelStateError):
                spend.observe(np.zeros(e), 0)
            with pytest.raises(ModelStateError):
                spend.covariance()
            with pytest.raises(ModelStateError):
                spend.scatter_state()

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

    def test_factor_state_nbytes_fixed_at_construction(self):
        """On the factor form the scatter is L, E x b float64, in a buffer
        with C spare columns: 8 C + 8 C E + 8 E (b + C) bytes from
        construction on, with no packed vector."""
        e, c, b = 200, 3, 10
        est = StreamingEstimator(e, c, rank_bound=b)
        want = 8 * c + 8 * c * e + 8 * e * (b + c)
        assert est.state_nbytes() == want
        est.observe(np.random.default_rng(33).standard_normal((12, e)), np.arange(12) % c)
        assert est.state_nbytes() == want and est._scatter.shape == (e, b + c)

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

    def test_fractional_label_names_its_row_and_leaves_state(self):
        """A label that is not a whole number is refused, not truncated."""
        est = StreamingEstimator(3, 3)
        est.observe(np.ones((2, 3)), [0, 1])
        before = est.scatter()
        for labels, row in (([1.0, 1.5], 1), ([0.7, 1.0], 0), ([2.0, np.nan], 1)):
            with pytest.raises(DataError, match="whole numbers") as info:
                est.observe(np.ones((2, 3)), labels)
            assert info.value.row == row
        assert est.class_rows()[0].tolist() == [1, 1, 0]
        np.testing.assert_array_equal(est.scatter(), before)
        est.observe(np.ones((2, 3)), np.array([2.0, 0.0]))
        assert est.class_rows()[0].tolist() == [2, 1, 1]

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

    def test_factor_checkpoint_of_bound_rows_loads_and_keeps_observing(self, tmp_path):
        """A factor checkpoint stores L^T's b rows and nothing of the C
        spare columns.  One written by hand in that layout (the scatter of
        the first 12 rows as its scaled eigenvectors, padded to b = 17
        rows) loads into an E x (b + C) buffer, takes the rest of the
        stream, saves b rows again, and matches the batch oracle."""
        e, c, n, head = 200, 3, 20, 12
        rng = np.random.default_rng(25)
        X = rng.standard_normal((n, e)) + rng.standard_normal(e)
        y = np.arange(n) % c
        config = raw_model(e, c).config
        first = batch_stats(X[:head], y[:head])
        lam, vec = np.linalg.eigh(first.scatter)
        top = slice(e - 1, e - 1 - (head - c), -1)
        factor = np.zeros((n - c, e))
        factor[: head - c] = (vec[:, top] * np.sqrt(np.clip(lam[top], 0.0, None))).T
        arrays = {
            "class_counts": np.array([first.counts[k] for k in range(c)], dtype=np.int64),
            "class_means": np.stack([first.means[k] for k in range(c)]),
            "scatter_factor": factor,
        }
        path = tmp_path / "factor.rdck"
        write_checkpoint(path, {"kind": "classifier", "model": asdict(config)}, arrays)
        est = StreamingClassifier.load(path).estimator
        assert est._scatter.shape == (e, n - c + c)
        assert est.state_nbytes() == 8 * c + 8 * c * e + 8 * e * (n - c + c)
        feed_blocks(est, X[head:], y[head:], [3, 5])
        ref = batch_stats(X, y)
        scale = np.abs(ref.scatter).max()
        assert np.abs(est.scatter() - ref.scatter).max() / scale <= 1e-8
        for k in range(c):
            np.testing.assert_allclose(est.class_rows()[1][k], ref.means[k], rtol=1e-8, atol=1e-12)
        assert est._arrays()["scatter_factor"].shape == (n - c, e)

    MISMATCHES = {
        "scatter_square_of_a_smaller_order": ("scatter", np.zeros((5, 5)), [21], [5, 5]),
        "scatter_square_pre_packed_layout": ("scatter", np.zeros((6, 6)), [21], [6, 6]),
        "scatter_short": ("scatter", np.zeros(20), [21], [20]),
        "means_fewer_rows_than_labels": ("class_means", np.zeros((2, 6)), [3, 6], [2, 6]),
        "means_narrower_than_embed_dim": ("class_means", np.zeros((3, 4)), [3, 6], [3, 4]),
        "counts_shorter_than_labels": ("class_counts", np.ones(2, np.int64), [3], [2]),
        # the factor form stores L^T, b x E; 30 samples of 3 classes need
        # at least 27 rows
        "factor_narrower_than_its_counts": (
            "scatter_factor", np.zeros((26, 6)), "at least 27 rows", [26, 6]
        ),
        "factor_of_another_embed_dim": ("scatter_factor", np.zeros((27, 5)), [27, 6], [27, 5]),
    }

    @pytest.mark.parametrize("case", sorted(MISMATCHES))
    def test_array_disagreeing_with_meta_rejected(self, tmp_path, monkeypatch, case):
        """Every array is checked against the shape the model's config
        and counts imply, so a mismatched checkpoint fails at load, naming
        the array, instead of at the next observe.  The factor cases save
        a model held in the factor form."""
        name, bad, expected, found = self.MISMATCHES[case]
        if name == "scatter_factor":
            monkeypatch.setattr(streaming_module, "low_rank_fits", lambda *args: True)
        rng = np.random.default_rng(24)
        model = raw_model(6, 3, rank_bound=27)
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

    @pytest.mark.parametrize("form", [*FORMS, "mean-only"])
    def test_random_blocks_match_batch(self, monkeypatch, form):
        """The fixed block sizes above as a seeded property: random E,
        class counts, cut positions and arrival orders (a random
        permutation, or sorted by class), each equal to the two-pass
        batch oracle within 1e-8, with the scatter in either form or
        none."""
        bound = in_form("packed" if form == "mean-only" else form, monkeypatch)
        rng = np.random.default_rng(38)
        for trial in range(40):
            e = int(rng.integers(1, 40))
            k = int(rng.integers(1, CLASSES + 1))
            n = int(rng.integers(2, 160))
            y = rng.integers(0, k, size=n)
            X = rng.standard_normal((k, e))[y] * 3 + rng.standard_normal((n, e))
            order = rng.permutation(n)
            if trial % 2:
                order = order[np.argsort(y[order], kind="stable")]
            cuts = sorted(rng.choice(np.arange(1, n), size=int(rng.integers(0, n)), replace=False))
            est = StreamingEstimator(e, CLASSES, form != "mean-only", bound(y))
            feed_blocks(est, X[order], y[order], cuts)
            ref = batch_stats(X, y)
            counts, means = est.class_rows()
            assert counts.tolist() == [ref.counts.get(c, 0) for c in range(CLASSES)]
            for label, mean in ref.means.items():
                np.testing.assert_allclose(means[label], mean, rtol=1e-8, atol=1e-12)
            if form != "mean-only":
                assert est._scatter.ndim == (2 if form == "factor" else 1)
                scale = max(np.abs(ref.covariance).max(), 1e-300)
                assert np.abs(est.covariance() - ref.covariance).max() / scale <= 1e-8

    @pytest.mark.parametrize(
        "order,form",
        [(order, form) for form in FORMS for order in ("shuffled", "class_incremental")],
        ids=["shuffled", "class_incremental", "shuffled-factor", "class_incremental-factor"],
    )
    def test_random_cuts_and_orders_agree(self, monkeypatch, order, form):
        """One stream in the drawn order (or sorted by class) against a
        random permutation of it, each cut at random block boundaries,
        with the scatter held in either form (L L^T on the factor form)."""
        bound = in_form(form, monkeypatch)
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
            a = feed_blocks(StreamingEstimator(e, CLASSES, rank_bound=bound(y)), X, y, cuts)
            b = feed_blocks(
                StreamingEstimator(e, CLASSES, rank_bound=bound(y)), X[perm], y[perm], cuts[::2]
            )
            ref = batch_stats(X, y)
            scale = np.abs(ref.scatter).max()
            for est in (a, b):
                assert est._scatter.ndim == (2 if form == "factor" else 1)
                assert np.abs(est.scatter() - ref.scatter).max() / scale <= 1e-8

    def test_factor_columns_are_orthogonal_and_descending(self, monkeypatch):
        """After every block the factor's active columns (samples less
        classes seen) have L^T L diagonal to 1e-12 of its largest entry and
        non-increasing, and the columns past them are exactly zero: L is
        the scatter's scaled eigenvectors, never a block's centred rows."""
        bound = in_form("factor", monkeypatch)
        rng = np.random.default_rng(36)
        for trial in range(10):
            e = int(rng.integers(8, 60))
            n = int(rng.integers(5, 120))
            X = rng.standard_normal((n, e)) * np.logspace(0, -2, e) + rng.standard_normal(e)
            y = rng.integers(0, int(rng.integers(1, 6)), size=n)
            cuts = sorted(rng.choice(np.arange(1, n), size=min(n - 1, 6), replace=False))
            est = StreamingEstimator(e, CLASSES, rank_bound=bound(y) + int(rng.integers(0, 3)))
            for start, stop in zip([0, *cuts], [*cuts, n]):
                est.observe(X[start:stop], y[start:stop])
                width = est.total_count - np.count_nonzero(est.class_rows()[0])
                L = est._scatter
                assert not L[:, width:].any()
                if width:
                    gram = L[:, :width].T @ L[:, :width]
                    d = gram.diagonal()
                    assert np.abs(gram - np.diag(d)).max() <= 1e-12 * d.max()
                    assert (np.diff(d) <= 1e-12 * d.max()).all()

    def test_rows_past_the_rank_bound_refused_and_state_kept(self):
        """At E = 200 with 3 classes the bound 4 fits the rule.  A block
        that would take the samples less the classes seen to 5 is refused
        naming the bound, and the statistics are left as they were."""
        rng = np.random.default_rng(37)
        X = rng.standard_normal((10, 200))
        est = StreamingEstimator(200, 3, rank_bound=4)
        est.observe(X[:5], [0, 0, 1, 1, 2])
        before = {name: a.copy() for name, a in est._arrays().items()}
        with pytest.raises(ModelStateError, match="rank to 5, past the rank bound 4"):
            est.observe(X[5:8], [0, 1, 2])
        for name, array in est._arrays().items():
            np.testing.assert_array_equal(array, before[name])
        est.observe(X[5:7], [0, 2])
        assert est._scatter.shape == (200, 4 + 3) and est.total_count == 7

    def test_mean_only_blocks_match_batch_means(self):
        rng = np.random.default_rng(32)
        X = rng.standard_normal((300, 6)).astype(np.float32)
        y = rng.integers(0, 4, size=300)
        est = feed_blocks(StreamingEstimator(6, CLASSES, track_scatter=False), X, y, [5, 100, 299])
        ref = batch_stats(X, y)
        means = est.class_rows()[1]
        for label, mean in ref.means.items():
            np.testing.assert_allclose(means[label], mean, rtol=1e-10, atol=1e-12)

    def test_mean_only_means_are_the_tracked_means_bit_for_bit(self):
        """A mean-only estimator skips centring and the mean-shift rows,
        which only the scatter reads; its counts and means are those of
        an estimator that tracks the scatter, over blocks of one, blocks
        holding several classes and classes seen again."""
        rng = np.random.default_rng(34)
        X = rng.standard_normal((300, 6)).astype(np.float32)
        y = rng.integers(0, 4, size=300)
        cuts = [1, 2, 40, 41, 170, 299]
        mean_only = feed_blocks(StreamingEstimator(6, CLASSES, track_scatter=False), X, y, cuts)
        tracked = feed_blocks(StreamingEstimator(6, CLASSES), X, y, cuts)
        for got, want in zip(mean_only.class_rows(), tracked.class_rows()):
            assert got.tobytes() == want.tobytes()

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

    @pytest.mark.parametrize("form", FORMS)
    def test_resume_at_a_random_block_boundary_is_bitwise(self, tmp_path, monkeypatch, form):
        """Over random shapes, class counts and block cuts, a run saved at
        a random block boundary, loaded and finished holds exactly the
        state of the uninterrupted run, its scatter in either form."""
        bound = in_form(form, monkeypatch)
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

            whole = feed_blocks(StreamingEstimator(e, CLASSES, rank_bound=bound(y)), X, y, cuts)
            first = raw_model(e, rank_bound=bound(y))
            feed_blocks(first.estimator, X[:stop], y[:stop], [c for c in cuts if c < stop])
            rest = [c - stop for c in cuts if c > stop]
            resumed = feed_blocks(reload(first, path), X[stop:], y[stop:], rest)
            assert resumed.total_count == whole.total_count == n
            np.testing.assert_array_equal(resumed.class_rows()[0], whole.class_rows()[0])
            assert resumed._scatter.ndim == whole._scatter.ndim == (2 if form == "factor" else 1)
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
        with pytest.raises(ShapeError, match="^a block of 4 rows needs one label per row, got 3$"):
            est.observe(np.zeros((4, 3)), [0, 1, 2])
        with pytest.raises(ShapeError):
            est.observe(np.zeros((4, 2)), [0, 1, 2, 3])
        with pytest.raises(ShapeError):
            est.observe(np.zeros((2, 4, 3)), [0, 1])


def twin_rows(rng, X, y):
    """Other rows with the same counts, class means and scatter as X:
    X'_c = 1 mu_c^T + M_c (X_c - 1 mu_c^T) for each class c, M_c a random
    orthogonal matrix with M_c 1 = 1, so 1^T X'_c = 1^T X_c and
    (X'_c - 1 mu_c^T)^T (X'_c - 1 mu_c^T) = (X_c - 1 mu_c^T)^T (X_c - 1 mu_c^T)."""
    twin = X.copy()
    for c in np.unique(y):
        rows = np.flatnonzero(y == c)
        n = len(rows)
        if n < 2:
            continue
        # q's first column is 1/sqrt(n) up to sign; M = q diag(1, O) q^T
        q, _ = np.linalg.qr(np.hstack([np.ones((n, 1)), rng.standard_normal((n, n - 1))]))
        turn = np.eye(n)
        turn[1:, 1:] = np.linalg.qr(rng.standard_normal((n - 1, n - 1)))[0]
        mean = X[rows].mean(axis=0)
        twin[rows] = mean + q @ turn @ q.T @ (X[rows] - mean)
    return twin


def factor_gap(a, b):
    """The largest entry of a - b over b's largest, for two factor
    buffers [L, spare columns]: each column of a takes the sign of b's.
    A column is determined by the scatter only as well as its eigenvalue
    (squared column norm) is apart from its neighbours', so columns whose
    eigenvalues lie within 1% of the largest of each other are grouped,
    and a group's L_g L_g^T is compared instead, over b's largest entry
    squared."""
    a = a.copy()
    signs = np.sign(np.einsum("ij,ij->j", a, b))
    a *= np.where(signs == 0, 1.0, signs)
    norms = np.einsum("ij,ij->j", b, b)
    scale = max(np.abs(b).max(), 1e-300)
    apart = np.abs(np.diff(norms)) > 1e-2 * norms.max(initial=0)
    bounds = [0, *(np.flatnonzero(apart) + 1), len(norms)]
    gap = 0.0
    for lo, hi in zip(bounds, bounds[1:]):
        if hi - lo == 1:
            gap = max(gap, np.abs(a[:, lo] - b[:, lo]).max() / scale)
        else:
            outer = lambda m: m[:, lo:hi] @ m[:, lo:hi].T  # noqa: E731
            gap = max(gap, np.abs(outer(a) - outer(b)).max() / scale**2)
    return gap


# The worst twin-stream gaps of TestNoSampleOutlivesItsBlock.gaps over
# seeds 0..49, relative to the largest entry: class means 4.3e-16 (every
# form), the packed scatter 1.1e-15, the factor buffer 1.9e-13 (``factor_gap``).
# Each bound is about ten times that; the test runs all 50 seeds.
TWIN_MEANS_TOL = 5e-15
TWIN_PACKED_TOL = 1e-14
TWIN_FACTOR_TOL = 2e-12


class TestNoSampleOutlivesItsBlock:
    """After a stream, every array the estimator holds (the factor's
    whole buffer, spare columns included) and so every checkpoint array
    is a function of the counts, the class means and the scatter alone:
    a twin stream of other rows with the same counts, means and scatter
    (``twin_rows``), on the same labels and cuts, leaves the same arrays.
    On the packed form, the factor form, the mean-only intake and the
    mean-only intake of symmetric-half rows (each row counted twice)."""

    E, C, N = 64, 3, 30

    def estimators(self, form, y):
        if form == "packed":
            return StreamingEstimator(self.E, self.C)
        if form == "factor":
            return StreamingEstimator(self.E, self.C, rank_bound=len(y) - len(np.unique(y)))
        return StreamingEstimator(self.E, self.C, track_scatter=False)

    def gaps(self, seed, form):
        """The worst gaps (means, scatter) of one seed's twin streams in
        ``form``, over both stream orders and four cuts of the stream."""
        rng = np.random.default_rng(seed)
        means_gap = scatter_gap = 0.0
        for order in ("shuffled", "class_incremental"):
            y = rng.integers(0, self.C, size=self.N)
            if order == "class_incremental":
                y = np.sort(y)
            X = rng.standard_normal((self.C, self.E))[y] * 3
            X += rng.standard_normal((self.N, self.E))
            twin = twin_rows(rng, X, y)
            assert np.abs(twin - X).max() > 0.5
            random = sorted(rng.choice(np.arange(1, self.N), size=5, replace=False).tolist())
            for cuts in (fixed_cuts(self.N, 1), fixed_cuts(self.N, 7), random, []):
                pair = []
                for rows in (X, twin):
                    est = self.estimators(form, y)
                    bounds = [0, *cuts, self.N]
                    for start, stop in zip(bounds, bounds[1:]):
                        if form == "pairs":
                            est._fold(rows[start:stop], y[start:stop], 2)
                        else:
                            est.observe(rows[start:stop], y[start:stop])
                    pair.append(est._arrays() | {"buffer": est._scatter})
                a, b = pair
                assert a.keys() == b.keys()
                np.testing.assert_array_equal(a["class_counts"], b["class_counts"])
                means = b["class_means"]
                gap = np.abs(a["class_means"] - means).max() / np.abs(means).max()
                means_gap = max(means_gap, gap)
                if form == "packed":
                    gap = np.abs(a["scatter"] - b["scatter"]).max() / np.abs(b["scatter"]).max()
                    scatter_gap = max(scatter_gap, gap)
                elif form == "factor":
                    assert a["buffer"].shape == (self.E, self.N)
                    scatter_gap = max(scatter_gap, factor_gap(a["buffer"], b["buffer"]))
        return means_gap, scatter_gap

    @pytest.mark.parametrize("variant", ["slda", "ncm"])
    def test_twin_checkpoints_agree_on_raw_inputs(self, tmp_path, variant):
        """The same through ``StreamingClassifier.save``: on raw inputs
        the twin is built in input space, and the two checkpoints hold
        the same meta and the same arrays."""
        rng = np.random.default_rng(70)
        config = ModelVariant(variant, self.C, input_dim=self.E, ridge=1e-4)
        for trial in range(10):
            y = rng.integers(0, self.C, size=self.N)
            X = rng.standard_normal((self.C, self.E))[y] * 3
            X += rng.standard_normal((self.N, self.E))
            saved = []
            for rows in (X, twin_rows(rng, X, y)):
                model = StreamingClassifier(config)
                for start in range(0, self.N, 7):
                    model.observe(rows[start : start + 7], y[start : start + 7])
                model.save(tmp_path / "twin.rdck")
                saved.append(read_checkpoint(tmp_path / "twin.rdck"))
            (meta, a), (twin_meta, b) = saved
            assert meta == twin_meta and a.keys() == b.keys()
            np.testing.assert_array_equal(a["class_counts"], b["class_counts"])
            for name, tol in (("class_means", TWIN_MEANS_TOL), ("scatter", TWIN_PACKED_TOL)):
                if name in b:
                    assert np.abs(a[name] - b[name]).max() <= tol * np.abs(b[name]).max()

    @pytest.mark.parametrize("form", ["packed", "factor", "mean-only", "pairs"])
    def test_twin_streams_leave_the_same_arrays(self, monkeypatch, form):
        if form == "factor":
            in_form(form, monkeypatch)
        tol = {"packed": TWIN_PACKED_TOL, "factor": TWIN_FACTOR_TOL}.get(form, 0.0)
        for seed in range(50):
            means_gap, scatter_gap = self.gaps(seed, form)
            assert means_gap <= TWIN_MEANS_TOL
            assert scatter_gap <= tol
